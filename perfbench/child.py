"""One benchmark sample in a fresh interpreter.

    python3 perfbench/child.py MODE WORKLOAD SEED QUICK RESULT [OUT_DIR]

MODE is ``setup`` (import and config only), ``check`` (setup, then the
accuracy sample), ``sample`` (setup, then one timed ``run_scenario``) or
``traced`` (a sample under the tracer).  The result is written to RESULT
as JSON.  ``setup_s`` times the import of ``noisespec`` plus config
validation; ``wall_s`` times ``run_scenario`` alone.  The reference kernel
is timed after set-up and again after the run.
"""

import hashlib
import json
import os
import resource
import sys
import time
from contextlib import nullcontext

import workloads


def reference_s() -> float:
    """Median time of a fixed kernel that mixes the pipeline's two kinds of
    work: complex exponentials of an outer product, and per-call numpy
    generator set-up.  It never touches ``noisespec``, so it reads how fast
    the shared host runs at the moment, not the code.  It writes into
    preallocated arrays, so the allocator's state after a long run does not
    change its time."""
    import numpy as np

    omega = np.linspace(0.0, 57.5, 3000)
    bounds = np.linspace(0.0, 5.0, 24)
    coeffs = np.ones(24)
    phase = np.empty((omega.size, bounds.size))
    waves = np.empty((omega.size, bounds.size), dtype=complex)
    times = []
    for _ in range(4):
        t0 = time.perf_counter()
        for _ in range(12):
            np.outer(omega, bounds, out=phase)
            np.multiply(phase, 1j, out=waves)
            np.exp(waves, out=waves)
            waves @ coeffs
        for i in range(2000):
            np.random.Generator(np.random.PCG64(i)).uniform(-1.0, 1.0)
        times.append(time.perf_counter() - t0)
    # the first pass warms up and is not counted
    return sorted(times[1:])[1]


def main(argv):
    mode, name, seed, quick, result_path = argv[:5]
    out_dir = argv[5] if len(argv) > 5 else None
    workload = workloads.WORKLOADS[name]

    t0 = time.perf_counter()
    import noisespec
    from noisespec import cli
    cfg = workloads.build_config(cli, workload, int(seed), quick == "1")
    setup_s = time.perf_counter() - t0

    import numpy
    import scipy
    result = {"setup_s": setup_s, "ref_before_s": reference_s(),
              "package": os.path.realpath(noisespec.__file__),
              "versions": {"python": sys.version.split()[0],
                           "numpy": numpy.__version__, "scipy": scipy.__version__},
              "config_sha256": hashlib.sha256(
                  cli.format_config(cfg).encode()).hexdigest(),
              "readouts": workloads.readouts(cfg)}
    if mode == "check":
        result.update(workloads.accuracy(noisespec, cfg))
    elif mode in ("sample", "traced"):
        tracer = None
        if mode == "traced":
            from tracer import Tracer
            tracer = Tracer()
        with tracer or nullcontext():
            t1 = time.perf_counter()
            summary = cli.run_scenario(cfg, out_dir, workers=workload.workers)
            result["wall_s"] = time.perf_counter() - t1
        result["ref_after_s"] = reference_s()
        result["summary"] = summary
        if tracer is not None:
            result["layers"] = {k: list(v) for k, v in tracer.metrics().items()}
            result["patched"] = tracer.patched
            result["spans"] = len(tracer.spans)
            tracer.write_spans(os.path.join(os.path.dirname(result_path),
                                            f"{name}-spans.npz"))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, default=float)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
