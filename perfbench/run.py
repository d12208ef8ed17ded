"""Benchmark of the noisespec pipeline, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                 # every workload, untraced and traced
    python3 perfbench/run.py --self-test     # quick budgets, about 20 s

Run from the repository root.  The package is imported from ``src/`` of the
tree this file sits in.  Every sample runs in a fresh interpreter, one at a
time, with BLAS pinned to one thread.  Samples are repeated until the next
one would end after ``--seconds``; there is always at least one.  The
metric names and units, and the workloads of the default run, come from
``BENCHMARK.json``; ``workloads.py`` also defines reconstruction-reps-w2,
which the self-test and an explicit ``--workload`` run.

Times are scaled to a nominal host by a reference kernel timed in every
process of the run (see REF_NOMINAL_S); unscaled medians are printed too.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
sample under the tracer and at least one without; it reports the
per-layer metrics and the tracing overhead (traced minus untraced wall).

The correctness gate fails the run (exit 1) when a sample fails, when
samples or earlier runs at the same seed and config wrote different bytes,
when the accuracy checks exceed their bounds, when a fidelity leaves
[0, 1] or an overlap is not finite, or when, at the default seed, the
summary differs from ``golden.json``.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Run records and spans go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

# Today's values are oracle <= 6e-4 (set by the grid's truncated tail) and
# energy <= 3e-8 (trapezoid error); a wrong transform is off by O(1).
ORACLE_BOUND = 2e-3
ENERGY_BOUND = 1e-6
SETUP_SAMPLES = 5
# A shared host's speed drifts by tens of percent within minutes.  Times are
# therefore scaled to a nominal host: every process also times a fixed
# reference kernel (child.reference_s) after set-up and after the run, and
# a time t in that process becomes t * REF_NOMINAL_S / its reference time.
# The unscaled medians are reported too.
REF_NOMINAL_S = 0.06
RUN_LIMIT_S = 170.0
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}


class SampleError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_THREADS)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(mode, workload, seed, quick, deadline, out_dir=None):
    """Run one sample process to completion; return (result, seconds)."""
    OUT.mkdir(exist_ok=True)
    result_path = OUT / f"{workload.name}-{mode}.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), mode, workload.name,
           str(seed), "1" if quick else "0", str(result_path)]
    if out_dir is not None:
        if out_dir.exists():
            shutil.rmtree(out_dir)
        cmd.append(str(out_dir))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise SampleError(f"{mode}: no time left within {RUN_LIMIT_S} s")
    start = time.monotonic()
    # own session, so that a timeout also stops the pool workers it forked
    proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT, start_new_session=True,
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    try:
        output, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SampleError(f"{mode}: timed out after {timeout:.0f} s") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    elapsed = time.monotonic() - start
    if proc.returncode != 0:
        tail = output.decode(errors="replace").strip().splitlines()[-5:]
        raise SampleError(f"{mode}: exit code {proc.returncode}: " + " | ".join(tail))
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    src = (ROOT / "src").resolve()
    if not Path(result["package"]).is_relative_to(src):
        raise SampleError(f"{mode}: imported {result['package']}, not from {src}")
    return result, elapsed


# ---------------------------------------------------------------------------
# outputs
# ---------------------------------------------------------------------------

def hash_outputs(out_dir: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir())}


def read_values(out_dir: Path, file: str, column: str) -> list[float]:
    """A summary key (file ``summary.txt``) or a CSV column, as floats."""
    lines = (out_dir / file).read_text(encoding="utf-8").splitlines()
    if file == "summary.txt":
        entries = dict(line.split(" = ", 1) for line in lines)
        return [float(entries[column])]
    rows = [line.split(",") for line in lines if not line.startswith("#")]
    ix = rows[0].index(column)
    return [float(row[ix]) for row in rows[1:] if row[ix] != ""]


def fidelity_values(out_dir: Path) -> list[float]:
    """Every fidelity the outputs report, standard errors excluded."""
    values = []
    for path in sorted(out_dir.glob("*.csv")):
        header = next(line for line in path.read_text(encoding="utf-8").splitlines()
                      if not line.startswith("#"))
        for column in header.split(","):
            if "fidelity" in column and not column.endswith("_se"):
                values += read_values(out_dir, path.name, column)
    for line in (out_dir / "summary.txt").read_text(encoding="utf-8").splitlines():
        key, value = line.split(" = ", 1)
        if "fidelity" in key and not key.endswith("_se"):
            values.append(float(value))
    return values


def src_identity() -> tuple[str, int]:
    digest = hashlib.sha256()
    lines = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return digest.hexdigest(), lines


def compare_with_earlier_runs(key: str, hashes: dict):
    """Outputs of every run at one (source, config) must be byte-identical;
    the first run in this tree records them."""
    path = OUT / "output_hashes.json"
    seen = json.loads(path.read_text()) if path.exists() else {}
    if key not in seen:
        seen[key] = hashes
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(seen, indent=1, sort_keys=True))
        os.replace(tmp, path)
        return True, "first run at this source, config and seed: recorded"
    same = seen[key] == hashes
    return same, "identical to earlier runs" if same else (
        f"differs from earlier runs: {sorted(k for k in hashes if seen[key].get(k) != hashes[k])}")


def golden_mismatches(summary: dict, golden: dict, rel_tol: float) -> list[str]:
    bad = []
    for key in sorted(set(summary) | set(golden)):
        a, b = summary.get(key), golden.get(key)
        if isinstance(a, float) and isinstance(b, (int, float)):
            if not math.isclose(a, b, rel_tol=rel_tol, abs_tol=0.0):
                bad.append(f"{key}: {a!r} != {b!r}")
        elif a != b:
            bad.append(f"{key}: {a!r} != {b!r}")
    return bad


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def run_workload(workload, seed, seconds, trace, quick):
    """Samples, correctness gate and metrics of one workload run."""
    deadline = time.monotonic() + RUN_LIMIT_S
    res = {"workload": workload.name, "seed": seed, "seconds": seconds,
           "trace": trace, "quick": quick, "checks": [], "end_to_end": {},
           "info": {}, "layers": {}, "attempted": 0, "failed": 0}

    def check(name, ok, detail):
        res["checks"].append({"check": name, "ok": bool(ok), "detail": detail})

    out_dir = OUT / "outputs" / workload.name
    samples, outputs, traced = [], [], None
    try:
        acc, _ = run_child("check", workload, seed, quick, deadline)
        setup = [acc]
        used = 0.0
        if trace:
            res["attempted"] += 1
            traced, used = run_child("traced", workload, seed, quick, deadline, out_dir)
            outputs.append(hash_outputs(out_dir))
        while True:
            res["attempted"] += 1
            result, elapsed = run_child("sample", workload, seed, quick, deadline, out_dir)
            samples.append(result)
            outputs.append(hash_outputs(out_dir))
            setup.append(result)
            used += elapsed
            if used + elapsed > seconds or time.monotonic() + 2 * elapsed > deadline:
                break
        while not trace and len(setup) < SETUP_SAMPLES:
            extra, _ = run_child("setup", workload, seed, quick, deadline)
            setup.append(extra)
    except SampleError as exc:
        res["failed"] += 1
        check("samples complete", False, str(exc))
        return res
    check("samples complete", True, f"{len(outputs)} sample(s)")

    check("outputs identical across this run's samples",
          all(h == outputs[0] for h in outputs), f"{len(outputs)} sample(s)")
    src_sha, src_lines = src_identity()
    ok, detail = compare_with_earlier_runs(
        f"{src_sha}:{samples[0]['config_sha256']}", outputs[0])
    check("outputs identical to earlier runs (any worker count)", ok, detail)

    oracle, energy = acc["oracle_rel_err"], acc["energy_rel_err"]
    check(f"oracle_rel_err <= {ORACLE_BOUND:g}", oracle <= ORACLE_BOUND,
          f"{oracle:.3e} over {acc['oracle_filters']} filters")
    check(f"energy_rel_err <= {ENERGY_BOUND:g}", energy <= ENERGY_BOUND,
          f"{energy:.3e} over {acc['oracle_filters']} filters")
    try:
        fids = fidelity_values(out_dir)
        xis = [v for f, c in workload.xi for v in read_values(out_dir, f, c)]
        reported = [v for f, c in workload.fidelity for v in read_values(out_dir, f, c)]
    except (OSError, KeyError, ValueError) as exc:
        check("outputs readable", False, f"{type(exc).__name__}: {exc}")
        return res
    check("every fidelity in [0, 1]", all(0.0 <= f <= 1.0 for f in fids),
          f"{len(fids)} values, min {min(fids):.6g}, max {max(fids):.6g}")
    if workload.xi:
        check("xi_normalized finite", all(math.isfinite(x) for x in xis),
              f"{len(xis)} values")
    if samples[0]["summary"]["seed"] == workloads.DEFAULT_SEED:
        golden = json.loads((HERE / "golden.json").read_text())
        name = workloads.GOLDEN_NAME.get(workload.name, workload.name)
        bad = golden_mismatches(samples[0]["summary"],
                                golden["quick" if quick else "full"][name],
                                golden["rel_tol"])
        check(f"summary equals golden.json (rel_tol {golden['rel_tol']:g})",
              not bad, "; ".join(bad) or "equal")

    wall_unscaled = statistics.median(s["wall_s"] for s in samples)
    setup_unscaled = statistics.median(s["setup_s"] for s in setup)
    res["end_to_end"] = {
        "wall_s": statistics.median(
            s["wall_s"] * REF_NOMINAL_S / statistics.mean((s["ref_before_s"], s["ref_after_s"]))
            for s in samples),
        "setup_s": statistics.median(s["setup_s"] * REF_NOMINAL_S / s["ref_before_s"]
                                     for s in setup),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
        "fidelity": sum(reported) / len(reported),
        "oracle_rel_err": oracle,
    }
    readouts = samples[0]["readouts"]
    res["info"] = {"wall_unscaled_s": wall_unscaled,
                   "setup_unscaled_s": setup_unscaled,
                   "energy_rel_err": energy,
                   "readouts_per_s": readouts / wall_unscaled if readouts else None,
                   "xi_normalized": sum(xis) / len(xis) if xis else None}
    if traced is not None:
        layers = {k: tuple(v) for k, v in traced["layers"].items()}
        layers["tracer.overhead_s"] = (traced["wall_s"] - wall_unscaled, "s", None)
        res["layers"] = layers
        runs = layers["reconstruct.run_once.calls"][0]
        res["info"]["failed_share"] = (layers["reconstruct.run_once.zero_share"][0]
                                       if runs else None)
        res.update(traced_wall_s=traced["wall_s"], patched=traced["patched"],
                   spans=traced["spans"])
    res.update(
        run={"commit": commit(), "src_sha256": src_sha, "src_lines": src_lines,
             **samples[0]["versions"], "nproc": os.cpu_count(),
             "cpus_usable": len(os.sched_getaffinity(0)),
             "blas_threads": BLAS_THREADS},
        samples=[{k: s[k] for k in ("setup_s", "wall_s", "ref_before_s", "ref_after_s",
                                    "peak_rss_mb")} for s in samples],
        setup_samples=[{k: s[k] for k in ("setup_s", "ref_before_s")} for s in setup],
        accuracy=acc, summary=samples[0]["summary"])
    return res


def commit():
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() or None


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

INFO_UNITS = {"wall_unscaled_s": "s", "setup_unscaled_s": "s",
              "energy_rel_err": "ratio", "readouts_per_s": "1/s",
              "xi_normalized": "ratio", "failed_share": "ratio"}


def metric_entries(res, spec, trace):
    """The final line's metrics: every end-to-end metric of BENCHMARK.json,
    or with tracing every per-layer one (None, with the reason, when a
    binding is gone)."""
    out = {}
    if not trace:
        for m in spec["end_to_end"]:
            out[m["name"]] = {"value": res["end_to_end"].get(m["name"]), "unit": m["unit"]}
        return out
    for m in spec["per_layer"]:
        value, _, reason = res["layers"].get(m["name"], (None, None, "not measured"))
        entry = {"value": value, "unit": m["unit"]}
        if value is None:
            entry["reason"] = reason or "not measured"
        out[m["name"]] = entry
    return out


def fmt(value):
    if value is None:
        return "n/a"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def print_result(res, spec):
    head = (f"== {res['workload']}  seed {res['seed']}  trace {res['trace']}"
            f"{'  quick' if res['quick'] else ''}")
    print(head)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in res["end_to_end"].items():
        print(f"  {name:44} {fmt(value):>14} {units[name]}")
    for name, value in res["info"].items():
        print(f"  {name:44} {fmt(value):>14} {INFO_UNITS[name]}")
    for name, (value, unit, reason) in sorted(res["layers"].items()):
        print(f"  {name:44} {fmt(value):>14} {unit}" + (f"  ({reason})" if reason else ""))
    if "run" in res:
        run = res["run"]
        print(f"  run: commit {run['commit']}, src {run['src_lines']} lines, "
              f"python {run['python']}, numpy {run['numpy']}, scipy {run['scipy']}, "
              f"nproc {run['nproc']}, BLAS threads 1, samples {len(res['samples'])}")
    for c in res["checks"]:
        print(f"  [{'ok' if c['ok'] else 'FAIL'}] {c['check']}: {c['detail']}")


def write_record(res):
    OUT.mkdir(exist_ok=True)
    path = OUT / (f"{res['workload']}-seed{res['seed']}-trace{res['trace']}"
                  f"{'-quick' if res['quick'] else ''}.json")
    path.write_text(json.dumps(res, indent=1, default=str))


def finish(results, metrics):
    correct = all(c["ok"] for r in results for c in r["checks"])
    line = {"correct": correct,
            "attempted": max(1, sum(r["attempted"] for r in results)),
            "failed": sum(r["failed"] for r in results), "metrics": metrics}
    print(json.dumps(line))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------

def record_golden():
    """Write golden.json from this tree's summaries at the default seed."""
    golden = {"seed": workloads.DEFAULT_SEED, "rel_tol": 1e-9, "full": {}, "quick": {}}
    deadline = time.monotonic() + 3600
    for workload in workloads.WORKLOADS.values():
        if workload.name in workloads.GOLDEN_NAME:
            continue
        for budget, quick in (("full", False), ("quick", True)):
            result, _ = run_child("sample", workload, workloads.DEFAULT_SEED, quick,
                                  deadline, OUT / "outputs" / workload.name)
            golden[budget][workload.name] = result["summary"]
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    # a terminated benchmark still stops the sample it is waiting for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        help="a workload of workloads.py, or 'all' for those of BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="every workload of workloads.py once at quick budget, traced")
    parser.add_argument("--record-golden", action="store_true",
                        help="rewrite golden.json from this tree")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "noisespec" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} holds no src/noisespec package or no BENCHMARK.json",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.record_golden:
        return record_golden()
    if args.self_test:
        results = []
        for name in workloads.WORKLOADS:
            res = run_workload(workloads.WORKLOADS[name], workloads.DEFAULT_SEED,
                               0.0, 1, True)
            print_result(res, spec)
            write_record(res)
            results.append(res)
        metrics = {f"{r['workload']}.wall_s": {"value": r["end_to_end"].get("wall_s"),
                                              "unit": "s"} for r in results}
        return finish(results, metrics)
    if args.workload != "all":
        if args.workload not in workloads.WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; "
                         f"choose from {list(workloads.WORKLOADS)}")
        res = run_workload(workloads.WORKLOADS[args.workload], args.seed, seconds,
                           args.trace, False)
        print_result(res, spec)
        write_record(res)
        return finish([res], metric_entries(res, spec, args.trace))
    results, metrics = [], {}
    for name in names:
        for trace in (0, 1):
            res = run_workload(workloads.WORKLOADS[name], args.seed, seconds, trace, False)
            print_result(res, spec)
            write_record(res)
            results.append(res)
            for key, entry in metric_entries(res, spec, trace).items():
                metrics[f"{name}.{key}"] = entry
    return finish(results, metrics)


if __name__ == "__main__":
    sys.exit(main())
