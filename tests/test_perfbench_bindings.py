"""Every binding the benchmark's tracer times resolves in the package.  The
tracer reports a vanished name as a null per-layer metric and runs on, so a
rename would otherwise show only in a traced benchmark run."""

import importlib.util
import os

from noisespec import cli  # noqa: F401  (the tracer patches loaded namespaces)

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_tracer", os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                                     "tracer.py"))
tracer = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracer)


def test_every_binding_resolves():
    with tracer.Tracer() as traced:
        missing = [stat.missing for stat in traced.stats if stat.missing is not None]
        unpatched = [binding for binding, _ in tracer.BINDINGS if not traced.patched.get(binding)]
    assert missing == []
    assert unpatched == []
