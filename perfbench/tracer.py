"""In-memory span tracer that wraps declared ``noisespec`` bindings.

A binding is ``module.function``, ``module.Class`` (its constructor) or
``module.Class.method``.  A function is rebound in every loaded
``noisespec`` namespace that holds the same object, because modules import
functions by name (``fourier_piecewise`` lives in ``filterfn`` and ``ocf``,
``measure`` in ``reconstruct`` and ``tracking``); patching only the
defining module would miss those calls.  A binding that no longer exists
is reported with a ``None`` value and the reason, and the run goes on.

Each call records a span (binding, start, end, parent span).  Spans stay in
memory until :meth:`Tracer.write_spans`.  ``busy_s`` is inclusive time;
``self_s`` is busy time minus the time of child spans.
"""

from __future__ import annotations

import importlib
import sys
import time

from noisespec.modulation import to_step_function

# (binding, metric prefix)
BINDINGS = (
    ("filterfn.fourier_piecewise", "filterfn.fourier_piecewise"),
    ("filterfn.filter_function", "filterfn.filter_function"),
    ("filterfn.transform_continuous", "filterfn.transform_continuous"),
    ("filterfn.overlap_matrix", "filterfn.overlap_matrix"),
    ("filterfn.signal_overlap", "filterfn.signal_overlap"),
    ("spectra.calibrate_amplitude", "spectra.calibrate_amplitude"),
    ("reconstruct.ProtocolContext", "reconstruct.ProtocolContext"),
    ("reconstruct.ProtocolContext.run_once", "reconstruct.run_once"),
    ("reconstruct.scan_optimal_time", "reconstruct.scan_optimal_time"),
    ("reconstruct.fo_reconstruct", "reconstruct.fo_reconstruct"),
    ("reconstruct.as_reconstruct", "reconstruct.as_reconstruct"),
    ("reconstruct.fidelity", "reconstruct.fidelity"),
    ("probe.measure", "probe.measure"),
    ("seeding.make_rng", "seeding.make_rng"),
    ("cli.run_repetitions", "cli.run_repetitions"),
    ("cli.write_csv", "cli.write_csv"),
    ("ocf.optimize_discrete", "ocf.optimize_discrete"),
    ("ocf.optimize_continuous", "ocf.optimize_continuous"),
)


class _Stat:
    __slots__ = ("index", "prefix", "calls", "busy", "self_time", "counts",
                 "missing")

    def __init__(self, index, prefix):
        self.index = index
        self.prefix = prefix
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.counts = {}
        self.missing = None

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value


# Observers derive per-layer counts from a call's arguments and result.
# They run after the call's own span has closed.

def _count_terms(stat, args, kwargs, result):
    generator = args[0] if args else kwargs["seq_or_set"]
    omega = args[1] if len(args) > 1 else kwargs["omega"]
    n_omega = getattr(omega, "size", 1)
    stat.add("terms", n_omega * to_step_function(generator)[0].size)


def _filter_key(generator, grid):
    if hasattr(generator, "linear_rate"):
        ident = (generator.duration, generator.linear_rate, generator.terms)
    else:
        bounds, values = to_step_function(generator)
        ident = (bounds.tobytes(), values.tobytes())
    return (grid.omega_max_grid, grid.size, ident)


def _count_distinct(stat, args, kwargs, result):
    stat.counts.setdefault("distinct", set()).add(
        _filter_key(result.generator, result.grid))


def _count_saturated(stat, args, kwargs, result):
    stat.add("saturated", int(bool(result.saturated)))


def _count_zero(stat, args, kwargs, result):
    stat.add("zero", int(result[0] == 0.0))


def _count_ocf(stat, args, kwargs, result):
    trace = result.trace
    stat.add("evaluations", int(result.evaluations))
    stat.add("superiterations", len(trace) - 1)
    stat.add("accepted", sum(1 for a, b in zip(trace, trace[1:]) if b > a))


OBSERVERS = {
    "filterfn.fourier_piecewise": _count_terms,
    "filterfn.filter_function": _count_distinct,
    "probe.measure": _count_saturated,
    "reconstruct.run_once": _count_zero,
    "ocf.optimize_discrete": _count_ocf,
    "ocf.optimize_continuous": _count_ocf,
}


class Tracer:
    """Context manager that patches the bindings on entry and restores
    them on exit."""

    def __init__(self):
        self.stats = [_Stat(i, prefix) for i, (_, prefix) in enumerate(BINDINGS)]
        self.spans = []           # (binding index, start, end, parent span)
        self.patched = {}         # binding -> namespaces rebound
        self._stack = []          # open spans: [span id, child time]
        self._undo = []

    # -- patching ---------------------------------------------------------

    def __enter__(self):
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if m is not None and (name == "noisespec"
                                            or name.startswith("noisespec."))]
        for (binding, _), stat in zip(BINDINGS, self.stats):
            try:
                self._patch(binding, stat, namespaces)
            except (ImportError, AttributeError) as exc:
                stat.missing = f"{binding}: {type(exc).__name__}: {exc}"
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        return False

    def _patch(self, binding, stat, namespaces):
        parts = binding.split(".")
        module = importlib.import_module("noisespec." + parts[0])
        target = getattr(module, parts[1])
        if len(parts) == 3 or isinstance(target, type):
            # a method, or a class timed through its constructor: rebinding
            # on the class reaches every namespace that holds the class
            owner = target
            attr = parts[2] if len(parts) == 3 else "__init__"
            if attr not in owner.__dict__:
                raise AttributeError(f"{owner.__name__} defines no {attr}")
            original = owner.__dict__[attr]
            self._rebind(owner, attr, original, self._wrap(stat, original))
            self.patched[binding] = [f"{module.__name__}.{parts[1]}"]
            return
        wrapper = self._wrap(stat, target)
        hits = []
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is target:
                    self._rebind(ns, attr, target, wrapper)
                    hits.append(f"{ns.__name__}.{attr}")
        self.patched[binding] = hits

    def _rebind(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def _wrap(self, stat, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        observe = OBSERVERS.get(stat.prefix)
        index = stat.index

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                stat.calls += 1
                stat.busy += duration
                stat.self_time += duration - frame[1]
                spans[frame[0]] = (index, start, end, parent)
            if observe is not None:
                observe(stat, args, kwargs, result)
            return result

        return traced

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics: ``{name: (value or None, unit, reason)}``."""
        out = {}
        by_prefix = {s.prefix: s for s in self.stats}

        def put(name, unit, stat, value):
            if stat.missing is not None:
                out[name] = (None, unit, stat.missing)
            else:
                out[name] = (value, unit, None)

        def ratio(num, den):
            return num / den if den else 0.0

        for s in self.stats:
            put(f"{s.prefix}.calls", "count", s, s.calls)
            put(f"{s.prefix}.busy_s", "s", s, s.busy)
            put(f"{s.prefix}.self_s", "s", s, s.self_time)
        fp = by_prefix["filterfn.fourier_piecewise"]
        terms = fp.counts.get("terms", 0)
        put("filterfn.fourier_piecewise.terms", "count", fp, terms)
        put("filterfn.fourier_piecewise.ns_per_term", "ns", fp,
            ratio(fp.busy * 1e9, terms))
        ff = by_prefix["filterfn.filter_function"]
        put("filterfn.filter_function.distinct_share", "ratio", ff,
            ratio(len(ff.counts.get("distinct", ())), ff.calls))
        me = by_prefix["probe.measure"]
        put("probe.measure.saturated_share", "ratio", me,
            ratio(me.counts.get("saturated", 0), me.calls))
        ro = by_prefix["reconstruct.run_once"]
        put("reconstruct.run_once.zero_share", "ratio", ro,
            ratio(ro.counts.get("zero", 0), ro.calls))
        opts = [by_prefix["ocf.optimize_discrete"], by_prefix["ocf.optimize_continuous"]]
        totals = {k: sum(s.counts.get(k, 0) for s in opts)
                  for k in ("evaluations", "superiterations", "accepted")}
        # with either optimizer gone the totals would be partial
        owner = next((s for s in opts if s.missing is not None), opts[0])
        put("ocf.evaluations", "count", owner, totals["evaluations"])
        put("ocf.accept_share", "ratio", owner,
            ratio(totals["accepted"], totals["superiterations"]))
        return out

    def write_spans(self, path) -> None:
        """Write the spans as arrays: binding index, start, end, parent."""
        import numpy as np

        rows = [s for s in self.spans if s is not None]
        arr = np.array(rows, dtype=float).reshape(-1, 4)
        np.savez_compressed(path, binding=arr[:, 0].astype(np.int32),
                            start=arr[:, 1], end=arr[:, 2],
                            parent=arr[:, 3].astype(np.int64),
                            names=np.array([b for b, _ in BINDINGS]))
