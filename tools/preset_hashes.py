"""Run the preset matrix through the CLI and print a sha256 of every output,
or compare two output trees value by value.

Usage (from the repository root)::

    python3 tools/preset_hashes.py OUT > hashes.txt
    python3 tools/preset_hashes.py --compare OUT_A OUT_B [--rtol R]

The package is imported from ``src/`` next to this script, so the same
script run in two checkouts compares their outputs:
``diff parent/hashes.txt change/hashes.txt`` lists every file whose bytes
differ.  The matrix is all presets at ``--quick`` with one and two
workers, every preset at its full budget (``fig8-ocf-lorentzian``, with
its 75 discrete designs and one continuous one, takes most of the time),
``fig10-ocf-double`` at its full budget with two workers, whose designs
build their quadrature and pulse-train plans in the pool's processes, and
quick runs from written configs: fig8 with two operation times and
two swept qubit numbers, the one run that writes
``ocf_time_scan.csv`` (quick budgets empty ``T_candidates``), with one
and with two workers; quick fig8 at ``T_candidates = 10`` with 4 and 6
swept qubits, whose long multi-qubit trains carry many switch times
through the discrete search; and fig3 at 20 repetitions with
``eig_keep = cv``, the one run that scores saturated readouts under the
cross-validated retention rule; and fig3 at 20 repetitions with
``as_candidates = 4 5`` and ``gamma_values = 0 0.4 0.8``, the one run whose
full pointwise bin system (at T = 4) fails the condition guard, so each
kept subset is checked on its own: at gamma 0.8 the readouts saturate and
19 of 20 kept sets pass; and quick fig13 with 6-filter fo blocks
under ``eig_keep = cv`` at ``gamma = 0.6`` and ``dp_max = 0.02``, where
saturated readouts leave fo blocks fitted on a kept subset and OCF pair
samples NaN; and quick fig3 at two workers with three fo candidates, one
as candidate and three dephasing rates, whose rows of unequal length
regroup the scan's cells per (protocol, rate); and quick fig4 with
``as_delta_approx = false``, ``eig_keep = cv`` and ``n_qubits = 2``, the
one run that writes a least-squares ``as_estimate.csv``, a cross-validated
``fo_estimate.csv`` and a 2-qubit reconstruction; and quick fig5 at
``shots = 500``, the one run whose readouts are binomial shot frequencies
(finite-precision measurements); and quick fig5 at ``repetitions = 1100``
with one and with two workers, the one run whose cells span several
repetition blocks (every other run has at most 100 repetitions a cell,
which is one block), so its bytes cross block edges; and fig6 with
``nqubit_values = 4 6``, ``T_values = 2 3`` and ``dp_values = 0.04 0.1``
run with ``--quick``, the one run whose quick budget cuts a nqubit scan's
per-N lists, so its rows show which T and dp each qubit count keeps.  Each line
is ``sha256  path`` with the path relative to ``OUT``; a run that exits
nonzero is reported on stderr and makes the script exit 1.

``--compare`` walks two such trees.  For every file that differs it lists
the summary keys, CSV metadata keys and CSV columns whose values differ,
each with its largest relative gap ``|a - b| / max(|a|, |b|)``, and then
any difference that is not a number: a file on one side only, a key or
column on one side only, a row count, a text value, or other bytes.  It
exits 1 if a gap exceeds ``R`` (default 0) or any such difference exists,
and also when a root is not a directory or neither root holds a file, so
a mistyped or never-written tree does not compare equal.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import math
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from noisespec import cli  # noqa: E402

def quick_config(path, preset, **sections) -> str:
    """Write the quick budget of ``preset``, with each of ``sections``
    updated by its dict of values, to ``path`` as an INI config; the
    matrix runs it without ``--quick`` unless the run tests that flag."""
    cfg = cli.preset_config(preset, quick=True)
    for section, values in sections.items():
        cfg[section].update(values)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(cli.format_config(cfg))
    return path


def matrix(config_dir):
    """(output subdirectory, CLI arguments) of every run; config files go
    to ``config_dir``."""
    names = sorted(cli.PRESETS)
    for workers in (1, 2):
        for name in names:
            yield f"quick-w{workers}", [name, "--quick", "--workers", str(workers)]
    for name in names:
        yield "full", [name]
    yield "full-w2", ["fig10-ocf-double", "--workers", "2"]
    time_scan = quick_config(
        os.path.join(config_dir, "time-scan.ini"), "fig8-ocf-lorentzian",
        ocf={"T_candidates": [2.0, 5.0], "sweep_nqubits": [1, 2]})
    yield "quick-time-scan", [time_scan]
    yield "quick-time-scan-w2", [time_scan, "--workers", "2"]
    yield "quick-time-scan-long", [quick_config(
        os.path.join(config_dir, "time-scan-long.ini"), "fig8-ocf-lorentzian",
        ocf={"T_candidates": [10.0], "sweep_nqubits": [4, 6]})]
    yield "quick-cv", [quick_config(
        os.path.join(config_dir, "cv.ini"), "fig3-fidelity-vs-gamma",
        run={"repetitions": 20}, protocol={"eig_keep": "cv"})]
    yield "quick-as-subset-guard", [quick_config(
        os.path.join(config_dir, "as-subset-guard.ini"), "fig3-fidelity-vs-gamma",
        run={"repetitions": 20},
        protocol={"as_candidates": [4.0, 5.0], "gamma_values": [0.0, 0.4, 0.8]})]
    yield "quick-tracking-cv", [quick_config(
        os.path.join(config_dir, "tracking-cv.ini"), "fig13-tracking-fast",
        tracking={"k_block": 6, "eig_keep": "cv"}, noise={"gamma": 0.6, "dp_max": 0.02})]
    yield "quick-gamma-uneven", [quick_config(
        os.path.join(config_dir, "gamma-uneven.ini"), "fig3-fidelity-vs-gamma",
        protocol={"fo_candidates": [1.0, 2.0, 5.0], "as_candidates": [25.0],
                  "gamma_values": [0.0, 0.3, 0.5]}), "--workers", "2"]
    yield "quick-reconstruction-lstsq", [quick_config(
        os.path.join(config_dir, "reconstruction-lstsq.ini"), "fig4-dephasing0",
        protocol={"as_delta_approx": False, "eig_keep": "cv", "n_qubits": 2})]
    yield "quick-shots", [quick_config(
        os.path.join(config_dir, "shots.ini"), "fig5-dephasing04", noise={"shots": 500})]
    multiblock = quick_config(os.path.join(config_dir, "reps-multiblock.ini"),
                              "fig5-dephasing04", run={"repetitions": 1100})
    yield "quick-reps-multiblock", [multiblock]
    yield "quick-reps-multiblock-w2", [multiblock, "--workers", "2"]
    yield "quick-nqubit-pairs", [quick_config(
        os.path.join(config_dir, "nqubit-pairs.ini"), "fig6-leakage-vs-nqubits",
        protocol={"nqubit_values": [4, 6], "T_values": [2.0, 3.0],
                  "dp_values": [0.04, 0.1]}), "--quick"]


def _fields(path) -> dict:
    """A file's values by name: ``summary KEY`` for summary lines, ``meta
    KEY`` and ``column NAME`` for CSVs (cells as text), and ``bytes`` for
    any other file."""
    with open(path, "rb") as fh:
        data = fh.read()
    name = os.path.basename(path)
    if name == "summary.txt":
        return {f"summary {key}": [value] for key, _, value in
                (line.partition(" = ") for line in data.decode().splitlines())}
    if not name.endswith(".csv"):
        return {"bytes": [data]}
    fields = {}
    lines = data.decode().splitlines()
    while lines and lines[0].startswith("# "):
        key, _, value = lines.pop(0)[2:].partition(",")
        fields[f"meta {key}"] = [value]
    header = lines.pop(0).split(",") if lines else []
    rows = [line.split(",") for line in lines]
    for j, column in enumerate(header):
        fields[f"column {column}"] = [row[j] if j < len(row) else "" for row in rows]
    return fields


def _gap(a, b) -> float | None:
    """Relative gap of two numeric tokens (0 if equal), or None when either
    is not a number."""
    if a == b:
        return 0.0
    try:
        x, y = float(a), float(b)
    except (TypeError, ValueError):
        return None
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    gap = abs(x - y) / max(abs(x), abs(y))
    return gap if math.isfinite(gap) else math.inf  # NaN or inf on one side


def compare(out_a, out_b, rtol: float = 0.0) -> int:
    """Print the value differences between two output trees; 1 if a
    relative gap exceeds ``rtol`` or any non-numeric difference exists, or
    if a root is not a directory or neither root holds a file."""
    def files(root):
        return {os.path.relpath(os.path.join(d, f), root)
                for d, _, names in os.walk(root) for f in names}

    missing = [root for root in (out_a, out_b) if not os.path.isdir(root)]
    if missing:
        print(f"not a directory: {', '.join(missing)}")
        return 1
    in_a, in_b = files(out_a), files(out_b)
    if not in_a | in_b:
        print(f"no file in {out_a} or {out_b}")
        return 1
    worst, textual, changed = 0.0, 0, 0
    for rel in sorted(in_a | in_b):
        if rel not in in_a or rel not in in_b:
            print(f"{rel}\n  only in {out_a if rel in in_a else out_b}")
            textual += 1
            changed += 1
            continue
        fa, fb = (_fields(os.path.join(root, rel)) for root in (out_a, out_b))
        gaps, notes = {}, []
        for field in sorted(fa.keys() | fb.keys()):
            va, vb = fa.get(field), fb.get(field)
            if va is None or vb is None:
                notes.append(f"{field}: only in {out_a if vb is None else out_b}")
            elif len(va) != len(vb):
                notes.append(f"{field}: {len(va)} rows against {len(vb)}")
            else:
                pair = [_gap(a, b) for a, b in zip(va, vb)]
                if None in pair:
                    notes.append(f"{field}: non-numeric values differ")
                elif max(pair, default=0.0) > 0.0:
                    gaps[field] = max(pair)
        if not gaps and not notes:
            with open(os.path.join(out_a, rel), "rb") as fh_a, \
                    open(os.path.join(out_b, rel), "rb") as fh_b:
                if fh_a.read() != fh_b.read():
                    notes.append("bytes differ")
        if gaps or notes:
            changed += 1
            print(rel)
            for field, gap in gaps.items():
                print(f"  {field}  max rel gap {gap:.3g}")
            for note in notes:
                print(f"  {note}")
            worst = max(worst, *gaps.values(), 0.0)
            textual += len(notes)
    print(f"{changed} of {len(in_a | in_b)} files differ; largest relative gap "
          f"{worst:.3g} (rtol {rtol:g}); {textual} non-numeric differences")
    return int(worst > rtol or textual > 0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Hash the preset matrix's outputs, or compare two output trees.")
    parser.add_argument("out", nargs="?", help="directory to run the matrix into")
    parser.add_argument("--compare", nargs=2, metavar=("OUT_A", "OUT_B"))
    parser.add_argument("--rtol", type=float, default=0.0,
                        help="largest relative gap --compare accepts")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare, rtol=args.rtol)
    if args.out is None:
        parser.error("need OUT or --compare OUT_A OUT_B")
    out = args.out
    failed = 0
    with tempfile.TemporaryDirectory() as config_dir:
        for sub, run_args in matrix(config_dir):
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["run", *run_args, "--out-dir", os.path.join(out, sub)])
            if code != 0:
                print(f"exit {code}: noisespec run {' '.join(run_args)}", file=sys.stderr)
                failed = 1
    for dirpath, dirnames, filenames in os.walk(out):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            print(f"{digest}  {os.path.relpath(path, out)}")
    return failed


if __name__ == "__main__":
    sys.exit(main())
