"""Run the preset matrix through the CLI and print a sha256 of every output.

Usage (from the repository root)::

    python3 tools/preset_hashes.py OUT > hashes.txt

The package is imported from ``src/`` next to this script, so the same
script run in two checkouts compares their outputs:
``diff parent/hashes.txt change/hashes.txt`` lists every file whose bytes
differ.  The matrix is all presets at ``--quick`` with one and two
workers, every preset but ``fig8-ocf-lorentzian`` (the slowest by far)
at its full budget, and quick ``fig8-ocf-lorentzian`` with two operation
times and two swept qubit numbers, the one run that writes
``ocf_time_scan.csv`` (quick budgets empty ``T_candidates``).  Each line is ``sha256  path`` with the path relative
to ``OUT``; a run that exits nonzero is reported on stderr and makes the
script exit 1.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from noisespec import cli  # noqa: E402

FULL_SKIP = {"fig8-ocf-lorentzian"}


def time_scan_config(path) -> str:
    """Write quick fig8 with ``T_candidates = 2 5`` and ``sweep_nqubits =
    1 2`` to ``path`` as an INI config, run without ``--quick``."""
    cfg = cli.preset_config("fig8-ocf-lorentzian", quick=True)
    cfg["ocf"].update(T_candidates=[2.0, 5.0], sweep_nqubits=[1, 2])
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
        if name not in FULL_SKIP:
            yield "full", [name]
    yield "quick-time-scan", [time_scan_config(os.path.join(config_dir, "time-scan.ini"))]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out = argv[0]
    failed = 0
    with tempfile.TemporaryDirectory() as config_dir:
        for sub, args in matrix(config_dir):
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["run", *args, "--out-dir", os.path.join(out, sub)])
            if code != 0:
                print(f"exit {code}: noisespec run {' '.join(args)}", file=sys.stderr)
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
