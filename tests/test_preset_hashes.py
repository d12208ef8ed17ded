import importlib.util
import os

import pytest

from noisespec import cli

_SPEC = importlib.util.spec_from_file_location(
    "preset_hashes", os.path.join(os.path.dirname(__file__), os.pardir, "tools",
                                  "preset_hashes.py"))
preset_hashes = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(preset_hashes)


def _tree(root, mean=0.5, label="fo", extra=None):
    """An output tree as the CLI writes it: a summary, a CSV and a config."""
    run = root / "run"
    run.mkdir(parents=True)
    cli.write_summary(run / "summary.txt", {"fo_fidelity_mean": mean, "name": "run"})
    cli.write_csv(run / "table.csv", {"fidelity_mean": mean, "protocol": label},
                  {"T": [1.0, 2.0], "fidelity": [mean, 0.25]})
    (run / "config.ini").write_text("[run]\nname = run\n")
    if extra:
        (run / extra).write_text("x")
    return str(root)


class TestCompare:
    def test_equal_trees(self, tmp_path, capsys):
        assert preset_hashes.compare(_tree(tmp_path / "a"), _tree(tmp_path / "b")) == 0
        assert "0 of 3 files differ" in capsys.readouterr().out

    def test_gap_within_and_past_rtol(self, tmp_path, capsys):
        a, b = _tree(tmp_path / "a"), _tree(tmp_path / "b", mean=0.5 * (1 + 1e-13))
        assert preset_hashes.compare(a, b, rtol=1e-12) == 0
        out = capsys.readouterr().out
        for field in ("summary fo_fidelity_mean", "meta fidelity_mean", "column fidelity"):
            assert f"  {field}  max rel gap 9.99e-14" in out
        assert "column T" not in out
        assert preset_hashes.compare(a, b) == 1

    @pytest.mark.parametrize("changes", [{"label": "as"}, {"extra": "new.csv"}],
                             ids=["text-value", "one-sided-file"])
    def test_non_numeric_difference_fails(self, tmp_path, capsys, changes):
        a, b = _tree(tmp_path / "a"), _tree(tmp_path / "b", **changes)
        assert preset_hashes.compare(a, b, rtol=1.0) == 1
        assert "1 non-numeric differences" in capsys.readouterr().out

    def test_other_bytes_differ(self, tmp_path, capsys):
        a, b = _tree(tmp_path / "a"), _tree(tmp_path / "b")
        (tmp_path / "b" / "run" / "config.ini").write_text("[run]\nname = other\n")
        assert preset_hashes.compare(a, b, rtol=1.0) == 1
        assert "run/config.ini\n  bytes" in capsys.readouterr().out

    def test_nan_against_a_number_fails(self, tmp_path, capsys):
        a, b = _tree(tmp_path / "a"), _tree(tmp_path / "b", mean=float("nan"))
        assert preset_hashes.compare(a, b, rtol=1.0) == 1
        assert "largest relative gap inf" in capsys.readouterr().out

    @pytest.mark.parametrize("made, message", [
        ((), "not a directory"), (("a",), "not a directory"), (("a", "b"), "no file in")],
        ids=["neither-exists", "one-missing", "both-empty"])
    def test_missing_or_empty_trees_fail(self, tmp_path, capsys, made, message):
        """A mistyped or never-written tree does not compare equal."""
        for name in made:
            (tmp_path / name).mkdir()
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert preset_hashes.main(["--compare", a, b]) == 1
        assert message in capsys.readouterr().out
