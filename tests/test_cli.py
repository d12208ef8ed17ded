import os

import pytest

from noisespec import cli

PRESET_NAMES = sorted(cli.PRESETS)


def _outputs(root):
    return {f: (root / f).read_bytes() for f in sorted(os.listdir(root))}


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_quick_preset_runs(name, tmp_path):
    cfg = cli.preset_config(name, quick=True)
    summary = cli.run_scenario(cfg, str(tmp_path))
    assert summary["name"] == name
    files = os.listdir(tmp_path)
    assert {"summary.txt", "config.ini"} <= set(files)
    assert any(f.endswith(".csv") for f in files)
    assert cli.load_config(str(tmp_path / "config.ini")) == cfg


@pytest.mark.parametrize("quick", [False, True], ids=["full", "quick"])
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_config_round_trip(name, quick):
    cfg = cli.preset_config(name, quick=quick)
    assert cli.parse_config_text(cli.format_config(cfg)) == cfg


class TestExitCodes:
    def test_unknown_target_is_config_error(self, tmp_path, capsys):
        assert cli.main(["run", "no-such-preset", "--out-dir", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_unknown_key_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[run]\nscenario = reconstruction\nname = bad\n"
                        "[protocol]\nno_such_key = 1\n")
        assert cli.main(["run", str(path), "--out-dir", str(tmp_path)]) == 2
        assert "no_such_key" in capsys.readouterr().err

    @pytest.mark.parametrize("reps", ["-1", "0"])
    def test_repetitions_below_one(self, reps, tmp_path, capsys):
        assert cli.main(["run", "fig4-dephasing0", "--quick", "--repetitions", reps,
                         "--out-dir", str(tmp_path)]) == 2
        assert "run.repetitions" in capsys.readouterr().err
        assert not os.listdir(tmp_path)

    def test_noise_out_of_range(self, tmp_path, capsys):
        path = tmp_path / "loud.ini"
        path.write_text("[run]\nscenario = reconstruction\nname = loud\n"
                        "[spectrum]\ncomponents =\n  1.0 2.0 1.0\n"
                        "[noise]\ndp_max = 0.7\n")
        assert cli.main(["run", str(path), "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "noise" in err and "dp_max" in err

    def test_numerical_error(self, tmp_path, capsys):
        # a spectrum sampled up to 15 cannot cover the integration grid
        spectrum = tmp_path / "spectrum.csv"
        spectrum.write_text("".join(f"{w},{1.0 / (1.0 + w * w)}\n" for w in range(16)))
        path = tmp_path / "short.ini"
        path.write_text("[run]\nscenario = reconstruction\nname = short\n"
                        f"repetitions = 1\n[spectrum]\ncsv = {spectrum}\n")
        assert cli.main(["run", str(path), "--out-dir", str(tmp_path)]) == 3
        assert "GridRangeError" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["fig3-fidelity-vs-gamma", "fig4-dephasing0"])
def test_worker_count_keeps_bytes(name, tmp_path, capsys):
    outputs = []
    for workers in (1, 2):
        root = tmp_path / f"workers{workers}"
        assert cli.main(["run", name, "--quick", "--workers", str(workers),
                         "--out-dir", str(root)]) == 0
        outputs.append(_outputs(root / name))
    capsys.readouterr()
    assert any(f.endswith(".csv") for f in outputs[0])
    assert outputs[0] == outputs[1]



@pytest.mark.parametrize("name", ["ion-chain", "fig2-fidelity-vs-time"])
def test_quick_config_file_matches_quick_preset(name, tmp_path, capsys):
    assert cli.main(["export-config", name]) == 0
    path = tmp_path / f"{name}.ini"
    path.write_text(capsys.readouterr().out)
    for target, root in ((name, tmp_path / "preset"), (str(path), tmp_path / "file")):
        assert cli.main(["run", target, "--quick", "--out-dir", str(root)]) == 0
    capsys.readouterr()
    preset = _outputs(tmp_path / "preset" / name)
    assert any(f.endswith(".csv") for f in preset)
    assert _outputs(tmp_path / "file" / name) == preset
