import copy
import json
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import noisespec
from noisespec import cli

PRESET_NAMES = sorted(cli.PRESETS)


def _outputs(root):
    return {f: (root / f).read_bytes() for f in sorted(os.listdir(root))}


def _ini(scenario, **sections):
    """Config text of ``scenario`` with a one-line spectrum; ``sections``
    maps a section name to its body and may replace the spectrum."""
    sections = {"run": f"scenario = {scenario}\nname = bad",
                "spectrum": "components =\n  1.0 2.0 1.0", **sections}
    return "".join(f"[{name}]\n{body}\n" for name, body in sections.items())


def _assert_rejected(tmp_path, capsys, text, location, flags=("--quick",)):
    """Running ``text`` exits 2 naming ``location`` and writes nothing."""
    path = tmp_path / "bad.ini"
    path.write_text(text)
    out = tmp_path / "out"
    assert cli.main(["run", str(path), *flags, "--out-dir", str(out)]) == 2
    assert f"{location}:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_quick_preset_runs(name, tmp_path):
    cfg = cli.preset_config(name, quick=True)
    summary = cli.run_scenario(cfg, str(tmp_path))
    assert summary["name"] == name
    files = os.listdir(tmp_path)
    assert {"summary.txt", "config.ini"} <= set(files)
    assert any(f.endswith(".csv") for f in files)
    assert cli.validate_config(cli._ini_sections((tmp_path / "config.ini").read_text())) == cfg


@pytest.mark.parametrize("quick", [False, True], ids=["full", "quick"])
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_config_round_trip(name, quick):
    cfg = cli.preset_config(name, quick=quick)
    assert cli.validate_config(cli._ini_sections(cli.format_config(cfg))) == cfg


def test_preset_restates_no_default():
    """A preset holds only the values that differ from its scenario's defaults."""
    restated = [f"{name}: {section}.{key}" for name, (_, scenario, sections) in cli.PRESETS.items()
                for section, values in sections.items() for key, value in values.items()
                if value == cli.SCHEMA[scenario][section][key][1]]
    assert restated == []


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

    @pytest.mark.parametrize("kind", ["directory", "latin-1"])
    def test_unreadable_config_is_config_error(self, kind, tmp_path, capsys):
        """A config path that names a directory, or a file that is not
        UTF-8, exits 2 naming the path and writes nothing."""
        path = tmp_path / "bad.ini"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes("[run]\nscenario = fisher\nname = caf\xe9\n".encode("latin-1"))
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(path) in err
        assert not out.exists()

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
        assert "noise.dp_max:" in err

    @pytest.mark.parametrize("text, location", [
        (_ini("nqubit-scan", protocol="nqubit_values = 1 2\ndp_values = 0.01 0.7"),
         "protocol.dp_values"),
        (_ini("time-scan", protocol="kind = xx"), "protocol.kind"),
        (_ini("reconstruction", protocol="protocols = fo xx"), "protocol.protocols"),
        (_ini("nqubit-scan", protocol="nqubit_values = 1 2 3\nT_values = 2 5"),
         "protocol.T_values"),
        (_ini("gamma-scan", protocol="gamma_values = 0.1 -0.2"), "protocol.gamma_values"),
        (_ini("reconstruction", protocol="T_fo = nan"), "protocol.T_fo"),
        (_ini("reconstruction", protocol="T_fo = inf"), "protocol.T_fo"),
        (_ini("reconstruction", protocol="T_fo = -2.0"), "protocol.T_fo"),
        (_ini("reconstruction", protocol="T_as = 0"), "protocol.T_as"),
        (_ini("reconstruction", protocol="omega_c = nan"), "protocol.omega_c"),
        (_ini("reconstruction", protocol="K = 0"), "protocol.K"),
        (_ini("reconstruction", protocol="eig_keep = nan"), "protocol.eig_keep"),
        (_ini("time-scan", protocol="T_candidates = 2 -inf"), "protocol.T_candidates"),
        (_ini("gamma-scan", protocol="as_candidates = 10 0"), "protocol.as_candidates"),
        (_ini("nqubit-scan", protocol="T_values = -1"), "protocol.T_values"),
        (_ini("ocf", ocf="T_candidates = 2 -5"), "ocf.T_candidates"),
        (_ini("tracking", tracking="omega_osc = 0.01\nhorizon = 0",
              spectrum2="components =\n  1.0 2.0 1.0"), "tracking.horizon"),
        (_ini("fisher", fisher="K = 0"), "fisher.K"),
        (_ini("fisher", fisher="omega_c = -10"), "fisher.omega_c"),
        (_ini("reconstruction", spectrum="components =\n  1.0 2.0 1.0\nscale = inf"),
         "spectrum.scale"),
        (_ini("ocf", ocf="restarts = 0"), "ocf.restarts"),
        (_ini("ocf", ocf="superiterations = -1"), "ocf.superiterations"),
        (_ini("ocf", ocf="inner_evals = 0"), "ocf.inner_evals"),
        (_ini("ocf", ocf="basis_size = 0"), "ocf.basis_size"),
        (_ini("reconstruction", protocol="n_qubits = 0"), "protocol.n_qubits"),
        (_ini("nqubit-scan", protocol="nqubit_values = 0 2"), "protocol.nqubit_values"),
        (_ini("ocf", ocf="nqubit_values = 0"), "ocf.nqubit_values"),
        (_ini("ocf", ocf="sweep_nqubits = 0"), "ocf.sweep_nqubits"),
        (_ini("tracking", tracking="omega_osc = 0.01\nnqubit_values = 0",
              spectrum2="components =\n  1.0 2.0 1.0"), "tracking.nqubit_values"),
        (_ini("tracking", tracking="omega_osc = 0.01\nk_block = 0",
              spectrum2="components =\n  1.0 2.0 1.0"), "tracking.k_block"),
        (_ini("time-scan", protocol="kind = as\nn_qubits = 2"), "protocol.n_qubits"),
        (_ini("fisher", fisher="n_random_directions = -1"), "fisher.n_random_directions"),
        (_ini("reconstruction", grid="spacing = 0"), "grid.spacing"),
        (_ini("reconstruction", grid="spacing = -0.005"), "grid.spacing"),
        (_ini("reconstruction", grid="span_factor = 0"), "grid.span_factor"),
        (_ini("ocf", ocf="grid_spacing = 0"), "ocf.grid_spacing"),
        (_ini("ocf", ocf="grid_span_factor = -1"), "ocf.grid_span_factor"),
        (_ini("reconstruction", protocol="eig_keep = -1"), "protocol.eig_keep"),
        (_ini("reconstruction", protocol="eig_keep = 7"), "protocol.eig_keep"),
        (_ini("tracking", tracking="omega_osc = 0.01\neig_keep = 2",
              spectrum2="components =\n  1.0 2.0 1.0"), "tracking.eig_keep"),
        (_ini("tracking", tracking="omega_osc = 0.01\nhorizon = 20",
              spectrum2="components =\n  1.0 2.0 1.0"), "tracking.horizon"),
        (_ini("tracking", tracking="omega_osc = 0.01\nhorizon = 9.9\nk_block = 2",
              spectrum2="components =\n  1.0 2.0 1.0"), "tracking.horizon"),
        # one filter cannot separate the two components
        (_ini("tracking", tracking="omega_osc = 0.01\nk_block = 1",
              spectrum2="components =\n  1.0 2.0 1.0"), "tracking.k_block"),
        # a grid that stops below the band its filters are built for
        (_ini("reconstruction", grid="span_factor = 0.5"), "grid.span_factor"),
        (_ini("ocf", ocf="grid_span_factor = 0.99"), "ocf.grid_span_factor"),
        (_ini("reconstruction", spectrum="components =\n  1.0 2.0 1.0\nscale = -1"),
         "spectrum.scale"),
        (_ini("tracking", tracking="omega_osc = 0.01",
              spectrum2="components =\n  1.0 2.0 1.0\nscale = -1"), "spectrum2.scale"),
        # each value names an output, which a repeated value would overwrite
        (_ini("reconstruction", protocol="protocols = fo fo"), "protocol.protocols"),
        (_ini("tracking", tracking="omega_osc = 0.01\nnqubit_values = 1 1",
              spectrum2="components =\n  1.0 2.0 1.0"), "tracking.nqubit_values"),
        (_ini("ocf", ocf="T_candidates = 2\nsweep_nqubits = 1 1"), "ocf.sweep_nqubits"),
        # a negative weight would reward out-of-band filter weight
        (_ini("ocf", ocf="penalty_weight = -1"), "ocf.penalty_weight"),
    ], ids=["nqubit-dp", "time-scan-kind", "protocols", "nqubit-lengths", "gamma-values",
            "T-nan", "T-inf", "T-negative", "T-zero", "omega-c-nan", "K-zero", "eig-keep-nan",
            "candidates-inf", "candidates-zero", "T-values-negative", "ocf-candidates",
            "horizon-zero", "fisher-K-zero", "fisher-omega-c", "scale-inf", "restarts-zero",
            "superiterations-negative", "inner-evals-zero", "basis-size-zero",
            "n-qubits-zero", "nqubit-values-zero", "ocf-nqubit-values-zero",
            "sweep-nqubits-zero", "tracking-nqubit-values-zero", "k-block-zero",
            "time-scan-as-two-qubits", "random-directions-negative", "grid-spacing-zero",
            "grid-spacing-negative", "grid-span-zero", "ocf-grid-spacing-zero",
            "ocf-grid-span-negative", "eig-keep-negative", "eig-keep-above-one",
            "tracking-eig-keep-above-one", "horizon-below-one-block",
            "horizon-below-one-pair", "k-block-one", "span-below-one",
            "ocf-grid-span-below-one", "scale-negative", "spectrum2-scale-negative",
            "protocols-repeated", "tracking-nqubit-values-repeated",
            "ocf-sweep-nqubits-repeated", "penalty-weight-negative"])
    def test_rejected_before_run(self, text, location, tmp_path, capsys):
        _assert_rejected(tmp_path, capsys, text, location)

    @pytest.mark.parametrize("value", [7, 7.0, 1.5, -1.0, float("nan"), float("inf")])
    def test_typed_rule_checked(self, value):
        # a config passed already typed meets the same range check
        cfg = cli.preset_config("fig4-dephasing0", quick=True)
        cfg["protocol"]["eig_keep"] = value
        with pytest.raises(noisespec.ConfigError, match="threshold in \\[0, 1\\]") as exc:
            cli.validate_config(cfg)
        assert exc.value.location == "protocol.eig_keep"

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one(self, workers, tmp_path, capsys):
        assert cli.main(["run", "fig4-dephasing0", "--quick", "--workers", workers,
                         "--out-dir", str(tmp_path / "out")]) == 2
        assert "--workers" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("blocker", ["out", "out/fisher-cr-bound"],
                             ids=["out-dir-is-a-file", "run-dir-is-a-file"])
    def test_out_dir_that_cannot_hold_the_run(self, blocker, tmp_path, capsys, monkeypatch):
        """A file where the run directory or one of its parents would go is
        refused at --out-dir before the run computes or writes anything."""
        monkeypatch.setattr(cli, "run_scenario", lambda *args, **kwargs: pytest.fail("ran"))
        (tmp_path / blocker).parent.mkdir(exist_ok=True)
        (tmp_path / blocker).write_text("")
        before = sorted(tmp_path.rglob("*"))
        assert cli.main(["run", "fisher-cr-bound", "--quick",
                         "--out-dir", str(tmp_path / "out")]) == 2
        assert "config error: --out-dir: " in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("scenario, section, key, value", [
        ("fisher", "fisher", "shots", "10000"),
        ("fisher", "fisher", "mc_repeats", "0"),
        ("fisher", "noise", "dp_max", "0.01"),
        ("fisher", "noise", "shots", "100"),
        ("gamma-scan", "noise", "gamma", "0.0"),
    ])
    def test_removed_key_is_unknown(self, scenario, section, key, value, tmp_path, capsys):
        _assert_rejected(tmp_path, capsys, _ini(scenario, **{section: f"{key} = {value}"}),
                         f"{section}.{key}")

    @pytest.mark.parametrize("scenario, section, key", [
        ("time-scan", "protocol", "T_candidates"), ("gamma-scan", "protocol", "gamma_values"),
        ("gamma-scan", "protocol", "fo_candidates"), ("gamma-scan", "protocol", "as_candidates"),
        ("nqubit-scan", "protocol", "nqubit_values"), ("ocf", "ocf", "nqubit_values"),
        ("reconstruction", "protocol", "protocols")],
        ids=["time-scan-T_candidates", "gamma-scan-gamma_values", "gamma-scan-fo_candidates",
             "gamma-scan-as_candidates", "nqubit-scan-nqubit_values", "ocf-nqubit_values",
             "reconstruction-protocols"])
    def test_empty_list_rejected(self, scenario, section, key, tmp_path, capsys):
        # without --quick, which would replace the candidate lists
        _assert_rejected(tmp_path, capsys, _ini(scenario, **{section: f"{key} ="}),
                         f"{section}.{key}", flags=("--repetitions", "1"))

    @pytest.mark.parametrize("text, location", [
        (_ini("reconstruction", spectrum="components =\n  nan 2.0 1.0"),
         "spectrum.components"),
        (_ini("time-scan", spectrum="components =\n  1.0 2.0 -1.0"), "spectrum.components"),
        (_ini("tracking", tracking="omega_osc = 0.01",
              spectrum2="components =\n  1.0 inf 1.0"), "spectrum2.components"),
        (_ini("tracking", tracking="omega_osc = 0.01"), "spectrum2.components"),
    ], ids=["nan-amplitude", "negative-width", "spectrum2-inf-center", "no-spectrum2"])
    def test_spectrum_built_before_run(self, text, location, tmp_path, capsys):
        _assert_rejected(tmp_path, capsys, text, location)

    @pytest.mark.parametrize("body", ["0,1.0\n1,nan\n", "0,1.0,2.0\n1,0.5,2.0\n", None],
                             ids=["nan-sample", "three-columns", "missing-file"])
    def test_spectrum_csv_read_before_run(self, body, tmp_path, capsys):
        spectrum = tmp_path / "spectrum.csv"
        if body is not None:
            spectrum.write_text(body)
        _assert_rejected(tmp_path, capsys, _ini("reconstruction", spectrum=f"csv = {spectrum}"),
                         "spectrum.csv")

    @pytest.mark.parametrize("scenario, section, sections", [
        ("reconstruction", "spectrum", {}), ("fisher", "spectrum", {}),
        ("tracking", "spectrum2", {"tracking": "omega_osc = 0.01"})],
        ids=["reconstruction", "fisher", "tracking-spectrum2"])
    def test_spectrum_csv_negative_power(self, scenario, section, sections, tmp_path, capsys):
        # 1/(1 + (w - 2)^2) - 0.05 dips below zero; before the check at the
        # key it ended in a ValueError traceback from the readout
        spectrum = tmp_path / "negative.csv"
        spectrum.write_text("".join(f"{w},{1.0 / (1.0 + (w - 2.0) ** 2) - 0.05}\n"
                                    for w in np.linspace(0.0, 80.0, 161)))
        text = _ini(scenario, **sections, **{section: f"csv = {spectrum}"})
        _assert_rejected(tmp_path, capsys, text, f"{section}.csv")

    def test_ocf_has_no_grid_section(self, tmp_path, capsys):
        _assert_rejected(tmp_path, capsys, _ini("ocf", grid="spacing = 0.005"), "grid")

    @pytest.mark.parametrize("scenario, sections", [
        ("ocf", {"spectrum": "components =\n  0.0 2.0 1.0"}),
        ("tracking", {"spectrum": "components =\n  0.0 2.0 1.0",
                      "spectrum2": "components =\n  1.0 2.0 1.0",
                      "tracking": "omega_osc = 0.01"}),
        ("tracking", {"spectrum2": "components =\n  0.0 2.0 1.0",
                      "tracking": "omega_osc = 0.01"}),
    ], ids=["ocf", "tracking", "tracking-spectrum2"])
    def test_zero_in_band_spectrum(self, scenario, sections, tmp_path, capsys):
        path = tmp_path / "zero.ini"
        path.write_text(_ini(scenario, **sections))
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--quick", "--out-dir", str(out)]) == 3
        assert "CalibrationError" in capsys.readouterr().err
        assert not out.exists()

    def test_grid_node_count_overflow(self, tmp_path, capsys):
        # the node count 57.5 / 1e-310 overflows; it ended in an OverflowError
        path = tmp_path / "fine.ini"
        path.write_text(_ini("reconstruction", grid="spacing = 1e-310"))
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--quick", "--out-dir", str(out)]) == 3
        err = capsys.readouterr().err
        assert "GridRangeError" in err and "at spacing 1e-310" in err
        assert not out.exists()

    def test_grid_node_count_past_cap(self, tmp_path, capsys):
        # 57.5 / 1e-12 nodes fit a float but not memory; it ended in an
        # _ArrayMemoryError for 418 TiB
        path = tmp_path / "fine.ini"
        path.write_text(_ini("reconstruction", grid="spacing = 1e-12"))
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--quick", "--out-dir", str(out)]) == 3
        err = capsys.readouterr().err
        assert "GridRangeError" in err and "size 57500000000001 exceeds" in err
        assert not out.exists()

    def test_numerical_error(self, tmp_path, capsys):
        # a spectrum sampled up to 15 cannot cover the integration grid, which
        # reaches 57.5 by default; the message names both spans
        spectrum = tmp_path / "spectrum.csv"
        spectrum.write_text("".join(f"{w},{1.0 / (1.0 + w * w)}\n" for w in range(16)))
        path = tmp_path / "short.ini"
        path.write_text("[run]\nscenario = reconstruction\nname = short\n"
                        f"repetitions = 1\n[spectrum]\ncsv = {spectrum}\n")
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out-dir", str(out)]) == 3
        err = capsys.readouterr().err
        assert "GridRangeError" in err
        assert "57.5" in err and "[0.0, 15.0]" in err
        assert not out.exists()


@pytest.mark.parametrize("flags", [(), ("--quick", "--seed", "3", "--repetitions", "2")],
                         ids=["plain", "overrides"])
def test_csv_spectrum_read_once_before_run(flags, tmp_path, monkeypatch, capsys):
    """The run reads a CSV spectrum once, after the flags' overrides."""
    spectrum = tmp_path / "spectrum.csv"
    spectrum.write_text("".join(f"{0.5 * i},{1.0 / (1.0 + 0.25 * i * i)}\n"
                                for i in range(121)))
    path = tmp_path / "csv.ini"
    path.write_text(_ini("reconstruction", spectrum=f"csv = {spectrum}",
                         run="scenario = reconstruction\nname = csv\nrepetitions = 2",
                         protocol="protocols = fo"))
    reads = []
    loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *a, **k: reads.append(a) or loadtxt(*a, **k))
    assert cli.main(["run", str(path), *flags, "--out-dir", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    assert len(reads) == 1


def _outputs_by_workers(target, name, tmp_path, capsys, *flags):
    """The output files of ``noisespec run target`` at one and two workers."""
    outputs = []
    for workers in (1, 2):
        root = tmp_path / f"workers{workers}"
        assert cli.main(["run", target, *flags, "--workers", str(workers),
                         "--out-dir", str(root)]) == 0
        outputs.append(_outputs(root / name))
    capsys.readouterr()
    assert any(f.endswith(".csv") for f in outputs[0])
    return outputs


@pytest.mark.parametrize("name", ["fig3-fidelity-vs-gamma", "fig4-dephasing0",
                                  "fig10-ocf-double", "fig12-tracking-slow"])
def test_worker_count_keeps_bytes(name, tmp_path, capsys):
    serial, pooled = _outputs_by_workers(name, name, tmp_path, capsys, "--quick")
    assert serial == pooled


def test_worker_count_keeps_time_scan_bytes(tmp_path, capsys):
    """Quick fig8 with swept operation times: restarts of the nqubit scan,
    the time scan and the continuous design share one pool."""
    cfg = cli.preset_config("fig8-ocf-lorentzian", quick=True)
    cfg["ocf"].update(T_candidates=[2.0, 5.0], sweep_nqubits=[1, 2])
    path = tmp_path / "time-scan.ini"
    path.write_text(cli.format_config(cfg))
    serial, pooled = _outputs_by_workers(str(path), "fig8-ocf-lorentzian", tmp_path, capsys)
    assert "ocf_time_scan.csv" in serial and "ocf_best_filter.csv" in serial
    assert serial == pooled



def test_typed_zero_threshold_is_a_float(tmp_path, capsys):
    """A typed ``eig_keep = 0`` is the threshold 0.0, not a count of zero
    retained terms, and the config it writes reproduces its run."""
    outputs = []
    for value in (0, 0.0):
        cfg = cli.preset_config("fig5-dephasing04", quick=True)
        cfg["protocol"]["eig_keep"] = value
        cfg = cli.validate_config(cfg)
        assert type(cfg["protocol"]["eig_keep"]) is float
        cli.run_scenario(cfg, str(tmp_path / f"typed-{value!r}"))
        outputs.append(_outputs(tmp_path / f"typed-{value!r}"))
    assert outputs[0] == outputs[1]
    assert cli.main(["run", str(tmp_path / "typed-0" / "config.ini"),
                     "--out-dir", str(tmp_path / "rerun")]) == 0
    capsys.readouterr()
    assert _outputs(tmp_path / "rerun" / "fig5-dephasing04") == outputs[0]
    assert "fo_fidelity_mean = 0.0\n" not in outputs[0]["summary.txt"].decode()


def test_typed_float_written_as_its_config_reruns(tmp_path, capsys):
    """A typed ``T_fo = 2`` runs as the float 2.0, so its outputs equal
    those of the config.ini it writes (before, ``fo_T = 2`` against the
    rerun's ``fo_T = 2.0``)."""
    cfg = cli.preset_config("fig5-dephasing04", quick=True)
    cfg["protocol"]["T_fo"] = 2
    cfg = cli.validate_config(cfg)
    assert type(cfg["protocol"]["T_fo"]) is float
    cli.run_scenario(cfg, str(tmp_path / "typed"))
    typed = _outputs(tmp_path / "typed")
    assert "fo_T = 2.0\n" in typed["summary.txt"].decode()
    assert cli.main(["run", str(tmp_path / "typed" / "config.ini"),
                     "--out-dir", str(tmp_path / "rerun")]) == 0
    capsys.readouterr()
    assert _outputs(tmp_path / "rerun" / "fig5-dephasing04") == typed


class TestTypedValues:
    """A typed value is parsed from the text it is written as."""

    @pytest.mark.parametrize("preset, section, key, value, parsed", [
        ("fig5-dephasing04", "protocol", "T_fo", np.float32(2.5), 2.5),
        ("fig5-dephasing04", "run", "repetitions", np.int64(7), 7),
        ("fig5-dephasing04", "protocol", "protocols", ("fo",), ["fo"]),
        ("fig5-dephasing04", "spectrum", "components", [(1, 2, np.float64(1))],
         [(1.0, 2.0, 1.0)]),
        ("fig6-leakage-vs-nqubits", "protocol", "nqubit_values", (np.int64(2), 3), [2, 3]),
        ("fig6-leakage-vs-nqubits", "protocol", "T_values", [2], [2.0]),
    ], ids=["float", "int", "strs", "components", "ints", "floats"])
    def test_typed_value_takes_its_kind(self, preset, section, key, value, parsed):
        cfg = cli.preset_config(preset, quick=True)
        cfg[section][key] = value
        # repr tells 2 from 2.0, np.int64(7) from 7 and a tuple from a list
        assert repr(cli.validate_config(cfg)[section][key]) == repr(parsed)

    @pytest.mark.parametrize("preset, section, key, value", [
        ("fig5-dephasing04", "run", "repetitions", 2.5),
        ("fig5-dephasing04", "run", "repetitions", 3.0),
        ("fig5-dephasing04", "protocol", "n_qubits", True),
        ("fig6-leakage-vs-nqubits", "protocol", "nqubit_values", [1, 2.5]),
        ("fig5-dephasing04", "noise", "gamma", float("nan")),
        ("fig6-leakage-vs-nqubits", "protocol", "T_values", [2.0, float("inf")]),
        ("fig5-dephasing04", "spectrum", "components", [(1.0, 2.0)]),
        ("fig10-ocf-double", "ocf", "continuous", 0.5),
        ("fig10-ocf-double", "ocf", "continuous", 2),
    ], ids=["int-fraction", "int-float", "int-bool", "ints-fraction", "float-nan",
            "floats-inf", "components-short", "bool-fraction", "bool-int"])
    def test_typed_value_refused(self, preset, section, key, value):
        cfg = cli.preset_config(preset, quick=True)
        cfg[section][key] = value
        with pytest.raises(noisespec.ConfigError) as exc:
            cli.validate_config(cfg)
        assert exc.value.location == f"{section}.{key}"


def test_quick_tracking_keeps_one_sample(tmp_path, capsys):
    """A tracking sample longer than the quick horizon of 100 runs as one
    sample under ``--quick``."""
    path = tmp_path / "long.ini"
    path.write_text(_ini("tracking", tracking="omega_osc = 0.01\nT = 20",
                         spectrum2="components =\n  0.7 6.0 2.0"))
    assert cli.main(["run", str(path), "--quick", "--out-dir", str(tmp_path / "out")]) == 0
    assert "fo_samples = 1\n" in capsys.readouterr().out


def test_quick_nqubit_scan_keeps_its_pairs(tmp_path, capsys):
    """Quick keeps the first two qubit counts with their own T and dp."""
    path = tmp_path / "pairs.ini"
    path.write_text(_ini("nqubit-scan", protocol="nqubit_values = 4 6\nT_values = 2 3\n"
                                                 "dp_values = 0.04 0.1"))
    assert cli.main(["run", str(path), "--quick", "--out-dir", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    text = (tmp_path / "out" / "bad" / "fidelity_vs_nqubits.csv").read_text()
    header, *rows = [line.split(",") for line in text.splitlines() if line[0] != "#"]
    assert [[row[header.index(key)] for key in ("n_qubits", "T", "dp_max")]
            for row in rows] == [["4", "2.0", "0.04"], ["6", "3.0", "0.1"]]


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


def test_runs_import_nothing_new(tmp_path):
    """Importing the CLI loads no scipy, and no preset run imports a numpy
    or scipy module the import did not load (a lazy import would charge its
    load to the first run)."""
    script = textwrap.dedent("""
        import contextlib, io, json, sys
        from noisespec import cli

        def loaded():
            return {m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy")}

        at_import = loaded()
        codes = {}
        for name in sorted(cli.PRESETS):
            with contextlib.redirect_stdout(io.StringIO()):
                codes[name] = cli.main(["run", name, "--quick", "--out-dir", sys.argv[1]])
        print(json.dumps({"scipy": sorted(m for m in at_import if m.startswith("scipy")),
                          "new": sorted(loaded() - at_import), "codes": codes}))
    """)
    src = os.path.dirname(os.path.dirname(noisespec.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                          capture_output=True, text=True, check=True, timeout=300)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == {name: 0 for name in PRESET_NAMES}
    assert result["scipy"] == []
    assert result["new"] == []


def test_import_loads_no_numpy_ma_nor_scipy():
    """The working-point median sorts in place of np.median, whose NaN
    check would load numpy.ma; the import loads neither it nor scipy."""
    script = ("import sys, noisespec\n"
              "print(sorted(m for m in sys.modules if m == 'numpy.ma' or m.startswith("
              "('numpy.ma.', 'scipy'))))")
    src = os.path.dirname(os.path.dirname(noisespec.__file__))
    proc = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, check=True, timeout=60)
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_config_is_a_fresh_copy(name):
    for quick in (False, True):
        cfg = cli.preset_config(name, quick=quick)
        expected = copy.deepcopy(cfg)
        for section in cfg.values():
            for value in section.values():
                if isinstance(value, list):
                    value.append(value[0] if value else 9.9)
        assert cli.preset_config(name, quick=quick) == expected


class TestCodec:
    CASES = [
        ("int", " 10000 ", 10000),
        ("float", "0.1", 0.1),
        ("bool", "yes", True),
        ("bool", "off", False),
        ("str", " spectra/measured.csv ", "spectra/measured.csv"),
        ("strs", "fo as", ["fo", "as"]),
        ("floats", "", []),
        ("floats", "1 2.5e-3", [1.0, 0.0025]),
        ("ints", "1 6", [1, 6]),
        ("retention", "cv", "cv"),
        ("retention", "1e-3", 0.001),
        ("components", "\n  1.0 2.0 1.0\n  0.7 6.0 2.0", [(1.0, 2.0, 1.0), (0.7, 6.0, 2.0)]),
    ]

    def test_every_kind_is_covered(self):
        assert {kind for kind, _, _ in self.CASES} == set(cli._KINDS)

    @pytest.mark.parametrize("kind, raw, value", CASES, ids=[kind for kind, _, _ in CASES])
    def test_parse_format_parse(self, kind, raw, value):
        parse, fmt = cli._KINDS[kind]
        assert parse(raw) == value
        assert parse(fmt(value)) == value
        assert fmt(parse(fmt(value))) == fmt(value)

    def test_config_text_round_trip(self, tmp_path, monkeypatch):
        # validation reads the spectrum a config names
        monkeypatch.chdir(tmp_path)
        (tmp_path / "spectra").mkdir()
        (tmp_path / "spectra" / "measured.csv").write_text("0,1.0\n60,0.5\n")
        for text in (
                _ini("reconstruction", spectrum="csv = spectra/measured.csv",
                     noise="shots = 500", protocol="eig_keep = cv\nas_delta_approx = yes"),
                _ini("nqubit-scan", protocol="dp_values =\nT_values = 2 5\n"
                                             "nqubit_values = 1 2"),
                _ini("ocf", spectrum="components =\n  1.0 2.0 1.0\n  0.7 6.0 2.0",
                     ocf="continuous = off\nT_candidates =")):
            cfg = cli.validate_config(cli._ini_sections(text))
            assert cli.validate_config(cli._ini_sections(cli.format_config(cfg))) == cfg

    @pytest.mark.parametrize("scenario, section, body, location", [
        ("reconstruction", "noise", "shots = many", "noise.shots"),
        ("reconstruction", "noise", "dp_max = high", "noise.dp_max"),
        ("reconstruction", "protocol", "as_delta_approx = maybe", "protocol.as_delta_approx"),
        ("time-scan", "protocol", "kind = xx", "protocol.kind"),
        ("reconstruction", "protocol", "protocols = fo xx", "protocol.protocols"),
        ("time-scan", "protocol", "T_candidates = 1 two", "protocol.T_candidates"),
        ("nqubit-scan", "protocol", "nqubit_values = 1 2.5", "protocol.nqubit_values"),
        ("reconstruction", "protocol", "eig_keep = loo", "protocol.eig_keep"),
        ("reconstruction", "spectrum", "components =\n  1.0 2.0", "spectrum.components"),
    ], ids=["int", "float", "bool", "str", "strs", "floats", "ints", "retention",
            "components"])
    def test_malformed_value(self, scenario, section, body, location, tmp_path, capsys):
        _assert_rejected(tmp_path, capsys, _ini(scenario, **{section: body}), location)


def test_scipy_is_the_oracle_extra():
    """numpy is the one runtime dependency; scipy is the ``oracle`` extra
    and a test dependency."""
    import tomllib

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert [dep.split(">")[0] for dep in project["dependencies"]] == ["numpy"]
    extras = project["optional-dependencies"]
    assert [dep.split(">")[0] for dep in extras["oracle"]] == ["scipy"]
    assert "scipy" in [dep.split(">")[0] for dep in extras["test"]]


# ---------------------------------------------------------------------------
# the rules of every SCHEMA entry
# ---------------------------------------------------------------------------

RULES = {"> 0", ">= 0", ">= 1", ">= 2", "nonempty", "distinct", "protocol", "dirname",
         "noise.gamma", "noise.dp_max", "noise.shots"}


def _entries(*rules):
    """(scenario, section, key, kind, rule) of each rule in ``rules`` that a
    SCHEMA entry carries."""
    return [(scenario, section, key, kind, rule)
            for scenario, schema in cli.SCHEMA.items()
            for section, keys in schema.items()
            for key, (kind, _, *entry_rules) in keys.items()
            for rule in entry_rules if rule in rules]


def _ids(entries):
    return [f"{scenario}-{section}.{key}" + ("" if rule[0] in "<>" else f"-{rule}")
            for scenario, section, key, _, rule in entries]


def _base(scenario):
    """Raw text sections of a valid ``scenario`` config."""
    sections = {"run": f"scenario = {scenario}\nname = bad",
                "spectrum": "components =\n  1.0 2.0 1.0"}
    if scenario == "tracking":
        sections.update(tracking="omega_osc = 0.01", spectrum2="components =\n  1.0 2.0 1.0")
    return sections


def _assert_refused(tmp_path, capsys, scenario, section, key, kind, value):
    """``value`` of ``section.key`` is refused at its key, written as text
    (exit 2) and given typed."""
    sections = _base(scenario)
    line = f"{key} ={cli._KINDS[kind][1](value)}"
    sections[section] = "\n".join(filter(None, [sections.get(section), line]))
    _assert_rejected(tmp_path, capsys, _ini(scenario, **sections), f"{section}.{key}")
    cfg = cli.validate_config(cli._ini_sections(_ini(scenario, **_base(scenario))))
    cfg[section][key] = value
    with pytest.raises(noisespec.ConfigError) as exc:
        cli.validate_config(cfg)
    assert exc.value.location == f"{section}.{key}"


def test_every_rule_is_known():
    """Each rule an entry carries is one of the closed set, and each of the
    set is used."""
    assert {rule for schema in cli.SCHEMA.values() for keys in schema.values()
            for _, _, *rules in keys.values() for rule in rules} == RULES


LEAST = _entries("> 0", ">= 0", ">= 1", ">= 2")


@pytest.mark.parametrize("scenario, section, key, kind, rule", LEAST, ids=_ids(LEAST))
def test_value_past_least_refused(scenario, section, key, kind, rule, tmp_path, capsys):
    """The value just past an entry's least value (in a list, as its one
    value) is refused at the key."""
    bound = int(rule.split()[-1])
    if rule.startswith(">="):
        past = bound - 1 if kind.startswith("int") else math.nextafter(bound, -math.inf)
    else:
        past = float(bound) if kind.startswith("float") else bound
    _assert_refused(tmp_path, capsys, scenario, section, key, kind,
                    [past] if kind.endswith("s") else past)


LISTS = _entries("nonempty", "distinct")


@pytest.mark.parametrize("scenario, section, key, kind, rule", LISTS, ids=_ids(LISTS))
def test_empty_or_repeated_list_refused(scenario, section, key, kind, rule, tmp_path,
                                        capsys):
    default = cli.SCHEMA[scenario][section][key][1]
    value = [] if rule == "nonempty" else default[:1] * 2
    _assert_refused(tmp_path, capsys, scenario, section, key, kind, value)


NOISE = _entries("noise.dp_max", "noise.gamma", "noise.shots")
# the value next to each field's range that NoiseModel refuses
_PAST_NOISE = {"dp_max": 0.5, "gamma": math.nextafter(0.0, -math.inf), "shots": 0}


@pytest.mark.parametrize("scenario, section, key, kind, rule", NOISE, ids=_ids(NOISE))
def test_noise_value_refused_at_key(scenario, section, key, kind, rule, tmp_path, capsys):
    """A value that NoiseModel refuses (in a list, as its one value) is
    refused at its key, not at the section."""
    past = _PAST_NOISE[rule.removeprefix("noise.")]
    _assert_refused(tmp_path, capsys, scenario, section, key, kind,
                    [past] if kind.endswith("s") else past)


@pytest.mark.parametrize("key", ["dp_max", "gamma"])
def test_typed_none_noise_refused_at_key(key):
    cfg = cli.preset_config("fig4-dephasing0", quick=True)
    cfg["noise"][key] = None
    with pytest.raises(noisespec.ConfigError) as exc:
        cli.validate_config(cfg)
    assert exc.value.location == f"noise.{key}"


# every entry whose default is not None, required entries included
NOT_NONE = [(scenario, section, key) for scenario, schema in cli.SCHEMA.items()
            for section, keys in schema.items()
            for key, (_, default, *_) in keys.items() if default is not None]


@pytest.mark.parametrize("scenario, section, key", NOT_NONE,
                         ids=[f"{scenario}-{section}.{key}" for scenario, section, key in NOT_NONE])
def test_typed_none_refused_at_key(scenario, section, key):
    """A typed None is refused at its key wherever None is not the default."""
    cfg = cli.validate_config(cli._ini_sections(_ini(scenario, **_base(scenario))))
    cfg[section][key] = None
    with pytest.raises(noisespec.ConfigError) as exc:
        cli.validate_config(cfg)
    assert exc.value.location == f"{section}.{key}"


@pytest.mark.parametrize("name", ["", ".", "..", "a/b", "../up", "/abs", "a\\b"],
                         ids=["empty", "dot", "dotdot", "slash", "up", "absolute", "backslash"])
def test_name_is_one_directory(name, tmp_path, capsys):
    """A run writes into ``--out-dir/name``, so a name that is not one
    directory is refused at ``run.name``, as text and typed, and nothing
    is written anywhere."""
    _assert_rejected(tmp_path, capsys, _ini("fisher", run=f"scenario = fisher\nname = {name}"),
                     "run.name")
    assert os.listdir(tmp_path) == ["bad.ini"]
    cfg = cli.preset_config("fisher-cr-bound", quick=True)
    cfg["run"]["name"] = name
    with pytest.raises(noisespec.ConfigError, match="must name one directory") as exc:
        cli.validate_config(cfg)
    assert exc.value.location == "run.name"


@pytest.mark.parametrize("section, body, location", [
    ("units", "note = first line\n  second line", "units.note"),
    ("run", "scenario = fisher\nname = a\n  b", "run.name")], ids=["units-note", "run-name"])
def test_continued_str_refused(section, body, location, tmp_path, capsys):
    """An INI continuation line gives a str value a line break, which the
    config.ini a run writes could not load back: it is refused at its key,
    and nothing is written anywhere."""
    _assert_rejected(tmp_path, capsys, _ini("fisher", **{section: body}), location)
    assert os.listdir(tmp_path) == ["bad.ini"]


@pytest.mark.parametrize("section, key", [("run", "name"), ("units", "note"),
                                          ("spectrum", "csv")])
@pytest.mark.parametrize("value", ["inj\nseed = 7", "a\rb"], ids=["newline", "return"])
def test_typed_line_break_refused(section, key, value):
    cfg = cli.preset_config("fisher-cr-bound", quick=True)
    cfg[section][key] = value
    with pytest.raises(noisespec.ConfigError, match="must be one line") as exc:
        cli.validate_config(cfg)
    assert exc.value.location == f"{section}.{key}"


_TEXT = st.text("abcXYZ019 _-./", min_size=1, max_size=12).map(str.strip).filter(bool)
# a run's name is one directory
_NAME = _TEXT.filter(lambda name: name not in (".", "..") and "/" not in name)
_NOISE_FIELD = {"gamma": st.floats(0.0, 5.0), "dp_max": st.floats(0.0, 0.49),
                "shots": st.integers(1, 10 ** 4)}


def _one_value(section, key, kind, rules):
    """A strategy of one value (one value of a list) that meets ``rules``."""
    noise = [rule.removeprefix("noise.") for rule in rules if rule.startswith("noise.")]
    if section == "noise" or noise:
        return _NOISE_FIELD[noise[0] if noise else key]
    if "protocol" in rules:
        return st.sampled_from(["fo", "as"])
    if "dirname" in rules:
        return _NAME
    least = {"> 0": 1e-3, ">= 0": 0, ">= 1": 1, ">= 2": 2}.get(rules[0] if rules else None)
    if kind.startswith("int"):
        return st.integers(0, 2 ** 40) if least is None else st.integers(least, 6)
    if kind.startswith("float"):
        return st.floats(-1e3 if least is None else least, 1e3)
    return {"bool": st.booleans(), "str": _TEXT,
            "retention": st.one_of(st.just("cv"), st.floats(0.0, 1.0))}[kind]


@st.composite
def _typed_configs(draw):
    """Typed sections of a valid config: each key of a drawn scenario is
    left out or drawn from its kind and rules; then the rules between keys
    are met."""
    scenario = draw(st.sampled_from(sorted(cli.SCHEMA)))
    sections = {"run": {"scenario": scenario, "name": draw(_NAME)},
                "spectrum": {"components": [(1.0, 2.0, 1.0)]}}
    if scenario == "tracking":
        sections.update(tracking={"omega_osc": 0.01}, spectrum2={"components": [(0.7, 6.0, 2.0)]})
    for section, keys in cli.SCHEMA[scenario].items():
        for key, (kind, _, *rules) in keys.items():
            if kind == "components" or key in ("scenario", "csv") or not draw(st.booleans()):
                continue
            one = _one_value(section, key, kind, rules)
            sections.setdefault(section, {})[key] = draw(
                st.lists(one, min_size="nonempty" in rules, max_size=4,
                         unique="distinct" in rules) if kind.endswith("s") else one)
    # the values as they validate, defaults included
    cfg = {section: {**{key: entry[1] for key, entry in keys.items()},
                     **sections.get(section, {})}
           for section, keys in cli.SCHEMA[scenario].items()}
    pro = cfg.get("protocol", {})
    if pro.get("kind") == "as":
        sections["protocol"]["n_qubits"] = 1
    if scenario == "tracking":
        sections["tracking"]["horizon"] = max(cfg["tracking"]["horizon"],
                                              cfg["tracking"]["k_block"] * cfg["tracking"]["T"])
    for key in ("T_values", "dp_values", "gamma_values") if scenario == "nqubit-scan" else ():
        if len(pro[key]) not in (0, 1, len(pro["nqubit_values"])):
            sections["protocol"][key] = pro[key][:1]
    return sections


@settings(max_examples=150, deadline=None)
@given(_typed_configs())
def test_typed_and_written_configs_validate_equal(sections):
    """A valid config drawn from the SCHEMA entries validates equal given
    typed and written as INI text, and its config.ini reruns equal."""
    typed = cli.validate_config(copy.deepcopy(sections))
    scenario = sections["run"]["scenario"]
    text = "".join(f"[{section}]\n" + "".join(
        f"{key} ={cli._KINDS[cli.SCHEMA[scenario][section][key][0]][1](value)}\n"
        for key, value in values.items()) for section, values in sections.items())
    assert cli.validate_config(cli._ini_sections(text)) == typed
    assert cli.validate_config(cli._ini_sections(cli.format_config(typed))) == typed


def _per_cell_csv(meta, columns) -> bytes:
    """The CSV as one ``_fmt`` call per cell writes it: the reference of
    the column-wise ``write_csv``."""
    arrays = {name: np.atleast_1d(np.asarray(col)) for name, col in columns.items()}
    n = max(a.size for a in arrays.values()) if arrays else 0
    lines = [f"# {key},{cli._fmt(meta[key])}" for key in sorted(meta)]
    lines.append(",".join(arrays))
    lines += [",".join(cli._fmt(a[i]) if i < a.size else "" for a in arrays.values())
              for i in range(n)]
    return "".join(line + "\n" for line in lines).encode()


class TestWriteCsv:
    FLOATS = [0.1, -0.0, float("nan"), float("inf"), -float("inf"), 5e-324, 1e300, 2.0]
    CASES = {
        "float64": {"x": np.array(FLOATS)},
        "float32": {"x": np.array(FLOATS[:5] + [0.1, 3.4e38, 1e-45], dtype=np.float32),
                    "long": np.array([0.1, 1 / 3, -0.0], dtype=np.longdouble)},
        "int64": {"n": np.array([0, -1, 2 ** 63 - 1, -2 ** 63], dtype=np.int64),
                  "u": np.array([0, 1, 2 ** 64 - 1, 7], dtype=np.uint64)},
        "bool": {"flag": np.array([True, False, True])},
        "str": {"protocol": ["fo", "as", "fo as"], "obj": np.array([1, 2.5, "x"], dtype=object)},
        "scalar": {"T": 2.5, "n": 3, "flag": np.True_, "label": "fo"},
        "ragged": {"T": [1.0, 2.0, 5.0], "n": [4], "flag": [], "label": ["a", "b"]},
        "zero-rows": {"T": np.array([]), "n": np.array([], dtype=int)},
        "no-columns": {},
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_bytes_equal_per_cell_fmt(self, tmp_path, case):
        meta = {"seed": 7, "gamma": 0.4, "rule": "cv", "delta": False}
        columns = self.CASES[case]
        cli.write_csv(tmp_path / "t.csv", meta, columns)
        assert (tmp_path / "t.csv").read_bytes() == _per_cell_csv(meta, columns)

    def test_mixed_table(self, tmp_path):
        columns = {name: col for case in ("float64", "int64", "bool") for name, col
                   in self.CASES[case].items()}
        cli.write_csv(tmp_path / "t.csv", {}, columns)
        data = (tmp_path / "t.csv").read_bytes()
        assert data == _per_cell_csv({}, columns)
        assert data.splitlines()[1:4] == [b"0.1,0,0,true", b"-0.0,-1,1,false",
                                          b"nan,9223372036854775807,18446744073709551615,true"]
