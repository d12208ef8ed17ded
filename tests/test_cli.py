import copy
import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

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
    assert cli.validate_config(cli._file_sections(str(tmp_path / "config.ini"))) == cfg


@pytest.mark.parametrize("quick", [False, True], ids=["full", "quick"])
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_config_round_trip(name, quick):
    cfg = cli.preset_config(name, quick=quick)
    assert cli.validate_config(cli._ini_sections(cli.format_config(cfg))) == cfg


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
            "tracking-eig-keep-above-one"])
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

    @pytest.mark.parametrize("scenario, key", [
        ("time-scan", "T_candidates"), ("gamma-scan", "gamma_values"),
        ("gamma-scan", "fo_candidates"), ("gamma-scan", "as_candidates"),
        ("nqubit-scan", "nqubit_values")])
    def test_empty_list_rejected(self, scenario, key, tmp_path, capsys):
        # without --quick, which would replace the candidate lists
        _assert_rejected(tmp_path, capsys, _ini(scenario, protocol=f"{key} ="),
                         f"protocol.{key}", flags=("--repetitions", "1"))

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

    def test_ocf_has_no_grid_section(self, tmp_path, capsys):
        _assert_rejected(tmp_path, capsys, _ini("ocf", grid="spacing = 0.005"), "grid")

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
    """One validation after the flags' overrides reads a CSV spectrum, and
    the runner reads it once more."""
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
    assert len(reads) == 2


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
