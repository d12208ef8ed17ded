"""Experiment runner: declarative configs, scenario presets, CSV emission.

Configs are INI files (sections of key=value lines) validated against a
per-scenario schema; unknown sections or keys are rejected with their
location.  Every stochastic quantity derives from the master seed, so a
rerun of the same config is byte-identical, serial or parallel.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys

import numpy as np

from . import __version__
from .errors import ConfigError, NoiseSpecError
from .filterfn import continuous_norm, default_grid, filter_function, signal_overlap
from .fisher import build_fio, cramer_rao, directional_fisher, fio_rank
from .modulation import fo_sequence
from .ocf import OcfProblem, ocf_grid, optimize_continuous, optimize_discrete, solution_filter
from .probe import NoiseModel, survival_probability
from .reconstruct import (DEFAULT_TAU, ProtocolContext, fidelity, mean_se,
                          run_repetitions, scan_optimal_time)
from .seeding import derive_seed
from .spectra import CompositeSignal, SpectralDensity
from .tracking import track_fo, track_ocf

_REQUIRED = object()

# ---------------------------------------------------------------------------
# configuration schema
# ---------------------------------------------------------------------------

_COMMON = {
    "run": {
        "scenario": ("str", _REQUIRED),
        "name": ("str", _REQUIRED),
        "repetitions": ("int", 100),
        "seed": ("int", 20260810),
    },
    "spectrum": {
        "components": ("components", None),
        "csv": ("str", None),
        "scale": ("float", 1.0),
    },
    "grid": {
        "spacing": ("float", 0.005),
        "span_factor": ("float", 5.0),
    },
    "units": {
        "time_unit": ("str", ""),
        "frequency_unit": ("str", ""),
        "note": ("str", ""),
    },
}

_NOISE = {
    "dp_max": ("float", 0.01),
    "gamma": ("float", 0.0),
    "shots": ("int", None),
}

SCHEMA = {
    "reconstruction": {
        **_COMMON,
        "noise": dict(_NOISE),
        "protocol": {
            "protocols": ("strs", ["fo", "as"]),
            "K": ("int", 20),
            "omega_c": ("float", 10.0),
            "T_fo": ("float", 2.0),
            "T_as": ("float", 25.0),
            "n_qubits": ("int", 1),
            "eig_keep": ("retention", DEFAULT_TAU),
            "as_delta_approx": ("bool", False),
        },
    },
    "time-scan": {
        **_COMMON,
        "noise": dict(_NOISE),
        "protocol": {
            "kind": ("str", "fo"),
            "K": ("int", 20),
            "omega_c": ("float", 10.0),
            "T_candidates": ("floats", [1.0, 2.0, 3.0, 5.0, 7.0, 10.0]),
            "n_qubits": ("int", 1),
            "eig_keep": ("retention", DEFAULT_TAU),
        },
    },
    "gamma-scan": {
        **_COMMON,
        "noise": dict(_NOISE),
        "protocol": {
            "K": ("int", 20),
            "omega_c": ("float", 10.0),
            "gamma_values": ("floats", [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]),
            "fo_candidates": ("floats", [1.0, 2.0, 3.0, 5.0, 7.0, 10.0]),
            "as_candidates": ("floats", [5.0, 10.0, 15.0, 20.0, 25.0]),
            "eig_keep": ("retention", DEFAULT_TAU),
        },
    },
    "nqubit-scan": {
        **_COMMON,
        "noise": dict(_NOISE),
        "protocol": {
            "K": ("int", 20),
            "omega_c": ("float", 10.0),
            "nqubit_values": ("ints", [1, 2, 3, 4, 5, 6]),
            "T_values": ("floats", [2.0]),
            "dp_values": ("floats", []),
            "gamma_values": ("floats", []),
            "eig_keep": ("retention", DEFAULT_TAU),
        },
    },
    "ocf": {
        **_COMMON,
        "ocf": {
            "omega_c": ("float", 10.0),
            "T": ("float", 5.0),
            "T_candidates": ("floats", []),
            "nqubit_values": ("ints", [1, 2, 3, 4, 6]),
            "sweep_nqubits": ("ints", [1, 4]),
            "restarts": ("int", 3),
            "superiterations": ("int", 10),
            "inner_evals": ("int", 60),
            "basis_size": ("int", 3),
            "penalty_weight": ("float", 1.0),
            "continuous": ("bool", True),
            "grid_spacing": ("float", 0.01),
            "grid_span_factor": ("float", 3.0),
        },
    },
    "tracking": {
        **_COMMON,
        "noise": dict(_NOISE),
        "spectrum2": {
            "components": ("components", None),
            "csv": ("str", None),
            "scale": ("float", 1.0),
        },
        "tracking": {
            "omega_osc": ("float", _REQUIRED),
            "k_block": ("int", 10),
            "T": ("float", 5.0),
            "horizon": ("float", 500.0),
            "omega_c": ("float", 10.0),
            "nqubit_values": ("ints", [1, 6]),
            "superiterations": ("int", 10),
            "inner_evals": ("int", 60),
            "basis_size": ("int", 3),
            "eig_keep": ("retention", DEFAULT_TAU),
        },
    },
    "fisher": {
        **_COMMON,
        "noise": dict(_NOISE),
        "fisher": {
            "K": ("int", 20),
            "omega_c": ("float", 10.0),
            "T": ("float", 5.0),
            "n_random_directions": ("int", 3),
            "shots": ("int", 10000),
            "mc_repeats": ("int", 0),
        },
    },
}

_SCENARIO_DEFAULT_REPS = {"ocf": 1, "tracking": 1, "fisher": 1}


def _parse_value(kind, raw, location):
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            lowered = raw.strip().lower()
            if lowered in ("true", "yes", "1", "on"):
                return True
            if lowered in ("false", "no", "0", "off"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if kind == "str":
            return raw.strip()
        if kind == "floats":
            return [float(tok) for tok in raw.split()]
        if kind == "ints":
            return [int(tok) for tok in raw.split()]
        if kind == "strs":
            return [tok for tok in raw.split()]
        if kind == "retention":
            token = raw.strip()
            if token == "cv":
                return "cv"
            return float(token)
        if kind == "components":
            rows = []
            for line in raw.strip().splitlines():
                parts = line.split()
                if len(parts) != 3:
                    raise ValueError(
                        f"component line needs 'amplitude center width', got {line!r}")
                rows.append((float(parts[0]), float(parts[1]), float(parts[2])))
            if not rows:
                raise ValueError("empty component list")
            return rows
    except ValueError as exc:
        raise ConfigError(str(exc), location=location) from exc
    raise ConfigError(f"unknown schema kind {kind}", location=location)


def _spacer(kind):
    return "" if kind == "components" else " "


def _format_value(kind, value):
    if kind == "components":
        return "\n" + "\n".join(f"  {a!r} {c!r} {w!r}" for a, c, w in value)
    if kind == "floats":
        return " ".join(repr(float(v)) for v in value)
    if kind == "ints":
        return " ".join(str(int(v)) for v in value)
    if kind == "strs":
        return " ".join(value)
    if kind == "bool":
        return "true" if value else "false"
    if kind == "float":
        return repr(float(value))
    if kind == "retention":
        return value if isinstance(value, str) else repr(float(value))
    return str(value)


def validate_config(raw: dict) -> dict:
    """Typed, defaulted configuration from a nested dict of raw strings
    (or already-typed values).  Unknown sections/keys are rejected."""
    run = raw.get("run", {})
    scenario = run.get("scenario")
    if scenario is None:
        raise ConfigError("missing key", location="run.scenario")
    if scenario not in SCHEMA:
        raise ConfigError(f"unknown scenario {scenario!r}; valid: "
                          f"{sorted(SCHEMA)}", location="run.scenario")
    schema = SCHEMA[scenario]
    cfg = {}
    for section, content in raw.items():
        if section not in schema:
            raise ConfigError(f"unknown section [{section}] for scenario "
                              f"{scenario!r}", location=section)
        for key in content:
            if key not in schema[section]:
                raise ConfigError("unknown key", location=f"{section}.{key}")
    for section, keys in schema.items():
        out = {}
        for key, (kind, default) in keys.items():
            if section in raw and key in raw[section]:
                value = raw[section][key]
                if isinstance(value, str):
                    value = _parse_value(kind, value, f"{section}.{key}")
                out[key] = value
            elif default is _REQUIRED:
                raise ConfigError("missing required key",
                                  location=f"{section}.{key}")
            else:
                out[key] = default if not isinstance(default, list) else list(default)
        cfg[section] = out
    if "repetitions" not in raw.get("run", {}):
        cfg["run"]["repetitions"] = _SCENARIO_DEFAULT_REPS.get(
            scenario, cfg["run"]["repetitions"])
    if cfg["spectrum"]["components"] is None and cfg["spectrum"]["csv"] is None:
        raise ConfigError("need either components or csv",
                          location="spectrum.components")
    if cfg["run"]["repetitions"] < 1:
        raise ConfigError(f"must be >= 1, got {cfg['run']['repetitions']}",
                          location="run.repetitions")
    if "noise" in cfg:
        try:
            NoiseModel(**cfg["noise"])
        except ValueError as exc:
            raise ConfigError(str(exc), location="noise") from exc
    return cfg


def parse_config_text(text: str) -> dict:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    raw = {section: dict(parser.items(section)) for section in parser.sections()}
    return validate_config(raw)


def load_config(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def format_config(cfg: dict) -> str:
    """Canonical INI text for a validated config (round-trips exactly)."""
    scenario = cfg["run"]["scenario"]
    schema = SCHEMA[scenario]
    lines = []
    for section in schema:
        keys = []
        for key, (kind, default) in schema[section].items():
            value = cfg[section][key]
            if value is None or value == "":
                continue
            keys.append(f"{key} ={_spacer(kind)}{_format_value(kind, value)}")
        if keys:
            lines.append(f"[{section}]")
            lines.extend(keys)
            lines.append("")
    return "\n".join(lines)


def _spectrum_from(cfg_section) -> SpectralDensity:
    if cfg_section["components"] is not None:
        return SpectralDensity.lorentzian_mixture(
            cfg_section["components"], scale=cfg_section["scale"])
    return SpectralDensity.from_csv(cfg_section["csv"], scale=cfg_section["scale"])


# ---------------------------------------------------------------------------
# deterministic output helpers
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path, meta: dict, columns: dict) -> None:
    """CSV with '#'-prefixed metadata lines; floats use shortest repr."""
    arrays = {name: np.atleast_1d(np.asarray(col)) for name, col in columns.items()}
    n = max(a.size for a in arrays.values()) if arrays else 0
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key in sorted(meta):
            fh.write(f"# {key},{_fmt(meta[key])}\n")
        fh.write(",".join(arrays) + "\n")
        for i in range(n):
            fh.write(",".join(_fmt(a[i]) if i < a.size else "" for a in arrays.values()) + "\n")


def write_summary(path, entries: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key in sorted(entries):
            fh.write(f"{key} = {_fmt(entries[key])}\n")


# ---------------------------------------------------------------------------
# scenario runners
# ---------------------------------------------------------------------------

def _context_args(cfg, protocol, omega_c):
    """Band and grid of a protocol run: omega_max is 1.15 omega_c for fo and
    omega_c for as, on the grid that ``[grid]`` sets."""
    omega_max = 1.15 * omega_c if protocol == "fo" else omega_c
    return {"omega_c": omega_c, "omega_max": omega_max,
            "grid": default_grid(omega_max, span_factor=cfg["grid"]["span_factor"],
                                 spacing=cfg["grid"]["spacing"])}


def _noise(cfg, seed, **changes) -> NoiseModel:
    """The ``[noise]`` model at ``seed``, with per-cell changes."""
    return NoiseModel(**{**cfg["noise"], **changes}, seed=seed)


def _run_reconstruction(cfg, out_dir, workers):
    spectrum = _spectrum_from(cfg["spectrum"])
    pro = cfg["protocol"]
    noise = cfg["noise"]
    seed = cfg["run"]["seed"]
    cells = []
    for pi, protocol in enumerate(pro["protocols"]):
        if protocol not in ("fo", "as"):
            raise ConfigError(f"unknown protocol {protocol!r}",
                              location="protocol.protocols")
        T = pro["T_fo"] if protocol == "fo" else pro["T_as"]
        ctx = ProtocolContext(protocol, spectrum, T, K=pro["K"],
                              n_qubits=pro["n_qubits"] if protocol == "fo" else 1,
                              **_context_args(cfg, protocol, pro["omega_c"]))
        as_delta = pro["as_delta_approx"] and protocol == "as"
        cells.append((ctx, _noise(cfg, derive_seed(seed, pi)), pro["eig_keep"], as_delta))
    summary = {}
    for (ctx, cell_noise, eig_keep, as_delta), fids in zip(
            cells, run_repetitions(cells, cfg["run"]["repetitions"], workers)):
        mean, se = mean_se(fids)
        _, result = ctx.run_once(_noise(cfg, derive_seed(cell_noise.seed, 0)),
                                 eig_keep=eig_keep, want_result=True, as_delta=as_delta)
        protocol, T = ctx.protocol, ctx.operation_time
        meta = {"protocol": protocol, "K": pro["K"], "T": T,
                "omega_c": pro["omega_c"], "omega_max": ctx.omega_max,
                "gamma": noise["gamma"], "dp_max": noise["dp_max"],
                "seed": seed, "fidelity_mean": mean, "fidelity_se": se,
                "version": __version__}
        if result is not None:
            meta["retained"] = result.retained_count
            write_csv(os.path.join(out_dir, f"{protocol}_estimate.csv"), meta,
                      {"omega": result.omegas,
                       "estimate": result.values,
                       "s_true": ctx.spectrum.evaluate(result.omegas)})
        summary[f"{protocol}_fidelity_mean"] = mean
        summary[f"{protocol}_fidelity_se"] = se
        summary[f"{protocol}_T"] = T
    return summary


def _run_time_scan(cfg, out_dir, workers):
    pro = cfg["protocol"]
    noise = cfg["noise"]
    reps = cfg["run"]["repetitions"]
    seed = cfg["run"]["seed"]
    scan = scan_optimal_time(pro["kind"], _spectrum_from(cfg["spectrum"]), noise["gamma"],
                             pro["T_candidates"], reps, seed, dp_max=noise["dp_max"],
                             shots=noise["shots"], K=pro["K"], n_qubits=pro["n_qubits"],
                             eig_keep=pro["eig_keep"], workers=workers,
                             **_context_args(cfg, pro["kind"], pro["omega_c"]))
    write_csv(os.path.join(out_dir, "fidelity_vs_time.csv"),
              {"protocol": pro["kind"], "gamma": noise["gamma"], "dp_max": noise["dp_max"],
               "K": pro["K"], "seed": seed, "repetitions": reps,
               "version": __version__},
              {"T": scan.times, "fidelity_mean": scan.fidelity_mean,
               "fidelity_se": scan.fidelity_se})
    return {"best_T": scan.best_time, "best_fidelity": float(scan.fidelity_mean.max())}


def _run_gamma_scan(cfg, out_dir, workers):
    spectrum = _spectrum_from(cfg["spectrum"])
    pro = cfg["protocol"]
    reps = cfg["run"]["repetitions"]
    seed = cfg["run"]["seed"]
    gammas = pro["gamma_values"]
    protocols = ("fo", "as")
    # contexts do not depend on gamma: build each (protocol, T) cell once
    contexts = [[ProtocolContext(protocol, spectrum, T, K=pro["K"],
                                 **_context_args(cfg, protocol, pro["omega_c"]))
                 for T in pro[f"{protocol}_candidates"]] for protocol in protocols]
    cells = [(ctx, _noise(cfg, derive_seed(seed, gi, pi, ti), gamma=gamma),
              pro["eig_keep"], False)
             for pi, row in enumerate(contexts)
             for gi, gamma in enumerate(gammas)
             for ti, ctx in enumerate(row)]
    stats = iter(map(mean_se, run_repetitions(cells, reps, workers)))
    cols = {"gamma": np.asarray(gammas)}
    for protocol, row in zip(protocols, contexts):
        best = []  # (T, mean, se) of the best candidate per gamma
        for _ in gammas:
            row_stats = [next(stats) for _ in row]
            ix = int(np.argmax([mean for mean, _ in row_stats]))
            best.append((row[ix].operation_time, *row_stats[ix]))
        for name, col in zip(("best_T", "fidelity", "fidelity_se"), zip(*best)):
            cols[f"{protocol}_{name}"] = np.asarray(col)
    write_csv(os.path.join(out_dir, "fidelity_vs_gamma.csv"),
              {"dp_max": cfg["noise"]["dp_max"], "K": pro["K"], "repetitions": reps,
               "seed": seed, "version": __version__}, cols)
    return {"gamma_values": len(gammas),
            "fo_min_fidelity": float(min(cols["fo_fidelity"])),
            "as_min_fidelity": float(min(cols["as_fidelity"]))}


def _run_nqubit_scan(cfg, out_dir, workers):
    spectrum = _spectrum_from(cfg["spectrum"])
    pro = cfg["protocol"]
    noise = cfg["noise"]
    reps = cfg["run"]["repetitions"]
    seed = cfg["run"]["seed"]
    ns_values = pro["nqubit_values"]

    def per_n(values, default):
        if not values:
            return [default] * len(ns_values)
        if len(values) == 1:
            return [values[0]] * len(ns_values)
        if len(values) != len(ns_values):
            raise ConfigError("length must be 1 or match nqubit_values",
                              location="protocol.T_values/dp_values/gamma_values")
        return list(values)

    T_by_n = per_n(pro["T_values"], 2.0)
    dp_by_n = per_n(pro["dp_values"], noise["dp_max"])
    gamma_by_n = per_n(pro["gamma_values"], noise["gamma"])
    cells = [(ProtocolContext("fo", spectrum, T_by_n[ni], K=pro["K"], n_qubits=n_q,
                              **_context_args(cfg, "fo", pro["omega_c"])),
              _noise(cfg, derive_seed(seed, ni), dp_max=dp_by_n[ni], gamma=gamma_by_n[ni]),
              pro["eig_keep"], False)
             for ni, n_q in enumerate(ns_values)]
    means, ses = np.array([mean_se(fids)
                           for fids in run_repetitions(cells, reps, workers)]).T
    write_csv(os.path.join(out_dir, "fidelity_vs_nqubits.csv"),
              {"K": pro["K"], "omega_c": pro["omega_c"], "repetitions": reps,
               "seed": seed, "version": __version__},
              {"n_qubits": np.asarray(ns_values, dtype=int),
               "T": np.asarray(T_by_n), "dp_max": np.asarray(dp_by_n),
               "gamma": np.asarray(gamma_by_n),
               "fidelity_mean": means, "fidelity_se": ses})
    ix = int(np.argmax(means))
    return {"best_n": int(ns_values[ix]), "best_fidelity": float(means[ix])}


def _run_ocf(cfg, out_dir, workers):
    del workers  # restarts are cheap and sequential-deterministic
    spectrum = _spectrum_from(cfg["spectrum"])
    oc = cfg["ocf"]
    seed = cfg["run"]["seed"]
    grid = ocf_grid(oc["omega_c"], oc["grid_spacing"], oc["grid_span_factor"])
    fid_points = oc["omega_c"] * np.arange(1, 21) / 20

    def problem(n_q, T, continuous, run_seed):
        return OcfProblem(spectrum=spectrum, duration=T, n_qubits=n_q,
                          continuous=continuous, omega_c=oc["omega_c"],
                          penalty_weight=oc["penalty_weight"],
                          superiterations=oc["superiterations"],
                          inner_evals=oc["inner_evals"],
                          basis_size=oc["basis_size"], seed=run_seed, grid=grid)

    summary = {}
    # fidelity vs qubit number at fixed T
    rows_n, rows_mean, rows_se, rows_xi = [], [], [], []
    for ni, n_q in enumerate(oc["nqubit_values"]):
        fids, xis = [], []
        for r in range(oc["restarts"]):
            sol = optimize_discrete(problem(n_q, oc["T"], False,
                                            derive_seed(seed, 1, ni, r)))
            xis.append(sol.normalized_fidelity)
            fids.append(fidelity(spectrum, solution_filter(sol), fid_points))
        m, s = mean_se(np.asarray(fids))
        rows_n.append(n_q)
        rows_mean.append(m)
        rows_se.append(s)
        rows_xi.append(float(np.mean(xis)))
    write_csv(os.path.join(out_dir, "ocf_nqubit_scan.csv"),
              {"T": oc["T"], "omega_c": oc["omega_c"], "seed": seed,
               "restarts": oc["restarts"], "version": __version__},
              {"n_qubits": np.asarray(rows_n, dtype=int),
               "fidelity_mean": np.asarray(rows_mean),
               "fidelity_se": np.asarray(rows_se),
               "xi_normalized_mean": np.asarray(rows_xi)})

    # fidelity vs operation time for selected qubit numbers
    if oc["T_candidates"]:
        cols = {"T": np.asarray(oc["T_candidates"])}
        for n_q in oc["sweep_nqubits"]:
            vals = []
            for ti, T in enumerate(oc["T_candidates"]):
                fids = [fidelity(spectrum, solution_filter(
                            optimize_discrete(problem(n_q, T, False,
                                                      derive_seed(seed, 2, n_q, ti, r)))),
                            fid_points)
                        for r in range(oc["restarts"])]
                vals.append(float(np.mean(fids)))
            cols[f"fidelity_n{n_q}"] = np.asarray(vals)
        write_csv(os.path.join(out_dir, "ocf_time_scan.csv"),
                  {"omega_c": oc["omega_c"], "seed": seed,
                   "restarts": oc["restarts"], "version": __version__}, cols)
        for n_q in oc["sweep_nqubits"]:
            vals = cols[f"fidelity_n{n_q}"]
            summary[f"peak_T_n{n_q}"] = float(
                cols["T"][int(np.argmax(vals))])

    if oc["continuous"]:
        sol = optimize_continuous(problem(1, oc["T"], True, derive_seed(seed, 3)))
        summary["continuous_xi_normalized"] = sol.normalized_fidelity
        filt = solution_filter(sol)
        norm_f = continuous_norm(filt, oc["omega_c"])
        norm_s = continuous_norm(spectrum, oc["omega_c"], grid)
        write_csv(os.path.join(out_dir, "ocf_best_filter.csv"),
                  {"T": oc["T"], "xi_normalized": sol.normalized_fidelity,
                   "seed": seed, "version": __version__},
                  {"omega": grid.omegas,
                   "filter_normalized": filt.values / norm_f,
                   "spectrum_normalized": spectrum.evaluate(grid.omegas) / norm_s})
    summary["nqubit_best_fidelity"] = float(max(rows_mean))
    return summary


def _run_tracking(cfg, out_dir, workers):
    del workers
    tr = cfg["tracking"]
    noise_cfg = cfg["noise"]
    seed = cfg["run"]["seed"]
    omega_c = tr["omega_c"]
    band = _context_args(cfg, "fo", omega_c)
    omega_max, grid = band["omega_max"], band["grid"]

    s_one = _spectrum_from(cfg["spectrum"])
    s_two = _spectrum_from(cfg["spectrum2"])
    # equal component norms keep the pair system symmetric (sum-to-one drift
    # then only excites its well-conditioned direction)
    n1 = continuous_norm(s_one, omega_c, grid)
    n2 = continuous_norm(s_two, omega_c, grid)
    s_one = s_one.with_scale(s_one.scale / n1)
    s_two = s_two.with_scale(s_two.scale / n2)
    block_filters = [filter_function(fo_sequence(k, tr["k_block"], omega_max, tr["T"]), grid)
                     for k in range(1, tr["k_block"] + 1)]
    overlaps = [0.5 * signal_overlap(s_one, f) + 0.5 * signal_overlap(s_two, f)
                for f in block_filters]
    alpha = 1.0 / float(np.median(overlaps))
    s_one = s_one.with_scale(s_one.scale * alpha)
    s_two = s_two.with_scale(s_two.scale * alpha)
    signal = CompositeSignal(tr["omega_osc"], s_one, s_two)

    run_fo_res = track_fo(signal, tr["k_block"], tr["T"], tr["horizon"],
                          _noise(cfg, derive_seed(seed, 10)),
                          omega_c=omega_c, omega_max=omega_max,
                          eig_keep=tr["eig_keep"], grid=grid)
    write_csv(os.path.join(out_dir, "tracking_fo.csv"),
              {"method": run_fo_res.method, "T": tr["T"], "k_block": tr["k_block"],
               "omega_osc": tr["omega_osc"], "dp_max": noise_cfg["dp_max"],
               "rms_s2": run_fo_res.rms_error(), "seed": seed,
               "version": __version__},
              {"t": run_fo_res.sample_times,
               "s1_estimate": run_fo_res.s1_estimate,
               "s2_estimate": run_fo_res.s2_estimate,
               "s1_true": run_fo_res.s1_true,
               "s2_true": run_fo_res.s2_true})
    summary = {"fo_rms_s2": run_fo_res.rms_error(),
               "fo_samples": run_fo_res.n_samples,
               "fo_sum_drift": run_fo_res.sum_drift()}

    o_grid = ocf_grid(omega_c)
    for ni, n_q in enumerate(tr["nqubit_values"]):
        pair = []
        for ci, comp in enumerate((s_one, s_two)):
            sol = optimize_discrete(OcfProblem(
                spectrum=comp, duration=tr["T"], n_qubits=n_q, omega_c=omega_c,
                superiterations=tr["superiterations"], inner_evals=tr["inner_evals"],
                basis_size=tr["basis_size"], seed=derive_seed(seed, 20, ni, ci),
                grid=o_grid))
            pair.append(solution_filter(sol))
        run = track_ocf(signal, pair, tr["T"], tr["horizon"],
                        _noise(cfg, derive_seed(seed, 30, ni)))
        write_csv(os.path.join(out_dir, f"tracking_ocf_n{n_q}.csv"),
                  {"method": run.method, "T": tr["T"], "n_qubits": n_q,
                   "omega_osc": tr["omega_osc"], "dp_max": noise_cfg["dp_max"],
                   "rms_s2": run.rms_error(), "seed": seed,
                   "version": __version__},
                  {"t": run.sample_times,
                   "s1_estimate": run.s1_estimate,
                   "s2_estimate": run.s2_estimate,
                   "s1_true": run.s1_true,
                   "s2_true": run.s2_true})
        summary[f"ocf_n{n_q}_rms_s2"] = run.rms_error()
        summary[f"ocf_n{n_q}_samples"] = run.n_samples
    return summary


def _run_fisher(cfg, out_dir, workers):
    del workers
    spectrum = _spectrum_from(cfg["spectrum"])
    fi = cfg["fisher"]
    noise = cfg["noise"]
    seed = cfg["run"]["seed"]
    ctx = ProtocolContext("fo", spectrum, fi["T"], K=fi["K"],
                          **_context_args(cfg, "fo", fi["omega_c"]))
    probs = np.array([survival_probability(c, noise["gamma"], fi["T"])
                      for c in ctx.c_true])
    fio = build_fio(ctx.filters, probs)
    rank = fio_rank(fio)
    directions = [("component_mix", ctx.spectrum)]
    rng_names = []
    for d in range(fi["n_random_directions"]):
        rng = np.random.default_rng(derive_seed(seed, 40, d))
        comps = [(float(rng.uniform(0.2, 1.5)), float(rng.uniform(0.0, fi["omega_c"])),
                  float(rng.uniform(0.5, 3.0))) for _ in range(2)]
        directions.append((f"random_{d}", SpectralDensity.lorentzian_mixture(comps)))
        rng_names.append(f"random_{d}")
    labels, infos, bounds = [], [], []
    for label, direction in directions:
        info = directional_fisher(fio, direction)
        labels.append(label)
        infos.append(info)
        bounds.append(cramer_rao(fio, direction))
    write_csv(os.path.join(out_dir, "fisher_report.csv"),
              {"K": fi["K"], "T": fi["T"], "rank": rank, "seed": seed,
               "version": __version__},
              {"direction": np.asarray(labels, dtype=object),
               "information": np.asarray(infos),
               "cramer_rao_bound": np.asarray(bounds)})
    return {"rank": rank, "n_directions": len(labels)}


_RUNNERS = {
    "reconstruction": _run_reconstruction,
    "time-scan": _run_time_scan,
    "gamma-scan": _run_gamma_scan,
    "nqubit-scan": _run_nqubit_scan,
    "ocf": _run_ocf,
    "tracking": _run_tracking,
    "fisher": _run_fisher,
}


def run_scenario(cfg: dict, out_dir: str, workers: int = 1) -> dict:
    """Execute a validated config; writes CSV artifacts, a summary file and
    a config echo into ``out_dir`` and returns the summary dict."""
    os.makedirs(out_dir, exist_ok=True)
    scenario = cfg["run"]["scenario"]
    summary = _RUNNERS[scenario](cfg, out_dir, workers)
    summary = {"name": cfg["run"]["name"], "scenario": scenario,
               "seed": cfg["run"]["seed"],
               "repetitions": cfg["run"]["repetitions"],
               "version": __version__, **summary}
    write_summary(os.path.join(out_dir, "summary.txt"), summary)
    with open(os.path.join(out_dir, "config.ini"), "w", encoding="utf-8",
              newline="\n") as fh:
        fh.write(format_config(cfg))
    return summary


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

_PI = math.pi
_DOUBLE_LORENTZIAN = [(1.0, 2.0, 1.0), (0.7, 6.0, 2.0)]
_LEAKAGE = [(1.0, 2.0, 1.0), (0.7, 6.0, 2.0), (5.0, 20.0, 1.0)]
# out-of-band line width mapped from the trapped-ion parameters; the in-band
# components reuse the standard double-Lorentzian template
_ION = [(1.0, 2.0, 1.0), (0.7, 6.0, 2.0), (5.0, 20.0, _PI * _PI)]


def _preset_fig2():
    return {
        "run": {"scenario": "time-scan", "name": "fig2-fidelity-vs-time"},
        "spectrum": {"components": _DOUBLE_LORENTZIAN},
        "noise": {"gamma": 0.4, "dp_max": 0.01},
        "protocol": {"kind": "fo",
                     "T_candidates": [1.0, 2.0, 3.0, 5.0, 7.0, 10.0]},
    }


def _preset_fig3():
    return {
        "run": {"scenario": "gamma-scan", "name": "fig3-fidelity-vs-gamma"},
        "spectrum": {"components": _DOUBLE_LORENTZIAN},
        "noise": {"dp_max": 0.01},
        "protocol": {"gamma_values": [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]},
    }


def _preset_fig4():
    return {
        "run": {"scenario": "reconstruction", "name": "fig4-dephasing0"},
        "spectrum": {"components": _DOUBLE_LORENTZIAN},
        "noise": {"gamma": 0.0, "dp_max": 0.01},
        "protocol": {"T_fo": 2.0, "T_as": 25.0, "as_delta_approx": True},
    }


def _preset_fig5():
    return {
        "run": {"scenario": "reconstruction", "name": "fig5-dephasing04"},
        "spectrum": {"components": _DOUBLE_LORENTZIAN},
        "noise": {"gamma": 0.4, "dp_max": 0.01},
        "protocol": {"T_fo": 2.0, "T_as": 5.0, "as_delta_approx": True},
    }


def _preset_fig6():
    return {
        "run": {"scenario": "nqubit-scan", "name": "fig6-leakage-vs-nqubits"},
        "spectrum": {"components": _LEAKAGE},
        "noise": {"gamma": 0.0, "dp_max": 0.01},
        "protocol": {"nqubit_values": [1, 2, 3, 4, 5, 6], "T_values": [2.0]},
    }


def _preset_fig8():
    return {
        "run": {"scenario": "ocf", "name": "fig8-ocf-lorentzian"},
        "spectrum": {"components": [(1.0, 2.0, 1.0)]},
        "ocf": {"T": 5.0,
                "T_candidates": [float(t) for t in range(1, 11)],
                "nqubit_values": [1, 2, 3, 4, 6],
                "sweep_nqubits": [1, 4]},
    }


def _preset_fig10():
    return {
        "run": {"scenario": "ocf", "name": "fig10-ocf-double"},
        "spectrum": {"components": _DOUBLE_LORENTZIAN},
        "ocf": {"T": 5.0, "nqubit_values": [1, 6]},
    }


def _preset_fig12():
    return {
        "run": {"scenario": "tracking", "name": "fig12-tracking-slow"},
        "spectrum": {"components": [(1.0, 2.0, 1.0)]},
        "spectrum2": {"components": _DOUBLE_LORENTZIAN},
        "noise": {"dp_max": 0.002, "gamma": 0.0},
        "tracking": {"omega_osc": 0.004 * _PI},
    }


def _preset_fig13():
    cfg = _preset_fig12()
    cfg["run"]["name"] = "fig13-tracking-fast"
    cfg["tracking"]["omega_osc"] = 0.01 * _PI
    return cfg


def _preset_nv():
    cfg = _preset_fig5()
    cfg["run"]["name"] = "nv-center"
    cfg["units"] = {
        "time_unit": "40 microseconds",
        "note": ("dimensionless twin of the NV-center scenario: 1/Gamma = "
                 "100 us maps Gamma=0.4, T_fo=2 (80 us), T_as=5 (200 us); "
                 "units are metadata only, the run is the dimensionless core"),
    }
    return cfg


def _preset_ion():
    return {
        "run": {"scenario": "nqubit-scan", "name": "ion-chain"},
        "spectrum": {"components": _ION},
        "noise": {"gamma": 0.02},
        "protocol": {"nqubit_values": [1, 2, 3, 4, 6],
                     "T_values": [5.0, 2.0, 2.0, 2.0, 2.0],
                     "dp_values": [0.01, 0.02, 0.03, 0.04, 0.1]},
        "units": {
            "time_unit": "2 milliseconds",
            "note": ("trapped-ion chain: Gamma = 0.01/ms maps to 0.02, "
                     "T = 10 ms (N=1) / 4 ms (N>=2) map to 5 / 2; "
                     "state-preparation error enters via dp per qubit count"),
        },
    }


def _preset_fisher():
    return {
        "run": {"scenario": "fisher", "name": "fisher-cr-bound"},
        "spectrum": {"components": _DOUBLE_LORENTZIAN},
    }


PRESETS = {
    "fig2-fidelity-vs-time": ("fidelity vs filter operation time, orthogonalization protocol at gamma=0.4", _preset_fig2),
    "fig3-fidelity-vs-gamma": ("optimal-time fidelity of both protocols across dephasing rates", _preset_fig3),
    "fig4-dephasing0": ("spectrum reconstruction by both protocols, detector noise only", _preset_fig4),
    "fig5-dephasing04": ("spectrum reconstruction by both protocols at gamma=0.4", _preset_fig5),
    "fig6-leakage-vs-nqubits": ("leakage suppression: fidelity vs entangled-probe size", _preset_fig6),
    "fig8-ocf-lorentzian": ("optimal-control filters for a single Lorentzian line", _preset_fig8),
    "fig10-ocf-double": ("optimal-control filters for the double-Lorentzian target", _preset_fig10),
    "fig12-tracking-slow": ("time-resolved coefficient tracking, slow oscillation", _preset_fig12),
    "fig13-tracking-fast": ("time-resolved coefficient tracking, fast oscillation", _preset_fig13),
    "fisher-cr-bound": ("information operator rank and Cramer-Rao bounds", _preset_fisher),
    "ion-chain": ("trapped-ion chain with per-qubit preparation error", _preset_ion),
    "nv-center": ("NV-center unit mapping of the gamma=0.4 reconstruction", _preset_nv),
}

_QUICK_OVERRIDES = {
    "time-scan": {("run", "repetitions"): 3,
                  ("protocol", "T_candidates"): [2.0, 5.0]},
    "gamma-scan": {("run", "repetitions"): 3,
                   ("protocol", "gamma_values"): [0.0, 0.4],
                   ("protocol", "fo_candidates"): [2.0, 5.0],
                   ("protocol", "as_candidates"): [10.0, 25.0]},
    "reconstruction": {("run", "repetitions"): 3},
    "nqubit-scan": {("run", "repetitions"): 3,
                    ("protocol", "nqubit_values"): [1, 2]},
    "ocf": {("ocf", "restarts"): 1, ("ocf", "superiterations"): 2,
            ("ocf", "inner_evals"): 10,
            ("ocf", "T_candidates"): [], ("ocf", "nqubit_values"): [1, 2]},
    "tracking": {("tracking", "horizon"): 100.0,
                 ("tracking", "superiterations"): 2,
                 ("tracking", "inner_evals"): 10,
                 ("tracking", "nqubit_values"): [1]},
    "fisher": {("fisher", "n_random_directions"): 1},
}


def _apply_quick(cfg: dict) -> None:
    """Shrink the budgets of a validated config in place."""
    for (section, key), value in _QUICK_OVERRIDES.get(cfg["run"]["scenario"], {}).items():
        cfg[section][key] = value
    # quick nqubit scans must keep per-N lists consistent
    if cfg["run"]["scenario"] == "nqubit-scan":
        n = len(cfg["protocol"]["nqubit_values"])
        for key in ("T_values", "dp_values", "gamma_values"):
            cfg["protocol"][key] = cfg["protocol"][key][:n]


def preset_config(name: str, quick: bool = False) -> dict:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; see 'noisespec list'")
    cfg = validate_config(PRESETS[name][1]())
    if quick:
        _apply_quick(cfg)
    return cfg


def list_scenarios():
    """Preset names with one-line descriptions, deterministically ordered."""
    return [(name, PRESETS[name][0]) for name in sorted(PRESETS)]


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="noisespec",
        description="Filter-function noise spectroscopy experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a preset or a config file")
    run_p.add_argument("target", help="preset name or path to an INI config")
    run_p.add_argument("--out-dir", default="out", help="output directory root")
    run_p.add_argument("--seed", type=int, default=None, help="override master seed")
    run_p.add_argument("--repetitions", type=int, default=None,
                       help="override repetition count")
    run_p.add_argument("--workers", type=int, default=1,
                       help="worker processes for repetition loops")
    run_p.add_argument("--quick", action="store_true",
                       help="shrink budgets for smoke and determinism runs")

    sub.add_parser("list", help="list available presets")

    exp_p = sub.add_parser("export-config", help="print a preset's config")
    exp_p.add_argument("preset")
    exp_p.add_argument("--quick", action="store_true")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "list":
            for name, description in list_scenarios():
                print(f"{name:26} {description}")
            return 0
        if args.command == "export-config":
            print(format_config(preset_config(args.preset, quick=args.quick)))
            return 0
        # run
        if args.target in PRESETS:
            cfg = preset_config(args.target, quick=args.quick)
        elif os.path.exists(args.target):
            cfg = load_config(args.target)
            if args.quick:
                _apply_quick(cfg)
        else:
            raise ConfigError(f"{args.target!r} is neither a preset nor a file")
        if args.seed is not None:
            cfg["run"]["seed"] = args.seed
        if args.repetitions is not None:
            cfg["run"]["repetitions"] = args.repetitions
        cfg = validate_config(cfg)
        out_dir = os.path.join(args.out_dir, cfg["run"]["name"])
        summary = run_scenario(cfg, out_dir, workers=args.workers)
        for key in sorted(summary):
            print(f"{key} = {_fmt(summary[key])}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NoiseSpecError as exc:
        print(f"error [{type(exc).__module__}.{type(exc).__name__}]: {exc}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
