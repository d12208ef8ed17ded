"""Experiment runner: declarative configs, scenario presets, CSV emission.

Configs are INI files (sections of key=value lines) validated against a
per-scenario schema; unknown sections or keys are rejected with their
location.  Scenarios, presets and budgets are data in this module:

- ``SCHEMA`` holds each scenario's sections and each key's kind, default
  and rules (a least value, nonempty, distinct, protocol, dirname or
  noise.<field>); ``_KINDS`` parses and formats a kind.  A value that
  breaks a rule is refused at its ``section.key``.  Four rules between
  keys follow: a spectrum's source, one-qubit as, the tracking horizon and
  the lengths of a nqubit scan's per-N lists.
- ``PRESETS`` holds each preset's description, scenario and the values
  that differ from its scenario's defaults.
  ``--quick`` merges ``_QUICK``'s budget into a config after validation
  (so a value it replaces is still checked), keeps a nqubit scan's first
  two qubit counts with their per-N values and one tracking sample at least.
- ``_RUNNERS`` maps a scenario to a runner that only computes and returns
  its summary and CSV tables; ``run_scenario`` builds each spectrum section
  once, hands it to the runner and writes what it returns.  ``_context``
  builds every :class:`ProtocolContext` a runner needs, with the retention
  rule and pointwise variant of its section, and ``_ocf_problem`` every OCF
  problem from its section.  Every repetition runs on a ``(context, noise)``
  cell: the time scan and the gamma scan both go through
  ``scan_optimal_time``, one scan per protocol and dephasing rate, all in
  one repetition run.

Every stochastic quantity derives from the master seed, so a rerun of the
same config is byte-identical, its repetitions and designs serial or parallel.
"""

from __future__ import annotations

import argparse
import configparser
import copy
import itertools
import math
import os
import sys

import numpy as np

from . import __version__
from .errors import CalibrationError, ConfigError, NoiseSpecError
from .filterfn import continuous_norm, default_grid, signal_overlaps
from .fisher import build_fio, cramer_rao, directional_fisher, fio_rank
from .ocf import OcfProblem, ocf_grid, optimize_continuous, optimize_discrete
from .probe import NoiseModel, survival_probability
from .reconstruct import (DEFAULT_TAU, FO_BAND_MARGIN, ProtocolContext, _fo_filters,
                          _pointwise_omegas, fidelity, mean_se, run_jobs, run_repetitions,
                          scan_optimal_time)
from .seeding import derive_seed, make_rng
from .spectra import CompositeSignal, SpectralDensity, _median
from .tracking import track_fo, track_ocf

_REQUIRED = object()

# ---------------------------------------------------------------------------
# configuration schema
# ---------------------------------------------------------------------------

# An entry is (kind, default, *rules).  A rule is a least value ("> 0",
# ">= 0", ">= 1" or ">= 2", held by each value of a list), "nonempty",
# "distinct", "protocol" (each value is fo or as), "dirname" (one directory:
# not "", "." or ".." and no path separator) or "noise.<field>" (each value
# replaces that [noise] field; NoiseModel checks it).  Four rules between keys
# close validate_config: a spectrum has components or a csv (run_scenario
# builds it), "as" runs one qubit, a tracking horizon holds one sample, and a
# nqubit scan's per-N lists have 0, 1 or one value per qubit count.  Defaults
# are the paper figures' values where a figure sets one: the time-scan
# T_candidates, the gamma-scan gamma_values, the nqubit-scan nqubit_values and
# T_values, and the ocf nqubit_values and sweep_nqubits.
_COMMON = {
    "spectrum": {
        "components": ("components", None),
        "csv": ("str", None),
        "scale": ("float", 1.0, ">= 0"),
    },
    "grid": {
        "spacing": ("float", 0.005, "> 0"),
        "span_factor": ("float", 5.0, ">= 1"),
    },
    "units": {
        "time_unit": ("str", ""),
        "frequency_unit": ("str", ""),
        "note": ("str", ""),
    },
}

_NOISE = {
    "dp_max": ("float", 0.01, "noise.dp_max"),
    "gamma": ("float", 0.0, "noise.gamma"),
    "shots": ("int", None, "noise.shots"),
}

_BAND = {"K": ("int", 20, ">= 1"), "omega_c": ("float", 10.0, "> 0")}
_OPTIMIZER = {"superiterations": ("int", 10, ">= 0"), "inner_evals": ("int", 60, ">= 1"),
              "basis_size": ("int", 3, ">= 1")}


def _scenario(repetitions=100, without=(), **sections):
    """Schema of one scenario: ``[run]`` with the scenario's own repetitions
    default, the common sections less ``without``, then its own sections."""
    run = {"scenario": ("str", _REQUIRED), "name": ("str", _REQUIRED, "dirname"),
           "repetitions": ("int", repetitions, ">= 1"), "seed": ("int", 20260810)}
    return {"run": run, **{name: keys for name, keys in _COMMON.items()
                           if name not in without}, **sections}


SCHEMA = {
    "reconstruction": _scenario(
        noise=_NOISE,
        protocol={
            "protocols": ("strs", ["fo", "as"], "protocol", "nonempty", "distinct"),
            **_BAND,
            "T_fo": ("float", 2.0, "> 0"),
            "T_as": ("float", 25.0, "> 0"),
            "n_qubits": ("int", 1, ">= 1"),
            "eig_keep": ("retention", DEFAULT_TAU),
            "as_delta_approx": ("bool", False),
        }),
    "time-scan": _scenario(
        noise=_NOISE,
        protocol={
            "kind": ("str", "fo", "protocol"),
            **_BAND,
            "T_candidates": ("floats", [1.0, 2.0, 3.0, 5.0, 7.0, 10.0], "> 0", "nonempty"),
            "n_qubits": ("int", 1, ">= 1"),
            "eig_keep": ("retention", DEFAULT_TAU),
        }),
    "gamma-scan": _scenario(
        # the dephasing rates come from gamma_values
        noise={key: _NOISE[key] for key in ("dp_max", "shots")},
        protocol={
            **_BAND,
            "gamma_values": ("floats", [0.0, 0.1, 0.2, 0.3, 0.4, 0.5], "noise.gamma",
                             "nonempty"),
            "fo_candidates": ("floats", [1.0, 2.0, 3.0, 5.0, 7.0, 10.0], "> 0", "nonempty"),
            "as_candidates": ("floats", [5.0, 10.0, 15.0, 20.0, 25.0], "> 0", "nonempty"),
            "eig_keep": ("retention", DEFAULT_TAU),
        }),
    "nqubit-scan": _scenario(
        noise=_NOISE,
        protocol={
            **_BAND,
            "nqubit_values": ("ints", [1, 2, 3, 4, 5, 6], ">= 1", "nonempty"),
            "T_values": ("floats", [2.0], "> 0"),
            "dp_values": ("floats", [], "noise.dp_max"),
            "gamma_values": ("floats", [], "noise.gamma"),
            "eig_keep": ("retention", DEFAULT_TAU),
        }),
    # the optimization grid is [ocf] grid_spacing and grid_span_factor
    "ocf": _scenario(
        repetitions=1, without=("grid",),
        ocf={
            "omega_c": ("float", 10.0, "> 0"),
            "T": ("float", 5.0, "> 0"),
            "T_candidates": ("floats", [], "> 0"),
            "nqubit_values": ("ints", [1, 2, 3, 4, 6], ">= 1", "nonempty"),
            "sweep_nqubits": ("ints", [1, 4], ">= 1", "distinct"),
            "restarts": ("int", 3, ">= 1"),
            **_OPTIMIZER,
            "penalty_weight": ("float", 1.0, ">= 0"),
            "continuous": ("bool", True),
            "grid_spacing": ("float", 0.01, "> 0"),
            "grid_span_factor": ("float", 3.0, ">= 1"),
        }),
    "tracking": _scenario(
        repetitions=1,
        noise=_NOISE,
        spectrum2=_COMMON["spectrum"],
        tracking={
            "omega_osc": ("float", _REQUIRED),
            "k_block": ("int", 10, ">= 2"),
            "T": ("float", 5.0, "> 0"),
            "horizon": ("float", 500.0, "> 0"),
            "omega_c": ("float", 10.0, "> 0"),
            "nqubit_values": ("ints", [1, 6], ">= 1", "distinct"),
            **_OPTIMIZER,
            "eig_keep": ("retention", DEFAULT_TAU),
        }),
    "fisher": _scenario(
        repetitions=1,
        noise={"gamma": _NOISE["gamma"]},
        fisher={
            **_BAND,
            "T": ("float", 5.0, "> 0"),
            "n_random_directions": ("int", 3, ">= 0"),
        }),
}

_LEAST = {"> 0": lambda v: v > 0, ">= 0": lambda v: v >= 0, ">= 1": lambda v: v >= 1,
          ">= 2": lambda v: v >= 2}


def _check(rule: str, value) -> None:
    """Raise ValueError where ``value`` (each value of a list) breaks ``rule``."""
    values = value if isinstance(value, list) else [value]
    if rule in _LEAST and not all(map(_LEAST[rule], values)):
        raise ValueError(f"must be {rule}, got {value}")
    if rule == "nonempty" and not values:
        raise ValueError("needs at least one value")
    # a repeated value would overwrite the output an earlier one names
    if rule == "distinct" and len(set(values)) < len(values):
        raise ValueError(f"values must be distinct, got {value}")
    for one in values:
        if rule == "protocol" and one not in ("fo", "as"):
            raise ValueError(f"unknown protocol {one!r}")
        # a run writes into --out-dir/name, so the name is one directory
        if rule == "dirname" and (one in ("", ".", "..") or set(one) & set("/\\\0")):
            raise ValueError(f"must name one directory, got {one!r}")
        if rule.startswith("noise."):
            NoiseModel(**{rule.removeprefix("noise."): one})


def _parse_bool(raw):
    text = raw.strip()
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {text!r}") from None


def _parse_float(raw):
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {raw.strip()!r}")
    return value


def _parse_retention(raw):
    if raw.strip() == "cv":
        return "cv"
    # a config has no retained counts: a threshold above 1 retains nothing,
    # and a NaN or infinite one is out of range too
    value = float(raw)
    if not 0 <= value <= 1:
        raise ValueError(f"must be cv or a threshold in [0, 1], got {value}")
    return value


def _parse_components(raw):
    rows = []
    for line in raw.strip().splitlines():
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"component line needs 'amplitude center width', got {line!r}")
        rows.append((float(parts[0]), float(parts[1]), float(parts[2])))
    if not rows:
        raise ValueError("empty component list")
    return rows


def _parse_line(raw):
    # config.ini holds a value on its key's line; a line break would not load back
    text = raw.strip()
    if len(text.splitlines()) > 1:
        raise ValueError(f"must be one line, got {text!r}")
    return text


def _fmt_one(value) -> str:
    return f" {_fmt(value)}"


def _fmt_list(values) -> str:
    return " " + " ".join(map(_fmt, values))


# schema kind -> (parse raw text, format a value as the text after "key =");
# every kind writes its scalars through _fmt, as summary.txt and the CSVs do
_KINDS = {
    "int": (int, _fmt_one),
    "float": (_parse_float, _fmt_one),
    "bool": (_parse_bool, _fmt_one),
    "str": (_parse_line, _fmt_one),
    "strs": (str.split, _fmt_list),
    "floats": (lambda raw: [_parse_float(tok) for tok in raw.split()], _fmt_list),
    "ints": (lambda raw: [int(tok) for tok in raw.split()], _fmt_list),
    "retention": (_parse_retention, _fmt_one),
    "components": (_parse_components,
                   lambda v: "".join(f"\n {_fmt_list(row)}" for row in v)),
}


def validate_config(raw: dict) -> dict:
    """Typed, defaulted configuration from a nested dict of raw strings
    (or already-typed values).  Unknown sections/keys are rejected; each
    value meets its entry's rules, then the rules between keys apply."""
    run = raw.get("run", {})
    scenario = run.get("scenario")
    if scenario is None:
        raise ConfigError("missing key", location="run.scenario")
    if scenario not in SCHEMA:
        raise ConfigError(f"unknown scenario {scenario!r}; valid: "
                          f"{sorted(SCHEMA)}", location="run.scenario")
    schema = SCHEMA[scenario]
    for section, content in raw.items():
        if section not in schema:
            raise ConfigError(f"unknown section [{section}] for scenario "
                              f"{scenario!r}", location=section)
        for key in content:
            if key not in schema[section]:
                raise ConfigError("unknown key", location=f"{section}.{key}")
    cfg = {}
    for section, keys in schema.items():
        given = raw.get(section, {})
        out = cfg[section] = {}
        for key, (kind, default, *rules) in keys.items():
            location = f"{section}.{key}"
            value = given.get(key, default)
            if value is _REQUIRED:
                raise ConfigError("missing required key", location=location)
            # None means "not given" only where it is the default
            if value is None and default is not None:
                raise ConfigError("needs a value, got None", location=location)
            try:
                if value is not None:
                    # a typed value or default is parsed from the text it is
                    # written as, so a config validates as its config.ini reruns
                    parse, fmt = _KINDS[kind]
                    value = parse(value if isinstance(value, str) else fmt(value))
                for rule in rules:
                    _check(rule, value)
            except (TypeError, ValueError) as exc:
                raise ConfigError(str(exc), location=location) from exc
            out[key] = value
    # the rules between keys
    for section in [name for name in ("spectrum", "spectrum2") if name in cfg]:
        if cfg[section]["components"] is None and cfg[section]["csv"] is None:
            raise ConfigError("need either components or csv",
                              location=f"{section}.components")
    pro = cfg.get("protocol", {})
    if pro.get("kind") == "as" and pro["n_qubits"] != 1:
        raise ConfigError("the pointwise protocol is defined for one qubit",
                          location="protocol.n_qubits")
    tr = cfg.get("tracking")
    if tr and tr["horizon"] < tr["k_block"] * tr["T"]:
        raise ConfigError(f"shorter than one sample, k_block * T = "
                          f"{tr['k_block'] * tr['T']}", location="tracking.horizon")
    if scenario == "nqubit-scan":
        for key in ("T_values", "dp_values", "gamma_values"):
            if len(pro[key]) not in (0, 1, len(pro["nqubit_values"])):
                raise ConfigError("length must be 0, 1 or that of nqubit_values",
                                  location=f"protocol.{key}")
    return cfg


def _ini_sections(text: str) -> dict:
    """The sections of INI ``text`` as a nested dict of raw strings."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    return {section: dict(parser.items(section)) for section in parser.sections()}


def format_config(cfg: dict) -> str:
    """Canonical INI text for a validated config (round-trips exactly)."""
    scenario = cfg["run"]["scenario"]
    schema = SCHEMA[scenario]
    lines = []
    for section in schema:
        keys = []
        for key, (kind, *_) in schema[section].items():
            value = cfg[section][key]
            if value is not None and value != "":
                keys.append(f"{key} ={_KINDS[kind][1](value)}")
        if keys:
            lines.append(f"[{section}]")
            lines.extend(keys)
            lines.append("")
    return "\n".join(lines)


def _spectrum_from(cfg: dict, section: str) -> SpectralDensity:
    """The spectrum of ``cfg[section]``; a value that builds none is refused at its key."""
    sec = cfg[section]
    key = "csv" if sec["components"] is None else "components"
    build = SpectralDensity.from_csv if key == "csv" else SpectralDensity.lorentzian_mixture
    try:
        return build(sec[key], scale=sec["scale"])
    except (ValueError, OSError) as exc:
        raise ConfigError(str(exc), location=f"{section}.{key}") from exc


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


def _cells(col: np.ndarray):
    """The cells of a 1-D column as :func:`_fmt` writes them, yielded lazily;
    a float column is converted in one pass."""
    if col.dtype.kind == "f":
        return map(repr, col.astype(float).tolist())
    return map(_fmt, col)


def write_csv(path, meta: dict, columns: dict) -> None:
    """CSV with '#'-prefixed metadata lines; floats use shortest repr.
    A shorter column's missing cells are empty."""
    arrays = {name: np.atleast_1d(np.asarray(col)) for name, col in columns.items()}
    rows = itertools.zip_longest(*map(_cells, arrays.values()), fillvalue="")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key in sorted(meta):
            fh.write(f"# {key},{_fmt(meta[key])}\n")
        fh.write(",".join(arrays) + "\n")
        fh.writelines(",".join(row) + "\n" for row in rows)


def write_summary(path, entries: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key in sorted(entries):
            fh.write(f"{key} = {_fmt(entries[key])}\n")


# ---------------------------------------------------------------------------
# scenario runners
# ---------------------------------------------------------------------------

def _context(cfg, spectrum, protocol, T, n_qubits=1, band="protocol") -> ProtocolContext:
    """The context of ``protocol`` at operation time ``T`` with the ``K``,
    ``omega_c``, ``eig_keep`` and ``as_delta_approx`` of section ``band``
    (where it has them): omega_max is ``FO_BAND_MARGIN * omega_c`` for fo
    and omega_c for as, on the grid that ``[grid]`` sets."""
    sec = cfg[band]
    omega_max = FO_BAND_MARGIN * sec["omega_c"] if protocol == "fo" else sec["omega_c"]
    return ProtocolContext(protocol, spectrum, T, K=sec["K"], omega_c=sec["omega_c"],
                           omega_max=omega_max, n_qubits=n_qubits,
                           grid=default_grid(omega_max, **cfg["grid"]),
                           eig_keep=sec.get("eig_keep", DEFAULT_TAU),
                           as_delta=sec.get("as_delta_approx", False))


def _noise(cfg, seed, **changes) -> NoiseModel:
    """The ``[noise]`` model at ``seed``, with per-cell changes."""
    return NoiseModel(**{**cfg["noise"], **changes}, seed=seed)


def _ocf_problem(cfg, section, spectrum, T, n_qubits, path, grid) -> OcfProblem:
    """The OCF problem of ``spectrum`` at ``T`` on ``n_qubits``, seeded at ``path``,
    with the ``omega_c``, optimizer budget and any ``penalty_weight`` of ``section``."""
    return OcfProblem(spectrum, T, n_qubits, seed=derive_seed(cfg["run"]["seed"], *path),
                      grid=grid, **{key: value for key, value in cfg[section].items()
                                    if key in ("omega_c", *_OPTIMIZER, "penalty_weight")})


def _run_reconstruction(cfg, workers, spectrum):
    pro = cfg["protocol"]
    noise = cfg["noise"]
    cells = [(_context(cfg, spectrum, protocol, pro[f"T_{protocol}"],
                       pro["n_qubits"] if protocol == "fo" else 1),
              _noise(cfg, derive_seed(cfg["run"]["seed"], pi)))
             for pi, protocol in enumerate(pro["protocols"])]
    summary, tables = {}, {}
    for (ctx, cell_noise), fids in zip(
            cells, run_repetitions(cells, cfg["run"]["repetitions"], workers)):
        mean, se = mean_se(fids)
        _, result = ctx.run_once(_noise(cfg, derive_seed(cell_noise.seed, 0)))
        protocol, T = ctx.protocol, ctx.operation_time
        if result is not None:
            tables[f"{protocol}_estimate.csv"] = (
                {"protocol": protocol, "K": pro["K"], "T": T,
                 "omega_c": pro["omega_c"], "omega_max": ctx.omega_max,
                 "gamma": noise["gamma"], "dp_max": noise["dp_max"],
                 "fidelity_mean": mean, "fidelity_se": se,
                 "retained": result.retained_count},
                {"omega": result.omegas, "estimate": result.values,
                 "s_true": ctx.spectrum.evaluate(result.omegas)})
        summary[f"{protocol}_fidelity_mean"] = mean
        summary[f"{protocol}_fidelity_se"] = se
        summary[f"{protocol}_T"] = T
    return summary, tables


def _run_time_scan(cfg, workers, spectrum):
    pro = cfg["protocol"]
    noise = cfg["noise"]
    reps = cfg["run"]["repetitions"]
    contexts = [_context(cfg, spectrum, pro["kind"], T, pro["n_qubits"])
                for T in pro["T_candidates"]]
    scan, = scan_optimal_time([(contexts, _noise(cfg, cfg["run"]["seed"]))], reps, workers)
    table = ({"protocol": pro["kind"], "gamma": noise["gamma"], "dp_max": noise["dp_max"],
              "K": pro["K"], "repetitions": reps},
             {"T": scan.times, "fidelity_mean": scan.fidelity_mean,
              "fidelity_se": scan.fidelity_se})
    return ({"best_T": scan.best_time, "best_fidelity": float(scan.fidelity_mean.max())},
            {"fidelity_vs_time.csv": table})


def _run_gamma_scan(cfg, workers, spectrum):
    pro = cfg["protocol"]
    reps = cfg["run"]["repetitions"]
    gammas = pro["gamma_values"]
    protocols = ("fo", "as")
    # contexts do not depend on gamma: each (protocol, T) context serves
    # every gamma's scan
    rows = [[_context(cfg, spectrum, protocol, T) for T in pro[f"{protocol}_candidates"]]
            for protocol in protocols]
    scans = iter(scan_optimal_time(
        [(row, _noise(cfg, derive_seed(cfg["run"]["seed"], gi, pi), gamma=gamma))
         for pi, row in enumerate(rows) for gi, gamma in enumerate(gammas)],
        reps, workers))
    cols = {"gamma": np.asarray(gammas)}
    for protocol in protocols:
        best = [(scan.best_time, scan.fidelity_mean[scan.best], scan.fidelity_se[scan.best])
                for scan in (next(scans) for _ in gammas)]
        for name, col in zip(("best_T", "fidelity", "fidelity_se"), zip(*best)):
            cols[f"{protocol}_{name}"] = np.asarray(col)
    meta = {"dp_max": cfg["noise"]["dp_max"], "K": pro["K"], "repetitions": reps}
    return ({"gamma_values": len(gammas),
             "fo_min_fidelity": float(min(cols["fo_fidelity"])),
             "as_min_fidelity": float(min(cols["as_fidelity"]))},
            {"fidelity_vs_gamma.csv": (meta, cols)})


def _per_n(values, n, default):
    """A per-qubit-count list: empty means ``default``, one value is shared."""
    if not values:
        return [default] * n
    return list(values) if len(values) == n else [values[0]] * n


def _run_nqubit_scan(cfg, workers, spectrum):
    pro = cfg["protocol"]
    noise = cfg["noise"]
    reps = cfg["run"]["repetitions"]
    ns_values = pro["nqubit_values"]
    T_by_n = _per_n(pro["T_values"], len(ns_values), 2.0)
    dp_by_n = _per_n(pro["dp_values"], len(ns_values), noise["dp_max"])
    gamma_by_n = _per_n(pro["gamma_values"], len(ns_values), noise["gamma"])
    cells = [(_context(cfg, spectrum, "fo", T_by_n[ni], n_q),
              _noise(cfg, derive_seed(cfg["run"]["seed"], ni), dp_max=dp_by_n[ni],
                     gamma=gamma_by_n[ni]))
             for ni, n_q in enumerate(ns_values)]
    means, ses = np.array([mean_se(fids)
                           for fids in run_repetitions(cells, reps, workers)]).T
    table = ({"K": pro["K"], "omega_c": pro["omega_c"], "repetitions": reps},
             {"n_qubits": np.asarray(ns_values, dtype=int),
              "T": np.asarray(T_by_n), "dp_max": np.asarray(dp_by_n),
              "gamma": np.asarray(gamma_by_n),
              "fidelity_mean": means, "fidelity_se": ses})
    ix = int(np.argmax(means))
    return ({"best_n": int(ns_values[ix]), "best_fidelity": float(means[ix])},
            {"fidelity_vs_nqubits.csv": table})


def _run_ocf(cfg, workers, spectrum):
    oc = cfg["ocf"]
    grid = ocf_grid(oc["omega_c"], oc["grid_spacing"], oc["grid_span_factor"])
    fid_points = _pointwise_omegas(oc["omega_c"], 20)

    # (qubits, T, seed path) of every design, the longest (continuous) first
    designs = [(1, oc["T"], (3,))] if oc["continuous"] else []
    designs += [(n_q, oc["T"], (1, ni, r)) for ni, n_q in enumerate(oc["nqubit_values"])
                for r in range(oc["restarts"])]
    designs += [(n_q, T, (2, n_q, ti, r)) for n_q in oc["sweep_nqubits"]
                for ti, T in enumerate(oc["T_candidates"]) for r in range(oc["restarts"])]

    def design(i):
        n_q, T, path = designs[i]
        return (optimize_continuous if path == (3,) else optimize_discrete)(
            _ocf_problem(cfg, "ocf", spectrum, T, n_q, path, grid))

    sols = dict(zip([path for *_, path in designs], run_jobs(design, len(designs), workers)))

    def restarts(*seed_path):
        """Fidelity mean and se, and mean normalized objective, over the
        restarts of one discrete design."""
        runs = [sols[(*seed_path, r)] for r in range(oc["restarts"])]
        fids = np.array([fidelity(spectrum, sol.filter, fid_points) for sol in runs])
        return (*mean_se(fids), float(np.mean([sol.normalized_fidelity for sol in runs])))

    summary, tables = {}, {}
    # fidelity vs qubit number at fixed T
    rows_mean, rows_se, rows_xi = zip(*[restarts(1, ni)
                                        for ni in range(len(oc["nqubit_values"]))])
    tables["ocf_nqubit_scan.csv"] = (
        {"T": oc["T"], "omega_c": oc["omega_c"], "restarts": oc["restarts"]},
        {"n_qubits": np.asarray(oc["nqubit_values"], dtype=int),
         "fidelity_mean": np.asarray(rows_mean),
         "fidelity_se": np.asarray(rows_se),
         "xi_normalized_mean": np.asarray(rows_xi)})

    # fidelity vs operation time for selected qubit numbers
    if oc["T_candidates"]:
        cols = {"T": np.asarray(oc["T_candidates"])}
        for n_q in oc["sweep_nqubits"]:
            cols[f"fidelity_n{n_q}"] = vals = np.asarray(
                [restarts(2, n_q, ti)[0] for ti in range(len(oc["T_candidates"]))])
            summary[f"peak_T_n{n_q}"] = float(cols["T"][int(np.argmax(vals))])
        tables["ocf_time_scan.csv"] = (
            {"omega_c": oc["omega_c"], "restarts": oc["restarts"]}, cols)

    if oc["continuous"]:
        sol = sols[(3,)]
        summary["continuous_xi_normalized"] = sol.normalized_fidelity
        filt = sol.filter
        norm_f = continuous_norm(filt, oc["omega_c"])
        norm_s = continuous_norm(spectrum, oc["omega_c"], grid)
        tables["ocf_best_filter.csv"] = (
            {"T": oc["T"], "xi_normalized": sol.normalized_fidelity},
            {"omega": grid.omegas,
             "filter_normalized": filt.values / norm_f,
             "spectrum_normalized": spectrum.evaluate(grid.omegas) / norm_s})
    summary["nqubit_best_fidelity"] = float(max(rows_mean))
    return summary, tables


def _run_tracking(cfg, workers, *comps):
    tr = cfg["tracking"]
    seed = cfg["run"]["seed"]
    omega_c = tr["omega_c"]
    omega_max = FO_BAND_MARGIN * omega_c
    grid = default_grid(omega_max, **cfg["grid"])

    # equal component norms keep the pair system symmetric (sum-to-one drift
    # then only excites its well-conditioned direction)
    norms = [continuous_norm(s, omega_c, grid) for s in comps]
    if min(norms) == 0.0:
        raise CalibrationError("a tracking component vanishes on [0, omega_c]")
    s_one, s_two = (s.with_scale(s.scale / norm) for s, norm in zip(comps, norms))
    block_filters = _fo_filters(omega_max, tr["k_block"], 1, tr["T"], grid)
    overlaps = (0.5 * signal_overlaps(s_one, block_filters)
                + 0.5 * signal_overlaps(s_two, block_filters))
    alpha = 1.0 / _median(overlaps)
    s_one, s_two = (s.with_scale(s.scale * alpha) for s in (s_one, s_two))
    signal = CompositeSignal(tr["omega_osc"], s_one, s_two)

    def table(run, **meta):
        return ({"method": run.method, "T": tr["T"], "omega_osc": tr["omega_osc"],
                 "dp_max": cfg["noise"]["dp_max"], "rms_s2": run.rms_error(), **meta},
                {"t": run.sample_times,
                 "s1_estimate": run.s1_estimate, "s2_estimate": run.s2_estimate,
                 "s1_true": run.s1_true, "s2_true": run.s2_true})

    run = track_fo(signal, block_filters, tr["horizon"], _noise(cfg, derive_seed(seed, 10)),
                   omega_c=omega_c, eig_keep=tr["eig_keep"])
    tables = {"tracking_fo.csv": table(run, k_block=tr["k_block"])}
    summary = {"fo_rms_s2": run.rms_error(), "fo_samples": run.n_samples,
               "fo_sum_drift": run.sum_drift()}

    o_grid = ocf_grid(omega_c)

    def design(i):  # component i % 2 of qubit count i // 2
        ni, ci = divmod(i, 2)
        return optimize_discrete(_ocf_problem(cfg, "tracking", (s_one, s_two)[ci], tr["T"],
                                              tr["nqubit_values"][ni], (20, ni, ci), o_grid)).filter

    filters = run_jobs(design, 2 * len(tr["nqubit_values"]), workers)
    for ni, n_q in enumerate(tr["nqubit_values"]):
        run = track_ocf(signal, filters[2 * ni:2 * ni + 2], tr["horizon"],
                        _noise(cfg, derive_seed(seed, 30, ni)))
        tables[f"tracking_ocf_n{n_q}.csv"] = table(run, n_qubits=n_q)
        summary[f"ocf_n{n_q}_rms_s2"] = run.rms_error()
        summary[f"ocf_n{n_q}_samples"] = run.n_samples
    return summary, tables


def _run_fisher(cfg, workers, spectrum):
    del workers
    fi = cfg["fisher"]
    ctx = _context(cfg, spectrum, "fo", fi["T"], band="fisher")
    probs = survival_probability(ctx.c_true, cfg["noise"]["gamma"], fi["T"])
    fio = build_fio(ctx.filters, probs)
    rank = fio_rank(fio)
    directions = [("component_mix", ctx.spectrum)]
    for d in range(fi["n_random_directions"]):
        rng = make_rng(derive_seed(cfg["run"]["seed"], 40, d))
        comps = [(float(rng.uniform(0.2, 1.5)), float(rng.uniform(0.0, fi["omega_c"])),
                  float(rng.uniform(0.5, 3.0))) for _ in range(2)]
        directions.append((f"random_{d}", SpectralDensity.lorentzian_mixture(comps)))
    labels = [label for label, _ in directions]
    table = ({"K": fi["K"], "T": fi["T"], "rank": rank},
             {"direction": np.asarray(labels, dtype=object),
              "information": np.asarray([directional_fisher(fio, d) for _, d in directions]),
              "cramer_rao_bound": np.asarray([cramer_rao(fio, d) for _, d in directions])})
    return {"rank": rank, "n_directions": len(labels)}, {"fisher_report.csv": table}


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
    scenario = cfg["run"]["scenario"]
    seed = cfg["run"]["seed"]
    spectra = [_spectrum_from(cfg, section) for section in ("spectrum", "spectrum2")
               if section in cfg]
    summary, tables = _RUNNERS[scenario](cfg, workers, *spectra)
    os.makedirs(out_dir, exist_ok=True)
    for name, (meta, columns) in tables.items():
        write_csv(os.path.join(out_dir, name),
                  {**meta, "seed": seed, "version": __version__}, columns)
    summary = {"name": cfg["run"]["name"], "scenario": scenario, "seed": seed,
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

_FIG5 = {
    "spectrum": {"components": _DOUBLE_LORENTZIAN},
    "noise": {"gamma": 0.4},
    "protocol": {"T_as": 5.0, "as_delta_approx": True},
}
_FIG12 = {
    "spectrum": {"components": [(1.0, 2.0, 1.0)]},
    "spectrum2": {"components": _DOUBLE_LORENTZIAN},
    "noise": {"dp_max": 0.002},
    "tracking": {"omega_osc": 0.004 * _PI},
}

# name -> (description, scenario, sections other than [run]); the run's name
# is the preset's
PRESETS = {
    "fig2-fidelity-vs-time": (
        "fidelity vs filter operation time, orthogonalization protocol at gamma=0.4",
        "time-scan",
        {"spectrum": {"components": _DOUBLE_LORENTZIAN}, "noise": {"gamma": 0.4}}),
    "fig3-fidelity-vs-gamma": (
        "optimal-time fidelity of both protocols across dephasing rates", "gamma-scan",
        {"spectrum": {"components": _DOUBLE_LORENTZIAN}}),
    "fig4-dephasing0": (
        "spectrum reconstruction by both protocols, detector noise only", "reconstruction",
        {"spectrum": {"components": _DOUBLE_LORENTZIAN}, "protocol": {"as_delta_approx": True}}),
    "fig5-dephasing04": (
        "spectrum reconstruction by both protocols at gamma=0.4", "reconstruction", _FIG5),
    "fig6-leakage-vs-nqubits": (
        "leakage suppression: fidelity vs entangled-probe size", "nqubit-scan",
        {"spectrum": {"components": _LEAKAGE}}),
    "fig8-ocf-lorentzian": (
        "optimal-control filters for a single Lorentzian line", "ocf",
        {"spectrum": {"components": [(1.0, 2.0, 1.0)]},
         "ocf": {"T_candidates": [float(t) for t in range(1, 11)]}}),
    "fig10-ocf-double": (
        "optimal-control filters for the double-Lorentzian target", "ocf",
        {"spectrum": {"components": _DOUBLE_LORENTZIAN}, "ocf": {"nqubit_values": [1, 6]}}),
    "fig12-tracking-slow": (
        "time-resolved coefficient tracking, slow oscillation", "tracking", _FIG12),
    "fig13-tracking-fast": (
        "time-resolved coefficient tracking, fast oscillation", "tracking",
        {**_FIG12, "tracking": {"omega_osc": 0.01 * _PI}}),
    "fisher-cr-bound": (
        "information operator rank and Cramer-Rao bounds", "fisher",
        {"spectrum": {"components": _DOUBLE_LORENTZIAN}}),
    "ion-chain": (
        "trapped-ion chain with per-qubit preparation error", "nqubit-scan",
        {"spectrum": {"components": _ION},
         "noise": {"gamma": 0.02},
         "protocol": {"nqubit_values": [1, 2, 3, 4, 6],
                      "T_values": [5.0, 2.0, 2.0, 2.0, 2.0],
                      "dp_values": [0.01, 0.02, 0.03, 0.04, 0.1]},
         "units": {
             "time_unit": "2 milliseconds",
             "note": ("trapped-ion chain: Gamma = 0.01/ms maps to 0.02, "
                      "T = 10 ms (N=1) / 4 ms (N>=2) map to 5 / 2; "
                      "state-preparation error enters via dp per qubit count")}}),
    "nv-center": (
        "NV-center unit mapping of the gamma=0.4 reconstruction", "reconstruction",
        {**_FIG5, "units": {
            "time_unit": "40 microseconds",
            "note": ("dimensionless twin of the NV-center scenario: 1/Gamma = "
                     "100 us maps Gamma=0.4, T_fo=2 (80 us), T_as=5 (200 us); "
                     "units are metadata only, the run is the dimensionless core")}}),
}

# quick budgets: sections merged into a validated config of the scenario
_QUICK = {
    "time-scan": {"run": {"repetitions": 3}, "protocol": {"T_candidates": [2.0, 5.0]}},
    "gamma-scan": {"run": {"repetitions": 3},
                   "protocol": {"gamma_values": [0.0, 0.4], "fo_candidates": [2.0, 5.0],
                                "as_candidates": [10.0, 25.0]}},
    "reconstruction": {"run": {"repetitions": 3}},
    "nqubit-scan": {"run": {"repetitions": 3}},
    "ocf": {"ocf": {"restarts": 1, "superiterations": 2, "inner_evals": 10,
                    "T_candidates": [], "nqubit_values": [1, 2]}},
    "tracking": {"tracking": {"horizon": 100.0, "superiterations": 2, "inner_evals": 10,
                              "nqubit_values": [1]}},
    "fisher": {"fisher": {"n_random_directions": 1}},
}


def _apply_quick(cfg: dict) -> None:
    """Shrink the budgets of a validated config in place."""
    scenario = cfg["run"]["scenario"]
    for section, values in copy.deepcopy(_QUICK[scenario]).items():
        cfg[section].update(values)
    if scenario == "nqubit-scan":
        for key in ("nqubit_values", "T_values", "dp_values", "gamma_values"):
            cfg["protocol"][key] = cfg["protocol"][key][:2]
    if scenario == "tracking":
        tr = cfg["tracking"]
        tr["horizon"] = max(tr["horizon"], tr["k_block"] * tr["T"])


def _load(target: str, quick: bool = False, **run) -> dict:
    """The config of a preset name or an INI file path with the ``[run]``
    values ``run``, validated once (which copies every value and builds no
    spectrum); the quick budget then shrinks it, and ``run`` beats it."""
    if target in PRESETS:
        _, scenario, sections = PRESETS[target]
        raw = {"run": {"scenario": scenario, "name": target}, **sections}
    elif os.path.exists(target):
        try:
            with open(target, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read {target!r}: {exc}") from exc
        raw = _ini_sections(text)
    else:
        raise ConfigError(f"{target!r} is neither a preset nor a file")
    raw.setdefault("run", {}).update(run)
    cfg = validate_config(raw)
    if quick:
        _apply_quick(cfg)
        cfg["run"].update(run)
    return cfg


def preset_config(name: str, quick: bool = False) -> dict:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; see 'noisespec list'")
    return _load(name, quick)


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
                       help="worker processes for repetitions and filter designs")
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
            for name in sorted(PRESETS):
                print(f"{name:26} {PRESETS[name][0]}")
            return 0
        if args.command == "export-config":
            print(format_config(preset_config(args.preset, quick=args.quick)))
            return 0
        if args.workers < 1:
            raise ConfigError(f"must be >= 1, got {args.workers}", location="--workers")
        flags = {"seed": args.seed, "repetitions": args.repetitions}
        cfg = _load(args.target, args.quick,
                    **{key: value for key, value in flags.items() if value is not None})
        out_dir = os.path.join(args.out_dir, cfg["run"]["name"])
        # the run writes only after computing: check where it writes first
        existing = out_dir
        while existing and not os.path.exists(existing):
            existing = os.path.dirname(existing)
        if not os.path.isdir(existing or os.curdir):
            raise ConfigError(f"{existing!r} is not a directory", location="--out-dir")
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
