"""Optimal-control filter design.

Maximizes the normalized signal overlap
``xi = integral S F / ||F||_c`` over pulse modulations, using a
randomized-basis derivative-free loop: every superiteration draws a few
random trigonometric basis frequencies, runs a bounded Nelder-Mead search
over their coefficients, and keeps the candidate only if it improves the
best objective so far.  Out-of-band filter weight is discouraged by a
penalty on the normalized filter (see ``_Objective``).  A design owns one
read-only :class:`FilterFunction`, scored once, when its state was accepted.

The Nelder-Mead search (Nelder & Mead, Comput. J. 7, 308 (1965)) is written
here rather than taken from ``scipy.optimize``, whose import costs more than
most preset runs; with it, no preset run loads scipy.  It performs the same
float operations in the same order as scipy's ``minimize(...,
method="Nelder-Mead")`` for the one call made here, and
``tests/test_ocf.py::TestNelderMead`` pins the iterates to scipy's bit for
bit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .errors import (CalibrationError, GridRangeError, OutOfRangeError,
                     UndefinedObjectiveError, require_finite)
from .filterfn import (FilterFunction, FrequencyGrid, _pulse_filter, continuous_norm,
                       default_grid, filter_values)
from .modulation import (ContinuousModulation, ModulationSet, PulseSequence,
                         merge_trains, repair_trains, staircase_split)
from .seeding import derive_seed, make_rng
from .spectra import SpectralDensity


def ocf_grid(omega_c: float, spacing: float = 0.01,
             span_factor: float = 3.0) -> FrequencyGrid:
    """Default optimization grid: coarser and shorter than the protocol
    grid, big enough to see the penalized out-of-band region."""
    return default_grid(omega_c, span_factor, spacing)


@dataclass(frozen=True, eq=False)
class OcfProblem:
    """Specification of one filter-design problem."""

    spectrum: SpectralDensity
    duration: float
    n_qubits: int = 1
    omega_c: float = 10.0
    penalty_weight: float = 1.0
    superiterations: int = 10
    inner_evals: int = 60
    basis_size: int = 3
    seed: int = 0
    grid: FrequencyGrid | None = None

    def __post_init__(self):
        """Refuse each bad field with a :class:`NoiseSpecError` naming it."""
        require_finite(duration=self.duration, omega_c=self.omega_c,
                       penalty_weight=self.penalty_weight)
        for name in ("duration", "omega_c"):
            if getattr(self, name) <= 0:
                raise OutOfRangeError(f"{name} must be > 0, got {getattr(self, name)}")
        # a negative weight would reward out-of-band filter weight
        if self.penalty_weight < 0:
            raise OutOfRangeError(f"penalty_weight must be >= 0, got {self.penalty_weight}")
        for name, least in (("n_qubits", 1), ("superiterations", 0), ("inner_evals", 1),
                            ("basis_size", 1), ("seed", None)):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
                    or least is not None and value < least):
                rule = "an integer" if least is None else f"an integer >= {least}"
                raise OutOfRangeError(f"{name} must be {rule}, got {value!r}")
        if self.grid is None:
            object.__setattr__(self, "grid", ocf_grid(self.omega_c))
        # the rule of FrequencyGrid.trap_weights, which every search applies
        elif not self.omega_c <= self.grid.omega_max_grid + 1e-9 * self.grid.omega_max_grid:
            raise GridRangeError(f"grid ends at {self.grid.omega_max_grid}, below "
                                 f"omega_c = {self.omega_c}")


@dataclass(frozen=True, eq=False)
class OcfSolution:
    """Best modulation found, with its objective values, its search trace
    and ``filter``: the read-only :class:`FilterFunction` on the problem grid
    that the search scored when it accepted ``modulation``, its generator."""

    modulation: object
    normalized_fidelity: float
    evaluations: int
    trace: tuple
    filter: FilterFunction


class _Objective:
    """Penalized overlap objective evaluated from filter samples.

    The raw objective is ``xi = (integral S F) / ||F||_c``.  The penalty
    subtracts ``penalty_weight * s_rms * (integral_{w > omega_c} F) / ||F||_c``
    where ``s_rms = ||S||_c / sqrt(omega_c)``; normalizing by ``||F||_c``
    makes the penalty invariant under filter rescaling (otherwise it would
    dwarf or vanish against xi depending on qubit number and duration).
    A spectrum that vanishes on the band raises :class:`CalibrationError`.

    An evaluation makes two products with the samples f: the band norm
    ``w_band @ (f*f)``, and the numerator and out-of-band integral together
    as ``rows @ f`` against the rows ``(w_full * S, w_out)`` built here.
    """

    def __init__(self, spectrum, grid: FrequencyGrid, omega_c: float,
                 penalty_weight: float):
        self.penalty_weight = penalty_weight
        w_full = grid.trap_weights()
        self.w_band = grid.trap_weights(omega_c)
        self.rows = np.stack((w_full * spectrum.evaluate(grid.omegas), w_full - self.w_band))
        self.s_norm = continuous_norm(spectrum, omega_c, grid)
        if self.s_norm == 0.0:
            raise CalibrationError("spectrum vanishes on [0, omega_c]; nothing to match")
        self.s_rms = self.s_norm / math.sqrt(omega_c)
        self.evaluations = 0

    def from_values(self, f_vals: np.ndarray) -> tuple[float, float]:
        """Return (penalized objective, normalized xi ``xi / ||S||_c``)."""
        self.evaluations += 1
        norm = math.sqrt(float(self.w_band @ (f_vals * f_vals)))
        if norm <= 0.0:
            raise UndefinedObjectiveError("filter vanishes on the analysis band")
        xi, out = (self.rows @ f_vals).tolist()
        xi, out = xi / norm, out / norm
        return xi - self.penalty_weight * self.s_rms * out, xi / self.s_norm


def xi_normalized(modulation_or_filter, spectrum, omega_c: float,
                  grid: FrequencyGrid | None = None) -> float:
    """Raw overlap fidelity ``xi / ||S||_c`` (Cauchy-Schwarz bounded by 1
    whenever the spectrum has no weight beyond ``omega_c``).

    The numerator integrates the full grid.  A spectrum sampled on the grid
    meets the premise only if it is zero at every node ``>= omega_c``.
    The filter's grid is its own, or ``grid`` (``ocf_grid`` by default)
    for a modulation.
    """
    if isinstance(modulation_or_filter, FilterFunction):
        grid = modulation_or_filter.grid
        f_vals = modulation_or_filter.values
    else:
        if grid is None:
            grid = ocf_grid(omega_c)
        f_vals = filter_values(modulation_or_filter, grid)
    return _Objective(spectrum, grid, omega_c, 0.0).from_values(f_vals)[1]


class _BudgetSpent(Exception):
    """The evaluation budget ran out in the middle of a search step."""


def _by_value(sim: np.ndarray, fsim: np.ndarray):
    ind = np.argsort(fsim)
    return np.take(sim, ind, 0), np.take(fsim, ind, 0)


def _inner_search(fun, dim: int, step: float, max_evals: int) -> np.ndarray:
    """Best vertex of a Nelder-Mead search over ``dim`` coefficients from
    the simplex at zero with edges ``step``.

    Standard coefficients, no bounds.  Every float expression, the two
    sorts after the initial simplex and the one after each step follow
    scipy's ``_minimize_neldermead``, so ties (several ``inf`` values)
    break the same way.  An evaluation past ``max_evals`` ends the step
    where it stands, inside the initial simplex or a shrink included.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    xatol, fatol = 1e-10, 1e-12
    sim = np.zeros((dim + 1, dim))
    sim[1:, :] = step * np.eye(dim)
    fsim = np.full((dim + 1,), np.inf, dtype=float)
    evals = 0

    def f(x):
        nonlocal evals
        if evals >= max_evals:
            raise _BudgetSpent
        evals += 1
        return fun(np.copy(x))

    try:
        for k in range(dim + 1):
            fsim[k] = f(sim[k])
    except _BudgetSpent:
        pass
    sim, fsim = _by_value(*_by_value(sim, fsim))
    while evals < max_evals:
        try:
            if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol and
                    np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
                break
            xbar = np.add.reduce(sim[:-1], 0) / dim
            xr = (1 + rho) * xbar - rho * sim[-1]
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:
                    xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                    fxc = f(xc)
                    accept = fxc <= fxr
                else:
                    xc = (1 - psi) * xbar + psi * sim[-1]
                    fxc = f(xc)
                    accept = fxc < fsim[-1]
                if accept:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, dim + 1):
                        sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                        fsim[j] = f(sim[j])
        except _BudgetSpent:
            pass
        sim, fsim = _by_value(sim, fsim)
    return sim[0]


def _solve(problem: OcfProblem, initial, candidate_from, values_of=filter_values,
           finish=lambda state: state) -> OcfSolution:
    """Shared superiteration loop: draw a random basis, search coefficients,
    accept if improved.  ``candidate_from(state, s, freqs, x)`` builds a
    candidate state from the current state, the superiteration index and
    the coefficient vector; ``values_of(state, grid)`` gives a state's
    filter samples and ``finish(state)`` the modulation of the accepted
    state.  One ``score`` rates every state, and the accepted state keeps
    the samples and xi of its scoring, so no state is transformed twice."""
    objective = _Objective(problem.spectrum, problem.grid, problem.omega_c,
                           problem.penalty_weight)

    def score(state):
        """(penalized objective, normalized xi, samples) of ``state``; the
        objective is -inf where it is undefined."""
        vals = values_of(state, problem.grid)
        try:
            return (*objective.from_values(vals), vals)
        except UndefinedObjectiveError:
            return -math.inf, math.nan, vals

    state = initial
    best_obj, best_xi, best_vals = score(state)
    trace = [best_obj]
    dim = 2 * problem.basis_size

    for s in range(problem.superiterations):
        rng = make_rng(derive_seed(problem.seed, s))
        freqs = rng.uniform(0.0, 1.2 * problem.omega_c, problem.basis_size)
        x_best = _inner_search(lambda x: -score(candidate_from(state, s, freqs, x))[0],
                               dim, step=0.6, max_evals=problem.inner_evals)
        cand = candidate_from(state, s, freqs, x_best)
        cand_obj, cand_xi, cand_vals = score(cand)
        if cand_obj > best_obj:
            best_obj, best_xi, best_vals, state = cand_obj, cand_xi, cand_vals, cand
        trace.append(best_obj)

    modulation = finish(state)
    best_vals.setflags(write=False)
    filt = FilterFunction(grid=problem.grid, values=best_vals, generator=modulation,
                          operation_time=modulation.duration)
    return OcfSolution(modulation=modulation, normalized_fidelity=best_xi,
                       evaluations=objective.evaluations, trace=tuple(trace), filter=filt)


class _Trains:
    """Discrete-search states of the pulse trains of ``modulation``: every
    switch time and its qubit label as two flat arrays sorted by (qubit,
    time).  The initial signs and the duration stay those of
    ``modulation``.  A candidate is warped (one outer product of phases),
    repaired, merged into one step function and scored through the pulse
    filter kernel ``filterfn._pulse_filter``, with no object built."""

    def __init__(self, modulation: ModulationSet):
        self.duration = modulation.duration
        times, qubits, self.signs = modulation.trains()
        self.initial = (times, qubits)
        self.amp = self.duration / 12.0

    def warp(self, times, freqs, x):
        """``t + sum_j amp (a_j sin(nu_j t) + b_j (1 - cos(nu_j t)))`` with
        ``x = (a_0, b_0, a_1, ...)``: the rows ``[t, amp a_0 sin_0,
        amp b_0 (1 - cos_0), ...]`` from one outer product of the phases,
        summed in that order, so each time carries the same bits as the
        loop ``out = out + amp a_j sin_j + amp b_j (1 - cos_j)``."""
        phase = np.multiply.outer(np.asarray(freqs, dtype=float), times)
        ax = self.amp * np.asarray(x, dtype=float)
        rows = np.empty((2 * phase.shape[0] + 1, times.size))
        rows[0] = times
        np.multiply(ax[0::2, None], np.sin(phase), out=rows[1::2])
        np.multiply(ax[1::2, None], 1.0 - np.cos(phase), out=rows[2::2])
        return np.add.reduce(rows, axis=0)

    def candidate(self, state, target, freqs, x):
        """Warp the times of qubit ``target`` (every qubit if None), then
        repair every train."""
        times, qubits = state
        if target is None:
            warped = self.warp(times, freqs, x)
        else:
            lo, hi = np.searchsorted(qubits, (target, target + 1))
            warped = times.copy()
            warped[lo:hi] = self.warp(times[lo:hi], freqs, x)
        return repair_trains(warped, qubits, self.duration)

    def values(self, state, grid):
        """Filter samples of the summed trains on ``grid``."""
        bounds, values = merge_trains(*state, self.signs, self.duration)
        return _pulse_filter(bounds, values, grid)

    def modulation(self, state) -> ModulationSet:
        """The state as one PulseSequence per qubit."""
        times, qubits = state
        return ModulationSet(tuple(
            PulseSequence(times[qubits == q], self.duration, int(self.signs[q]))
            for q in range(self.signs.size)))


def optimize_discrete(problem: OcfProblem) -> OcfSolution:
    """Optimize per-qubit switch times of an N-qubit pulse-train probe.

    Starts from the staircase split at the spectrum's dominant peak; every
    superiteration perturbs switch times through a random time-warp
    ``t -> t + sum_j a_j sin(nu_j t) + b_j (1 - cos(nu_j t))`` whose
    coefficients are searched by Nelder-Mead.  Even superiterations warp all
    qubits together (gross reshaping); odd ones warp a single qubit in turn,
    which adjusts the staircase's relative structure.  Candidates with
    disordered or out-of-range switch times are repaired by sorting,
    clipping into (0, T) and cancelling coincident flips.

    Candidates are arrays: every switch time and its qubit label, sorted by
    (qubit, time), are warped, repaired, merged into one step function and
    transformed without building a modulation object.  Only the accepted
    state becomes a :class:`ModulationSet`, once per design.
    """
    T = problem.duration
    n_q = problem.n_qubits
    peak = problem.spectrum.peak_frequency(omega_max=problem.omega_c)
    initial = staircase_split(peak, n_q, T)
    # the warp moves switches but cannot create them: give every qubit one
    # movable spare at the right boundary (a flip at T - eps is a no-op
    # until the search pulls it inward)
    spare = T * (1.0 - 1e-9)
    trains = _Trains(ModulationSet(tuple(
        PulseSequence(np.append(seq.switch_times, spare)
                      if seq.n_switches == 0 or seq.switch_times[-1] < spare
                      else seq.switch_times, T, seq.initial_sign)
        for seq in initial.sequences)))

    def candidate_from(state, s, freqs, x):
        target = None if (n_q == 1 or s % 2 == 0) else (s // 2) % n_q
        return trains.candidate(state, target, freqs, x)

    return _solve(problem, trains.initial, candidate_from, trains.values,
                  trains.modulation)


def optimize_continuous(problem: OcfProblem) -> OcfSolution:
    """Optimize a continuous phase modulation ``phi(t)``.

    Starts from the linear phase at the spectrum's dominant peak (the
    continuous analogue of the staircase warm start) and accumulates one
    random trigonometric term pair per accepted superiteration.
    """
    T = problem.duration
    peak = problem.spectrum.peak_frequency(omega_max=problem.omega_c)
    initial = ContinuousModulation(duration=T, linear_rate=peak)

    def candidate_from(state: ContinuousModulation, s, freqs, x):
        del s
        new_terms = tuple((float(nu), float(x[2 * j]), float(x[2 * j + 1]))
                          for j, nu in enumerate(freqs))
        return replace(state, terms=state.terms + new_terms)

    return _solve(problem, initial, candidate_from)
