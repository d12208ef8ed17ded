"""Optimal-control filter design.

Maximizes the normalized signal overlap
``xi = integral S F / ||F||_c`` over pulse modulations, using a
randomized-basis derivative-free loop: every superiteration draws a few
random trigonometric basis frequencies, runs a bounded Nelder-Mead search
over their coefficients, and keeps the candidate only if it improves the
best objective so far.  Out-of-band filter weight is discouraged by a
penalty on the normalized filter (see ``_Objective``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize

from .errors import UndefinedObjectiveError
from .filterfn import FilterFunction, FrequencyGrid, filter_function, filter_values
from .modulation import (ContinuousModulation, ModulationSet, PulseSequence,
                         repair_switch_times, staircase_split)
from .seeding import derive_seed, make_rng
from .spectra import SpectralDensity


def ocf_grid(omega_c: float, spacing: float = 0.01,
             span_factor: float = 3.0) -> FrequencyGrid:
    """Default optimization grid: coarser and shorter than the protocol
    grid, big enough to see the penalized out-of-band region."""
    span = span_factor * omega_c
    return FrequencyGrid(span, int(math.ceil(span / spacing)) + 1)


@dataclass(frozen=True, eq=False)
class OcfProblem:
    """Specification of one filter-design problem."""

    spectrum: SpectralDensity
    duration: float
    n_qubits: int = 1
    continuous: bool = False
    omega_c: float = 10.0
    penalty_weight: float = 1.0
    superiterations: int = 10
    inner_evals: int = 60
    basis_size: int = 3
    seed: int = 0
    grid: FrequencyGrid | None = None

    def __post_init__(self):
        if self.duration <= 0:
            raise ValueError("duration must be > 0")
        if not self.continuous and self.n_qubits < 1:
            raise ValueError("n_qubits must be >= 1")
        if self.superiterations < 0 or self.inner_evals < 1 or self.basis_size < 1:
            raise ValueError("optimizer budget must be positive")
        if self.grid is None:
            object.__setattr__(self, "grid", ocf_grid(self.omega_c))


@dataclass(eq=False)
class OcfSolution:
    """Best modulation found, with its objective values and search trace."""

    modulation: object
    xi: float
    normalized_fidelity: float
    evaluations: int
    trace: tuple
    filter_values: np.ndarray
    grid: FrequencyGrid
    seed: int


class _Objective:
    """Penalized overlap objective evaluated from filter samples.

    The raw objective is ``xi = (integral S F) / ||F||_c``.  The penalty
    subtracts ``penalty_weight * s_rms * (integral_{w > omega_c} F) / ||F||_c``
    where ``s_rms = ||S||_c / sqrt(omega_c)``; normalizing by ``||F||_c``
    makes the penalty invariant under filter rescaling (otherwise it would
    dwarf or vanish against xi depending on qubit number and duration).
    """

    def __init__(self, spectrum, grid: FrequencyGrid, omega_c: float,
                 penalty_weight: float):
        self.grid = grid
        self.omega_c = omega_c
        self.penalty_weight = penalty_weight
        self.w_full = grid.trap_weights()
        self.w_band = grid.trap_weights(omega_c)
        self.w_out = self.w_full - self.w_band
        self.s_vals = spectrum.evaluate(grid.omegas)
        self.s_norm = float(math.sqrt(np.sum(self.w_band * self.s_vals ** 2)))
        self.s_rms = self.s_norm / math.sqrt(omega_c)
        self.evaluations = 0

    def from_values(self, f_vals: np.ndarray) -> tuple[float, float]:
        """Return (penalized objective, raw xi)."""
        self.evaluations += 1
        norm = math.sqrt(float(np.sum(self.w_band * f_vals ** 2)))
        if norm <= 0.0:
            raise UndefinedObjectiveError("filter vanishes on the analysis band")
        xi = float(np.sum(self.w_full * self.s_vals * f_vals)) / norm
        if self.penalty_weight == 0.0:
            return xi, xi
        out = float(np.sum(self.w_out * f_vals)) / norm
        return xi - self.penalty_weight * self.s_rms * out, xi


def _xi(modulation_or_filter, spectrum, omega_c: float, penalty_weight: float,
        grid: FrequencyGrid | None):
    """The objective on the filter's grid (``grid`` or ``ocf_grid`` for a
    modulation) and its (penalized objective, raw xi)."""
    if isinstance(modulation_or_filter, FilterFunction):
        grid = modulation_or_filter.grid
        f_vals = modulation_or_filter.values
    else:
        if grid is None:
            grid = ocf_grid(omega_c)
        f_vals = filter_values(modulation_or_filter, grid)
    obj = _Objective(spectrum, grid, omega_c, penalty_weight)
    return obj, obj.from_values(f_vals)


def xi_objective(modulation_or_filter, spectrum, omega_c: float,
                 penalty_weight: float = 0.0,
                 grid: FrequencyGrid | None = None) -> float:
    """Penalized overlap objective for a modulation or a prebuilt filter."""
    return _xi(modulation_or_filter, spectrum, omega_c, penalty_weight, grid)[1][0]


def xi_normalized(modulation_or_filter, spectrum, omega_c: float,
                  grid: FrequencyGrid | None = None) -> float:
    """Raw overlap fidelity ``xi / ||S||_c`` (Cauchy-Schwarz bounded by 1
    whenever the spectrum has no weight beyond ``omega_c``).

    The numerator integrates the full grid.  A spectrum sampled on the grid
    meets the premise only if it is zero at every node ``>= omega_c``.
    """
    obj, (_, xi) = _xi(modulation_or_filter, spectrum, omega_c, 0.0, grid)
    return xi / obj.s_norm


def _simplex(dim: int, step: float) -> np.ndarray:
    simplex = np.zeros((dim + 1, dim))
    simplex[1:, :] = step * np.eye(dim)
    return simplex


def _inner_search(fun, dim: int, step: float, max_evals: int) -> np.ndarray:
    res = minimize(fun, np.zeros(dim), method="Nelder-Mead",
                   options={"maxfev": max_evals, "initial_simplex": _simplex(dim, step),
                            "xatol": 1e-10, "fatol": 1e-12})
    return res.x


def _solve(problem: OcfProblem, initial, candidate_from) -> OcfSolution:
    """Shared superiteration loop: draw a random basis, search coefficients,
    accept if improved.  ``candidate_from(state, s, freqs, x)`` builds a
    modulation from the current state, the superiteration index and the
    coefficient vector."""
    objective = _Objective(problem.spectrum, problem.grid, problem.omega_c,
                           problem.penalty_weight)
    state = initial
    best_vals = filter_values(state, problem.grid)
    best_obj, _ = objective.from_values(best_vals)
    trace = [best_obj]
    dim = 2 * problem.basis_size

    for s in range(problem.superiterations):
        rng = make_rng(derive_seed(problem.seed, s))
        freqs = rng.uniform(0.0, 1.2 * problem.omega_c, problem.basis_size)

        def neg_obj(x, _s=s, _freqs=freqs, _state=state):
            try:
                cand = candidate_from(_state, _s, _freqs, x)
                val, _ = objective.from_values(filter_values(cand, problem.grid))
            except UndefinedObjectiveError:
                return math.inf
            return -val

        x_best = _inner_search(neg_obj, dim, step=0.6, max_evals=problem.inner_evals)
        cand = candidate_from(state, s, freqs, x_best)
        try:
            cand_obj, _ = objective.from_values(filter_values(cand, problem.grid))
        except UndefinedObjectiveError:
            cand_obj = -math.inf
        if cand_obj > best_obj:
            best_obj = cand_obj
            state = cand
        trace.append(best_obj)

    best_vals = filter_values(state, problem.grid)
    _, xi = objective.from_values(best_vals)
    return OcfSolution(modulation=state, xi=xi,
                       normalized_fidelity=xi / objective.s_norm,
                       evaluations=objective.evaluations, trace=tuple(trace),
                       filter_values=best_vals, grid=problem.grid,
                       seed=problem.seed)


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
    """
    if problem.continuous:
        raise ValueError("problem is flagged continuous; use optimize_continuous")
    T = problem.duration
    n_q = problem.n_qubits
    peak = problem.spectrum.peak_frequency(omega_max=problem.omega_c)
    initial = staircase_split(peak, n_q, T)
    # the warp moves switches but cannot create them: give every qubit one
    # movable spare at the right boundary (a flip at T - eps is a no-op
    # until the search pulls it inward)
    spare = T * (1.0 - 1e-9)
    initial = ModulationSet(tuple(
        PulseSequence(np.append(seq.switch_times, spare)
                      if seq.n_switches == 0 or seq.switch_times[-1] < spare
                      else seq.switch_times, T, seq.initial_sign)
        for seq in initial.sequences))
    amp = T / 12.0

    def warp(times, freqs, x):
        out = times.copy()
        for j, nu in enumerate(freqs):
            out = out + amp * x[2 * j] * np.sin(nu * times) \
                      + amp * x[2 * j + 1] * (1.0 - np.cos(nu * times))
        return out

    def candidate_from(state: ModulationSet, s, freqs, x):
        target = None if (n_q == 1 or s % 2 == 0) else (s // 2) % n_q
        seqs = []
        for q, seq in enumerate(state.sequences):
            if target is None or q == target:
                times = repair_switch_times(warp(seq.switch_times, freqs, x), T)
                seqs.append(PulseSequence(times, T, seq.initial_sign))
            else:
                seqs.append(seq)
        return ModulationSet(tuple(seqs))

    return _solve(problem, initial, candidate_from)


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


def solution_filter(solution: OcfSolution) -> FilterFunction:
    """Package the solution's modulation as a FilterFunction on its grid."""
    return filter_function(solution.modulation, solution.grid)
