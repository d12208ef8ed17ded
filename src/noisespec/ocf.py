"""Optimal-control filter design.

Maximizes the normalized signal overlap
``xi = integral S F / ||F||_c`` over pulse modulations, using a
randomized-basis derivative-free loop: every superiteration draws a few
random trigonometric basis frequencies, runs a bounded Nelder-Mead search
over their coefficients, and keeps the candidate only if it improves the
best objective so far.  Out-of-band filter weight is discouraged by a
penalty on the normalized filter (see ``_Objective``).  Every state is a
modulation.  Each search ranks its candidates by a scorer built from what
it holds fixed (``_discrete_search``, ``_continuous_search``); acceptance
scores the best candidate by :func:`filter_values`.  The discrete scorer
reads its grid constants (block count, step phases, scale table and
small-phase prefix) from one ``filterfn._TrainPlan`` of the grid and the
duration, built per search; the continuous scorer reads its Gauss nodes
and tables from ``filterfn``'s plan cache.  A design owns one read-only
:class:`FilterFunction`, that scoring of its accepted state.

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
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from .errors import (CalibrationError, GridRangeError, OutOfRangeError,
                     UndefinedObjectiveError, require_finite, require_integer)
from .filterfn import (FilterFunction, FrequencyGrid, _continuous_filter, _point_moments,
                       _TrainPlan, continuous_norm, default_grid, filter_values)
from .modulation import (ContinuousModulation, ModulationSet, PulseSequence, repair_trains,
                         staircase_split)
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
            require_integer(name, getattr(self, name), least)
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
    ind = fsim.argsort()
    return sim.take(ind, 0), fsim.take(ind, 0)


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
        return fun(x.copy())

    try:
        for k in range(dim + 1):
            fsim[k] = f(sim[k])
    except _BudgetSpent:
        pass
    sim, fsim = _by_value(*_by_value(sim, fsim))
    while evals < max_evals:
        try:
            if (np.abs(sim[1:] - sim[0]).max() <= xatol and
                    np.abs(fsim[0] - fsim[1:]).max() <= fatol):
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


def _solve(problem: OcfProblem, initial, search) -> OcfSolution:
    """Shared superiteration loop: draw a random basis, search coefficients,
    accept if improved.  ``search(state, s, freqs)`` gives one inner
    search's ``(values(x), candidate(x))``: the candidate's filter samples on
    the problem grid, and the candidate modulation.  The initial state and
    each superiteration's best candidate are scored by :func:`filter_values`."""
    objective = _Objective(problem.spectrum, problem.grid, problem.omega_c,
                           problem.penalty_weight)

    def rate(vals):
        """(penalized objective, normalized xi, samples) of ``vals``; the
        objective is -inf where it is undefined."""
        try:
            return (*objective.from_values(vals), vals)
        except UndefinedObjectiveError:
            return -math.inf, math.nan, vals

    state = initial
    best_obj, best_xi, best_vals = rate(filter_values(state, problem.grid))
    trace = [best_obj]
    dim = 2 * problem.basis_size

    for s in range(problem.superiterations):
        rng = make_rng(derive_seed(problem.seed, s))
        freqs = rng.uniform(0.0, 1.2 * problem.omega_c, problem.basis_size)
        values, candidate = search(state, s, freqs)
        x_best = _inner_search(lambda x: -rate(values(x))[0],
                               dim, step=0.6, max_evals=problem.inner_evals)
        cand = candidate(x_best)
        cand_obj, cand_xi, cand_vals = rate(filter_values(cand, problem.grid))
        if cand_obj > best_obj:
            best_obj, best_xi, best_vals, state = cand_obj, cand_xi, cand_vals, cand
        trace.append(best_obj)

    best_vals.setflags(write=False)
    filt = FilterFunction(grid=problem.grid, values=best_vals, generator=state,
                          operation_time=state.duration)
    return OcfSolution(modulation=state, normalized_fidelity=best_xi,
                       evaluations=objective.evaluations, trace=tuple(trace), filter=filt)


def _warper(times, freqs, amp: float):
    """The warp ``x -> t + sum_j amp (a_j sin_j + b_j (1 - cos_j))`` of
    ``times``, ``x = (a_0, b_0, a_1, ...)``, from ``sin_j`` and ``1 - cos_j``
    of ``nu_j t`` built once: it sums the rows ``[t, amp a_0 sin_0, amp b_0
    (1 - cos_0), ...]`` in order, so each time carries the bits of the loop
    ``out = out + amp a_j sin_j + amp b_j (1 - cos_j)``."""
    phase = np.multiply.outer(np.asarray(freqs, dtype=float), times)
    rows = np.empty((2 * phase.shape[0] + 1, times.size))
    rows[0] = times
    basis = np.empty_like(rows[1:])
    basis[0::2], basis[1::2] = np.sin(phase), 1.0 - np.cos(phase)

    def warp(x):
        np.multiply(amp * np.asarray(x, dtype=float)[:, None], basis, out=rows[1:])
        return np.add.reduce(rows, axis=0)
    return warp


def _discrete_search(state: ModulationSet, target, freqs, grid):
    """``(values(x), candidate(x))`` of a search that warps the switches of
    qubit ``target`` of ``state`` (every qubit if None) by :func:`_warper`
    at ``amp = T / 12``; ``candidate`` repairs the trains and wraps them in
    one :class:`ModulationSet`.  ``values`` builds none: phase sums and
    moments are linear in the trains, so the search holds those of t = 0
    and of the unmoved switches, repaired as ``candidate`` repairs them,
    and ``values`` adds those of the moved trains and of T (final level),
    all through one :class:`~noisespec.filterfn._TrainPlan` of the grid
    and T."""
    times, qubits, signs = state.trains()
    T = state.duration
    lo, hi = ((0, times.size) if target is None
              else np.searchsorted(qubits, (target, target + 1)))
    warp = _warper(times[lo:hi], freqs, T / 12.0)
    moved = qubits[lo:hi]
    plan = _TrainPlan(grid, T)

    def coefficients(q):
        """Phase-sum weight of each switch: minus its step, ``-2 sign (-1)**rank``."""
        rank = np.arange(q.size) - np.searchsorted(q, q)
        return np.where(rank % 2 == 1, -2.0, 2.0) * signs[q]

    held_t, held_q = repair_trains(np.delete(times, np.s_[lo:hi]),
                                   np.delete(qubits, np.s_[lo:hi]), T)
    held_c = coefficients(held_q)
    points = np.append(0.0, held_t)
    weights = np.append(-float(np.sum(signs)), held_c)
    held_sums = plan.sums(weights, points)
    held_moments = _point_moments(points, weights)
    end = float(np.sum(signs)) - float(np.sum(held_c))

    def weights_of(q):
        """The weights of the moved switches with labels ``q``, then of T."""
        c = coefficients(q)
        w = np.empty(q.size + 1)
        w[:-1], w[-1] = c, end - c.sum()
        return w

    # a repair that cancels no pair keeps every label, sorted as ``moved``
    # is, so the weights stay these until a pair cancels
    uncancelled = weights_of(moved)
    t_end = np.array([T])

    def candidate(x):
        warped = times.copy()
        warped[lo:hi] = warp(x)
        t, q = repair_trains(warped, qubits, T)
        return ModulationSet(tuple(PulseSequence(t[q == k], T, int(signs[k]))
                                   for k in range(signs.size)))

    def values(x):
        t, q = repair_trains(warp(x), moved, T)
        w = uncancelled if q.size == moved.size else weights_of(q)
        points = np.concatenate((t, t_end))
        sums = plan.sums(w, points)
        sums += held_sums
        return plan.filter(sums, held_moments + _point_moments(points, w))
    return values, candidate


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

    :func:`_discrete_search` scores candidates from arrays, without
    building a modulation object; only each superiteration's best
    candidate becomes a :class:`ModulationSet`.
    """
    T = problem.duration
    n_q = problem.n_qubits
    peak = problem.spectrum.peak_frequency(omega_max=problem.omega_c)
    # the warp moves switches but cannot create them: give every qubit one
    # movable spare at the right boundary (a flip at T - eps is a no-op
    # until the search pulls it inward)
    spare = T * (1.0 - 1e-9)
    initial = ModulationSet(tuple(
        PulseSequence(np.append(seq.switch_times, spare)
                      if seq.n_switches == 0 or seq.switch_times[-1] < spare
                      else seq.switch_times, T, seq.initial_sign)
        for seq in staircase_split(peak, n_q, T).sequences))

    def search(state, s, freqs):
        target = None if (n_q == 1 or s % 2 == 0) else (s // 2) % n_q
        return _discrete_search(state, target, freqs, problem.grid)

    return _solve(problem, initial, search)


def _continuous_search(state: ContinuousModulation, freqs, grid):
    """``(values(x), candidate(x))`` of a continuous search whose candidate
    appends the terms ``(nu_j, x_2j, x_2j+1)`` to ``state``.  ``values``
    builds no modulation: it sums the candidate's phase-rate bound and its
    phase at the Gauss nodes in :class:`ContinuousModulation`'s order from
    parts held per search, so the panel count and F keep their bits."""
    nus = [float(nu) for nu in freqs]
    held_rate = sum(abs(nu) * (abs(a) + abs(b)) for nu, a, b in state.terms)
    plans = {}  # node count -> (state's phase, cos rows, sin rows) at the nodes

    def new_terms(x):
        return tuple((nu, float(x[2 * j]), float(x[2 * j + 1])) for j, nu in enumerate(nus))

    def candidate(x):
        return replace(state, terms=state.terms + new_terms(x))

    def values(x):
        terms = new_terms(x)
        rate = held_rate
        for nu, a, b in terms:
            require_finite(nu=nu, a=a, b=b)
            rate = rate + abs(nu) * (abs(a) + abs(b))
        bound = abs(state.linear_rate) + rate

        def phase(t):
            if t.size not in plans:  # one grid and duration: the count fixes the nodes
                angles = np.multiply.outer(nus, t)
                plans[t.size] = state.phase(t), np.cos(angles), np.sin(angles)
            phi, cos, sin = plans[t.size]
            for j, (_, a, b) in enumerate(terms):
                phi = phi + a * cos[j] + b * sin[j]
            return phi
        return _continuous_filter(SimpleNamespace(
            duration=state.duration, phase_rate_bound=lambda: bound, phase=phase), grid)
    return values, candidate


def optimize_continuous(problem: OcfProblem) -> OcfSolution:
    """Optimize a continuous phase modulation ``phi(t)``.

    Starts from the linear phase at the spectrum's dominant peak (the
    continuous analogue of the staircase warm start) and accumulates one
    random trigonometric term pair per accepted superiteration.
    """
    T = problem.duration
    peak = problem.spectrum.peak_frequency(omega_max=problem.omega_c)
    initial = ContinuousModulation(duration=T, linear_rate=peak)
    return _solve(problem, initial,
                  lambda state, s, freqs: _continuous_search(state, freqs, problem.grid))
