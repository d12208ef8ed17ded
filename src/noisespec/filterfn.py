"""Filter functions and frequency-domain inner products.

For pulse trains the transform ``Y(omega) = integral_0^T y(t) e^{i omega t} dt``
is evaluated in closed form from the segment boundaries, so no time
discretization exists anywhere.  The filter function is
``F = (4/pi) |Y|^2`` (pulse trains) or ``F = (4/pi)(|Y|^2 + |Z|^2)``
(continuous phase modulations).  All integrals over frequency use composite
trapezoid weights on a shared uniform grid, i.e. they integrate the linear
interpolant of the samples.

On a :class:`FrequencyGrid` (spacing d) both transforms factor every phase
over blocks of B = 64 nodes, ``e^{i (jB + m) d t} = e^{i jBd t} e^{i md t}``:
two exponentials per time point (``e^{i Bd t}`` and ``e^{i d t}``, taken
in one exponential call), their running products over the size/B blocks
and the B nodes of a block, and one matrix product, in place of size
exponentials.

Continuous transforms integrate in time on 16-point Gauss panels of at
most 15 radians each; F agreed with 4x the panels within 2.3e-14 of max F
over 300 random OCF phases (see :func:`transform_continuous`).  The rule is
mirror-symmetric about T/2, its nodes ``T/2 -+ tau`` built as exact pairs,
so ``|Y|^2 + |Z|^2`` is the sum of four squared real sums over ``tau > 0``
(``cos`` and ``sin`` of ``omega tau``): one real product, half the
multiply-adds of the complex one.  F agrees with the direct complex
``e^{i omega t}`` sum over the whole rule within 1e-13 of max F (at most
3.2e-14 measured over 180 random OCF phases at T = 1 to 25).  Nodes,
weights and the real block tables are cached by value for the last 16
(duration, panels, grid) plans, more than one continuous design builds
(9 for the fig10 preset at full budget).  The grid path agrees with the
direct form, which serves arbitrary frequencies, within 1e-12 of max F.

One rule, ``_filter_from``, gives the filter of every pulse train from its
phase sums ``S = sum_b C_b e^{i omega P_b}`` (``i omega Y = S``): ``F =
(S.real**2 + S.imag**2) * (4/pi) / omega**2``, the scale read on a grid
from a read-only table cached by grid value.  Below phase ``|omega| T <
1e-6``, where that quotient cancels catastrophically, Y comes from its
3-term moment series and ``F = (4/pi) |Y|**2``; on a grid those nodes are
a prefix, its length cached by grid value and duration.  A
``_TrainPlan`` of a grid and a duration holds the block count, the step
phases, the scale table and the prefix, and gives the sums and the rule
on that grid.  :func:`filter_values` feeds it the sums of one merged
step function (``_pulse_filter``); the discrete OCF search builds one plan
per search and feeds it unmerged sums, held for the trains it leaves
fixed.  ``Y`` itself is built only by the public
:func:`fourier_piecewise`, under the same small-phase rule.

Conventions:

* Band integrals (``trap_weights(omega_c)``, :func:`overlap_matrix`,
  :func:`continuous_norm`) run over ``[0, omega_c]``; a cut between nodes
  adds the partial final cell with an interpolated endpoint.
* :func:`signal_overlaps` integrates the full grid by default, and so does
  the numerator of the OCF objective: that is chi(T) as the probe sees it,
  out-of-band leakage included.  It samples the spectrum once per filter
  set on the shared grid; :func:`signal_overlap` is its one-filter case.
* A spectrum sampled on the grid has no weight beyond a node-aligned
  ``omega_c`` only if it is zero at every node ``>= omega_c``; a nonzero
  sample at ``omega_c`` reaches half a cell past it.
* A sum repeats bit for bit for a fixed order of terms, but splitting its
  terms into partial sums changes the result by a few ulps.

:meth:`FilterFunction.tail_integral` takes the sine integral from scipy
through :func:`~noisespec.errors.require_scipy`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
# loaded here so a run's first Gauss panel does not pay numpy's lazy import
import numpy.polynomial.legendre  # noqa: F401

from .errors import (GridMismatchError, GridRangeError, NonFiniteInputError, OutOfRangeError,
                     require_finite, require_scipy)
from .modulation import (ContinuousModulation, ModulationSet, PulseSequence,
                         to_step_function)
from .readonly import ReadOnlyArrays

# switch to the series expansion below this phase to avoid cancellation in
# (e^{i w t2} - e^{i w t1}) / (i w)
_SMALL_PHASE = 1e-6

_CHUNK = 1 << 22  # complex workspace cap per exp() block
_BLOCK = 64  # grid nodes per block of the factored kernel
#: most nodes a grid may have: one float sample array of 134 MB
MAX_GRID_NODES = 2 ** 24


@dataclass(frozen=True)
class FrequencyGrid(ReadOnlyArrays):
    """Uniform angular-frequency grid on ``[0, omega_max_grid]`` with
    ``2 <= size <= MAX_GRID_NODES`` samples; grids with equal fields are
    equal."""

    omega_max_grid: float
    size: int

    def __post_init__(self):
        require_finite(omega_max_grid=self.omega_max_grid)
        if self.omega_max_grid <= 0:
            raise GridRangeError(f"omega_max_grid must be > 0, got {self.omega_max_grid}")
        if self.size < 2:
            raise GridRangeError(f"size must be >= 2, got {self.size}")
        if self.size > MAX_GRID_NODES:
            raise GridRangeError(f"size {self.size} exceeds the {MAX_GRID_NODES} nodes a grid "
                                 "may have")

    @property
    def spacing(self) -> float:
        return self.omega_max_grid / (self.size - 1)

    @cached_property
    def omegas(self) -> np.ndarray:
        om = np.linspace(0.0, self.omega_max_grid, self.size)
        om.setflags(write=False)
        return om

    def trap_weights(self, omega_cut: float | None = None) -> np.ndarray:
        """Trapezoid quadrature weights over ``[0, min(omega_cut, max)]``.

        A cut between nodes contributes the partial final cell with a
        linearly interpolated endpoint; a cut outside the range (or NaN)
        raises :class:`GridRangeError`.
        """
        d = self.spacing
        if omega_cut is None:
            omega_cut = self.omega_max_grid
        if not 0 <= omega_cut <= self.omega_max_grid + 1e-9 * self.omega_max_grid:
            raise GridRangeError(
                f"cutoff {omega_cut} outside grid range [0, {self.omega_max_grid}]")
        w = np.zeros(self.size)
        pos = omega_cut / d
        idx = int(math.floor(pos + 1e-9))
        idx = min(idx, self.size - 1)
        if idx >= 1:
            w[:idx + 1] = d
            w[0] = w[idx] = 0.5 * d
        theta = pos - idx
        if theta > 1e-9 and idx + 1 < self.size:
            # partial cell [omega_idx, cut]
            h = theta * d
            w[idx] += 0.5 * h * (2.0 - theta)
            w[idx + 1] += 0.5 * h * theta
        return w


def default_grid(omega_max: float, span_factor: float = 5.0,
                 spacing: float = 0.005) -> FrequencyGrid:
    """Default grid: span ``span_factor * omega_max``, spacing <= ``spacing``."""
    require_finite(omega_max=omega_max, span_factor=span_factor, spacing=spacing)
    if not spacing > 0:
        raise GridRangeError(f"spacing must be > 0, got {spacing}")
    span = span_factor * omega_max
    if not math.isfinite(span / spacing):
        raise GridRangeError(f"span {span} at spacing {spacing} needs too many nodes")
    return FrequencyGrid(span, int(math.ceil(span / spacing)) + 1)


# ---------------------------------------------------------------------------
# exact transforms
# ---------------------------------------------------------------------------

def _boundary_coefficients(bounds, values):
    """Coefficients with ``i w Y(w) = sum_b coeffs_b e^{i w bounds_b}``."""
    coeffs = np.empty(bounds.size)
    coeffs[0] = -values[0]
    coeffs[-1] = values[-1]
    coeffs[1:-1] = values[:-1] - values[1:]
    return coeffs


def _step_phases(spacing: float) -> np.ndarray:
    """``1j * (B d, d)`` as a (2, 1) column: a point's step phases are this
    times the point."""
    return 1j * np.array([[_BLOCK * spacing], [spacing]])


def _block_factors(spacing: float, size: int, points: np.ndarray):
    """Factors of the grid phases ``e^{i (j B + m) d p}``: ``coarse[j] =
    e^{i j B d p}`` for every block and ``fine[m] = e^{i m d p}`` within one.

    Each table is the running product of one step exponential per point
    (``e^{i B d p}``, ``e^{i d p}``, both taken by one exponential call
    over the stacked step phases) from a row of ones, so a column depends
    only on its own point.  Row k carries k rounded products, so a
    grid phase's factors are off by about ``(blocks + 64) * 3u`` relative
    (u = 2^-53) at most, besides the rounding of the phase itself, which
    the direct ``e^{i omega p}`` shares.
    """
    return _factor_tables(_step_phases(spacing), -(-size // _BLOCK), points)


def _factor_tables(phases: np.ndarray, blocks: int, points: np.ndarray):
    """:func:`_block_factors` from the step phases and the block count."""
    coarse = np.empty((blocks, points.size), dtype=complex)
    fine = np.empty((_BLOCK, points.size), dtype=complex)
    steps = np.exp(phases * points)
    for table, step in ((coarse, steps[0]), (fine, steps[1])):
        table[0] = 1.0
        table[1:] = step
        table.cumprod(axis=0, out=table)
    return coarse, fine


def _grid_sums(weights, points, phases, blocks: int, size: int) -> np.ndarray:
    """``S_i = sum_b weights_b e^{i omega_i points_b}`` at the ``size``
    nodes of a grid from one row of weights: the coarse factors of block j,
    weighted, against the fine ones give nodes ``j B`` to ``j B + B - 1``."""
    coarse, fine = _factor_tables(phases, blocks, points)
    coarse *= weights
    return (coarse @ fine.T).reshape(-1)[:size]


def _phase_sums(weights: np.ndarray, points: np.ndarray, omega):
    """``S[0, i] = sum_b weights[0, b] e^{i omega_i points_b}`` of one row of
    weights, shape ``(1, n)``: on a grid one product of the block factors
    (:func:`_grid_sums`), else the direct exponentials, in chunks."""
    if isinstance(omega, FrequencyGrid):
        (row,) = weights
        return _grid_sums(row, points, _step_phases(omega.spacing),
                          -(-omega.size // _BLOCK), omega.size)[None]
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    out = np.empty((weights.shape[0], omega.size), dtype=complex)
    step = max(1, _CHUNK // points.size)
    for lo in range(0, omega.size, step):
        sl = slice(lo, lo + step)
        out[:, sl] = weights @ np.exp(1j * np.outer(points, omega[sl]))
    return out


def _nodes(omega):
    """``(frequencies as a 1-d array checked finite and >= 0, omega is a
    scalar)``; an empty array is returned empty."""
    if isinstance(omega, FrequencyGrid):
        return omega.omegas, False
    omega_arr = np.atleast_1d(np.asarray(omega, dtype=float))
    if not np.all(np.isfinite(omega_arr)):
        raise NonFiniteInputError("omega must be finite")
    if np.any(omega_arr < 0):
        raise GridRangeError("omega must be >= 0")
    return omega_arr, np.ndim(omega) == 0


_POWERS = np.array([[1.0], [2.0], [3.0]])
_FACTORIALS = np.array([1.0, 2.0, 6.0])


def _moments(bounds, values) -> np.ndarray:
    """``integral_0^T y t^k dt / k!`` for k = 0, 1, 2, in one product."""
    powers = bounds ** _POWERS
    return (powers[:, 1:] - powers[:, :-1]) @ values / _FACTORIALS


def _point_moments(points, weights) -> np.ndarray:
    """:func:`_moments` from phase-sum terms (weights summing to 0), linear in them."""
    return (points ** _POWERS) @ weights / _FACTORIALS


def _small_phase(omega, duration: float):
    """``(nodes, small, rest)``: the frequencies of a :class:`FrequencyGrid`
    or 1-d array and the selectors of the nodes below and above phase
    ``omega * duration = 1e-6``.  A grid's nodes ascend, so its small-phase
    nodes are a prefix and both selectors are slices; an array's are masks."""
    if isinstance(omega, FrequencyGrid):
        n = _small_prefix(omega, duration)
        return omega.omegas, slice(0, n), slice(n, None)
    small = omega * duration < _SMALL_PHASE
    return omega, small, ~small


@lru_cache(maxsize=32)
def _small_prefix(grid: FrequencyGrid, duration: float) -> int:
    """How many nodes of ``grid`` lie below phase ``omega * duration =
    1e-6``, cached by grid value and duration."""
    return int(np.searchsorted(grid.omegas * duration, _SMALL_PHASE))


def _filter_scale(omegas: np.ndarray) -> np.ndarray:
    """``(4/pi) / omega**2`` at every frequency, 0 where ``omega == 0`` (a
    small-phase node, whatever the duration)."""
    scale = np.zeros(omegas.size)
    np.divide(4.0 / np.pi, omegas ** 2, out=scale, where=omegas > 0)
    return scale


@lru_cache(maxsize=8)
def _grid_scale(grid: FrequencyGrid) -> np.ndarray:
    """:func:`_filter_scale` of the nodes of ``grid``: read-only, one float
    per node, cached by grid value."""
    scale = _filter_scale(grid.omegas)
    scale.setflags(write=False)
    return scale


def _series_filter(om, moments) -> np.ndarray:
    """``(4/pi) |Y|^2`` of the 3-term moment series at the small-phase
    frequencies ``om``, its real and imaginary parts apart."""
    m0, m1, m2 = moments
    return (4.0 / np.pi) * ((m0 - om ** 2 * m2) ** 2 + (om * m1) ** 2)


class _TrainPlan:
    """What the filter of every pulse train of one duration on one grid
    shares: the block count and the stacked step phases of the factored
    sums (:func:`_step_phases`), the scale table (:func:`_grid_scale`) and
    the small-phase prefix (:func:`_small_prefix`).  A search that scores
    many trains builds one and looks nothing up per candidate; every value
    keeps the bits of :func:`_phase_sums` and :func:`_filter_from`."""

    __slots__ = ("size", "blocks", "phases", "scale", "prefix")

    def __init__(self, grid: FrequencyGrid, duration: float):
        self.size = grid.size
        self.blocks = -(-grid.size // _BLOCK)
        self.phases = _step_phases(grid.spacing)
        self.scale = _grid_scale(grid)
        self.prefix = grid.omegas[:_small_prefix(grid, duration)]

    def sums(self, weights: np.ndarray, points: np.ndarray) -> np.ndarray:
        """``S_i = sum_b weights_b e^{i omega_i points_b}`` at every node,
        from one row of weights."""
        return _grid_sums(weights, points, self.phases, self.blocks, self.size)

    def filter(self, sums: np.ndarray, moments) -> np.ndarray:
        """``F`` at every node from the phase sums and moments.  A prefix
        that is the node ``omega = 0`` alone takes the series there in
        scalar math, ``(4/pi) m0**2``, the same bits."""
        out = sums.real ** 2
        out += sums.imag ** 2
        out *= self.scale
        if self.prefix.size == 1:
            m0 = float(moments[0])
            out[0] = (4.0 / np.pi) * (m0 * m0)
        elif self.prefix.size:
            out[:self.prefix.size] = _series_filter(self.prefix, moments)
        return out


def _filter_from(sums, moments, omega, duration: float) -> np.ndarray:
    """``F`` of a pulse train of length ``duration`` from its phase sums and
    moments, on a :class:`FrequencyGrid` (through its :class:`_TrainPlan`)
    or at a 1-d array of frequencies ``>= 0``; a node's value is the same
    from a grid or an array."""
    if isinstance(omega, FrequencyGrid):
        return _TrainPlan(omega, duration).filter(sums, moments)
    out = sums.real ** 2
    out += sums.imag ** 2
    out *= _filter_scale(omega)
    small = omega * duration < _SMALL_PHASE
    om = omega[small]
    if om.size:
        out[small] = _series_filter(om, moments)
    return out


def _pulse_filter(bounds, values, omega) -> np.ndarray:
    """``F(omega)`` of the step function ``(bounds, values)``."""
    sums = _phase_sums(_boundary_coefficients(bounds, values)[None, :], bounds, omega)[0]
    return _filter_from(sums, _moments(bounds, values), omega, bounds[-1])


def fourier_piecewise(seq_or_set, omega) -> np.ndarray:
    """Exact transform of a piecewise-constant modulation at ``omega >= 0``.

    ``omega`` is a :class:`FrequencyGrid`, an array or a scalar.  Uses the
    closed form ``sum_j v_j (e^{i w t_{j+1}} - e^{i w t_j}) / (i w)``, and
    the moment series at small phase (module docstring).  A
    :class:`ModulationSet` transforms to the sum of its per-qubit
    transforms.
    """
    omega_arr, scalar = _nodes(omega)
    bounds, values = to_step_function(seq_or_set)
    nodes = omega if isinstance(omega, FrequencyGrid) else omega_arr
    out = _phase_sums(_boundary_coefficients(bounds, values)[None, :], bounds, nodes)[0]
    nodes, small, large = _small_phase(nodes, bounds[-1])
    out[large] /= 1j * nodes[large]
    om = nodes[small]
    if om.size:
        m0, m1, m2 = _moments(bounds, values)
        out[small] = m0 + 1j * om * m1 - om ** 2 * m2
    return complex(out[0]) if scalar else out


def _gauss_panels(duration: float, n_panels: int):
    """``(tau, t, w)`` of the mirror rule: ``n_panels`` (even) 16-point
    Gauss panels on ``[0, duration]``, built as ``n_panels / 2`` panels on
    the upper half, offsets ``tau`` from the midpoint with weights ``w``,
    and reflected.  ``t`` holds every node, ``T/2 - tau`` then ``T/2 +
    tau``, so the pairs are exact."""
    nodes, weights = np.polynomial.legendre.leggauss(16)
    edges = np.linspace(0.0, 0.5 * duration, n_panels // 2 + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    tau = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    w = (half[:, None] * weights[None, :]).ravel()
    centre = 0.5 * duration
    return tau, np.concatenate((centre - tau, centre + tau)), w


def _panel_count(top_rate: float, duration: float) -> int:
    """Gauss panels of the mirror rule for oscillations up to ``top_rate``
    over ``duration``, by the rule of :func:`transform_continuous`; an even
    count gives the rule its two halves."""
    n_panels = math.ceil(top_rate * duration / 15.0) + 1
    return n_panels + n_panels % 2


@lru_cache(maxsize=16)
def _gauss_plan(duration: float, n_panels: int, spacing: float, size: int):
    """The mirror rule of one grid (keyed by value) and its real tables.

    ``cos`` and ``sin`` of ``(jB + m) d tau`` are ``Cr Fr - Ci Fi`` and
    ``Ci Fr + Cr Fi`` from the block factors ``C = Cr + i Ci`` (block j)
    and ``F = Fr + i Fi`` (node m of a block), so the plan holds, per
    block, the rows ``[[Cr, -Ci], [Ci, Cr]]`` (cos, sin) and, for all
    blocks, the ``(2 h, B)`` table ``[Fr; Fi]``."""
    tau, t, w = _gauss_panels(duration, n_panels)
    coarse, fine = _block_factors(spacing, size, tau)
    rows = np.empty((coarse.shape[0], 2, 2, tau.size))
    rows[:, 0, 0] = rows[:, 1, 1] = coarse.real
    rows[:, 1, 0] = coarse.imag
    np.negative(coarse.imag, out=rows[:, 0, 1])
    table = np.concatenate((fine.real.T, fine.imag.T))
    for arr in (tau, t, w, rows, table):
        arr.setflags(write=False)
    return tau, t, w, rows, table


def _mirror_sums(mod, omega):
    """``(parts, nodes, scalar)``: the four real sums of the mirror rule
    of the continuous modulation ``mod``, the frequencies (:func:`_nodes`)
    and whether ``omega`` is a scalar.

    With ``a = w cos(phi)`` and ``b = w sin(phi)`` at ``T/2 +- tau``,
    ``e^{-i omega T/2} Y = sum_tau (a+ + a-) cos(omega tau) + i (a+ - a-)
    sin(omega tau)``, and Z likewise from b.  ``parts`` has shape ``(N, 4,
    M)`` with rows ``(Re, Im)`` of Y then of Z; frequency k is column
    ``k`` of the flattened ``(N, M)``: a grid's blocks of B nodes, one
    real product of the plan's tables, or an array's nodes, ``M = 1``."""
    nodes, scalar = _nodes(omega)
    T = mod.duration
    n_panels = _panel_count(float(np.max(nodes, initial=0.0)) + mod.phase_rate_bound(), T)
    if isinstance(omega, FrequencyGrid):
        tau, t, w, rows, table = _gauss_plan(T, n_panels, omega.spacing, omega.size)
    else:
        tau, t, w = _gauss_panels(T, n_panels)
    phi = mod.phase(t)
    ends = np.empty((2, 2, tau.size))  # (cos, sin) at (T/2 - tau, T/2 + tau)
    np.cos(phi, out=ends[0].reshape(-1))
    np.sin(phi, out=ends[1].reshape(-1))
    sums = np.empty_like(ends)  # (a, b) even and odd parts
    np.add(ends[:, 1], ends[:, 0], out=sums[:, 0])
    np.subtract(ends[:, 1], ends[:, 0], out=sums[:, 1])
    sums *= w
    if isinstance(omega, FrequencyGrid):
        # (block, y|z, cos|sin) rows against [Fr; Fi] -> parts[j, :, m]
        lhs = (sums[None, :, :, None, :] * rows[:, None]).reshape(-1, table.shape[0])
        return (lhs @ table).reshape(rows.shape[0], 4, _BLOCK), nodes, scalar
    parts = np.empty((nodes.size, 2, 2))
    step = max(1, _CHUNK // tau.size)
    for lo in range(0, nodes.size, step):
        angles = np.outer(nodes[lo:lo + step], tau)
        parts[lo:lo + step, :, 0] = np.cos(angles) @ sums[:, 0].T
        parts[lo:lo + step, :, 1] = np.sin(angles) @ sums[:, 1].T
    return parts.reshape(-1, 4, 1), nodes, scalar


def transform_continuous(mod: ContinuousModulation, omega):
    """Transforms ``(Y, Z)`` of ``y = cos(phi)``, ``z = sin(phi)``.

    ``omega`` is a :class:`FrequencyGrid`, an array or a scalar.  Composite
    16-point Gauss-Legendre panels, each spanning at most 15 radians of the
    fastest oscillation ``top_rate = max(omega) + phase_rate_bound()``,
    plus one spare panel, their count rounded up to an even number, so
    that the evaluations of one search share few cached plans.
    Gauss-Legendre resolves an oscillation with about pi nodes per
    wavelength (Trefethen, SIAM Rev. 50, 67 (2008)): on ``ocf_grid`` the
    values agree with 4x the panels within 1e-13 of max F, at most 2.3e-14
    measured over 300 random OCF phases at T = 1 to 25, where panels of
    at most 18 radians reach 3.7e-13.

    The rule is mirror-symmetric about ``T/2`` (nodes ``T/2 -+ tau``), so
    the transform is ``e^{i omega T/2}`` times the real cos and sin sums
    of :func:`_mirror_sums`; the filter path squares those and never forms
    Y or Z.  Y, Z and F agree with the direct ``e^{i omega t}`` sums over
    the whole rule within 1e-13 of their largest values (at most 3.4e-14
    measured over 180 random OCF phases at T = 1 to 25).
    """
    parts, nodes, scalar = _mirror_sums(mod, omega)
    centre = np.exp(0.5j * mod.duration * nodes)
    Y, Z = ((parts[:, k] + 1j * parts[:, k + 1]).reshape(-1)[:nodes.size] * centre
            for k in (0, 2))
    return (complex(Y[0]), complex(Z[0])) if scalar else (Y, Z)


@dataclass(frozen=True, eq=False)
class FilterFunction(ReadOnlyArrays):
    """Filter function samples on a grid, plus the generating modulation.

    ``values`` holds ``F(omega) >= 0`` at the grid points, read-only from
    :func:`filter_function` and an OCF design, and after pickle
    (:class:`ReadOnlyArrays`); ``evaluate`` recomputes F exactly at
    arbitrary frequencies from the generator.
    """

    grid: FrequencyGrid
    values: np.ndarray
    generator: object
    operation_time: float

    def evaluate(self, omega) -> np.ndarray:
        return filter_values(self.generator, omega)

    def energy_time_domain(self) -> float:
        """``4 * integral_0^T y(t)^2 dt`` (equals ``integral_0^inf F`` exactly)."""
        if isinstance(self.generator, ContinuousModulation):
            return 4.0 * self.operation_time  # y^2 + z^2 = 1
        bounds, values = to_step_function(self.generator)
        return 4.0 * float(np.sum(values ** 2 * np.diff(bounds)))

    def tail_integral(self, omega_from: float) -> float:
        """Exact ``integral_{omega_from}^inf F`` for pulse-train generators.

        Expands ``|sum_b C_b e^{i w P_b}|^2 / w^2`` and integrates every term
        in closed form via the sine integral.
        """
        if isinstance(self.generator, ContinuousModulation):
            raise OutOfRangeError("analytic tail requires a pulse-train generator")
        require_finite(omega_from=omega_from)
        if omega_from <= 0:
            raise GridRangeError("omega_from must be > 0")
        bounds, values = to_step_function(self.generator)
        points, coeffs = bounds, _boundary_coefficients(bounds, values)
        total = float(np.sum(coeffs ** 2)) / omega_from
        ii, jj = np.triu_indices(points.size, k=1)
        d = points[jj] - points[ii]
        cc = coeffs[ii] * coeffs[jj]
        si = require_scipy("special", "sici")(omega_from * d)[0]
        cross = cc * (np.cos(omega_from * d) / omega_from - d * (0.5 * np.pi - si))
        total += 2.0 * float(np.sum(cross))
        return (4.0 / np.pi) * total


def filter_values(generator, omega) -> np.ndarray:
    """``F(omega)`` of any modulation on a :class:`FrequencyGrid` or at
    frequencies ``omega``."""
    if isinstance(generator, ContinuousModulation):
        return _continuous_filter(generator, omega)
    if isinstance(generator, (PulseSequence, ModulationSet)):
        omega_arr, scalar = _nodes(omega)
        out = _pulse_filter(*to_step_function(generator),
                            omega if isinstance(omega, FrequencyGrid) else omega_arr)
        return out[0] if scalar else out
    raise TypeError(f"unsupported generator type {type(generator)!r}")


def _continuous_filter(mod, omega) -> np.ndarray:
    """``F(omega)`` of anything with the ``duration``, ``phase_rate_bound()``
    and ``phase(t)`` that :func:`_mirror_sums` reads: ``(4/pi)`` times the
    sum of its four squared real sums."""
    parts, nodes, scalar = _mirror_sums(mod, omega)
    parts *= parts
    out = parts.sum(axis=1).reshape(-1)[:nodes.size]
    out *= 4.0 / np.pi
    return out[0] if scalar else out


def filter_function(generator, grid: FrequencyGrid) -> FilterFunction:
    """Evaluate the filter function of any modulation on ``grid``."""
    values = filter_values(generator, grid)
    values.setflags(write=False)
    return FilterFunction(grid=grid, values=values, generator=generator,
                          operation_time=generator.duration)


# ---------------------------------------------------------------------------
# inner products
# ---------------------------------------------------------------------------

def _common_grid(filters) -> FrequencyGrid:
    grid = filters[0].grid
    for f in filters[1:]:
        if f.grid != grid:
            raise GridMismatchError("filters do not share a frequency grid")
    return grid


def overlap_matrix(filters, omega_c: float) -> np.ndarray:
    """Symmetric PSD matrix ``A_kl = integral_0^{omega_c} F_k F_l domega``."""
    grid = _common_grid(list(filters))
    w = grid.trap_weights(omega_c)
    stacked = np.vstack([f.values for f in filters])
    B = stacked * np.sqrt(w)[None, :]
    return B @ B.T


def signal_overlaps(spectrum, filters,
                    omega_int_max: float | None = None) -> np.ndarray:
    """Overlap coefficients ``c_k = integral_0^{omega_int_max} S(w) F_k(w) dw``
    of every filter, in order; empty for no filters.

    These are the noiseless decoherence values chi(T).  The integral
    truncates at ``omega_int_max`` (grid maximum by default); the neglected
    tail is bounded by ``F.tail_integral(cut) * max_{w>cut} S``.  The
    spectrum is sampled once on the filters' shared grid
    (:class:`GridMismatchError` otherwise), and each filter is summed on
    its own as ``sum((w * S) * F_k)``.
    """
    filters = list(filters)
    if not filters:
        return np.empty(0)
    grid = _common_grid(filters)
    w = grid.trap_weights(omega_int_max)
    active = w > 0
    svals = np.zeros(grid.size)
    svals[active] = spectrum.evaluate(grid.omegas[active])
    ws = w * svals
    return np.fromiter((np.sum(ws * f.values) for f in filters), dtype=float,
                       count=len(filters))


def signal_overlap(spectrum, filt: FilterFunction,
                   omega_int_max: float | None = None) -> float:
    """:func:`signal_overlaps` of the one filter ``filt``."""
    return float(signal_overlaps(spectrum, [filt], omega_int_max)[0])


def continuous_norm(obj, omega_c: float, grid: FrequencyGrid | None = None) -> float:
    """L2 norm ``(integral_0^{omega_c} |f|^2 domega)**0.5``.

    ``obj`` may be a :class:`FilterFunction` (its grid is used), a plain
    array of samples on ``grid``, or a spectral density evaluated on
    ``grid``.
    """
    if isinstance(obj, FilterFunction):
        obj, grid = obj.values, obj.grid
    spectral = hasattr(obj, "evaluate")
    if grid is None:
        raise OutOfRangeError("a grid is required to evaluate a spectral density" if spectral
                              else "a grid is required for raw sample arrays")
    w = grid.trap_weights(omega_c)
    values = np.zeros(grid.size) if spectral else np.asarray(obj, dtype=float)
    if spectral:  # sampled where it has weight, zero elsewhere
        values[w > 0] = obj.evaluate(grid.omegas[w > 0])
    return float(math.sqrt(np.sum(w * values ** 2)))
