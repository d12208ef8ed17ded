"""Time-resolved estimation of a slowly oscillating composite spectrum.

The signal is ``S(w, t) = s1(t) S1(w) + s2(t) S2(w)`` with known components.
One sampler serves both trackers.  A sample applies a set of filters back
to back, each reading the coefficients frozen at its own midpoint
(quasi-static model, instantaneous readout between filters), and maps the
readouts to ``(s1, s2)`` at the sample midpoint.  Each tracker takes its
filters: an orthogonalization block (one sample per K filters) or a pair of
component-matched filters (one sample per two, five times faster at K = 10).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateBasisError, DegenerateComponentsError, GridRangeError,
                     OutOfRangeError)
from .filterfn import overlap_matrix, signal_overlaps
from .probe import NoiseModel, measure_batch
from .reconstruct import DEFAULT_TAU, _checked_condition, _resolve_rule, _retained_solve
from .seeding import derive_seed_array
from .spectra import CompositeSignal


@dataclass(eq=False)
class TrackingRun:
    """Recovered coefficient series with ground truth at the sample times."""

    method: str
    sample_times: np.ndarray
    s1_estimate: np.ndarray
    s2_estimate: np.ndarray
    s1_true: np.ndarray
    s2_true: np.ndarray
    block_duration: float
    omega_osc: float

    @property
    def n_samples(self) -> int:
        return int(self.sample_times.size)

    def rms_error(self) -> float:
        """RMS deviation of the tracked s2 curve from the true coefficient.

        The sample series is linearly interpolated (edge-held) onto 2001
        times spanning the measured horizon and compared with the true
        ``s2 = 1 - sin^2(omega_osc t)`` there; sampling too slowly for the
        signal therefore shows up as a large error even where individual
        samples alias onto plausible values.
        """
        good = np.isfinite(self.s2_estimate)
        if not np.any(good):
            return math.inf
        t_end = self.sample_times[-1] + 0.5 * self.block_duration
        grid = np.linspace(0.0, t_end, 2001)
        curve = np.interp(grid, self.sample_times[good], self.s2_estimate[good])
        truth = 1.0 - np.sin(self.omega_osc * grid) ** 2
        return float(np.sqrt(np.mean((curve - truth) ** 2)))

    def sum_drift(self) -> float:
        """Mean |s1 + s2 - 1| of the estimates (diagnostic, not enforced)."""
        s = self.s1_estimate + self.s2_estimate
        return float(np.mean(np.abs(s[np.isfinite(s)] - 1.0)))


def _component_overlaps(signal: CompositeSignal, filters) -> tuple[np.ndarray, float]:
    """``G_ij = integral S_j F_i`` of each filter with each component, and
    the filters' common operation time."""
    times = {f.operation_time for f in filters}
    if len(times) != 1:
        raise GridRangeError(f"filters must share one operation time, got {sorted(times)}")
    comps = (signal.component_one, signal.component_two)
    return np.column_stack([signal_overlaps(s, filters) for s in comps]), times.pop()


def _track(method: str, signal: CompositeSignal, G: np.ndarray, T: float,
           horizon: float, noise: NoiseModel, estimate) -> TrackingRun:
    """Sample the signal with the filters whose component overlaps are the
    rows of ``G``, applied back to back (``T_c = len(G) * T``).

    Filter i of sample n reads the coefficients frozen at its midpoint on
    the stream ``derive_seed(noise seed, n, i)``; ``estimate`` maps a
    sample's readouts to ``(s1, s2)``, assigned to the sample midpoint.
    """
    k = G.shape[0]
    block = k * T
    n_samples = int(math.floor(horizon / block))
    if n_samples == 0:
        raise GridRangeError(f"horizon shorter than one sample of {k} filters")

    s1_m, s2_m = signal.weights(np.arange(n_samples)[:, None] * block
                                + (np.arange(k) + 0.5) * T)
    c_true = s1_m * G[:, 0] + s2_m * G[:, 1]
    seeds = derive_seed_array(noise.seed, np.arange(n_samples)[:, None], np.arange(k))
    c_hats, _ = measure_batch(c_true, noise, T, seeds)
    est = np.array([estimate(c_hat) for c_hat in c_hats], dtype=float)
    times = np.arange(n_samples) * block + 0.5 * block
    s1_true, s2_true = signal.weights(times)
    return TrackingRun(method=method, sample_times=times,
                       s1_estimate=est[:, 0], s2_estimate=est[:, 1],
                       s1_true=s1_true, s2_true=s2_true,
                       block_duration=block, omega_osc=signal.omega_osc)


def track_fo(signal: CompositeSignal, filters, horizon: float, noise: NoiseModel,
             omega_c: float = 10.0, eig_keep=DEFAULT_TAU) -> TrackingRun:
    """Track the coefficients with repeated orthogonalization blocks.

    Each sample applies the basis ``filters`` back to back, reconstructs
    the spectrum from their readouts over ``[0, omega_c]``, and fits
    ``(s1, s2)`` by least squares against the two known components mapped
    through the same reconstruction, so a noiseless static signal is
    recovered exactly.
    """
    filters = list(filters)
    G, T = _component_overlaps(signal, filters)
    A = overlap_matrix(filters, omega_c)
    return _track("fo-block", signal, G, T, horizon, noise,
                  lambda c_hat: _fit_block(A, c_hat, G, eig_keep))


def _fit_block(A, c_hat, G, eig_keep):
    """LS fit of the block reconstruction against the projected components.

    The readouts and both component columns of ``G`` share the truncated
    pseudo-inverse ``P`` of the kept block of ``A``, and ``P A P = P``, so
    the fit is ``G^T P G s = G^T P c_hat`` on the kept rows.  NaN where no
    readout is finite, the basis degenerates or the rule retains nothing.
    """
    kept = np.flatnonzero(np.isfinite(c_hat))
    if kept.size == 0:
        return np.nan, np.nan
    sub, G = A[np.ix_(kept, kept)], G[kept]
    try:
        PG = _retained_solve(sub, _resolve_rule(sub, c_hat[kept], eig_keep), G)[0]
    except DegenerateBasisError:
        return np.nan, np.nan
    gram = G.T @ PG
    _checked_condition(np.linalg.svd(gram, compute_uv=False), DegenerateComponentsError,
                       "signal components are proportional within the filter span")
    sol = np.linalg.solve(gram, PG.T @ c_hat[kept])
    return float(sol[0]), float(sol[1])


def track_ocf(signal: CompositeSignal, filter_pair, horizon: float,
              noise: NoiseModel) -> TrackingRun:
    """Track the coefficients with an alternating pair of matched filters.

    ``filter_pair`` holds the filters designed for the two components (in
    that order).  Each sample applies both filters back to back and solves
    the 2x2 system ``G s = c`` with ``G_ij = integral S_j F_i``.  Each
    filter's probe coupling is set so its matched-component overlap is
    one, keeping both readouts in the maximum-sensitivity range regardless
    of the filters' absolute magnitudes.
    """
    if len(filter_pair) != 2:
        raise OutOfRangeError("filter_pair must hold exactly two filters")
    G, T = _component_overlaps(signal, filter_pair)
    # per-filter probe coupling putting each measurement near unit overlap
    # (the maximum-sensitivity working point)
    diag = np.diag(G).copy()
    if np.any(diag <= 0):
        raise DegenerateComponentsError(
            "a filter has no overlap with its matched component")
    G = G / diag[:, None]
    _checked_condition(np.linalg.svd(G, compute_uv=False), DegenerateComponentsError,
                       "component overlap matrix is singular; filters cannot separate them")
    return _track("ocf-pair", signal, G, T, horizon, noise,
                  lambda c_hat: np.linalg.solve(G, c_hat) if np.all(np.isfinite(c_hat))
                  else (np.nan, np.nan))
