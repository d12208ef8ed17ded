"""Time-resolved estimation of a slowly oscillating composite spectrum.

The signal is ``S(w, t) = s1(t) S1(w) + s2(t) S2(w)`` with known components.
Two samplers are provided: repeated orthogonalization blocks (one sample per
``K_block`` filters) and repeated pairs of component-matched filters (one
sample per two filters, five times faster at the default block size).  Both
freeze the coefficients at each filter's midpoint (quasi-static model) and
assume instantaneous readout between filters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateBasisError, DegenerateComponentsError
from .filterfn import FrequencyGrid, default_grid, filter_function, overlap_matrix, signal_overlap
from .modulation import fo_sequence
from .probe import NoiseModel, measure
from .reconstruct import _COND_LIMIT, DEFAULT_TAU, fo_reconstruct
from .seeding import derive_seed
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
    params: dict

    @property
    def n_samples(self) -> int:
        return int(self.sample_times.size)

    def rms_error(self, which: int = 2, dense: int = 2001) -> float:
        """RMS deviation of the tracked curve from the true coefficient.

        The sample series is linearly interpolated (edge-held) onto a dense
        time grid spanning the measured horizon and compared with the true
        coefficient there; sampling too slowly for the signal therefore
        shows up as a large error even where individual samples alias onto
        plausible values.
        """
        est = self.s2_estimate if which == 2 else self.s1_estimate
        good = np.isfinite(est)
        if not np.any(good):
            return math.inf
        t_end = self.sample_times[-1] + 0.5 * self.block_duration
        grid = np.linspace(0.0, t_end, dense)
        curve = np.interp(grid, self.sample_times[good], est[good])
        truth = self._truth(grid, which)
        return float(np.sqrt(np.mean((curve - truth) ** 2)))

    def rms_at_samples(self, which: int = 2) -> float:
        est = self.s2_estimate if which == 2 else self.s1_estimate
        true = self.s2_true if which == 2 else self.s1_true
        good = np.isfinite(est)
        return float(np.sqrt(np.mean((est[good] - true[good]) ** 2)))

    def _truth(self, t, which: int):
        omega = self.params.get("omega_osc")
        if omega is None:
            # fall back to interpolating the stored truth samples
            true = self.s2_true if which == 2 else self.s1_true
            return np.interp(t, self.sample_times, true)
        s = np.sin(omega * t) ** 2
        return 1.0 - s if which == 2 else s

    def sum_drift(self) -> float:
        """Mean |s1 + s2 - 1| of the estimates (diagnostic, not enforced)."""
        s = self.s1_estimate + self.s2_estimate
        return float(np.mean(np.abs(s[np.isfinite(s)] - 1.0)))


def track_fo(signal: CompositeSignal, k_block: int, operation_time: float,
             horizon: float, noise: NoiseModel, master_seed: int | None = None,
             omega_c: float = 10.0, omega_max: float | None = None,
             eig_keep=DEFAULT_TAU, grid: FrequencyGrid | None = None) -> TrackingRun:
    """Track the coefficients with repeated orthogonalization blocks.

    Each block applies ``k_block`` basis filters back to back
    (``T_c = k_block * T``), reconstructs the spectrum from the block's
    measurements, and fits ``(s1, s2)`` by least squares against the two
    known components mapped through the same reconstruction, so a noiseless
    static signal is recovered exactly.  The estimate is assigned to the
    block midpoint.
    """
    seed = noise.seed if master_seed is None else master_seed
    T = operation_time
    omega_max = omega_max if omega_max is not None else 1.15 * omega_c
    grid = grid if grid is not None else default_grid(omega_max)
    filters = [filter_function(fo_sequence(k, k_block, omega_max, T), grid)
               for k in range(1, k_block + 1)]
    c_one = np.array([signal_overlap(signal.component_one, f) for f in filters])
    c_two = np.array([signal_overlap(signal.component_two, f) for f in filters])
    A = overlap_matrix(filters, omega_c)

    block = k_block * T
    n_blocks = int(math.floor(horizon / block))
    if n_blocks == 0:
        raise ValueError("horizon shorter than one block")

    times = np.zeros(n_blocks)
    est = np.full((n_blocks, 2), np.nan)
    truth = np.zeros((n_blocks, 2))
    for b in range(n_blocks):
        mids = b * block + (np.arange(k_block) + 0.5) * T
        s1_m, s2_m = signal.weights(mids)
        c_true = s1_m * c_one + s2_m * c_two
        block_noise = replace(noise, seed=derive_seed(seed, b))
        records = [measure(c_true[k], block_noise, T, filter_index=k)
                   for k in range(k_block)]
        c_hat = np.array([r.c_estimate for r in records])
        est[b] = _fit_block(filters, A, c_hat, c_one, c_two, omega_c, eig_keep)
        t_mid = b * block + 0.5 * block
        times[b] = t_mid
        truth[b] = signal.weights(t_mid)

    return TrackingRun(method="fo-block", sample_times=times,
                       s1_estimate=est[:, 0], s2_estimate=est[:, 1],
                       s1_true=truth[:, 0], s2_true=truth[:, 1],
                       block_duration=block,
                       params={"k_block": k_block, "T": T, "omega_c": omega_c,
                               "omega_max": omega_max, "eig_keep": eig_keep,
                               "omega_osc": signal.omega_osc})


def _fit_block(filters, A, c_hat, c_one, c_two, omega_c, eig_keep):
    """LS fit of the block reconstruction against the projected components.

    All three reconstructions share the retained basis chosen for the
    measured coefficients, so the fit reduces to overlap-matrix algebra.
    """
    if not np.any(np.isfinite(c_hat)):
        return np.nan, np.nan
    try:
        rec = fo_reconstruct(filters, c_hat, omega_c, eig_keep=eig_keep,
                             overlap=A)
    except DegenerateBasisError:
        return np.nan, np.nan
    sub = A[np.ix_(rec.kept_indices, rec.kept_indices)]
    # the decomposition of ``sub`` that the reconstruction already made
    lam, U = rec.basis.eigenvalues, rec.basis.transform.T
    r = rec.retained_count
    proj = U[:, :r] / lam[:r]          # columns scaled by 1/lambda
    P = proj @ U[:, :r].T              # truncated pseudoinverse of sub

    def beta(vec):
        return P @ vec[rec.kept_indices]

    b_hat = beta(c_hat)
    b_one = beta(c_one)
    b_two = beta(c_two)
    gram = np.empty((2, 2))
    comps = (b_one, b_two)
    for i in range(2):
        for j in range(2):
            gram[i, j] = comps[i] @ sub @ comps[j]
    svals = np.linalg.svd(gram, compute_uv=False)
    if svals[-1] <= 0 or svals[0] / svals[-1] > _COND_LIMIT:
        raise DegenerateComponentsError(
            "signal components are proportional within the filter span")
    rhs = np.array([b_one @ sub @ b_hat, b_two @ sub @ b_hat])
    sol = np.linalg.solve(gram, rhs)
    return float(sol[0]), float(sol[1])


def track_ocf(signal: CompositeSignal, filter_pair, operation_time: float,
              horizon: float, noise: NoiseModel,
              master_seed: int | None = None,
              omega_int_max: float | None = None,
              auto_couple: bool = True) -> TrackingRun:
    """Track the coefficients with an alternating pair of matched filters.

    ``filter_pair`` holds the filters designed for the two components (in
    that order).  Each sample applies both filters back to back
    (``T_c = 2 T``) and solves the 2x2 system ``G s = c`` with
    ``G_ij = integral S_j F_i``.  With ``auto_couple`` (default) each
    filter's probe coupling is set so its matched-component overlap is one,
    keeping both readouts in the maximum-sensitivity range regardless of the
    filters' absolute magnitudes.
    """
    if len(filter_pair) != 2:
        raise ValueError("filter_pair must hold exactly two filters")
    seed = noise.seed if master_seed is None else master_seed
    T = operation_time
    comps = (signal.component_one, signal.component_two)
    G = np.array([[signal_overlap(s, f, omega_int_max) for s in comps]
                  for f in filter_pair])
    if auto_couple:
        # per-filter probe coupling putting each measurement near unit
        # overlap (the maximum-sensitivity working point)
        diag = np.diag(G).copy()
        if np.any(diag <= 0):
            raise DegenerateComponentsError(
                "a filter has no overlap with its matched component")
        G = G / diag[:, None]
    svals = np.linalg.svd(G, compute_uv=False)
    if svals[-1] <= 0 or svals[0] / svals[-1] > _COND_LIMIT:
        raise DegenerateComponentsError(
            "component overlap matrix is singular; filters cannot separate them")

    block = 2.0 * T
    n_samples = int(math.floor(horizon / block))
    if n_samples == 0:
        raise ValueError("horizon shorter than one filter pair")

    times = np.zeros(n_samples)
    est = np.full((n_samples, 2), np.nan)
    truth = np.zeros((n_samples, 2))
    for n in range(n_samples):
        sample_noise = replace(noise, seed=derive_seed(seed, n))
        c_hat = np.zeros(2)
        for i in range(2):
            mid = n * block + (i + 0.5) * T
            s1_m, s2_m = signal.weights(mid)
            c_true = s1_m * G[i, 0] + s2_m * G[i, 1]
            rec = measure(c_true, sample_noise, T, filter_index=i)
            c_hat[i] = rec.c_estimate
        if np.all(np.isfinite(c_hat)):
            est[n] = np.linalg.solve(G, c_hat)
        times[n] = n * block + 0.5 * block
        truth[n] = signal.weights(times[n])

    return TrackingRun(method="ocf-pair", sample_times=times,
                       s1_estimate=est[:, 0], s2_estimate=est[:, 1],
                       s1_true=truth[:, 0], s2_true=truth[:, 1],
                       block_duration=block,
                       params={"T": T, "omega_int_max": omega_int_max,
                               "omega_osc": signal.omega_osc})
