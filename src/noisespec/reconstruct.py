"""Spectral reconstruction protocols.

Two estimators are implemented on top of the same measurement chain:

* orthogonalization ("fo"): eigendecompose the filter overlap matrix, expand
  the spectrum in the induced orthonormal filter basis, optionally dropping
  small-eigenvalue terms that only amplify noise;
* pointwise ("as"): solve a binned linear system mapping per-bin spectral
  weight to the measured coefficients, yielding the spectrum at the K
  discrete frequencies ``omega_max * k / K``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (DegenerateBasisError, GridRangeError,
                     IllConditionedInversionError, UndefinedFidelityError)
from .filterfn import (FrequencyGrid, default_grid, filter_function, overlap_matrix,
                       signal_overlap)
from .modulation import as_sequence, fo_sequence, staircase_split
from .probe import NoiseModel, measure
from .seeding import derive_seed
from .spectra import SpectralDensity, calibrate_amplitude

#: candidate relative eigenvalue thresholds scanned by the "cv" retention rule
TAU_GRID = tuple(10.0 ** -e for e in range(1, 9))

#: default relative eigenvalue threshold; calibrated so that the retained
#: basis stops right above the conditioning cliff of short-T filter sets
#: (see tests for the measured fidelity-vs-threshold landscape)
DEFAULT_TAU = 2e-3
_COND_LIMIT = 1e12


@dataclass(frozen=True, eq=False)
class FOBasis:
    """Orthonormalized filter basis: eigenvalues (descending), the
    orthogonal transform (rows are eigenvectors) and the retained count."""

    eigenvalues: np.ndarray
    transform: np.ndarray
    retained: int
    omega_c: float


@dataclass(eq=False)
class ReconstructionResult:
    """Estimated spectrum: grid samples ("fo") or pointwise values ("as")."""

    protocol: str
    omegas: np.ndarray
    values: np.ndarray
    retained_count: int
    kept_indices: np.ndarray
    params: dict = field(default_factory=dict)
    basis: FOBasis | None = None
    condition_number: float | None = None
    fidelity: float | None = None

    def evaluate(self, omega) -> np.ndarray:
        """Estimate at ``omega`` (linear interpolation between samples)."""
        omega = np.asarray(omega, dtype=float)
        lo, hi = self.omegas[0], self.omegas[-1]
        if np.any(omega < lo - 1e-9) or np.any(omega > hi + 1e-9):
            raise GridRangeError(f"omega outside estimate range [{lo}, {hi}]")
        return np.interp(omega, self.omegas, self.values)


def _finite_mask(c_estimates, saturated=None) -> np.ndarray:
    c = np.asarray(c_estimates, dtype=float)
    mask = np.isfinite(c)
    if saturated is not None:
        mask &= ~np.asarray(saturated, dtype=bool)
    return mask


def _retained_count(lam: np.ndarray, eig_keep) -> int:
    positive = lam > 0
    if isinstance(eig_keep, (int, np.integer)) and not isinstance(eig_keep, bool):
        return int(min(int(eig_keep), positive.sum()))
    tau = float(eig_keep)
    return int(np.count_nonzero(positive & (lam >= tau * lam[0])))


def select_retention_threshold(A: np.ndarray, c_hat: np.ndarray,
                               tau_grid=TAU_GRID) -> float:
    """Pick the relative eigenvalue threshold by leave-one-filter-out
    cross-validation.

    For every held-out filter j the spectrum is reconstructed from the
    remaining filters at each candidate threshold and used to predict the
    held-out coefficient; the threshold with the smallest summed squared
    prediction error wins (ties go to the largest, i.e. most truncating,
    threshold).
    """
    K = A.shape[0]
    taus = sorted(tau_grid, reverse=True)
    residuals = np.zeros(len(taus))
    for j in range(K):
        keep = np.arange(K) != j
        sub = A[np.ix_(keep, keep)]
        lam, U = np.linalg.eigh(sub)
        lam = lam[::-1]
        U = U[:, ::-1]
        proj_c = U.T @ c_hat[keep]
        proj_a = U.T @ A[keep, j]
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(lam > 0, proj_c * proj_a / lam, 0.0)
        for ti, tau in enumerate(taus):
            r = _retained_count(lam, tau)
            pred = float(np.sum(terms[:r]))
            residuals[ti] += (pred - c_hat[j]) ** 2
    return taus[int(np.argmin(residuals))]


def fo_reconstruct(filters, c_estimates, omega_c: float, eig_keep=DEFAULT_TAU,
                   saturated=None, overlap: np.ndarray | None = None) -> ReconstructionResult:
    """Reconstruct a continuous spectrum by filter orthogonalization.

    Parameters
    ----------
    filters : sequence of FilterFunction
        The applied filters, sharing one grid.
    c_estimates : array
        Inverted coefficients; non-finite entries (saturated readouts) are
        dropped together with their filters.
    omega_c : float
        Cutoff of the analysis band; all overlaps integrate over
        ``[0, omega_c]``.
    eig_keep : int | float | "cv"
        Retention rule for the eigenvalue expansion: an integer keeps that
        many leading terms, a float keeps eigenvalues ``>= tau * lam_max``,
        and ``"cv"`` selects the threshold by leave-one-out cross-validation.
    overlap : ndarray, optional
        Precomputed ``overlap_matrix(filters, omega_c)`` (full set) to avoid
        recomputation in repeated runs.
    """
    filters = list(filters)
    c = np.asarray(c_estimates, dtype=float)
    if len(filters) != c.size:
        raise ValueError("filters and coefficient estimates differ in length")
    mask = _finite_mask(c, saturated)
    kept = np.flatnonzero(mask)
    if kept.size == 0:
        raise DegenerateBasisError("every measurement is saturated; nothing to invert")
    if overlap is None:
        A = overlap_matrix([filters[i] for i in kept], omega_c)
    else:
        A = overlap[np.ix_(kept, kept)]
    c_kept = c[kept]

    lam, U = np.linalg.eigh(A)
    lam = lam[::-1]
    U = U[:, ::-1]
    if not np.isfinite(lam[0]) or lam[0] <= 0:
        raise DegenerateBasisError("overlap matrix has no positive eigenvalues")

    rule = eig_keep
    if isinstance(eig_keep, str):
        if eig_keep != "cv":
            raise ValueError(f"unknown retention rule {eig_keep!r}")
        rule = select_retention_threshold(A, c_kept)
    retained = _retained_count(lam, rule)
    if retained == 0:
        raise DegenerateBasisError("retention rule dropped every eigenvalue")

    inv_sqrt = 1.0 / np.sqrt(lam[:retained])
    c_tilde = (U.T @ c_kept)[:retained] * inv_sqrt
    beta = U[:, :retained] @ (c_tilde * inv_sqrt)

    grid = filters[0].grid
    # smallest grid prefix whose last node reaches (or passes) the cutoff
    n_r = int(np.searchsorted(grid.omegas, omega_c - 1e-12 * max(1.0, omega_c))) + 1
    n_r = min(n_r, grid.size)
    stacked = np.vstack([filters[i].values[:n_r] for i in kept])
    estimate = beta @ stacked

    basis = FOBasis(eigenvalues=lam, transform=U.T, retained=retained,
                    omega_c=omega_c)
    return ReconstructionResult(
        protocol="fo", omegas=grid.omegas[:n_r], values=estimate,
        retained_count=retained, kept_indices=kept, basis=basis,
        params={"omega_c": omega_c, "eig_keep": eig_keep,
                "tau_used": rule if not isinstance(rule, (int, np.integer)) else None})


def bin_matrix(filters, omega_max: float) -> np.ndarray:
    """Per-bin filter weight ``M_kl = integral_{bin l} F_k domega`` with K
    bins of width ``omega_max / K`` centered at ``omega_max * l / K``."""
    filters = list(filters)
    K = len(filters)
    grid = filters[0].grid
    delta = omega_max / K
    centers = omega_max * np.arange(1, K + 1) / K
    stacked = np.vstack([f.values for f in filters])
    cols = []
    for center in centers:
        w_hi = grid.trap_weights(min(center + 0.5 * delta, grid.omega_max_grid))
        w_lo = grid.trap_weights(max(center - 0.5 * delta, 0.0))
        cols.append(stacked @ (w_hi - w_lo))
    return np.column_stack(cols)


def as_reconstruct(filters, c_estimates, omega_max: float, saturated=None,
                   delta_approx: bool = False,
                   bins: np.ndarray | None = None) -> ReconstructionResult:
    """Reconstruct the spectrum pointwise at ``omega_k = omega_max * k / K``.

    Solves the binned linear system ``M s = c`` by least squares (the
    default), which keeps the harmonic and finite-width structure of the
    filters; ``delta_approx=True`` falls back to the idealized narrow-filter
    division ``s_k = c_k / M_kk`` for comparison.
    """
    filters = list(filters)
    K = len(filters)
    c = np.asarray(c_estimates, dtype=float)
    if c.size != K:
        raise ValueError("filters and coefficient estimates differ in length")
    M = bin_matrix(filters, omega_max) if bins is None else bins
    omega_points = omega_max * np.arange(1, K + 1) / K

    mask = _finite_mask(c, saturated)
    kept = np.flatnonzero(mask)
    if kept.size == 0:
        raise DegenerateBasisError("every measurement is saturated; nothing to invert")
    M_kept = M[kept, :]
    c_kept = c[kept]

    if delta_approx:
        # saturated rows carry no information; their points report zero
        values = np.zeros(K)
        diag = np.diag(M)
        values[kept] = c_kept / diag[kept]
        cond = float("nan")
    else:
        svals = np.linalg.svd(M_kept, compute_uv=False)
        cond = float(svals[0] / svals[-1]) if svals[-1] > 0 else math.inf
        if not math.isfinite(cond) or cond > _COND_LIMIT:
            raise IllConditionedInversionError(
                f"bin system is rank deficient (condition number {cond:.3e})",
                condition_number=cond)
        values, *_ = np.linalg.lstsq(M_kept, c_kept, rcond=None)

    return ReconstructionResult(
        protocol="as", omegas=omega_points, values=np.asarray(values, dtype=float),
        retained_count=kept.size, kept_indices=kept, condition_number=cond,
        params={"omega_max": omega_max, "delta_approx": delta_approx})


def fidelity(spectrum_true, estimate, omega_points) -> float:
    """Cosine-similarity fidelity between truth and estimate on a point set.

    Both arguments are reduced to the K-vector of their values at
    ``omega_points``; the fidelity is their normalized inner product, equal
    to 1 exactly when the estimate is a positive multiple of the truth.
    """
    pts = np.asarray(omega_points, dtype=float)
    s_true = np.asarray(spectrum_true.evaluate(pts), dtype=float)
    s_est = np.asarray(estimate.evaluate(pts) if hasattr(estimate, "evaluate")
                       else estimate, dtype=float)
    n_true = float(np.linalg.norm(s_true))
    n_est = float(np.linalg.norm(s_est))
    if n_true == 0.0 or n_est == 0.0:
        raise UndefinedFidelityError("fidelity undefined for a zero-norm argument")
    return float(np.dot(s_true, s_est) / (n_true * n_est))


# ---------------------------------------------------------------------------
# protocol runner
# ---------------------------------------------------------------------------

class ProtocolContext:
    """Noise-independent state for repeated runs of one (protocol, T) cell.

    Builds the filter set, calibrates the spectrum scale so the median
    overlap coefficient is one, and caches the overlap/bin matrices so that
    per-repetition work reduces to drawing noise and solving small systems.
    """

    def __init__(self, protocol: str, spectrum: SpectralDensity, operation_time: float,
                 K: int = 20, omega_c: float = 10.0, omega_max: float | None = None,
                 n_qubits: int = 1, grid: FrequencyGrid | None = None,
                 omega_int_max: float | None = None):
        if protocol not in ("fo", "as"):
            raise ValueError(f"unknown protocol {protocol!r}")
        if protocol == "as" and n_qubits != 1:
            raise ValueError("the pointwise protocol is defined for one qubit")
        self.protocol = protocol
        self.K = K
        self.omega_c = omega_c
        self.omega_max = omega_max if omega_max is not None else (
            1.15 * omega_c if protocol == "fo" else omega_c)
        self.operation_time = operation_time
        self.n_qubits = n_qubits
        self.grid = grid if grid is not None else default_grid(self.omega_max)
        self.omega_int_max = omega_int_max

        gens = []
        for k in range(1, K + 1):
            if protocol == "fo":
                if n_qubits == 1:
                    gens.append(fo_sequence(k, K, self.omega_max, operation_time))
                else:
                    rate = self.omega_max * (k - 1) / K
                    gens.append(staircase_split(rate, n_qubits, operation_time))
            else:
                gens.append(as_sequence(k, K, self.omega_max, operation_time))
        self.filters = [filter_function(g, self.grid) for g in gens]

        unit = spectrum.with_scale(1.0)
        self.scale = calibrate_amplitude(unit, self.filters,
                                         omega_int_max=omega_int_max)
        self.spectrum = spectrum.with_scale(self.scale)
        self.c_true = np.array([signal_overlap(self.spectrum, f, omega_int_max)
                                for f in self.filters])
        self.fidelity_points = omega_c * np.arange(1, K + 1) / K
        self.overlap = overlap_matrix(self.filters, omega_c) if protocol == "fo" else None
        self.bins = bin_matrix(self.filters, self.omega_max) if protocol == "as" else None

    def run_once(self, noise: NoiseModel, eig_keep=DEFAULT_TAU,
                 want_result: bool = False, as_delta: bool = False):
        """One noisy protocol run -> (fidelity, result-or-None).

        Degenerate runs (all filters saturated, or a singular inversion)
        score fidelity 0: the estimate carries no information.
        """
        records = [measure(self.c_true[k], noise, self.operation_time, filter_index=k)
                   for k in range(self.K)]
        c_hat = np.array([r.c_estimate for r in records])
        try:
            if self.protocol == "fo":
                result = fo_reconstruct(self.filters, c_hat, self.omega_c,
                                        eig_keep=eig_keep, overlap=self.overlap)
            else:
                result = as_reconstruct(self.filters, c_hat, self.omega_max,
                                        delta_approx=as_delta, bins=self.bins)
            fid = fidelity(self.spectrum, result, self.fidelity_points)
        except (DegenerateBasisError, IllConditionedInversionError,
                UndefinedFidelityError):
            return 0.0, None
        result.fidelity = fid
        return fid, (result if want_result else None)


# ---------------------------------------------------------------------------
# repetition engine (optionally parallel, byte-deterministic)
# ---------------------------------------------------------------------------

#: cells of the pool run, set in each forked worker by its initializer
_WORKER_CELLS: list = []


def _run_job(cells, ci: int, rep: int) -> float:
    """Fidelity of repetition ``rep`` of cell ``ci``; its noise draws from
    ``derive_seed(cell seed, rep)``."""
    ctx, noise, eig_keep, as_delta = cells[ci]
    fid, _ = ctx.run_once(replace(noise, seed=derive_seed(noise.seed, rep)),
                          eig_keep=eig_keep, as_delta=as_delta)
    return fid


def _adopt_cells(cells) -> None:
    _WORKER_CELLS[:] = cells


def _pool_job(job) -> float:
    return _run_job(_WORKER_CELLS, *job)


def run_repetitions(cells, repetitions: int, workers: int = 1) -> np.ndarray:
    """Fidelities of seeded repetitions, shape ``(len(cells), repetitions)``.

    A cell is ``(ProtocolContext, NoiseModel, eig_keep, as_delta)``; the
    noise model's seed is the cell's seed base.  With ``workers > 1`` every
    (cell, repetition) job runs in one fork pool; where fork is unavailable
    the jobs run serially.  Results are stored by index, so the output is
    the same for any worker count.
    """
    cells = list(cells)
    fids = np.zeros((len(cells), repetitions))
    jobs = list(np.ndindex(fids.shape))
    if workers > 1 and jobs:
        import multiprocessing as mp
        try:
            pool = mp.get_context("fork").Pool(workers, initializer=_adopt_cells,
                                               initargs=(cells,))
        except (ValueError, OSError):  # no fork on this platform, or fork failed
            pool = None
        if pool is not None:
            with pool:
                fids[...] = np.reshape(pool.map(_pool_job, jobs, chunksize=8), fids.shape)
            return fids
    for job in jobs:
        fids[job] = _run_job(cells, *job)
    return fids


def mean_se(values: np.ndarray) -> tuple[float, float]:
    """Mean and its standard error (0 for a single value)."""
    mean = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(values.size)) if values.size > 1 else 0.0
    return mean, se


@dataclass(eq=False)
class ScanResult:
    protocol: str
    times: np.ndarray
    fidelity_mean: np.ndarray
    fidelity_se: np.ndarray
    best_time: float


def scan_optimal_time(protocol: str, spectrum: SpectralDensity, gamma: float,
                      time_candidates, repetitions: int, master_seed: int,
                      dp_max: float = 0.01, shots: int | None = None,
                      K: int = 20, omega_c: float = 10.0,
                      omega_max: float | None = None, n_qubits: int = 1,
                      eig_keep=DEFAULT_TAU, grid: FrequencyGrid | None = None,
                      workers: int = 1) -> ScanResult:
    """Scan filter operation times and return the fidelity curve.

    For every candidate T the spectrum scale is recalibrated to the new
    filter set, ``repetitions`` independent noisy runs are simulated from
    seeds derived per (T index, repetition), and the mean estimation
    fidelity with its standard error is recorded.  The optimal time is the
    candidate with the largest mean fidelity.  ``workers`` is passed to
    :func:`run_repetitions` and does not change the result.
    """
    times = list(time_candidates)
    if not times:
        raise ValueError("need at least one candidate operation time")
    cells = [(ProtocolContext(protocol, spectrum, T, K=K, omega_c=omega_c,
                              omega_max=omega_max, n_qubits=n_qubits, grid=grid),
              NoiseModel(dp_max=dp_max, gamma=gamma, shots=shots,
                         seed=derive_seed(master_seed, ti)), eig_keep, False)
             for ti, T in enumerate(times)]
    stats = [mean_se(fids) for fids in run_repetitions(cells, repetitions, workers)]
    means, ses = np.array(stats).T
    best = times[int(np.argmax(means))]
    return ScanResult(protocol=protocol, times=np.asarray(times, dtype=float),
                      fidelity_mean=means, fidelity_se=ses, best_time=float(best))
