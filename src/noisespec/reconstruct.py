"""Spectral reconstruction protocols.

Two estimators are implemented on top of the same measurement chain:

* orthogonalization ("fo"): eigendecompose the filter overlap matrix, expand
  the spectrum in the induced orthonormal filter basis, optionally dropping
  small-eigenvalue terms that only amplify noise;
* pointwise ("as"): solve a binned linear system mapping per-bin spectral
  weight to the measured coefficients, yielding the spectrum at the K
  discrete frequencies ``omega_max * k / K``.

Both estimates are linear in the K coefficients once the kept set (the
finite estimates) and the retention rule are fixed, so a repetition's
fidelity is a cosine taken after a linear map ``W`` (K x P, P fidelity
points) of its estimates, with zeros in place of dropped entries.  A
:class:`ProtocolContext`, one (protocol, T) cell with its retention rule
and pointwise variant, scores every repetition this way, building each
distinct map once per block; :func:`run_repetitions` runs cells
``(context, noise)``.  Every sum in that kernel runs in a fixed order of
elementwise numpy operations, so a repetition's fidelity does not depend
on the block size, its position in the block or the BLAS build.  It agrees
with the per-row reference ``fidelity(spectrum, fo_reconstruct(...) /
as_reconstruct(...), points)`` within 1e-12 where the inverted system is
well conditioned, as under ``DEFAULT_TAU`` (condition number at most 1/tau
= 500).  The two round differently, so the gap grows with the condition
number: measured 1e-12 for an as system at 5e6, 7e-13 and 2e-10 for fo
retaining terms down to 1e-9 and 1e-14 of the largest eigenvalue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (CalibrationError, DegenerateBasisError, GridRangeError,
                     IllConditionedInversionError, UndefinedFidelityError, require_finite)
from .filterfn import (FrequencyGrid, default_grid, filter_function, overlap_matrix,
                       signal_overlaps)
from .modulation import as_sequence, fo_sequence, staircase_split
from .probe import NoiseModel, measure_batch
from .seeding import derive_seed, derive_seed_array
from .spectra import SpectralDensity, calibrate_amplitude

#: candidate relative eigenvalue thresholds scanned by the "cv" retention rule
TAU_GRID = tuple(10.0 ** -e for e in range(1, 9))

#: default relative eigenvalue threshold; calibrated so that the retained
#: basis stops right above the conditioning cliff of short-T filter sets
#: (see tests for the measured fidelity-vs-threshold landscape)
DEFAULT_TAU = 2e-3
_COND_LIMIT = 1e12


@dataclass(eq=False)
class ReconstructionResult:
    """Estimated spectrum: grid samples ("fo") or pointwise values ("as")."""

    protocol: str
    omegas: np.ndarray
    values: np.ndarray
    retained_count: int
    kept_indices: np.ndarray
    params: dict = field(default_factory=dict)
    condition_number: float | None = None
    fidelity: float | None = None

    def evaluate(self, omega) -> np.ndarray:
        """Estimate at ``omega`` (linear interpolation between samples)."""
        return _interp(omega, self.omegas, self.values)


def _interp(omega, omegas: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``values`` sampled at ``omegas``, linearly interpolated at ``omega``;
    a point outside the samples raises :class:`GridRangeError`."""
    omega = np.asarray(omega, dtype=float)
    lo, hi = omegas[0], omegas[-1]
    if np.any(omega < lo - 1e-9) or np.any(omega > hi + 1e-9):
        raise GridRangeError(f"omega outside estimate range [{lo}, {hi}]")
    return np.interp(omega, omegas, values)


def _retained_count(lam: np.ndarray, eig_keep) -> int:
    """Leading terms of the descending spectrum ``lam`` that ``eig_keep``
    retains; 0 for an empty spectrum."""
    if lam.size == 0:
        return 0
    positive = lam > 0
    if isinstance(eig_keep, (int, np.integer)) and not isinstance(eig_keep, bool):
        return int(min(int(eig_keep), positive.sum()))
    tau = float(eig_keep)
    return int(np.count_nonzero(positive & (lam >= tau * lam[0])))


def select_retention_threshold(A: np.ndarray, c_hat: np.ndarray) -> float:
    """Pick the relative eigenvalue threshold by leave-one-filter-out
    cross-validation.

    For every held-out filter j the spectrum is reconstructed from the
    remaining filters at each candidate threshold and used to predict the
    held-out coefficient; the threshold with the smallest summed squared
    prediction error wins (ties go to the largest, i.e. most truncating,
    threshold).
    """
    return _cv_threshold(_cv_folds(A), c_hat)


def _cv_folds(A: np.ndarray):
    """The part of :func:`select_retention_threshold` that depends on the
    overlap matrix ``A`` alone: the thresholds, most truncating first, and
    per held-out filter j the mask of the other filters, the descending
    eigenpairs of their overlap matrix, the projection of ``A[keep, j]``
    and the count each threshold retains."""
    K = A.shape[0]
    taus = sorted(TAU_GRID, reverse=True)
    folds = []
    for j in range(K):
        keep = np.arange(K) != j
        lam, U = _eigh_descending(A[np.ix_(keep, keep)])
        folds.append((keep, lam, U, U.T @ A[keep, j],
                      [_retained_count(lam, tau) for tau in taus]))
    return taus, folds


def _cv_threshold(cv_folds, c_hat: np.ndarray) -> float:
    """The threshold of :func:`_cv_folds` output ``cv_folds`` that best
    predicts each held-out coefficient of ``c_hat``."""
    taus, folds = cv_folds
    residuals = np.zeros(len(taus))
    for j, (keep, lam, U, proj_a, counts) in enumerate(folds):
        proj_c = U.T @ c_hat[keep]
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(lam > 0, proj_c * proj_a / lam, 0.0)
        for ti, r in enumerate(counts):
            pred = float(np.sum(terms[:r]))
            residuals[ti] += (pred - c_hat[j]) ** 2
    return taus[int(np.argmin(residuals))]


def fo_reconstruct(filters, c_estimates, omega_c: float, eig_keep=DEFAULT_TAU,
                   overlap: np.ndarray | None = None) -> ReconstructionResult:
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
    kept = np.flatnonzero(np.isfinite(c))
    if kept.size == 0:
        raise DegenerateBasisError("every measurement is saturated; nothing to invert")
    if overlap is None:
        A = overlap_matrix([filters[i] for i in kept], omega_c)
    else:
        A = overlap[np.ix_(kept, kept)]
    c_kept = c[kept]
    rule = _resolve_rule(A, c_kept, eig_keep)
    lam_r, U_r = _retained_basis(A, rule)

    inv_sqrt = 1.0 / np.sqrt(lam_r)
    c_tilde = (U_r.T @ c_kept) * inv_sqrt
    beta = U_r @ (c_tilde * inv_sqrt)
    n_r = _cutoff_size(filters[0].grid, omega_c)
    estimate = beta @ np.vstack([filters[i].values[:n_r] for i in kept])

    return ReconstructionResult(
        protocol="fo", omegas=filters[0].grid.omegas[:n_r], values=estimate,
        retained_count=lam_r.size, kept_indices=kept,
        params={"omega_c": omega_c, "eig_keep": eig_keep,
                "tau_used": rule if not isinstance(rule, (int, np.integer)) else None})


def _eigh_descending(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of the symmetric matrix ``A`` in descending order and the
    matching eigenvectors (columns): the one ``eigh`` of the package."""
    lam, U = np.linalg.eigh(A)
    return lam[::-1], U[:, ::-1]


def _retained_basis(A: np.ndarray, rule) -> tuple[np.ndarray, np.ndarray]:
    """``(lam_r, U_r)``: the leading eigenpairs of the overlap matrix ``A``
    that the resolved retention ``rule`` (a count or a threshold) keeps,
    eigenvalues descending.  :class:`DegenerateBasisError` when no
    eigenvalue is positive or the rule keeps none."""
    lam, U = _eigh_descending(A)
    if not np.isfinite(lam[0]) or lam[0] <= 0:
        raise DegenerateBasisError("overlap matrix has no positive eigenvalues")
    retained = _retained_count(lam, rule)
    if retained == 0:
        raise DegenerateBasisError("retention rule dropped every eigenvalue")
    return lam[:retained], U[:, :retained]


def _check_rule(eig_keep):
    """``eig_keep`` if it is a retention rule (``"cv"``, a count >= 0 or a
    threshold >= 0); ``ValueError`` otherwise."""
    if isinstance(eig_keep, str):
        if eig_keep != "cv":
            raise ValueError(f"unknown retention rule {eig_keep!r}")
    elif not eig_keep >= 0:  # also refuses NaN
        raise ValueError(f"retention rule must be >= 0, got {eig_keep!r}")
    return eig_keep


def _resolve_rule(A: np.ndarray, c_kept: np.ndarray, eig_keep):
    """The retention rule applied to the kept overlap matrix ``A``:
    ``eig_keep`` itself, or for ``"cv"`` the threshold that
    :func:`select_retention_threshold` picks for ``c_kept``."""
    if isinstance(_check_rule(eig_keep), str):
        return select_retention_threshold(A, c_kept)
    return eig_keep


def _cutoff_size(grid: FrequencyGrid, omega_c: float) -> int:
    """Size of the smallest grid prefix whose last node reaches (or
    passes) the cutoff."""
    n_r = int(np.searchsorted(grid.omegas, omega_c - 1e-12 * max(1.0, omega_c))) + 1
    return min(n_r, grid.size)


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


def as_reconstruct(filters, c_estimates, omega_max: float, delta_approx: bool = False,
                   bins: np.ndarray | None = None) -> ReconstructionResult:
    """Reconstruct the spectrum pointwise at ``omega_k = omega_max * k / K``.

    Solves the binned linear system ``M s = c`` by least squares (the
    default), which keeps the harmonic and finite-width structure of the
    filters; ``delta_approx=True`` falls back to the idealized narrow-filter
    division ``s_k = c_k / M_kk`` for comparison.
    """
    filters = list(filters)
    c = np.asarray(c_estimates, dtype=float)
    if c.size != len(filters):
        raise ValueError("filters and coefficient estimates differ in length")
    M = bin_matrix(filters, omega_max) if bins is None else bins
    K = M.shape[0]
    kept = np.flatnonzero(np.isfinite(c))
    if kept.size == 0:
        raise DegenerateBasisError("every measurement is saturated; nothing to invert")
    c_kept = c[kept]

    if delta_approx:
        # saturated rows carry no information; their points report zero
        values = np.zeros(K)
        values[kept] = c_kept / np.diag(M)[kept]
        cond = float("nan")
    else:
        values, _, _, svals = np.linalg.lstsq(M[kept, :], c_kept, rcond=None)
        cond = _checked_condition(svals)

    return ReconstructionResult(
        protocol="as", omegas=_pointwise_omegas(omega_max, K),
        values=np.asarray(values, dtype=float), retained_count=kept.size,
        kept_indices=kept, condition_number=cond,
        params={"omega_max": omega_max, "delta_approx": delta_approx})


def _checked_condition(svals: np.ndarray) -> float:
    """Condition number of a matrix from its descending singular values
    ``svals``; :class:`IllConditionedInversionError` when it is not finite
    or exceeds ``_COND_LIMIT``."""
    cond = float(svals[0] / svals[-1]) if svals[-1] > 0 else math.inf
    if not math.isfinite(cond) or cond > _COND_LIMIT:
        raise IllConditionedInversionError(
            f"bin system is rank deficient (condition number {cond:.3e})",
            condition_number=cond)
    return cond


def _pointwise_omegas(omega_max: float, K: int) -> np.ndarray:
    """The K frequencies ``omega_max * k / K`` of a pointwise estimate."""
    return omega_max * np.arange(1, K + 1) / K


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


def _cosine_rows(s_true: np.ndarray, n_true: float, c_rows: np.ndarray,
                 maps: np.ndarray, index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cosine of ``s_true`` (of norm ``n_true``) with each row's estimate
    ``c_rows[r] @ maps[:, :, index[r]]``, and the mask of rows whose
    estimate is zero (they score 0).  ``maps`` stacks G maps as (K, P, G),
    and ``index`` (an ``np.intp`` array) picks a row's map; term k gathers
    its (P, R) slice ``maps[k][:, index]`` in turn, so no (K, P, R) stack
    is built.  The estimate, the inner product and the squared norm are
    each summed term by term in a fixed order, one elementwise multiply and
    add per term, so a row's bits depend neither on the other rows nor on
    BLAS."""
    terms = c_rows.T
    s_est = maps[0][:, index] * terms[0]  # P x R
    for w, c in zip(maps[1:], terms[1:]):
        s_est += w[:, index] * c
    dot = s_true[0] * s_est[0]
    sq = s_est[0] * s_est[0]
    for s, est in zip(s_true[1:], s_est[1:]):
        dot += s * est
        sq += est * est
    n_est = np.sqrt(sq)
    zero = n_est == 0.0
    fids = np.zeros(n_est.size)
    np.divide(dot, n_true * n_est, out=fids, where=~zero)
    return fids, zero


# ---------------------------------------------------------------------------
# protocol runner
# ---------------------------------------------------------------------------

class ProtocolContext:
    """Noise-independent state for repeated runs of one (protocol, T) cell.

    Builds the filter set, calibrates the spectrum scale so the median
    overlap coefficient is one (one spectrum sample on the grid for the
    calibration, one for ``c_true``), and keeps what no repetition
    changes: the overlap ("fo") or bin ("as") matrix, the true spectrum
    with its norm at the fidelity points, and ``G``, whose row k is basis
    function k at the fidelity points (filter k for "fo", the hat of
    pointwise node k for "as").  The cell's inversion is fixed too: the
    "fo" retention rule ``eig_keep`` (checked here) and the "as" delta
    approximation ``as_delta``, as in :func:`fo_reconstruct` and
    :func:`as_reconstruct`.

    :meth:`_score_block` scores every repetition.  With the kept set (the
    finite estimates) and the retention rule fixed, a repetition's estimate
    at the fidelity points is ``c @ W``, with zeros in ``c`` where a readout
    saturated: "fo" ``U_r diag(1/lam_r) U_r^T G[kept]`` from the kept
    overlap matrix; "as" ``M^-T G``, ``lstsq(M[kept]^T, G)`` for a subset,
    or with ``as_delta`` ``G[kept] / diag(M)[kept]``.  A subset's condition
    number comes from the singular values of its own ``lstsq``, so it is
    factorized once; only the full set's ``solve`` takes an ``svd``.  A
    block builds each distinct map once and keeps none.  A repetition's
    fidelity is a fixed-order sum, the same in any block and on any BLAS,
    and agrees with :func:`fidelity` of :func:`fo_reconstruct` or
    :func:`as_reconstruct` within 1e-12 where the inverted system is well
    conditioned (see the module docstring).  A repetition without a map (a
    degenerate basis, a rule that retains nothing, an as system past the
    condition limit) or with a zero estimate scores 0.
    """

    def __init__(self, protocol: str, spectrum: SpectralDensity, operation_time: float,
                 K: int = 20, omega_c: float = 10.0, omega_max: float | None = None,
                 n_qubits: int = 1, grid: FrequencyGrid | None = None,
                 eig_keep=DEFAULT_TAU, as_delta: bool = False):
        if protocol not in ("fo", "as"):
            raise ValueError(f"unknown protocol {protocol!r}")
        if protocol == "as" and n_qubits != 1:
            raise ValueError("the pointwise protocol is defined for one qubit")
        if omega_max is None:
            omega_max = 1.15 * omega_c if protocol == "fo" else omega_c
        require_finite(operation_time=operation_time, omega_c=omega_c, omega_max=omega_max)
        for name, value in (("omega_c", omega_c), ("omega_max", omega_max),
                            ("operation_time", operation_time)):
            if value <= 0:
                raise GridRangeError(f"{name} must be > 0, got {value}")
        if K < 1:
            raise CalibrationError(f"K must be >= 1, got {K}")
        self.protocol = protocol
        self.K = K
        self.omega_c = omega_c
        self.omega_max = omega_max
        self.operation_time = operation_time
        self.n_qubits = n_qubits
        self.eig_keep = _check_rule(eig_keep)
        self.as_delta = as_delta
        self.grid = grid if grid is not None else default_grid(self.omega_max)

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
        self.scale = calibrate_amplitude(unit, self.filters)
        self.spectrum = spectrum.with_scale(self.scale)
        self.c_true = signal_overlaps(self.spectrum, self.filters)
        self.fidelity_points = omega_c * np.arange(1, K + 1) / K
        self.overlap = overlap_matrix(self.filters, omega_c) if protocol == "fo" else None
        self.bins = bin_matrix(self.filters, self.omega_max) if protocol == "as" else None
        self._s_true = np.asarray(self.spectrum.evaluate(self.fidelity_points), dtype=float)
        self._n_true = float(np.linalg.norm(self._s_true))
        if protocol == "fo":
            n_r = _cutoff_size(self.grid, omega_c)
            rows = [(self.grid.omegas[:n_r], f.values[:n_r]) for f in self.filters]
        else:
            omega_points = _pointwise_omegas(self.omega_max, K)
            rows = [(omega_points, unit) for unit in np.eye(K)]
        self._G = np.array([_interp(self.fidelity_points, omegas, values)
                            for omegas, values in rows])

    def run_once(self, noise: NoiseModel):
        """One noisy protocol run -> (fidelity, result-or-None).

        The fidelity comes from :meth:`_score_block`, as in any block.
        Degenerate runs (all filters saturated, a singular inversion or a
        zero estimate) score fidelity 0: the estimate carries no
        information, and the result is None.  Otherwise the result is
        :func:`fo_reconstruct` or :func:`as_reconstruct` of the run's
        estimates under the context's rule or variant.
        """
        c_hat, _ = measure_batch(self.c_true, noise, self.operation_time,
                                 derive_seed_array(noise.seed, np.arange(self.K)))
        fids, degenerate = self._score_block(c_hat[None, :])
        fid = float(fids[0])
        if degenerate[0]:
            return fid, None
        if self.protocol == "fo":
            result = fo_reconstruct(self.filters, c_hat, self.omega_c, eig_keep=self.eig_keep,
                                    overlap=self.overlap)
        else:
            result = as_reconstruct(self.filters, c_hat, self.omega_max,
                                    delta_approx=self.as_delta, bins=self.bins)
        result.fidelity = fid
        return fid, result

    def _score_block(self, c_hat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Fidelities of a block of repetitions, one row of K estimates
        each, and the mask of rows that scored 0 as degenerate.  Rows are
        grouped by kept set and retention rule (``"cv"`` picks it per row);
        each group's map is built once into a (K, P, groups) stack, and
        one :func:`_cosine_rows` call scores them all, gathering each
        term's maps per row.  Under ``"cv"`` each kept set is decomposed
        once.  An empty block scores two empty arrays."""
        kept = np.isfinite(c_hat)
        rules = [self.eig_keep] * len(c_hat)
        if self.protocol == "fo" and isinstance(self.eig_keep, str):
            folds = {}  # kept set -> its cross-validation folds
            for i, (row, m) in enumerate(zip(c_hat, kept)):
                if m.tobytes() not in folds:
                    folds[m.tobytes()] = _cv_folds(self.overlap[np.ix_(m, m)])
                rules[i] = _cv_threshold(folds[m.tobytes()], row[m])
        groups = {}
        index = np.array([groups.setdefault((m.tobytes(), rule), len(groups))
                          for m, rule in zip(kept, rules)], dtype=np.intp)
        maps = np.zeros((self.K, self.fidelity_points.size, len(groups)))
        for (m, rule), g in groups.items():
            m = np.frombuffer(m, dtype=bool)
            W = self._linear_map(np.flatnonzero(m), rule)
            if W is not None:
                maps[m, :, g] = W
        return _cosine_rows(self._s_true, self._n_true, np.where(kept, c_hat, 0.0),
                            maps, index)

    def _linear_map(self, idx: np.ndarray, rule) -> np.ndarray | None:
        """The map (kept x P) from the estimates ``idx`` of a row to its
        estimate at the fidelity points under the "fo" retention ``rule``
        (a count or threshold); None where the inversion degenerates."""
        if idx.size == 0:
            return None
        if self.protocol == "as" and self.as_delta:
            return self._G[idx] / np.diag(self.bins)[idx, None]
        try:
            if self.protocol == "as":
                M_kept = self.bins[idx, :]
                if idx.size == self.K:
                    _checked_condition(np.linalg.svd(M_kept, compute_uv=False))
                    return np.linalg.solve(M_kept.T, self._G)
                W, _, _, svals = np.linalg.lstsq(M_kept.T, self._G, rcond=None)
                _checked_condition(svals)
                return W
            lam_r, U_r = _retained_basis(self.overlap[np.ix_(idx, idx)], rule)
        except (DegenerateBasisError, IllConditionedInversionError):
            return None
        return (U_r / lam_r) @ (U_r.T @ self._G[idx])


# ---------------------------------------------------------------------------
# job engine and repetition engine (optionally parallel, byte-deterministic)
# ---------------------------------------------------------------------------

#: the job function of a pool run, adopted by each forked worker's initializer
_WORKER_JOB: list = []


def _call_job(i: int):
    return _WORKER_JOB[0](i)


def run_jobs(fn, n: int, workers: int = 1) -> list:
    """``[fn(i) for i in range(n)]``.  With ``workers > 1`` and ``n > 1``
    the jobs run one index per task in a fork pool of ``min(workers, n)``
    processes that inherit ``fn`` through its initializer (only indices and
    results are pickled), or serially where fork is unavailable.  A job's
    error is raised once.  Results are kept by index."""
    if workers > 1 and n > 1:
        import multiprocessing as mp
        try:
            pool = mp.get_context("fork").Pool(min(workers, n), initializer=_WORKER_JOB.append,
                                               initargs=(fn,))
        except (ValueError, OSError):  # no fork on this platform, or fork failed
            pool = None
        if pool is not None:
            with pool:
                return pool.map(_call_job, range(n), chunksize=1)
    return [fn(i) for i in range(n)]


#: repetitions per readout batch; a job is one block of one cell.  A
#: block's numpy calls cost about the same at any size, while its
#: temporaries grow with it: about 1.1 MB at 512 rows, 2.3 MB at 1024.
_BLOCK = 512


def _run_block(cells, ci: int, start: int, stop: int) -> np.ndarray:
    """Fidelities of repetitions ``start..stop-1`` of cell ``ci``.
    Repetition r reads filter k on the stream ``derive_seed(cell seed, r,
    k)``, all drawn and scored in one batch."""
    ctx, noise = cells[ci]
    seeds = derive_seed_array(noise.seed, np.arange(start, stop)[:, None], np.arange(ctx.K))
    c_hat, _ = measure_batch(ctx.c_true, noise, ctx.operation_time, seeds)
    return ctx._score_block(c_hat)[0]


def run_repetitions(cells, repetitions: int, workers: int = 1) -> np.ndarray:
    """Fidelities of seeded repetitions, shape ``(len(cells), repetitions)``.

    A cell is ``(context, noise)``: a :class:`ProtocolContext`, which
    carries its inversion, and the :class:`NoiseModel` it runs under.  The
    noise model's seed is the cell's seed base, and repetition r equals
    ``context.run_once`` at ``derive_seed(cell seed, r)``.  A job is a block of up
    to ``_BLOCK`` (512) repetitions of one cell, read out and scored in one
    batch (each term of the score gathers its own maps, so a block holds no
    (K, P, R) stack), and :func:`run_jobs` runs them on ``workers``
    processes; the output is the same for any worker count and block size.
    """
    cells = list(cells)
    fids = np.zeros((len(cells), repetitions))
    jobs = [(ci, start, min(start + _BLOCK, repetitions))
            for ci in range(len(cells)) for start in range(0, repetitions, _BLOCK)]
    blocks = run_jobs(lambda i: _run_block(cells, *jobs[i]), len(jobs), workers)
    for (ci, start, stop), block in zip(jobs, blocks):
        fids[ci, start:stop] = block
    return fids


def mean_se(values: np.ndarray) -> tuple[float, float]:
    """Mean and its standard error (0 for a single value)."""
    mean = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(values.size)) if values.size > 1 else 0.0
    return mean, se


@dataclass(eq=False)
class ScanResult:
    """Fidelity mean and se at each candidate operation time of one scan;
    ``best`` indexes the candidate of the largest mean."""

    times: np.ndarray
    fidelity_mean: np.ndarray
    fidelity_se: np.ndarray
    best: int

    @property
    def best_time(self) -> float:
        return float(self.times[self.best])


def scan_optimal_time(scans, repetitions: int, workers: int = 1) -> list[ScanResult]:
    """Fidelity against operation time, one :class:`ScanResult` per scan.

    A scan is ``(contexts, noise)``: the contexts of one protocol at its
    candidate operation times, each with its inversion, and the noise
    model they run under.  Candidate t of a scan is the repetition cell
    ``(context, noise at seed derive_seed(noise.seed, t))`` and runs
    ``repetitions`` repetitions.  Every cell of every scan runs in
    one :func:`run_repetitions` call on ``workers`` processes, which does
    not change the result; a scan without candidates raises ``ValueError``.
    """
    scans = [(list(contexts), noise) for contexts, noise in scans]
    if any(not contexts for contexts, _ in scans):
        raise ValueError("need at least one candidate operation time")
    cells = [(ctx, replace(noise, seed=derive_seed(noise.seed, ti)))
             for contexts, noise in scans for ti, ctx in enumerate(contexts)]
    stats = iter(map(mean_se, run_repetitions(cells, repetitions, workers)))
    results = []
    for contexts, _ in scans:
        means, ses = np.array([next(stats) for _ in contexts]).T
        results.append(ScanResult(
            times=np.array([ctx.operation_time for ctx in contexts], dtype=float),
            fidelity_mean=means, fidelity_se=ses, best=int(np.argmax(means))))
    return results
