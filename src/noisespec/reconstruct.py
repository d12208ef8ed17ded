"""Spectral reconstruction protocols.

Two estimators are implemented on top of the same measurement chain:

* orthogonalization ("fo"): eigendecompose the filter overlap matrix, expand
  the spectrum in the induced orthonormal filter basis, optionally dropping
  small-eigenvalue terms that only amplify noise;
* pointwise ("as"): solve a binned linear system mapping per-bin spectral
  weight to the measured coefficients, yielding the spectrum at the K
  discrete frequencies ``omega_max * k / K``.

Both estimates are linear in the K coefficients once the retention rule is
fixed, so a repetition's fidelity is a cosine taken after a linear map
``W`` (K x P, P fidelity points) of its estimates.  A
:class:`ProtocolContext` builds ``W`` once per retention rule and scores a
whole block of fully finite repetitions through it.  Every sum in that
kernel runs in a fixed order of elementwise numpy operations, so a
repetition's fidelity does not depend on the block size, its position in
the block or the BLAS build.  It agrees with the per-row reference
``fidelity(spectrum, fo_reconstruct(...) / as_reconstruct(...), points)``
within 1e-12 where the inverted system is well conditioned, as under
``DEFAULT_TAU`` (condition number at most 1/tau = 500).  The two round
differently, so the gap grows with the condition number: measured 1e-12
for an as system at 5e6, 7e-13 and 2e-10 for fo retaining terms down to
1e-9 and 1e-14 of the largest eigenvalue.  Rows with a saturated readout,
the ``"cv"`` rule and degenerate inversions are scored by the per-row
reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (DegenerateBasisError, GridRangeError,
                     IllConditionedInversionError, UndefinedFidelityError)
from .filterfn import (FrequencyGrid, default_grid, filter_function, overlap_matrix,
                       signal_overlap)
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
        return _interp(omega, self.omegas, self.values)


def _interp(omega, omegas: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``values`` sampled at ``omegas``, linearly interpolated at ``omega``;
    a point outside the samples raises :class:`GridRangeError`."""
    omega = np.asarray(omega, dtype=float)
    lo, hi = omegas[0], omegas[-1]
    if np.any(omega < lo - 1e-9) or np.any(omega > hi + 1e-9):
        raise GridRangeError(f"omega outside estimate range [{lo}, {hi}]")
    return np.interp(omega, omegas, values)


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
    kept = np.flatnonzero(_finite_mask(c, saturated))
    if kept.size == 0:
        raise DegenerateBasisError("every measurement is saturated; nothing to invert")
    return _FOSystem(filters, kept, omega_c, overlap).solve(c, eig_keep)


class _FOSystem:
    """What an orthogonalization fixes before it sees the coefficients: the
    overlap matrix of the kept filters, its eigendecomposition (descending)
    and the kept filters' samples up to the cutoff.  :func:`fo_reconstruct`
    builds one per call; a :class:`ProtocolContext` keeps the one of its
    full filter set for the repetitions in which no readout saturated."""

    def __init__(self, filters, kept: np.ndarray, omega_c: float,
                 overlap: np.ndarray | None = None):
        if overlap is None:
            A = overlap_matrix([filters[i] for i in kept], omega_c)
        else:
            A = overlap[np.ix_(kept, kept)]
        lam, U = np.linalg.eigh(A)
        lam = lam[::-1]
        U = U[:, ::-1]
        if not np.isfinite(lam[0]) or lam[0] <= 0:
            raise DegenerateBasisError("overlap matrix has no positive eigenvalues")
        grid = filters[0].grid
        # smallest grid prefix whose last node reaches (or passes) the cutoff
        n_r = int(np.searchsorted(grid.omegas, omega_c - 1e-12 * max(1.0, omega_c))) + 1
        n_r = min(n_r, grid.size)
        self.kept = kept
        self.omega_c = omega_c
        self.A, self.lam, self.U = A, lam, U
        self.omegas = grid.omegas[:n_r]
        self.stacked = np.vstack([filters[i].values[:n_r] for i in kept])
        for arr in (kept, A, lam, U, self.stacked):
            arr.setflags(write=False)

    def solve(self, c: np.ndarray, eig_keep) -> ReconstructionResult:
        """Estimate from the coefficients ``c`` of all filters (the kept
        entries are used)."""
        lam, U = self.lam, self.U
        c_kept = c[self.kept]
        rule = eig_keep
        if isinstance(eig_keep, str):
            if eig_keep != "cv":
                raise ValueError(f"unknown retention rule {eig_keep!r}")
            rule = select_retention_threshold(self.A, c_kept)
        retained = _retained_count(lam, rule)
        if retained == 0:
            raise DegenerateBasisError("retention rule dropped every eigenvalue")

        inv_sqrt = 1.0 / np.sqrt(lam[:retained])
        c_tilde = (U.T @ c_kept)[:retained] * inv_sqrt
        beta = U[:, :retained] @ (c_tilde * inv_sqrt)
        estimate = beta @ self.stacked

        basis = FOBasis(eigenvalues=lam, transform=U.T, retained=retained,
                        omega_c=self.omega_c)
        return ReconstructionResult(
            protocol="fo", omegas=self.omegas, values=estimate,
            retained_count=retained, kept_indices=self.kept, basis=basis,
            params={"omega_c": self.omega_c, "eig_keep": eig_keep,
                    "tau_used": rule if not isinstance(rule, (int, np.integer)) else None})

    def linear_map(self, retained: int, points: np.ndarray) -> np.ndarray:
        """Map ``W`` with ``c @ W`` the estimate at ``points`` when the
        leading ``retained`` terms are kept: ``U_r diag(1/lam_r) U_r^T G``,
        where row k of ``G`` is kept filter k interpolated at ``points``."""
        U_r = self.U[:, :retained]
        G = np.array([_interp(points, self.omegas, row) for row in self.stacked])
        return (U_r / self.lam[:retained]) @ (U_r.T @ G)


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
    c = np.asarray(c_estimates, dtype=float)
    if c.size != len(filters):
        raise ValueError("filters and coefficient estimates differ in length")
    M = bin_matrix(filters, omega_max) if bins is None else bins
    return _as_solve(M, c, omega_max, _finite_mask(c, saturated), delta_approx)


def _condition_number(M: np.ndarray) -> float:
    svals = np.linalg.svd(M, compute_uv=False)
    return float(svals[0] / svals[-1]) if svals[-1] > 0 else math.inf


def _pointwise_omegas(omega_max: float, K: int) -> np.ndarray:
    """The K frequencies ``omega_max * k / K`` of a pointwise estimate."""
    return omega_max * np.arange(1, K + 1) / K


def _as_solve(M: np.ndarray, c: np.ndarray, omega_max: float, mask: np.ndarray,
              delta_approx: bool, full_condition: float | None = None) -> ReconstructionResult:
    """:func:`as_reconstruct` on the rows of ``M`` and ``c`` that ``mask``
    keeps.  ``full_condition``, when given, is the condition number of the
    whole of ``M``; it stands in for the SVD when no row is dropped."""
    K = M.shape[0]
    omega_points = _pointwise_omegas(omega_max, K)
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
        if full_condition is not None and kept.size == K:
            cond = full_condition
        else:
            cond = _condition_number(M_kept)
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
    return _cosine(s_true, float(np.linalg.norm(s_true)), s_est)


def _cosine(s_true: np.ndarray, n_true: float, s_est: np.ndarray) -> float:
    """Normalized inner product of ``s_true`` (of norm ``n_true``) and
    ``s_est``."""
    n_est = float(np.linalg.norm(s_est))
    if n_true == 0.0 or n_est == 0.0:
        raise UndefinedFidelityError("fidelity undefined for a zero-norm argument")
    return float(np.dot(s_true, s_est) / (n_true * n_est))


def _cosine_rows(s_true: np.ndarray, n_true: float, c_rows: np.ndarray,
                 W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cosine of ``s_true`` (of norm ``n_true``) with each row's estimate
    ``c_rows[r] @ W``, and the mask of rows whose estimate is zero (they
    score 0).  The estimate, the inner product and the squared norm are
    each summed term by term in a fixed order, one elementwise multiply and
    add per term, so a row's bits depend neither on the other rows nor on
    BLAS."""
    terms = c_rows.T
    s_est = np.multiply.outer(W[0], terms[0])  # P x R
    for w, c in zip(W[1:], terms[1:]):
        s_est += np.multiply.outer(w, c)
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
    overlap coefficient is one, and caches what no repetition changes: the
    overlap/bin matrices, the decomposition of the full filter set ("fo":
    overlap eigensystem and filter rows up to the cutoff; "as": the bin
    matrix's condition number) and the true spectrum with its norm at the
    fidelity points.  Per retention rule it also keeps the linear map from
    a fully finite row of estimates to the estimate at the fidelity points
    ("fo": ``U_r diag(1/lam_r) U_r^T`` times the filters interpolated at the
    points; "as": ``M^-T`` or, with ``as_delta``, ``diag(1/diag M)`` times
    the interpolation weights), so :meth:`_score_block` scores a block of
    repetitions with a few elementwise operations.  A repetition's fidelity
    is a fixed-order sum, the same in any block and on any BLAS, and agrees
    with the per-row reference within 1e-12 where the inverted system is
    well conditioned (see the module docstring).  A repetition in which a
    readout saturated drops filters and decomposes its own subset, as
    without the cache; so do the ``"cv"`` rule and degenerate inversions.
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
        self._s_true = np.asarray(self.spectrum.evaluate(self.fidelity_points), dtype=float)
        self._n_true = float(np.linalg.norm(self._s_true))
        self._fo_full = None
        if protocol == "fo":
            try:
                self._fo_full = _FOSystem(self.filters, np.arange(K), omega_c, self.overlap)
            except DegenerateBasisError:
                pass  # every repetition degenerates too and scores 0
        self._bins_condition = _condition_number(self.bins) if protocol == "as" else None
        self._maps = {}  # retained count ("fo") or as_delta ("as") -> map or None

    def run_once(self, noise: NoiseModel, eig_keep=DEFAULT_TAU,
                 want_result: bool = False, as_delta: bool = False):
        """One noisy protocol run -> (fidelity, result-or-None).

        Degenerate runs (all filters saturated, or a singular inversion)
        score fidelity 0: the estimate carries no information.
        """
        c_hat, _ = measure_batch(self.c_true, noise, self.operation_time,
                                 derive_seed_array(noise.seed, np.arange(self.K)))
        fid, result = self._score(c_hat, eig_keep, as_delta)
        return fid, (result if want_result else None)

    def _score(self, c_hat: np.ndarray, eig_keep, as_delta: bool):
        """(fidelity, result-or-None) of one repetition's K estimates.  The
        result is always the per-row solve; a fully finite row with a linear
        map takes its fidelity from the block kernel, as in any block."""
        finite = np.isfinite(c_hat)
        W = self._linear_map(eig_keep, as_delta) if finite.all() else None
        try:
            if self.protocol == "as":
                result = _as_solve(self.bins, c_hat, self.omega_max, finite,
                                   as_delta, self._bins_condition)
            elif self._fo_full is not None and finite.all():
                result = self._fo_full.solve(c_hat, eig_keep)
            else:
                result = fo_reconstruct(self.filters, c_hat, self.omega_c,
                                        eig_keep=eig_keep, overlap=self.overlap)
            if W is None:
                s_est = np.asarray(result.evaluate(self.fidelity_points), dtype=float)
                fid = _cosine(self._s_true, self._n_true, s_est)
            else:
                fids, zero = _cosine_rows(self._s_true, self._n_true, c_hat[None, :], W)
                if zero[0]:
                    raise UndefinedFidelityError("fidelity undefined for a zero estimate")
                fid = float(fids[0])
        except (DegenerateBasisError, IllConditionedInversionError,
                UndefinedFidelityError):
            return 0.0, None
        result.fidelity = fid
        return fid, result

    def _score_block(self, c_hat: np.ndarray, eig_keep, as_delta: bool) -> np.ndarray:
        """Fidelities of a block of repetitions, one row of K estimates
        each: the fully finite rows through the linear map at once, every
        other row by :meth:`_score`."""
        W = self._linear_map(eig_keep, as_delta)
        mapped = np.isfinite(c_hat).all(axis=1) & (W is not None)
        fids = np.zeros(len(c_hat))
        if mapped.any():
            fids[mapped] = _cosine_rows(self._s_true, self._n_true, c_hat[mapped], W)[0]
        for r in np.flatnonzero(~mapped):
            fids[r] = self._score(c_hat[r], eig_keep, as_delta)[0]
        return fids

    def _linear_map(self, eig_keep, as_delta: bool) -> np.ndarray | None:
        """The K x P map from a fully finite row of estimates to the estimate
        at the fidelity points, built once per retention rule; None where
        rows take the per-row path: the ``"cv"`` rule, a degenerate full
        basis, a rule that retains nothing, an as system past the condition
        limit, or a map that is not finite."""
        if self.protocol == "as":
            key = bool(as_delta)
        elif isinstance(eig_keep, str) or self._fo_full is None:
            return None
        else:
            key = _retained_count(self._fo_full.lam, eig_keep)
        if key not in self._maps:
            self._maps[key] = self._build_map(key)
        return self._maps[key]

    def _build_map(self, key) -> np.ndarray | None:
        if self.protocol == "fo":
            if key == 0:
                return None
            W = self._fo_full.linear_map(key, self.fidelity_points)
        else:
            omega_points = _pointwise_omegas(self.omega_max, self.K)
            weights = np.array([_interp(self.fidelity_points, omega_points, unit)
                                for unit in np.eye(self.K)])
            if key:
                W = weights / np.diag(self.bins)[:, None]
            elif math.isfinite(self._bins_condition) and self._bins_condition <= _COND_LIMIT:
                W = np.linalg.solve(self.bins.T, weights)
            else:
                return None
        return W if np.isfinite(W).all() else None


# ---------------------------------------------------------------------------
# repetition engine (optionally parallel, byte-deterministic)
# ---------------------------------------------------------------------------

#: repetitions per readout batch; a pool job is one block of one cell
_BLOCK = 256

#: cells of the pool run, set in each forked worker by its initializer
_WORKER_CELLS: list = []


def _run_block(cells, ci: int, start: int, stop: int) -> np.ndarray:
    """Fidelities of repetitions ``start..stop-1`` of cell ``ci``.
    Repetition r reads filter k on the stream ``derive_seed(cell seed, r,
    k)``, all drawn and scored in one batch."""
    ctx, noise, eig_keep, as_delta = cells[ci]
    seeds = derive_seed_array(noise.seed, np.arange(start, stop)[:, None], np.arange(ctx.K))
    c_hat, _ = measure_batch(ctx.c_true, noise, ctx.operation_time, seeds)
    return ctx._score_block(c_hat, eig_keep, as_delta)


def _adopt_cells(cells) -> None:
    _WORKER_CELLS[:] = cells


def _pool_job(job) -> np.ndarray:
    return _run_block(_WORKER_CELLS, *job)


def run_repetitions(cells, repetitions: int, workers: int = 1) -> np.ndarray:
    """Fidelities of seeded repetitions, shape ``(len(cells), repetitions)``.

    A cell is ``(ProtocolContext, NoiseModel, eig_keep, as_delta)``; the
    noise model's seed is the cell's seed base, and repetition r equals
    ``run_once`` at ``derive_seed(cell seed, r)``.  A job is a block of up
    to ``_BLOCK`` repetitions of one cell.  With ``workers > 1`` the jobs
    run in one fork pool; where fork is unavailable they run serially.
    Results are stored by index, so the output is the same for any worker
    count.
    """
    cells = list(cells)
    for ctx, _, eig_keep, as_delta in cells:
        ctx._linear_map(eig_keep, as_delta)  # built here, so forked workers share it
    fids = np.zeros((len(cells), repetitions))
    jobs = [(ci, start, min(start + _BLOCK, repetitions))
            for ci in range(len(cells)) for start in range(0, repetitions, _BLOCK)]
    blocks = None
    if workers > 1 and jobs:
        import multiprocessing as mp
        try:
            pool = mp.get_context("fork").Pool(workers, initializer=_adopt_cells,
                                               initargs=(cells,))
        except (ValueError, OSError):  # no fork on this platform, or fork failed
            pool = None
        if pool is not None:
            with pool:
                blocks = pool.map(_pool_job, jobs, chunksize=1)
    if blocks is None:
        blocks = [_run_block(cells, *job) for job in jobs]
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
