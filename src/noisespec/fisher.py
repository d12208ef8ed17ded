"""Fisher information over the function space of spectra.

Each binary-outcome filter measurement contributes a rank-one term
``w_k |F_k><F_k|`` with weight ``w_k = (1 - p_k) / p_k``; the operator is
kept in factored form (weights plus filter directions), never assembled
densely.  Directional information along a trial spectrum gives the
Cramer-Rao lower bound on the deviation coefficient in that direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import EmptyOperatorError
from .filterfn import FilterFunction, overlap_matrix, signal_overlap


@dataclass(frozen=True, eq=False)
class FisherOperator:
    """Factored information operator: filter directions and per-filter
    weights, plus the indices excluded for degenerate probabilities."""

    filters: tuple[FilterFunction, ...]
    weights: np.ndarray
    excluded: tuple[tuple[int, str], ...]

    @property
    def n_terms(self) -> int:
        return len(self.filters)


def build_fio(filters, probabilities) -> FisherOperator:
    """Assemble the information operator from filters and their measured
    survival probabilities.

    Filters with ``p <= 0`` (divergent weight) or ``p >= 1`` (zero-information
    boundary) are excluded and recorded with a reason.
    """
    filters = list(filters)
    probs = np.asarray(probabilities, dtype=float)
    if len(filters) != probs.size:
        raise ValueError("filters and probabilities differ in length")
    kept = []
    weights = []
    excluded = []
    for k, (f, p) in enumerate(zip(filters, probs)):
        if not math.isfinite(p) or p <= 0.0:
            excluded.append((k, "divergent-weight"))
        elif p >= 1.0:
            excluded.append((k, "zero-weight"))
        else:
            kept.append(f)
            weights.append((1.0 - p) / p)
    if not kept:
        raise EmptyOperatorError("all probabilities degenerate; empty operator")
    return FisherOperator(filters=tuple(kept), weights=np.asarray(weights),
                          excluded=tuple(excluded))


def directional_overlaps(fio: FisherOperator, direction,
                         omega_int_max: float | None = None) -> np.ndarray:
    """Overlaps ``d_k = integral direction * F_k`` for every retained filter."""
    return np.array([signal_overlap(direction, f, omega_int_max)
                     for f in fio.filters])


def directional_fisher(fio: FisherOperator, direction,
                       omega_int_max: float | None = None) -> float:
    """Information ``sum_k w_k (integral direction * F_k)**2`` (>= 0)."""
    d = directional_overlaps(fio, direction, omega_int_max)
    return float(np.sum(fio.weights * d ** 2))


def cramer_rao(fio: FisherOperator, direction,
               omega_int_max: float | None = None) -> float:
    """Lower bound ``1 / sqrt(information)`` on the deviation coefficient
    along ``direction``; infinite when the direction overlaps no filter."""
    info = directional_fisher(fio, direction, omega_int_max)
    if info <= 0.0:
        return math.inf
    return 1.0 / math.sqrt(info)


def fio_rank(fio: FisherOperator, tolerance: float = 1e-10,
             omega_c: float | None = None) -> int:
    """Numerical rank of the operator: rank of the Gram matrix of weighted
    directions, counting singular values ``>= tolerance * largest``."""
    if fio.n_terms == 0:
        return 0
    cut = omega_c if omega_c is not None else fio.filters[0].grid.omega_max_grid
    gram = overlap_matrix(fio.filters, cut)
    root_w = np.sqrt(fio.weights)
    gram = gram * np.outer(root_w, root_w)
    svals = np.linalg.svd(gram, compute_uv=False)
    if svals[0] <= 0:
        return 0
    return int(np.count_nonzero(svals >= tolerance * svals[0]))


def ml_deviation_estimate(c_base, d_overlaps, counts, shots: int,
                          gamma: float = 0.0, operation_time: float = 0.0,
                          bracket: float = 10.0) -> float:
    """Maximum-likelihood estimate of the deviation coefficient.

    Model: the true spectrum is ``S + eps * direction``, so filter k has
    exponent ``c_k + eps * d_k + gamma*T`` and survival probability
    ``p_k(eps) = (1 - exp(-...)) / 2``; ``counts`` are the observed binomial
    successes out of ``shots``.  The score equation is solved for ``eps``.
    """
    c = np.asarray(c_base, dtype=float)
    d = np.asarray(d_overlaps, dtype=float)
    n = np.asarray(counts, dtype=float)
    offset = gamma * operation_time

    def score(eps):
        expo = np.clip(c + eps * d + offset, 1e-12, 700.0)
        e = np.exp(-expo)
        p = 0.5 * (1.0 - e)
        dp = 0.5 * e * d
        return float(np.sum((n / p - (shots - n) / (1.0 - p)) * dp))

    lo, hi = -bracket, bracket
    # keep exponents positive on the bracket
    pos = d > 0
    if np.any(pos):
        lo = max(lo, float(np.max(-(c[pos] + offset) / d[pos])) + 1e-9)
    neg = d < 0
    if np.any(neg):
        hi = min(hi, float(np.min(-(c[neg] + offset) / d[neg])) - 1e-9)
    s_lo, s_hi = score(lo), score(hi)
    if s_lo * s_hi > 0:
        # score monotone side: estimate pinned at the admissible boundary
        return lo if abs(s_lo) < abs(s_hi) else hi
    return float(brentq(score, lo, hi, xtol=1e-12, rtol=1e-12))

