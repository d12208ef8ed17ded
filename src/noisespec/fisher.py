"""Fisher information over the function space of spectra.

Each binary-outcome filter measurement contributes a rank-one term
``w_k |F_k><F_k|``; the operator is kept in factored form (weights plus
filter directions), never assembled densely.  The weight is the Bernoulli
information per shot of the probe's measurement model: filter k survives
with ``p_k = (1 - exp(-x_k)) / 2``, ``x_k = c_k + gamma*T``, so a change
``d`` in ``x_k`` carries ``d**2 (dp/dx)**2 / (p (1 - p))``, i.e.
``w_k = (1 - 2 p_k)**2 / (4 p_k (1 - p_k)) = 1 / (exp(2 x_k) - 1)``.
``p <= 0`` (``x = 0``) makes the weight diverge and ``p >= 1/2`` carries no
information; both are excluded.  Directional information along a trial
spectrum gives the Cramer-Rao lower bound on the deviation coefficient in
that direction.  The bound models Bernoulli shot noise (``shots``
readouts of each filter); it does not cover the uniform detector error
``dp_max`` that the presets draw without ``shots``.
:func:`ml_deviation_estimate` takes its root finder from scipy through
:func:`~noisespec.errors.require_scipy`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyOperatorError, OutOfRangeError, require_scipy
from .filterfn import FilterFunction, overlap_matrix, signal_overlaps
from .reconstruct import _retained_count


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
    """Assemble the information operator from filters and their survival
    probabilities, weighting each by ``(1 - 2p)**2 / (4 p (1 - p))``.

    Filters with ``p <= 0`` (divergent weight) or ``p >= 1/2`` (zero
    information) are excluded and recorded with a reason.
    """
    filters = list(filters)
    probs = np.asarray(probabilities, dtype=float)
    if len(filters) != probs.size:
        raise OutOfRangeError("filters and probabilities differ in length")
    divergent = ~(np.isfinite(probs) & (probs > 0.0))
    keep = ~divergent & (probs < 0.5)
    if not keep.any():
        raise EmptyOperatorError("all probabilities degenerate; empty operator")
    p = probs[keep]
    out = np.flatnonzero(~keep)
    reasons = np.where(divergent[out], "divergent-weight", "zero-weight")
    # float_power is C pow, as a Python float's ** is, so each weight has the
    # bits of the scalar formula (d * d differs in the last bit for ~0.1% of d)
    return FisherOperator(filters=tuple(itertools.compress(filters, keep)),
                          weights=np.float_power(1.0 - 2.0 * p, 2) / (4.0 * p * (1.0 - p)),
                          excluded=tuple(zip(out.tolist(), reasons.tolist())))


def directional_fisher(fio: FisherOperator, direction) -> float:
    """Information ``sum_k w_k (integral direction * F_k)**2`` (>= 0)."""
    d = signal_overlaps(direction, fio.filters)
    return float(np.sum(fio.weights * d ** 2))


def cramer_rao(fio: FisherOperator, direction) -> float:
    """Lower bound ``1 / sqrt(information)`` on the deviation coefficient
    along ``direction``; infinite when the direction overlaps no filter."""
    info = directional_fisher(fio, direction)
    if info <= 0.0:
        return math.inf
    return 1.0 / math.sqrt(info)


def fio_rank(fio: FisherOperator, tolerance: float = 1e-10) -> int:
    """Numerical rank of the operator: rank of the Gram matrix of weighted
    directions, counting positive singular values ``>= tolerance * largest``."""
    if fio.n_terms == 0:
        return 0
    gram = overlap_matrix(fio.filters, fio.filters[0].grid.omega_max_grid)
    root_w = np.sqrt(fio.weights)
    gram = gram * np.outer(root_w, root_w)
    return _retained_count(np.linalg.svd(gram, compute_uv=False), float(tolerance))


def ml_deviation_estimate(c_base, d_overlaps, counts, shots: int,
                          gamma: float = 0.0, operation_time: float = 0.0) -> float:
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

    # bracket [-10, 10], narrowed to keep every exponent positive
    lo, hi = -10.0, 10.0
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
    brentq = require_scipy("optimize", "brentq")
    return float(brentq(score, lo, hi, xtol=1e-12, rtol=1e-12))

