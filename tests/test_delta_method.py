"""The repetition engine against a delta-method prediction of its mean
fidelity, which does not depend on the seed.

A readout is ``p = p_true + u`` with ``E u = 0`` and ``Var u = dp^2 / 3``
(detector error uniform on ``[-dp, dp]``) or ``p (1 - p) / shots`` (binomial
shot frequency, ``dp = 0``).  Its inversion is ``c_hat = c - log(1 - a u)``
with ``a = 2 e^{c + Gamma T}``, so to second order ``c_hat`` has mean
``c + a^2 Var u / 2`` and variance ``a^2 Var u``.  With every filter kept,
a cell's estimate at the fidelity points is ``c_hat W`` for the linear map
``W`` of all K filters: its mean is ``(c + a^2 Var u / 2) W`` and its
covariance ``W^T diag(a^2 Var u) W``.  A second-order expansion of the
cosine in the estimate gives the expected fidelity (the delta method;
Casella & Berger, Statistical Inference, 2nd ed., section 5.5.4).

The expansion holds while ``a u`` is small.  Every cell keeps ``a dp_eq <=
0.25`` for each filter, with ``dp_eq = sqrt(3 Var u)`` the half-width of a
uniform error of the same variance, so no uniform readout saturates, and
``c > log(1 + a dp_eq)``, so no uniform readout's estimate is clamped at 0.
The cross-validated rule (``eig_keep = "cv"``) is left out: its map depends
on the data.
"""

from functools import lru_cache

import numpy as np
import pytest

from noisespec import NoiseModel, SpectralDensity, run_repetitions
from noisespec.probe import survival_probability
from noisespec.reconstruct import DEFAULT_TAU, ProtocolContext, mean_se

SPECTRUM = SpectralDensity.lorentzian_mixture([(1.0, 2.0, 1.0), (0.7, 6.0, 2.0)])
#: standard errors a cell's Monte Carlo mean may lie from its prediction
MARGIN = 4.0


def _predicted_fidelity(ctx: ProtocolContext, noise: NoiseModel):
    """(delta-method mean fidelity of the cell, ``a``, ``dp_eq``), the last
    two per filter."""
    c, T = ctx.c_true, ctx.operation_time
    a = 2.0 * np.exp(c + noise.gamma * T)
    var_u = np.full(c.size, noise.dp_max ** 2 / 3.0)
    if noise.shots is not None:
        p = survival_probability(c, noise.gamma, T)
        var_u += p * (1.0 - p) / noise.shots
    var_c = a ** 2 * var_u
    W = ctx._linear_map(np.arange(ctx.K), ctx.eig_keep)
    mean = (c + var_c / 2.0) @ W
    cov = W.T @ (var_c[:, None] * W)
    s = ctx._s_true / np.linalg.norm(ctx._s_true)
    n = float(np.linalg.norm(mean))
    f = float(s @ mean) / n
    # Hessian of v -> s.v / |v| at the mean
    H = (-(np.outer(s, mean) + np.outer(mean, s)) / n ** 3
         - f * (np.eye(mean.size) / n ** 2 - 3.0 * np.outer(mean, mean) / n ** 4))
    return f + 0.5 * float(np.sum(H * cov)), a, np.sqrt(3.0 * var_u)


@lru_cache(maxsize=None)
def _context(protocol, T, K, eig_keep, as_delta):
    return ProtocolContext(protocol, SPECTRUM, T, K=K, eig_keep=eig_keep, as_delta=as_delta)


# (protocol, T, K, eig_keep, as_delta, gamma, dp_max, shots, repetitions)
CELLS = [
    ("fo", 1.0, 20, DEFAULT_TAU, False, 0.0, 0.01, None, 4000),
    ("fo", 1.0, 20, DEFAULT_TAU, False, 0.3, 0.01, None, 4000),
    ("fo", 2.0, 20, DEFAULT_TAU, False, 0.0, 0.02, None, 4000),
    ("fo", 2.0, 20, DEFAULT_TAU, False, 0.3, 0.01, None, 4000),
    ("fo", 2.0, 20, 7, False, 0.1, 0.01, None, 4000),
    ("fo", 3.0, 20, DEFAULT_TAU, False, 0.1, 0.01, None, 4000),
    ("fo", 5.0, 20, DEFAULT_TAU, False, 0.0, 0.01, None, 4000),
    ("fo", 5.0, 20, DEFAULT_TAU, False, 0.1, 0.005, None, 4000),
    ("as", 10.0, 20, DEFAULT_TAU, False, 0.0, 0.005, None, 4000),
    ("as", 25.0, 20, DEFAULT_TAU, False, 0.0, 0.005, None, 4000),
    ("as", 5.0, 20, DEFAULT_TAU, True, 0.0, 0.01, None, 4000),
    ("as", 5.0, 20, DEFAULT_TAU, True, 0.1, 0.005, None, 4000),
    ("as", 25.0, 20, DEFAULT_TAU, True, 0.0, 0.005, None, 4000),
    # the shot path builds one generator per readout: fewer readouts
    ("fo", 2.0, 10, DEFAULT_TAU, False, 0.0, 0.0, 2000, 1000),
]


def _cell_id(cell):
    protocol, T, K, eig_keep, as_delta, gamma, dp, shots, _ = cell
    variant = ("-delta" if as_delta else "") if protocol == "as" else f"-keep{eig_keep:g}"
    noise = f"shots{shots}" if shots else f"dp{dp:g}"
    return f"{protocol}{variant}-T{T:g}-K{K}-gamma{gamma:g}-{noise}"


@pytest.mark.parametrize("index, cell", enumerate(CELLS), ids=[_cell_id(c) for c in CELLS])
def test_mean_fidelity_matches_prediction(index, cell):
    protocol, T, K, eig_keep, as_delta, gamma, dp, shots, repetitions = cell
    ctx = _context(protocol, T, K, eig_keep, as_delta)
    noise = NoiseModel(dp_max=dp, gamma=gamma, shots=shots, seed=100 + index)
    predicted, a, dp_eq = _predicted_fidelity(ctx, noise)
    # the premises of the expansion: small noise, no saturation, no clamp
    assert np.max(a * dp_eq) <= 0.25
    assert np.all(ctx.c_true > np.log1p(a * dp_eq))
    mean, se = mean_se(run_repetitions([(ctx, noise)], repetitions)[0])
    assert abs(mean - predicted) <= MARGIN * se, (mean, predicted, (mean - predicted) / se)
