"""Measurement chain of the dephasing probe, and its time-domain oracle.

The chain is: overlap coefficient ``c`` -> survival probability
``p = (1 - exp(-c - Gamma*T)) / 2`` -> noisy readout -> inverted estimate
``c_hat``.  :func:`measure_batch` runs the chain for a whole block of
readouts with the exact vectorized stream of :mod:`noisespec.seeding`;
:func:`measure` is its one-readout view.

The package's float convention: elementwise kernels (here ``np.exp`` and
``np.log1p``) are numpy ufuncs on whole arrays.  An entry's bits depend
only on its inputs, not on its block or its position in it (tested entry
by entry); bytes are per host and numpy build, as the filter samples and
BLAS overlap products already are.

The oracle recomputes ``chi = 4 * double-integral of y(t') y(t'')
g(t' - t'')`` entirely in the time domain, with the autocorrelation ``g``
of the even spectral extension in closed form, so it shares nothing with
the frequency-grid pipeline it cross-checks.  :func:`autocorrelation`
takes the exponential integral from scipy through
:func:`~noisespec.errors.require_scipy`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (GridRangeError, OutOfRangeError, UnsupportedOracleError, require_finite,
                     require_integer, require_scipy)
from .modulation import to_step_function
from .seeding import derive_seed, first_uniform, make_rng
from .spectra import SpectralDensity

_SATURATION_MARGIN = 1e-9


@dataclass(frozen=True)
class NoiseModel:
    """Detector and probe noise settings.

    Parameters
    ----------
    dp_max : float
        Maximal absolute detector error; each readout is shifted by a draw
        from ``uniform(-dp_max, dp_max)``.  Must lie in ``[0, 0.5)``.
    gamma : float
        Intrinsic dephasing rate of the probe (>= 0); adds ``gamma * T`` to
        the decoherence exponent.
    shots : int or None
        When set, the deterministic probability is replaced by a binomial
        frequency over this many shots before detector error is added.
        Must be a positive integer.
    seed : int
        Master seed; per-filter streams derive from it by the documented
        XOR/splitmix64 rule, so parallel runs reproduce serial ones.
    """

    dp_max: float = 0.0
    gamma: float = 0.0
    shots: int | None = None
    seed: int = 0

    def __post_init__(self):
        require_finite(dp_max=self.dp_max, gamma=self.gamma)
        if not 0.0 <= self.dp_max < 0.5:
            raise OutOfRangeError(f"dp_max must be in [0, 0.5), got {self.dp_max}")
        if self.gamma < 0:
            raise OutOfRangeError(f"gamma must be >= 0, got {self.gamma}")
        if self.shots is not None:
            require_finite(shots=self.shots)
            require_integer("shots", self.shots, 1)


@dataclass(frozen=True)
class MeasurementRecord:
    """One simulated filter measurement: readout probability, estimate, saturation."""

    p_measured: float
    c_estimate: float
    saturated: bool


def survival_probability(c, gamma: float, operation_time: float):
    """Probability ``(1 - exp(-c - gamma*T)) / 2`` of surviving readout, of
    a scalar ``c`` or of every entry of an array; ``c = inf`` saturates,
    and a NaN entry fails every check."""
    c_arr = np.asarray(c, dtype=float)
    if not (np.all(c_arr >= 0) and 0 <= gamma < math.inf and 0 <= operation_time < math.inf):
        raise OutOfRangeError(f"need c >= 0, finite gamma, T >= 0: {c}, {gamma}, {operation_time}")
    p = 0.5 * (1.0 - np.exp(-c_arr - gamma * operation_time))
    return p if c_arr.ndim else float(p)


def invert_probability(p_measured: float, gamma: float,
                       operation_time: float) -> tuple[float, bool]:
    """Invert a measured probability back to a coefficient estimate.

    Returns ``(c_hat, saturated)``.  Saturated readouts
    (``p >= 1/2 - 1e-9``) carry no spectral information: ``c_hat`` is
    ``inf`` and the flag is set, so callers can drop them.  Negative
    estimates from noise are clamped to zero (c is an integral of
    nonnegative quantities).  A NaN or out-of-range ``p`` and a negative
    or non-finite ``gamma`` or ``T`` are refused.
    """
    if not (0 <= p_measured <= 1 and 0 <= gamma < math.inf and 0 <= operation_time < math.inf):
        raise OutOfRangeError(f"need p in [0, 1], finite gamma, T >= 0: "
                              f"{p_measured}, {gamma}, {operation_time}")
    c_hat, saturated = _invert(np.array([p_measured], dtype=float), gamma, operation_time)
    return float(c_hat[0]), bool(saturated[0])


def _invert(p: np.ndarray, gamma: float, operation_time: float):
    """:func:`invert_probability` of every entry of ``p``."""
    saturated = p >= 0.5 - _SATURATION_MARGIN
    c_hat = np.full(p.shape, math.inf)
    free = ~saturated
    c_free = -np.log1p(-2.0 * p[free]) - gamma * operation_time
    # 0.0 unless c > 0.0: NaN and -0.0 give 0.0
    c_hat[free] = np.where(c_free > 0.0, c_free, 0.0)
    return c_hat, saturated


def _readouts(c, noise: NoiseModel, operation_time: float, seeds):
    """``(p_measured, c_hat, saturated)`` arrays over ``broadcast(c, seeds)``;
    the readout of each entry draws from the stream of its seed."""
    p_true, seeds = np.broadcast_arrays(survival_probability(c, noise.gamma, operation_time),
                                        seeds)
    dp = noise.dp_max
    if noise.shots is None:
        p = p_true + first_uniform(seeds, -dp, dp) if dp > 0 else p_true
    else:
        # the binomial sampler is not reproduced: one generator per readout,
        # drawing the shot frequency first, then the detector error
        p = np.empty(p_true.shape)
        for ix in np.ndindex(p_true.shape):
            rng = make_rng(int(seeds[ix]))
            value = rng.binomial(noise.shots, float(p_true[ix])) / noise.shots
            p[ix] = value + rng.uniform(-dp, dp) if dp > 0 else value
    p = np.clip(p, 0.0, 1.0)
    c_hat, saturated = _invert(p, noise.gamma, operation_time)
    return p, c_hat, saturated


def measure_batch(c, noise: NoiseModel, operation_time: float,
                  seeds) -> tuple[np.ndarray, np.ndarray]:
    """Simulate noisy measurements of the coefficients ``c``, one per seed.

    ``c`` (shape ``(K,)`` or ``(R, K)``) and the stream seeds ``seeds``
    (shape ``(R, K)``) broadcast together; returns ``(c_hat, saturated)``
    of that shape.  Entry ``[r, k]`` equals :func:`measure` of ``c[..., k]``
    on the stream ``seeds[r, k]`` bit for bit: the detector error is the
    stream's first uniform draw (computed for all seeds at once by
    :func:`~noisespec.seeding.first_uniform`).
    """
    _, c_hat, saturated = _readouts(c, noise, operation_time, seeds)
    return c_hat, saturated


def measure(c: float, noise: NoiseModel, operation_time: float,
            filter_index: int = 0) -> MeasurementRecord:
    """Simulate one noisy measurement of the coefficient ``c``.

    Draw order within the per-filter stream ``derive_seed(noise.seed,
    filter_index)`` is fixed: the binomial shot frequency (when ``shots``
    is set) comes first, then the uniform detector error.  The result is
    clamped to ``[0, 1]`` and inverted.  This is the one-readout view of
    :func:`measure_batch`.
    """
    p, c_hat, saturated = _readouts([c], noise, operation_time, np.array(
        [derive_seed(noise.seed, filter_index)], dtype=np.uint64))
    return MeasurementRecord(float(p[0]), float(c_hat[0]), bool(saturated[0]))


# ---------------------------------------------------------------------------
# time-domain oracle
# ---------------------------------------------------------------------------

def autocorrelation(spectrum: SpectralDensity, tau) -> np.ndarray:
    """Autocorrelation ``g(tau)`` of the field for an analytic spectrum.

    ``g`` is the inverse transform ``(1/pi) integral_0^inf S(w) cos(w tau) dw``
    of the even extension ``S(|w|)``.  Each Lorentzian component has the
    closed form (for ``w0 > 0``, ``a = sqrt(width_scale)``, ``tau > 0``)::

        g = (A/pi) Re[ (K+ - K-) / (2 i a) ],
        K+- = exp(i z+- tau) * (E1(i z+- tau) + {2 pi i  for z+}),
        z+- = w0 +- i/a,

    with ``E1`` the exponential integral; components centered at zero reduce
    to ``(A / 2a) exp(-|tau| / a)``.
    """
    if not spectrum.is_analytic:
        raise UnsupportedOracleError(
            "time-domain oracle supports analytic (Lorentzian mixture) spectra only")
    exp1 = require_scipy("special", "exp1")

    tau_arr = np.abs(np.atleast_1d(np.asarray(tau, dtype=float)))
    out = np.zeros(tau_arr.shape)
    for comp in spectrum.components:
        amp = spectrum.scale * comp.amplitude
        a = math.sqrt(comp.width_scale)
        w0 = comp.center
        if w0 == 0.0:
            out += (amp / (2.0 * a)) * np.exp(-tau_arr / a)
            continue
        zero = tau_arr == 0.0
        pos = ~zero
        if np.any(zero):
            out[zero] += (amp / (math.pi * a)) * (0.5 * math.pi + math.atan(a * w0))
        if np.any(pos):
            t = tau_arr[pos]
            zp = complex(w0, 1.0 / a)
            zm = complex(w0, -1.0 / a)
            kp = np.exp(1j * zp * t) * (exp1(1j * zp * t) + 2j * math.pi)
            km = np.exp(1j * zm * t) * exp1(1j * zm * t)
            out[pos] += (amp / math.pi) * ((kp - km) / (2j * a)).real
    return out if np.asarray(tau).ndim else float(out[0])


def _autocorr_breakpoints(bounds: np.ndarray, values: np.ndarray):
    """Piecewise-linear autocorrelation ``W(tau) = int y(t) y(t - tau) dt``
    as relu breakpoints: returns sorted positions p and slope jumps q with
    ``W(tau) = sum_k q_k * max(0, tau - p_k)``."""
    starts = bounds[:-1]
    ends = bounds[1:]
    vv = np.outer(values, values)
    pos = np.concatenate([
        (starts[:, None] - ends[None, :]).ravel(),
        (starts[:, None] - starts[None, :]).ravel(),
        (ends[:, None] - ends[None, :]).ravel(),
        (ends[:, None] - starts[None, :]).ravel(),
    ])
    q = np.concatenate([vv.ravel(), -vv.ravel(), -vv.ravel(), vv.ravel()])
    order = np.argsort(pos, kind="stable")
    pos = pos[order]
    q = q[order]
    uniq, inverse = np.unique(pos, return_inverse=True)
    q_merged = np.bincount(inverse, weights=q, minlength=uniq.size)
    return uniq, q_merged


class _StepAutocorrelation:
    """Exact autocorrelation of a piecewise-constant modulation."""

    def __init__(self, seq_or_set):
        bounds, values = to_step_function(seq_or_set)
        self.duration = float(bounds[-1])
        self.breaks, jumps = _autocorr_breakpoints(bounds, values)
        self._cum_slope = np.cumsum(jumps)
        self._cum_inter = np.cumsum(jumps * self.breaks)

    def __call__(self, tau):
        tau = np.asarray(tau, dtype=float)
        idx = np.searchsorted(self.breaks, tau, side="right") - 1
        idx = np.clip(idx, 0, self.breaks.size - 1)
        return self._cum_slope[idx] * tau - self._cum_inter[idx]


def _oracle_panels(breaks: np.ndarray, duration: float, rate_scale: float):
    """Integration panel edges on [0, T]: autocorrelation breakpoints,
    refined near zero (log-singular g derivative) and capped so each panel
    sees at most ~2 radians of the fastest autocorrelation oscillation."""
    edges = [0.0, duration]
    edges.extend(b for b in breaks if 0.0 < b < duration)
    first = min((b for b in breaks if b > 1e-300), default=duration)
    first = min(first, duration)
    edges.extend(first * 0.5 ** j for j in range(1, 11))
    edges = np.unique(np.asarray(edges))
    max_len = min(2.0 / rate_scale, duration / 8.0)
    out = [np.array([0.0])]
    for lo, hi in zip(edges[:-1], edges[1:]):
        n_sub = max(1, int(math.ceil((hi - lo) / max_len)))
        out.append(np.linspace(lo, hi, n_sub + 1)[1:])
    return np.concatenate(out)


def chi_time_domain(seq_or_set, spectrum: SpectralDensity,
                    operation_time: float | None = None) -> float:
    """Brute-force decoherence value ``chi`` from the time domain (oracle).

    Evaluates ``4 * int_0^T int_0^T y(t') y(t'') g(t' - t'') dt' dt''`` as
    ``8 * int_0^T g(tau) W(tau) dtau`` with the segment-exact piecewise
    linear autocorrelation ``W`` of ``y`` and closed-form ``g``.  Only
    analytic (Lorentzian mixture) spectra are supported.
    """
    if not spectrum.is_analytic:
        raise UnsupportedOracleError(
            "time-domain oracle supports analytic (Lorentzian mixture) spectra only")
    acf = _StepAutocorrelation(seq_or_set)
    if operation_time is not None and not math.isclose(operation_time, acf.duration):
        raise GridRangeError(f"operation_time {operation_time} != sequence duration "
                             f"{acf.duration}")
    rate_scale = max(
        max(c.center + 1.0 / math.sqrt(c.width_scale) for c in spectrum.components),
        1.0 / acf.duration)
    edges = _oracle_panels(acf.breaks, acf.duration, rate_scale)
    nodes, weights = np.polynomial.legendre.leggauss(12)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    t = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    w = (half[:, None] * weights[None, :]).ravel()
    integrand = autocorrelation(spectrum, t) * acf(t)
    return 8.0 * float(np.sum(w * integrand))
