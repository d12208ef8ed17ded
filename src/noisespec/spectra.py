"""Power spectral densities: Lorentzian mixtures, grid-sampled spectra and
time-dependent composite signals.

All spectra are one-sided (defined for angular frequency ``omega >= 0``).
Values carry arbitrary units; absolute scale is fixed by
:func:`calibrate_amplitude` against a concrete filter set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (CalibrationError, GridRangeError, NonFiniteInputError, OutOfRangeError,
                     require_finite)
from .readonly import ReadOnlyArrays


@dataclass(frozen=True)
class LorentzianComponent:
    """One Lorentzian line ``amplitude / (1 + width_scale * (omega - center)**2)``.

    Parameters
    ----------
    amplitude : float
        Peak spectral power, >= 0 (arbitrary units).
    center : float
        Angular frequency of the peak, >= 0.
    width_scale : float
        Dimensionless positive factor multiplying ``(omega - center)**2``;
        the half width at half maximum is ``1 / sqrt(width_scale)``.
    """

    amplitude: float
    center: float
    width_scale: float

    def __post_init__(self):
        require_finite(amplitude=self.amplitude, center=self.center,
                       width_scale=self.width_scale)
        if self.amplitude < 0:
            raise OutOfRangeError(f"amplitude must be >= 0, got {self.amplitude}")
        if self.center < 0:
            raise GridRangeError(f"center must be >= 0, got {self.center}")
        if self.width_scale <= 0:
            raise OutOfRangeError(f"width_scale must be > 0, got {self.width_scale}")

    def evaluate(self, omega):
        omega = np.asarray(omega, dtype=float)
        return self.amplitude / (1.0 + self.width_scale * (omega - self.center) ** 2)


@dataclass(frozen=True, eq=False)
class SpectralDensity(ReadOnlyArrays):
    """One-sided power spectral density, analytic or grid-sampled.

    Exactly one of ``components`` (Lorentzian mixture) or
    ``grid_omegas``/``grid_values`` must be set.  ``scale`` is the global
    multiplier applied on evaluation; it is never mutated in place.  The
    grid form holds read-only copies of its arrays, so the caller's arrays
    stay their own, and they stay read-only through pickle.
    """

    components: tuple[LorentzianComponent, ...] | None = None
    grid_omegas: np.ndarray | None = None
    grid_values: np.ndarray | None = None
    scale: float = 1.0

    def __post_init__(self):
        if (self.components is None) == (self.grid_omegas is None):
            raise OutOfRangeError("exactly one of components / grid form must be given")
        if self.grid_omegas is not None:
            om = np.array(self.grid_omegas, dtype=float)
            val = np.array(self.grid_values, dtype=float)
            if om.ndim != 1 or om.shape != val.shape or om.size < 2:
                raise OutOfRangeError("grid form needs matching 1-d arrays of length >= 2")
            if not (np.all(np.isfinite(om)) and np.all(np.isfinite(val))):
                raise NonFiniteInputError("grid samples must be finite")
            if not np.all(np.diff(om) > 0):
                raise GridRangeError("grid frequencies must be strictly increasing")
            om.setflags(write=False)
            val.setflags(write=False)
            object.__setattr__(self, "grid_omegas", om)
            object.__setattr__(self, "grid_values", val)
        if not math.isfinite(self.scale) or self.scale < 0:
            raise OutOfRangeError(f"scale must be finite and >= 0, got {self.scale}")

    # -- constructors -------------------------------------------------------

    @classmethod
    def lorentzian_mixture(cls, components, scale: float = 1.0) -> "SpectralDensity":
        """Build an analytic mixture from ``LorentzianComponent`` or
        ``(amplitude, center, width_scale)`` triples."""
        comps = tuple(
            c if isinstance(c, LorentzianComponent) else LorentzianComponent(*c)
            for c in components
        )
        if not comps:
            raise OutOfRangeError("mixture needs at least one component")
        return cls(components=comps, scale=scale)

    @classmethod
    def from_grid(cls, omegas, values, scale: float = 1.0) -> "SpectralDensity":
        return cls(grid_omegas=omegas, grid_values=values, scale=scale)

    @classmethod
    def from_csv(cls, path, scale: float = 1.0) -> "SpectralDensity":
        """Load a two-column CSV (frequency, value); '#' lines are comments.
        A negative power is refused: the file is a spectrum, not an estimate."""
        data = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
        if data.shape[1] != 2:
            raise OutOfRangeError(f"{path}: expected two columns, got {data.shape[1]}")
        if np.any(data[:, 1] < 0):
            raise OutOfRangeError(f"{path}: spectral power must be >= 0, got {data[:, 1].min()}")
        return cls.from_grid(data[:, 0], data[:, 1], scale=scale)

    # -- queries -------------------------------------------------------------

    @property
    def is_analytic(self) -> bool:
        return self.components is not None

    def with_scale(self, scale: float) -> "SpectralDensity":
        return replace(self, scale=scale)

    def evaluate(self, omega):
        """Spectral power at ``omega`` (scalar or array), scale applied.

        Grid-sampled spectra interpolate linearly between samples and raise
        :class:`GridRangeError` outside the sampled range.
        """
        omega = np.asarray(omega, dtype=float)
        if np.any(omega < 0):
            raise GridRangeError("spectral density is one-sided; omega must be >= 0")
        if self.components is not None:
            out = np.zeros(omega.shape)
            for comp in self.components:
                out = out + comp.evaluate(omega)
            return self.scale * out if omega.ndim else float(self.scale * out)
        lo, hi = self.grid_omegas[0], self.grid_omegas[-1]
        if np.any(omega < lo - 1e-12) or np.any(omega > hi + 1e-12):
            raise GridRangeError(
                f"omega up to {float(np.max(omega)):g} requested outside sampled range "
                f"[{lo}, {hi}] (extrapolation refused)")
        out = self.scale * np.interp(omega, self.grid_omegas, self.grid_values)
        return out if omega.ndim else float(out)

    def peak_frequency(self, omega_max: float) -> float:
        """Frequency of the dominant peak in ``[0, omega_max]`` (a
        20001-point scan for the analytic form, the samples otherwise).
        A NaN or infinite ``omega_max`` raises :class:`NonFiniteInputError`."""
        require_finite(omega_max=omega_max)
        om = (np.linspace(0.0, omega_max, 20001) if self.components is not None
              else self.grid_omegas[self.grid_omegas <= omega_max])
        return float(om[int(np.argmax(self.evaluate(om)))])


@dataclass(frozen=True, eq=False)
class CompositeSignal:
    """Oscillating two-component signal ``S(omega, t) = s1(t) S1 + s2(t) S2``
    with ``s1 = sin^2(omega_osc t)`` and ``s2 = cos^2(omega_osc t)``."""

    omega_osc: float
    component_one: SpectralDensity
    component_two: SpectralDensity

    def weights(self, t):
        t = np.asarray(t, dtype=float)
        s1 = np.sin(self.omega_osc * t) ** 2
        s2 = np.cos(self.omega_osc * t) ** 2
        return s1, s2

    def evaluate(self, omega, t):
        """Spectral power at frequency ``omega`` and time ``t >= 0``."""
        if np.any(np.asarray(t, dtype=float) < 0):
            raise GridRangeError("t must be >= 0")
        s1, s2 = self.weights(t)
        return s1 * self.component_one.evaluate(omega) + s2 * self.component_two.evaluate(omega)


def calibrate_amplitude(spectrum: SpectralDensity, filters) -> float:
    """Global scale S0 that puts the median filter overlap at one.

    Evaluates ``c_k = integral S * F_k`` for every filter (one spectrum
    sample on their shared grid) and returns the scale value such that the
    median of the ``c_k`` equals 1, which keeps the probe in its
    maximum-sensitivity range.  The input spectrum is not mutated; apply
    the result with ``spectrum.with_scale``.

    Dephasing does not enter: the optimal target ``c_k = 1`` is independent
    of the dephasing exposure, which only rescales the error of every
    coefficient by the same factor.
    """
    from .filterfn import signal_overlaps

    overlaps = signal_overlaps(spectrum, filters)
    if overlaps.size == 0:
        raise CalibrationError("no filters supplied")
    median = _median(overlaps)
    if median <= 0 or not math.isfinite(median):
        raise CalibrationError("all filter overlaps vanish; cannot calibrate S0")
    return spectrum.scale / median


def _median(values) -> float:
    """``np.median`` of nonempty ``values`` bit for bit, without loading
    ``numpy.ma``: the mean of the sorted middle pair, NaN where one is NaN."""
    ordered, n = np.sort(values, axis=None), np.size(values)
    return math.nan if np.isnan(ordered[-1]) else float(np.mean(ordered[(n - 1) // 2:n // 2 + 1]))
