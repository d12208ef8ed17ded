"""Exception types raised by the noisespec package."""

import importlib
import math
import numbers


class NoiseSpecError(Exception):
    """Base class for all package-specific errors."""


class NonFiniteInputError(NoiseSpecError, ValueError):
    """A constructor argument is NaN or infinite."""


def require_finite(**values) -> None:
    """Raise :class:`NonFiniteInputError` naming the first NaN or infinite
    keyword value."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise NonFiniteInputError(f"{name} must be finite, got {value}")


def require_integer(name: str, value, least=None) -> None:
    """Raise :class:`OutOfRangeError` naming ``name`` unless ``value`` is an
    integer of any integral type but bool, and at least ``least`` if given."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or least is not None and value < least):
        rule = "an integer" if least is None else f"an integer >= {least}"
        raise OutOfRangeError(f"{name} must be {rule}, got {value!r}")


def require_scipy(module: str, name: str):
    """``name`` from ``scipy.<module>``, imported when called.  scipy is the
    ``oracle`` extra: only the analytic filter tail, the time-domain oracle
    and the ML estimator need it, and no preset run calls them, so a run
    loads numpy alone.  Without scipy the error names the extra's install."""
    try:
        return getattr(importlib.import_module(f"scipy.{module}"), name)
    except ModuleNotFoundError as exc:
        raise ModuleNotFoundError(f"{name} needs scipy: pip install noisespec[oracle]") from exc


class OutOfRangeError(NoiseSpecError, ValueError):
    """A constructor argument is out of range, or a count is not an integer."""


class GridRangeError(NoiseSpecError, ValueError):
    """A frequency or time argument lies outside the supported range."""


class GridMismatchError(NoiseSpecError, ValueError):
    """An operation combining filters requires them to share one grid."""


class CalibrationError(NoiseSpecError, ValueError):
    """Amplitude calibration is impossible (all filter overlaps vanish)."""


class DegenerateBasisError(NoiseSpecError, ValueError):
    """The filter overlap matrix carries no usable eigenvalues."""


class IllConditionedInversionError(NoiseSpecError, ValueError):
    """A linear inversion is rank deficient beyond recovery."""

    def __init__(self, message, condition_number=float("inf")):
        super().__init__(message)
        self.condition_number = condition_number


class UndefinedFidelityError(NoiseSpecError, ValueError):
    """Fidelity is undefined because one argument has zero norm."""


class EmptyOperatorError(NoiseSpecError, ValueError):
    """All measurement probabilities were degenerate; no information left."""


class UnsupportedOracleError(NoiseSpecError, ValueError):
    """The time-domain cross-check requires an analytic spectral density."""


class DegenerateComponentsError(IllConditionedInversionError):
    """The signal components are (numerically) proportional; the fit is singular."""


class UndefinedObjectiveError(NoiseSpecError, ValueError):
    """The control objective is undefined (identically zero filter)."""


class ConfigError(NoiseSpecError, ValueError):
    """An experiment configuration failed validation."""

    def __init__(self, message, location=None):
        if location:
            message = f"{location}: {message}"
        super().__init__(message)
        self.location = location
