"""Pulse modulation functions.

A train of instantaneous population-flip pulses induces a piecewise-constant
modulation ``y(t)`` that starts at ``initial_sign`` and flips sign at every
switch time.  Multi-qubit probes carry one train per qubit; their summed
modulation is a staircase taking values in ``{-N, -N+2, ..., N}``.
Continuous drives are described by a phase ``phi(t)`` with
``y = cos(phi)``, ``z = sin(phi)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridRangeError, OutOfRangeError, require_finite
from .readonly import ReadOnlyArrays


@dataclass(frozen=True, eq=False)
class PulseSequence(ReadOnlyArrays):
    """Switch times of one pulse train on ``[0, duration]``.

    Switch times must be strictly increasing and lie strictly inside
    ``(0, duration)``; the induced ``y(t)`` is right-continuous at switches.
    They are held as a read-only copy, so the caller's array stays its own,
    and stay read-only through pickle (:class:`ReadOnlyArrays`).
    """

    switch_times: np.ndarray
    duration: float
    initial_sign: int = 1

    def __post_init__(self):
        require_finite(duration=self.duration)
        times = np.array(self.switch_times, dtype=float, ndmin=1)
        _require_finite_times(times)
        times.setflags(write=False)
        if self.duration <= 0:
            raise OutOfRangeError(f"duration must be > 0, got {self.duration}")
        if self.initial_sign not in (-1, 1):
            raise OutOfRangeError("initial_sign must be +1 or -1")
        if times.size:
            if not np.all(np.diff(times) > 0):
                raise OutOfRangeError("switch times must be strictly increasing")
            if times[0] <= 0 or times[-1] >= self.duration:
                raise OutOfRangeError("switch times must lie strictly inside (0, T)")
        object.__setattr__(self, "switch_times", times)

    @property
    def n_switches(self) -> int:
        return int(self.switch_times.size)


@dataclass(frozen=True, eq=False)
class ModulationSet(ReadOnlyArrays):
    """Per-qubit pulse trains sharing one duration; y(t) is their sum."""

    sequences: tuple[PulseSequence, ...]

    def __post_init__(self):
        seqs = tuple(self.sequences)
        if not seqs:
            raise OutOfRangeError("need at least one sequence")
        T = seqs[0].duration
        if any(s.duration != T for s in seqs):
            raise OutOfRangeError("all sequences must share the same duration")
        object.__setattr__(self, "sequences", seqs)

    @property
    def n_qubits(self) -> int:
        return len(self.sequences)

    @property
    def duration(self) -> float:
        return self.sequences[0].duration

    def trains(self):
        """``(times, qubits, signs)``: every switch time with its qubit
        label, sorted by (qubit, time), and each qubit's initial sign; read-only
        arrays, built once per set and read-only through pickle."""
        return self._trains

    @cached_property
    def _trains(self):
        seqs = self.sequences
        times = np.concatenate([s.switch_times for s in seqs])
        qubits = np.repeat(np.arange(len(seqs)), [s.n_switches for s in seqs])
        signs = np.array([s.initial_sign for s in seqs])
        for arr in (times, qubits, signs):
            arr.setflags(write=False)
        return times, qubits, signs


@dataclass(frozen=True, eq=False)
class ContinuousModulation:
    """Phase modulation ``phi(t) = rate*t + sum_j a_j cos(nu_j t) + b_j sin(nu_j t)``.

    ``terms`` is a tuple of ``(nu, a, b)`` triples.  The induced modulation
    pair is ``y = cos(phi)``, ``z = sin(phi)``.
    """

    duration: float
    linear_rate: float = 0.0
    terms: tuple[tuple[float, float, float], ...] = ()

    def __post_init__(self):
        require_finite(duration=self.duration, linear_rate=self.linear_rate)
        if self.duration <= 0:
            raise OutOfRangeError(f"duration must be > 0, got {self.duration}")
        object.__setattr__(self, "terms",
                           tuple((float(nu), float(a), float(b)) for nu, a, b in self.terms))
        for nu, a, b in self.terms:
            require_finite(nu=nu, a=a, b=b)

    def phase(self, t):
        t = np.asarray(t, dtype=float)
        phi = self.linear_rate * t
        for nu, a, b in self.terms:
            phi = phi + a * np.cos(nu * t) + b * np.sin(nu * t)
        return phi

    def phase_rate_bound(self) -> float:
        """Upper bound on ``|phi'(t)|``, used to size oscillatory quadrature."""
        return abs(self.linear_rate) + sum(abs(nu) * (abs(a) + abs(b))
                                           for nu, a, b in self.terms)


# ---------------------------------------------------------------------------
# protocol sequence generators
# ---------------------------------------------------------------------------

def _zero_train(k: int, K: int, omega_max: float, duration: float, shift: int,
                offset: float) -> PulseSequence:
    """Pulses at ``(n + offset) pi / rate`` inside ``(0, duration)``, with
    ``rate = omega_max (k - shift) / K``; none at rate 0."""
    require_finite(omega_max=omega_max, duration=duration)
    if not 1 <= k <= K:
        raise OutOfRangeError(f"k must be in 1..{K}, got {k}")
    if omega_max <= 0 or duration <= 0:
        raise OutOfRangeError("omega_max and duration must be > 0")
    rate = omega_max * (k - shift) / K
    if rate == 0:
        return PulseSequence(np.array([]), duration)
    times = (np.arange(int(rate * duration / np.pi) + 1) + offset) * np.pi / rate
    return PulseSequence(times[times < duration], duration)


def fo_sequence(k: int, K: int, omega_max: float, duration: float) -> PulseSequence:
    """Pulse train for orthogonalization-basis filter ``k`` of ``K``.

    Pulses sit at the zeros of ``cos(omega' t)`` with
    ``omega' = omega_max * (k - 1) / K``; ``k = 1`` yields free evolution
    (no pulses), the filter sensitive at zero frequency.
    """
    return _zero_train(k, K, omega_max, duration, 1, 0.5)


def as_sequence(k: int, K: int, omega_max: float, duration: float) -> PulseSequence:
    """Pulse train for pointwise-protocol filter ``k`` of ``K``.

    Pulses sit at the zeros of ``sin(omega'' t)`` with
    ``omega'' = omega_max * k / K``; the filter peaks at ``omega''`` and the
    finest resolvable spacing (k = K) is ``pi / omega_max``.
    """
    return _zero_train(k, K, omega_max, duration, 0, 1)


def staircase_split(target_frequency: float, n_qubits: int, duration: float) -> ModulationSet:
    """Distribute a cosine at ``target_frequency`` over ``n_qubits`` trains.

    The summed modulation is the nearest-level quantization of
    ``N cos(omega_f t)`` onto ``{-N, -N+2, ..., N}``: qubit ``j`` flips
    whenever ``N cos(omega_f t)`` crosses the mid-level threshold
    ``-N + 2j - 1``.  For ``N = 1`` this is exactly the square wave of
    :func:`fo_sequence` at the same frequency.
    """
    require_finite(target_frequency=target_frequency, duration=duration)
    if n_qubits < 1:
        raise OutOfRangeError(f"n_qubits must be >= 1, got {n_qubits}")
    if duration <= 0:
        raise OutOfRangeError("duration must be > 0")
    if target_frequency < 0:
        raise OutOfRangeError("target_frequency must be >= 0")
    sequences = []
    for j in range(1, n_qubits + 1):
        threshold = -n_qubits + 2 * j - 1
        ratio = threshold / n_qubits
        if target_frequency == 0:
            times = np.array([])
        else:
            # crossings of cos(w t) = ratio: w t = 2 pi n +/- arccos(ratio)
            frac = np.arccos(ratio) / np.pi          # in (0, 1)
            n_max = int(np.floor(target_frequency * duration / (2 * np.pi))) + 1
            cycles = 2.0 * np.arange(n_max + 1)
            ups = np.pi * (cycles + frac) / target_frequency
            downs = np.pi * (cycles + (2.0 - frac)) / target_frequency
            times = np.sort(np.concatenate([ups, downs]))
            times = times[(times > 0) & (times < duration)]
        sequences.append(PulseSequence(times, duration))
    return ModulationSet(tuple(sequences))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def eval_modulation(seq_or_set, t):
    """Modulation level y(t); right-continuous at switch times.

    Accepts a :class:`PulseSequence` or a :class:`ModulationSet` (summed
    level).  Raises :class:`GridRangeError` outside ``[0, T]``.
    """
    if isinstance(seq_or_set, ModulationSet):
        total = 0.0
        for seq in seq_or_set.sequences:
            total = total + eval_modulation(seq, t)
        return total
    seq = seq_or_set
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0) or np.any(t_arr > seq.duration):
        raise GridRangeError(f"t outside [0, {seq.duration}]")
    flips = np.searchsorted(seq.switch_times, t_arr, side="right")
    out = seq.initial_sign * (-1.0) ** flips
    return out if t_arr.ndim else float(out)


def eval_continuous(mod: ContinuousModulation, t):
    """Return ``(cos(phi(t)), sin(phi(t)))`` for ``t`` in ``[0, T]``."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0) or np.any(t_arr > mod.duration):
        raise GridRangeError(f"t outside [0, {mod.duration}]")
    phi = mod.phase(t_arr)
    return np.cos(phi), np.sin(phi)


def to_step_function(seq_or_set):
    """Merged representation ``(boundaries, values)`` of the summed y(t),
    built by :func:`merge_trains`; a lone :class:`PulseSequence` is the
    one-train set, with boundaries ``[0, t_1, ..., t_m, T]`` and values
    ``initial_sign * (-1)**j``.

    ``boundaries`` has length ``n + 1`` including 0 and T; ``values[i]`` is
    the constant level on ``[boundaries[i], boundaries[i+1])``.
    """
    if isinstance(seq_or_set, PulseSequence):
        seq_or_set = ModulationSet((seq_or_set,))
    return merge_trains(*seq_or_set.trains(), seq_or_set.duration)


def merge_trains(times, qubits, signs, duration: float):
    """``(boundaries, values)`` of the summed y(t) of several trains.

    ``times`` and ``qubits`` hold every switch sorted by (qubit, time), each
    qubit's times strictly increasing inside (0, T); ``signs[q]`` is qubit
    q's initial sign.  The levels are the summed initial signs plus the
    running sum of the +-2 steps at each boundary: small integers, exact in
    floating point.
    """
    # np.unique without its NaN handling: every time is finite, inside (0, T)
    edges = np.sort(np.concatenate(([0.0, duration], times)))
    bounds = edges[np.concatenate(([True], edges[1:] != edges[:-1]))]
    # the k-th switch of a qubit steps its level by -2 * sign * (-1)**k
    rank = np.arange(qubits.size) - np.searchsorted(qubits, qubits)
    steps = np.where(rank % 2 == 1, 2.0, -2.0) * signs[qubits]
    jumps = np.bincount(np.searchsorted(bounds, times), weights=steps,
                        minlength=bounds.size)
    return bounds, float(np.sum(signs)) + np.cumsum(jumps[:-1])


def _require_finite_times(times: np.ndarray) -> None:
    """Raise :class:`NonFiniteInputError` at the first NaN or infinite entry."""
    if not np.isfinite(times).all():
        require_finite(switch_times=float(times[~np.isfinite(times)][0]))


def repair_trains(times, qubits, duration: float):
    """Repair the switch lists of several trains at once: clip into (0, T),
    sort by (qubit, time) and cancel each qubit's coincident pairs (two
    flips at one instant are a no-op).  ``times`` is a 1-d float array and
    ``qubits`` an integer array of its length.  Returns ``(times, qubits)``;
    a NaN or infinite time raises :class:`NonFiniteInputError`.

    The clip is ``minimum(maximum(t, eps), T - eps)``, the bits of
    ``np.clip`` on finite times, and the cancellation runs only where two
    adjacent times are equal."""
    eps = 1e-12 * duration
    t = np.asarray(times, dtype=float)
    _require_finite_times(t)
    t = np.minimum(np.maximum(t, eps), duration - eps)
    order = np.lexsort((t, qubits))
    t, q = t[order], qubits[order]
    # runs of equal (qubit, time): an odd run leaves one flip, an even none
    same = t[1:] == t[:-1]
    if not same.any():
        return t, q
    edge = np.ones(t.size + 1, dtype=bool)
    edge[1:-1] = ~same | (q[1:] != q[:-1])
    starts = edge.nonzero()[0]
    keep = starts[:-1][(starts[1:] - starts[:-1]) % 2 == 1]
    return t[keep], q[keep]
