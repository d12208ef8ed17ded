"""Deterministic seed derivation for parallel-safe random streams.

Every stochastic component draws from a stream derived from the master seed
by the same documented rule: the master seed is XOR-ed with a splitmix64
hash of each sub-index in turn.  Streams for distinct indices are
statistically independent, and the derivation is associative-free (order of
indices matters), so parallel and serial execution see identical draws.

Stream contract: the stream of a derived seed ``s`` is
``numpy.random.Generator(numpy.random.PCG64(s))``.  A detector readout is
the first ``uniform(low, high)`` draw of that stream, and
:func:`first_uniform` computes that draw for a whole array of seeds without
building a generator per seed.  It reproduces numpy's ``SeedSequence``
(pool of four uint32 words), the PCG64 seeding and one XSL-RR output step
(O'Neill, *PCG*, HMC-CS-2014-0905) in uint64 arithmetic, so it is bit-equal
to numpy's draw.  Should a numpy release change ``SeedSequence`` or PCG64,
the tests that compare it with ``make_rng`` fail loudly rather than let the
readouts drift.
"""

from __future__ import annotations

import numpy as np
# numpy loads numpy.random lazily; load it with the package, not in a run
import numpy.random  # noqa: F401

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1

# Every array constant is a numpy uint64: under numpy's legacy promotion
# (numpy < 2) a Python int constant would turn uint64 arithmetic into float64.
_U32 = np.uint64(_MASK32)
_SHIFT = {n: np.uint64(n) for n in (1, 11, 16, 27, 30, 31, 32, 58, 63)}


def splitmix64(x: int) -> int:
    """One splitmix64 scrambling round (public-domain constants)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def derive_seed(master: int, *indices: int) -> int:
    """Derive a stream seed: master XOR splitmix64(index), chained per index."""
    seed = master & _MASK64
    for ix in indices:
        seed ^= splitmix64(ix & _MASK64)
        seed = splitmix64(seed)
    return seed


def make_rng(seed: int) -> np.random.Generator:
    """PCG64 generator for a derived seed."""
    return np.random.Generator(np.random.PCG64(seed & _MASK64))


# ---------------------------------------------------------------------------
# array forms (bit-equal to the scalar forms and to numpy's generator)
# ---------------------------------------------------------------------------

def _u64(x) -> np.ndarray:
    """``x & (2**64 - 1)`` as uint64: a Python int of any size, or an
    integer array (negative entries wrap as two's complement)."""
    if isinstance(x, int):
        return np.array(x & _MASK64, dtype=np.uint64)
    return np.asarray(x).astype(np.uint64)


def splitmix64_array(x) -> np.ndarray:
    """:func:`splitmix64` of every entry of a uint64 array."""
    x = np.asarray(x, dtype=np.uint64)
    with np.errstate(over="ignore"):
        x = x + np.uint64(0x9E3779B97F4A7C15)
        x = (x ^ (x >> _SHIFT[30])) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> _SHIFT[27])) * np.uint64(0x94D049BB133111EB)
        return x ^ (x >> _SHIFT[31])


def derive_seed_array(master, *indices) -> np.ndarray:
    """:func:`derive_seed` over broadcast integer arrays, as uint64."""
    seed = _u64(master)
    for ix in indices:
        seed = splitmix64_array(seed ^ splitmix64_array(_u64(ix)))
    return seed


# numpy SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL = 4


def _hash_constants(init: int, mult: int, n: int) -> list[tuple[np.uint64, np.uint64]]:
    """The seed-independent (xor, multiply) constants of ``n`` successive
    hash steps: each step xors with the running constant, advances it by
    ``mult`` and multiplies by the advanced one."""
    out = []
    for _ in range(n):
        advanced = (init * mult) & _MASK32
        out.append((np.uint64(init), np.uint64(advanced)))
        init = advanced
    return out


# pool fill (4 steps) and all-pairs mixing (4 * 3 steps)
_HASHMIX = _hash_constants(_INIT_A, _MULT_A, _POOL + _POOL * (_POOL - 1))
# generate_state(4, uint64) reads 8 uint32 words
_GENERATE = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL)


def _hash_step(value, consts):
    xor, mult = consts
    value = ((value ^ xor) * mult) & _U32
    return value ^ (value >> _SHIFT[16])


def _mix(x, y):
    result = (np.uint64(_MIX_MULT_L) * x - np.uint64(_MIX_MULT_R) * y) & _U32
    return result ^ (result >> _SHIFT[16])


def _seed_sequence_state(seeds: np.ndarray) -> list[np.ndarray]:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` per seed, as four
    uint64 arrays.  The int seed enters as its little-endian uint32 words;
    a seed below 2**32 has one word, and numpy fills the rest of the pool
    as if by zero words, so two words (the high one possibly zero) cover
    every seed."""
    steps = iter(_HASHMIX)
    words = [seeds & _U32, seeds >> _SHIFT[32]]
    pool = [_hash_step(words[i] if i < len(words) else np.zeros_like(seeds), next(steps))
            for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash_step(pool[src], next(steps)))
    out = [_hash_step(pool[i % _POOL], consts) for i, consts in enumerate(_GENERATE)]
    return [out[2 * j] | (out[2 * j + 1] << _SHIFT[32]) for j in range(_POOL)]


def _mul_hi(a, b_lo32: np.uint64, b_hi32: np.uint64):
    """High 64 bits of the 128-bit product of uint64 ``a`` and a constant
    given by its 32-bit limbs."""
    a_lo = a & _U32
    a_hi = a >> _SHIFT[32]
    p00 = a_lo * b_lo32
    p01 = a_lo * b_hi32
    p10 = a_hi * b_lo32
    mid = (p00 >> _SHIFT[32]) + (p01 & _U32) + (p10 & _U32)
    return a_hi * b_hi32 + (p01 >> _SHIFT[32]) + (p10 >> _SHIFT[32]) + (mid >> _SHIFT[32])


_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's default multiplier
_PCG_MULT_HI = np.uint64(_PCG_MULT >> 64)
_PCG_MULT_LO = np.uint64(_PCG_MULT & _MASK64)
_PCG_MULT_LO_LIMBS = (np.uint64(_PCG_MULT & _MASK32), np.uint64((_PCG_MULT >> 32) & _MASK32))


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """One LCG step ``state * MULT + inc`` modulo 2**128, on (hi, lo) halves."""
    new_hi = _mul_hi(lo, *_PCG_MULT_LO_LIMBS) + lo * _PCG_MULT_HI + hi * _PCG_MULT_LO
    new_lo = lo * _PCG_MULT_LO
    return _add128(new_hi, new_lo, inc_hi, inc_lo)


def _add128(a_hi, a_lo, b_hi, b_lo):
    lo = a_lo + b_lo
    carry = (lo < a_lo).astype(np.uint64)
    return a_hi + b_hi + carry, lo


def first_uniform(seeds, low: float, high: float) -> np.ndarray:
    """First ``make_rng(seed).uniform(low, high)`` draw for every entry of
    an integer seed array, bit-equal to numpy's (float64, same shape)."""
    seeds = _u64(seeds)
    with np.errstate(over="ignore"):
        s0, s1, q0, q1 = _seed_sequence_state(seeds)
        # pcg64_set_seed: initstate = (s0, s1), inc = (initseq << 1) | 1
        inc_hi = (q0 << _SHIFT[1]) | (q1 >> _SHIFT[63])
        inc_lo = (q1 << _SHIFT[1]) | np.uint64(1)
        # srandom: state = 0, one step (state = inc), add initstate, one step
        hi, lo = _add128(inc_hi, inc_lo, s0, s1)
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        # next64: one step, then the XSL-RR output
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        xored = hi ^ lo
        rot = hi >> _SHIFT[58]
        out = (xored >> rot) | (xored << ((np.uint64(64) - rot) & np.uint64(63)))
    unit = (out >> _SHIFT[11]).astype(np.float64) * (1.0 / 9007199254740992.0)
    low = float(low)
    return low + (float(high) - low) * unit
