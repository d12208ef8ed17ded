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
(O'Neill, *PCG*, HMC-CS-2014-0905), so it is bit-equal to numpy's draw.
The ``SeedSequence`` hash runs in uint32 lanes, where a product or a
difference wraps modulo 2**32 as numpy's C code does; the state widens to
uint64 only to assemble its four words, and the PCG64 steps run in uint64.
Should a numpy release change ``SeedSequence`` or PCG64, the tests that
compare it with ``make_rng`` fail loudly rather than let the readouts
drift.
"""

from __future__ import annotations

import numpy as np
# numpy loads numpy.random lazily; load it with the package, not in a run
import numpy.random  # noqa: F401

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1

# Every array constant is a numpy uint64 (uint32 in the hash): under numpy's
# legacy promotion (numpy < 2) a Python int constant would turn unsigned
# arithmetic into float64.
_U32 = np.uint64(_MASK32)
_SHIFT = {n: np.uint64(n) for n in (1, 11, 27, 30, 31, 32, 58, 63)}


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
    integer array (negative entries wrap as two's complement); a uint64
    array is returned as it is."""
    if isinstance(x, int):
        return np.array(x & _MASK64, dtype=np.uint64)
    return np.asarray(x).astype(np.uint64, copy=False)


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


def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    """The seed-independent constants of ``n`` successive hash steps as a
    (2, n, 1) uint32 array: each step xors with the running constant (row
    0), advances it by ``mult`` and multiplies by the advanced one (row 1)."""
    out = []
    for _ in range(n):
        advanced = (init * mult) & _MASK32
        out.append((init, advanced))
        init = advanced
    return np.array(out, dtype=np.uint32).T[:, :, None]


# pool fill (4 steps), then all-pairs mixing: each source word is hashed
# once per other word, in order, and mixed into that word
_HASHMIX = _hash_constants(_INIT_A, _MULT_A, _POOL + _POOL * (_POOL - 1))
_FILL = _HASHMIX[:, :_POOL]
_MIXING = [(np.array([dst for dst in range(_POOL) if dst != src]),
            _HASHMIX[:, _POOL + (_POOL - 1) * src:_POOL + (_POOL - 1) * (src + 1)])
           for src in range(_POOL)]
# generate_state(4, uint64) reads 8 uint32 words, cycling through the pool
_GENERATE = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL)
_GENERATE_ROWS = np.arange(2 * _POOL) % _POOL
_MIX_L, _MIX_R = np.uint32(_MIX_MULT_L), np.uint32(_MIX_MULT_R)
_SHIFT16 = np.uint32(16)


# The hash runs on uint32 lanes: their products and differences wrap
# modulo 2**32, as numpy's C code does.  Each step writes into its one new
# array, so a block holds few temporaries.
def _hash_step(value, consts):
    xor, mult = consts
    value = value ^ xor
    value *= mult
    value ^= value >> _SHIFT16
    return value


def _mix(x, y):
    result = _MIX_L * x
    result -= _MIX_R * y
    result ^= result >> _SHIFT16
    return result


def _seed_sequence_state(seeds: np.ndarray) -> list[np.ndarray]:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` per uint64 seed,
    as four uint64 arrays of the seeds' shape.  The int seed enters as its
    little-endian uint32 words; a seed below 2**32 has one word, and numpy
    fills the rest of the pool as if by zero words, so two words (the high
    one possibly zero) cover every seed.  The pool is one (4, n) uint32
    array, and each hash or mix runs on all the rows it updates at once."""
    flat = seeds.reshape(-1)
    pool = np.zeros((_POOL, flat.size), dtype=np.uint32)
    pool[0] = flat & _U32
    pool[1] = flat >> _SHIFT[32]
    pool = _hash_step(pool, _FILL)
    for src, (dst, consts) in enumerate(_MIXING):
        pool[dst] = _mix(pool[dst], _hash_step(pool[src], consts))
    out = _hash_step(pool[_GENERATE_ROWS], _GENERATE)
    state = out[1::2].astype(np.uint64)
    state <<= _SHIFT[32]
    state |= out[0::2]
    return [row.reshape(seeds.shape) for row in state]


def _mul_hi(a, b_lo32: np.uint64, b_hi32: np.uint64):
    """High 64 bits of the 128-bit product of uint64 ``a`` and a constant
    given by its 32-bit limbs."""
    a_lo = a & _U32
    a_hi = a >> _SHIFT[32]
    mid = a_lo * b_lo32  # p00
    mid >>= _SHIFT[32]
    a_lo *= b_hi32  # p01
    p10 = a_hi * b_lo32
    a_hi *= b_hi32  # p11
    mid += a_lo & _U32
    mid += p10 & _U32
    mid >>= _SHIFT[32]
    a_lo >>= _SHIFT[32]
    p10 >>= _SHIFT[32]
    a_hi += a_lo
    a_hi += p10
    a_hi += mid
    return a_hi


_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's default multiplier
_PCG_MULT_HI = np.uint64(_PCG_MULT >> 64)
_PCG_MULT_LO = np.uint64(_PCG_MULT & _MASK64)
_PCG_MULT_LO_LIMBS = (np.uint64(_PCG_MULT & _MASK32), np.uint64((_PCG_MULT >> 32) & _MASK32))


# The 128-bit steps below build new arrays and update them in place; they
# never write to their arguments.
def _pcg_step(hi, lo, inc_hi, inc_lo):
    """One LCG step ``state * MULT + inc`` modulo 2**128, on (hi, lo) halves."""
    new_hi = _mul_hi(lo, *_PCG_MULT_LO_LIMBS)
    new_hi += lo * _PCG_MULT_HI
    new_hi += hi * _PCG_MULT_LO
    return _add128(new_hi, lo * _PCG_MULT_LO, inc_hi, inc_lo)


def _add128(a_hi, a_lo, b_hi, b_lo):
    lo = a_lo + b_lo
    hi = a_hi + b_hi
    hi += lo < a_lo  # the carry
    return hi, lo


def first_uniform(seeds, low: float, high: float) -> np.ndarray:
    """First ``make_rng(seed).uniform(low, high)`` draw for every entry of
    an integer seed array, bit-equal to numpy's (float64, same shape)."""
    seeds = _u64(seeds)
    with np.errstate(over="ignore"):
        s0, s1, q0, q1 = _seed_sequence_state(seeds)
        # pcg64_set_seed: initstate = (s0, s1), inc = (initseq << 1) | 1
        inc_hi = q0 << _SHIFT[1]
        inc_hi |= q1 >> _SHIFT[63]
        inc_lo = q1 << _SHIFT[1]
        inc_lo |= np.uint64(1)
        # srandom: state = 0, one step (state = inc), add initstate, one step
        hi, lo = _add128(inc_hi, inc_lo, s0, s1)
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        # next64: one step, then the XSL-RR output
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        rot = hi >> _SHIFT[58]
        hi ^= lo  # xored
        out = hi >> rot
        rot = np.uint64(64) - rot
        rot &= np.uint64(63)
        hi <<= rot
        out |= hi
    out >>= _SHIFT[11]
    unit = out.astype(np.float64)
    unit *= 1.0 / 9007199254740992.0
    low = float(low)
    return low + (float(high) - low) * unit
