"""numpy's seeded uniform grids for many seeds, drawn through one reused generator.

``uniform_grids(seeds, out)[i]`` equals ``np.random.default_rng(seeds[i]).random((n, n))``
exactly. All seeds are hashed at once, ``SeedSequence``'s four pool words of every seed held
as four contiguous uint32 rows and the hash constants made once, at import; they are seeded
in numpy uint64 words, ~4x faster than as Python big ints. Each seed's state is then loaded
into one ``PCG64``, as building a generator per seed cost more than drawing its grid.
``numpy.random`` is imported at the first draw.
"""

from __future__ import annotations

import ctypes
import operator
from typing import Sequence

import numpy as np

__all__ = ["uniform_grids"]

# SeedSequence hash constants and pool size (numpy.random.bit_generator)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)
_POOL = 4
_MULT_HI, _MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645  # PCG_DEFAULT_MULTIPLIER_128
_order: list[int] = []  # which word of a _seeded row each PCG64 state word holds, found once


def uniform_grids(seeds: Sequence[int] | np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill ``out``, a (len(seeds), n, n) float64 array, with ``default_rng(s).random((n, n))`` per seed.

    ``seeds`` is a sequence of ints or a 1-D integer array; an array's words are read whole.
    """
    seed_words = _seed_words(seeds)
    if not seed_words.shape[1]:
        return out
    # imported here: loading numpy.random adds ~14 ms to every import of the package
    from numpy.random import PCG64, Generator

    bg = PCG64()
    draw = Generator(bg).random
    # the pcg64_state struct's first member points at the (state, inc) pair
    pair = ctypes.c_void_p.from_address(bg.ctypes.state_address).value
    words = memoryview((ctypes.c_uint8 * 32).from_address(pair)).cast("B")
    _order[:] = _order or _word_order(bg, words)
    rows = _seeded(_seed_states(seed_words))[:, _order].tobytes()
    for k, grid in zip(range(0, len(rows), 32), out):
        words[:] = rows[k : k + 32]
        draw(out=grid)
    return out


def _word_order(bg, words: memoryview) -> list[int]:
    """Which word of a ``_seeded`` row each state word in ``words`` holds, read back from a state set
    through ``bg.state``: native 128-bit ints of either byte order, or numpy's {high, low} struct."""
    known = {"state": 2 << 64 | 1, "inc": 4 << 64 | 3}  # the row words 1, 2, 3, 4
    bg.state = {"bit_generator": "PCG64", "state": known, "has_uint32": 0, "uinteger": 0}
    seen = np.frombuffer(words, dtype=np.uint64).tolist()
    if sorted(seen) != [1, 2, 3, 4]:
        raise RuntimeError(f"numpy {np.__version__} lays out PCG64's state words in an unknown order")
    return [w - 1 for w in seen]


def _seeded(words: np.ndarray) -> np.ndarray:
    """numpy's ``pcg64_set_seed`` per ``_seed_states`` column: (m, 4) uint64 words (state low, high, inc
    low, high) from words 0-3, the seed, and 4-7, the seq, high half first; sums carry by compare."""
    init_hi, init_lo, seq_hi, seq_lo = words[1::2].astype(np.uint64) << 32 | words[::2]
    inc_lo, inc_hi = seq_lo << 1 | 1, seq_hi << 1 | seq_lo >> 63  # 2·seq + 1
    lo = init_lo + inc_lo
    hi = init_hi + inc_hi + (lo < inc_lo)
    # times the multiplier mod 2**128; the high word of lo · _MULT_LO from 32-bit halves
    lo0, lo1, m0, m1 = lo & 0xFFFFFFFF, lo >> 32, _MULT_LO & 0xFFFFFFFF, _MULT_LO >> 32
    cross = lo0 * m1, lo1 * m0
    carry = (lo0 * m0 >> 32) + (cross[0] & 0xFFFFFFFF) + (cross[1] & 0xFFFFFFFF) >> 32
    hi = hi * _MULT_LO + lo * _MULT_HI + lo1 * m1 + (cross[0] >> 32) + (cross[1] >> 32) + carry + inc_hi
    lo = lo * _MULT_LO + inc_lo
    hi += lo < inc_lo
    return np.stack([lo, hi, inc_lo, inc_hi], axis=1)


def _seed_words(seeds: Sequence[int] | np.ndarray) -> np.ndarray:
    """Each seed's little-endian uint32 words, zero-padded to the pool size: a (width, m) array,
    one column a seed."""
    if isinstance(seeds, np.ndarray) and seeds.dtype.kind in "iu":
        if seeds.size and seeds.min() < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {seeds.min()}")
        words = np.zeros((_POOL, len(seeds)), dtype="<u4")
        words[:2] = seeds.astype("<u8").view("<u4").reshape(-1, 2).T
        return words
    seeds = [operator.index(s) for s in seeds]  # nonnegative: as_seed checks them at the public entries
    width = max(_POOL, (max(seeds, default=0).bit_length() + 31) // 32)
    raw = b"".join(s.to_bytes(4 * width, "little") for s in seeds)
    return np.frombuffer(raw, dtype="<u4").reshape(len(seeds), width).T


def _seed_states(words: np.ndarray) -> np.ndarray:
    """``SeedSequence(s).generate_state(8)`` for each seed's ``_seed_words`` column: an (8, m) uint32
    array, row i holding word i of every seed.

    The pool words of all seeds are four contiguous rows, and the three hashes of one
    pool word into the others are applied to their rows at once.
    """
    width = words.shape[0]
    # short seeds are zero-padded to the pool size, as SeedSequence pads them
    pool = _hashmix(words[:_POOL], *_FIRST)
    for src, (dst, xor, mul) in enumerate(_CROSS):  # every pool word mixes into each of the others
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], xor, mul))
    if width > _POOL:  # words past the pool, only where a seed has them
        xor, mul = _hash_consts(_INIT_A, _MULT_A, _POOL * width)
        for src in range(_POOL, width):
            t = _POOL * src
            hashed = _hashmix(words[src], xor[t : t + _POOL], mul[t : t + _POOL])
            pool = np.where(words[src:].any(axis=0), _mix(pool, hashed), pool)
    return _hashmix(np.concatenate([pool, pool]), *_STATE)


def _hash_consts(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """SeedSequence's first ``count`` running hash constants: (xor, multiply) uint32 columns,
    one row a hash, to hash a row of every seed's words at once."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    consts = np.array(consts, dtype=np.uint32)[:, None]
    return consts[:-1], consts[1:]


def _hashmix(value: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    value = value ^ xor
    value *= mul
    value ^= value >> _SHIFT
    return value


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    value = _MIX_L * x
    value -= _MIX_R * y
    value ^= value >> _SHIFT
    return value


# The hashes of a 4-word pool: the first of each word, those of word ``src`` into the
# rows ``dst`` (the other words, in order), and those of generate_state(8).
_XOR_A, _MUL_A = _hash_consts(_INIT_A, _MULT_A, _POOL * _POOL)
_FIRST = _XOR_A[:_POOL], _MUL_A[:_POOL]
_CROSS = tuple(
    (dst, _XOR_A[t : t + 3], _MUL_A[t : t + 3])
    for t, dst in zip(range(_POOL, _POOL * _POOL, 3), (slice(1, 4), [0, 2, 3], [0, 1, 3], slice(0, 3)))
)
_STATE = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL)
