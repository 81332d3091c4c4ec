"""numpy's seeded uniform grids for many seeds, drawn through one reused generator.

``uniform_grids(seeds, out)[i]`` equals ``np.random.default_rng(seeds[i]).random((n, n))``
exactly. All seeds are hashed as uint32 arrays and seeded as 256-bit lanes of one Python
int (numpy's uint64 ufunc loops would add resident pages); each seed's state is then loaded
into one ``PCG64``, as building a generator per seed cost more than drawing its grid.
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
_POOL = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG_DEFAULT_MULTIPLIER_128
_order: list[int] = []  # which word of a _seeded row each PCG64 state word holds, found once


def uniform_grids(seeds: Sequence[int] | np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill ``out``, a (len(seeds), n, n) float64 array, with ``default_rng(s).random((n, n))`` per seed.

    ``seeds`` is a sequence of ints or a 1-D integer array; an array's words are read whole.
    """
    seed_words = _seed_words(seeds)
    if not len(seed_words):
        return out
    # imported here: loading numpy.random adds ~14 ms to every import of the package
    from numpy.random import PCG64, Generator

    bg = PCG64()
    draw = Generator(bg).random
    # the pcg64_state struct's first member points at the (state, inc) pair
    pair = ctypes.c_void_p.from_address(bg.ctypes.state_address).value
    words = memoryview((ctypes.c_uint8 * 32).from_address(pair)).cast("B")
    _order[:] = _order or _word_order(bg, words)
    rows = _seeded(_seed_states(seed_words))[:, _order].astype(np.uint64).tobytes()
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
    """numpy's ``pcg64_set_seed`` for each ``_seed_states`` row, as (m, 4) little-endian uint64
    words (state low, high, inc low, high). Row words 0-3 hold the seed, 4-7 the seq, high half first."""
    m = len(words)
    lanes = int.from_bytes(words[:, [2, 3, 0, 1, 6, 7, 4, 5]].astype("<u4").tobytes(), "little")
    low = int.from_bytes((b"\xff" * 16 + bytes(16)) * m, "little")  # the low 128 bits of each lane
    inc = (lanes >> 127 | int.from_bytes((b"\x01" + bytes(31)) * m, "little")) & low  # 2·seq + 1
    state = ((lanes & low) + inc) * _PCG_MULT + inc & low
    return np.frombuffer((state | inc << 128).to_bytes(32 * m, "little"), dtype="<u8").reshape(m, 4)


def _seed_words(seeds: Sequence[int] | np.ndarray) -> np.ndarray:
    """Each seed's little-endian uint32 words, zero-padded to the pool size: an (m, width) array."""
    if isinstance(seeds, np.ndarray) and seeds.dtype.kind in "iu":
        if seeds.size and seeds.min() < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {seeds.min()}")
        words = np.zeros((len(seeds), _POOL), dtype="<u4")
        words[:, :2] = seeds.astype("<u8").view("<u4").reshape(-1, 2)
        return words
    seeds = [operator.index(s) for s in seeds]
    if seeds and min(seeds) < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {min(seeds)}")
    width = max(_POOL, (max(seeds, default=0).bit_length() + 31) // 32)
    raw = b"".join(s.to_bytes(4 * width, "little") for s in seeds)
    return np.frombuffer(raw, dtype="<u4").reshape(len(seeds), width)


def _seed_states(words: np.ndarray) -> np.ndarray:
    """``SeedSequence(s).generate_state(8)`` for each seed's ``_seed_words`` row, as an (m, 8) uint32 array.

    The pool words of all seeds form one (m, 4) array, and successive hashes
    into different pool words are applied to those columns at once.
    """
    width = words.shape[1]
    xor, mul = _hash_consts(_INIT_A, _MULT_A, _POOL * width)
    # short seeds are zero-padded to the pool size, as SeedSequence pads them
    pool = _hashmix(words[:, :_POOL], xor[:_POOL], mul[:_POOL])
    t = _POOL
    for src in range(_POOL):  # every pool word mixes into each of the others
        dst = [d for d in range(_POOL) if d != src]
        hashed = _hashmix(pool[:, src, None], xor[t : t + 3], mul[t : t + 3])
        pool[:, dst] = _mix(pool[:, dst], hashed)
        t += 3
    for src in range(_POOL, width):  # words past the pool, only where a seed has them
        has = words[:, src:].any(axis=1, keepdims=True)
        hashed = _hashmix(words[:, src, None], xor[t : t + _POOL], mul[t : t + _POOL])
        pool = np.where(has, _mix(pool, hashed), pool)
        t += _POOL
    return _hashmix(np.tile(pool, 2), *_hash_consts(_INIT_B, _MULT_B, 8))


def _hash_consts(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """SeedSequence's first ``count`` running hash constants: (xor, multiply) uint32 arrays."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    consts = np.array(consts, dtype=np.uint32)
    return consts[:-1], consts[1:]


def _hashmix(value: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    value = (value ^ xor) * mul
    return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    value = _MIX_L * x - _MIX_R * y
    return value ^ (value >> np.uint32(16))
