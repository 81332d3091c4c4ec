"""numpy's seeded uniform grids for many seeds, with the seed hashing shared across seeds.

``uniform_grids(seeds, n)[i]`` equals ``np.random.default_rng(seeds[i]).random((n, n))``
exactly. Of the work per seed, only numpy's ``SeedSequence`` hashing runs in
Python (about 10 µs a seed), so it is redone here as uint32 array operations
on an (m, 4) pool for all seeds at once. Each seed's four hashed uint64 words
then seed numpy's own ``PCG64``, whose C loop draws the grid.
"""

from __future__ import annotations

import operator
from typing import Sequence

import numpy as np

__all__ = ["uniform_grids"]

# SeedSequence hash constants and pool size (numpy.random.bit_generator)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL = 4


class _HashedSeed:
    """One row of ``_seed_states``, served as the answer to PCG64's ``generate_state(4, np.uint64)``."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.words


def uniform_grids(seeds: Sequence[int], n: int) -> np.ndarray:
    """``default_rng(s).random((n, n))`` for each s in ``seeds``, shape (len(seeds), n, n)."""
    seeds = [operator.index(s) for s in seeds]
    out = np.empty((len(seeds), n, n))
    if not seeds:
        return out
    if min(seeds) < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {min(seeds)}")
    # imported here: loading numpy.random adds ~14 ms to every import of the package
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_HashedSeed)  # so PCG64 takes it as given, not as a seed to hash
    for grid, words in zip(out, _seed_states(seeds)):
        Generator(PCG64(_HashedSeed(words))).random(out=grid)
    return out


def _seed_states(seeds: list[int]) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, np.uint64)`` for each seed, as an (m, 4) uint64 array.

    The pool words of all seeds form one (m, 4) array, and successive hashes
    into different pool words are applied to those columns at once.
    """
    width = max(_POOL, (max(seeds).bit_length() + 31) // 32)
    raw = b"".join(s.to_bytes(4 * width, "little") for s in seeds)
    words = np.frombuffer(raw, dtype="<u4").reshape(len(seeds), width)
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
    # eight hashed uint32 words, paired little-endian into four uint64 words
    state = _hashmix(np.tile(pool, 2), *_hash_consts(_INIT_B, _MULT_B, 8)).astype(np.uint64)
    return state[:, 0::2] | state[:, 1::2] << np.uint64(32)


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
