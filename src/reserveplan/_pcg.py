"""numpy's seeded uniform stream for many seeds at once, bit for bit.

``uniform_grids(seeds, n)[i]`` equals ``np.random.default_rng(seeds[i]).random((n, n))``
exactly, but is computed with whole-array integer operations across seeds
instead of one generator per seed:

1. numpy's ``SeedSequence`` hashes each seed into a 128-bit PCG64 state and
   increment; its pool mixing runs as uint32 array operations across seeds.
2. Draw k of a seed is the PCG64 LCG state advanced k steps by jump-ahead,
   ``S_k = A_k * S_0 + C_k * inc (mod 2**128)`` with ``A_k = a**k`` and
   ``C_k = 1 + a + ... + a**(k - 1)``, then the XSL-RR output of ``S_k``
   becomes a double as ``(x >> 11) * 2**-53``.

128-bit numbers are (hi, lo) pairs of uint64 arrays. Draws are evaluated in
blocks of at most ``_CHUNK`` elements, so the working memory beyond the
output stays small.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from typing import Sequence

import numpy as np

__all__ = ["uniform_grids"]

_M32 = np.uint64(0xFFFFFFFF)
# SeedSequence hash constants and pool size (numpy.random.bit_generator)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL = 4
# PCG64's 128-bit LCG multiplier as (hi, lo); arrays, so no operation mixes a
# uint64 scalar with a Python int
_A = (np.array([2549297995355413924], np.uint64), np.array([4865540595714422341], np.uint64))
_CHUNK = 4096


def uniform_grids(seeds: Sequence[int], n: int) -> np.ndarray:
    """``default_rng(s).random((n, n))`` for each s in ``seeds``, shape (len(seeds), n, n)."""
    seeds = [operator.index(s) for s in seeds]
    out = np.empty((len(seeds), n, n))
    if not seeds:
        return out
    if min(seeds) < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {min(seeds)}")
    seed, seq = _seed_states(seeds)
    inc = ((seq[0] << 1) | (seq[1] >> 63), (seq[1] << 1) | 1)
    state = _add(_mul(_A, _add(inc, seed)), inc)  # PCG64's two seeding steps
    size = n * n
    draws = min(size, _CHUNK)
    lanes = min(_CHUNK // draws, len(seeds))
    # A block is one contiguous run of ``out``: the whole grids of up to ``lanes``
    # seeds, or up to ``draws`` draws of one seed. Every operation in it is flat.
    table = [np.tile(t, lanes) for t in _jump_table(draws)]
    flat = out.reshape(-1)
    for l0 in range(0, len(seeds), lanes):
        s = (state[0][l0 : l0 + lanes], state[1][l0 : l0 + lanes])
        i = (inc[0][l0 : l0 + lanes], inc[1][l0 : l0 + lanes])
        for k0 in range(0, size, draws):
            k = min(draws, size - k0)
            span = len(s[0]) * k
            a_hi, a_lo, c_hi, c_lo = (t[:span] for t in table)
            s_hi, s_lo = _add(
                _mul((a_hi, a_lo), [np.repeat(v, k) for v in s]),
                _mul((c_hi, c_lo), [np.repeat(v, k) for v in i]),
            )
            x = s_hi ^ s_lo
            rot = s_hi >> 58
            x = (x >> rot) | (x << ((64 - rot) & 63))
            start = l0 * size + k0
            np.multiply(x >> 11, 2.0**-53, out=flat[start : start + span])
            s = (s_hi[k - 1 :: k], s_lo[k - 1 :: k])  # each lane's last state
    return out


def _seed_states(seeds: list[int]) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Each seed's PCG64 seed and sequence numbers from its ``SeedSequence``.

    Returns ``(seed, seq)``, each a (hi, lo) pair of uint64 arrays of shape (m,).
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
    # generate_state(4, uint64): eight hashed words, paired little-endian into
    # (seed hi, seed lo, seq hi, seq lo)
    state = _hashmix(np.tile(pool, 2), *_hash_consts(_INIT_B, _MULT_B, 8)).astype(np.uint64)
    seed_hi, seed_lo, seq_hi, seq_lo = (state[:, 2 * j] | (state[:, 2 * j + 1] << 32) for j in range(4))
    return (seed_hi, seed_lo), (seq_hi, seq_lo)


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


def _add(x, y):
    """``x + y (mod 2**128)`` for (hi, lo) uint64 pairs."""
    lo = x[1] + y[1]
    return x[0] + y[0] + (lo < y[1]), lo


def _mul(x, y):
    """``x * y (mod 2**128)`` for (hi, lo) uint64 pairs."""
    x0, x1, y0, y1 = x[1] & _M32, x[1] >> 32, y[1] & _M32, y[1] >> 32
    cross = (x0 * y1, x1 * y0)
    mid = (x0 * y0 >> 32) + (cross[0] & _M32) + (cross[1] & _M32)
    carry = x1 * y1 + (cross[0] >> 32) + (cross[1] >> 32) + (mid >> 32)
    return carry + x[1] * y[0] + x[0] * y[1], x[1] * y[1]


@lru_cache(maxsize=8)
def _jump_table(count: int) -> tuple[np.ndarray, ...]:
    """``A_k`` and ``C_k`` for k = 1 .. count as (a_hi, a_lo, c_hi, c_lo) uint64 arrays.

    Built by doubling: ``A_{L+j} = A_L A_j`` and ``C_{L+j} = C_L + A_L C_j``.
    Only as long as a block needs: building all ``_CHUNK`` entries for a
    10 x 10 grid would leave its temporaries in the heap for the whole run.
    """
    a = _A
    c = (np.zeros(1, np.uint64), np.ones(1, np.uint64))
    while len(a[0]) < count:
        top = (a[0][-1:], a[1][-1:])
        a_next = _mul(a, top)
        c_next = _add(_mul(c, top), (c[0][-1:], c[1][-1:]))
        a = tuple(np.concatenate(p) for p in zip(a, a_next))
        c = tuple(np.concatenate(p) for p in zip(c, c_next))
    table = tuple(half[:count] for half in (*a, *c))
    for half in table:
        half.flags.writeable = False
    return table
