"""Synthetic gridded landscapes: generation, fragmentation scoring, population placement.

A landscape is an n x n grid of habitat values in [0, 1], where a higher value
marks worse habitat. Individuals of a species are placed on a landscape by a
seeded multinomial draw whose per-parcel intensity is proportional to habitat
quality q = 1 - h.

The starting uniforms of every grid, one landscape or a whole pool, come from
``_pcg.uniform_grids``, which reproduces ``np.random.default_rng(seed).random((n, n))``
bit for bit (pinned by ``TestUniformGrids`` and ``test_matches_per_landscape_reference``).
A pool (``_pool_extremes``) is built one smoothing-rounds group at a time in one working set of
two flat buffers, so no group allocates arrays of its own: the draws land in one, smoothing and
rescaling ping-pong through both as (n, n, m) grid-last views (each shifted add one contiguous
run over all m grids, each cell adding the same values in the same order), and ``fragmentation``
scores the row-major (m, n, n) values, writing its differences into the other (a grid-last sum
would move the scores' last bits). A pool pick is among its group's own ``select_extremes``
picks (a group is the pool's subset in index order), so only those keep their values.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import Sequence

import numpy as np

from ._checks import InvalidDimensionError, as_numbers, as_seed
from ._pcg import uniform_grids

__all__ = [
    "InvalidDimensionError",
    "InsufficientCandidatesError",
    "DegenerateIntensityError",
    "Landscape",
    "CountsGrid",
    "generate_landscape",
    "fragmentation",
    "select_extremes",
    "distribute_population",
]

#: Smoothing rounds are drawn uniformly from {0, ..., MAX_SMOOTHING_ROUNDS}.
MAX_SMOOTHING_ROUNDS = 8


class InsufficientCandidatesError(ValueError):
    """Landscape pool is too small for the requested selection."""


class DegenerateIntensityError(ValueError):
    """Individuals were requested but every parcel has zero habitat quality."""


def _require_square(a: np.ndarray, name: str, ndim: int) -> None:
    """Refuse ``a`` unless it has ``ndim`` axes, the last two equal and at least 1 long, naming ``name``."""
    if a.ndim != ndim:
        raise InvalidDimensionError(f"{name} must have {ndim} axes, got shape {a.shape}")
    if a.shape[-1] == 0 or a.shape[-1] != a.shape[-2]:
        raise InvalidDimensionError(f"{name} must be a nonempty square grid, got shape {a.shape}")


@dataclass(frozen=True, eq=False)
class Landscape:
    """Square grid of per-parcel habitat values in [0, 1] (higher = worse)."""

    values: np.ndarray

    def __post_init__(self) -> None:
        values = as_numbers(self.values, "habitat values", hi=1.0, shape=(None, None))
        _require_square(values, "habitat values", 2)
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True, eq=False)
class CountsGrid:
    """Per-species, per-parcel nonnegative integer counts on an n x n grid."""

    counts: np.ndarray  # shape (species, n, n)

    def __post_init__(self) -> None:
        counts = as_numbers(self.counts, "counts", integer=True, shape=(None, None, None))
        _require_square(counts, "counts", 3)
        if counts.shape[0] == 0:
            raise InvalidDimensionError("counts must hold at least one species")
        object.__setattr__(self, "counts", counts)

    @property
    def n(self) -> int:
        return self.counts.shape[-1]

    @property
    def species_count(self) -> int:
        return int(self.counts.shape[0])

    @property
    def parcel_count(self) -> int:
        return self.n * self.n

    def matrix(self) -> np.ndarray:
        """Counts flattened to (species, parcels) with parcels in row-major order."""
        return self.counts.reshape(self.species_count, -1)

    def totals(self) -> np.ndarray:
        """Total population of each species across all parcels."""
        return self.matrix().sum(axis=1)


def generate_landscape(n: int, smoothing_rounds: int, seed: int) -> Landscape:
    """Generate a seeded random landscape with a controllable fragmentation level.

    Parcel values start as independent uniforms on [0, 1]; each smoothing round
    replaces every parcel with the mean of itself and its in-grid orthogonal
    neighbours, and the grid is finally rescaled to span [0, 1] (skipped when
    constant). More smoothing rounds yield smoother, less fragmented grids.
    The output is a deterministic function of (n, smoothing_rounds, seed).
    """
    n = int(as_numbers(n, "n", integer=True, shape=()))
    rounds = int(as_numbers(smoothing_rounds, "smoothing_rounds", integer=True, shape=()))
    values, _ = _generate_values(n, rounds, [as_seed(seed)])
    return Landscape(values[0])


def _generate_values(n: int, rounds: int, seeds: Sequence[int], buffers=None) -> tuple[np.ndarray, ...]:
    """Value grids of ``generate_landscape(n, rounds, s)`` for each s in seeds, (m, n, n), and a spare.

    Works in ``buffers``, two flat float64 arrays of at least m * n * n elements (made when None): the
    values are a view into one, and the spare is the other's first m * n * n elements, free to overwrite.
    """
    if n < 1:
        raise InvalidDimensionError(f"grid side length must be >= 1, got {n}")
    m = len(seeds)
    a, b = (buf[: m * n * n] for buf in buffers or (np.empty(m * n * n), np.empty(m * n * n)))
    draws = uniform_grids(seeds, a.reshape(m, n, n))
    h = b.reshape(n, n, m)  # grid-last
    np.copyto(h, draws.transpose(1, 2, 0))
    total = a.reshape(h.shape)  # the draw buffer, reused as scratch
    along = np.add(np.arange(n) > 0, np.arange(n) < n - 1, dtype=float)  # in-grid neighbours on one axis
    count = (1.0 + along[:, None] + along)[..., None]
    for _ in range(rounds):  # each cell becomes the mean of itself and its in-grid orthogonal neighbours
        np.add(h[1:], h[:-1], out=total[1:])  # self + up, the first row self alone
        total[0] = h[0]
        total[:-1] += h[1:]
        total[:, 1:] += h[:, :-1]
        total[:, :-1] += h[:, 1:]
        h, total = np.divide(total, count, out=total), h
    # each grid rescaled to span [0, 1] (a constant one passes through), then copied back to
    # (m, n, n): two contiguous passes and numpy's transposing copy beat a transposing ufunc
    lo, hi = h.min(axis=(0, 1)), h.max(axis=(0, 1))
    flat = hi == lo
    h -= np.where(flat, 0.0, lo)
    h /= np.where(flat, 1.0, hi - lo)
    out = total.reshape(draws.shape)
    np.copyto(out, h.transpose(2, 0, 1))
    return out, h.reshape(-1)


def fragmentation(values: np.ndarray, *, scratch: np.ndarray | None = None) -> np.ndarray:
    """Mean absolute value difference over all orthogonally adjacent parcel pairs, per grid.

    Scores each grid of an (m, n, n) stack, read as float64, returning shape (m,): 0 for a
    constant grid, 1 for a maximal-contrast checkerboard, and 0 for a single parcel, which
    has no adjacent pairs. One grid is a stack of one. Each direction's differences in turn
    go to ``scratch`` if given: float64, at least m * n * (n - 1) elements, apart from values.
    """
    values = np.asarray(values, dtype=np.float64)
    _require_square(values, "values", 3)
    m, n = values.shape[0], values.shape[-1]
    if n == 1 or m == 0:
        return np.zeros(m)
    size = m * n * (n - 1)
    scratch = np.empty(size) if scratch is None else scratch
    if scratch.dtype != np.float64 or scratch.size < size or np.may_share_memory(scratch, values):
        raise ValueError(f"scratch must be a float64 array of at least {size} elements apart from values")
    d = np.subtract(values[:, 1:], values[:, :-1], out=scratch.reshape(-1)[:size].reshape(m, n - 1, n))
    down = np.abs(d, out=d).reshape(m, -1).sum(axis=1)
    d = np.subtract(values[:, :, 1:], values[:, :, :-1], out=d.reshape(m, n, n - 1))
    return (down + np.abs(d, out=d).reshape(m, -1).sum(axis=1)) / (2 * n * (n - 1))


def select_extremes(scores: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Pool indices (most, least) of the k highest and the k lowest fragmentation scores.

    Each runs from the more extreme end: most[0] indexes the highest score and
    least[0] the lowest. A tie goes to the lower index as the more fragmented,
    so it wins the more extreme slot in most and the less extreme one in least,
    and the two groups are disjoint. Scores are read as float64 and must be
    finite and nonnegative, as every fragmentation score is.
    """
    if isinstance(k, bool) or not isinstance(k, Integral):  # an int reaches the k < 1 check as it is
        k = int(as_numbers(k, "k", integer=True, shape=()))
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    scores = as_numbers(scores, "scores", shape=(None,))
    if len(scores) < 2 * k:
        raise InsufficientCandidatesError(
            f"need at least {2 * k} landscapes to pick {k} of each extreme, got {len(scores)}"
        )
    cut = np.argpartition(scores, [k - 1, len(scores) - k])
    low, high = scores[cut[k - 1]], scores[cut[len(scores) - k]]
    # order only the candidates at each cut, ties by index: in Python, ~0.15 MB less peak RSS
    most = sorted(np.flatnonzero(scores >= high).tolist(), key=lambda i: -scores[i])[:k]
    least = sorted(np.flatnonzero(scores <= low)[::-1].tolist(), key=lambda i: scores[i])[:k]
    return np.array(most, dtype=np.intp), np.array(least, dtype=np.intp)


def _pool_extremes(seed: int, pool_size: int, grid: int) -> list[np.ndarray]:
    """Value grids of a pool's highest, 2nd highest, lowest and 2nd lowest fragmentation scores.

    Pool landscape i is ``generate_landscape(grid, rounds[i], seed + i)``, with every rounds[i]
    drawn by ``np.random.default_rng(seed)``. The caller checks seed, grid and pool_size >= 4.
    """
    rounds = np.random.default_rng(seed).integers(0, MAX_SMOOTHING_ROUNDS + 1, size=pool_size)
    size = np.bincount(rounds).max() * grid * grid
    buffers = np.empty(size), np.empty(size)
    scores = np.empty(pool_size)
    kept = {}
    fits = seed + pool_size <= 2**64  # pool seeds that fit in 64 bits go to the draws as one array
    for r in range(MAX_SMOOTHING_ROUNDS + 1):
        idx = np.flatnonzero(rounds == r)
        seeds = idx.astype(np.uint64) + np.uint64(seed) if fits else [seed + i for i in idx.tolist()]
        values, spare = _generate_values(grid, r, seeds, buffers)
        group = scores[idx] = fragmentation(values, scratch=spare)
        keep = np.concatenate(select_extremes(group, 2)) if len(group) >= 4 else np.arange(len(group))
        kept.update(zip(idx[keep].tolist(), values[keep]))
    most, least = select_extremes(scores, k=2)
    return [kept[i] for i in [*most.tolist(), *least.tolist()]]


def distribute_population(landscape: Landscape, total: int, seed: int) -> CountsGrid:
    """Place ``total`` individuals on a landscape by a seeded multinomial draw.

    Per-parcel probabilities are proportional to habitat quality q = 1 - h, so
    the placement intensity decreases on worse habitat. The returned counts sum
    to ``total`` exactly and are a deterministic function of the seed.
    """
    total, seed = int(as_numbers(total, "total", integer=True, shape=())), as_seed(seed)
    n = landscape.n
    if total == 0:
        return CountsGrid(np.zeros((1, n, n), dtype=np.int64))
    quality = 1.0 - landscape.values
    mass = quality.sum()
    if mass <= 0.0:
        raise DegenerateIntensityError(
            "cannot place individuals: every parcel has habitat quality 0"
        )
    probs = (quality / mass).ravel()
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(total, probs).reshape(n, n)
    return CountsGrid(counts[np.newaxis, :, :])
