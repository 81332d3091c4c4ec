"""Synthetic gridded landscapes: generation, fragmentation scoring, population placement.

A landscape is an n x n grid of habitat values in [0, 1], where a higher value
marks worse habitat. Individuals of a species are placed on a landscape by a
seeded multinomial draw whose per-parcel intensity is proportional to habitat
quality q = 1 - h.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._checks import as_numbers

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


class InvalidDimensionError(ValueError):
    """Grid side length is not positive, or an array has the wrong shape."""


class InsufficientCandidatesError(ValueError):
    """Landscape pool is too small for the requested selection."""


class DegenerateIntensityError(ValueError):
    """Individuals were requested but every parcel has zero habitat quality."""


@dataclass(frozen=True, eq=False)
class Landscape:
    """Square grid of per-parcel habitat values in [0, 1] (higher = worse).

    ``seed`` and ``smoothing_rounds`` record how the grid was generated; they
    are absent (None) on landscapes loaded from files.
    """

    n: int
    values: np.ndarray
    seed: int | None = None
    smoothing_rounds: int | None = None

    def __post_init__(self) -> None:
        n = int(as_numbers(self.n, "n", integer=True))
        if n < 1:
            raise InvalidDimensionError(f"grid side length must be >= 1, got {n}")
        values = as_numbers(self.values, "habitat values", hi=1.0)
        if values.shape != (n, n):
            raise InvalidDimensionError(f"expected a {n}x{n} value grid, got shape {values.shape}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "values", values)

    @property
    def parcel_count(self) -> int:
        return self.n * self.n


@dataclass(frozen=True, eq=False)
class CountsGrid:
    """Per-species, per-parcel nonnegative integer counts on an n x n grid."""

    n: int
    counts: np.ndarray  # shape (species, n, n)

    def __post_init__(self) -> None:
        n = int(as_numbers(self.n, "n", integer=True))
        if n < 1:
            raise InvalidDimensionError(f"grid side length must be >= 1, got {n}")
        counts = as_numbers(self.counts, "counts", integer=True)
        if counts.ndim != 3 or counts.shape[1:] != (n, n):
            raise InvalidDimensionError(
                f"expected counts of shape (species, {n}, {n}), got {counts.shape}"
            )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "counts", counts)

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

    @classmethod
    def stack(cls, grids: Sequence["CountsGrid"]) -> "CountsGrid":
        """Combine single- or multi-species grids of equal size into one grid."""
        if not grids:
            raise ValueError("need at least one grid to stack")
        n = grids[0].n
        if any(g.n != n for g in grids):
            raise InvalidDimensionError("all stacked grids must share the same side length")
        return cls(n=n, counts=np.concatenate([g.counts for g in grids], axis=0))


def generate_landscape(n: int, smoothing_rounds: int, seed: int) -> Landscape:
    """Generate a seeded random landscape with a controllable fragmentation level.

    Parcel values start as independent uniforms on [0, 1]; each smoothing round
    replaces every parcel with the mean of itself and its in-grid orthogonal
    neighbours, and the grid is finally rescaled to span [0, 1] (skipped when
    constant). More smoothing rounds yield smoother, less fragmented grids.
    The output is a deterministic function of (n, smoothing_rounds, seed).
    """
    values = _generate_values(n, smoothing_rounds, [seed])[0]
    return Landscape(n=n, values=values, seed=seed, smoothing_rounds=smoothing_rounds)


def _generate_values(n: int, rounds: int, seeds: Sequence[int]) -> np.ndarray:
    """Value grids of ``generate_landscape(n, rounds, s)`` for each s in seeds, shape (m, n, n)."""
    if n < 1:
        raise InvalidDimensionError(f"grid side length must be >= 1, got {n}")
    if rounds < 0:
        raise ValueError(f"smoothing_rounds must be >= 0, got {rounds}")
    h = np.empty((len(seeds), n, n))
    for k, seed in enumerate(seeds):
        np.random.default_rng(seed).random(out=h[k])
    for _ in range(rounds):
        h = _neighbor_mean(h)
    return _rescale_unit(h)


def _neighbor_mean(h: np.ndarray) -> np.ndarray:
    """One smoothing pass over the last two axes.

    Each cell becomes the mean of itself and its in-grid orthogonal neighbours.
    """
    total = h.copy()
    count = np.ones(h.shape[-2:])
    total[..., 1:, :] += h[..., :-1, :]
    count[1:, :] += 1.0
    total[..., :-1, :] += h[..., 1:, :]
    count[:-1, :] += 1.0
    total[..., :, 1:] += h[..., :, :-1]
    count[:, 1:] += 1.0
    total[..., :, :-1] += h[..., :, 1:]
    count[:, :-1] += 1.0
    return np.divide(total, count, out=total)


def _rescale_unit(h: np.ndarray) -> np.ndarray:
    """Affinely rescale each grid (last two axes) to span [0, 1]; constant grids pass through."""
    lo = h.min(axis=(-2, -1), keepdims=True)
    hi = h.max(axis=(-2, -1), keepdims=True)
    flat = hi == lo
    return (h - np.where(flat, 0.0, lo)) / np.where(flat, 1.0, hi - lo)


def fragmentation(landscape: Landscape) -> float:
    """Mean absolute value difference over all orthogonally adjacent parcel pairs.

    0 for a constant grid, 1 for a maximal-contrast checkerboard; 0 for a
    single parcel, which has no adjacent pairs.
    """
    return float(_fragmentation_scores(landscape.values[np.newaxis])[0])


def _fragmentation_scores(values: np.ndarray) -> np.ndarray:
    """``fragmentation`` of each grid in a (m, n, n) batch, shape (m,)."""
    m, n = values.shape[0], values.shape[-1]
    if n == 1 or m == 0:
        return np.zeros(m)
    down = np.abs(np.diff(values, axis=1)).reshape(m, -1)
    right = np.abs(np.diff(values, axis=2)).reshape(m, -1)
    return (down.sum(axis=1) + right.sum(axis=1)) / (2 * n * (n - 1))


def _extreme_indices(scores: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the k highest and the k lowest scores, each from the more extreme end.

    The head and the reversed tail of the (-score, index) order.
    """
    order = np.argsort(-scores, kind="stable")
    return order[:k], order[::-1][:k]


def select_extremes(
    landscapes: Sequence[Landscape], k: int
) -> tuple[list[Landscape], list[Landscape]]:
    """Pick the k most and k least fragmented landscapes from a pool.

    Returns (most, least), each ordered from the more extreme to the less
    extreme entry, so most[0] has the highest score and least[0] the lowest.
    Among tied scores the earlier landscape counts as more fragmented, so it
    wins the more extreme slot in most and the less extreme one in least; the
    two groups are always disjoint.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if len(landscapes) < 2 * k:
        raise InsufficientCandidatesError(
            f"need at least {2 * k} landscapes to pick {k} of each extreme, got {len(landscapes)}"
        )
    most, least = _extreme_indices(np.array([fragmentation(l) for l in landscapes]), k)
    return [landscapes[i] for i in most], [landscapes[i] for i in least]


def distribute_population(landscape: Landscape, total: int, seed: int) -> CountsGrid:
    """Place ``total`` individuals on a landscape by a seeded multinomial draw.

    Per-parcel probabilities are proportional to habitat quality q = 1 - h, so
    the placement intensity decreases on worse habitat. The returned counts sum
    to ``total`` exactly and are a deterministic function of the seed.
    """
    if total < 0:
        raise ValueError(f"total population must be >= 0, got {total}")
    n = landscape.n
    if total == 0:
        return CountsGrid(n=n, counts=np.zeros((1, n, n), dtype=np.int64))
    quality = 1.0 - landscape.values
    mass = quality.sum()
    if mass <= 0.0:
        raise DegenerateIntensityError(
            "cannot place individuals: every parcel has habitat quality 0"
        )
    probs = (quality / mass).ravel()
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(total, probs).reshape(n, n)
    return CountsGrid(n=n, counts=counts[np.newaxis, :, :])
