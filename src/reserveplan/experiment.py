"""Species suites, scenarios, budget sweeps, and similarity statistics.

The default suite places eight species on the extremes of a large random
landscape pool: the two most and two least fragmented landscapes each carry
one species of population 100 and one of 250. Scenarios group species into
reserves and sweep the budget, solving the selection problem once on observed
counts and once on projected counts, then counting how many parcels receive
the same protection decision.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction
from statistics import fmean, median
from typing import Sequence

import numpy as np

from ._checks import InvalidDimensionError, as_numbers, as_seed, as_weights
from .dynamics import LVParams, default_params, round_counts, simulate
from .landscape import (
    CountsGrid,
    Landscape,
    _generate_values,
    distribute_population,
    fragmentation,
    select_extremes,
)
# ``solve`` is unused here; bench/test_bench.py checks that the tracer wraps this name.
from .solver import ReserveSolution, solve, solve_models  # noqa: F401

__all__ = [
    "SpeciesSpec",
    "Scenario",
    "SweepRow",
    "SimilarityStats",
    "SUITE_LAYOUT",
    "CASE_GROUPS",
    "DEFAULT_BUDGETS",
    "MAX_SMOOTHING_ROUNDS",
    "build_species_suite",
    "default_scenarios",
    "similarity",
    "budget_sweep",
    "summarize",
    "summarize_similarities",
    "weighted_comparison",
]

#: (label, fragmentation rank, total population) for the default 8-species suite.
SUITE_LAYOUT: tuple[tuple[str, str, int], ...] = (
    ("S0", "highest", 100),
    ("S1", "2nd highest", 100),
    ("S2", "highest", 250),
    ("S3", "2nd highest", 250),
    ("S4", "lowest", 100),
    ("S5", "2nd lowest", 100),
    ("S6", "lowest", 250),
    ("S7", "2nd lowest", 250),
)

#: Suite indices for the four 2-species and two 5-species reserve cases.
CASE_GROUPS: tuple[tuple[int, ...], ...] = (
    (0, 1),
    (2, 3),
    (4, 5),
    (6, 7),
    (0, 1, 2, 3, 4),
    (5, 6, 7, 0, 1),
)

DEFAULT_BUDGETS: tuple[int, ...] = tuple(range(0, 101, 5))

#: Smoothing rounds are drawn uniformly from {0, ..., MAX_SMOOTHING_ROUNDS}.
MAX_SMOOTHING_ROUNDS = 8


@dataclass(frozen=True, eq=False)
class SpeciesSpec:
    """One species: its label, landscape assignment, and observed counts."""

    label: str
    fragmentation_rank: str
    total: int
    landscape: Landscape
    counts: CountsGrid

    def __post_init__(self) -> None:
        if self.counts.species_count != 1:
            raise ValueError("a species spec holds a single-species counts grid")
        n, side = self.counts.n, self.landscape.n
        if side != n:
            raise InvalidDimensionError(f"landscape must be {n}x{n} like its counts, got {side}x{side}")
        placed = int(self.counts.totals()[0])
        if placed != self.total:
            raise ValueError(f"counts sum to {placed}, expected total {self.total}")


@dataclass(frozen=True, eq=False)
class Scenario:
    """An ordered species group with weights, budgets, costs, and dynamics parameters."""

    species: tuple[SpeciesSpec, ...]
    weights: tuple[Fraction, ...]
    budgets: tuple[int, ...]
    costs: np.ndarray
    lv_params: LVParams
    seed: int | None = None

    def __post_init__(self) -> None:
        species = tuple(self.species)
        if not species:
            raise ValueError("scenario needs at least one species")
        n = species[0].counts.n
        if any(sp.counts.n != n for sp in species):
            raise InvalidDimensionError("all species in a scenario must share the same grid size")
        weights = as_weights(self.weights, "weights")
        if len(weights) != len(species):
            raise ValueError(f"{len(weights)} weights for {len(species)} species")
        budgets = as_numbers(self.budgets, "budgets", integer=True, shape=(None,))
        if not budgets.size or np.any(np.diff(budgets) <= 0):
            raise ValueError("budgets must be nonempty, strictly ascending and unique")
        costs = as_numbers(self.costs, "costs", integer=True, shape=(n * n,))
        if self.lv_params.species_count != len(species):
            raise ValueError(
                f"dynamics parameters cover {self.lv_params.species_count} species, "
                f"scenario has {len(species)}"
            )
        object.__setattr__(self, "species", species)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "budgets", tuple(budgets.tolist()))
        object.__setattr__(self, "costs", costs)
        object.__setattr__(self, "seed", None if self.seed is None else as_seed(self.seed))

    def observed(self) -> CountsGrid:
        """Observed counts of the scenario's species, stacked in order."""
        return CountsGrid(np.concatenate([sp.counts.counts for sp in self.species]))


@dataclass(frozen=True, eq=False)
class SweepRow:
    """Both models' selections at one budget (rows of the sweep's arrays) and their agreement."""

    budget: int
    similarity: int
    objective_1: Fraction
    objective_2: Fraction
    x_1: np.ndarray
    x_2: np.ndarray


@dataclass(frozen=True)
class SimilarityStats:
    """Min/mean/median parcel agreement over the interior budgets of a sweep."""

    min: int
    mean: float
    median: float


def build_species_suite(
    seed: int, pool_size: int = 10_000, grid: int = 10
) -> list[SpeciesSpec]:
    """Generate a landscape pool, pick its fragmentation extremes, and place species.

    Pool landscape i uses seed ``seed + i`` with smoothing rounds drawn
    uniformly from {0, ..., 8}; species j is placed with seed
    ``seed + pool_size + j``. The result is deterministic in ``seed``.
    """
    seed, grid = as_seed(seed), int(as_numbers(grid, "grid", integer=True, shape=()))
    pool_size = int(as_numbers(pool_size, "pool_size", integer=True, shape=()))
    if pool_size < 4:
        raise ValueError(f"pool_size must be >= 4 to pick two extremes each way, got {pool_size}")
    rng = np.random.default_rng(seed)
    rounds = rng.integers(0, MAX_SMOOTHING_ROUNDS + 1, size=pool_size)
    # One working set serves every smoothing-rounds group: two flat buffers sized for the
    # largest group hold its draws, smoothing, rescale and values, and scoring writes its
    # differences into the one not holding the values. A grid the pool picks is among its
    # group's own select_extremes picks (a group is the pool's subset in index order), so
    # only those, at most four per group, keep their values for the pool's four Landscapes.
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
    ranks = ("highest", "2nd highest", "lowest", "2nd lowest")
    by_rank = {rank: Landscape(kept[i]) for rank, i in zip(ranks, [*most.tolist(), *least.tolist()])}
    return [
        SpeciesSpec(label, rank, total, by_rank[rank],
                    distribute_population(by_rank[rank], total, seed + pool_size + j))
        for j, (label, rank, total) in enumerate(SUITE_LAYOUT)
    ]


def default_scenarios(suite: Sequence[SpeciesSpec], *, seed: int | None = None) -> list[Scenario]:
    """The six standard reserve cases over an 8-species suite, equal weights, unit costs.

    Every case sweeps ``DEFAULT_BUDGETS`` under the uniform ``default_params``
    for its species count (cases mix 2- and 5-species reserves).
    """
    if len(suite) != len(SUITE_LAYOUT):
        raise ValueError(f"expected a suite of {len(SUITE_LAYOUT)} species, got {len(suite)}")
    parcels = suite[0].counts.parcel_count
    return [
        Scenario(
            species=tuple(suite[i] for i in group),
            weights=(1,) * len(group),
            budgets=DEFAULT_BUDGETS,
            costs=np.ones(parcels, dtype=np.int64),
            lv_params=default_params(len(group)),
            seed=seed,
        )
        for group in CASE_GROUPS
    ]


def similarity(a: ReserveSolution, b: ReserveSolution) -> int:
    """Number of parcels that receive the same protection decision in both solutions."""
    if a.parcel_count != b.parcel_count:
        raise ValueError(f"solutions cover {a.parcel_count} and {b.parcel_count} parcels")
    return int(np.sum(a.x == b.x))


def _model_grids(scenario: Scenario) -> tuple[CountsGrid, CountsGrid]:
    """Observed counts and their rounded projection, which no budget or weight changes."""
    observed = scenario.observed()
    return observed, round_counts(simulate(observed, scenario.lv_params))


def _sweep(scenario: Scenario, grids: tuple[CountsGrid, CountsGrid]) -> list[SweepRow]:
    """Solve both grids at every budget in one ``solve_models`` call and count agreement."""
    matrices, budgets = [grid.matrix() for grid in grids], scenario.budgets
    (x_1, obj_1, _), (x_2, obj_2, _) = solve_models(matrices, scenario.weights, scenario.costs, budgets)
    same = (x_1 == x_2).sum(axis=1).tolist()
    return [SweepRow(*row) for row in zip(budgets, same, obj_1, obj_2, x_1, x_2, strict=True)]


def budget_sweep(scenario: Scenario) -> list[SweepRow]:
    """Solve both models at every budget of a scenario, projecting its counts once."""
    return _sweep(scenario, _model_grids(scenario))


def summarize_similarities(budgets: Sequence[int], similarities: Sequence[int]) -> SimilarityStats:
    """Similarity statistics over interior budgets of aligned (budget, similarity) pairs."""
    if len(budgets) != len(similarities):
        raise ValueError(f"{len(budgets)} budgets for {len(similarities)} similarities")
    order = sorted(range(len(budgets)), key=lambda i: budgets[i])
    interior = order[1:-1]
    if not interior:
        raise ValueError("need at least one interior budget row to summarize")
    sims = [similarities[i] for i in interior]
    return SimilarityStats(min=min(sims), mean=fmean(sims), median=float(median(sims)))


def summarize(rows: Sequence[SweepRow]) -> SimilarityStats:
    """Similarity statistics over a sweep's interior budgets.

    The rows at the lowest and highest budget are excluded: there the solution
    is to protect nothing or everything, which both models always share. The
    median of an even count is the mean of the two middle values.
    """
    return summarize_similarities([r.budget for r in rows], [r.similarity for r in rows])


def weighted_comparison(
    scenario: Scenario, weight_sets: Sequence[Sequence]
) -> list[tuple[tuple[Fraction, ...], list[SweepRow]]]:
    """Run the same sweep once per weight set on otherwise identical inputs.

    Every weight set is checked, as a scenario, before any sweep runs. Weights
    do not enter the projection, so it runs once for all of them.
    """
    variants = [dataclasses.replace(scenario, weights=weights) for weights in weight_sets]
    grids = _model_grids(scenario)
    return [(variant.weights, _sweep(variant, grids)) for variant in variants]
