"""Shared helpers: random problem instances, the exact logistic solution, a
per-landscape reference generator and a small reusable species suite. Every
test starts with an empty projection memo."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from reserveplan import Landscape, ReserveProblem, build_species_suite, dynamics
from reserveplan.experiment import MAX_SMOOTHING_ROUNDS


@pytest.fixture(autouse=True)
def cold_projection_memo():
    """Each test starts from an empty projection memo, whatever ran before it.

    ``simulate`` keeps projected columns for the life of the process, so a test
    that counts kernel calls, bounds memory or times a projection would
    otherwise depend on which tests ran before it in the same session.
    """
    dynamics._memo.clear()


def random_problem(
    rng: np.random.Generator,
    *,
    max_parcels: int = 16,
    max_species: int = 3,
    max_cost: int = 10,
    max_value: int = 50,
    unit_costs: bool = False,
    parcels: int | None = None,
) -> ReserveProblem:
    """A random selection instance with rational weights and integer data."""
    p = parcels if parcels is not None else int(rng.integers(1, max_parcels + 1))
    s = int(rng.integers(1, max_species + 1))
    values = rng.integers(0, max_value + 1, size=(s, p))
    if unit_costs:
        costs = np.ones(p, dtype=np.int64)
    else:
        costs = rng.integers(0, max_cost + 1, size=p)
    weights = tuple(
        Fraction(int(rng.integers(0, 11)), int(rng.integers(1, 11))) for _ in range(s)
    )
    if all(w == 0 for w in weights):
        weights = (Fraction(1),) + weights[1:]
    budget = int(rng.integers(0, int(costs.sum()) + 6))
    return ReserveProblem(values=values, weights=weights, costs=costs, budget=budget)


def logistic_closed_form(n0: float, r: float, beta: float, t: float) -> float:
    """Exact solution of dN/dt = r*N - beta*N^2 from N(0) = n0."""
    if n0 == 0.0:
        return 0.0
    k = r / beta
    growth = math.exp(r * t)
    return k * n0 * growth / (k + n0 * (growth - 1.0))


def reference_landscape_values(n: int, smoothing_rounds: int, seed: int) -> np.ndarray:
    """One landscape's values, generated grid by grid on a 2-D array.

    The batched pool kernel in ``reserveplan.landscape`` must equal this bit for bit.
    """
    h = np.random.default_rng(seed).random((n, n))
    for _ in range(smoothing_rounds):
        total = h.copy()
        count = np.ones_like(h)
        total[1:, :] += h[:-1, :]
        count[1:, :] += 1.0
        total[:-1, :] += h[1:, :]
        count[:-1, :] += 1.0
        total[:, 1:] += h[:, :-1]
        count[:, 1:] += 1.0
        total[:, :-1] += h[:, 1:]
        count[:, :-1] += 1.0
        h = total / count
    lo, hi = float(h.min()), float(h.max())
    return h if hi == lo else (h - lo) / (hi - lo)


def pool_rounds(seed: int, pool_size: int) -> np.ndarray:
    """The smoothing rounds ``build_species_suite`` draws for each pool member."""
    return np.random.default_rng(seed).integers(0, MAX_SMOOTHING_ROUNDS + 1, size=pool_size)


def reference_pool(seed: int, pool_size: int, grid: int) -> list[Landscape]:
    """The landscape pool ``build_species_suite`` scores, built one Landscape at a time.

    Member i comes from seed ``seed + i`` with ``pool_rounds(seed, pool_size)[i]`` rounds.
    """
    rounds = pool_rounds(seed, pool_size)
    return [Landscape(reference_landscape_values(grid, int(r), seed + i)) for i, r in enumerate(rounds)]


@pytest.fixture(scope="session")
def small_suite():
    """Eight species on a 10x10 grid from a small landscape pool (fast)."""
    return build_species_suite(seed=11, pool_size=60, grid=10)
