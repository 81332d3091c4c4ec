"""Exact solvers for budget-constrained parcel selection.

A problem scores each parcel as the weight-combined species value it holds;
protecting a parcel spends its cost against the budget. Weights are ingested
as exact rationals and all objective arithmetic clears denominators into
integers, so optima and tie-breaks never depend on floating point. Every
solver, the exhaustive oracle included, reads one exact integer score per
parcel. Every exact solve, for one budget or a whole budget sweep, runs
through ``solve_sweep``: a top-k order for unit costs, a knapsack table
otherwise, its value rows in the narrowest of uint8/uint16/uint32 that holds
the total score. It shares one tie-break with the oracle: among optimal
selections, prefer the protection vector that protects the lower-indexed
parcel at the first index where two optima differ.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

import numpy as np

from ._checks import InvalidDimensionError, as_numbers, as_weights

__all__ = [
    "WrongSolverError",
    "NonIntegerCostError",
    "EnumerationLimitError",
    "TableTooLargeError",
    "ReserveProblem",
    "ReserveSolution",
    "solve",
    "solve_sweep",
    "solve_topk",
    "solve_dp",
    "solve_bruteforce",
]

_INT64_SAFE = 2**62

BRUTEFORCE_LIMIT = 20


class WrongSolverError(ValueError):
    """The chosen solver does not apply to this problem's cost structure."""


class NonIntegerCostError(ValueError):
    """Costs or budget are not integers; rescale the currency unit first."""


class EnumerationLimitError(ValueError):
    """Problem is too large for exhaustive enumeration."""


class TableTooLargeError(ValueError):
    """The knapsack table for this budget needs more bytes than the machine's memory."""


def _as_costs(value, name: str, shape: tuple) -> np.ndarray:
    """Costs or budgets of ``shape`` as int64; every numeric refusal is a NonIntegerCostError."""
    try:
        return as_numbers(value, name, integer=True, shape=shape)
    except InvalidDimensionError:
        raise
    except ValueError as exc:
        raise NonIntegerCostError(str(exc)) from None


@dataclass(frozen=True, eq=False)
class ReserveProblem:
    """Per-parcel species values, species weights, parcel costs, and a budget.

    ``values`` has shape (species, parcels); weights are exact nonnegative
    rationals, one per species (see ``as_weights``). Costs and the budget must
    be nonnegative integers.
    """

    values: np.ndarray
    weights: tuple[Fraction, ...]
    costs: np.ndarray
    budget: int

    def __post_init__(self) -> None:
        values = as_numbers(self.values, "values", integer=True, shape=(None, None))
        if values.size == 0:
            raise InvalidDimensionError(f"values must not be empty, got shape {values.shape}")
        species, parcels = values.shape
        weights = as_weights(self.weights, "weights")
        if len(weights) != species:
            raise ValueError(f"{len(weights)} weights for {species} species value rows")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "costs", _as_costs(self.costs, "costs", (parcels,)))
        object.__setattr__(self, "budget", int(_as_costs(self.budget, "budget", ())))

    @property
    def species_count(self) -> int:
        return int(self.values.shape[0])

    @property
    def parcel_count(self) -> int:
        return int(self.values.shape[1])


@dataclass(frozen=True, eq=False)
class ReserveSolution:
    """Binary protection vector with its exact objective and spent cost, both nonnegative."""

    x: np.ndarray
    objective: Fraction
    spent: int

    def __post_init__(self) -> None:
        x = as_numbers(self.x, "x", integer=True, hi=1, shape=(None,))
        [objective] = as_weights([self.objective], "objective")  # an exact nonnegative rational
        object.__setattr__(self, "x", x.astype(np.int8))
        object.__setattr__(self, "objective", objective)
        object.__setattr__(self, "spent", int(as_numbers(self.spent, "spent", integer=True, shape=())))

    @property
    def parcel_count(self) -> int:
        return int(self.x.shape[0])

    def protected_indices(self) -> list[int]:
        return [int(i) for i in np.flatnonzero(self.x)]


def _integer_scores(problem: ReserveProblem) -> tuple[np.ndarray, int]:
    """Per-parcel scores with weight denominators cleared; returns (scores, denominator).

    The scores are computed once in exact integers. They are stored as int64
    when their total is below ``_INT64_SAFE``, so every sum of them fits, and
    as Python ints in an object array otherwise.
    """
    den = lcm(*(w.denominator for w in problem.weights))
    scaled = np.array([int(w * den) for w in problem.weights], dtype=object)
    scores = scaled @ problem.values.astype(object)
    return scores.astype(np.int64 if scores.sum() < _INT64_SAFE else object), den


def _solution(x: np.ndarray, objective: Fraction, spent: int) -> ReserveSolution:
    """A solver-built solution: int8 ``x``, exact objective and spend, valid by construction.

    Skips ``ReserveSolution``'s checks, which guard values from outside.
    """
    solution = object.__new__(ReserveSolution)
    solution.__dict__.update(x=x, objective=objective, spent=spent)
    return solution


def _solve_budgets(problem: ReserveProblem, budgets: list[int], topk: bool) -> list[ReserveSolution]:
    """The one exact kernel: the optimal selection of ``problem`` at each budget.

    With ``topk`` (unit costs) every optimum is a prefix of one score order:
    budget b protects the parcels ranked below b, all budgets in one
    comparison, with the prefix sum of the first b sorted scores as objective.
    Otherwise one knapsack recursion up to the largest budget fills a boolean
    table: ``keep[j, b]`` says protecting parcel j attains the optimum over
    parcels j.. at budget b. Each row is filled through one reused ``take``
    buffer, the comparison writing straight into ``keep``. Every entry of
    ``best`` and ``take`` is a subset sum of nonnegative scores, so both are the
    narrowest unsigned type that holds the total score (else the scores' dtype).
    Each budget traces back, protecting whenever ``keep`` allows: ``keep`` is
    read as flat bytes at position ``j * width + b``, which moves by ``width``
    per parcel and back by the cost of each protected one, so where it ends
    gives the spend; the objective is ``best[b]``. Solutions skip the public
    constructor's checks (``_solution``).
    """
    scores, den = _integer_scores(problem)
    n = problem.parcel_count
    if topk:
        order = np.argsort(-scores, kind="stable")  # ties keep index order
        rank = np.empty_like(order)
        rank[order] = np.arange(n)
        taken = [min(b, n) for b in budgets]  # parcels protected, each costing 1
        xs = (rank < np.array(taken, dtype=np.intp)[:, np.newaxis]).astype(np.int8)
        prefix = [0, *np.cumsum(scores[order]).tolist()]  # exact: int64 below 2**62, else object
        return [_solution(x, Fraction(prefix[k], den), k) for x, k in zip(xs, taken)]
    costs, total = problem.costs.tolist(), int(scores.sum())
    row = next((d for d in map(np.dtype, ("u1", "u2", "u4")) if total <= np.iinfo(d).max), scores.dtype)
    bmax = min(max(budgets, default=0), sum(costs))
    table_bytes = (n + 2 * row.itemsize) * (bmax + 1)  # boolean keep rows plus two value rows
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if table_bytes > memory:
        raise TableTooLargeError(
            f"budget {bmax} needs a {table_bytes:,}-byte knapsack table, "
            f"more than the {memory:,} bytes of physical memory"
        )
    width, row_scores = bmax + 1, scores.astype(row)
    best, take = np.zeros(width, dtype=row), np.empty(width, dtype=row)
    keep = np.zeros((n, width), dtype=bool)
    for j in range(n - 1, -1, -1):
        c, s = costs[j], row_scores[j]
        if c <= bmax:
            tail, t = best[c:], take[: width - c]
            np.add(best[: width - c], s, t)
            np.greater_equal(t, tail, keep[j, c:])
            np.maximum(tail, t, out=tail)
    flat = memoryview(keep).cast("B")  # keep[j, b] is flat[j * width + b]
    xs = np.zeros((len(budgets), n), dtype=np.int8)
    solutions = []
    for x, budget in zip(xs, budgets):
        start = at = min(budget, bmax)
        chosen = []
        for j in range(n):
            if flat[at]:
                chosen.append(j)
                at -= costs[j]
            at += width
        x[chosen] = 1
        solutions.append(_solution(x, Fraction(int(best[start]), den), start + n * width - at))
    return solutions


def solve_sweep(values, weights, costs, budgets: Sequence[int]) -> list[ReserveSolution]:
    """The optimal selection at every budget in ``budgets``, in order.

    The data are validated once, as a problem at the largest budget. Unit
    costs are answered from one sort, any other costs from one table.
    """
    budgets = _as_costs(budgets, "budgets", (None,)).tolist()
    problem = ReserveProblem(values, weights, costs, max(budgets, default=0))
    return _solve_budgets(problem, budgets, topk=bool(np.all(problem.costs == 1)))


def solve_topk(problem: ReserveProblem) -> ReserveSolution:
    """Exact fast path for unit costs: protect the budget's worth of highest-scoring parcels.

    Ties go to the lower parcel index. Refuses problems with non-unit costs.
    """
    if np.any(problem.costs != 1):
        raise WrongSolverError("solve_topk requires every parcel cost to equal 1")
    return _solve_budgets(problem, [problem.budget], topk=True)[0]


def solve_dp(problem: ReserveProblem) -> ReserveSolution:
    """Exact 0/1 knapsack over integer costs by dynamic programming.

    Prefers x_p = 1 at the lowest indices, so zero-cost parcels are always
    protected. Memory: two value rows and a boolean parcels-by-budget table.
    """
    return _solve_budgets(problem, [problem.budget], topk=False)[0]


def solve(problem: ReserveProblem) -> ReserveSolution:
    """``solve_sweep`` at the problem's one budget."""
    [solution] = solve_sweep(problem.values, problem.weights, problem.costs, [problem.budget])
    return solution


def solve_bruteforce(problem: ReserveProblem) -> ReserveSolution:
    """Testing oracle: enumerate every subset of parcels (refuses > 20 parcels)."""
    n = problem.parcel_count
    if n > BRUTEFORCE_LIMIT:
        raise EnumerationLimitError(
            f"refusing to enumerate 2^{n} subsets; limit is {BRUTEFORCE_LIMIT} parcels"
        )
    scores, den = _integer_scores(problem)
    total = 1 << n
    masks = np.arange(total, dtype=np.uint32)
    subset_score = np.zeros(total, dtype=scores.dtype)
    subset_cost = np.zeros(total, dtype=np.int64)
    for j in range(n):
        picked = ((masks >> j) & 1).astype(bool)
        subset_score[picked] += scores[j]
        subset_cost[picked] += int(problem.costs[j])
    feasible = subset_cost <= problem.budget
    best_score = subset_score[feasible].max()
    candidates = masks[feasible & (subset_score == best_score)]
    # Prefer protecting lower indices first: compare indicator vectors with
    # parcel 0 as the most significant bit.
    reversed_key = np.zeros(candidates.shape[0], dtype=np.uint32)
    for j in range(n):
        reversed_key |= ((candidates >> j) & 1) << (n - 1 - j)
    winner = int(candidates[int(np.argmax(reversed_key))])
    x = ((winner >> np.arange(n)) & 1).astype(np.int8)
    objective = Fraction(int(scores[x == 1].sum()), den)
    return _solution(x, objective, sum(problem.costs[x == 1].tolist()))
