"""Exact solvers for budget-constrained parcel selection.

A problem scores each parcel as the weight-combined species value it holds;
protecting a parcel spends its cost against the budget. Weights are ingested
as exact rationals and all objective arithmetic clears denominators into
integers, so optima and tie-breaks never depend on floating point. Every
exact solve, for one budget or a whole budget sweep, runs through one kernel:
a top-k order for unit costs, a knapsack table otherwise. It shares one
tie-break with the exhaustive oracle: among optimal selections, prefer the
protection vector that protects the lower-indexed parcel at the first index
where two optima differ.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from numbers import Integral
from typing import Sequence

import numpy as np

__all__ = [
    "WrongSolverError",
    "NonIntegerCostError",
    "EnumerationLimitError",
    "TableTooLargeError",
    "ReserveProblem",
    "ReserveSolution",
    "parcel_score",
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


def _as_nonneg_int_array(arr, name: str) -> np.ndarray:
    a = np.asarray(arr)
    if a.dtype.kind in "uO":  # Python ints past int64 arrive as uint64 or object arrays
        items = a.ravel().tolist()
        if not all(isinstance(v, Integral) and -(2**63) <= v < 2**63 for v in items):
            raise ValueError(f"{name} must be integers within int64 range")
    elif a.dtype.kind != "i":
        if not np.array_equal(np.rint(a), a):
            if name == "costs":
                raise NonIntegerCostError("costs must be integers; rescale to whole currency units")
            raise ValueError(f"{name} must be whole numbers")
        if not np.all(np.abs(a) < 2**63):
            raise ValueError(f"{name} must be integers within int64 range")
    a = a.astype(np.int64)
    if np.any(a < 0):
        raise ValueError(f"{name} must be nonnegative")
    return a


def _check_budget(budget) -> int:
    if budget < 0 or int(budget) != budget:
        raise NonIntegerCostError(f"budget must be a nonnegative integer, got {budget}")
    return int(budget)


@dataclass(frozen=True, eq=False)
class ReserveProblem:
    """Per-parcel species values, species weights, parcel costs, and a budget.

    ``values`` has shape (species, parcels); weights accept anything Fraction
    can ingest (ints, strings, (num, den) handled by callers). Costs and the
    budget must be nonnegative integers.
    """

    values: np.ndarray
    weights: tuple[Fraction, ...]
    costs: np.ndarray
    budget: int

    def __post_init__(self) -> None:
        values = _as_nonneg_int_array(self.values, "values")
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
            raise ValueError(f"values must be (species, parcels), got shape {values.shape}")
        weights = tuple(Fraction(w) for w in self.weights)
        if len(weights) != values.shape[0]:
            raise ValueError(
                f"{len(weights)} weights for {values.shape[0]} species value rows"
            )
        if any(w < 0 for w in weights):
            raise ValueError("weights must be nonnegative")
        costs = _as_nonneg_int_array(self.costs, "costs")
        if costs.shape != (values.shape[1],):
            raise ValueError(
                f"{costs.shape[0] if costs.ndim == 1 else costs.shape} costs for "
                f"{values.shape[1]} parcels"
            )
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "costs", costs)
        object.__setattr__(self, "budget", _check_budget(self.budget))

    @property
    def species_count(self) -> int:
        return int(self.values.shape[0])

    @property
    def parcel_count(self) -> int:
        return int(self.values.shape[1])


@dataclass(frozen=True, eq=False)
class ReserveSolution:
    """Binary protection vector with its exact objective and spent cost."""

    x: np.ndarray
    objective: Fraction
    spent: int

    def __post_init__(self) -> None:
        x = np.asarray(self.x)
        if x.ndim != 1 or np.any((x != 0) & (x != 1)):
            raise ValueError("x must be a flat 0/1 vector")
        object.__setattr__(self, "x", x.astype(np.int8))

    @property
    def parcel_count(self) -> int:
        return int(self.x.shape[0])

    def protected_indices(self) -> list[int]:
        return [int(i) for i in np.flatnonzero(self.x)]


def _integer_scores(problem: ReserveProblem) -> tuple[list[int], int]:
    """Per-parcel scores with weight denominators cleared; returns (scores, denominator)."""
    den = lcm(*(w.denominator for w in problem.weights))
    scaled = [int(w * den) for w in problem.weights]
    bound = sum(
        sw * int(col_max)
        for sw, col_max in zip(scaled, problem.values.max(axis=1, initial=0))
    ) * problem.parcel_count
    if bound < _INT64_SAFE and all(sw < _INT64_SAFE for sw in scaled):
        scores = np.asarray(scaled, dtype=np.int64) @ problem.values
        return [int(v) for v in scores], den
    rows = problem.values.tolist()
    scores = [
        sum(sw * int(rows[i][p]) for i, sw in enumerate(scaled))
        for p in range(problem.parcel_count)
    ]
    return scores, den


def _build_solution(problem: ReserveProblem, chosen: Sequence[int]) -> ReserveSolution:
    idx = np.asarray(chosen, dtype=np.intp)
    x = np.zeros(problem.parcel_count, dtype=np.int8)
    x[idx] = 1
    rows = problem.values[:, idx].tolist()
    objective = sum((w * sum(row) for w, row in zip(problem.weights, rows)), Fraction(0))
    spent = sum(problem.costs[idx].tolist())
    return ReserveSolution(x=x, objective=objective, spent=spent)


def parcel_score(problem: ReserveProblem, p: int) -> Fraction:
    """Weight-combined value of one parcel: sum_i w_i * values[i, p]."""
    if not 0 <= p < problem.parcel_count:
        raise IndexError(f"parcel index {p} out of range for {problem.parcel_count} parcels")
    return sum(
        (w * int(problem.values[i, p]) for i, w in enumerate(problem.weights)),
        Fraction(0),
    )


def _solve_budgets(problem: ReserveProblem, budgets: list[int], topk: bool) -> list[ReserveSolution]:
    """The one exact kernel: the optimal selection of ``problem`` at each budget.

    With ``topk`` (unit costs) every optimum is a prefix of one score order.
    Otherwise one knapsack recursion up to the largest budget fills a boolean
    table: ``keep[j, b]`` says protecting parcel j attains the optimum over
    parcels j.. at budget b. Each budget traces back through it, protecting
    whenever ``keep`` allows.
    """
    scores, _ = _integer_scores(problem)
    n = problem.parcel_count
    if topk:
        order = sorted(range(n), key=lambda p: -scores[p])  # stable: ties keep index order
        return [_build_solution(problem, order[:b]) for b in budgets]
    costs = problem.costs.tolist()
    bmax = min(max(budgets, default=0), sum(costs))
    table_bytes = (n + 8) * (bmax + 1)  # boolean keep rows plus one 8-byte value row
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if table_bytes > memory:
        raise TableTooLargeError(
            f"budget {bmax} needs a {table_bytes:,}-byte knapsack table, "
            f"more than the {memory:,} bytes of physical memory"
        )
    # object dtype: exact arithmetic for extreme weights, at reduced speed
    best = np.zeros(bmax + 1, dtype=object if sum(scores) >= _INT64_SAFE else np.int64)
    keep = np.zeros((n, bmax + 1), dtype=bool)
    for j in range(n - 1, -1, -1):
        c, s = costs[j], scores[j]
        if c <= bmax:
            take = best[: bmax + 1 - c] + s
            keep[j, c:] = take >= best[c:]
            np.maximum(best[c:], take, out=best[c:])
    solutions = []
    for budget in budgets:
        b, chosen = min(budget, bmax), []
        for j in range(n):
            if keep[j, b]:
                chosen.append(j)
                b -= costs[j]
        solutions.append(_build_solution(problem, chosen))
    return solutions


def solve_sweep(values, weights, costs, budgets: Sequence[int]) -> list[ReserveSolution]:
    """``solve`` at every budget in ``budgets``, in order, from one sort or one table.

    The data are validated once, as a problem at the largest budget.
    """
    budgets = [_check_budget(b) for b in budgets]
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
    protected. Memory: one value row and a boolean parcels-by-budget table.
    """
    return _solve_budgets(problem, [problem.budget], topk=False)[0]


def solve(problem: ReserveProblem) -> ReserveSolution:
    """Dispatch to the unit-cost fast path when it applies, otherwise to the DP."""
    if np.all(problem.costs == 1):
        return solve_topk(problem)
    return solve_dp(problem)


def solve_bruteforce(problem: ReserveProblem) -> ReserveSolution:
    """Testing oracle: enumerate every subset of parcels (refuses > 20 parcels)."""
    n = problem.parcel_count
    if n > BRUTEFORCE_LIMIT:
        raise EnumerationLimitError(
            f"refusing to enumerate 2^{n} subsets; limit is {BRUTEFORCE_LIMIT} parcels"
        )
    scores, _ = _integer_scores(problem)
    total = 1 << n
    masks = np.arange(total, dtype=np.uint32)
    dtype: type | np.dtype = np.int64
    if sum(scores) >= _INT64_SAFE:
        dtype = object
    subset_score = np.zeros(total, dtype=dtype)
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
    chosen = [j for j in range(n) if (winner >> j) & 1]
    return _build_solution(problem, chosen)
