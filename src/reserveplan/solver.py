"""Exact solvers for budget-constrained parcel selection.

A problem scores each parcel as the weight-combined species value it holds;
protecting a parcel spends its cost against the budget. Weights are ingested
as exact rationals and all objective arithmetic clears denominators into
integers, so optima and tie-breaks never depend on floating point. Every
solver reads one exact integer score per parcel. Every exact solve, of one
or more models at one budget or a whole sweep, runs through one kernel on
the path its costs pick: a top-k order for unit costs, else one knapsack
table every model fills in turn, its value rows in the narrowest of
uint8/uint16/uint32 that holds the largest total score. ``solve_models``
returns each model's sweep as one (budgets, parcels) int8 array; ``solve``
builds its one ``ReserveSolution`` through the public constructor. The
kernel shares one tie-break with the exhaustive test oracle
(``tests/bruteforce.py``): among optimal selections, prefer the protection
vector that protects the lower-indexed parcel at the first index where two
optima differ.
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
    "NonIntegerCostError",
    "TableTooLargeError",
    "ReserveProblem",
    "ReserveSolution",
    "solve",
    "solve_models",
]

_INT64_SAFE = 2**62


class NonIntegerCostError(ValueError):
    """Costs or budget are not integers; rescale the currency unit first."""


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


def _solve_budgets(problems: Sequence[ReserveProblem], budgets: list[int], topk: bool) -> list[tuple]:
    """The one exact kernel: each problem's ``solve_models`` sweep, every budget a row of ``x``.

    The problems (a sweep's models) share costs and budgets. With ``topk``
    (unit costs) every optimum is a prefix of one score order: budget b
    protects the parcels ranked below b, all budgets in one comparison, with
    the prefix sum of the first b sorted scores as objective. Otherwise each
    problem in turn fills and traces one boolean table up to the largest
    budget: ``keep[j, b]`` says protecting parcel j attains the optimum over
    parcels j.. at budget b. A fill overwrites every ``keep[j, c_j:]`` and
    ``keep[j, :c_j]`` stays False, so the table is zeroed once. The value rows
    ``best`` and ``take`` are shared too, and the views of them and of ``keep``
    are built once per distinct cost. Value entries are subset sums of
    nonnegative scores, so they take the narrowest unsigned type that holds
    the largest total score (else the widest scores' dtype). Each budget
    traces back into its row of ``x``, reading ``keep[j, b]`` as flat byte
    ``j * width + b``: the index steps ``width`` per parcel, back by each
    protected cost, so its end gives the spend; ``best[b]`` is the objective.
    """
    scored, n, sweeps = [_integer_scores(problem) for problem in problems], problems[0].parcel_count, []
    if topk:
        taken = [min(b, n) for b in budgets]  # parcels protected, each costing 1
        for scores, den in scored:
            order = np.argsort(-scores, kind="stable")  # ties keep index order
            rank = np.empty_like(order)
            rank[order] = np.arange(n)
            xs = (rank < np.array(taken, dtype=np.intp)[:, np.newaxis]).astype(np.int8)
            prefix = [0, *np.cumsum(scores[order]).tolist()]  # exact: int64 below 2**62, else object
            sweeps.append((xs, [Fraction(prefix[k], den) for k in taken], list(taken)))
        return sweeps
    costs, total = problems[0].costs.tolist(), max(int(scores.sum()) for scores, _ in scored)
    wide = np.result_type(*(scores for scores, _ in scored))
    row = next((d for d in map(np.dtype, ("u1", "u2", "u4")) if total <= np.iinfo(d).max), wide)
    bmax = min(max(budgets, default=0), sum(costs))
    table_bytes = (n + 2 * row.itemsize) * (bmax + 1)  # boolean keep rows plus two value rows
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if table_bytes > memory:
        raise TableTooLargeError(
            f"budget {bmax} needs a {table_bytes:,}-byte knapsack table, "
            f"more than the {memory:,} bytes of physical memory"
        )
    width = bmax + 1
    best, take = np.empty(width, dtype=row), np.empty(width, dtype=row)
    keep = np.zeros((n, width), dtype=bool)
    views = {  # per distinct cost c, over the budgets b >= c: best[b - c], take, best[b], keep[:, b]
        c: (best[: width - c], take[: width - c], best[c:], keep[:, c:]) for c in set(costs) if c <= bmax
    }
    flat = memoryview(keep).cast("B")  # keep[j, b] is flat[j * width + b]
    add, greater_equal, maximum = np.add, np.greater_equal, np.maximum  # local names: ~5% of a fill
    for scores, den in scored:
        best.fill(0)
        row_scores = scores.astype(row)
        for j in range(n - 1, -1, -1):
            c = costs[j]
            if c <= bmax:
                head, t, tail, rows = views[c]
                add(head, row_scores[j], t)
                greater_equal(t, tail, rows[j])
                maximum(tail, t, out=tail)
        xs, objectives, spent = np.zeros((len(budgets), n), dtype=np.int8), [], []
        for x, budget in zip(xs, budgets):
            start = at = min(budget, bmax)
            chosen = []
            for j in range(n):
                if flat[at]:
                    chosen.append(j)
                    at -= costs[j]
                at += width
            x[chosen] = 1
            objectives.append(Fraction(int(best[start]), den))
            spent.append(start + n * width - at)
        sweeps.append((xs, objectives, spent))
    return sweeps


def solve_models(models: Sequence, weights, costs, budgets: Sequence[int]) -> list[tuple]:
    """One sweep ``(x, objectives, spent)`` per value matrix in ``models``, budgets in order.

    ``x`` is an int8 array of shape ``(len(budgets), parcels)``: row i is the
    optimal selection at ``budgets[i]``, with exact ``Fraction`` objective
    ``objectives[i]`` and ``int`` cost ``spent[i]``. Each model is validated
    once, at the largest budget; non-unit costs share one knapsack table."""
    budgets = _as_costs(budgets, "budgets", (None,)).tolist()
    problems = [ReserveProblem(values, weights, costs, max(budgets, default=0)) for values in models]
    return _solve_budgets(problems, budgets, topk=bool(np.all(problems[0].costs == 1))) if problems else []


def solve(problem: ReserveProblem) -> ReserveSolution:
    """The optimal selection at the problem's one budget: ``solve_models`` of its one model."""
    [sweep] = solve_models([problem.values], problem.weights, problem.costs, [problem.budget])
    return ReserveSolution(*(column[0] for column in sweep))  # x, objective and spent at the one budget


# Aliases of ``solve``, kept only because bench/tracing.py wraps these names: delete this
# line once its TRACED table no longer names them.
solve_topk = solve_dp = solve
