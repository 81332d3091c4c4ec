"""The exhaustive test oracle: the optimal selection by enumerating every subset of parcels.

It reads the solvers' exact integer scores and shares their tie-break: among
optimal selections, prefer the one that protects the lower-indexed parcel at
the first index where two optima differ.
"""

from fractions import Fraction

import numpy as np

from reserveplan.solver import ReserveProblem, ReserveSolution, _integer_scores

BRUTEFORCE_LIMIT = 20


class EnumerationLimitError(ValueError):
    """Problem is too large for exhaustive enumeration."""


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
    return ReserveSolution(x, objective, sum(problem.costs[x == 1].tolist()))
