"""An independent test oracle at scale: the optimal objective by mixed-integer programming.

It reads the solvers' exact integer scores and hands them to
``scipy.optimize.milp`` (HiGHS) as max s·x subject to c·x <= b, x in {0, 1},
with no relative gap allowed. Integer totals below 2**53 are exact in
float64, so the optimum it reports is the exact integer one. It shares no
code with the solvers beyond the scores, so it checks the optimum, not the
tie-break.
"""

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from reserveplan.solver import ReserveProblem, _integer_scores


def solve_milp(problem: ReserveProblem) -> tuple[int, int]:
    """(optimal integer score, denominator): the optimal objective is their ratio."""
    scores, den = _integer_scores(problem)
    if scores.dtype != np.int64 or int(scores.sum()) >= 2**53:
        raise ValueError("scores must total below 2**53 to be exact in float64")
    costs = problem.costs.astype(float)
    result = milp(
        -scores.astype(float),
        constraints=LinearConstraint(costs[np.newaxis], -np.inf, problem.budget),
        integrality=np.ones(problem.parcel_count),
        bounds=Bounds(0, 1),
        options={"mip_rel_gap": 0},
    )
    if not result.success:
        raise RuntimeError(f"milp failed: {result.message}")
    x = np.round(result.x).astype(np.int64)
    # the reported optimum must be the score of a feasible 0/1 selection, exactly
    if int(problem.costs @ x) > problem.budget or int(scores @ x) != round(-result.fun):
        raise RuntimeError("milp returned a selection that does not attain its objective")
    return int(scores @ x), den
