"""Acceptance checks for the whole toolkit.

Each test prints one ``[acceptance] <name>: PASS/FAIL`` line (visible under
``pytest -s``) and then asserts, so the suite both reports and enforces. The
single-species steady-state check runs its own step schedule, long enough
that the exact logistic solution from every start is within 0.1% of the fixed
point ``r/beta``, and asserts that the projection lands within 1% of it; its
line reports the step count, the horizon and the exact value beside each
simulated one.
"""

import dataclasses
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats as scipy_stats

from reserveplan import (
    CountsGrid,
    LVParams,
    Landscape,
    ReserveProblem,
    budget_sweep,
    build_species_suite,
    default_scenarios,
    distribute_population,
    generate_landscape,
    round_counts,
    similarity,
    simulate,
    solve_dp,
    solve_topk,
    summarize,
    weighted_comparison,
)
from reserveplan import fileio
from reserveplan.dynamics import _project, default_params
from reserveplan.render import Panel, caption_text
from reserveplan.solver import solve
from bruteforce import solve_bruteforce
from conftest import logistic_closed_form, random_problem

PIPELINE_SEED = 0


def report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" — {detail}"
    print(line)


@pytest.fixture(scope="module")
def full_suite():
    """The production-size suite plus how long its pool took to build."""
    started = time.perf_counter()
    suite = build_species_suite(seed=PIPELINE_SEED, pool_size=10_000, grid=10)
    return suite, time.perf_counter() - started


def test_solver_exactness():
    rng = np.random.default_rng(2024)
    started = time.perf_counter()
    checked = 0
    ok = True
    for _ in range(1000):
        problem = random_problem(rng, max_parcels=16)
        a = solve_dp(problem)
        b = solve_bruteforce(problem)
        if a.objective != b.objective or a.x.tolist() != b.x.tolist():
            ok = False
            break
        checked += 1
    elapsed = time.perf_counter() - started
    in_time = elapsed < 10.0
    report(
        "solver exactness vs exhaustive oracle",
        ok and in_time,
        f"{checked}/1000 instances agree in {elapsed:.2f}s (limit 10s)",
    )
    assert ok, f"divergence on instance {checked}"
    assert in_time, f"took {elapsed:.2f}s"


def test_unit_cost_fast_path():
    rng = np.random.default_rng(77)
    started = time.perf_counter()
    ok = True
    for _ in range(1000):
        problem = random_problem(rng, unit_costs=True, parcels=100)
        if solve_topk(problem).x.tolist() != solve_dp(problem).x.tolist():
            ok = False
            break
    elapsed = time.perf_counter() - started
    in_time = elapsed < 5.0
    report(
        "unit-cost fast path matches DP",
        ok and in_time,
        f"1000 instances of 100 parcels in {elapsed:.2f}s (limit 5s)",
    )
    assert ok
    assert in_time, f"took {elapsed:.2f}s"


def test_logistic_steady_state():
    r, beta, dt = 0.1, 0.001, 0.01
    fixed_point = r / beta
    starts = (1, 10, 250)
    # Run to the earliest horizon at which the exact solution
    # N(t)/K = 1 / (1 + (K/N0 - 1) e^(-rt)) is within 0.1% of K = r/beta from
    # every start: |K/N0 - 1| e^(-rt) = tol / (1 -/+ tol) from below/above.
    tol = 0.001
    horizon = max(
        math.log(abs(fixed_point / n0 - 1) * (1 - tol if n0 < fixed_point else 1 + tol) / tol) / r
        for n0 in starts
    )
    steps = math.ceil(horizon / dt)
    params = LVParams(r=[r], alpha=[[0.0]], beta=[beta], dt=dt, T=steps)
    finals = {}
    for n0 in starts:
        grid = CountsGrid(np.array([[[n0]]]))
        finals[n0] = float(simulate(grid, params)[0, 0, 0])
    ok = all(abs(v - fixed_point) <= 0.01 * fixed_point for v in finals.values())
    exact = {n0: logistic_closed_form(n0, r, beta, steps * dt) for n0 in starts}
    report(
        "single-species logistic steady state",
        ok,
        f"{steps} steps of {dt} (horizon {steps * dt:.2f}); finals "
        + ", ".join(f"N0={k}: {v:.2f} (exact {exact[k]:.2f})" for k, v in finals.items())
        + " vs 100 ± 1",
    )
    assert ok, f"not within 1% of {fixed_point} after {steps} steps: {finals}"


def test_two_species_coexistence():
    beta = np.array([0.001, 0.001])
    alpha = np.array([[0.0, 0.0005], [0.0005, 0.0]])
    target = np.array([40.0, 60.0])
    params = LVParams(r=beta * target + alpha @ target, alpha=alpha, beta=beta, dt=0.01, T=2000)
    # one T-step projection of the column, bit-identical to looping a single step T times
    state = _project(np.array([[40.5], [60.5]]), params, params.T)[:, 0]
    rel = np.abs(state - target) / target
    ok = bool(np.all(rel <= 0.02))
    report(
        "two-species constructed coexistence",
        ok,
        f"reached ({state[0]:.2f}, {state[1]:.2f}) vs (40, 60) ± 2%",
    )
    assert ok, f"relative error {rel}"


def test_model_reduction_under_zero_dynamics():
    def zero_params(k: int) -> LVParams:
        return LVParams(r=np.zeros(k), alpha=np.zeros((k, k)), beta=np.zeros(k))

    suite = build_species_suite(seed=3, pool_size=200, grid=10)
    ok = True
    for case in default_scenarios(suite, seed=3):
        scenario = dataclasses.replace(case, lv_params=zero_params(len(case.species)))
        for row in budget_sweep(scenario):
            if row.similarity != scenario.costs.size or not np.array_equal(row.x_1, row.x_2):
                ok = False
    report("zero dynamics reduces both models to one", ok, "6 cases x 21 budgets, all identical")
    assert ok


def test_population_placement_conservation_and_fit():
    land = Landscape(np.full((10, 10), 0.3))
    replicates = 10_000
    total = 100
    pooled = np.zeros(100, dtype=np.int64)
    conserved = True
    for seed in range(replicates):
        grid = distribute_population(land, total, seed)
        if int(grid.totals()[0]) != total:
            conserved = False
            break
        pooled += grid.counts[0].ravel()
    expected = np.full(100, replicates * total / 100.0)
    chi2, pvalue = scipy_stats.chisquare(pooled, expected)
    fit_ok = pvalue >= 0.001
    report(
        "placement conserves totals and fits its multinomial",
        conserved and fit_ok,
        f"{replicates} replicates sum exactly; chi2={chi2:.1f}, p={pvalue:.3f} (alpha 0.001)",
    )
    assert conserved
    assert fit_ok, f"chi-square rejected: chi2={chi2}, p={pvalue}"


def test_full_pipeline_stats_table(full_suite, tmp_path):
    suite, build_seconds = full_suite
    started = time.perf_counter()
    stats_rows = []
    mins = []
    for i, scenario in enumerate(default_scenarios(suite, seed=PIPELINE_SEED), start=1):
        stats = summarize(budget_sweep(scenario))
        mins.append(stats.min)
        stats_rows.append(fileio.stats_to_csv_row(f"case{i}", stats))
    out = tmp_path / "stats.csv"
    fileio.write_stats_csv(out, stats_rows)
    elapsed = build_seconds + (time.perf_counter() - started)

    lines = out.read_text().splitlines()
    format_ok = (
        lines[0] == "case,min,average,median"
        and len(lines) == 7
        and all(len(line.split(",")) == 4 for line in lines[1:])
    )
    sims_ok = all(m >= 85 for m in mins)
    time_ok = elapsed < 300.0
    report(
        "full pipeline emits the six-case stats table",
        format_ok and sims_ok and time_ok,
        f"mins {mins} (floor 85); {elapsed:.1f}s (limit 300s); rows: "
        + " | ".join(",".join(r) for r in stats_rows),
    )
    assert format_ok, lines
    assert sims_ok, f"case minima {mins}"
    assert time_ok, f"pipeline took {elapsed:.1f}s"


def test_weighted_vs_unweighted_sweeps(full_suite):
    suite, _ = full_suite
    scenario = default_scenarios(suite, seed=PIPELINE_SEED)[1]
    results = weighted_comparison(
        scenario, [(1, 1), (Fraction(9, 10), Fraction(1, 10))]
    )
    series = {}
    for weights, rows in results:
        series[weights] = {row.budget: row.similarity for row in rows}
    weighted = series[(Fraction(9, 10), Fraction(1, 10))]
    unweighted = series[(Fraction(1), Fraction(1))]
    low = np.mean([weighted[b] for b in range(5, 50, 5)])
    high = np.mean([weighted[b] for b in range(55, 100, 5)])
    ordering_ok = low <= high
    endpoints_ok = (
        weighted[0] == unweighted[0] == 100 and weighted[100] == unweighted[100] == 100
    )
    report(
        "weighted sweeps diverge most at low budgets",
        ordering_ok and endpoints_ok,
        f"weighted mean sim budgets 5-45: {low:.2f} <= budgets 55-95: {high:.2f}; endpoints coincide",
    )
    assert ordering_ok, (low, high)
    assert endpoints_ok


def test_invariant_bundle():
    rng = np.random.default_rng(5150)
    failures = []

    # budget monotonicity and weight-scaling set invariance
    for _ in range(100):
        problem = random_problem(rng, max_parcels=12)
        base = solve_dp(problem)
        if base.spent > problem.budget:
            failures.append("feasibility")
        bigger = ReserveProblem(
            values=problem.values,
            weights=problem.weights,
            costs=problem.costs,
            budget=problem.budget + int(rng.integers(1, 6)),
        )
        if solve_dp(bigger).objective < base.objective:
            failures.append("budget monotonicity")
        scaled = ReserveProblem(
            values=problem.values,
            weights=tuple(w * Fraction(7, 3) for w in problem.weights),
            costs=problem.costs,
            budget=problem.budget,
        )
        if solve_dp(scaled).x.tolist() != base.x.tolist():
            failures.append("weight scaling")

    # parcel independence and nonnegativity
    grid = CountsGrid(rng.integers(0, 15, size=(2, 3, 3)))
    params = dataclasses.replace(default_params(2), T=300)
    whole = simulate(grid, params)
    if np.any(whole < 0):
        failures.append("nonnegativity")
    for row in range(3):
        for col in range(3):
            cell = CountsGrid(grid.counts[:, row, col].reshape(2, 1, 1))
            if not np.array_equal(
                simulate(cell, params)[:, 0, 0], whole[:, row, col]
            ):
                failures.append("parcel independence")

    # render caption consistency with recomputed similarity
    counts = CountsGrid(rng.integers(0, 9, size=(2, 4, 4)))
    projected = round_counts(simulate(counts, default_params(2)))
    sol_a = solve(
        ReserveProblem(values=counts.matrix(), weights=(1, 1), costs=np.ones(16, dtype=int), budget=7)
    )
    sol_b = solve(
        ReserveProblem(values=projected.matrix(), weights=(1, 1), costs=np.ones(16, dtype=int), budget=7)
    )
    panels = (Panel("a", counts, sol_a), Panel("b", projected, sol_b))
    expected = f"{similarity(sol_a, sol_b)}/16 parcels share the same protection status"
    if caption_text(panels) != expected:
        failures.append("render caption")

    # JSON round-trips
    land = generate_landscape(6, 2, 88)
    if not np.array_equal(
        fileio.landscape_from_obj(fileio.landscape_to_obj(land)).values, land.values
    ):
        failures.append("landscape json")
    if not np.array_equal(
        fileio.counts_from_obj(fileio.counts_to_obj(counts.counts)).counts, counts.counts
    ):
        failures.append("counts json")
    problem = random_problem(rng, max_parcels=8)
    back = fileio.problem_from_obj(fileio.problem_to_obj(problem))
    if (
        not np.array_equal(back.values, problem.values)
        or back.weights != problem.weights
        or not np.array_equal(back.costs, problem.costs)
        or back.budget != problem.budget
    ):
        failures.append("problem json")
    sol_back = fileio.solution_from_obj(fileio.solution_to_obj(sol_a))
    if sol_back.x.tolist() != sol_a.x.tolist() or sol_back.objective != sol_a.objective:
        failures.append("solution json")

    unique = sorted(set(failures))
    report(
        "invariant bundle (monotonicity, scaling, independence, captions, round-trips)",
        not unique,
        "all held" if not unique else f"violated: {', '.join(unique)}",
    )
    assert not unique, unique
