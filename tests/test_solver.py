import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reserveplan import (
    NonIntegerCostError,
    ReserveProblem,
    ReserveSolution,
    TableTooLargeError,
    build_species_suite,
    default_scenarios,
    solve,
)
from reserveplan.experiment import _model_grids
from reserveplan.solver import _integer_scores, _solve_budgets, solve_models
from bruteforce import EnumerationLimitError, solve_bruteforce
from milp import solve_milp
from conftest import random_problem, solve_on_path


def unit_problem(scores, budget) -> ReserveProblem:
    values = np.asarray(scores).reshape(1, -1)
    return ReserveProblem(
        values=values,
        weights=(Fraction(1),),
        costs=np.ones(values.shape[1], dtype=np.int64),
        budget=budget,
    )


def problem(scores, costs, budget) -> ReserveProblem:
    values = np.asarray(scores).reshape(1, -1)
    return ReserveProblem(
        values=values, weights=(Fraction(1),), costs=np.asarray(costs), budget=budget
    )


def assert_sweep(sweep, budgets: int, parcels: int) -> None:
    """``sweep`` is ``solve_models``' tuple, and each row equals its public construction.

    ``x`` is an int8 (budgets, parcels) array of 0/1, objectives are ``Fraction``s
    and spends ``int``s, one per budget.
    """
    x, objectives, spent = sweep
    assert type(x) is np.ndarray and x.dtype == np.int8 and x.shape == (budgets, parcels)
    assert np.isin(x, (0, 1)).all()
    assert type(objectives) is list and len(objectives) == budgets
    assert all(type(objective) is Fraction for objective in objectives)
    assert type(spent) is list and len(spent) == budgets
    assert all(type(cost) is int for cost in spent)
    for row, objective, cost in zip(x, objectives, spent):
        public = ReserveSolution(x=row, objective=objective, spent=cost)
        assert public.x.dtype == np.int8 and public.x.tolist() == row.tolist()
        assert type(public.objective) is Fraction and public.objective == objective
        assert type(public.spent) is int and public.spent == cost


def sweep_solutions(values, weights, costs, budgets) -> list[ReserveSolution]:
    """One model's ``solve_models`` sweep as one public solution per budget, in order."""
    [sweep] = solve_models([values], weights, costs, budgets)
    return [ReserveSolution(*row) for row in zip(*sweep)]


small_problems = st.builds(
    lambda seed: random_problem(np.random.default_rng(seed), max_parcels=10),
    st.integers(0, 2**32 - 1),
)


class TestParcelScore:
    """Per-parcel scores from ``_integer_scores``: numerators over one weight denominator."""

    def test_equal_weights_sum(self):
        p = ReserveProblem(
            values=np.array([[3], [4]]), weights=(1, 1), costs=[1], budget=1
        )
        scores, den = _integer_scores(p)
        assert (scores.tolist(), den) == ([7], 1)

    def test_fractional_weights(self):
        p = ReserveProblem(
            values=np.array([[10], [10]]),
            weights=(Fraction(9, 10), Fraction(1, 10)),
            costs=[1],
            budget=1,
        )
        scores, den = _integer_scores(p)
        assert Fraction(int(scores[0]), den) == Fraction(10)

    def test_zero_weights(self):
        p = ReserveProblem(
            values=np.array([[5, 2], [7, 9]]), weights=(0, 0), costs=[1, 1], budget=1
        )
        scores, _ = _integer_scores(p)
        assert scores.tolist() == [0, 0]

    def test_out_of_range(self):
        p = unit_problem([1, 2], budget=1)
        scores, _ = _integer_scores(p)
        with pytest.raises(IndexError):
            scores[2]


class TestSolveTopk:
    """The top-k path, which unit costs pick."""

    def test_zero_budget(self):
        sol = solve(unit_problem([5, 3, 2], budget=0))
        assert sol.x.tolist() == [0, 0, 0]
        assert sol.objective == 0
        assert sol.spent == 0

    def test_budget_covers_everything(self):
        sol = solve(unit_problem([5, 3, 2], budget=7))
        assert sol.x.tolist() == [1, 1, 1]
        assert sol.spent == 3

    def test_tie_goes_to_lower_index(self):
        sol = solve(unit_problem([5, 5, 2], budget=1))
        assert sol.x.tolist() == [1, 0, 0]


class TestSolveDp:
    """The knapsack path: picked by non-unit costs, forced on unit costs."""

    def test_unit_cost_example(self):
        sol = solve_on_path(unit_problem([5, 3, 2], budget=2), topk=False)
        assert sol.x.tolist() == [1, 1, 0]
        assert sol.objective == 8

    def test_weighted_cost_example(self):
        p = problem([6, 5, 5], costs=[3, 2, 2], budget=4)
        sol = solve(p)
        oracle = solve_bruteforce(p)
        assert sol.objective == oracle.objective == 10
        assert sol.x.tolist() == oracle.x.tolist() == [0, 1, 1]

    def test_zero_cost_parcels_always_protected(self):
        sol = solve(problem([0, 7, 4], costs=[0, 1, 1], budget=0))
        assert sol.x.tolist() == [1, 0, 0]
        sol = solve(problem([9, 7], costs=[0, 3], budget=1))
        assert sol.x.tolist() == [1, 0]

    def test_non_integer_costs_rejected(self):
        with pytest.raises(NonIntegerCostError):
            problem([5], costs=[1.5], budget=2)
        with pytest.raises(NonIntegerCostError):
            unit_problem([5], budget=1.5)

    def test_huge_budget_is_capped_by_total_cost(self):
        # the DP table scales with min(budget, sum(costs)), not the raw budget
        sol = solve(problem([5, 3, 2], costs=[2, 3, 4], budget=10**12))
        assert sol.x.tolist() == [1, 1, 1]
        assert sol.spent == 9

    def test_huge_weights_take_exact_path(self):
        p = ReserveProblem(
            values=np.array([[50, 49, 3]]),
            weights=(Fraction(2**70, 3),),
            costs=[1, 1, 1],
            budget=2,
        )
        sol = solve_on_path(p, topk=False)
        assert sol.x.tolist() == [1, 1, 0]
        assert sol.objective == Fraction(2**70, 3) * 99
        oracle = solve_bruteforce(p)
        assert sol.objective == oracle.objective
        assert sol.x.tolist() == oracle.x.tolist()


    def test_memory_is_one_boolean_table(self):
        rng = np.random.default_rng(5)
        p = ReserveProblem(
            values=rng.integers(0, 51, size=(2, 5000)),
            weights=(1, 1),
            costs=rng.integers(1, 10, size=5000),
            budget=5000,
        )
        tracemalloc.start()
        try:
            solve(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # an int64 value table of 5001 x 5001 entries alone would take 200 MB;
        # the keep table of 5000 x 5001 booleans takes 25 MB
        assert peak < 50e6

    def test_table_beyond_memory_is_refused_naming_budget_and_bytes(self, monkeypatch):
        # total score 1000 needs uint16 value rows: (3 keep bytes + 2 * 2) per budget column
        p = problem([500, 300, 200], costs=[2, 3, 4], budget=9)
        table_bytes = (3 + 2 * 2) * 10
        pages = {"SC_PAGE_SIZE": 1}
        monkeypatch.setattr("reserveplan.solver.os.sysconf", pages.get)
        pages["SC_PHYS_PAGES"] = table_bytes - 1
        with pytest.raises(TableTooLargeError, match=f"^budget 9 needs a {table_bytes}-byte "):
            solve(p)
        pages["SC_PHYS_PAGES"] = table_bytes
        assert solve(p).x.tolist() == [1, 1, 1]


class TestSolveSweep:
    @given(st.integers(0, 2**32 - 1), st.booleans(), st.sampled_from([2, 50]), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_bruteforce_at_every_budget(self, seed, unit_costs, max_value, data):
        # values up to 2 make ties common, so the tie-break is exercised
        rng = np.random.default_rng(seed)
        p = random_problem(rng, max_parcels=12, max_value=max_value, unit_costs=unit_costs)
        total = int(p.costs.sum())
        # unsorted, possibly repeated, with 0 and budgets past the total cost
        budgets = data.draw(
            st.lists(st.one_of(st.integers(0, total), st.sampled_from([0, total + 7])), max_size=8)
        )
        sols = sweep_solutions(p.values, p.weights, p.costs, budgets)
        assert len(sols) == len(budgets)
        for budget, sol in zip(budgets, sols):
            oracle = solve_bruteforce(
                ReserveProblem(values=p.values, weights=p.weights, costs=p.costs, budget=budget)
            )
            assert sol.x.tolist() == oracle.x.tolist()
            assert sol.objective == oracle.objective
            assert sol.spent == oracle.spent
            # the oracle reads the same scores, so check the objective apart from them
            exact = sum((w * int(row @ sol.x) for w, row in zip(p.weights, p.values)), Fraction(0))
            assert sol.objective == exact

    @given(st.data(), st.booleans(), st.sampled_from([(1,), (Fraction(2**70, 3),)]))
    @settings(max_examples=100, deadline=None)
    def test_wide_rows_match_bruteforce(self, data, past_total, weights):
        # costs up to 300 make each keep row hundreds of bytes wide, so the
        # traceback's flat position moves far past a byte's range per parcel
        costs = data.draw(st.lists(st.integers(0, 300), min_size=1, max_size=14))
        assume(max(costs) > 0)
        n, total = len(costs), sum(costs)
        values = np.array([data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))])
        if past_total:
            budgets = data.draw(st.lists(st.integers(0, total), max_size=4))
            budgets.append(total + data.draw(st.integers(1, 500)))
        else:  # the costliest parcel costs more than every budget
            budgets = data.draw(st.lists(st.integers(0, max(costs) - 1), min_size=1, max_size=5))
        sols = sweep_solutions(values, weights, costs, budgets)
        for budget, sol in zip(budgets, sols):
            oracle = solve_bruteforce(
                ReserveProblem(values=values, weights=weights, costs=costs, budget=budget)
            )
            assert sol.x.tolist() == oracle.x.tolist()
            assert sol.objective == oracle.objective
            assert sol.spent == oracle.spent

    @pytest.mark.parametrize("total", [255, 256, 2**16 - 1, 2**16, 2**32 - 1, 2**32])
    @pytest.mark.parametrize("seed", range(3))
    def test_total_score_at_a_row_width_boundary_matches_bruteforce(self, total, seed):
        # value rows narrower than the total score would wrap once a selection reaches it
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 15))
        cuts = np.sort(rng.integers(0, total + 1, size=n - 1))
        values = np.diff(cuts, prepend=0, append=total).reshape(1, -1)
        costs = rng.integers(0, 10, size=n)
        assert int(values.sum()) == total
        budgets = list(range(int(costs.sum()) + 1))
        for budget, sol in zip(budgets, sweep_solutions(values, (1,), costs, budgets)):
            oracle = solve_bruteforce(
                ReserveProblem(values=values, weights=(1,), costs=costs, budget=budget)
            )
            assert sol.x.tolist() == oracle.x.tolist()
            assert sol.objective == oracle.objective
            assert sol.spent == oracle.spent

    def test_huge_weights_take_exact_path(self):
        values, weights, costs = np.array([[50, 49, 3, 7]]), (Fraction(2**70, 3),), [1, 2, 1, 3]
        budgets = [3, 0, 7, 2, 3]
        sols = sweep_solutions(values, weights, costs, budgets)
        assert sols[0].objective == Fraction(2**70, 3) * 99  # parcels 0 and 1
        for budget, sol in zip(budgets, sols):
            oracle = solve_bruteforce(
                ReserveProblem(values=values, weights=weights, costs=costs, budget=budget)
            )
            assert sol.x.tolist() == oracle.x.tolist()
            assert sol.objective == oracle.objective
            assert sol.spent == oracle.spent

    def test_huge_weights_take_exact_topk_path(self):
        # parcels 0 and 3 tie; parcel 1 beats parcel 2 only by 1/7, far below float resolution
        values = np.array([[50, 49, 49, 50], [0, 1, 0, 0]])
        weights = (Fraction(2**70, 3), Fraction(1, 7))
        p = ReserveProblem(values=values, weights=weights, costs=[1, 1, 1, 1], budget=4)
        assert _integer_scores(p)[0].dtype == object
        budgets = [0, 1, 2, 3, 4]
        sols = sweep_solutions(values, weights, p.costs, budgets)
        assert [np.flatnonzero(sol.x).tolist() for sol in sols[:4]] == [[], [0], [0, 3], [0, 1, 3]]
        assert sols[3].objective == Fraction(2**70, 3) * 149 + Fraction(1, 7)
        for budget, sol in zip(budgets, sols):
            oracle = solve_bruteforce(
                ReserveProblem(values=values, weights=weights, costs=p.costs, budget=budget)
            )
            assert sol.x.tolist() == oracle.x.tolist()
            assert sol.objective == oracle.objective

    @given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_solutions_equal_the_public_constructor(self, seed, unit_costs, huge, data):
        # both paths, on int64 scores and (with huge weights) on object-dtype scores
        rng = np.random.default_rng(seed)
        p = random_problem(rng, max_parcels=12, max_value=2, unit_costs=unit_costs)
        weights = tuple(w * Fraction(2**70, 3) for w in p.weights) if huge else p.weights
        total = int(p.costs.sum())
        budgets = data.draw(
            st.lists(st.one_of(st.integers(0, total), st.sampled_from([0, total + 7])), max_size=8)
        )
        [sweep] = solve_models([p.values], weights, p.costs, budgets)
        assert_sweep(sweep, len(budgets), p.parcel_count)
        for budget, x, objective, spent in zip(budgets, *sweep, strict=True):
            oracle = solve_bruteforce(
                ReserveProblem(values=p.values, weights=weights, costs=p.costs, budget=budget)
            )
            assert_sweep((oracle.x[np.newaxis], [oracle.objective], [oracle.spent]), 1, p.parcel_count)
            assert x.tolist() == oracle.x.tolist()
            assert (objective, spent) == (oracle.objective, oracle.spent)

    def test_seed0_sweeps_equal_the_public_constructor_on_both_paths(self):
        # the six seed-0 cases have unit costs; the knapsack path is forced on the same
        # data, both models of a case through one call
        for scenario in default_scenarios(build_species_suite(seed=0), seed=0):
            grids, budgets = _model_grids(scenario), list(scenario.budgets)
            weights, costs = scenario.weights, scenario.costs
            problems = [ReserveProblem(g.matrix(), weights, costs, max(budgets)) for g in grids]
            for grid, dp in zip(grids, _solve_budgets(problems, budgets, topk=False), strict=True):
                [topk] = solve_models([grid.matrix()], weights, costs, budgets)
                assert_sweep(topk, len(budgets), grid.parcel_count)
                assert_sweep(dp, len(budgets), grid.parcel_count)
                assert topk[0].tolist() == dp[0].tolist()
                assert (topk[1], topk[2]) == (dp[1], dp[2])

    def test_every_budget_is_checked(self):
        for budgets in ([3, 1.5], [2, -1]):
            with pytest.raises(NonIntegerCostError):
                sweep_solutions([[5, 3]], (1,), [1, 2], budgets)

    def test_no_budgets_no_solutions(self):
        assert sweep_solutions([[5, 3]], (1,), [1, 2], []) == []


class TestSolveModels:
    @given(st.data(), st.sampled_from([(255, 256), (2**16 - 1, 2**16), (2**62, 40), (0, 3)]), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_models_solve_as_one_model_sweeps(self, data, totals, unit_costs):
        # totals needing different value-row widths (u1/u2, u2/u4, object/u1), either first
        if data.draw(st.booleans()):
            totals = totals[::-1]
        n = data.draw(st.integers(1, 10))
        costs = [1] * n if unit_costs else data.draw(st.lists(st.integers(0, 12), min_size=n, max_size=n))
        models = []
        for total in totals:
            cuts = sorted(data.draw(st.lists(st.integers(0, total), min_size=n - 1, max_size=n - 1)))
            models.append(np.diff(cuts, prepend=0, append=total).reshape(1, -1))
        # unsorted, repeated or no budgets, all below the costliest parcel or reaching past the total
        top = data.draw(st.sampled_from([max(costs) - 1, sum(costs) + 5]))
        budgets = data.draw(st.lists(st.integers(0, max(top, 0)), max_size=6))
        together = solve_models(models, (1,), costs, budgets)
        assert len(together) == len(models)
        for values, sweep in zip(models, together):
            assert_sweep(sweep, len(budgets), n)
            alone = sweep_solutions(values, (1,), costs, budgets)
            assert len(alone) == len(budgets) and all(type(one) is ReserveSolution for one in alone)
            for x, objective, spent, one in zip(*sweep, alone, strict=True):
                assert x.tolist() == one.x.tolist()
                assert (objective, spent) == (one.objective, one.spent)

    def test_sweep_holds_one_keep_table(self):
        rng = np.random.default_rng(5)
        models = [rng.integers(0, 51, size=(2, 5000)) for _ in range(2)]
        costs = rng.integers(1, 10, size=5000)
        tracemalloc.start()
        try:
            solve_models(models, (1, 1), costs, [5000])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one keep table of 5000 x 5001 booleans takes 25 MB; a second one would pass 37.5 MB
        assert peak < 1.5 * 5000 * 5001

    def test_table_size_counts_the_widest_value_rows(self, monkeypatch):
        # the first model's total 10 fits uint8, the second's 1000 needs uint16 rows
        models, costs = [[[5, 3, 2]], [[500, 300, 200]]], [2, 3, 4]
        table_bytes = (3 + 2 * 2) * 10
        pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": table_bytes - 1}
        monkeypatch.setattr("reserveplan.solver.os.sysconf", pages.get)
        with pytest.raises(TableTooLargeError, match=f"^budget 9 needs a {table_bytes}-byte "):
            solve_models(models, (1,), costs, [9])
        pages["SC_PHYS_PAGES"] = table_bytes
        assert [x.tolist() for x, _, _ in solve_models(models, (1,), costs, [9])] == [[[1, 1, 1]]] * 2

    def test_no_models_no_solutions(self):
        assert solve_models([], (1,), [1, 2], [3]) == []

    @pytest.mark.parametrize("parcels", [200, 800, 1600])
    def test_knapsack_optima_match_an_independent_milp(self, parcels):
        # at benchmark scale, where enumeration cannot reach: two species weighted
        # 9/10 and 1/10, costs 1-9, budgets from none to half the total cost
        rng = np.random.default_rng(parcels)
        values, costs = rng.integers(0, 51, size=(2, parcels)), rng.integers(1, 10, size=parcels)
        weights = (Fraction(9, 10), Fraction(1, 10))
        total = int(costs.sum())
        budgets = [0, total // 7, total // 3, total // 2]
        [(x, objectives, spent)] = solve_models([values], weights, costs, budgets)
        for row, objective, cost, budget in zip(x, objectives, spent, budgets, strict=True):
            optimum, den = solve_milp(ReserveProblem(values, weights, costs, budget))
            assert objective * den == optimum, budget
            assert cost == int(costs @ row) <= budget


class TestProblemValidation:
    def test_integers_beyond_int64_rejected_naming_the_field(self):
        with pytest.raises(ValueError, match="values must be integers within int64 range"):
            ReserveProblem(values=[[1, 2**65]], weights=(1,), costs=[1, 1], budget=1)
        with pytest.raises(ValueError, match="costs must be integers within int64 range"):
            ReserveProblem(values=[[1, 2]], weights=(1,), costs=[1, 2**64 - 1], budget=1)
        with pytest.raises(ValueError, match="values must be integers within int64 range"):
            ReserveProblem(values=[[1.0, 1e19]], weights=(1,), costs=[1, 1], budget=1)


class TestSolveBruteforce:
    def test_single_parcel(self):
        sol = solve_bruteforce(problem([7], costs=[1], budget=1))
        assert sol.x.tolist() == [1]
        assert sol.objective == 7

    def test_zero_budget_positive_costs(self):
        sol = solve_bruteforce(problem([4, 6], costs=[1, 2], budget=0))
        assert sol.x.tolist() == [0, 0]

    def test_refuses_large_instances(self):
        with pytest.raises(EnumerationLimitError):
            solve_bruteforce(unit_problem([1] * 21, budget=3))

    def test_agrees_with_dp_on_random_instance(self):
        rng = np.random.default_rng(99)
        p = random_problem(rng, max_parcels=12, parcels=12)
        a, b = solve(p), solve_bruteforce(p)
        assert a.objective == b.objective
        assert a.x.tolist() == b.x.tolist()


class TestSolutionInvariants:
    @given(small_problems)
    @settings(max_examples=120, deadline=None)
    def test_dp_matches_bruteforce(self, p):
        a, b = solve_on_path(p, topk=False), solve_bruteforce(p)
        assert a.objective == b.objective
        assert a.x.tolist() == b.x.tolist()

    @given(small_problems)
    @settings(max_examples=80, deadline=None)
    def test_feasible_and_objective_consistent(self, p):
        for solver in (solve, solve_bruteforce):
            sol = solver(p)
            assert sol.spent <= p.budget
            assert sol.spent == int(np.dot(p.costs, sol.x))
            recomputed = sum(
                (
                    w * int(np.dot(p.values[i], sol.x))
                    for i, w in enumerate(p.weights)
                ),
                Fraction(0),
            )
            assert sol.objective == recomputed

    @given(small_problems, st.integers(1, 10))
    @settings(max_examples=80, deadline=None)
    def test_budget_monotonicity(self, p, extra):
        bigger = ReserveProblem(
            values=p.values, weights=p.weights, costs=p.costs, budget=p.budget + extra
        )
        assert solve(bigger).objective >= solve(p).objective

    @given(small_problems, st.integers(1, 7), st.integers(1, 7))
    @settings(max_examples=80, deadline=None)
    def test_weight_scaling_leaves_selection_unchanged(self, p, num, den):
        factor = Fraction(num, den)
        scaled = ReserveProblem(
            values=p.values,
            weights=tuple(w * factor for w in p.weights),
            costs=p.costs,
            budget=p.budget,
        )
        base = solve(p)
        alt = solve(scaled)
        assert base.x.tolist() == alt.x.tolist()
        assert alt.objective == base.objective * factor

    @given(st.integers(0, 2**32 - 1), st.integers(0, 25))
    @settings(max_examples=80, deadline=None)
    def test_unit_cost_solvers_agree(self, seed, budget):
        rng = np.random.default_rng(seed)
        p = random_problem(rng, max_parcels=14, unit_costs=True)
        p = ReserveProblem(values=p.values, weights=p.weights, costs=p.costs, budget=budget)
        a, b = solve(p), solve_on_path(p, topk=False)
        assert a.x.tolist() == b.x.tolist()
        assert a.objective == b.objective
