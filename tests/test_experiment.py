import dataclasses
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reserveplan import (
    CASE_GROUPS,
    SUITE_LAYOUT,
    CountsGrid,
    InvalidDimensionError,
    Landscape,
    LVParams,
    ReserveProblem,
    ReserveSolution,
    Scenario,
    SpeciesSpec,
    budget_sweep,
    build_species_suite,
    default_params,
    default_scenarios,
    fragmentation,
    generate_landscape,
    select_extremes,
    similarity,
    solve,
    summarize,
    weighted_comparison,
)
from reserveplan import experiment, landscape
from reserveplan.experiment import SweepRow

from conftest import pool_rounds, reference_pool

RANKS = ("highest", "2nd highest", "lowest", "2nd lowest")


def zero_params(species_count: int) -> LVParams:
    return LVParams(
        r=np.zeros(species_count),
        alpha=np.zeros((species_count, species_count)),
        beta=np.zeros(species_count),
        dt=0.01,
        T=2000,
    )


def solution(bits) -> ReserveSolution:
    return ReserveSolution(x=np.asarray(bits), objective=Fraction(0), spent=0)


def row(budget, sim) -> SweepRow:
    empty = np.zeros(1, dtype=np.int8)
    return SweepRow(
        budget=budget,
        similarity=sim,
        objective_1=Fraction(0),
        objective_2=Fraction(0),
        x_1=empty,
        x_2=empty,
    )


class TestBuildSpeciesSuite:
    def test_layout_matches_rank_and_population(self, small_suite):
        assert [(s.label, s.fragmentation_rank, s.total) for s in small_suite] == list(
            SUITE_LAYOUT
        )

    def test_landscape_assignment_follows_ranks(self, small_suite):
        by_label = {s.label: s for s in small_suite}
        # same rank -> same landscape object
        assert by_label["S0"].landscape is by_label["S2"].landscape
        assert by_label["S1"].landscape is by_label["S3"].landscape
        assert by_label["S4"].landscape is by_label["S6"].landscape
        assert by_label["S5"].landscape is by_label["S7"].landscape
        scores = {label: fragmentation(sp.landscape.values[np.newaxis])[0] for label, sp in by_label.items()}
        assert scores["S0"] >= scores["S1"] >= scores["S5"] >= scores["S4"]

    def test_counts_conserve_population(self, small_suite):
        for sp in small_suite:
            assert int(sp.counts.totals()[0]) == sp.total

    def test_minimal_pool_is_fully_used(self):
        suite = build_species_suite(seed=5, pool_size=4, grid=6)
        landscapes = {id(sp.landscape) for sp in suite}
        assert len(landscapes) == 4

    def test_pool_too_small(self):
        with pytest.raises(ValueError):
            build_species_suite(seed=5, pool_size=3, grid=6)

    def test_deterministic(self):
        a = build_species_suite(seed=21, pool_size=12, grid=5)
        b = build_species_suite(seed=21, pool_size=12, grid=5)
        for x, y in zip(a, b):
            assert np.array_equal(x.counts.counts, y.counts.counts)
            assert np.array_equal(x.landscape.values, y.landscape.values)

    @given(st.integers(0, 2**32), st.integers(4, 40), st.integers(1, 4))
    @example(seed=0, pool_size=4, grid=1)  # empty rounds groups, all scores tied
    @example(seed=7, pool_size=40, grid=1)
    # seeds near and past 64 bits: pool seeds up to 2**64 - 1 go to the draws as one array, larger ones as ints
    @example(seed=2**63 - 2, pool_size=6, grid=3)
    @example(seed=2**64 - 6, pool_size=6, grid=3)
    @example(seed=2**64 + 5, pool_size=6, grid=3)
    @example(seed=2**130, pool_size=6, grid=3)
    @settings(max_examples=60, deadline=None)
    def test_picks_match_extremes_of_reference_pool(self, seed, pool_size, grid):
        pool, rounds = reference_pool(seed, pool_size, grid), pool_rounds(seed, pool_size)
        # each reference grid scored alone, as a stack of one
        scores = np.concatenate([fragmentation(land.values[np.newaxis]) for land in pool])
        expected = dict(zip(RANKS, np.concatenate(select_extremes(scores, k=2)).tolist()))
        for sp in build_species_suite(seed, pool_size=pool_size, grid=grid):
            i = expected[sp.fragmentation_rank]
            generated = generate_landscape(grid, int(rounds[i]), seed + i)
            assert sp.landscape.values.tobytes() == generated.values.tobytes()
            assert sp.landscape.values.tobytes() == pool[i].values.tobytes()

    @pytest.mark.parametrize(
        "seed, pool_size, grid, picks",
        [(0, 300, 6, None), (9, 40, 3, None), (4, 5, 2, None), (3, 50, 1, ([0, 1], [49, 48]))],
        ids=["300-pool", "40-pool", "5-pool", "scores-tied"],
    )
    def test_picks_are_kept_not_regenerated(self, seed, pool_size, grid, picks, monkeypatch):
        # the picks' values are kept from their smoothing-rounds groups: no grid is drawn a
        # second time, and each equals its own generate_landscape bit for bit; on one-parcel
        # grids every score is 0, so select_extremes' tie rule alone names the picks. Each
        # group of four or more grids keeps its own picks first; the last call is the pool's.
        calls, chosen = [], []

        def counting(*args):
            calls.append(args)
            return generate_landscape(*args)

        def recording(scores, k):
            chosen.append(select_extremes(scores, k))
            return chosen[-1]

        monkeypatch.setattr(experiment, "generate_landscape", counting, raising=False)
        monkeypatch.setattr(landscape, "generate_landscape", counting)
        monkeypatch.setattr(experiment, "select_extremes", recording)
        suite = build_species_suite(seed, pool_size=pool_size, grid=grid)
        assert calls == []
        most, least = chosen[-1]
        if picks is not None:
            assert (most.tolist(), least.tolist()) == picks
        rounds = pool_rounds(seed, pool_size)
        by_rank = {sp.fragmentation_rank: sp.landscape for sp in suite}
        for rank, i in zip(RANKS, [*most.tolist(), *least.tolist()]):
            expected = generate_landscape(grid, int(rounds[i]), seed + i).values
            assert by_rank[rank].values.tobytes() == expected.tobytes(), (rank, i)

    @pytest.mark.parametrize("seed", [0, 5, 7])
    def test_picks_match_one_at_a_time_scoring(self, seed):
        # every pool member generated and scored alone, so a grid paired with
        # the wrong seed in the batched pool changes the picks
        pool, rounds = reference_pool(seed, pool_size=60, grid=5), pool_rounds(seed, 60)
        scores = [fragmentation(land.values[np.newaxis])[0] for land in pool]
        order = sorted(range(len(pool)), key=lambda i: (-scores[i], i))
        expected = dict(zip(RANKS, order[:2] + order[::-1][:2]))
        for sp in build_species_suite(seed, pool_size=60, grid=5):
            i = expected[sp.fragmentation_rank]
            generated = generate_landscape(5, int(rounds[i]), seed + i)
            assert sp.landscape.values.tobytes() == generated.values.tobytes()
            assert sp.landscape.values.tobytes() == pool[i].values.tobytes()

    @pytest.mark.parametrize(
        "seed, pool_size, grid", [(0, 4, 3), (3, 40, 5), (7, 300, 4), (11, 60, 10), (5, 30, 1)]
    )
    def test_working_set_scores_equal_per_landscape_reference(self, seed, pool_size, grid, monkeypatch):
        # every smoothing-rounds group reuses the suite's two buffers; the cases hold
        # groups of unequal size, odd and even rounds (the values end in either
        # buffer), rounds that no grid draws (seed 0 of 4) and single parcels; the last
        # select_extremes call reads the whole pool's scores, after the groups' own calls
        scored = []

        def recording(scores, k):
            scored.append(scores.copy())
            return select_extremes(scores, k)

        monkeypatch.setattr(experiment, "select_extremes", recording)
        build_species_suite(seed, pool_size=pool_size, grid=grid)
        scores = scored[-1]
        assert len(scores) == pool_size
        for i, r in enumerate(pool_rounds(seed, pool_size).tolist()):
            expected = fragmentation(generate_landscape(grid, r, seed + i).values[None])[0]
            assert scores[i].tobytes() == expected.tobytes(), (i, r)

    def test_paper_size_pool_memory_peak(self):
        # one working set of two buffers, each sized for the largest smoothing-rounds
        # group (~0.9 MB), peaks at ~2.33 MB; fresh arrays per group peaked at 3.56 MB,
        # and the whole 10k pool's values alone take 8 MB. A process's first draw
        # imports numpy.random (~0.8 MB), which is not the pool's, so it comes first.
        build_species_suite(seed=0, pool_size=4, grid=2)
        tracemalloc.start()
        try:
            build_species_suite(seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.8e6

    def test_tied_pool_keeps_four_grids_per_group(self):
        # every one-parcel grid scores 0, so a cut keeping every grid tied at its group's
        # second value would keep the whole 20k pool (6.3 MB peak); each group's own
        # select_extremes picks keep at most four grids (~2.3 MB, the scores and draws)
        build_species_suite(seed=0, pool_size=4, grid=2)
        tracemalloc.start()
        try:
            build_species_suite(seed=0, pool_size=20_000, grid=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_paper_size_picks_are_pinned(self):
        # (seed, smoothing_rounds) of the seed-0, 10k-pool picks, recorded from
        # the per-landscape pool before it was scored as arrays.
        picks = {"highest": (139, 0), "2nd highest": (5647, 0), "lowest": (6799, 7), "2nd lowest": (6951, 8)}
        suite = build_species_suite(seed=0)
        assert {sp.fragmentation_rank for sp in suite} == set(picks)
        for sp in suite:
            seed, rounds = picks[sp.fragmentation_rank]
            assert sp.landscape.values.tobytes() == generate_landscape(10, rounds, seed).values.tobytes()


class TestDefaultScenarios:
    def test_six_cases_in_order(self, small_suite):
        scenarios = default_scenarios(small_suite, seed=11)
        assert len(scenarios) == 6
        for scenario, group in zip(scenarios, CASE_GROUPS):
            assert tuple(sp.label for sp in scenario.species) == tuple(
                f"S{i}" for i in group
            )
        assert [sp.label for sp in scenarios[0].species] == ["S0", "S1"]
        assert [sp.label for sp in scenarios[4].species] == ["S0", "S1", "S2", "S3", "S4"]

    def test_default_budgets_costs_weights(self, small_suite):
        for scenario in default_scenarios(small_suite, seed=11):
            assert scenario.budgets == tuple(range(0, 101, 5))
            assert np.all(scenario.costs == 1)
            assert all(w == 1 for w in scenario.weights)
            assert scenario.lv_params.species_count == len(scenario.species)

    def test_scenario_validation(self, small_suite):
        scenario = default_scenarios(small_suite, seed=11)[0]
        with pytest.raises(ValueError):
            dataclasses.replace(scenario, budgets=(10, 5))
        with pytest.raises(ValueError):
            dataclasses.replace(scenario, weights=(Fraction(1),))


class TestSimilarity:
    def test_identical_solutions(self):
        a = solution([1, 0, 1, 1])
        assert similarity(a, a) == 4

    def test_complementary_solutions(self):
        assert similarity(solution([1, 0, 1]), solution([0, 1, 0])) == 0

    def test_partial_agreement(self):
        assert similarity(solution([1, 1, 0, 0]), solution([1, 0, 1, 0])) == 2

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            similarity(solution([1]), solution([1, 0]))


class TestBudgetSweep:
    def test_endpoint_budgets_agree_fully(self, small_suite):
        scenario = default_scenarios(small_suite, seed=11)[0]
        rows = budget_sweep(scenario)
        assert len(rows) == 21
        by_budget = {r.budget: r for r in rows}
        parcels = scenario.costs.size
        assert by_budget[0].similarity == parcels
        assert np.all(by_budget[0].x_1 == 0) and np.all(by_budget[0].x_2 == 0)
        assert by_budget[100].similarity == parcels
        assert np.all(by_budget[100].x_1 == 1) and np.all(by_budget[100].x_2 == 1)

    def test_zero_dynamics_reduces_to_one_model(self, small_suite):
        for scenario in default_scenarios(small_suite, seed=11):
            frozen = dataclasses.replace(
                scenario, lv_params=zero_params(len(scenario.species))
            )
            for r in budget_sweep(frozen):
                assert r.similarity == scenario.costs.size
                assert np.array_equal(r.x_1, r.x_2)
                assert r.objective_1 == r.objective_2

    def test_rows_are_deterministic(self, small_suite):
        scenario = default_scenarios(small_suite, seed=11)[1]
        a, b = budget_sweep(scenario), budget_sweep(scenario)
        for x, y in zip(a, b):
            assert x.budget == y.budget
            assert x.similarity == y.similarity
            assert x.objective_1 == y.objective_1
            assert np.array_equal(x.x_1, y.x_1) and np.array_equal(x.x_2, y.x_2)

    def test_single_budget_rows_match_full_sweep(self, small_suite):
        # projecting once per scenario must equal projecting per budget
        scenario = default_scenarios(small_suite, seed=11)[2]
        full = {r.budget: r for r in budget_sweep(scenario)}
        for budget in (5, 35, 70):
            narrow = dataclasses.replace(scenario, budgets=(0, budget, 100))
            row_b = {r.budget: r for r in budget_sweep(narrow)}[budget]
            assert row_b.similarity == full[budget].similarity
            assert np.array_equal(row_b.x_1, full[budget].x_1)
            assert np.array_equal(row_b.x_2, full[budget].x_2)

    @pytest.mark.parametrize("unit_costs", [True, False])
    def test_rows_equal_one_budget_solves_of_each_model(self, unit_costs, small_suite):
        # every row against a fresh one-budget solve of each model: the six seed-0 cases
        # (top-k), and a small case with costs 0..9 and uneven weights (knapsack)
        if unit_costs:
            scenarios = default_scenarios(build_species_suite(seed=0), seed=0)
        else:
            costs = np.random.default_rng(3).integers(0, 10, size=100)
            base = default_scenarios(small_suite, seed=11)[4]
            budgets = (0, 1, 9, 40, 150, int(costs.sum()), int(costs.sum()) + 5)
            weights = (2, 1, Fraction(1, 3), 0, 5)
            scenarios = [dataclasses.replace(base, costs=costs, budgets=budgets, weights=weights)]
        for scenario in scenarios:
            grids = experiment._model_grids(scenario)
            rows = budget_sweep(scenario)
            assert [r.budget for r in rows] == list(scenario.budgets)
            for r in rows:
                one_1, one_2 = (
                    solve(ReserveProblem(g.matrix(), scenario.weights, scenario.costs, r.budget)) for g in grids
                )
                assert r.x_1.dtype == r.x_2.dtype == np.int8
                assert r.x_1.tolist() == one_1.x.tolist() and r.x_2.tolist() == one_2.x.tolist()
                assert (r.objective_1, r.objective_2) == (one_1.objective, one_2.objective)
                assert type(r.objective_1) is type(r.objective_2) is Fraction
                assert type(r.similarity) is int and r.similarity == int(np.sum(one_1.x == one_2.x))
            # each model's selections are rows of one (budgets, parcels) array
            assert all(r.x_1.base is rows[0].x_1.base is not None for r in rows)
            assert all(r.x_2.base is rows[0].x_2.base is not None for r in rows)

    def test_objectives_track_model_values(self, small_suite):
        scenario = default_scenarios(small_suite, seed=11)[0]
        rows = budget_sweep(scenario)
        budgets = [r.budget for r in rows]
        assert budgets == sorted(budgets)
        # objectives are monotone in budget for both models
        for key in ("objective_1", "objective_2"):
            series = [getattr(r, key) for r in rows]
            assert all(a <= b for a, b in zip(series, series[1:]))


class TestSummarize:
    def test_all_equal(self):
        rows = [row(b, 100) for b in range(0, 101, 5)]
        stats = summarize(rows)
        assert (stats.min, stats.mean, stats.median) == (100, 100.0, 100.0)

    def test_small_example(self):
        rows = [row(0, 100), row(5, 92), row(10, 96), row(15, 100), row(20, 100)]
        stats = summarize(rows)
        assert stats.min == 92
        assert stats.mean == pytest.approx(96.0)
        assert stats.median == 96.0

    def test_even_interior_median_averages_middles(self):
        rows = [row(b, s) for b, s in [(0, 99), (5, 90), (10, 92), (15, 94), (20, 98), (25, 99)]]
        assert summarize(rows).median == 93.0

    def test_requires_interior_rows(self):
        with pytest.raises(ValueError):
            summarize([row(0, 100), row(100, 100)])

    def test_exactly_the_endpoint_budgets_are_excluded(self):
        interior = [row(5, 92), row(10, 96), row(15, 98)]
        padded = [row(0, 100)] + interior + [row(100, 100)]
        stats = summarize(padded)
        assert stats.min == 92
        assert stats.mean == pytest.approx((92 + 96 + 98) / 3)
        assert stats.median == 96.0
        # row order must not matter, only budget order
        assert summarize(list(reversed(padded))) == stats

    def test_adding_endpoint_rows_never_lowers_the_min(self):
        # endpoint similarities are always the maximum, so padding a sweep with
        # them shifts which rows count as interior but cannot raise the min
        inner = [row(5, 92), row(10, 96), row(15, 98)]
        padded = [row(0, 100)] + inner + [row(100, 100)]
        assert summarize(inner).min >= summarize(padded).min


class TestWeightedComparison:
    def test_identical_weight_sets_give_identical_series(self, small_suite):
        scenario = default_scenarios(small_suite, seed=11)[1]
        results = weighted_comparison(scenario, [(1, 1), (1, 1)])
        sims_a = [r.similarity for r in results[0][1]]
        sims_b = [r.similarity for r in results[1][1]]
        assert sims_a == sims_b

    def test_zero_budget_row_always_agrees(self, small_suite):
        scenario = default_scenarios(small_suite, seed=11)[1]
        results = weighted_comparison(
            scenario, [(1, 1), (Fraction(9, 10), Fraction(1, 10))]
        )
        for _, rows in results:
            assert rows[0].budget == 0
            assert rows[0].similarity == scenario.costs.size

    def test_weight_set_length_checked(self, small_suite):
        scenario = default_scenarios(small_suite, seed=11)[0]
        with pytest.raises(ValueError):
            weighted_comparison(scenario, [(1, 1, 1)])

    def test_projects_once_and_matches_per_weight_sweeps(self, small_suite, monkeypatch):
        scenario = default_scenarios(small_suite, seed=11)[4]
        weight_sets = [(1,) * 5, (5, 1, 1, 1, 1), (Fraction(1, 3), 2, 0, 1, 1)]
        expected = [
            budget_sweep(dataclasses.replace(scenario, weights=w)) for w in weight_sets
        ]
        calls = []
        projection = experiment.simulate
        monkeypatch.setattr(
            experiment, "simulate", lambda *args: calls.append(args) or projection(*args)
        )
        results = weighted_comparison(scenario, weight_sets)
        assert len(calls) == 1

        def key(rows):
            return [
                (r.budget, r.similarity, r.objective_1, r.objective_2, r.x_1.tolist(), r.x_2.tolist())
                for r in rows
            ]

        assert [key(rows) for _, rows in results] == [key(rows) for rows in expected]

    def test_scaled_weights_equal_unscaled(self, small_suite):
        scenario = default_scenarios(small_suite, seed=11)[0]
        results = weighted_comparison(scenario, [(1, 1), (5, 5)])
        assert [r.similarity for r in results[0][1]] == [
            r.similarity for r in results[1][1]
        ]


def _species(counts: np.ndarray) -> SpeciesSpec:
    """A one-species spec of the given (1, n, n) counts on a uniform landscape."""
    n = counts.shape[-1]
    return SpeciesSpec(label="S", fragmentation_rank="highest", total=int(counts.sum()),
                       landscape=Landscape(np.full((n, n), 0.5)), counts=CountsGrid(counts))


class TestScenarioAssembly:
    def test_observed_combines_species(self):
        layers = [np.arange(4).reshape(1, 2, 2) + 4 * k for k in range(3)]
        scenario = Scenario(species=tuple(map(_species, layers)), weights=(1, 1, 1), budgets=(0, 2),
                            costs=np.ones(4, dtype=int), lv_params=default_params(3))
        observed = scenario.observed()
        assert observed.species_count == 3
        assert np.array_equal(observed.counts, np.concatenate(layers))

    def test_mixed_grid_sizes_rejected(self):
        species = (_species(np.zeros((1, 2, 2), dtype=int)), _species(np.zeros((1, 3, 3), dtype=int)))
        with pytest.raises(InvalidDimensionError, match="must share the same grid size"):
            Scenario(species=species, weights=(1, 1), budgets=(0,), costs=np.ones(4, dtype=int),
                     lv_params=default_params(2))

    def test_observed_stacks_in_order(self, small_suite):
        scenario = default_scenarios(small_suite, seed=11)[4]
        observed = scenario.observed()
        assert observed.species_count == 5
        for i, sp in enumerate(scenario.species):
            assert np.array_equal(observed.counts[i], sp.counts.counts[0])

    def test_species_can_repeat(self, small_suite):
        scenario = default_scenarios(small_suite, seed=11)[5]
        labels = [sp.label for sp in scenario.species]
        assert labels == ["S5", "S6", "S7", "S0", "S1"]
        observed = scenario.observed()
        assert np.array_equal(observed.counts[3], scenario.species[3].counts.counts[0])
