import itertools
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reserveplan import (
    CountsGrid,
    DegenerateIntensityError,
    InsufficientCandidatesError,
    InvalidDimensionError,
    Landscape,
    build_species_suite,
    distribute_population,
    fragmentation,
    generate_landscape,
    select_extremes,
)
from reserveplan import landscape
from reserveplan.experiment import MAX_SMOOTHING_ROUNDS
from reserveplan._pcg import _word_order, uniform_grids
from reserveplan.landscape import _generate_values

from conftest import reference_landscape_values


def score(land: Landscape) -> float:
    """The fragmentation of one landscape, scored as a stack of one."""
    return float(fragmentation(land.values[np.newaxis])[0])


grids = st.integers(2, 6).flatmap(
    lambda n: st.lists(
        st.floats(0.0, 1.0, allow_nan=False), min_size=n * n, max_size=n * n
    ).map(lambda vals: Landscape(np.asarray(vals).reshape(n, n)))
)


class TestGenerateLandscape:
    def test_deterministic_in_inputs(self):
        a = generate_landscape(10, 3, 1234)
        b = generate_landscape(10, 3, 1234)
        assert np.array_equal(a.values, b.values)
        c = generate_landscape(10, 3, 1235)
        assert not np.array_equal(a.values, c.values)

    def test_values_in_unit_interval(self):
        for rounds in (0, 1, 8):
            land = generate_landscape(12, rounds, 7)
            assert land.values.shape == (12, 12)
            assert land.values.min() >= 0.0
            assert land.values.max() <= 1.0

    def test_zero_side_rejected(self):
        with pytest.raises(InvalidDimensionError):
            generate_landscape(0, 0, 1)

    def test_single_parcel(self):
        for rounds in (0, 5):
            land = generate_landscape(1, rounds, 99)
            assert land.values.shape == (1, 1)
            assert 0.0 <= land.values[0, 0] <= 1.0
        # smoothing a single parcel is the identity
        assert np.array_equal(
            generate_landscape(1, 0, 99).values, generate_landscape(1, 7, 99).values
        )

    def test_rescale_spans_unit_interval(self, monkeypatch):
        # fixed draws in place of the seeded ones: each grid of a batch is rescaled on its
        # own to span [0, 1], and a constant grid passes through untouched
        fixed = np.array([[[0.1, 0.9], [0.5, 0.3]], [[0.4, 0.4], [0.4, 0.4]]])

        def draws(seeds, out):
            out[...] = fixed[list(seeds)]
            return out

        monkeypatch.setattr(landscape, "uniform_grids", draws)
        rescaled = generate_landscape(2, 0, 0).values
        assert rescaled.min() == 0.0
        assert rescaled.max() == 1.0
        assert rescaled[1, 0] == pytest.approx(0.5)
        assert rescaled[1, 1] == pytest.approx(0.25)
        assert np.array_equal(generate_landscape(2, 0, 1).values, fixed[1])
        batch, _ = _generate_values(2, 0, [0, 1])
        assert batch.tobytes() == np.stack([rescaled, fixed[1]]).tobytes()

    def test_generated_grids_span_unit_interval(self):
        for seed in range(5):
            land = generate_landscape(2, 0, seed)
            assert land.values.min() == 0.0
            assert land.values.max() == 1.0

    @given(st.integers(1, 7), st.integers(0, 8), st.integers(0, 2**128))
    @settings(max_examples=150, deadline=None)
    def test_matches_per_landscape_reference(self, n, rounds, seed):
        got = generate_landscape(n, rounds, seed).values
        assert got.tobytes() == reference_landscape_values(n, rounds, seed).tobytes()

    def test_batch_rows_match_single_landscapes(self):
        # the batch smooths grid-last in two buffers; each row must still equal the
        # 2-D reference, whether the buffers are made for it or given larger and stale
        for n, rounds, size in itertools.product([1, 2, 3, 7], range(9), [0, 1, 2, 9]):
            seeds = [3 + 37 * i + 1000 * size for i in range(size)]
            stale = np.full(10 * n * n + 3, np.nan), np.full(10 * n * n + 3, 7.0)
            for buffers in (None, stale):
                batch, spare = _generate_values(n, rounds, seeds, buffers)
                assert batch.shape == (size, n, n)
                assert batch.flags.c_contiguous
                assert spare.size == size * n * n and not np.shares_memory(spare, batch)
                for row, seed in zip(batch, seeds):
                    assert row.tobytes() == reference_landscape_values(n, rounds, seed).tobytes(), (n, rounds, seed)

    def test_negative_rounds_rejected(self):
        with pytest.raises(ValueError, match="smoothing_rounds"):
            generate_landscape(3, -1, 0)

    def test_smoothing_lowers_fragmentation(self):
        for seed in range(20):
            rough = score(generate_landscape(10, 0, seed))
            smooth = score(generate_landscape(10, 8, seed))
            assert rough > smooth


class TestUniformGrids:
    """The whole-array kernel equals one ``default_rng`` per seed, bit for bit."""

    @staticmethod
    def assert_matches_default_rng(seeds, n):
        out = np.full((len(seeds), n, n), np.nan)
        grids = uniform_grids(seeds, out)
        assert grids is out
        for grid, seed in zip(grids, seeds):
            assert grid.tobytes() == np.random.default_rng(seed).random((n, n)).tobytes()

    def test_seeds_of_every_word_count_in_one_batch(self):
        # 1 to 6 32-bit words: SeedSequence pads below 4 and mixes in words past 4
        seeds = [0, 2**32 - 1, 2**32, 2**64, 2**128 - 1, 2**128, 2**160 + 3]
        self.assert_matches_default_rng(seeds, 5)

    @pytest.mark.parametrize(
        "seeds, n",
        [([8], 70), ([1, 2, 3], 40), ([9], 300), (list(range(1111)), 3)],
        ids=["one-large-grid", "several-seeds", "300x300", "1111-seeds"],
    )
    def test_larger_grids(self, seeds, n):
        # one seed's 4900 draws, and 3 seeds' grids of 1600 draws written into one batch
        self.assert_matches_default_rng(seeds, n)

    def test_empty_batch_and_single_parcel(self):
        assert uniform_grids([], np.empty((0, 4, 4))).shape == (0, 4, 4)
        self.assert_matches_default_rng([0, 5, 2**70], 1)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64, np.uint64])
    def test_integer_array_seeds_are_read_whole(self, dtype):
        self.assert_matches_default_rng(np.array([0, 1, 200, np.iinfo(dtype).max], dtype=dtype), 4)

    def test_negative_array_seed_refused_naming_seed(self):
        with pytest.raises(ValueError, match=r"^seed must be a nonnegative integer, got -3$"):
            uniform_grids(np.array([4, -3]), np.empty((2, 2, 2)))

    def test_numpy_integer_seed_gives_the_same_grid(self):
        got = generate_landscape(6, 2, np.int64(7)).values
        assert got.tobytes() == generate_landscape(6, 2, 7).values.tobytes()

    def test_negative_seed_refused_naming_seed(self):
        with pytest.raises(ValueError, match=r"^seed must be a nonnegative integer, got -1$"):
            generate_landscape(3, 0, -1)

    def test_importing_the_package_leaves_numpy_random_unloaded(self):
        # numpy.random is loaded on the first draw (it adds ~6 MB resident and ~14 ms), so
        # neither the package nor any of its modules, the command line included, imports it
        src = Path(__file__).resolve().parents[1] / "src"
        code = (
            f"import sys, pkgutil, importlib; sys.path.insert(0, {str(src)!r}); import reserveplan; "
            "loaded = ['numpy.random' in sys.modules]; "
            "names = [m.name for m in pkgutil.iter_modules(reserveplan.__path__, 'reserveplan.')]; "
            "[importlib.import_module(name) for name in names]; "
            "print(loaded + ['numpy.random' in sys.modules, 'reserveplan.cli' in sys.modules])"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert result.stdout == "[False, False, True]\n"

    def test_callers_streams_are_untouched(self):
        # the reused generator is the kernel's own: a caller's generator and numpy's
        # legacy global stream draw the same numbers with or without kernel calls between
        saved = np.random.get_state()
        try:
            runs = []
            for interleave in (True, False):
                np.random.seed(11)
                mine = np.random.default_rng(5)
                drawn = []
                for seeds in ([0, 1], [2**64], [3, 4, 5]):
                    drawn += [mine.random(3), np.random.random(3)]
                    if interleave:
                        uniform_grids(seeds, np.empty((len(seeds), 4, 4)))
                runs.append(np.concatenate(drawn).tobytes())
        finally:
            np.random.set_state(saved)
        assert runs[0] == runs[1]

    def test_concurrent_calls_match_serial(self):
        batches = [list(range(k * 1000, (k + 1) * 1000)) for k in range(6)]
        serial = [uniform_grids(seeds, np.empty((1000, 6, 6))).tobytes() for seeds in batches]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                outs = [np.empty((1000, 6, 6)) for _ in batches]
                threaded = pool.map(uniform_grids, batches, outs, timeout=120)
                threaded = [grids.tobytes() for grids in threaded]
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial

    def test_unknown_state_layout_refused_naming_numpy_version(self):
        from numpy.random import PCG64

        message = rf"^numpy {re.escape(np.__version__)} lays out PCG64's state words in an unknown order$"
        with pytest.raises(RuntimeError, match=message):
            _word_order(PCG64(), memoryview(bytearray(32)))

    def test_one_generator_per_call_not_per_seed(self, monkeypatch):
        # a pool ten times larger builds no more generators: one per smoothing-rounds group,
        # and none for the picks, whose values are kept
        import numpy.random

        made, real = [], numpy.random.PCG64

        def counting_pcg64(*args):
            made.append(args)
            return real(*args)

        monkeypatch.setattr(numpy.random, "PCG64", counting_pcg64)
        counts = []
        for pool_size in (200, 2000):
            made.clear()
            build_species_suite(0, pool_size=pool_size, grid=4)
            counts.append(len(made))
        assert counts == [MAX_SMOOTHING_ROUNDS + 1] * 2


class TestFragmentation:
    def test_constant_grid_scores_zero(self):
        assert fragmentation(np.full((1, 3, 3), 0.7)).tolist() == [0.0]

    def test_checkerboard_scores_one(self):
        assert fragmentation(np.array([[[0.0, 1.0], [1.0, 0.0]]])).tolist() == [1.0]

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64, np.bool_, np.float32])
    def test_checkerboard_of_any_numeric_dtype_scores_one(self, dtype):
        # read as float64: an unsigned stack must not wrap 0 - 1 to 255
        board = np.array([[[0, 1, 0], [1, 0, 1], [0, 1, 0]]], dtype=dtype)
        assert fragmentation(board).tolist() == [1.0]

    def test_scratch_holds_the_differences_without_moving_a_bit(self):
        stack = np.stack([generate_landscape(6, r, 90 + r).values for r in range(5)])
        scratch = np.full(5 * 6 * 6, np.nan)
        assert fragmentation(stack, scratch=scratch).tobytes() == fragmentation(stack).tobytes()

    @pytest.mark.parametrize(
        "scratch",
        [np.empty(5 * 6 * 5 - 1), np.empty(5 * 6 * 5, dtype=np.float32), "values"],
        ids=["too-small", "float32", "overlaps-values"],
    )
    def test_scratch_refused_unless_float64_large_enough_and_apart(self, scratch):
        stack = np.zeros((5, 6, 6))
        scratch = stack.reshape(-1) if isinstance(scratch, str) else scratch
        message = "scratch must be a float64 array of at least 150 elements apart from values"
        with pytest.raises(ValueError, match=f"^{message}$"):
            fragmentation(stack, scratch=scratch)

    def test_matches_pairwise_enumeration(self):
        land = Landscape(np.array([[0.0, 0.5], [0.5, 1.0]]))
        assert score(land) == pytest.approx(_enumerated(land))
        assert score(land) == pytest.approx(0.5)

    def test_single_parcel_scores_zero(self):
        assert fragmentation(np.array([[[0.3]]])).tolist() == [0.0]

    def test_batch_scores(self):
        # a stack scores each grid as it scores alone
        pool = [generate_landscape(5, r, 50 + r) for r in range(4)]
        scores = fragmentation(np.stack([l.values for l in pool]))
        assert scores.shape == (4,)
        assert scores.tolist() == [score(l) for l in pool]
        assert fragmentation(np.zeros((0, 5, 5))).shape == (0,)
        assert fragmentation(np.full((3, 1, 1), 0.2)).tolist() == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize(
        "shape, message",
        [
            ((3, 3), "values must have 3 axes, got shape (3, 3)"),
            ((), "values must have 3 axes, got shape ()"),
            ((2, 3, 4), "values must be a nonempty square grid, got shape (2, 3, 4)"),
            ((1, 0, 0), "values must be a nonempty square grid, got shape (1, 0, 0)"),
        ],
        ids=["one-grid", "scalar", "oblong", "empty-grids"],
    )
    def test_refuses_anything_but_a_square_stack(self, shape, message):
        with pytest.raises(InvalidDimensionError, match=f"^{re.escape(message)}$"):
            fragmentation(np.zeros(shape))

    @given(grids)
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_enumeration(self, land):
        assert score(land) == pytest.approx(_enumerated(land), abs=1e-12)

    @given(grids)
    @settings(max_examples=60, deadline=None)
    def test_invariant_under_value_flip(self, land):
        flipped = Landscape(1.0 - land.values)
        assert score(flipped) == pytest.approx(score(land), abs=1e-12)

    @given(grids)
    @settings(max_examples=60, deadline=None)
    def test_invariant_under_transpose(self, land):
        swapped = Landscape(land.values.T)
        assert score(swapped) == pytest.approx(score(land), abs=1e-12)


def _enumerated(land: Landscape) -> float:
    diffs = []
    for i in range(land.n):
        for j in range(land.n):
            if i + 1 < land.n:
                diffs.append(abs(land.values[i, j] - land.values[i + 1, j]))
            if j + 1 < land.n:
                diffs.append(abs(land.values[i, j] - land.values[i, j + 1]))
    return sum(diffs) / len(diffs)


class TestSelectExtremes:
    def test_orders_by_score(self):
        most, least = select_extremes(np.array([0.9, 0.1, 0.5, 0.7]), k=2)
        assert most.tolist() == [0, 3]
        assert least.tolist() == [1, 2]

    def test_ties_broken_by_input_order(self):
        most, least = select_extremes(np.array([0.5, 0.5]), k=1)
        assert most.tolist() == [0]
        assert least.tolist() == [1]
        # the lower index is the more fragmented one, in both groups
        most, least = select_extremes(np.full(5, 0.2), k=2)
        assert most.tolist() == [0, 1]
        assert least.tolist() == [4, 3]

    @pytest.mark.parametrize(
        "k, most, least",
        [(2, [1, 3], [7, 6]), (4, [1, 3, 8, 2], [7, 6, 4, 0]), (5, [1, 3, 8, 2, 5], [7, 6, 4, 0, 9])],
    )
    def test_ties_straddling_the_kth_score(self, k, most, least):
        # three scores tie at each end, and the k-th score falls inside a tie
        scores = np.array([0.3, 0.9, 0.5, 0.9, 0.1, 0.5, 0.1, 0.1, 0.9, 0.5])
        assert [group.tolist() for group in select_extremes(scores, k)] == [most, least]

    def test_all_tied_pool(self):
        most, least = select_extremes(np.full(10, 0.4), k=5)
        assert most.tolist() == [0, 1, 2, 3, 4]
        assert least.tolist() == [9, 8, 7, 6, 5]

    @given(st.lists(st.integers(0, 3), min_size=2, max_size=30), st.data())
    @settings(max_examples=200, deadline=None)
    def test_equals_one_stable_descending_order(self, values, data):
        # few distinct scores, so ties sit at the cut; the reference is the full stable sort
        scores = np.array(values, dtype=float) / 4
        k = data.draw(st.integers(1, len(scores) // 2))
        order = np.argsort(-scores, kind="stable")
        most, least = select_extremes(scores, k)
        assert most.tolist() == order[:k].tolist()
        assert least.tolist() == order[::-1][:k].tolist()

    def test_groups_are_disjoint(self):
        pool = [generate_landscape(5, r % 4, r) for r in range(30)]
        scores = fragmentation(np.stack([l.values for l in pool]))
        most, least = select_extremes(scores, k=2)
        assert len({*most.tolist(), *least.tolist()}) == 4
        assert score(pool[least[0]]) == min(score(l) for l in pool)
        assert score(pool[most[0]]) == max(score(l) for l in pool)

    def test_unsigned_scores_ranked_as_numbers(self):
        # negating a uint8 array wraps, which made the lowest score the "most fragmented"
        most, least = select_extremes(np.array([0, 1, 2, 3], dtype=np.uint8), k=2)
        assert most.tolist() == [3, 2]
        assert least.tolist() == [0, 1]

    def test_bool_scores_ranked_as_zero_and_one(self):
        most, least = select_extremes(np.array([False, True, False, True]), k=1)
        assert most.tolist() == [1]
        assert least.tolist() == [2]

    @pytest.mark.parametrize(
        "scores, message",
        [
            ([0.2, np.nan, 0.1, 0.3], "scores must be finite"),
            ([0.2, -0.5, 0.1, 0.3], "scores must be nonnegative"),
            ([[0.2, 0.1], [0.3, 0.4]], "scores must have shape (any,), got (2, 2)"),
        ],
        ids=["nan", "negative", "two-axes"],
    )
    def test_scores_refused_by_name(self, scores, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            select_extremes(np.array(scores), k=1)

    def test_pool_too_small(self):
        message = "need at least 4 landscapes to pick 2 of each extreme, got 3"
        with pytest.raises(InsufficientCandidatesError, match=f"^{message}$"):
            select_extremes(np.full(3, 0.2), k=2)

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_refused(self, k):
        with pytest.raises(ValueError, match=rf"^k must be >= 1, got {k}$"):
            select_extremes(np.full(4, 0.2), k=k)


class TestLandscapeValidation:
    def test_nan_values_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            Landscape(np.full((2, 2), np.nan))

    def test_single_nan_among_valid_values_rejected(self):
        values = np.full((3, 3), 0.5)
        values[2, 1] = np.nan
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            Landscape(values)


class TestDistributePopulation:
    def test_counts_sum_exactly(self):
        land = generate_landscape(10, 2, 5)
        for seed in range(200):
            grid = distribute_population(land, 137, seed)
            assert grid.totals()[0] == 137
            assert grid.counts.min() >= 0

    def test_deterministic_in_seed(self):
        land = generate_landscape(8, 1, 3)
        a = distribute_population(land, 250, 42)
        b = distribute_population(land, 250, 42)
        assert np.array_equal(a.counts, b.counts)

    def test_zero_total_gives_empty_grid(self):
        land = generate_landscape(4, 0, 9)
        grid = distribute_population(land, 0, 1)
        assert grid.counts.sum() == 0

    def test_single_habitable_parcel_takes_everything(self):
        values = np.ones((3, 3))
        values[1, 2] = 0.4
        land = Landscape(values)
        grid = distribute_population(land, 100, 8)
        assert grid.counts[0, 1, 2] == 100
        assert grid.totals()[0] == 100

    def test_degenerate_intensity_rejected(self):
        land = Landscape(np.ones((2, 2)))
        with pytest.raises(DegenerateIntensityError):
            distribute_population(land, 5, 0)

    def test_uniform_landscape_mean_close_to_expectation(self):
        # multinomial expectation per parcel is total / n^2 = 1.0
        land = Landscape(np.full((10, 10), 0.3))
        totals = np.zeros((10, 10), dtype=np.int64)
        replicates = 10_000
        for seed in range(replicates):
            totals += distribute_population(land, 100, seed).counts[0]
        means = totals / replicates
        assert np.all(np.abs(means - 1.0) <= 0.05)

    def test_mean_counts_follow_intensity_order(self):
        # distinct habitat values -> strictly ordered expected counts
        values = np.linspace(0.0, 0.8, 9).reshape(3, 3)
        land = Landscape(values)
        totals = np.zeros(9, dtype=np.int64)
        replicates = 10_000
        for seed in range(replicates):
            totals += distribute_population(land, 100, seed).counts[0].ravel()
        means = totals / replicates
        quality = (1.0 - values).ravel()
        order = np.argsort(quality)
        assert np.all(np.diff(means[order]) > 0)
        # pooled counts fit the quality-proportional multinomial
        from scipy import stats as scipy_stats

        expected = replicates * 100 * quality / quality.sum()
        _, pvalue = scipy_stats.chisquare(totals, expected)
        assert pvalue >= 0.001

    @given(st.integers(0, 300), st.integers(0, 2**63 - 1))
    @settings(max_examples=40, deadline=None)
    def test_conservation_property(self, total, seed):
        land = generate_landscape(5, 1, 17)
        grid = distribute_population(land, total, seed)
        assert int(grid.totals()[0]) == total


class TestCountsGrid:
    def test_rejects_fractional_entries(self):
        with pytest.raises(ValueError):
            CountsGrid(np.array([[[1.5]]]))

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            CountsGrid(np.array([[[-1]]]))
