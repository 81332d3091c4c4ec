import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reserveplan import CountsGrid, LVParams, default_params, dynamics, round_counts, simulate
from reserveplan.dynamics import _project
from conftest import logistic_closed_form


def single_species(r=0.1, beta=0.001, dt=0.01, T=2000) -> LVParams:
    return LVParams(r=[r], alpha=[[0.0]], beta=[beta], dt=dt, T=T)


def step(state, params: LVParams) -> np.ndarray:
    """One update step of a single parcel's per-species counts, clamp included."""
    return _project(np.asarray(state, float)[:, None], params, 1)[:, 0]


def scalar_step(state, params: LVParams) -> list[float]:
    """The module docstring's update in Python floats, pressure summed over j in order."""
    s, after = len(state), []
    for i in range(s):
        pressure = 0.0
        for j in range(s):
            pressure += float(params.alpha[i, j]) * state[j]
        n, r, beta = state[i], float(params.r[i]), float(params.beta[i])
        after.append(max(0.0, n + params.dt * (r * n - n * pressure - beta * n * n)))
    return after


def first_step(start, params: LVParams, bad) -> int:
    """The first step at which ``bad(state)`` holds, stepping one parcel by ``scalar_step``."""
    state = [float(v) for v in start]
    for k in range(1, params.T + 1):
        state = scalar_step(state, params)
        if bad(state):
            return k
    raise AssertionError("the reference never turned bad")


class TestParams:
    def test_rejects_negative_rates(self):
        with pytest.raises(ValueError):
            LVParams(r=[-0.1], alpha=[[0.0]], beta=[0.001])

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError):
            LVParams(r=[0.1, 0.1], alpha=[[0.1, 0.0], [0.0, 0.0]], beta=[0.001, 0.001])

    def test_rejects_bad_step_schedule(self):
        with pytest.raises(ValueError):
            LVParams(r=[0.1], alpha=[[0.0]], beta=[0.001], dt=0.0)
        with pytest.raises(ValueError):
            LVParams(r=[0.1], alpha=[[0.0]], beta=[0.001], T=-1)

    def test_defaults(self):
        params = default_params(3)
        assert params.species_count == 3
        assert np.all(params.r == 0.1)
        assert np.all(params.beta == 0.001)
        assert np.all(params.alpha[~np.eye(3, dtype=bool)] == 0.0005)
        assert np.all(np.diag(params.alpha) == 0.0)
        assert params.dt == 0.01 and params.T == 2000


class TestStep:
    def test_extinction_is_fixed(self):
        params = default_params(3)
        out = step([0.0, 0.0, 0.0], params)
        assert np.array_equal(out, np.zeros(3))

    def test_single_step_update_value(self):
        # 50 + 0.01 * (0.1*50 - 0.001*50^2) = 50.025
        out = step([50.0], single_species())
        assert out[0] == pytest.approx(50.025, abs=1e-9)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_matches_scalar_reference_bit_for_bit(self, seed):
        # the documented update in Python floats, pressure summed over j in order
        rng = np.random.default_rng(seed)
        s = int(rng.integers(1, 6))
        alpha = rng.uniform(0.0, 0.01, size=(s, s))
        np.fill_diagonal(alpha, 0.0)
        params = LVParams(
            r=rng.uniform(0.0, 1.0, s), alpha=alpha, beta=rng.uniform(0.0, 0.01, s), dt=0.05
        )
        state = rng.uniform(0.0, 300.0, s).tolist()
        assert step(state, params).tolist() == scalar_step(state, params)

    def test_logistic_fixed_point_is_bit_stable(self):
        # dyadic rates make r*N and beta*N^2 exact: fixed point 32 = 0.25 / 2^-7
        params = single_species(r=0.25, beta=2.0**-7, dt=0.125)
        state = np.array([32.0])
        for _ in range(1000):
            nxt = step(state, params)
            assert nxt[0] == state[0]
            state = nxt

    def test_monotone_growth_below_fixed_point(self):
        params = single_species()
        state = np.array([1.0])
        for _ in range(500):
            nxt = step(state, params)
            assert nxt[0] > state[0]  # beta*N < r throughout this range
            state = nxt
        assert state[0] < 100.0

    @given(
        st.lists(st.floats(0.0, 1e4), min_size=2, max_size=2),
        st.floats(0.001, 2.0),
        st.floats(0.0, 1.0),
        st.floats(0.0, 0.1),
        st.floats(0.0, 0.1),
    )
    @settings(max_examples=100, deadline=None)
    def test_never_goes_negative(self, state, dt, r, a, b):
        params = LVParams(r=[r, r], alpha=[[0.0, a], [a, 0.0]], beta=[b, b], dt=dt)
        out = step(state, params)
        assert np.all(out >= 0.0)


class TestSimulate:
    def test_zero_dynamics_is_identity(self):
        rng = np.random.default_rng(1)
        grid = CountsGrid(rng.integers(0, 9, size=(2, 4, 4)))
        params = LVParams(
            r=[0.0, 0.0], alpha=np.zeros((2, 2)), beta=[0.0, 0.0], dt=0.01, T=2000
        )
        result = simulate(grid, params)
        assert np.array_equal(result, grid.counts.astype(float))
        assert np.array_equal(round_counts(result).counts, grid.counts)

    def test_zero_steps_is_identity(self):
        grid = CountsGrid(np.arange(4).reshape(1, 2, 2))
        result = simulate(grid, single_species(T=0))
        assert np.array_equal(result, grid.counts.astype(float))

    def test_matches_logistic_closed_form(self):
        # independent oracle: exact logistic solution over the simulated horizon
        params = single_species()
        horizon = params.dt * params.T
        for n0 in (1, 10, 50, 250):
            grid = CountsGrid(np.array([[[n0]]]))
            got = simulate(grid, params)[0, 0, 0]
            expected = logistic_closed_form(float(n0), 0.1, 0.001, horizon)
            assert got == pytest.approx(expected, rel=1e-3)

    def test_parcels_evolve_independently(self):
        # 9 species: a pairwise-reduced species sum would differ between one column and many;
        # 2 species take the one-multiply pressure operands, 1 species a zero pressure
        rng = np.random.default_rng(7)
        for species in (1, 2, 3, 9):
            grid = CountsGrid(rng.integers(0, 12, size=(species, 4, 4)))
            params = dataclasses.replace(default_params(species), T=500)
            whole = simulate(grid, params)
            for row in range(4):
                for col in range(4):
                    counts = grid.counts[:, row, col].reshape(species, 1, 1)
                    alone = simulate(CountsGrid(counts), params)
                    assert np.array_equal(alone[:, 0, 0], whole[:, row, col])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_steps_on_repeated_columns(self, seed):
        rng = np.random.default_rng(seed)
        s, n = int(rng.integers(1, 10)), int(rng.integers(1, 5))
        # a few distinct columns, each repeated across the grid
        pool = rng.integers(0, 300, size=(s, int(rng.integers(1, 4))))
        counts = pool[:, rng.integers(0, pool.shape[1], size=n * n)]
        alpha = rng.uniform(0.0, 0.001, size=(s, s))
        np.fill_diagonal(alpha, 0.0)
        params = LVParams(
            r=rng.uniform(0.0, 0.5, s), alpha=alpha, beta=rng.uniform(0.0005, 0.002, s),
            dt=0.01, T=int(rng.integers(0, 40)),
        )
        # the module docstring's update, species summed in index order
        state = counts.astype(float)
        for _ in range(params.T):
            pressure = np.zeros_like(state)
            for j in range(s):
                pressure = pressure + alpha[:, j, np.newaxis] * state[j]
            r, beta = params.r[:, np.newaxis], params.beta[:, np.newaxis]
            delta = params.dt * (r * state - state * pressure - beta * state * state)
            state = np.maximum(0.0, state + delta)
        got = simulate(CountsGrid(counts.reshape(s, n, n)), params)
        assert np.array_equal(got.reshape(s, -1), state)

    @pytest.mark.parametrize("species", [1, 2, 3, 5])
    def test_check_hook_leaves_the_counts_bit_identical(self, species):
        rng = np.random.default_rng(species)
        alpha = rng.uniform(0.0, 0.002, size=(species, species))
        np.fill_diagonal(alpha, 0.0)
        params = LVParams(
            r=rng.uniform(0.05, 0.5, species), alpha=alpha,
            beta=rng.uniform(0.0005, 0.002, species), dt=0.1, T=60,
        )
        pool = rng.integers(0, 300, size=(species, 4)).astype(float)
        state = pool[:, rng.integers(0, 4, size=11)]
        checked = _project(state, params, params.T, check=lambda *_: None)
        assert checked.tobytes() == _project(state, params, params.T).tobytes()

    def test_two_species_steps_match_the_scalar_reference_on_repeated_columns(self, monkeypatch):
        # Asymmetric r, beta and alpha, so swapping any pair, or pairing a species with
        # its own count, changes the first step; a stale copy of the state changes the second.
        params = LVParams(
            r=[0.3, 0.1], alpha=[[0.0, 0.004], [0.0007, 0.0]], beta=[0.002, 0.0005], dt=0.5, T=6
        )
        state = np.array([[10.0, 30.0, 10.0, 200.0], [40.0, 5.0, 40.0, 3.0]])
        reference = [state.T.tolist()]
        for _ in range(params.T):
            reference.append([scalar_step(column, params) for column in reference[-1]])
        seen = []
        got = _project(state, params, params.T, lambda k, x: seen.append((k, x.T.tolist())))
        assert seen == list(enumerate(reference[1:], start=1))
        assert got.T.tolist() == reference[-1]
        # simulate steps the three distinct columns once and hands parcel 2 the counts of parcel 0
        widths = []
        monkeypatch.setattr(dynamics, "_project", lambda x, *a: widths.append(x.shape[1]) or _project(x, *a))
        projected = simulate(CountsGrid(state.reshape(2, 2, 2).astype(int)), params)
        assert projected.reshape(2, 4).T.tolist() == reference[-1] and widths == [3]

    @pytest.mark.parametrize("species", [3, 5, 8])
    @pytest.mark.parametrize("width", [1, 2, 7])
    def test_tiled_steps_match_the_scalar_reference_every_step(self, species, width):
        # Past two species the pressure reads a tile of the state. Asymmetric alpha, r and
        # beta give every species its own pressure, and every step is checked, so a tile
        # read in the wrong order or refreshed a step late changes step 1 or step 2.
        rng = np.random.default_rng(10 * species + width)
        alpha = rng.uniform(0.0, 0.0004, size=(species, species))
        np.fill_diagonal(alpha, 0.0)
        params = LVParams(
            r=rng.uniform(0.2, 0.5, species), alpha=alpha, beta=rng.uniform(0.0005, 0.001, species),
            dt=0.5, T=6,
        )
        assert not np.array_equal(alpha, alpha.T)
        state = rng.integers(10, 200, size=(species, width)).astype(float)
        reference = [state.T.tolist()]
        for _ in range(params.T):
            reference.append([scalar_step(column, params) for column in reference[-1]])
        seen = []
        got = _project(state, params, params.T, lambda k, x: seen.append((k, x.T.tolist())))
        assert seen == list(enumerate(reference[1:], start=1))
        assert got.T.tolist() == reference[-1]
        assert np.all(got > 0.0)  # no count was clamped away, so every step tested all species

    def test_two_species_constructed_equilibrium(self):
        # choose r so that (40, 60) solves r_i = beta_i*N_i + alpha_ij*N_j
        beta = np.array([0.001, 0.001])
        alpha = np.array([[0.0, 0.0005], [0.0005, 0.0]])
        target = np.array([40.0, 60.0])
        params = LVParams(r=beta * target + alpha @ target, alpha=alpha, beta=beta)
        assert np.array_equal(step(target, params), target)  # exact fixed point
        state = np.array([40.5, 60.5])
        for _ in range(params.T):
            state = step(state, params)
        assert np.all(np.abs(state - target) / target <= 0.02)

    def test_species_count_mismatch_rejected(self):
        grid = CountsGrid(np.zeros((2, 2, 2), dtype=int))
        with pytest.raises(ValueError):
            simulate(grid, single_species())

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_names_the_step_and_the_first_bad_parcel(self):
        # Parcel 0 stays empty; parcels 1 and 2 leave the float range at step 2.
        grid = CountsGrid(np.array([[[0, 100], [100, 0]]]))
        params = LVParams(r=[1e300], alpha=[[0.0]], beta=[0.0], dt=1.0, T=5)
        with pytest.raises(ValueError, match="overflow at step 2 in parcel 1$"):
            simulate(grid, params)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_clamp_names_the_step_and_the_first_clamped_parcel(self):
        # r*dt = 25 overshoots: 1 -> 25.9 -> 606.3 -> negative, clamped at step 3.
        grid = CountsGrid(np.array([[[0, 1], [0, 1]]]))
        params = LVParams(r=[25.0], alpha=[[0.0]], beta=[0.1], dt=1.0, T=10)
        with pytest.raises(ValueError, match="clamped to zero at step 3 in parcel 1$"):
            simulate(grid, params)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_late_overflow_names_the_step_and_the_first_bad_parcel(self):
        # 1.5**k passes the float maximum (~1.8e308) at k = 1751.
        grid = CountsGrid(np.array([[[0, 1], [0, 1]]]))
        params = LVParams(r=[0.5], alpha=[[0.0]], beta=[0.0], dt=1.0, T=2000)
        with pytest.raises(ValueError, match="overflow at step 1751 in parcel 1$"):
            simulate(grid, params)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_two_species_overflow_names_the_step_and_the_first_bad_parcel(self):
        # Species 0 grows 1.5x a step and species 1 1.4x; near the float maximum the
        # pressure of species 1 slows species 0 enough to delay its overflow one step
        # (1,752, not 1,751). Parcel 2 starts larger and overflows first, at 1,740, but
        # parcel 1 is the first bad parcel.
        grid = CountsGrid(np.array([[[0, 1], [100, 0]], [[0, 3], [50, 0]]]))
        params = LVParams(
            r=[0.5, 0.4], alpha=[[0.0, 1e-257], [3e-310, 0.0]], beta=[0.0, 0.0], dt=1.0, T=2000
        )
        overflowed = lambda state: not all(math.isfinite(v) for v in state)
        expected = first_step([1, 3], params, overflowed)
        assert first_step([100, 50], params, overflowed) < expected < params.T
        with pytest.raises(ValueError, match=f"overflow at step {expected} in parcel 1$"):
            simulate(grid, params)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_two_species_clamp_names_the_step_and_the_first_clamped_parcel(self):
        # Species 1 climbs towards 200 and crushes species 0 once 0.01 * N_1 passes ~1.1;
        # parcel 2 starts with more of species 1 and is clamped first.
        grid = CountsGrid(np.array([[[0, 10], [10, 0]], [[0, 20], [60, 5]]]))
        params = LVParams(
            r=[0.1, 0.1], alpha=[[0.0, 0.01], [0.0001, 0.0]], beta=[0.001, 0.0005], dt=1.0, T=500
        )
        clamped = lambda state: state[0] == 0.0
        expected = first_step([10, 20], params, clamped)
        assert first_step([10, 60], params, clamped) < expected < params.T
        with pytest.raises(ValueError, match=f"clamped to zero at step {expected} in parcel 1$"):
            simulate(grid, params)

    def test_refusal_names_the_parcel_when_its_rerun_names_no_step(self, monkeypatch):
        # The step comes from re-running the bad parcel alone; should that re-run stay
        # finite and unclamped, the batch's bad counts are still refused.
        real, calls = _project, []
        def batch_goes_bad(state, params, steps, check=None):
            calls.append(check is not None)
            out = real(state, params, steps, check)
            if check is None:
                out[0, 2] = np.nan
            return out
        monkeypatch.setattr(dynamics, "_project", batch_goes_bad)
        grid = CountsGrid(np.array([[[1, 2], [3, 4]], [[5, 6], [7, 8]]]))
        with pytest.raises(ValueError, match="^projected counts overflow or clamp to zero in parcel 2$"):
            simulate(grid, dataclasses.replace(default_params(2), T=5))
        assert calls == [False, True]

    def test_cell_step_cap_is_far_above_a_60000_step_projection_of_5_species_on_100x100(self):
        assert dynamics.MAX_CELL_STEPS >= 30 * 60_000 * 5 * 100 * 100

    def test_schedule_past_the_cell_step_cap_is_refused_naming_T(self, monkeypatch):
        # 3 distinct columns of 2 species (parcel 3 repeats parcel 0): 6 cell-steps per step
        grid = CountsGrid(np.array([[[1, 2], [3, 1]], [[4, 5], [6, 4]]]))
        monkeypatch.setattr(dynamics, "MAX_CELL_STEPS", 6 * 10)
        at_cap = simulate(grid, dataclasses.replace(default_params(2), T=10))
        assert np.array_equal(at_cap[:, 0, 0], at_cap[:, 1, 1])
        with pytest.raises(
            ValueError,
            match="^T=11 steps on 2 species x 3 distinct columns is 66 cell-steps, past the cap of 60$",
        ):
            simulate(grid, dataclasses.replace(default_params(2), T=11))

    def test_cell_step_cap_is_refused_before_any_step(self, monkeypatch):
        monkeypatch.setattr(dynamics, "MAX_CELL_STEPS", 6 * 10)
        grid = CountsGrid(np.array([[[1, 2], [3, 1]], [[4, 5], [6, 4]]]))
        widths = []
        monkeypatch.setattr(dynamics, "_project", lambda x, *a: widths.append(x.shape[1]) or _project(x, *a))
        with pytest.raises(ValueError, match="^T=11 steps "):
            simulate(grid, dataclasses.replace(default_params(2), T=11))
        assert widths == []
        simulate(grid, dataclasses.replace(default_params(2), T=10))
        assert widths == [3]


class TestMemo:
    """Projected columns kept across ``simulate`` calls: exact, keyed by value, bounded."""

    @staticmethod
    def kernel(grid: CountsGrid, params: LVParams) -> bytes:
        return _project(grid.matrix().astype(float), params, params.T).tobytes()

    @staticmethod
    def footprint() -> int:
        """Bytes of every object the memo holds: dicts, keys and column bytes."""
        columns = dynamics._memo.columns
        size = sys.getsizeof(columns)
        for key, held in columns.items():
            size += sys.getsizeof(key) + sum(map(sys.getsizeof, key)) + sys.getsizeof(held)
            size += sum(sys.getsizeof(start) + sys.getsizeof(end) for start, end in held.items())
        return size

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_refusals_repeat_with_the_same_message(self):
        grid = CountsGrid(np.array([[[0, 1], [0, 1]]]))
        overflow = LVParams(r=[0.5], alpha=[[0.0]], beta=[0.0], dt=1.0, T=2000)
        clamp = LVParams(r=[25.0], alpha=[[0.0]], beta=[0.1], dt=1.0, T=10)
        for params, message in ((overflow, "overflow at step 1751"), (clamp, "clamped to zero at step 3")):
            for _ in range(2):
                with pytest.raises(ValueError, match=f"{message} in parcel 1$"):
                    simulate(grid, params)
        assert dynamics._memo.columns == {} and dynamics._memo.bytes == 0

    def test_a_one_ulp_or_one_step_change_of_any_parameter_projects_cold(self):
        grid = CountsGrid(np.random.default_rng(3).integers(0, 60, size=(3, 3, 3)))
        base = default_params(3)
        warm = simulate(grid, base).tobytes()
        def bump(values, at):
            values = values.copy()
            values[at] = np.nextafter(values[at], np.inf)
            return values
        for params in (
            dataclasses.replace(base, r=bump(base.r, 1)),
            dataclasses.replace(base, alpha=bump(base.alpha, (0, 2))),
            dataclasses.replace(base, beta=bump(base.beta, 2)),
            dataclasses.replace(base, dt=float(np.nextafter(base.dt, 1.0))),
            dataclasses.replace(base, T=base.T + 1),
        ):
            got = simulate(grid, params).tobytes()
            assert got == self.kernel(grid, params) and got != warm
        # equal values in a new LVParams share the memo
        assert simulate(grid, default_params(3)).tobytes() == warm

    def test_mutating_a_result_leaves_the_next_call_alone(self):
        grid = CountsGrid(np.array([[[1, 2], [1, 2]], [[3, 4], [3, 4]]]))
        params = dataclasses.replace(default_params(2), T=50)
        first = simulate(grid, params)
        expected = first.tobytes()
        first[...] = -1.0
        second = simulate(grid, params)
        assert second.tobytes() == expected == self.kernel(grid, params)
        assert second.flags.writeable and not np.shares_memory(first, second)

    def test_the_cell_step_cap_counts_known_columns_too(self, monkeypatch):
        # The refusal must not depend on what earlier calls left in the memo.
        monkeypatch.setattr(dynamics, "MAX_CELL_STEPS", 6 * 10)
        params = dataclasses.replace(default_params(2), T=10)
        simulate(CountsGrid(np.array([[[1, 2], [3, 1]], [[4, 5], [6, 4]]])), params)
        wider = CountsGrid(np.array([[[1, 2], [3, 9]], [[4, 5], [6, 9]]]))
        with pytest.raises(ValueError, match="^T=10 steps on 2 species x 4 distinct columns is 80 "):
            simulate(wider, params)

    def test_a_wide_projection_stays_within_the_cap_and_equals_the_kernel(self, monkeypatch):
        rng = np.random.default_rng(5)
        params = dataclasses.replace(default_params(5), T=3)
        column, key = dynamics._COLUMN_BYTES + 16 * 5, dynamics._KEY_BYTES + 8 * (5 + 25 + 5)
        monkeypatch.setattr(dynamics, "MEMO_BYTES", key + 3000 * column)
        small, other = (CountsGrid(rng.integers(0, 1000, size=(5, 40, 40))) for _ in range(2))
        wide = CountsGrid(rng.integers(0, 1000, size=(5, 100, 100)))
        stepped = []
        monkeypatch.setattr(dynamics, "_project", lambda x, *a: stepped.append(x.shape[1]) or _project(x, *a))

        def stored() -> int:
            held = sum(len(columns) for columns in dynamics._memo.columns.values())
            assert self.footprint() <= dynamics._memo.bytes == key + held * column <= dynamics.MEMO_BYTES
            return held

        assert simulate(small, params).tobytes() == self.kernel(small, params)
        assert stored() == 1600  # every small column is new and fits
        for _ in range(2):  # ~10,000 new columns would not fit even alone: returned, not stored
            assert simulate(wide, params).tobytes() == self.kernel(wide, params)
            assert stored() == 1600
        assert simulate(small, params).tobytes() == self.kernel(small, params)
        # 1,600 more do not fit beside the first: the memo is emptied and holds the new ones
        assert simulate(other, params).tobytes() == self.kernel(other, params)
        assert stored() == 1600
        assert simulate(other, params).tobytes() == self.kernel(other, params)
        assert stepped == [1600, 10_000, 10_000, 1600]

    def test_many_parameter_sets_stay_within_the_cap_as_measured(self, monkeypatch):
        # Each parameter set's key and column dict are charged, not only its columns.
        monkeypatch.setattr(dynamics, "MEMO_BYTES", 40_000)
        grid = CountsGrid(np.array([[[7]], [[9]], [[3]], [[5]], [[1]]]))
        base = dataclasses.replace(default_params(5), T=2)
        sets = []
        for k in range(300):  # ~40 sets fit, so the memo is emptied several times
            simulate(grid, dataclasses.replace(base, dt=base.dt + k * 1e-9))
            sets.append(len(dynamics._memo.columns))
            assert self.footprint() <= dynamics._memo.bytes <= dynamics.MEMO_BYTES
        assert max(sets) > 30 and sets.count(1) > 5


def projected(values) -> np.ndarray:
    return np.asarray(values, dtype=float)


class TestRoundCounts:
    def test_half_rounds_up(self):
        assert round_counts(projected([[[2.5]]])).counts[0, 0, 0] == 3

    def test_examples(self):
        rounded = round_counts(projected([[[2.5, 0.0], [99.4999, 0.49]]]))
        assert rounded.counts.ravel().tolist() == [3, 0, 99, 0]

    @given(st.lists(st.floats(0.0, 1e6), min_size=4, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_rounding_property(self, values):
        rounded = round_counts(projected(np.asarray(values).reshape(1, 2, 2)))
        for got, raw in zip(rounded.counts.ravel(), values):
            assert got == math.floor(raw + 0.5)

    def test_beyond_int64_rejected_not_wrapped(self):
        with pytest.raises(ValueError, match="counts must be integers within int64 range"):
            round_counts(projected([[[1e19]]]))
