import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reserveplan import CountsGrid, LVParams, default_params, round_counts, simulate
from reserveplan.dynamics import _project
from conftest import logistic_closed_form


def single_species(r=0.1, beta=0.001, dt=0.01, T=2000) -> LVParams:
    return LVParams(r=[r], alpha=[[0.0]], beta=[beta], dt=dt, T=T)


def step(state, params: LVParams) -> np.ndarray:
    """One update step of a single parcel's per-species counts, clamp included."""
    return _project(np.asarray(state, float)[:, None], params, 1)[:, 0]


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
        expected = []
        for i in range(s):
            pressure = 0.0
            for j in range(s):
                pressure += float(alpha[i, j]) * state[j]
            n, r, beta = state[i], float(params.r[i]), float(params.beta[i])
            expected.append(max(0.0, n + params.dt * (r * n - n * pressure - beta * n * n)))
        assert step(state, params).tolist() == expected

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
        grid = CountsGrid(n=4, counts=rng.integers(0, 9, size=(2, 4, 4)))
        params = LVParams(
            r=[0.0, 0.0], alpha=np.zeros((2, 2)), beta=[0.0, 0.0], dt=0.01, T=2000
        )
        result = simulate(grid, params)
        assert np.array_equal(result, grid.counts.astype(float))
        assert np.array_equal(round_counts(result).counts, grid.counts)

    def test_zero_steps_is_identity(self):
        grid = CountsGrid(n=2, counts=np.arange(4).reshape(1, 2, 2))
        result = simulate(grid, single_species(T=0))
        assert np.array_equal(result, grid.counts.astype(float))

    def test_matches_logistic_closed_form(self):
        # independent oracle: exact logistic solution over the simulated horizon
        params = single_species()
        horizon = params.dt * params.T
        for n0 in (1, 10, 50, 250):
            grid = CountsGrid(n=1, counts=np.array([[[n0]]]))
            got = simulate(grid, params)[0, 0, 0]
            expected = logistic_closed_form(float(n0), 0.1, 0.001, horizon)
            assert got == pytest.approx(expected, rel=1e-3)

    def test_parcels_evolve_independently(self):
        # 9 species: a pairwise-reduced species sum would differ between one column and many
        rng = np.random.default_rng(7)
        for species in (3, 9):
            grid = CountsGrid(n=4, counts=rng.integers(0, 12, size=(species, 4, 4)))
            params = dataclasses.replace(default_params(species), T=500)
            whole = simulate(grid, params)
            for row in range(4):
                for col in range(4):
                    counts = grid.counts[:, row, col].reshape(species, 1, 1)
                    alone = simulate(CountsGrid(n=1, counts=counts), params)
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
        got = simulate(CountsGrid(n=n, counts=counts.reshape(s, n, n)), params)
        assert np.array_equal(got.reshape(s, -1), state)

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
        grid = CountsGrid(n=2, counts=np.zeros((2, 2, 2), dtype=int))
        with pytest.raises(ValueError):
            simulate(grid, single_species())

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_names_the_step_and_the_first_bad_parcel(self):
        # Parcel 0 stays empty; parcels 1 and 2 leave the float range at step 2.
        grid = CountsGrid(n=2, counts=np.array([[[0, 100], [100, 0]]]))
        params = LVParams(r=[1e300], alpha=[[0.0]], beta=[0.0], dt=1.0, T=5)
        with pytest.raises(ValueError, match="overflow at step 2 in parcel 1$"):
            simulate(grid, params)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_clamp_names_the_step_and_the_first_clamped_parcel(self):
        # r*dt = 25 overshoots: 1 -> 25.9 -> 606.3 -> negative, clamped at step 3.
        grid = CountsGrid(n=2, counts=np.array([[[0, 1], [0, 1]]]))
        params = LVParams(r=[25.0], alpha=[[0.0]], beta=[0.1], dt=1.0, T=10)
        with pytest.raises(ValueError, match="clamped to zero at step 3 in parcel 1$"):
            simulate(grid, params)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_late_overflow_names_the_step_and_the_first_bad_parcel(self):
        # 1.5**k passes the float maximum (~1.8e308) at k = 1751.
        grid = CountsGrid(n=2, counts=np.array([[[0, 1], [0, 1]]]))
        params = LVParams(r=[0.5], alpha=[[0.0]], beta=[0.0], dt=1.0, T=2000)
        with pytest.raises(ValueError, match="overflow at step 1751 in parcel 1$"):
            simulate(grid, params)


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
