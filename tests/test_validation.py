"""Every constructor refuses bad numbers through one check, and fileio names bad JSON leaves."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reserveplan import (
    CountsGrid,
    LVParams,
    Landscape,
    ReserveProblem,
    ReserveSolution,
    Scenario,
    SimulatedGrid,
    SpeciesSpec,
    default_params,
    lv_step,
)
from reserveplan import fileio
from reserveplan.fileio import SchemaError

N = 2
COUNTS = np.arange(N * N).reshape(1, N, N)
GRID = CountsGrid(n=N, counts=COUNTS)
SPECIES = SpeciesSpec(
    label="S0",
    fragmentation_rank="highest",
    total=int(COUNTS.sum()),
    landscape=Landscape(n=N, values=np.full((N, N), 0.5)),
    counts=GRID,
)
PARAMS = default_params(2)


def _scenario(budgets=(0, 2, 4), costs=(1, 1, 1, 1), weights=(Fraction(1),)):
    return Scenario(
        species=(SPECIES,),
        weights=weights,
        budgets=budgets,
        costs=costs,
        lv_params=default_params(1),
    )


# field: (build from the field's value, a valid value, integers required)
FIELDS = {
    "problem.values": (
        lambda v: ReserveProblem(values=v, weights=(1, 2), costs=[1, 2, 3], budget=3),
        [[1, 2, 3], [4, 5, 6]],
        True,
    ),
    "problem.costs": (
        lambda v: ReserveProblem(values=[[1, 2, 3]], weights=(1,), costs=v, budget=3),
        [1, 2, 3],
        True,
    ),
    "problem.weights": (
        lambda v: ReserveProblem(values=[[1, 2, 3], [4, 5, 6]], weights=v, costs=[1, 2, 3], budget=3),
        [Fraction(1, 3), 2],
        False,
    ),
    "problem.budget": (
        lambda v: ReserveProblem(values=[[1, 2, 3]], weights=(1,), costs=[1, 2, 3], budget=v),
        3,
        True,
    ),
    "solution.x": (lambda v: ReserveSolution(x=v, objective=Fraction(1), spent=1), [1, 0, 1], True),
    "landscape.n": (lambda v: Landscape(n=v, values=np.full((N, N), 0.5)), N, True),
    "landscape.values": (lambda v: Landscape(n=N, values=v), [[0.0, 0.25], [0.5, 1.0]], False),
    "counts.n": (lambda v: CountsGrid(n=v, counts=COUNTS), N, True),
    "counts.counts": (lambda v: CountsGrid(n=N, counts=v), COUNTS.tolist(), True),
    "params.r": (lambda v: LVParams(r=v, alpha=PARAMS.alpha, beta=PARAMS.beta), [0.1, 0.2], False),
    "params.alpha": (
        lambda v: LVParams(r=PARAMS.r, alpha=v, beta=PARAMS.beta),
        [[0.0, 0.5], [0.25, 0.0]],
        False,
    ),
    "params.beta": (lambda v: LVParams(r=PARAMS.r, alpha=PARAMS.alpha, beta=v), [0.1, 0.2], False),
    "params.dt": (lambda v: LVParams(r=PARAMS.r, alpha=PARAMS.alpha, beta=PARAMS.beta, dt=v), 0.5, False),
    "params.T": (lambda v: LVParams(r=PARAMS.r, alpha=PARAMS.alpha, beta=PARAMS.beta, T=v), 10, True),
    "projected.values": (
        lambda v: SimulatedGrid(n=N, values=v, params=default_params(1), source=GRID),
        [[[0.0, 1.5], [2.0, 3.0]]],
        False,
    ),
    "lv_step.state": (lambda v: lv_step(v, PARAMS), [1.0, 2.0], False),
    "scenario.budgets": (lambda v: _scenario(budgets=v), [0, 2, 4], True),
    "scenario.costs": (lambda v: _scenario(costs=v), [1, 1, 2, 3], True),
    "scenario.weights": (lambda v: _scenario(weights=v), ["9/10"], False),
}

BAD = [math.nan, math.inf, -math.inf, "x"]
BAD_INTEGERS = [0.5, 1e19]


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_valid_values_are_accepted(field):
    build, valid, _ = FIELDS[field]
    build(valid)


@pytest.mark.parametrize("field", sorted(FIELDS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_bad_number_is_refused_naming_the_field(field, data):
    build, valid, integer = FIELDS[field]
    bad = data.draw(st.sampled_from(BAD + BAD_INTEGERS if integer else BAD), label="bad")
    if isinstance(valid, list):
        value = np.asarray(valid, dtype=object)
        value.flat[data.draw(st.integers(0, value.size - 1), label="position")] = bad
        value = value.tolist()
    else:
        value = bad
    name = field.split(".")[1]
    # ValueError only: a TypeError or OverflowError here would escape the CLI as a traceback.
    with pytest.raises(ValueError, match=rf"\b{name} must"):
        build(value)


@pytest.mark.parametrize("field", ["problem.weights", "scenario.weights"])
def test_negative_weight_is_refused_naming_the_field(field):
    build, valid, _ = FIELDS[field]
    with pytest.raises(ValueError, match=r"\bweights must be nonnegative"):
        build([-1, *valid[1:]])


LEAVES = {
    "problem.values": (
        fileio.problem_from_obj,
        {"values": [[1, 2, 3], [4, 5, 6]], "weights": [[1, 1], [1, 2]], "costs": [1, 2, 3], "budget": 3},
        ["x", None, True, 1.5, [1]],
    ),
    "counts.counts": (
        fileio.counts_from_obj,
        {"n": 2, "species": 2, "counts": [[1, 2, 3, 4], [5, 6, 7, 8]]},
        ["x", None, False, [1]],
    ),
    "params.alpha": (
        fileio.params_from_obj,
        {"r": [0.1, 0.1, 0.1], "alpha": [[0.0, 0.1, 0.1], [0.1, 0.0, 0.1], [0.1, 0.1, 0.0]],
         "beta": [0.1, 0.1, 0.1], "dt": 0.01, "T": 5},
        ["x", None, True, {}],
    ),
}


@pytest.mark.parametrize("field", sorted(LEAVES))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_bad_json_leaf_is_named_by_its_path(field, data):
    parse, valid, bad_leaves = LEAVES[field]
    where, key = field.split(".")
    rows = [list(row) for row in valid[key]]
    i = data.draw(st.integers(0, len(rows) - 1), label="i")
    j = data.draw(st.integers(0, len(rows[i]) - 1), label="j")
    rows[i][j] = data.draw(st.sampled_from(bad_leaves), label="leaf")
    with pytest.raises(SchemaError, match="^" + re.escape(f"{where}.{key}[{i}][{j}]: expected")):
        parse({**valid, key: rows})
