"""Every constructor refuses bad numbers and shapes through one check, and fileio names bad JSON leaves."""

import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reserveplan import (
    CountsGrid,
    InvalidDimensionError,
    LVParams,
    NonIntegerCostError,
    Landscape,
    ReserveProblem,
    ReserveSolution,
    Scenario,
    SpeciesSpec,
    default_params,
)
from reserveplan import fileio
from reserveplan._checks import decimal_integer
from reserveplan.fileio import SchemaError
from reserveplan.solver import solve_sweep

N = 2
COUNTS = np.arange(N * N).reshape(1, N, N)
GRID = CountsGrid(COUNTS)
SPECIES = SpeciesSpec(
    label="S0",
    fragmentation_rank="highest",
    total=int(COUNTS.sum()),
    landscape=Landscape(np.full((N, N), 0.5)),
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
    "solution.objective": (lambda v: ReserveSolution(x=[1, 0, 1], objective=v, spent=1), Fraction(7, 2), False),
    "solution.spent": (lambda v: ReserveSolution(x=[1, 0, 1], objective=Fraction(1), spent=v), 2, True),
    "landscape.values": (Landscape, [[0.0, 0.25], [0.5, 1.0]], False),
    "counts.counts": (CountsGrid, COUNTS.tolist(), True),
    "params.r": (lambda v: LVParams(r=v, alpha=PARAMS.alpha, beta=PARAMS.beta), [0.1, 0.2], False),
    "params.alpha": (
        lambda v: LVParams(r=PARAMS.r, alpha=v, beta=PARAMS.beta),
        [[0.0, 0.5], [0.25, 0.0]],
        False,
    ),
    "params.beta": (lambda v: LVParams(r=PARAMS.r, alpha=PARAMS.alpha, beta=v), [0.1, 0.2], False),
    "params.dt": (lambda v: LVParams(r=PARAMS.r, alpha=PARAMS.alpha, beta=PARAMS.beta, dt=v), 0.5, False),
    "params.T": (lambda v: LVParams(r=PARAMS.r, alpha=PARAMS.alpha, beta=PARAMS.beta, T=v), 10, True),
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


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_negative_number_is_refused_naming_the_field(field):
    build, valid, _ = FIELDS[field]
    if isinstance(valid, list):
        value = np.asarray(valid, dtype=object)
        value.flat[-1] = -1
        value = value.tolist()
    else:
        value = -1
    name = field.split(".")[1]
    with pytest.raises(ValueError, match=rf"\b{name} must"):
        build(value)


# (field, a value of the wrong shape): a list for every scalar, a wrong length or rank for every array
WRONG_SHAPES = [
    ("params.dt", [0.5, 0.5]),
    ("params.T", [10, 20]),
    ("problem.budget", [1, 2]),
    ("problem.values", [1, 2, 3]),
    ("problem.values", [[]]),
    ("problem.costs", [1, 2]),
    ("problem.costs", [[1, 2, 3]]),
    ("solution.x", [[1, 0, 1]]),
    ("solution.spent", [1, 2]),
    ("landscape.values", [[0.0, 0.25, 0.5], [0.5, 1.0, 1.0]]),
    ("landscape.values", [0.0, 0.25, 0.5, 1.0]),
    ("counts.counts", COUNTS[0].tolist()),
    ("counts.counts", [[[0, 1, 2], [3, 4, 5]]]),
    ("params.r", 0.1),
    ("params.r", [[0.1, 0.2]]),
    ("params.alpha", [[0.0]]),
    ("params.alpha", [0.0, 0.5]),
    ("params.beta", [0.1, 0.2, 0.3]),
    ("params.beta", 0.1),
    ("scenario.budgets", [[0, 2, 4]]),
    ("scenario.costs", [1, 1, 1]),
    ("sweep.budgets", [[1, 2]]),
    ("landscape.values", np.zeros((0, 0))),
    ("landscape.values", [[0.0, 0.25]]),
    ("counts.counts", np.zeros((1, 0, 0), dtype=int)),
    ("counts.counts", [[[0, 1]], [[2, 3]]]),
]
SHAPE_BUILDS = {
    **{field: build for field, (build, _, _) in FIELDS.items()},
    "sweep.budgets": lambda v: solve_sweep([[1, 2]], (1,), [1, 1], v),
}


@pytest.mark.parametrize("field, value", WRONG_SHAPES, ids=[f for f, _ in WRONG_SHAPES])
def test_wrong_shape_is_refused_naming_the_field(field, value):
    name = field.split(".")[1]
    with pytest.raises(InvalidDimensionError, match=rf"\b{name} must") as info:
        SHAPE_BUILDS[field](value)
    assert not isinstance(info.value, NonIntegerCostError)


@pytest.mark.parametrize("grid", [Landscape, CountsGrid])
def test_empty_grid_is_refused_naming_the_array(grid):
    name, shape = ("habitat values", (0, 0)) if grid is Landscape else ("counts", (1, 0, 0))
    message = f"{name} must be a nonempty square grid, got shape {shape}"
    with pytest.raises(InvalidDimensionError, match=f"^{re.escape(message)}$"):
        grid(np.zeros(shape))


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda: CountsGrid(np.zeros((0, 2, 2))), "counts"),
        (lambda: LVParams(r=[], alpha=np.zeros((0, 0)), beta=[]), "r"),
    ],
    ids=["counts", "params"],
)
def test_zero_species_is_refused_naming_the_field(build, name):
    with pytest.raises(InvalidDimensionError, match=rf"^{name} must hold at least one species$"):
        build()


def test_landscape_of_another_side_than_the_counts_is_refused_naming_it():
    obj = fileio.suite_to_obj([SPECIES], seed=0, pool_size=4, grid=N)
    obj["species"][0]["landscape"] = {"n": 4, "values": [0.5] * 16}
    message = "suite.species[0]: landscape must be 2x2 like its counts, got 4x4"
    with pytest.raises(SchemaError, match=re.escape(message)):
        fileio.suite_from_obj(obj)


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


@pytest.mark.parametrize(
    "text, kind, message",
    [
        ("-5", "nonnegative", "must be a nonnegative integer, got '-5'"),
        ("1_0", "positive", "must be a positive integer, got '1_0'"),
        ("٣", "nonnegative", "must be a nonnegative integer, got '٣'"),
        ("", "nonnegative", "must be a nonnegative integer, got ''"),
        ("9" * 5000, "nonnegative", f"must have at most {sys.get_int_max_str_digits()} digits, got 5000"),
    ],
    ids=["sign", "underscore", "arabic-indic-digit", "empty", "too-many-digits"],
)
def test_integer_text_is_ascii_digits_only(text, kind, message):
    # the one rule behind integer CLI flags and integer sweep CSV cells
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        decimal_integer(text, kind)
    assert decimal_integer("0042") == 42
