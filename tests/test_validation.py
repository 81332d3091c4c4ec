"""Every constructor refuses bad numbers and shapes through one check, and fileio names bad JSON leaves."""

import json
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
    build_species_suite,
    default_params,
    distribute_population,
    generate_landscape,
    select_extremes,
)
from reserveplan import fileio
from reserveplan._checks import as_numbers, decimal_integer
from reserveplan.fileio import SchemaError
from reserveplan.solver import solve_models

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
    # scalar arguments of the library's functions; a seed may be an integer of any size
    "generate_landscape.n": (lambda v: generate_landscape(v, 1, 0), 2, True),
    "generate_landscape.smoothing_rounds": (lambda v: generate_landscape(2, v, 0), 1, True),
    "generate_landscape.seed": (lambda v: generate_landscape(2, 1, v), 2**70, True),
    "distribute_population.total": (lambda v: distribute_population(SPECIES.landscape, v, 0), 5, True),
    "distribute_population.seed": (lambda v: distribute_population(SPECIES.landscape, 5, v), 2**70, True),
    "build_species_suite.seed": (lambda v: build_species_suite(v, pool_size=4, grid=2), 2**70, True),
    "build_species_suite.pool_size": (lambda v: build_species_suite(0, pool_size=v, grid=2), 4, True),
    "build_species_suite.grid": (lambda v: build_species_suite(0, pool_size=4, grid=v), 2, True),
    "default_params.species_count": (default_params, 2, True),
    "select_extremes.k": (lambda v: select_extremes(np.arange(4.0), v), 1, True),
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


@pytest.mark.parametrize("field", sorted(f for f, (_, valid, _) in FIELDS.items() if type(valid) is int))
def test_bool_single_number_is_refused_naming_the_field(field):
    # True is an int to Python: read as a count or a seed it would silently be 1
    build, _, _ = FIELDS[field]
    name = field.split(".")[1]
    with pytest.raises(ValueError, match=rf"^{name} must be a (number|nonnegative integer), got True$"):
        build(True)


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
    ("generate_landscape.n", [2, 3]),
    ("generate_landscape.smoothing_rounds", [1]),
    ("distribute_population.total", [5]),
    ("build_species_suite.pool_size", [4, 5]),
    ("build_species_suite.grid", [2]),
    ("default_params.species_count", [2, 2]),
    ("select_extremes.k", [1]),
    ("sweep.budgets", [[1, 2]]),
    ("landscape.values", np.zeros((0, 0))),
    ("landscape.values", [[0.0, 0.25]]),
    ("counts.counts", np.zeros((1, 0, 0), dtype=int)),
    ("counts.counts", [[[0, 1]], [[2, 3]]]),
]
SHAPE_BUILDS = {
    **{field: build for field, (build, _, _) in FIELDS.items()},
    "sweep.budgets": lambda v: solve_models([[[1, 2]]], (1,), [1, 1], v),
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


# numeric field kind: (reader, a valid document, the field holding the numbers)
KINDS = {
    "flat ints": (
        fileio.problem_from_obj, {"values": [[1] * 9], "weights": [[1, 1]], "costs": [1] * 9, "budget": 2}, "costs"
    ),
    "flat numbers": (fileio.landscape_from_obj, {"n": 3, "values": [0.5] * 9}, "values"),
    "rows of ints": (
        fileio.problem_from_obj,
        {"values": [[1] * 9 for _ in range(3)], "weights": [[1, 1]] * 3, "costs": [1] * 9, "budget": 2},
        "values",
    ),
    "rows of numbers": (
        fileio.counts_from_obj, {"n": 3, "species": 3, "counts": [[0.5] * 9 for _ in range(3)]}, "counts"
    ),
}
POSITIONS = {"flat": [(0,), (4,), (8,)], "rows": [(0, 0), (1, 4), (2, 8)]}  # first, a middle and the last index
# (kind, bad leaf as JSON text): the refusals at the three positions, as worded by the per-leaf walk
# that checked every list before flat lists were checked in one type pass
REFUSALS = {
    ("flat ints", "true"): [
        "problem.costs[0]: expected an integer, got True",
        "problem.costs[4]: expected an integer, got True",
        "problem.costs[8]: expected an integer, got True",
    ],
    ("flat ints", '"3"'): [
        "problem.costs[0]: expected an integer, got '3'",
        "problem.costs[4]: expected an integer, got '3'",
        "problem.costs[8]: expected an integer, got '3'",
    ],
    ("flat ints", "null"): [
        "problem.costs[0]: expected an integer, got None",
        "problem.costs[4]: expected an integer, got None",
        "problem.costs[8]: expected an integer, got None",
    ],
    ("flat ints", "[1]"): [
        "problem.costs[0]: expected an integer, got [1]",
        "problem.costs[4]: expected an integer, got [1]",
        "problem.costs[8]: expected an integer, got [1]",
    ],
    ("flat ints", "1.5"): [
        "problem.costs[0]: expected an integer, got 1.5",
        "problem.costs[4]: expected an integer, got 1.5",
        "problem.costs[8]: expected an integer, got 1.5",
    ],
    ("flat numbers", "true"): [
        "landscape.values[0]: expected a number, got True",
        "landscape.values[4]: expected a number, got True",
        "landscape.values[8]: expected a number, got True",
    ],
    ("flat numbers", '"3"'): [
        "landscape.values[0]: expected a number, got '3'",
        "landscape.values[4]: expected a number, got '3'",
        "landscape.values[8]: expected a number, got '3'",
    ],
    ("flat numbers", "null"): [
        "landscape.values[0]: expected a number, got None",
        "landscape.values[4]: expected a number, got None",
        "landscape.values[8]: expected a number, got None",
    ],
    ("flat numbers", "[1]"): [
        "landscape.values[0]: expected a number, got [1]",
        "landscape.values[4]: expected a number, got [1]",
        "landscape.values[8]: expected a number, got [1]",
    ],
    ("rows of ints", "true"): [
        "problem.values[0][0]: expected an integer, got True",
        "problem.values[1][4]: expected an integer, got True",
        "problem.values[2][8]: expected an integer, got True",
    ],
    ("rows of ints", '"3"'): [
        "problem.values[0][0]: expected an integer, got '3'",
        "problem.values[1][4]: expected an integer, got '3'",
        "problem.values[2][8]: expected an integer, got '3'",
    ],
    ("rows of ints", "null"): [
        "problem.values[0][0]: expected an integer, got None",
        "problem.values[1][4]: expected an integer, got None",
        "problem.values[2][8]: expected an integer, got None",
    ],
    ("rows of ints", "[1]"): [
        "problem.values[0][0]: expected an integer, got [1]",
        "problem.values[1][4]: expected an integer, got [1]",
        "problem.values[2][8]: expected an integer, got [1]",
    ],
    ("rows of ints", "1.5"): [
        "problem.values[0][0]: expected an integer, got 1.5",
        "problem.values[1][4]: expected an integer, got 1.5",
        "problem.values[2][8]: expected an integer, got 1.5",
    ],
    ("rows of numbers", "true"): [
        "counts.counts[0][0]: expected a number, got True",
        "counts.counts[1][4]: expected a number, got True",
        "counts.counts[2][8]: expected a number, got True",
    ],
    ("rows of numbers", '"3"'): [
        "counts.counts[0][0]: expected a number, got '3'",
        "counts.counts[1][4]: expected a number, got '3'",
        "counts.counts[2][8]: expected a number, got '3'",
    ],
    ("rows of numbers", "null"): [
        "counts.counts[0][0]: expected a number, got None",
        "counts.counts[1][4]: expected a number, got None",
        "counts.counts[2][8]: expected a number, got None",
    ],
    ("rows of numbers", "[1]"): [
        "counts.counts[0][0]: expected a number, got [1]",
        "counts.counts[1][4]: expected a number, got [1]",
        "counts.counts[2][8]: expected a number, got [1]",
    ],
}


@pytest.mark.parametrize("kind, leaf", sorted(REFUSALS))
def test_flat_list_check_refuses_as_the_per_leaf_walk(kind, leaf):
    parse, valid, key = KINDS[kind]
    for position, message in zip(POSITIONS[kind.split()[0]], REFUSALS[kind, leaf]):
        rows = json.loads(json.dumps(valid[key]))  # a fresh copy
        holder = rows[position[0]] if len(position) == 2 else rows
        holder[position[-1]] = json.loads(leaf)
        with pytest.raises(SchemaError) as exc:
            parse({**valid, key: rows})
        assert str(exc.value) == message


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint64])
def test_unsigned_arrays_convert_as_numbers(dtype):
    values = np.array([0, 7, np.iinfo(dtype).max if dtype != np.uint64 else 2**63 - 1], dtype=dtype)
    ints = as_numbers(values, "x", integer=True, shape=(None,))
    floats = as_numbers(values, "x", shape=(None,))
    assert ints.dtype == np.int64 and ints.tolist() == [int(v) for v in values]
    assert floats.dtype == np.float64 and floats.tolist() == [float(v) for v in values]


def test_unsigned_value_past_int64_is_refused():
    value = np.array([1, 2**63], dtype=np.uint64)
    with pytest.raises(ValueError, match=r"^x must be integers within int64 range$"):
        as_numbers(value, "x", integer=True, shape=(None,))
    assert as_numbers(value, "x", shape=(None,)).tolist() == [1.0, 2.0**63]


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
