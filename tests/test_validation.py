"""Every constructor refuses bad numbers and shapes through one check, and fileio names bad JSON leaves."""

import dataclasses
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
    default_scenarios,
    distribute_population,
    generate_landscape,
    select_extremes,
    summarize_similarities,
)
from reserveplan import fileio
from reserveplan._checks import as_numbers, decimal_integer
from reserveplan.cli import main
from reserveplan.fileio import SchemaError
from reserveplan.render import Panel
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


# a seed that is not a nonnegative integer, as JSON writes it and as the library is given it
BAD_SEEDS = ["x", -5, 2.5, True]


def _sweep_file(tmp_path, capsys, **fields):
    """Exit code, stderr and the file's path of ``sweep`` on ``_scenario()``'s file with ``fields`` set."""
    path, out = tmp_path / "case.json", tmp_path / "case.csv"
    path.write_text(json.dumps({**fileio.scenario_to_obj(_scenario()), **fields}))
    out.unlink(missing_ok=True)
    code = main(["sweep", "--scenario", str(path), "--out", str(out)])
    stderr = capsys.readouterr().err
    assert out.exists() == (code == 0), "a refused sweep writes no CSV"
    return code, stderr, path


@pytest.mark.parametrize("seed", BAD_SEEDS, ids=repr)
def test_bad_scenario_seed_is_refused_in_the_library_and_as_a_file(seed, tmp_path, capsys):
    message = f"seed must be a nonnegative integer, got {seed!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        dataclasses.replace(_scenario(), seed=seed)
    assert _sweep_file(tmp_path, capsys, seed=7)[0] == 0  # the file is otherwise sound
    code, stderr, path = _sweep_file(tmp_path, capsys, seed=seed)
    assert (code, stderr) == (1, f"error: {path}: scenario: {message}\n")


def test_empty_budgets_are_refused_in_the_library_and_by_sweep(tmp_path, capsys):
    message = "budgets must be nonempty, strictly ascending and unique"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _scenario(budgets=())
    code, stderr, path = _sweep_file(tmp_path, capsys, budgets=[])
    assert (code, stderr) == (1, f"error: {path}: scenario: {message}\n")


# refusal: (a library call that makes it, its whole message)
LIBRARY_REFUSALS = {
    "params-ragged-r": (
        lambda: LVParams(r=[[1], [1, 2]], alpha=[[0.0]], beta=[0.1]), "r must be a rectangular array of numbers"),
    "params-no-species": (lambda: default_params(0), "species_count must be >= 1, got 0"),
    "species-of-two-species": (
        lambda: dataclasses.replace(SPECIES, counts=CountsGrid(np.ones((2, N, N))), total=2 * N * N),
        "a species spec holds a single-species counts grid",
    ),
    "species-label-not-text": (lambda: dataclasses.replace(SPECIES, label=5), "label must be a string, got int"),
    "species-rank-not-text": (
        lambda: dataclasses.replace(SPECIES, fragmentation_rank=None), "fragmentation_rank must be a string, got NoneType"),
    "species-total-fraction": (lambda: dataclasses.replace(SPECIES, total=6.5), "total must be whole numbers"),
    "panel-label-not-text": (
        lambda: Panel(5, GRID, ReserveSolution([0] * N * N, 0, 0)), "panel label must be a string, got int"),
    "species-total-too-high": (
        lambda: dataclasses.replace(SPECIES, total=SPECIES.total + 1),
        f"counts sum to {SPECIES.total}, expected total {SPECIES.total + 1}",
    ),
    "scenario-no-species": (
        lambda: dataclasses.replace(_scenario(), species=()), "scenario needs at least one species"),
    "scenario-params-of-3-species": (
        lambda: Scenario((SPECIES, SPECIES), (1, 1), (0, 2), (1, 1, 1, 1), default_params(3)),
        "dynamics parameters cover 3 species, scenario has 2",
    ),
    "suite-of-7": (lambda: default_scenarios([SPECIES] * 7), "expected a suite of 8 species, got 7"),
    "stats-unaligned": (lambda: summarize_similarities([0, 1, 2], [1, 2]), "3 budgets for 2 similarities"),
}


@pytest.mark.parametrize("case", sorted(LIBRARY_REFUSALS))
def test_library_refusal_is_worded_as_shown(case):
    build, message = LIBRARY_REFUSALS[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def _two_species_obj() -> dict:
    """A sound two-species scenario document."""
    return fileio.scenario_to_obj(
        dataclasses.replace(_scenario(), species=(SPECIES, SPECIES), weights=(1, 1), lv_params=PARAMS)
    )


# scenario file: (an edit of ``_two_species_obj()``, the refusal naming the field)
SCENARIO_FILES = {
    "params-not-an-object": (lambda obj: obj.update(lv_params=5), "scenario.lv_params: expected a JSON object"),
    "species-id-not-a-string": (
        lambda obj: obj["species"][1].update(id=7), "scenario.species[1].id: expected a string"),
    "no-species": (lambda obj: obj.update(species=[]), "scenario.species: expected a nonempty list"),
    "species-total-too-high": (
        lambda obj: obj["species"][0].update(total=SPECIES.total + 1),
        f"scenario.species[0]: counts sum to {SPECIES.total}, expected total {SPECIES.total + 1}",
    ),
    "params-of-3-species": (
        lambda obj: obj.update(lv_params=fileio.params_to_obj(default_params(3))),
        "scenario: dynamics parameters cover 3 species, scenario has 2",
    ),
}


@pytest.mark.parametrize("case", sorted(SCENARIO_FILES))
def test_bad_scenario_file_is_refused_by_sweep_naming_the_field(case, tmp_path, capsys):
    edit, message = SCENARIO_FILES[case]
    path, out = tmp_path / "case.json", tmp_path / "case.csv"
    obj = _two_species_obj()
    edit(obj)
    path.write_text(json.dumps(obj))
    assert main(["sweep", "--scenario", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: {path}: {message}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["case.json"]


def test_the_sound_two_species_scenario_file_sweeps(tmp_path):
    path, out = tmp_path / "case.json", tmp_path / "case.csv"
    path.write_text(json.dumps(_two_species_obj()))
    assert main(["sweep", "--scenario", str(path), "--out", str(out)]) == 0
    assert len(fileio.sweep_csv_to_rows(out.read_text())) == 3


HEADER_LINE = "budget,similarity,objective1,objective2\n"
# sweep CSV: (its text, the refusal naming the field)
SWEEP_FILES = {
    "empty": ("", "sweep: empty CSV"),
    "header-only": (HEADER_LINE, "sweep: no data rows"),
    "three-fields": (HEADER_LINE + "0,100,0\n", "sweep.line2: expected 4 columns"),
    "three-fields-after-blank-lines": (HEADER_LINE + "\n0,100,0,0\n\n5,90\n", "sweep.line5: expected 4 columns"),
}


@pytest.mark.parametrize("case", sorted(SWEEP_FILES))
def test_bad_sweep_file_is_refused_by_report_naming_the_field(case, tmp_path, capsys):
    text, message = SWEEP_FILES[case]
    path, out = tmp_path / "a.csv", tmp_path / "stats.csv"
    path.write_text(text)
    assert main(["report", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: {path}: {message}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv"]


def test_blank_lines_between_sweep_rows_are_skipped(tmp_path):
    rows = ["0,100,0,0", "5,90,1/2,1", "10,100,2,2"]
    dense = HEADER_LINE + "".join(f"{row}\n" for row in rows)
    sparse = HEADER_LINE + "\n" + "\n\n".join(rows) + "\n\n"
    assert fileio.sweep_csv_to_rows(sparse) == fileio.sweep_csv_to_rows(dense)
    outs = []
    for name, text in (("dense", dense), ("blank", dense.replace("\n", "\n\n"))):
        (tmp_path / name).mkdir()
        (tmp_path / name / "a.csv").write_text(text)
        outs.append(tmp_path / name / "stats.csv")
        assert main(["report", str(tmp_path / name / "a.csv"), "--out", str(outs[-1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


# suite field: (a bad value, the refusal naming it)
SUITE_FIELDS = {
    "seed-text": ("seed", "x", "suite: seed must be a nonnegative integer, got 'x'"),
    "seed-negative": ("seed", -5, "suite: seed must be a nonnegative integer, got -5"),
    "seed-bool": ("seed", True, "suite: seed must be a nonnegative integer, got True"),
    "pool-size-null": ("pool_size", None, "suite.pool_size: expected an integer, got None"),
    "pool-size-small": ("pool_size", 3, "suite.pool_size: must be at least 4 to pick two extremes each way"),
    "grid-negative": ("grid", -3, "suite.grid: must be a positive integer equal to every species' side, got -3"),
    "grid-other-side": ("grid", 3, "suite.grid: must be a positive integer equal to every species' side, got 3"),
    "grid-float": ("grid", 2.0, "suite.grid: expected an integer, got 2.0"),
}


@pytest.mark.parametrize("case", sorted(SUITE_FIELDS))
def test_bad_suite_field_is_refused_naming_it(case):
    key, value, message = SUITE_FIELDS[case]
    obj = fileio.suite_to_obj([SPECIES], seed=0, pool_size=4, grid=N)
    assert len(fileio.suite_from_obj(obj)) == 1
    with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
        fileio.suite_from_obj({**obj, key: value})
    del obj[key]
    with pytest.raises(SchemaError, match=f"^{re.escape(f'suite.{key}: missing field')}$"):
        fileio.suite_from_obj(obj)


@pytest.mark.parametrize("case", sorted(SUITE_FIELDS))
def test_bad_suite_field_is_refused_when_written_as_when_read(case):
    # a suite the writer takes is one the reader takes back
    key, value, message = SUITE_FIELDS[case]
    with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
        fileio.suite_to_obj([SPECIES], **{"seed": 0, "pool_size": 4, "grid": N, key: value})


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
