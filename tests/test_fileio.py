import dataclasses
import json
import math
import os
import re
import stat
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reserveplan import (
    CountsGrid,
    Landscape,
    LVParams,
    ReserveProblem,
    ReserveSolution,
    Scenario,
    SpeciesSpec,
    default_params,
    default_scenarios,
    generate_landscape,
    round_counts,
    simulate,
)
from reserveplan import cli, fileio
from reserveplan.fileio import SchemaError


class TestLandscapeSchema:
    def test_round_trip(self):
        land = generate_landscape(5, 2, 77)
        back = fileio.landscape_from_obj(fileio.landscape_to_obj(land))
        assert back.n == 5
        assert np.array_equal(back.values, land.values)

    def test_missing_field_named(self):
        with pytest.raises(SchemaError, match=r"landscape\.values"):
            fileio.landscape_from_obj({"n": 2})

    def test_wrong_length_named(self):
        with pytest.raises(SchemaError, match=r"landscape\.values"):
            fileio.landscape_from_obj({"n": 2, "values": [0.1, 0.2]})

    def test_out_of_range_values_rejected(self):
        with pytest.raises(SchemaError, match=r"landscape\.values"):
            fileio.landscape_from_obj({"n": 1, "values": [1.5]})

    def test_nan_values_rejected(self):
        with pytest.raises(SchemaError, match=r"landscape\.values: habitat values must lie in \[0, 1\]"):
            fileio.landscape_from_obj({"n": 2, "values": [0.1, float("nan"), 0.3, 0.4]})


class TestCountsSchema:
    def test_round_trip(self):
        grid = CountsGrid(np.arange(18).reshape(2, 3, 3))
        back = fileio.counts_from_obj(fileio.counts_to_obj(grid.counts))
        assert back.species_count == 2
        assert np.array_equal(back.counts, grid.counts)

    def test_species_count_checked(self):
        obj = {"n": 1, "species": 2, "counts": [[1]]}
        with pytest.raises(SchemaError, match=r"counts\.counts"):
            fileio.counts_from_obj(obj)

    def test_projected_counts_keep_fractions(self):
        grid = CountsGrid(np.ones((1, 2, 2), dtype=np.int64))
        projected = simulate(grid, dataclasses.replace(default_params(1), T=3))
        obj = fileio.counts_to_obj(projected)
        assert obj["n"] == 2 and obj["species"] == 1
        assert obj["counts"][0] == pytest.approx(list(projected.ravel()))


class TestParamsSchema:
    def test_round_trip(self):
        params = dataclasses.replace(default_params(3), T=123, dt=0.5)
        back = fileio.params_from_obj(fileio.params_to_obj(params))
        assert np.array_equal(back.r, params.r)
        assert np.array_equal(back.alpha, params.alpha)
        assert np.array_equal(back.beta, params.beta)
        assert back.dt == 0.5 and back.T == 123

    def test_inconsistent_shapes_rejected(self):
        obj = {"r": [0.1, 0.1], "alpha": [[0.0]], "beta": [0.001, 0.001], "dt": 0.01, "T": 5}
        with pytest.raises(SchemaError, match="params"):
            fileio.params_from_obj(obj)

    def test_bad_step_count_named(self):
        obj = {"r": [0.1], "alpha": [[0.0]], "beta": [0.001], "dt": 0.01, "T": 2.5}
        with pytest.raises(SchemaError, match=r"params\.T"):
            fileio.params_from_obj(obj)


class TestProblemSolutionSchema:
    def test_problem_round_trip(self):
        problem = ReserveProblem(
            values=np.array([[3, 0, 5], [1, 1, 1]]),
            weights=(Fraction(9, 10), Fraction(1, 10)),
            costs=[1, 2, 3],
            budget=4,
        )
        back = fileio.problem_from_obj(fileio.problem_to_obj(problem))
        assert np.array_equal(back.values, problem.values)
        assert back.weights == problem.weights
        assert np.array_equal(back.costs, problem.costs)
        assert back.budget == 4

    def test_weights_as_pairs(self):
        obj = fileio.problem_to_obj(
            ReserveProblem(values=np.array([[1]]), weights=(Fraction(9, 10),), costs=[1], budget=1)
        )
        assert obj["weights"] == [[9, 10]]

    def test_zero_denominator_rejected(self):
        obj = {"values": [[1]], "weights": [[1, 0]], "costs": [1], "budget": 1}
        with pytest.raises(SchemaError, match=r"problem\.weights\[0\]"):
            fileio.problem_from_obj(obj)

    def test_solution_round_trip(self):
        sol = ReserveSolution(x=np.array([1, 0, 1]), objective=Fraction(7, 2), spent=2)
        back = fileio.solution_from_obj(fileio.solution_to_obj(sol))
        assert back.x.tolist() == [1, 0, 1]
        assert back.objective == Fraction(7, 2)
        assert back.spent == 2

    @pytest.mark.parametrize(
        "obj, message",
        [
            ({"x": [0, 1], "objective": [-3, 2], "spent": 7}, "solution: objective must be nonnegative"),
            ({"x": [0, 1], "objective": [3, 2], "spent": -7}, "solution: spent must be nonnegative"),
        ],
        ids=["objective", "spent"],
    )
    def test_negative_objective_or_spend_rejected(self, obj, message):
        with pytest.raises(SchemaError, match="^" + re.escape(message)):
            fileio.solution_from_obj(obj)

    def test_non_binary_x_rejected(self):
        obj = {"x": [2, 0], "objective": [1, 1], "spent": 0}
        with pytest.raises(SchemaError, match=r"^solution: x must lie in \[0, 1\]"):
            fileio.solution_from_obj(obj)


class TestScenarioSchema:
    def test_round_trip(self, small_suite):
        scenario = default_scenarios(small_suite, seed=11)[0]
        back = fileio.scenario_from_obj(fileio.scenario_to_obj(scenario))
        assert back.seed == 11
        assert back.weights == scenario.weights
        assert back.budgets == scenario.budgets
        assert np.array_equal(back.costs, scenario.costs)
        assert back.lv_params.T == scenario.lv_params.T
        assert [sp.label for sp in back.species] == [sp.label for sp in scenario.species]
        assert np.array_equal(
            back.observed().counts, scenario.observed().counts
        )

    def test_species_field_errors_carry_paths(self, small_suite):
        scenario = default_scenarios(small_suite, seed=11)[0]
        obj = fileio.scenario_to_obj(scenario)
        del obj["species"][1]["counts"]
        with pytest.raises(SchemaError, match=r"scenario\.species\[1\]\.counts"):
            fileio.scenario_from_obj(obj)

    def test_suite_round_trip(self, small_suite):
        obj = fileio.suite_to_obj(small_suite, seed=11, pool_size=60, grid=10)
        back = fileio.suite_from_obj(obj)
        assert [sp.label for sp in back] == [sp.label for sp in small_suite]
        for a, b in zip(back, small_suite):
            assert a.fragmentation_rank == b.fragmentation_rank
            assert a.total == b.total
            assert np.array_equal(a.counts.counts, b.counts.counts)


class TestCsv:
    def test_sweep_round_trip(self, small_suite):
        from reserveplan import budget_sweep

        scenario = default_scenarios(small_suite, seed=11)[0]
        rows = budget_sweep(scenario)
        text = fileio.sweep_rows_to_csv(rows)
        lines = text.splitlines()
        assert lines[0] == "budget,similarity,objective1,objective2"
        assert len(lines) == 1 + len(rows)
        parsed = fileio.sweep_csv_to_rows(text)
        assert [r["budget"] for r in parsed] == [r.budget for r in rows]
        assert [r["similarity"] for r in parsed] == [r.similarity for r in rows]
        assert [r["objective1"] for r in parsed] == [r.objective_1 for r in rows]

    def test_header_mismatch_rejected(self):
        with pytest.raises(SchemaError, match="header"):
            fileio.sweep_csv_to_rows("a,b\n1,2\n")

    def test_bad_cell_names_line(self):
        text = "budget,similarity,objective1,objective2\n5,x,1,1\n"
        with pytest.raises(SchemaError, match="line2"):
            fileio.sweep_csv_to_rows(text)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("-5,90,1,1", "budget must be a nonnegative integer, got '-5'"),
            ("+4,90,1,1", "budget must be a nonnegative integer, got '+4'"),
            ("1_0,90,1,1", "budget must be a nonnegative integer, got '1_0'"),
            ("\u0663,90,1,1", "budget must be a nonnegative integer, got '\u0663'"),
            ("5,-1,1,1", "similarity must be a nonnegative integer, got '-1'"),
            ("5,+90,1,1", "similarity must be a nonnegative integer, got '+90'"),
            ("5,90,-1/2,1", "objective1 must be nonnegative, got -1/2"),
            ("5,90,1,-3", "objective2 must be nonnegative, got -3"),
            ("9" * 5000 + ",90,1,1", f"budget must have at most {sys.get_int_max_str_digits()} digits, got 5000"),
            ("5,90,1/0,1", "objective1 must be a rational number, got '1/0'"),
        ],
        ids=["budget-negative", "budget-plus", "budget-underscore", "budget-arabic-indic",
             "similarity-negative", "similarity-plus", "objective1-negative", "objective2-negative",
             "budget-too-many-digits", "objective1-zero-denominator"],
    )
    def test_inconsistent_row_names_its_line(self, row, message):
        text = f"budget,similarity,objective1,objective2\n0,100,0,0\n{row}\n10,100,1,1\n"
        with pytest.raises(SchemaError, match="^" + re.escape(f"sweep.line3: {message}") + "$"):
            fileio.sweep_csv_to_rows(text)

    @pytest.mark.parametrize(
        "body, line",
        [("0,100,0,0\n5,90,1,1\nx,80,2,2\n", 4), ('0,100,"1\n",0\nx,80,2,2\n', 4)],
        ids=["plain", "after-a-quoted-newline"],
    )
    def test_bad_row_is_named_by_the_line_it_starts_on(self, body, line):
        # a quoted objective may span two lines; the records after it start one line later
        text = "budget,similarity,objective1,objective2\n" + body
        with pytest.raises(SchemaError, match="^" + re.escape(f"sweep.line{line}: budget must be a nonnegative")):
            fileio.sweep_csv_to_rows(text)

    # ASCII digit objectives are read as ints; everything else must fall through to Fraction
    OBJECTIVES = [
        "0", "7", "007", "0/5", "00/0007", "12/18", "2381/10", "9" * 4300, "9" * 4301, "1/" + "9" * 4300,
        "3/0", "5/", "/5", "1/2/3", "", " 3", "3 ", "+3", "-1", "1_0", "3.5", "1e3", "1/2.5",
        "\u0663", "\u0663/\u0664", "1/\u0664", "\uff13", "\u00b2", "nan", "inf",
    ]

    @pytest.mark.parametrize("objective", OBJECTIVES, ids=range(len(OBJECTIVES)))
    def test_objectives_read_as_fraction_reads_them(self, objective):
        try:
            want = Fraction(objective)
        except (ValueError, ZeroDivisionError):
            want = None
        text = f"budget,similarity,objective1,objective2\n0,100,{objective},1\n"
        if want is None:
            with pytest.raises(SchemaError, match=r"^sweep\.line2: objective1 must be a rational number, got "):
                fileio.sweep_csv_to_rows(text)
        elif want < 0:
            with pytest.raises(SchemaError, match=r"^sweep\.line2: objective1 must be nonnegative"):
                fileio.sweep_csv_to_rows(text)
        else:
            got = fileio.sweep_csv_to_rows(text)[0]["objective1"]
            assert type(got) is Fraction and got == want

    def test_stats_row_formatting(self):
        from reserveplan import SimilarityStats

        row = fileio.stats_to_csv_row("case1", SimilarityStats(min=92, mean=97.2571, median=98.0))
        assert row == ["case1", "92", "97.26", "98"]
        row = fileio.stats_to_csv_row("c", SimilarityStats(min=90, mean=95.0, median=95.5))
        assert row == ["c", "90", "95.00", "95.5"]


class TestAtomicWrite:
    def test_writes_content_and_leaves_no_temp(self, tmp_path):
        target = tmp_path / "out.json"
        fileio.write_text_atomic(target, "hello\n")
        assert target.read_text() == "hello\n"
        fileio.write_text_atomic(target, "replaced\n")
        assert target.read_text() == "replaced\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
    def test_new_file_mode_follows_the_umask(self, tmp_path, umask):
        target = tmp_path / "out.json"
        old = os.umask(umask)
        try:
            fileio.write_text_atomic(target, "hello\n")
        finally:
            os.umask(old)
        assert stat.S_IMODE(target.stat().st_mode) == 0o666 & ~umask

    @pytest.mark.parametrize("alias", ["./out.json", "sub/../out.json", "link.json"])
    def test_one_file_under_two_names_is_refused_before_any_write(self, tmp_path, monkeypatch, alias):
        # the second text would silently replace the first
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        (tmp_path / "out.json").write_text("old\n")
        (tmp_path / "link.json").symlink_to("out.json")
        message = f"^cannot write out.json and {re.escape(str(Path(alias)))}: they name one file$"
        with pytest.raises(ValueError, match=message):
            fileio.write_jsons({"out.json": {"a": 1}, "other.json": {"b": 2}, alias: {"c": 3}})
        assert (tmp_path / "out.json").read_text() == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "out.json", "sub"]

    def test_json_files_end_with_newline(self, tmp_path):
        target = tmp_path / "x.json"
        fileio.write_json(target, {"a": 1})
        text = target.read_text()
        assert text.endswith("\n")
        assert fileio.read_json(target) == {"a": 1}

    def test_invalid_json_reported(self, tmp_path):
        target = tmp_path / "bad.json"
        target.write_text("{nope")
        with pytest.raises(SchemaError, match="invalid JSON"):
            fileio.read_json(target)

    @pytest.mark.parametrize(
        "text", ['{"a": 1, "b": 2, "a": 3}', '{"x": [{"b": 1}, {"a": 1, "a": 1}]}'], ids=["top", "nested"]
    )
    def test_repeated_key_refused_naming_it(self, tmp_path, text):
        target = tmp_path / "twice.json"
        target.write_text(text)
        with pytest.raises(SchemaError, match=r"^invalid JSON: repeated key 'a'$"):
            fileio.read_json(target)


FLOATS = st.sampled_from([-0.0, 5e-324, 1e300, math.nan, math.inf, -math.inf]) | st.floats()
SCALARS = st.integers(-(2**80), 2**80) | FLOATS | st.booleans() | st.none() | st.text()
KEYS = st.text() | st.integers(-(2**70), 2**70) | FLOATS | st.booleans() | st.none()
DOCUMENTS = st.recursive(
    SCALARS | st.lists(st.integers(-(2**70), 2**70) | FLOATS),  # flat numeric lists, as artifacts hold
    lambda kids: st.lists(kids, max_size=5)
    | st.lists(kids, max_size=5).map(tuple)
    | st.dictionaries(KEYS, kids, max_size=5),
    max_leaves=30,
)


class TestJsonText:
    """Artifact text is ``json.dumps(obj, indent=2)`` plus a newline, byte for byte."""

    @given(DOCUMENTS)
    @settings(max_examples=300, deadline=None)
    def test_equals_json_dumps_indent_2(self, doc):
        assert fileio._json_text(doc) == json.dumps(doc, indent=2) + "\n"

    def test_refuses_what_json_refuses(self):
        for doc in ({(1, 2): 0}, [object()], {"a": {1, 2}}):
            with pytest.raises(TypeError):
                json.dumps(doc, indent=2)
            with pytest.raises(TypeError):
                fileio._json_text(doc)

    def test_every_artifact_kind_is_json_dumps_indent_2(self, tmp_path):
        argv = ["generate", "--seed", "3", "--pool-size", "12", "--grid", "4", "--out", str(tmp_path / "suite.json")]
        assert cli.main([*argv, "--scenario-dir", str(tmp_path / "sc")]) == 0
        projected = ["simulate", "--scenario", str(tmp_path / "sc/case2.json"), "--out", str(tmp_path / "proj.json")]
        assert cli.main(projected) == 0
        problem = ReserveProblem(
            values=[[6, 5, 5], [1, 2, 3]], weights=(Fraction(9, 10), Fraction(1, 10)), costs=[3, 2, 2], budget=4
        )
        fileio.write_json(tmp_path / "problem.json", fileio.problem_to_obj(problem))
        solve = ["solve", "--problem", str(tmp_path / "problem.json"), "--out", str(tmp_path / "solution.json")]
        assert cli.main(solve) == 0
        names = ["suite.json", *(f"sc/case{i}.json" for i in range(1, 7)), "proj.json", "problem.json", "solution.json"]
        for name in names:
            text = (tmp_path / name).read_text()
            assert text == json.dumps(json.loads(text), indent=2) + "\n", name
        assert any(isinstance(v, float) for v in json.loads((tmp_path / "proj.json").read_text())["counts"][0])


def _species(total) -> SpeciesSpec:
    # a 2x2 species of 6 individuals, its total given as a numpy integer or a whole float
    landscape = Landscape(((0.0, np.float32(0.25)), (0.5, 1)))
    return SpeciesSpec("S0", "highest", total, landscape, CountsGrid((((1, 2), (3, np.int64(0))),)))


def _scenario(total=6) -> Scenario:
    params = LVParams(r=(1, 2.0), alpha=((0, 0.5), (np.float32(0.25), 0)), beta=(0.1, 0.2),
                      dt=np.float32(0.1), T=np.int64(3))
    return Scenario((_species(total), _species(6)), (1, Fraction(1, 3)), tuple(np.arange(0, 6, 2)),
                    (1.0, 2, np.int64(1), 3), params, seed=np.int64(7))


def _fields(value):
    """A value's fields, recursively, as plain comparable data."""
    if dataclasses.is_dataclass(value):
        return {f.name: _fields(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, np.ndarray):
        return value.dtype.kind, value.tolist()
    if isinstance(value, (list, tuple)):
        return [_fields(item) for item in value]
    return value


# value built through the public constructors: (value, writer, reader)
ROUND_TRIPS = {
    "suite": (
        ([_species(np.int64(6)), _species(6.0)], {"seed": np.int64(7), "pool_size": np.int64(4), "grid": np.int64(2)}),
        lambda v: fileio.suite_to_obj(v[0], **v[1]),
        lambda obj: (fileio.suite_from_obj(obj), {key: obj[key] for key in ("seed", "pool_size", "grid")}),
    ),
    "species-numpy-total": (_scenario(np.int64(6)), fileio.scenario_to_obj, fileio.scenario_from_obj),
    "species-whole-float-total": (_scenario(6.0), fileio.scenario_to_obj, fileio.scenario_from_obj),
    "scenario": (_scenario(), fileio.scenario_to_obj, fileio.scenario_from_obj),
    "rounded-counts": (
        round_counts(simulate(_scenario().observed(), _scenario().lv_params)),
        lambda grid: fileio.counts_to_obj(grid.counts),
        fileio.counts_from_obj,
    ),
    "params": (_scenario().lv_params, fileio.params_to_obj, fileio.params_from_obj),
    "problem": (
        ReserveProblem(((1, 2), (np.int64(3), 4.0)), (np.int64(1), 0.5), (2.0, np.int64(1)), np.int64(2)),
        fileio.problem_to_obj,
        fileio.problem_from_obj,
    ),
    "solution": (
        ReserveSolution((1.0, np.int8(0)), Fraction(3, 2), np.int64(1)), fileio.solution_to_obj, fileio.solution_from_obj),
}


@pytest.mark.parametrize("case", ROUND_TRIPS.values(), ids=ROUND_TRIPS.keys())
def test_every_writer_output_reads_back(case, tmp_path):
    value, write, read = case
    fileio.write_json(tmp_path / "doc.json", write(value))
    assert _fields(read(fileio.read_json(tmp_path / "doc.json"))) == _fields(value)
