import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from reserveplan import similarity
from reserveplan import cli, default_params, fileio
from reserveplan.cli import main


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Small generated workspace shared across CLI tests (read-only)."""
    root = tmp_path_factory.mktemp("cliwork")
    code = main(
        [
            "generate",
            "--seed", "5",
            "--pool-size", "40",
            "--grid", "10",
            "--out", str(root / "suite.json"),
            "--scenario-dir", str(root / "scenarios"),
        ]
    )
    assert code == 0
    return root


class TestGenerate:
    def test_writes_suite_and_scenarios(self, workspace):
        suite = fileio.read_json(workspace / "suite.json")
        assert len(suite["species"]) == 8
        names = sorted(p.name for p in (workspace / "scenarios").iterdir())
        assert names == [f"case{i}.json" for i in range(1, 7)]

    def test_seed_past_64_bits_generates(self, tmp_path):
        argv = ["generate", "--seed", "18446744073709551621", "--pool-size", "6", "--grid", "3"]
        assert main([*argv, "--out", str(tmp_path / "suite.json")]) == 0

    def test_seed_is_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--out", "x.json"])
        assert exc.value.code == 2

    def test_deterministic_outputs(self, tmp_path):
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            code = main(
                [
                    "generate",
                    "--seed", "9",
                    "--pool-size", "12",
                    "--grid", "5",
                    "--out", str(tmp_path / sub / "suite.json"),
                    "--scenario-dir", str(tmp_path / sub / "sc"),
                ]
            )
            assert code == 0
        assert (tmp_path / "a/suite.json").read_bytes() == (tmp_path / "b/suite.json").read_bytes()
        assert (tmp_path / "a/sc/case3.json").read_bytes() == (tmp_path / "b/sc/case3.json").read_bytes()

    def test_scenario_dir_refused_before_any_output(self, tmp_path, capsys):
        taken = tmp_path / "stats.csv"
        taken.write_text("not a directory\n")
        out = tmp_path / "suite.json"
        argv = ["generate", "--seed", "0", "--pool-size", "8", "--grid", "4"]
        code = main(argv + ["--out", str(out), "--scenario-dir", str(taken)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()
        assert taken.read_text() == "not a directory\n"

    def test_unwritable_scenario_file_leaves_no_output(self, tmp_path, capsys):
        (tmp_path / "sc/case3.json").mkdir(parents=True)
        out = tmp_path / "suite.json"
        argv = ["generate", "--seed", "0", "--pool-size", "8", "--grid", "4", "--out", str(out)]
        assert main(argv + ["--scenario-dir", str(tmp_path / "sc")]) == 1
        assert "case3.json: it is a directory" in capsys.readouterr().err
        assert not out.exists()
        assert sorted(p.name for p in (tmp_path / "sc").iterdir()) == ["case3.json"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sc"]


    @pytest.mark.parametrize("out", ["gen/case1.json", "./gen/../gen/case2.json"])
    def test_out_naming_a_scenario_file_is_refused_before_any_write(self, tmp_path, monkeypatch, capsys, out):
        # the scenario would silently replace the suite, and no suite would be written
        monkeypatch.chdir(tmp_path)
        (tmp_path / "gen").mkdir()
        for i in range(1, 7):
            (tmp_path / f"gen/case{i}.json").write_text("old\n")
        argv = ["generate", "--seed", "0", "--pool-size", "20", "--grid", "4"]
        assert main(argv + ["--out", out, "--scenario-dir", "gen"]) == 1
        case = Path(out).name
        error = f"error: cannot write {Path(out)} and gen/{case}: they name one file\n"
        assert capsys.readouterr() == ("", error)
        left = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*"))
        assert left == ["gen"] + [f"gen/case{i}.json" for i in range(1, 7)]  # no suite, no temp file
        assert all((tmp_path / f"gen/case{i}.json").read_text() == "old\n" for i in range(1, 7))

    def test_refused_write_leaves_no_scenario_directory(self, tmp_path, monkeypatch, capsys):
        # the directories made for --scenario-dir are removed again when the write is refused
        monkeypatch.chdir(tmp_path)
        argv = "generate --seed 0 --pool-size 20 --grid 4 --out a/b/case1.json --scenario-dir a/b".split()
        assert main(argv) == 1
        error = "error: cannot write a/b/case1.json and a/b/case1.json: they name one file\n"
        assert capsys.readouterr() == ("", error)
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_keeps_directories_that_were_there(self, tmp_path, monkeypatch, capsys):
        # only what this call made is removed: an existing parent stays, with its files
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a").mkdir()
        (tmp_path / "a/keep.txt").write_text("kept\n")
        (tmp_path / "a/b/c").mkdir(parents=True)

        def refuse(docs):
            raise OSError("disk full")

        monkeypatch.setattr(fileio, "write_jsons", refuse)
        argv = "generate --seed 0 --pool-size 20 --grid 4 --out suite.json --scenario-dir a/b/c/d".split()
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: disk full\n"
        left = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*"))
        assert left == ["a", "a/b", "a/b/c", "a/keep.txt"]

    @pytest.mark.parametrize("scenario_dir, reason", [("afile", "File exists"), ("afile/sub", "Not a directory")])
    def test_scenario_dir_that_cannot_be_a_directory_is_refused_before_the_pool(
        self, tmp_path, monkeypatch, capsys, scenario_dir, reason
    ):
        monkeypatch.chdir(tmp_path)
        Path("afile").write_text("kept\n")
        monkeypatch.setattr(cli, "build_species_suite", lambda *a, **k: pytest.fail("the pool was built"))
        argv = ["generate", "--seed", "1", "--out", "s.json", "--scenario-dir", scenario_dir]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {scenario_dir}: {reason}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile"]
        assert Path("afile").read_text() == "kept\n"

    def test_failed_pool_removes_the_scenario_directories_it_made(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        def refuse(*args, **kwargs):
            assert Path("a/b").is_dir()  # made before the pool is built
            raise ValueError("no pool")
        monkeypatch.setattr(cli, "build_species_suite", refuse)
        assert main("generate --seed 0 --pool-size 20 --grid 4 --out suite.json --scenario-dir a/b".split()) == 1
        assert capsys.readouterr().err == "error: no pool\n"
        assert list(tmp_path.iterdir()) == []


class TestSweepAndReport:
    def test_sweep_emits_21_budget_rows(self, workspace, tmp_path):
        out = tmp_path / "case1.csv"
        code = main(["sweep", "--scenario", str(workspace / "scenarios/case1.json"), "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "budget,similarity,objective1,objective2"
        assert len(lines) == 22
        budgets = [int(l.split(",")[0]) for l in lines[1:]]
        assert budgets == list(range(0, 101, 5))

    def test_sweep_is_deterministic(self, workspace, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        scenario = str(workspace / "scenarios/case2.json")
        assert main(["sweep", "--scenario", scenario, "--out", str(a)]) == 0
        assert main(["sweep", "--scenario", scenario, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_report_builds_stats_and_plot(self, workspace, tmp_path):
        csvs = []
        for i in (1, 2):
            out = tmp_path / f"case{i}.csv"
            main(["sweep", "--scenario", str(workspace / f"scenarios/case{i}.json"), "--out", str(out)])
            csvs.append(str(out))
        stats = tmp_path / "stats.csv"
        plot = tmp_path / "plot.csv"
        code = main(["report", *csvs, "--out", str(stats), "--plot-out", str(plot)])
        assert code == 0
        stat_lines = stats.read_text().splitlines()
        assert stat_lines[0] == "case,min,average,median"
        assert len(stat_lines) == 3
        for line in stat_lines[1:]:
            case, mn, avg, med = line.split(",")
            assert case.startswith("case")
            assert re.fullmatch(r"\d+", mn)
            assert re.fullmatch(r"\d+\.\d\d", avg)
        plot_lines = plot.read_text().splitlines()
        assert plot_lines[0] == "budget,case1,case2"
        assert len(plot_lines) == 22

    def test_report_rejects_misaligned_budgets(self, workspace, tmp_path, capsys):
        full = tmp_path / "full.csv"
        main(["sweep", "--scenario", str(workspace / "scenarios/case1.json"), "--out", str(full)])
        trimmed = tmp_path / "trimmed.csv"
        lines = full.read_text().splitlines()
        trimmed.write_text("\n".join(lines[:-1]) + "\n")
        code = main(
            ["report", str(full), str(trimmed), "--out", str(tmp_path / "s.csv"),
             "--plot-out", str(tmp_path / "p.csv")]
        )
        assert code == 1
        assert "budget grid differs" in capsys.readouterr().err

    @pytest.mark.parametrize("second", ["b/c1.csv", "a/c1.csv", "b/c1.txt"])
    def test_report_refuses_two_sweeps_of_one_case_name(self, tmp_path, monkeypatch, capsys, second):
        # the stats table and the plot would carry two columns, or rows, labelled c1
        monkeypatch.chdir(tmp_path)
        for path in {"a/c1.csv", "other.csv", second}:
            Path(path).parent.mkdir(exist_ok=True)
            Path(path).write_text("budget,similarity,objective1,objective2\n0,100,0,0\n5,90,1,1\n10,100,2,2\n")
        before = sorted(str(p) for p in tmp_path.rglob("*"))
        assert main(["report", "a/c1.csv", "other.csv", second, "--out", "s.csv", "--plot-out", "p.csv"]) == 1
        assert capsys.readouterr() == ("", f"error: a/c1.csv and {second} both name case 'c1'\n")
        assert sorted(str(p) for p in tmp_path.rglob("*")) == before


class TestSimulateSolveRenderChain:
    def test_full_chain(self, workspace, tmp_path, capsys):
        scenario = str(workspace / "scenarios/case1.json")
        projected = tmp_path / "projected.json"
        assert main(["simulate", "--scenario", scenario, "--round", "--out", str(projected)]) == 0
        doc = fileio.read_json(projected)
        assert doc["species"] == 2
        assert all(isinstance(v, int) for row in doc["counts"] for v in row)

        observed = tmp_path / "observed.json"
        obs_grid = fileio.scenario_from_obj(fileio.read_json(scenario)).observed()
        fileio.write_json(observed, fileio.counts_to_obj(obs_grid.counts))

        sol1, sol2 = tmp_path / "sol1.json", tmp_path / "sol2.json"
        assert main(["solve", "--counts", str(observed), "--budget", "55", "--out", str(sol1)]) == 0
        assert main(["solve", "--counts", str(projected), "--budget", "55", "--out", str(sol2)]) == 0

        svg_path = tmp_path / "pair.svg"
        capsys.readouterr()
        code = main(
            ["render", "--counts", str(observed), "--solution", str(sol1),
             "--counts2", str(projected), "--solution2", str(sol2), "--out", str(svg_path)]
        )
        assert code == 0
        printed = capsys.readouterr().out
        svg = svg_path.read_text()

        a = fileio.solution_from_obj(fileio.read_json(sol1))
        b = fileio.solution_from_obj(fileio.read_json(sol2))
        expected = similarity(a, b)
        caption = f"{expected}/100 parcels share the same protection status"
        assert caption in svg
        assert caption in printed

    def test_render_from_scenario_matches_direct_solutions(self, workspace, tmp_path, capsys):
        scenario = str(workspace / "scenarios/case2.json")
        out = tmp_path / "case2.svg"
        assert main(["render", "--scenario", scenario, "--budget", "55", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        match = re.search(r"(\d+)/100 parcels share the same protection status", printed)
        assert match
        svg = out.read_text()
        assert f"{match.group(1)}/100 parcels share the same protection status" in svg
        assert svg.count("<rect") == 201  # background + two 100-cell panels

    def test_simulate_unrounded_values_are_floats(self, workspace, tmp_path):
        scenario = str(workspace / "scenarios/case1.json")
        out = tmp_path / "proj_real.json"
        assert main(["simulate", "--scenario", scenario, "--out", str(out)]) == 0
        doc = fileio.read_json(out)
        values = [v for row in doc["counts"] for v in row]
        assert any(isinstance(v, float) and v != int(v) for v in values)

    @pytest.mark.parametrize("command", ["simulate", "solve", "render"])
    def test_unrounded_projection_does_not_read_back_as_counts(self, tmp_path, capsys, command):
        grid, projected, out = tmp_path / "counts.json", tmp_path / "projected.json", tmp_path / "out"
        fileio.write_json(grid, {"n": 2, "species": 1, "counts": [[10, 0, 3, 1]]})
        assert main(["simulate", "--counts", str(grid), "--out", str(projected)]) == 0
        capsys.readouterr()
        extra = {"simulate": [], "solve": ["--budget", "2"], "render": ["--solution", str(tmp_path / "sol.json")]}
        assert main([command, "--counts", str(projected), *extra[command], "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", f"error: {projected}: counts.counts: counts must be whole numbers\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["counts.json", "projected.json"]

    def test_simulate_counts_mode_with_default_params(self, workspace, tmp_path):
        grid = tmp_path / "counts.json"
        fileio.write_json(
            grid, {"n": 2, "species": 1, "counts": [[10, 0, 3, 1]]}
        )
        out = tmp_path / "projected.json"
        assert main(["simulate", "--counts", str(grid), "--round", "--out", str(out)]) == 0
        doc = fileio.read_json(out)
        assert doc["counts"][0][1] == 0  # empty parcels stay empty

    def test_solve_zero_budget_writes_empty_selection(self, workspace, tmp_path):
        grid = tmp_path / "counts.json"
        fileio.write_json(grid, {"n": 2, "species": 1, "counts": [[4, 5, 6, 7]]})
        out = tmp_path / "sol.json"
        assert main(["solve", "--counts", str(grid), "--budget", "0", "--out", str(out)]) == 0
        doc = fileio.read_json(out)
        assert doc["x"] == [0, 0, 0, 0]
        assert doc["objective"] == [0, 1]
        assert doc["spent"] == 0

    def test_solve_problem_file_mode(self, tmp_path):
        problem = tmp_path / "problem.json"
        fileio.write_json(
            problem,
            {"values": [[6, 5, 5]], "weights": [[1, 1]], "costs": [3, 2, 2], "budget": 4},
        )
        out = tmp_path / "sol.json"
        assert main(["solve", "--problem", str(problem), "--out", str(out)]) == 0
        doc = fileio.read_json(out)
        assert doc["x"] == [0, 1, 1]
        assert doc["objective"] == [10, 1]
        assert doc["spent"] == 4

    def test_solve_weights_flag(self, tmp_path):
        grid = tmp_path / "counts.json"
        fileio.write_json(grid, {"n": 1, "species": 2, "counts": [[10], [10]]})
        out = tmp_path / "sol.json"
        code = main(
            ["solve", "--counts", str(grid), "--budget", "1", "--weights", "9/10,1/10",
             "--out", str(out)]
        )
        assert code == 0
        assert fileio.read_json(out)["objective"] == [10, 1]


class TestErrorHandling:
    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--scenario", "x.json", "--out", "y.csv", "--bogus"])
        assert exc.value.code == 2

    # (subcommand and flags, a piece of the usage message); none of the named files exist,
    # since each misuse is refused before any file is read
    MISUSE = {
        "simulate-no-mode": (["simulate"], "one of the arguments --scenario --counts is required"),
        "simulate-two-modes": (["simulate", "--scenario", "a.json", "--counts", "b.json"], "not allowed with"),
        "simulate-scenario-params": (
            ["simulate", "--scenario", "a.json", "--params", "p.json"],
            "--params does not apply to --scenario input",
        ),
        "solve-no-mode": (["solve", "--budget", "3"], "one of the arguments --problem --counts is required"),
        "solve-two-modes": (["solve", "--problem", "a.json", "--counts", "b.json"], "not allowed with"),
        "solve-problem-budget": (
            ["solve", "--problem", "a.json", "--budget", "3"], "--budget does not apply to --problem input"
        ),
        "solve-problem-weights": (
            ["solve", "--problem", "a.json", "--weights", "1"], "--weights does not apply to --problem input"
        ),
        "solve-counts-no-budget": (["solve", "--counts", "c.json"], "--counts input needs --budget"),
        "solve-infinite-weights": (
            ["solve", "--counts", "c.json", "--budget", "1", "--weights", "1/0,1"],
            "argument --weights: weights must be finite rational numbers",
        ),
        "solve-negative-weights": (
            ["solve", "--counts", "c.json", "--budget", "1", "--weights", "1,-1"],
            "argument --weights: weights must be nonnegative",
        ),
        "generate-negative-seed": (
            ["generate", "--seed", "-1"], "argument --seed: must be a nonnegative integer, got '-1'"
        ),
        "generate-pool-size-underscore": (
            ["generate", "--seed", "0", "--pool-size", "1_0"],
            "argument --pool-size: must be a nonnegative integer, got '1_0'",
        ),
        "generate-pool-size-below-four": (
            ["generate", "--seed", "0", "--pool-size", "3"],
            "argument --pool-size: must be at least 4 to pick two extremes each way, got '3'",
        ),
        "generate-grid-plus": (
            ["generate", "--seed", "0", "--grid", "+3"], "argument --grid: must be a positive integer, got '+3'"
        ),
        "generate-grid-zero": (
            ["generate", "--seed", "0", "--grid", "0"], "argument --grid: must be a positive integer, got '0'"
        ),
        "generate-seed-arabic-indic": (
            ["generate", "--seed", "\u0663"], "argument --seed: must be a nonnegative integer, got '\u0663'"
        ),
        "generate-pool-size-arabic-indic": (
            ["generate", "--seed", "0", "--pool-size", "\u0661\u0660"],
            "argument --pool-size: must be a nonnegative integer, got '\u0661\u0660'",
        ),
        "solve-budget-fullwidth": (
            ["solve", "--counts", "c.json", "--budget", "\uff13"],
            "argument --budget: must be a nonnegative integer, got '\uff13'",
        ),
        "solve-negative-budget": (
            ["solve", "--counts", "c.json", "--budget", "-3"], "argument --budget: must be a nonnegative integer"
        ),
        "generate-seed-too-many-digits": (
            ["generate", "--seed", "9" * 5000],
            f"argument --seed: must have at most {sys.get_int_max_str_digits()} digits, got 5000\n",
        ),
        "solve-budget-too-many-digits": (
            ["solve", "--counts", "c.json", "--budget", "9" * 5000],
            f"argument --budget: must have at most {sys.get_int_max_str_digits()} digits, got 5000\n",
        ),
        "solve-budget-beyond-int64": (
            ["solve", "--counts", "c.json", "--budget", str(2**63)],
            f"argument --budget: must be at most {2**63 - 1}, got '{2**63}'",
        ),
        "render-no-mode": (["render", "--budget", "3"], "one of the arguments --scenario --counts is required"),
        "render-two-modes": (["render", "--scenario", "a.json", "--counts", "b.json"], "not allowed with"),
        "render-scenario-no-budget": (["render", "--scenario", "a.json"], "--scenario input needs --budget"),
        "render-scenario-solution": (
            ["render", "--scenario", "a.json", "--budget", "3", "--solution", "nope.json"],
            "--solution does not apply to --scenario input",
        ),
        "render-scenario-second-panel": (
            ["render", "--scenario", "a.json", "--budget", "3", "--counts2", "c.json", "--solution2", "s.json"],
            "--counts2 does not apply to --scenario input",
        ),
        "render-negative-budget": (
            ["render", "--scenario", "a.json", "--budget", "-3"], "argument --budget: must be a nonnegative integer"
        ),
        "render-budget-beyond-int64": (
            ["render", "--scenario", "a.json", "--budget", "99999999999999999999"],
            f"argument --budget: must be at most {2**63 - 1}, got '99999999999999999999'",
        ),
        "render-counts-budget": (
            ["render", "--counts", "c.json", "--solution", "s.json", "--budget", "3"],
            "--budget does not apply to --counts input",
        ),
        "render-counts-no-solution": (["render", "--counts", "c.json"], "--counts input needs --solution"),
        "render-counts2-alone": (
            ["render", "--counts", "c.json", "--solution", "s.json", "--counts2", "d.json"],
            "--counts2 and --solution2 go together",
        ),
        # refused before the pool is built, which here would be refused as past the address space
        "generate-empty-out": (
            ["generate", "--seed", "0", "--pool-size", str(2**40), "--grid", str(2**20), "--out", ""],
            "reserveplan generate: error: argument --out: must name a path, got ''",
        ),
    }

    @staticmethod
    def misuse_argv(case, out):
        argv, _ = TestErrorHandling.MISUSE[case]
        return argv if "--out" in argv else [*argv, "--out", str(out)]

    @pytest.mark.parametrize("case", sorted(MISUSE))
    def test_input_mode_misuse_is_usage_error(self, tmp_path, capsys, case):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(self.misuse_argv(case, out))
        assert exc.value.code == 2
        assert self.MISUSE[case][1] in capsys.readouterr().err
        assert not out.exists()

    @staticmethod
    def run_whole_parser(argv):
        """``main(argv)`` as it ran before ``main`` built one subcommand's parser: through ``build_parser()``."""
        args = cli.build_parser().parse_args(argv)
        return args.func(args)

    @pytest.mark.parametrize("case", sorted(MISUSE))
    def test_misuse_reads_the_same_from_the_whole_parser(self, tmp_path, capsys, case):
        argv = self.misuse_argv(case, tmp_path / "out")
        seen = []
        for run in (main, self.run_whole_parser):
            with pytest.raises(SystemExit) as exc:
                run(argv)
            seen.append((exc.value.code, capsys.readouterr()))
        assert seen[0] == seen[1]

    @pytest.mark.parametrize(
        "argv",
        [[name, "--help"] for name in cli._COMMANDS]
        + [["--help"], [], ["frobnicate"], ["sweep", "--scenario", "x.json", "--out", "y.csv", "--bogus"],
           ["report", "a.csv", "--out", "s.csv", "extra", "--plot"], ["solve", "-h", "--bogus"]],
        ids=lambda argv: " ".join(argv) or "no-arguments",
    )
    def test_help_and_usage_errors_read_the_same_from_the_whole_parser(self, capsys, argv):
        seen = []
        for run in (main, self.run_whole_parser):
            with pytest.raises(SystemExit) as exc:
                run(argv)
            seen.append((exc.value.code, capsys.readouterr()))
        assert seen[0] == seen[1]
        assert seen[0][0] == (0 if "-h" in argv or "--help" in argv else 2)

    def test_missing_file_exits_1_and_names_it(self, tmp_path, capsys):
        code = main(["sweep", "--scenario", str(tmp_path / "gone.json"), "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert "gone.json" in capsys.readouterr().err

    def test_malformed_field_exits_1_and_names_field(self, workspace, tmp_path, capsys):
        broken = tmp_path / "broken.json"
        obj = fileio.read_json(workspace / "scenarios/case1.json")
        obj["budgets"] = "not-a-list"
        broken.write_text(json.dumps(obj))
        code = main(["sweep", "--scenario", str(broken), "--out", str(tmp_path / "o.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert "broken.json" in err
        assert "budgets" in err

    def test_invalid_json_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        code = main(["solve", "--problem", str(bad), "--out", str(tmp_path / "o.json")])
        assert code == 1
        assert "bad.json" in capsys.readouterr().err

    def test_domain_errors_exit_1_with_message(self, tmp_path, capsys):
        counts, params = tmp_path / "c.json", tmp_path / "p.json"
        fileio.write_json(counts, {"n": 1, "species": 1, "counts": [[5]]})
        fileio.write_json(params, fileio.params_to_obj(default_params(2)))
        out = tmp_path / "o.json"
        code = main(["simulate", "--counts", str(counts), "--params", str(params), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {params}: grid has 1 species but parameters cover 2\n"
        assert not out.exists()

    def test_weights_length_mismatch_reported(self, tmp_path, capsys):
        grid = tmp_path / "counts.json"
        fileio.write_json(grid, {"n": 1, "species": 2, "counts": [[1], [2]]})
        code = main(
            ["solve", "--counts", str(grid), "--budget", "1", "--weights", "1",
             "--out", str(tmp_path / "sol.json")]
        )
        assert code == 1
        assert "weights" in capsys.readouterr().err

    def test_weights_of_another_length_than_the_counts_exit_1_naming_the_flag(self, tmp_path, capsys):
        grid, out = tmp_path / "proj.json", tmp_path / "sol.json"
        fileio.write_json(grid, {"n": 1, "species": 2, "counts": [[1], [2]]})
        code = main(["solve", "--counts", str(grid), "--budget", "5", "--weights", "1", "--out", str(out)])
        assert (code, capsys.readouterr()) == (1, ("", f"error: {grid}: --weights gives 1 weights for 2 species\n"))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["proj.json"]

    @pytest.mark.parametrize("command", ["sweep", "generate"])
    def test_write_under_a_file_names_the_target_the_same_each_run(
        self, workspace, tmp_path, monkeypatch, capsys, command
    ):
        # the refusal names the output path, not a temp file of random name, and leaves none behind
        monkeypatch.chdir(tmp_path)
        Path("afile").write_text("")
        argv = {
            "sweep": ["sweep", "--scenario", str(workspace / "scenarios/case1.json"), "--out", "afile/x.csv"],
            "generate": ["generate", "--seed", "0", "--pool-size", "8", "--grid", "2", "--out", "afile/suite.json"],
        }[command]
        target = argv[-1]
        for _ in range(2):
            assert main(argv) == 1
            assert capsys.readouterr() == ("", f"error: cannot write {target}: Not a directory\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile"]

    def test_value_beyond_int64_exits_1_and_names_field(self, tmp_path, capsys):
        problem = tmp_path / "huge.json"
        problem.write_text(
            json.dumps({"values": [[1, 2**65]], "weights": [[1, 1]], "costs": [1, 1], "budget": 1})
        )
        out = tmp_path / "sol.json"
        code = main(["solve", "--problem", str(problem), "--out", str(out)])
        assert code == 1
        assert "huge.json: problem: values must be integers within int64 range" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_json_number_exits_1_and_names_file(self, tmp_path, capsys, number):
        counts = tmp_path / "c.json"
        fileio.write_json(counts, {"n": 1, "species": 1, "counts": [[5]]})
        params = tmp_path / "p.json"
        params.write_text(
            f'{{"r": [{number}], "alpha": [[0.0]], "beta": [0.001], "dt": 0.01, "T": 10}}'
        )
        out = tmp_path / "o.json"
        code = main(["simulate", "--counts", str(counts), "--params", str(params), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        if number == "1e999":  # a float past the range reads as inf, which the field refuses
            assert "p.json: params: r must be finite" in err
        else:
            assert "p.json: invalid JSON: " in err
            assert number in err
        assert not out.exists()

    # field: (command, the file and the path in it of the 1e999, the error line)
    PARAMS = "simulate --counts c.json --params p.json"
    OVERFLOW = {
        "params.r": (PARAMS, ("p.json", "r", 0), "p.json: params: r must be finite"),
        "params.alpha": (PARAMS, ("p.json", "alpha", 0, 1), "p.json: params: alpha must be finite"),
        "params.beta": (PARAMS, ("p.json", "beta", 1), "p.json: params: beta must be finite"),
        "params.dt": (PARAMS, ("p.json", "dt"), "p.json: params: dt must be finite"),
        "counts.counts": (
            "simulate --counts c.json", ("c.json", "counts", 0, 3), "c.json: counts.counts: counts must be finite"
        ),
        "scenario.landscape": (
            "sweep --scenario s.json",
            ("s.json", "species", 0, "landscape", "values", 5),
            "s.json: scenario.species[0].landscape.values: habitat values must lie in [0, 1]",
        ),
    }

    @pytest.mark.parametrize("case", OVERFLOW.values(), ids=OVERFLOW.keys())
    def test_float_past_the_range_is_refused_by_its_field(self, workspace, tmp_path, monkeypatch, capsys, case):
        args, (name, *path), error = case
        docs = {
            "c.json": {"n": 2, "species": 2, "counts": [[5, 0, 1, 2], [3, 3, 0, 1]]},
            "p.json": fileio.params_to_obj(default_params(2)),
            "s.json": fileio.read_json(workspace / "scenarios/case1.json"),
        }
        holder = docs[name]
        for key in path[:-1]:
            holder = holder[key]
        holder[path[-1]] = "OVERFLOW"
        monkeypatch.chdir(tmp_path)
        for file, doc in docs.items():
            Path(file).write_text(json.dumps(doc).replace('"OVERFLOW"', "1e999"))
        assert main([*args.split(), "--out", "o.json"]) == 1
        assert capsys.readouterr() == ("", f"error: {error}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(docs)

    def test_long_bad_leaf_is_echoed_short(self, tmp_path):
        # a list where a number belongs, echoed whole, was a 1.5 MB error line
        (tmp_path / "w.json").write_text(json.dumps({"n": 1, "species": 1, "counts": [[list(range(200_000))]]}))
        run = _python(["-m", "reserveplan.cli", "simulate", "--counts", "w.json", "--out", "o.json"], tmp_path)
        assert (run.returncode, run.stdout) == (1, "")
        assert run.stderr == "error: w.json: counts.counts[0][0]: expected a number, got [0, 1, 2, 3, 4, 5, ...]\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["w.json"]

    def test_integer_past_the_digit_limit_exits_1_naming_the_file(self, tmp_path):
        (tmp_path / "bigint.json").write_text(f'{{"n": {"9" * 5000}, "species": 1, "counts": [[1]]}}')
        run = _python(["-m", "reserveplan.cli", "simulate", "--counts", "bigint.json", "--out", "o.json"], tmp_path)
        assert (run.returncode, run.stdout) == (1, "")
        limit = sys.get_int_max_str_digits()
        assert run.stderr == f"error: bigint.json: invalid JSON: an integer of more than {limit} digits\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bigint.json"]

    def test_repeated_json_key_exits_1_and_names_file_and_key(self, workspace, tmp_path, capsys):
        # a second "budgets" would otherwise replace the first without a word
        text = (workspace / "scenarios/case1.json").read_text()
        scenario = tmp_path / "twice.json"
        scenario.write_text(text.replace('"budgets": [', '"budgets": [0, 1, 2],\n  "budgets": [', 1))
        assert text.count('"budgets": [') == 1
        out = tmp_path / "o.csv"
        code = main(["sweep", "--scenario", str(scenario), "--out", str(out)])
        assert code == 1
        assert "twice.json: invalid JSON: repeated key 'budgets'" in capsys.readouterr().err
        assert not out.exists()

    def test_render_solution_for_another_grid_exits_1_and_names_it(self, tmp_path, capsys):
        counts, solution = tmp_path / "c.json", tmp_path / "s.json"
        fileio.write_json(counts, {"n": 2, "species": 1, "counts": [[1, 2, 3, 4]]})
        fileio.write_json(solution, {"x": [1], "objective": [1, 1], "spent": 1})
        out = tmp_path / "o.svg"
        code = main(["render", "--counts", str(counts), "--solution", str(solution), "--out", str(out)])
        assert code == 1
        assert "s.json: solution covers 1 parcels, counts grid has 4" in capsys.readouterr().err
        assert not out.exists()

    def test_render_panels_of_two_grid_sizes_exit_1_and_name_the_second(self, tmp_path, capsys):
        argv = ["render"]
        for suffix, n in (("", 1), ("2", 4)):
            counts, solution = tmp_path / f"c{suffix}.json", tmp_path / f"s{suffix}.json"
            fileio.write_json(counts, {"n": n, "species": 1, "counts": [[1] * (n * n)]})
            fileio.write_json(solution, {"x": [0] * (n * n), "objective": [0, 1], "spent": 0})
            argv += [f"--counts{suffix}", str(counts), f"--solution{suffix}", str(solution)]
        out = tmp_path / "o.svg"
        assert main([*argv, "--out", str(out)]) == 1
        assert "c2.json: panels must share the same grid size" in capsys.readouterr().err
        assert not out.exists()

    def test_report_repeated_budget_exits_1_and_names_file_and_line(self, tmp_path, capsys):
        sweep = tmp_path / "dup.csv"
        sweep.write_text("budget,similarity,objective1,objective2\n5,90,1,1\n10,80,2,2\n5,10,1,1\n")
        out = tmp_path / "stats.csv"
        assert main(["report", str(sweep), "--out", str(out)]) == 1
        assert "dup.csv: sweep.line4: budget 5 repeats line 2" in capsys.readouterr().err
        assert not out.exists()

    def test_report_negative_budget_exits_1_and_names_file_and_line(self, tmp_path, capsys):
        sweep = tmp_path / "a.csv"
        sweep.write_text("budget,similarity,objective1,objective2\n0,100,0,0\n-5,90,1,1\n10,100,2,2\n")
        out = tmp_path / "stats.csv"
        assert main(["report", str(sweep), "--out", str(out)]) == 1
        assert "a.csv: sweep.line3: budget must be a nonnegative integer, got '-5'" in capsys.readouterr().err
        assert not out.exists()

    def test_deeply_nested_json_exits_1_naming_the_file(self, tmp_path):
        (tmp_path / "deep.json").write_text("[" * 100_000)
        run = _python(["-m", "reserveplan.cli", "simulate", "--counts", "deep.json", "--out", "o.json"], tmp_path)
        assert (run.returncode, run.stdout) == (1, "")
        assert run.stderr == "error: deep.json: invalid JSON: nested too deeply\n"  # one line, no traceback
        assert sorted(p.name for p in tmp_path.iterdir()) == ["deep.json"]

    def test_report_field_past_the_csv_limit_exits_1_naming_file_and_line(self, tmp_path):
        sweep = f"budget,similarity,objective1,objective2\n0,100,0,0\n5,90,{'1' * 200_000},1\n"
        (tmp_path / "big.csv").write_text(sweep)
        run = _python(["-m", "reserveplan.cli", "report", "big.csv", "--out", "s.csv"], tmp_path)
        assert (run.returncode, run.stdout) == (1, "")
        assert run.stderr == "error: big.csv: sweep.line3: field larger than field limit (131072)\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["big.csv"]

    @pytest.mark.parametrize("plot", ["s.csv", "sub/../s.csv"])
    def test_report_refuses_stats_and_plot_naming_one_file(self, tmp_path, monkeypatch, capsys, plot):
        # the plot series would silently replace the stats table
        monkeypatch.chdir(tmp_path)
        Path("a.csv").write_text("budget,similarity,objective1,objective2\n0,100,0,0\n5,90,1,1\n10,100,2,2\n")
        Path("sub").mkdir()
        assert main(["report", "a.csv", "--out", "s.csv", "--plot-out", plot]) == 1
        assert capsys.readouterr() == ("", f"error: cannot write s.csv and {plot}: they name one file\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "sub"]

    def test_report_missing_plot_directory_leaves_no_stats_file(self, tmp_path, capsys):
        sweep = tmp_path / "a.csv"
        sweep.write_text("budget,similarity,objective1,objective2\n0,100,0,0\n5,90,1,1\n10,100,2,2\n")
        out, plot = tmp_path / "s.csv", tmp_path / "nodir" / "p.csv"
        assert main(["report", str(sweep), "--out", str(out), "--plot-out", str(plot)]) == 1
        captured = capsys.readouterr()
        assert f"directory {tmp_path / 'nodir'} does not exist" in captured.err
        assert "wrote" not in captured.out
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv"]

    # (arguments, exit status, the error line); {scenario}, {counts} and {sweep} are
    # input files outside the working directory, and "" is the output flag under test
    EMPTY = "error: argument {}: must name a path, got ''"
    EMPTY_OUTPUT = {
        "generate-out": (
            "generate --seed 0 --pool-size 8 --grid 2 --out", 2, "reserveplan generate: " + EMPTY.format("--out")
        ),
        "generate-scenario-dir": (
            "generate --seed 0 --pool-size 8 --grid 2 --out suite.json --scenario-dir",
            2,
            "reserveplan generate: " + EMPTY.format("--scenario-dir"),
        ),
        "simulate-out": ("simulate --scenario {scenario} --out", 2, "reserveplan simulate: " + EMPTY.format("--out")),
        "solve-out": ("solve --counts {counts} --budget 1 --out", 2, "reserveplan solve: " + EMPTY.format("--out")),
        "sweep-out": ("sweep --scenario {scenario} --out", 2, "reserveplan sweep: " + EMPTY.format("--out")),
        "render-out": (
            "render --scenario {scenario} --budget 5 --out", 2, "reserveplan render: " + EMPTY.format("--out")
        ),
        "report-out": ("report {sweep} --out", 2, "reserveplan report: " + EMPTY.format("--out")),
        "report-plot-out": (
            "report {sweep} --out stats.csv --plot-out", 2, "reserveplan report: " + EMPTY.format("--plot-out")
        ),
    }

    @pytest.mark.parametrize("case", EMPTY_OUTPUT.values(), ids=EMPTY_OUTPUT.keys())
    def test_empty_output_path_is_refused_and_writes_nothing(self, workspace, tmp_path, monkeypatch, capsys, case):
        # an empty path would name the working directory: every output flag refuses it
        args, status, error = case
        inputs, run = tmp_path / "in", tmp_path / "run"
        inputs.mkdir()
        run.mkdir()
        fileio.write_json(inputs / "counts.json", {"n": 2, "species": 1, "counts": [[4, 5, 6, 7]]})
        (inputs / "a.csv").write_text("budget,similarity,objective1,objective2\n0,100,0,0\n5,90,1,1\n10,100,2,2\n")
        monkeypatch.chdir(run)
        scenario = workspace / "scenarios/case1.json"
        argv = args.format(scenario=scenario, counts=inputs / "counts.json", sweep=inputs / "a.csv").split()
        try:
            code = main([*argv, ""])
        except SystemExit as exc:  # a usage error
            code = exc.code
        assert code == status
        out, err = capsys.readouterr()
        assert out == ""
        assert [line for line in err.splitlines() if "error:" in line] == [error]
        assert list(run.iterdir()) == []
        assert sorted(p.name for p in inputs.iterdir()) == ["a.csv", "counts.json"]

    def test_knapsack_table_beyond_memory_exits_1_and_names_file(self, tmp_path, capsys):
        problem = tmp_path / "wide.json"
        problem.write_text(
            json.dumps(
                {"values": [[3, 4]], "weights": [[1, 1]], "costs": [10**12, 7], "budget": 10**12}
            )
        )
        out = tmp_path / "sol.json"
        code = main(["solve", "--problem", str(problem), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "wide.json: budget 1000000000000 needs a 4,000,000,000,004-byte knapsack table" in err
        assert not out.exists()

    def test_sweep_table_beyond_memory_exits_1_and_names_file(self, workspace, tmp_path, capsys):
        scenario = tmp_path / "wide.json"
        obj = fileio.read_json(workspace / "scenarios/case1.json")
        obj["costs"] = [10**10] * len(obj["costs"])
        obj["budgets"] = [0, 10**12]
        fileio.write_json(scenario, obj)
        out = tmp_path / "o.csv"
        code = main(["sweep", "--scenario", str(scenario), "--out", str(out)])
        assert code == 1
        assert "wide.json: budget 1000000000000 needs a" in capsys.readouterr().err
        assert not out.exists()

    def test_render_table_beyond_memory_exits_1_and_names_file(self, workspace, tmp_path, capsys):
        scenario = tmp_path / "wide.json"
        obj = fileio.read_json(workspace / "scenarios/case1.json")
        obj["costs"] = [10**12] * len(obj["costs"])
        fileio.write_json(scenario, obj)
        out = tmp_path / "o.svg"
        code = main(["render", "--scenario", str(scenario), "--budget", str(10**12), "--out", str(out)])
        assert code == 1
        assert "wide.json: budget 1000000000000 needs a" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["sweep"], ["render", "--budget", "5"]])
    def test_negative_scenario_weight_exits_1_and_names_file(
        self, workspace, tmp_path, capsys, command
    ):
        scenario = tmp_path / "neg.json"
        obj = fileio.read_json(workspace / "scenarios/case1.json")
        obj["weights"] = [[1, 1], [-1, 1]]
        fileio.write_json(scenario, obj)
        out = tmp_path / "out"
        code = main([*command, "--scenario", str(scenario), "--out", str(out)])
        assert code == 1
        assert "neg.json: scenario: weights must be nonnegative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("rounded", [False, True])
    def test_overflowing_projection_exits_1_and_names_step(self, tmp_path, capsys, rounded):
        counts = tmp_path / "c.json"
        fileio.write_json(counts, {"n": 1, "species": 1, "counts": [[100]]})
        params = tmp_path / "p.json"
        fileio.write_json(params, {"r": [1e300], "alpha": [[0.0]], "beta": [0.0], "dt": 1.0, "T": 5})
        out = tmp_path / "o.json"
        argv = ["simulate", "--counts", str(counts), "--params", str(params), "--out", str(out)]
        code = main(argv + ["--round"] * rounded)
        assert code == 1
        assert "p.json: projected counts overflow at step 2 in parcel 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_clamped_projection_exits_1_and_names_step(self, tmp_path, capsys):
        counts = tmp_path / "c.json"
        fileio.write_json(counts, {"n": 1, "species": 1, "counts": [[1]]})
        params = tmp_path / "p.json"
        fileio.write_json(params, {"r": [25.0], "alpha": [[0.0]], "beta": [0.1], "dt": 1.0, "T": 10})
        out = tmp_path / "o.json"
        code = main(["simulate", "--counts", str(counts), "--params", str(params), "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {params}: projected counts clamped to zero at step 3 in parcel 0\n"
        assert captured.out == ""
        assert not out.exists()

    def test_rounded_projection_beyond_int64_exits_1_and_names_file(self, tmp_path, capsys):
        counts = tmp_path / "c.json"
        fileio.write_json(counts, {"n": 1, "species": 1, "counts": [[100]]})
        params = tmp_path / "p.json"  # equilibrium r / beta = 1e20, past int64
        fileio.write_json(params, {"r": [0.1], "alpha": [[0.0]], "beta": [1e-21], "dt": 1.0, "T": 2000})
        out = tmp_path / "o.json"
        code = main(
            ["simulate", "--counts", str(counts), "--params", str(params), "--round", "--out", str(out)]
        )
        assert code == 1
        assert "p.json: counts must be integers within int64 range" in capsys.readouterr().err
        assert not out.exists()

    def test_counts_beyond_int64_exits_1_and_names_field(self, tmp_path, capsys):
        counts = tmp_path / "big.json"
        fileio.write_json(counts, {"n": 1, "species": 1, "counts": [[1e30]]})
        out = tmp_path / "sol.json"
        code = main(["solve", "--counts", str(counts), "--budget", "1", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "big.json: counts.counts: counts must be integers within int64 range" in err
        assert not out.exists()

    def test_allocation_failure_exits_1_without_traceback(self, tmp_path, capsys, monkeypatch):
        # Stands in for a pool too large to allocate: a real attempt could be accepted
        # under memory overcommit and then exhaust the host.
        def no_memory(seed, pool_size, grid):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(cli, "build_species_suite", no_memory)
        out = tmp_path / "g.json"
        assert main(["generate", "--seed", "0", "--pool-size", "1000000000000", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "error: --pool-size 1000000000000 landscapes of --grid 10 do not fit in memory\n"
        assert not out.exists()

    def test_pool_past_the_address_space_names_its_flags(self, tmp_path, capsys):
        # numpy refuses an array this large before allocating, so the real command is safe to run
        out = tmp_path / "g.json"
        argv = ["generate", "--seed", "0", "--pool-size", "4", "--grid", "10000000000", "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == "error: --pool-size 4 landscapes of --grid 10000000000 do not fit in memory\n"
        assert not out.exists()


SRC = Path(__file__).resolve().parents[1] / "src"
ASCII_LOCALE = {"PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0", "LC_ALL": "C"}
# Runs each argument as one command line through main() and exits with the first that fails.
COMMANDS = """import sys
from reserveplan.cli import main
for line in sys.argv[1:]:
    if main(line.split()):
        sys.exit(line)
"""
WALKTHROUGH = [  # the README's command-line walkthrough, on a 200-landscape pool
    "generate --seed 0 --pool-size 200 --out suite.json --scenario-dir scenarios",
    *(f"sweep --scenario scenarios/case{i}.json --out case{i}.csv" for i in range(1, 7)),
    "report " + " ".join(f"case{i}.csv" for i in range(1, 7)) + " --out stats.csv --plot-out similarity.csv",
    "render --scenario scenarios/case2.json --budget 55 --out case2-b55.svg",
    "simulate --scenario scenarios/case1.json --round --out projected.json",
    "solve --counts projected.json --budget 55 --weights 9/10,1/10 --out choice.json",
    "render --counts projected.json --solution choice.json --out choice.svg",
]


def _python(args, cwd, **env) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(SRC), **env},
    )


def test_cli_import_loads_no_xml_or_network_modules(tmp_path):
    # xml.sax.saxutils pulls in urllib.request, http.client and email: ~30 ms of start-up
    heavy = "{'xml.sax', 'urllib.request', 'http.client', 'email'}"
    code = f"import sys, reserveplan.cli; print(sorted({heavy} & set(sys.modules)))"
    run = _python(["-c", code], tmp_path)
    assert (run.returncode, run.stdout, run.stderr) == (0, "[]\n", "")


class TestTextEncoding:
    def test_files_are_utf8_whatever_the_locale(self, workspace, tmp_path):
        obj = fileio.read_json(workspace / "scenarios/case1.json")
        obj["species"][0]["id"] = "\u00c4sche"
        (tmp_path / "case.json").write_bytes(json.dumps(obj, ensure_ascii=False).encode("utf-8"))
        (tmp_path / "half.csv").write_bytes("budget,similarity,objective1,objective2\n0,9,\u00bd,0\n".encode())
        swept = _python(["-c", COMMANDS, "sweep --scenario case.json --out case.csv"], tmp_path, **ASCII_LOCALE)
        assert swept.returncode == 0, swept.stderr
        assert (tmp_path / "case.csv").read_text(encoding="utf-8").startswith("budget,similarity")
        write_svg = "from reserveplan import fileio; fileio.write_text_atomic('label.svg', '\\u00c4sche')"
        written = _python(["-c", write_svg], tmp_path, **ASCII_LOCALE)
        assert written.returncode == 0, written.stderr
        assert (tmp_path / "label.svg").read_bytes() == "\u00c4sche".encode("utf-8")
        report = _python(["-c", COMMANDS, "report half.csv --out s.csv"], tmp_path, **ASCII_LOCALE)
        assert report.returncode == 1
        assert "half.csv: sweep.line2: objective1 must be a rational number" in report.stderr

    def test_walkthrough_opens_no_text_file_in_the_locale_encoding(self, tmp_path):
        flags = ["-X", "warn_default_encoding", "-W", "error::EncodingWarning"]
        run = _python([*flags, "-c", COMMANDS, *WALKTHROUGH], tmp_path)
        assert run.returncode == 0, run.stderr
        assert (tmp_path / "choice.svg").is_file() and (tmp_path / "stats.csv").is_file()
