"""Command-line front end.

Subcommands: ``generate`` (landscape pool, species suite, scenario files),
``simulate`` (project a counts file forward), ``solve`` (one selection
problem), ``sweep`` (scenario to budget-sweep CSV), ``render`` (solutions to
an SVG map), ``report`` (sweep CSVs to a stats table and plot data). All
randomness enters through an explicit --seed; exit status is 0 on success,
1 with a one-line ``error:`` message on bad input, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import fileio
from ._checks import as_weights
from .dynamics import default_params, round_counts, simulate
from .experiment import (
    budget_sweep,
    build_species_suite,
    default_scenarios,
    summarize,
    summarize_similarities,
)
from .fileio import SchemaError
from .render import Panel, RenderSpec, caption_text, render_grid
from .solver import ReserveProblem, TableTooLargeError, solve, solve_sweep

__all__ = ["main", "build_parser"]


class CLIError(Exception):
    """Fatal input problem; the message names the offending file (and field)."""


def _read(path, convert):
    try:
        return convert(fileio.read_json(path))
    except SchemaError as exc:
        raise CLIError(f"{path}: {exc}") from exc
    except OSError as exc:
        raise CLIError(f"{path}: {exc.strerror or exc}") from exc


def _cmd_generate(args) -> int:
    suite = build_species_suite(args.seed, pool_size=args.pool_size, grid=args.grid)
    fileio.write_json(
        args.out,
        fileio.suite_to_obj(suite, seed=args.seed, pool_size=args.pool_size, grid=args.grid),
    )
    print(f"wrote {args.out} ({len(suite)} species, pool {args.pool_size}, {args.grid}x{args.grid} grid)")
    if args.scenario_dir:
        directory = Path(args.scenario_dir)
        directory.mkdir(parents=True, exist_ok=True)
        for i, scenario in enumerate(default_scenarios(suite, seed=args.seed), start=1):
            path = directory / f"case{i}.json"
            fileio.write_json(path, fileio.scenario_to_obj(scenario))
            print(f"wrote {path}")
    return 0


def _cmd_simulate(args, parser: argparse.ArgumentParser) -> int:
    if (args.scenario is None) == (args.counts is None):
        parser.error("simulate needs exactly one of --scenario or --counts")
    if args.scenario is not None:
        if args.params is not None:
            parser.error("--params only applies to --counts input")
        scenario = _read(args.scenario, fileio.scenario_from_obj)
        observed = scenario.observed()
        params = scenario.lv_params
    else:
        observed = _read(args.counts, fileio.counts_from_obj)
        if args.params is not None:
            params = _read(args.params, fileio.params_from_obj)
        else:
            params = default_params(observed.species_count)
    try:
        projected = simulate(observed, params)
        if args.round:
            obj = fileio.counts_to_obj(round_counts(projected))
        else:
            obj = fileio.projected_to_obj(projected)
    except ValueError as exc:
        raise CLIError(f"{args.params or args.scenario or args.counts}: {exc}") from exc
    fileio.write_json(args.out, obj)
    print(f"wrote {args.out} ({params.T} steps of {params.dt:g})")
    return 0


def _cmd_solve(args, parser: argparse.ArgumentParser) -> int:
    if (args.problem is None) == (args.counts is None):
        parser.error("solve needs exactly one of --problem or --counts")
    if args.problem is not None:
        if args.budget is not None or args.weights is not None:
            parser.error("--budget/--weights only apply to --counts input")
        problem = _read(args.problem, fileio.problem_from_obj)
    else:
        if args.budget is None:
            parser.error("--counts input needs --budget")
        counts = _read(args.counts, fileio.counts_from_obj)
        weights = (1,) * counts.species_count
        if args.weights is not None:
            weights = as_weights(args.weights.split(","), "--weights")
        problem = ReserveProblem(
            values=counts.matrix(),
            weights=weights,
            costs=np.ones(counts.parcel_count, dtype=np.int64),
            budget=args.budget,
        )
    try:
        solution = solve(problem)
    except TableTooLargeError as exc:
        raise CLIError(f"{args.problem}: {exc}") from exc
    fileio.write_json(args.out, fileio.solution_to_obj(solution))
    print(
        f"wrote {args.out} (objective {solution.objective}, spent {solution.spent} "
        f"of {problem.budget})"
    )
    return 0


def _cmd_sweep(args) -> int:
    scenario = _read(args.scenario, fileio.scenario_from_obj)
    try:
        rows = budget_sweep(scenario)
    except ValueError as exc:
        raise CLIError(f"{args.scenario}: {exc}") from exc
    fileio.write_text_atomic(args.out, fileio.sweep_rows_to_csv(rows))
    note = f"wrote {args.out} ({len(rows)} budgets)"
    if len(rows) >= 3:
        stats = summarize(rows)
        note += f"; interior similarity min {stats.min} mean {stats.mean:.2f} median {stats.median:g}"
    print(note)
    return 0


def _cmd_render(args, parser: argparse.ArgumentParser) -> int:
    if (args.scenario is None) == (args.counts is None):
        parser.error("render needs exactly one of --scenario or --counts")
    if args.scenario is not None:
        if args.budget is None:
            parser.error("--scenario input needs --budget")
        scenario = _read(args.scenario, fileio.scenario_from_obj)
        observed = scenario.observed()
        panels = []
        try:
            projected = round_counts(simulate(observed, scenario.lv_params))
            for label, grid in (("observed counts", observed), ("projected counts", projected)):
                [solution] = solve_sweep(grid.matrix(), scenario.weights, scenario.costs, [args.budget])
                panels.append(Panel(label=label, counts=grid, solution=solution))
        except ValueError as exc:
            raise CLIError(f"{args.scenario}: {exc}") from exc
        spec = RenderSpec(panels=tuple(panels))
    else:
        if args.solution is None:
            parser.error("--counts input needs --solution")
        if (args.counts2 is None) != (args.solution2 is None):
            parser.error("--counts2 and --solution2 go together")
        panels = [
            Panel(
                label=Path(args.solution).stem,
                counts=_read(args.counts, fileio.counts_from_obj),
                solution=_read(args.solution, fileio.solution_from_obj),
            )
        ]
        if args.counts2 is not None:
            panels.append(
                Panel(
                    label=Path(args.solution2).stem,
                    counts=_read(args.counts2, fileio.counts_from_obj),
                    solution=_read(args.solution2, fileio.solution_from_obj),
                )
            )
        spec = RenderSpec(panels=tuple(panels))
    fileio.write_text_atomic(args.out, render_grid(spec))
    caption = caption_text(spec)
    print(f"wrote {args.out}" + (f": {caption}" if caption else ""))
    return 0


def _cmd_report(args) -> int:
    parsed = []
    for path in args.sweeps:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise CLIError(f"{path}: {exc.strerror or exc}") from exc
        try:
            rows = fileio.sweep_csv_to_rows(text)
        except SchemaError as exc:
            raise CLIError(f"{path}: {exc}") from exc
        rows.sort(key=lambda r: r["budget"])
        parsed.append((Path(path).stem, rows))
    stats_rows = []
    for label, rows in parsed:
        try:
            stats = summarize_similarities(
                [r["budget"] for r in rows], [r["similarity"] for r in rows]
            )
        except ValueError as exc:
            raise CLIError(f"{label}: {exc}") from exc
        stats_rows.append(fileio.stats_to_csv_row(label, stats))
    fileio.write_stats_csv(args.out, stats_rows)
    print(f"wrote {args.out} ({len(stats_rows)} cases)")
    if args.plot_out:
        budgets = [r["budget"] for r in parsed[0][1]]
        series = []
        for label, rows in parsed:
            if [r["budget"] for r in rows] != budgets:
                raise CLIError(
                    f"{label}: budget grid differs from {parsed[0][0]}; cannot align plot data"
                )
            series.append((label, [r["similarity"] for r in rows]))
        fileio.write_plot_csv(args.plot_out, budgets, series)
        print(f"wrote {args.plot_out} ({len(budgets)} budgets x {len(series)} series)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reserveplan",
        description="Budget-constrained reserve selection on synthetic landscapes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a landscape pool, species suite, and scenarios")
    p.add_argument("--seed", type=int, required=True, help="base seed for all randomness")
    p.add_argument("--out", required=True, help="suite JSON output path")
    p.add_argument("--pool-size", type=int, default=10_000, help="landscapes to generate")
    p.add_argument("--grid", type=int, default=10, help="landscape side length")
    p.add_argument("--scenario-dir", help="also write case1..case6 scenario JSONs here")
    p.set_defaults(func=lambda a: _cmd_generate(a))

    p = sub.add_parser("simulate", help="project a counts grid forward in time")
    p.add_argument("--scenario", help="scenario JSON; uses its counts and parameters")
    p.add_argument("--counts", help="counts JSON to project")
    p.add_argument("--params", help="dynamics parameter JSON (defaults per species count)")
    p.add_argument("--round", action="store_true", help="round output to integer counts")
    p.add_argument("--out", required=True, help="output JSON path")
    p.set_defaults(func=lambda a, _p=p: _cmd_simulate(a, _p))

    p = sub.add_parser("solve", help="solve one parcel-selection problem")
    p.add_argument("--problem", help="problem JSON")
    p.add_argument("--counts", help="counts JSON (unit costs, --budget required)")
    p.add_argument("--budget", type=int, help="budget for --counts input")
    p.add_argument("--weights", help="comma-separated species weights, e.g. 9/10,1/10")
    p.add_argument("--out", required=True, help="solution JSON output path")
    p.set_defaults(func=lambda a, _p=p: _cmd_solve(a, _p))

    p = sub.add_parser("sweep", help="run a scenario's budget sweep to CSV")
    p.add_argument("--scenario", required=True, help="scenario JSON")
    p.add_argument("--out", required=True, help="sweep CSV output path")
    p.set_defaults(func=lambda a: _cmd_sweep(a))

    p = sub.add_parser("render", help="render protection maps to SVG")
    p.add_argument("--scenario", help="scenario JSON; solves both models at --budget")
    p.add_argument("--budget", type=int, help="budget for --scenario input")
    p.add_argument("--counts", help="counts JSON annotating the first panel")
    p.add_argument("--solution", help="solution JSON for the first panel")
    p.add_argument("--counts2", help="counts JSON annotating the second panel")
    p.add_argument("--solution2", help="solution JSON for the second panel")
    p.add_argument("--out", required=True, help="SVG output path")
    p.set_defaults(func=lambda a, _p=p: _cmd_render(a, _p))

    p = sub.add_parser("report", help="summarize sweep CSVs into a stats table")
    p.add_argument("sweeps", nargs="+", help="sweep CSV files, one case each")
    p.add_argument("--out", required=True, help="stats CSV output path")
    p.add_argument("--plot-out", help="aligned similarity-vs-budget CSV for plotting")
    p.set_defaults(func=lambda a: _cmd_report(a))

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CLIError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
