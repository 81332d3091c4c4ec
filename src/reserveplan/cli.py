"""Command-line front end.

Subcommands: ``generate`` (landscape pool, species suite, scenario files),
``simulate`` (project a counts file forward), ``solve`` (one selection
problem), ``sweep`` (scenario to budget-sweep CSV), ``render`` (solutions to
an SVG map), ``report`` (sweep CSVs to a stats table and plot data). All
randomness enters through an explicit --seed; exit status is 0 on success,
1 with a one-line ``error:`` message naming the input at fault, 2 on usage
errors, among them a flag that does not apply to the chosen input mode.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import sys
from pathlib import Path

import numpy as np

from . import fileio
from ._checks import as_weights, decimal_integer
from .dynamics import default_params, round_counts, simulate
from .experiment import (
    _model_grids,
    budget_sweep,
    build_species_suite,
    default_scenarios,
    summarize,
    summarize_similarities,
)
from .render import Panel, caption_text, render_grid
from .solver import ReserveProblem, ReserveSolution, solve, solve_models

__all__ = ["main", "build_parser"]


class CLIError(Exception):
    """Fatal input problem; the message names the offending file (and field)."""


@contextlib.contextmanager
def _blame(path):
    """Report an OSError or ValueError raised inside as a CLIError naming ``path``."""
    try:
        yield
    except OSError as exc:
        raise CLIError(f"{path}: {exc.strerror or exc}") from exc
    except ValueError as exc:
        raise CLIError(f"{path}: {exc}") from exc


def _read(path, convert):
    with _blame(path):
        return convert(fileio.read_json(path))


def _mode(args, mode: str, needs: str | None = None, refuses: tuple = ()) -> None:
    """Exit 2 unless the ``mode`` input has the flag ``needs`` and none of ``refuses``."""
    if needs is not None and getattr(args, needs) is None:
        args.parser.error(f"--{mode} input needs --{needs}")
    for flag in refuses:
        if getattr(args, flag) is not None:
            args.parser.error(f"--{flag} does not apply to --{mode} input")


def _natural(text: str, kind: str = "nonnegative") -> int:
    """A ``kind`` integer flag such as ``--seed``; argparse reports a refusal as a usage error."""
    try:
        return decimal_integer(text, kind)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _budget(text: str) -> int:
    """A ``--budget``: a nonnegative integer within int64, like every budget."""
    if (value := _natural(text)) >= 2**63:
        raise argparse.ArgumentTypeError(f"must be at most {2**63 - 1}, got {text!r}")
    return value


def _pool_size(text: str) -> int:
    """A ``--pool-size``: enough landscapes to keep two fragmentation extremes each way."""
    if (value := _natural(text)) < 4:
        raise argparse.ArgumentTypeError(f"must be at least 4 to pick two extremes each way, got {text!r}")
    return value


def _positive(text: str) -> int:
    """A positive integer flag such as ``--grid``; argparse reports a refusal as a usage error."""
    if (value := _natural(text, "positive")) == 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _weights(text: str) -> tuple:
    """Comma-separated exact ``--weights``; argparse reports a refusal as a usage error."""
    try:
        return as_weights(text.split(","), "weights")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _cmd_generate(args) -> int:
    if args.scenario_dir == "":  # Path("") would be the working directory
        args.parser.error("--scenario-dir must name a directory, got an empty path")
    try:
        if args.pool_size * args.grid**2 * 8 > sys.maxsize:  # numpy refuses such arrays naming no flag
            raise MemoryError
        suite = build_species_suite(args.seed, pool_size=args.pool_size, grid=args.grid)
    except MemoryError:
        raise CLIError(
            f"--pool-size {args.pool_size} landscapes of --grid {args.grid} do not fit in memory"
        ) from None
    docs = {args.out: fileio.suite_to_obj(suite, seed=args.seed, pool_size=args.pool_size, grid=args.grid)}
    made = []  # the directories this call creates, deepest first, removed again if the write fails
    if args.scenario_dir is not None:
        scenario_dir = Path(args.scenario_dir)
        made = list(itertools.takewhile(lambda d: not d.exists(), (scenario_dir, *scenario_dir.parents)))
        scenario_dir.mkdir(parents=True, exist_ok=True)
        for i, scenario in enumerate(default_scenarios(suite, seed=args.seed), start=1):
            docs[scenario_dir / f"case{i}.json"] = fileio.scenario_to_obj(scenario)
    try:
        fileio.write_jsons(docs)  # all files or none
    except BaseException:
        for directory in made:
            with contextlib.suppress(OSError):  # no longer empty: something else wrote there
                directory.rmdir()
        raise
    print(f"wrote {args.out} ({len(suite)} species, pool {args.pool_size}, {args.grid}x{args.grid} grid)")
    for path in list(docs)[1:]:
        print(f"wrote {path}")
    return 0


def _cmd_simulate(args) -> int:
    if args.scenario is not None:
        _mode(args, "scenario", refuses=("params",))
        scenario = _read(args.scenario, fileio.scenario_from_obj)
        observed, params = scenario.observed(), scenario.lv_params
    else:
        observed = _read(args.counts, fileio.counts_from_obj)
        params = default_params(observed.species_count)
        if args.params is not None:
            params = _read(args.params, fileio.params_from_obj)
    with _blame(args.params or args.scenario or args.counts):
        projected = simulate(observed, params)
        obj = fileio.counts_to_obj(round_counts(projected).counts if args.round else projected)
    fileio.write_json(args.out, obj)
    print(f"wrote {args.out} ({params.T} steps of {params.dt:g})")
    return 0


def _cmd_solve(args) -> int:
    if args.problem is not None:
        _mode(args, "problem", refuses=("budget", "weights"))
        problem = _read(args.problem, fileio.problem_from_obj)
    else:
        _mode(args, "counts", needs="budget")
        counts = _read(args.counts, fileio.counts_from_obj)
        with _blame(args.counts):
            problem = ReserveProblem(
                values=counts.matrix(),
                weights=args.weights or (1,) * counts.species_count,
                costs=np.ones(counts.parcel_count, dtype=np.int64),
                budget=args.budget,
            )
    with _blame(args.problem or args.counts):
        solution = solve(problem)
    fileio.write_json(args.out, fileio.solution_to_obj(solution))
    print(f"wrote {args.out} (objective {solution.objective}, spent {solution.spent} of {problem.budget})")
    return 0


def _cmd_sweep(args) -> int:
    with _blame(args.scenario):
        rows = budget_sweep(_read(args.scenario, fileio.scenario_from_obj))
    fileio.write_text_atomic(args.out, fileio.sweep_rows_to_csv(rows))
    note = f"wrote {args.out} ({len(rows)} budgets)"
    if len(rows) >= 3:
        stats = summarize(rows)
        note += f"; interior similarity min {stats.min} mean {stats.mean:.2f} median {stats.median:g}"
    print(note)
    return 0


def _cmd_render(args) -> int:
    if args.scenario is not None:
        _mode(args, "scenario", needs="budget", refuses=("solution", "counts2", "solution2"))
        with _blame(args.scenario):
            scenario = _read(args.scenario, fileio.scenario_from_obj)
            labels, grids = ("observed counts", "projected counts"), _model_grids(scenario)
            matrices = [grid.matrix() for grid in grids]
            solved = solve_models(matrices, scenario.weights, scenario.costs, [args.budget])
            solutions = [ReserveSolution(xs[0], objectives[0], spent[0]) for xs, objectives, spent in solved]
            panels = [Panel(label, grid, sol) for label, grid, sol in zip(labels, grids, solutions)]
    else:
        _mode(args, "counts", needs="solution", refuses=("budget",))
        if (args.counts2 is None) != (args.solution2 is None):
            args.parser.error("--counts2 and --solution2 go together")
        panels = []
        pairs = [(args.counts, args.solution), (args.counts2, args.solution2)]
        for counts, solution in pairs[: 1 + (args.counts2 is not None)]:
            grid = _read(counts, fileio.counts_from_obj)
            with _blame(solution):
                panels.append(Panel(Path(solution).stem, grid, _read(solution, fileio.solution_from_obj)))
    with _blame(args.counts2):  # only a second counts grid can differ from the first
        caption = caption_text(panels)
    fileio.write_text_atomic(args.out, render_grid(panels))
    print(f"wrote {args.out}" + (f": {caption}" if caption else ""))
    return 0


def _cmd_report(args) -> int:
    cases = []  # (label, budgets, similarities, stats) per sweep
    for path in args.sweeps:
        with _blame(path):
            text = Path(path).read_text(encoding="utf-8")
            rows = sorted(fileio.sweep_csv_to_rows(text), key=lambda r: r["budget"])
            budgets, similarities = [r["budget"] for r in rows], [r["similarity"] for r in rows]
            stats = summarize_similarities(budgets, similarities)
            if args.plot_out is not None and cases and budgets != cases[0][1]:
                raise ValueError(f"budget grid differs from {args.sweeps[0]}; cannot align plot data")
        cases.append((Path(path).stem, budgets, similarities, stats))
    rows = [fileio.stats_to_csv_row(label, st) for label, _, _, st in cases]
    series = [(label, sim) for label, _, sim, _ in cases]
    fileio.write_report(args.out, rows, args.plot_out, cases[0][1], series)  # all or none
    print(f"wrote {args.out} ({len(cases)} cases)")
    if args.plot_out is not None:
        print(f"wrote {args.plot_out} ({len(cases[0][1])} budgets x {len(cases)} series)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reserveplan",
        description="Budget-constrained reserve selection on synthetic landscapes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a landscape pool, species suite, and scenarios")
    p.add_argument("--seed", type=_natural, required=True, help="base seed for all randomness")
    p.add_argument("--out", required=True, help="suite JSON output path")
    p.add_argument("--pool-size", type=_pool_size, default=10_000, help="landscapes to generate")
    p.add_argument("--grid", type=_positive, default=10, help="landscape side length")
    p.add_argument("--scenario-dir", help="also write case1..case6 scenario JSONs here")
    p.set_defaults(func=_cmd_generate, parser=p)

    p = sub.add_parser("simulate", help="project a counts grid forward in time")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--scenario", help="scenario JSON; uses its counts and parameters")
    mode.add_argument("--counts", help="counts JSON to project")
    p.add_argument("--params", help="dynamics parameter JSON (defaults per species count)")
    p.add_argument("--round", action="store_true", help="round output to integer counts")
    p.add_argument("--out", required=True, help="output JSON path")
    p.set_defaults(func=_cmd_simulate, parser=p)

    p = sub.add_parser("solve", help="solve one parcel-selection problem")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--problem", help="problem JSON")
    mode.add_argument("--counts", help="counts JSON (unit costs, --budget required)")
    p.add_argument("--budget", type=_budget, help="budget for --counts input")
    p.add_argument("--weights", type=_weights, help="comma-separated species weights, e.g. 9/10,1/10")
    p.add_argument("--out", required=True, help="solution JSON output path")
    p.set_defaults(func=_cmd_solve, parser=p)

    p = sub.add_parser("sweep", help="run a scenario's budget sweep to CSV")
    p.add_argument("--scenario", required=True, help="scenario JSON")
    p.add_argument("--out", required=True, help="sweep CSV output path")
    p.set_defaults(func=_cmd_sweep, parser=p)

    p = sub.add_parser("render", help="render protection maps to SVG")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--scenario", help="scenario JSON; solves both models at --budget")
    mode.add_argument("--counts", help="counts JSON annotating the first panel")
    p.add_argument("--budget", type=_budget, help="budget for --scenario input")
    p.add_argument("--solution", help="solution JSON for the first panel")
    p.add_argument("--counts2", help="counts JSON annotating the second panel")
    p.add_argument("--solution2", help="solution JSON for the second panel")
    p.add_argument("--out", required=True, help="SVG output path")
    p.set_defaults(func=_cmd_render, parser=p)

    p = sub.add_parser("report", help="summarize sweep CSVs into a stats table")
    p.add_argument("sweeps", nargs="+", help="sweep CSV files, one case each")
    p.add_argument("--out", required=True, help="stats CSV output path")
    p.add_argument("--plot-out", help="aligned similarity-vs-budget CSV for plotting")
    p.set_defaults(func=_cmd_report, parser=p)

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
