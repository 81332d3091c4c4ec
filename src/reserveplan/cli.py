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
from .solver import ReserveProblem, solve

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


def _flag(read, ok=None, want: str = ""):
    """A flag type: ``read(text)``, refused as a usage error on a ValueError, or as
    'must {want}, got ...' when ``ok`` is given and fails for the value."""
    def parse(text: str):
        try:
            value = read(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        if ok is not None and not ok(value):
            raise argparse.ArgumentTypeError(f"must {want}, got {text!r}")
        return value
    return parse


_natural = _flag(decimal_integer)  # a nonnegative integer such as --seed
_budget = _flag(decimal_integer, lambda value: value < 2**63, f"be at most {2**63 - 1}")  # like every budget
_pool_size = _flag(decimal_integer, lambda value: value >= 4, "be at least 4 to pick two extremes each way")
_positive = _flag(lambda text: decimal_integer(text, "positive"), bool, "be a positive integer")
_output = _flag(str, bool, "name a path")  # an empty path would name the working directory
_weights = _flag(lambda text: as_weights(text.split(","), "weights"))  # exact, comma-separated


def _cmd_generate(args) -> str:
    made = []  # the directories this call creates, deepest first, removed again if anything fails
    try:
        if args.scenario_dir is not None:  # made first: a path that cannot be a directory fails fast
            scenario_dir = Path(args.scenario_dir)
            made = list(itertools.takewhile(lambda d: not d.exists(), (scenario_dir, *scenario_dir.parents)))
            with _blame(args.scenario_dir):
                scenario_dir.mkdir(parents=True, exist_ok=True)
        try:
            if args.pool_size * args.grid**2 * 8 > sys.maxsize:  # numpy refuses such arrays naming no flag
                raise MemoryError
            suite = build_species_suite(args.seed, pool_size=args.pool_size, grid=args.grid)
        except MemoryError:
            raise CLIError(
                f"--pool-size {args.pool_size} landscapes of --grid {args.grid} do not fit in memory"
            ) from None
        docs = {args.out: fileio.suite_to_obj(suite, seed=args.seed, pool_size=args.pool_size, grid=args.grid)}
        if args.scenario_dir is not None:
            for i, scenario in enumerate(default_scenarios(suite, seed=args.seed), start=1):
                docs[scenario_dir / f"case{i}.json"] = fileio.scenario_to_obj(scenario)
        fileio.write_jsons(docs)  # all files or none
    except BaseException:
        for directory in made:
            with contextlib.suppress(OSError):  # no longer empty: something else wrote there
                directory.rmdir()
        raise
    note = f"wrote {args.out} ({len(suite)} species, pool {args.pool_size}, {args.grid}x{args.grid} grid)"
    return note + "".join(f"\nwrote {path}" for path in list(docs)[1:])


def _cmd_simulate(args) -> str:
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
    return f"wrote {args.out} ({params.T} steps of {params.dt:g})"


def _cmd_solve(args) -> str:
    if args.problem is not None:
        _mode(args, "problem", refuses=("budget", "weights"))
        problem = _read(args.problem, fileio.problem_from_obj)
    else:
        _mode(args, "counts", needs="budget")
        counts = _read(args.counts, fileio.counts_from_obj)
        if args.weights is not None and len(args.weights) != (species := counts.species_count):
            raise CLIError(f"{args.counts}: --weights gives {len(args.weights)} weights for {species} species")
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
    return f"wrote {args.out} (objective {solution.objective}, spent {solution.spent} of {problem.budget})"


def _cmd_sweep(args) -> str:
    with _blame(args.scenario):
        rows = budget_sweep(_read(args.scenario, fileio.scenario_from_obj))
    fileio.write_text_atomic(args.out, fileio.sweep_rows_to_csv(rows))
    note = f"wrote {args.out} ({len(rows)} budgets)"
    if len(rows) >= 3:
        stats = summarize(rows)
        note += f"; interior similarity min {stats.min} mean {stats.mean:.2f} median {stats.median:g}"
    return note


def _cmd_render(args) -> str:
    if args.scenario is not None:
        _mode(args, "scenario", needs="budget", refuses=("solution", "counts2", "solution2"))
        with _blame(args.scenario):
            scenario = _read(args.scenario, fileio.scenario_from_obj)
            weights, costs = scenario.weights, scenario.costs
            panels = [
                Panel(label, grid, solve(ReserveProblem(grid.matrix(), weights, costs, args.budget)))
                for label, grid in zip(("observed counts", "projected counts"), _model_grids(scenario))
            ]
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
    return f"wrote {args.out}" + (f": {caption}" if caption else "")


def _cmd_report(args) -> str:
    cases = []  # (label, budgets, similarities, stats) per sweep
    for path in args.sweeps:
        if (label := Path(path).stem) in (labels := [case[0] for case in cases]):  # one stats row each
            raise CLIError(f"{args.sweeps[labels.index(label)]} and {path} both name case {label!r}")
        with _blame(path):
            text = Path(path).read_text(encoding="utf-8")
            rows = sorted(fileio.sweep_csv_to_rows(text), key=lambda r: r["budget"])
            budgets, similarities = [r["budget"] for r in rows], [r["similarity"] for r in rows]
            stats = summarize_similarities(budgets, similarities)
            if args.plot_out is not None and cases and budgets != cases[0][1]:
                raise ValueError(f"budget grid differs from {args.sweeps[0]}; cannot align plot data")
        cases.append((label, budgets, similarities, stats))
    rows = [fileio.stats_to_csv_row(label, st) for label, _, _, st in cases]
    series = [(label, sim) for label, _, sim, _ in cases]
    fileio.write_report(args.out, rows, args.plot_out, cases[0][1], series)  # all or none
    plot = f"\nwrote {args.plot_out} ({len(cases[0][1])} budgets x {len(cases)} series)"
    return f"wrote {args.out} ({len(cases)} cases)" + (plot if args.plot_out is not None else "")


_COMMANDS = {
    "generate": (_cmd_generate, "generate a landscape pool, species suite, and scenarios"),
    "simulate": (_cmd_simulate, "project a counts grid forward in time"),
    "solve": (_cmd_solve, "solve one parcel-selection problem"),
    "sweep": (_cmd_sweep, "run a scenario's budget sweep to CSV"),
    "render": (_cmd_render, "render protection maps to SVG"),
    "report": (_cmd_report, "summarize sweep CSVs into a stats table"),
}


def build_parser() -> argparse.ArgumentParser:
    description = "Budget-constrained reserve selection on synthetic landscapes."
    parser = argparse.ArgumentParser(prog="reserveplan", description=description)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text) in _COMMANDS.items():
        _add_arguments(name, sub.add_parser(name, help=text))
    return parser


def _add_arguments(name: str, p: argparse.ArgumentParser) -> argparse.ArgumentParser:
    if name == "generate":
        p.add_argument("--seed", type=_natural, required=True, help="base seed for all randomness")
        p.add_argument("--out", type=_output, required=True, help="suite JSON output path")
        p.add_argument("--pool-size", type=_pool_size, default=10_000, help="landscapes to generate")
        p.add_argument("--grid", type=_positive, default=10, help="landscape side length")
        p.add_argument("--scenario-dir", type=_output, help="also write case1..case6 scenario JSONs here")
    elif name == "simulate":
        mode = p.add_mutually_exclusive_group(required=True)
        mode.add_argument("--scenario", help="scenario JSON; uses its counts and parameters")
        mode.add_argument("--counts", help="counts JSON to project")
        p.add_argument("--params", help="dynamics parameter JSON (defaults per species count)")
        p.add_argument("--round", action="store_true", help="round output to integer counts")
        p.add_argument("--out", type=_output, required=True, help="output JSON path")
    elif name == "solve":
        mode = p.add_mutually_exclusive_group(required=True)
        mode.add_argument("--problem", help="problem JSON")
        mode.add_argument("--counts", help="counts JSON (unit costs, --budget required)")
        p.add_argument("--budget", type=_budget, help="budget for --counts input")
        p.add_argument("--weights", type=_weights, help="comma-separated species weights, e.g. 9/10,1/10")
        p.add_argument("--out", type=_output, required=True, help="solution JSON output path")
    elif name == "sweep":
        p.add_argument("--scenario", required=True, help="scenario JSON")
        p.add_argument("--out", type=_output, required=True, help="sweep CSV output path")
    elif name == "render":
        mode = p.add_mutually_exclusive_group(required=True)
        mode.add_argument("--scenario", help="scenario JSON; solves both models at --budget")
        mode.add_argument("--counts", help="counts JSON annotating the first panel")
        p.add_argument("--budget", type=_budget, help="budget for --scenario input")
        p.add_argument("--solution", help="solution JSON for the first panel")
        p.add_argument("--counts2", help="counts JSON annotating the second panel")
        p.add_argument("--solution2", help="solution JSON for the second panel")
        p.add_argument("--out", type=_output, required=True, help="SVG output path")
    else:
        p.add_argument("sweeps", nargs="+", help="sweep CSV files, one case each")
        p.add_argument("--out", type=_output, required=True, help="stats CSV output path")
        p.add_argument("--plot-out", type=_output, help="aligned similarity-vs-budget CSV for plotting")
    p.set_defaults(func=_COMMANDS[name][0], parser=p)
    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args, unknown = None, True
    if argv and argv[0] in _COMMANDS:  # only the named subcommand's parser, as build_parser() gives it
        parser = _add_arguments(argv[0], argparse.ArgumentParser(prog=f"reserveplan {argv[0]}"))
        args, unknown = parser.parse_known_args(argv[1:])
    if unknown:  # no subcommand, or arguments it does not take: the whole parser reports them
        args = build_parser().parse_args(argv)
    try:
        print(args.func(args))  # each command's report, once its files are written
    except (CLIError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
