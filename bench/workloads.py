"""The benchmark's workloads: seeded inputs, one timed unit each, and output checks.

Units call the package through module attributes (``experiment.budget_sweep``
and so on), so that a traced run sees every call. Input generation and checks
run outside the timed region and call the package directly.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from reserveplan import cli, experiment, fileio
from reserveplan.dynamics import default_params, round_counts, simulate
from reserveplan.experiment import MAX_SMOOTHING_ROUNDS, SUITE_LAYOUT, Scenario, SpeciesSpec
from reserveplan.landscape import distribute_population, generate_landscape


@dataclass(frozen=True)
class Workload:
    """One workload: how to make unit inputs from a seed, run a unit, and check it."""

    name: str
    size: str
    make_inputs: Callable[[int], object]
    run_unit: Callable[[object, Path], object]
    check: Callable[[object, object, Path], list[str]]
    digests: Callable[[object, object, Path], dict[str, str]]
    #: The layer the workload is built to spend most of its self time in.
    top_layer: str
    #: The calibration loop (``calibrate.KERNELS``) that does the same kind of work as a unit.
    calibration: str


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# --- shared checks --------------------------------------------------------------

def exact_objective(values: np.ndarray, weights, x: np.ndarray) -> Fraction:
    """Weighted value of a protection vector, in exact rational arithmetic."""
    return sum((Fraction(w) * int(values[i] @ x) for i, w in enumerate(weights)), Fraction(0))


def placement_problems(species) -> list[str]:
    return [
        f"{sp.label}: placed {int(sp.counts.counts.sum())} of {sp.total}"
        for sp in species
        if int(sp.counts.counts.sum()) != sp.total
    ]


def sweep_problems(scenario: Scenario, rows) -> list[str]:
    """Check every row of a budget sweep against the scenario it came from.

    Both protection vectors must be 0/1 and within budget, each objective must
    equal the exact value of its vector, the similarity must count matching
    entries, and the observed-model optimum must dominate the projected choice
    valued on observed counts.
    """
    observed = scenario.observed()
    values = {1: observed.matrix(), 2: round_counts(simulate(observed, scenario.lv_params)).matrix()}
    costs = np.asarray(scenario.costs, dtype=np.int64)
    if [r.budget for r in rows] != list(scenario.budgets):
        return [f"sweep budgets {[r.budget for r in rows]} != {list(scenario.budgets)}"]
    problems = []
    for r in rows:
        xs = {1: np.asarray(r.x_1), 2: np.asarray(r.x_2)}
        if any(x.shape != costs.shape or not np.all((x == 0) | (x == 1)) for x in xs.values()):
            problems.append(f"budget {r.budget}: a protection vector is not 0/1 over every parcel")
            continue
        xs = {m: x.astype(np.int64) for m, x in xs.items()}
        for model, objective in ((1, r.objective_1), (2, r.objective_2)):
            spent = int(costs @ xs[model])
            if spent > r.budget:
                problems.append(f"budget {r.budget}: x_{model} spends {spent}")
            exact = exact_objective(values[model], scenario.weights, xs[model])
            if exact != objective:
                problems.append(f"budget {r.budget}: objective_{model} {objective} != {exact}")
        if r.similarity != int(np.sum(xs[1] == xs[2])):
            problems.append(f"budget {r.budget}: similarity {r.similarity} miscounted")
        if r.objective_1 < exact_objective(values[1], scenario.weights, xs[2]):
            problems.append(f"budget {r.budget}: observed optimum beaten by the projected choice")
    return problems


# --- paper: the README walkthrough through the library --------------------------

@dataclass(frozen=True)
class PaperInputs:
    seed: int
    pool_size: int
    grid: int


@dataclass(frozen=True)
class PaperOutputs:
    suite: list
    scenarios: list
    sweeps: list
    exit_codes: tuple[int, int]


def paper_unit(inputs: PaperInputs, workdir: Path) -> PaperOutputs:
    seed = inputs.seed
    suite = experiment.build_species_suite(seed, inputs.pool_size, inputs.grid)
    scenarios = experiment.default_scenarios(suite, seed=seed)
    fileio.write_json(
        workdir / "suite.json",
        fileio.suite_to_obj(suite, seed=seed, pool_size=inputs.pool_size, grid=inputs.grid),
    )
    cases = [workdir / f"case{i}.json" for i in range(1, len(scenarios) + 1)]
    for path, scenario in zip(cases, scenarios):
        fileio.write_json(path, fileio.scenario_to_obj(scenario))
    loaded = [fileio.scenario_from_obj(fileio.read_json(path)) for path in cases]
    sweeps = [experiment.budget_sweep(scenario) for scenario in loaded]
    sweep_csvs = [str(path.with_suffix(".csv")) for path in cases]
    for path, rows in zip(sweep_csvs, sweeps):
        fileio.write_text_atomic(path, fileio.sweep_rows_to_csv(rows))
    with contextlib.redirect_stdout(io.StringIO()):
        report = cli.main(
            ["report", *sweep_csvs, "--out", str(workdir / "stats.csv"),
             "--plot-out", str(workdir / "similarity.csv")]
        )
        render = cli.main(
            ["render", "--scenario", str(cases[1]), "--budget", "55",
             "--out", str(workdir / "case2-b55.svg")]
        )
    return PaperOutputs(suite, loaded, sweeps, (report, render))


def paper_check(inputs: PaperInputs, out: PaperOutputs, workdir: Path) -> list[str]:
    problems = [] if out.exit_codes == (0, 0) else [f"cli exit codes {out.exit_codes}"]
    if [sp.total for sp in out.suite] != [total for _, _, total in SUITE_LAYOUT]:
        problems.append("suite totals differ from the default layout")
    problems += placement_problems(out.suite)
    for i, (scenario, rows) in enumerate(zip(out.scenarios, out.sweeps), start=1):
        problems += [f"case{i}: {p}" for p in sweep_problems(scenario, rows)]
    return problems


def paper_digests(inputs: PaperInputs, out: PaperOutputs, workdir: Path) -> dict[str, str]:
    return {p.name: _sha256(p.read_bytes()) for p in sorted(workdir.iterdir())}


# --- knapsack: one budget sweep of a seeded scenario ----------------------------

def scenario_inputs(
    seed: int, *, grid: int, densities: tuple[float, ...], max_cost: int,
    budget_count: int, budget_share: float,
) -> Scenario:
    """A seeded scenario: one generated landscape and placement per species.

    Species j holds ``densities[j]`` individuals per parcel. Parcel costs are
    uniform integers in 1..max_cost, and the budgets are ``budget_count``
    evenly spaced values from 0 to ``budget_share`` of the total cost.
    """
    rng = np.random.default_rng(seed)
    parcels = grid * grid
    costs = rng.integers(1, max_cost + 1, size=parcels)
    top = int(int(costs.sum()) * budget_share)
    budgets = tuple(round(i * top / (budget_count - 1)) for i in range(budget_count))
    species = []
    for j, density in enumerate(densities):
        rounds = int(rng.integers(0, MAX_SMOOTHING_ROUNDS + 1))
        landscape_seed, placement_seed = (int(v) for v in rng.integers(0, 2**32, size=2))
        landscape = generate_landscape(grid, rounds, landscape_seed)
        total = round(density * parcels)
        species.append(
            SpeciesSpec(
                label=f"S{j}",
                fragmentation_rank=f"{rounds} smoothing rounds",
                total=total,
                landscape=landscape,
                counts=distribute_population(landscape, total, placement_seed),
            )
        )
    return Scenario(
        species=tuple(species),
        weights=tuple(Fraction(1) for _ in species),
        budgets=budgets,
        costs=costs,
        lv_params=default_params(len(species)),
        seed=seed,
    )


def sweep_unit(scenario: Scenario, workdir: Path) -> list:
    return experiment.budget_sweep(scenario)


def sweep_check(scenario: Scenario, rows, workdir: Path) -> list[str]:
    return placement_problems(scenario.species) + sweep_problems(scenario, rows)


def sweep_digests(scenario: Scenario, rows, workdir: Path) -> dict[str, str]:
    return {"sweep.csv": _sha256(fileio.sweep_rows_to_csv(rows).encode())}


# --- registry -------------------------------------------------------------------

PAPER_SIZE = {"pool_size": 10_000, "grid": 10}
KNAPSACK_SIZE = {"grid": 40, "densities": (1.0, 2.5), "max_cost": 9, "budget_count": 21, "budget_share": 0.5}

#: Sizes small enough for the self-tests to run every workload in seconds.
TINY = {
    "paper": {"pool_size": 40, "grid": 4},
    "knapsack": {**KNAPSACK_SIZE, "grid": 6, "budget_count": 5},
}


def _describe(size: dict) -> str:
    return ", ".join(f"{k}={v}" for k, v in size.items())


def workloads(sizes: dict[str, dict] | None = None) -> dict[str, Workload]:
    """The workloads at paper size, or at the given sizes."""
    sizes = sizes or {"paper": PAPER_SIZE, "knapsack": KNAPSACK_SIZE}
    paper = sizes["paper"]
    return {
        "paper": Workload(
            "paper", _describe(paper), lambda seed: PaperInputs(seed, **paper),
            paper_unit, paper_check, paper_digests, top_layer="landscape", calibration="small",
        ),
        "knapsack": Workload(
            "knapsack", _describe(sizes["knapsack"]), partial(scenario_inputs, **sizes["knapsack"]),
            sweep_unit, sweep_check, sweep_digests, top_layer="solver", calibration="table",
        ),
    }
