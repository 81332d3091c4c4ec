"""JSON and CSV interchange formats plus atomic file writing.

Schemas (all JSON, grids row-major):

* landscape   {"n": int, "values": [float, ...]}
* counts      {"n": int, "species": int, "counts": [[int, ...], ...]}
* projected   same shape as counts with real-valued entries
* params      {"r": [...], "alpha": [[...]], "beta": [...], "dt": float, "T": int}
* problem     {"values": [[int, ...], ...], "weights": [[num, den], ...],
               "costs": [int, ...], "budget": int}
* solution    {"x": [0/1, ...], "objective": [num, den], "spent": int}
* scenario    {"seed": int|null, "weights": ..., "budgets": [...], "costs": [...],
               "lv_params": {...}, "species": [{"id", "fragmentation_rank",
               "total", "landscape": {...}, "counts": {...}}, ...]}
* suite       {"seed": int, "pool_size": int, "grid": int, "species": [...]}

Sweep CSVs carry columns budget,similarity,objective1,objective2; stats CSVs
carry case,min,average,median. All text files end lines with LF and are
written atomically (temp file + rename).
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import tempfile
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import numpy as np

from .dynamics import LVParams, SimulatedGrid
from .experiment import Scenario, SimilarityStats, SpeciesSpec, SweepRow
from .landscape import CountsGrid, Landscape
from .solver import ReserveProblem, ReserveSolution

__all__ = [
    "SchemaError",
    "write_text_atomic",
    "landscape_to_obj",
    "landscape_from_obj",
    "counts_to_obj",
    "counts_from_obj",
    "projected_to_obj",
    "params_to_obj",
    "params_from_obj",
    "problem_to_obj",
    "problem_from_obj",
    "solution_to_obj",
    "solution_from_obj",
    "scenario_to_obj",
    "scenario_from_obj",
    "suite_to_obj",
    "suite_from_obj",
    "read_json",
    "write_json",
    "sweep_rows_to_csv",
    "sweep_csv_to_rows",
    "stats_to_csv_row",
    "write_stats_csv",
    "write_plot_csv",
]


class SchemaError(ValueError):
    """A document does not match its schema; the message names the offending field."""


def write_text_atomic(path: str | os.PathLike, text: str) -> None:
    """Write a file via a temp sibling and rename, so readers never see partial output."""
    path = Path(path)
    try:
        fd, tmp = tempfile.mkstemp(
            dir=path.parent or Path("."), prefix=path.name, suffix=".tmp"
        )
    except FileNotFoundError:
        raise FileNotFoundError(
            f"cannot write {path}: directory {path.parent} does not exist"
        ) from None
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _fail(where: str, message: str) -> SchemaError:
    return SchemaError(f"{where}: {message}")


def _require(obj, key: str, where: str):
    if not isinstance(obj, dict):
        raise _fail(where, "expected a JSON object")
    if key not in obj:
        raise _fail(f"{where}.{key}", "missing field")
    return obj[key]


def _as_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _fail(where, f"expected an integer, got {value!r}")
    return value


def _as_number_list(value, where: str) -> list[float]:
    if not isinstance(value, list) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in value
    ):
        raise _fail(where, "expected a list of numbers")
    return [float(v) for v in value]


def _as_int_list(value, where: str) -> list[int]:
    if not isinstance(value, list):
        raise _fail(where, "expected a list of integers")
    return [_as_int(v, f"{where}[{i}]") for i, v in enumerate(value)]


# --- landscape ---------------------------------------------------------------

def landscape_to_obj(landscape: Landscape) -> dict:
    return {"n": landscape.n, "values": [float(v) for v in landscape.values.ravel()]}


def landscape_from_obj(obj, where: str = "landscape") -> Landscape:
    n = _as_int(_require(obj, "n", where), f"{where}.n")
    values = _as_number_list(_require(obj, "values", where), f"{where}.values")
    if n < 1 or len(values) != n * n:
        raise _fail(f"{where}.values", f"expected {n * n} values for n={n}, got {len(values)}")
    try:
        return Landscape(n=n, values=np.asarray(values).reshape(n, n))
    except ValueError as exc:
        raise _fail(f"{where}.values", str(exc)) from exc


# --- counts / projected counts ------------------------------------------------

def counts_to_obj(grid: CountsGrid) -> dict:
    return {
        "n": grid.n,
        "species": grid.species_count,
        "counts": [[int(v) for v in row] for row in grid.matrix()],
    }


def counts_from_obj(obj, where: str = "counts") -> CountsGrid:
    n = _as_int(_require(obj, "n", where), f"{where}.n")
    species = _as_int(_require(obj, "species", where), f"{where}.species")
    raw = _require(obj, "counts", where)
    if not isinstance(raw, list) or len(raw) != species:
        raise _fail(f"{where}.counts", f"expected {species} per-species arrays")
    rows = []
    for i, row in enumerate(raw):
        numbers = _as_number_list(row, f"{where}.counts[{i}]")
        if len(numbers) != n * n:
            raise _fail(f"{where}.counts[{i}]", f"expected {n * n} entries, got {len(numbers)}")
        rows.append(numbers)
    try:
        return CountsGrid(n=n, counts=np.asarray(rows).reshape(species, n, n))
    except ValueError as exc:
        raise _fail(f"{where}.counts", str(exc)) from exc


def projected_to_obj(grid: SimulatedGrid) -> dict:
    """Real-valued projected counts in the counts schema."""
    return {
        "n": grid.n,
        "species": grid.species_count,
        "counts": [[float(v) for v in row] for row in grid.matrix()],
    }


# --- dynamics parameters ------------------------------------------------------

def params_to_obj(params: LVParams) -> dict:
    return {
        "r": [float(v) for v in params.r],
        "alpha": [[float(v) for v in row] for row in params.alpha],
        "beta": [float(v) for v in params.beta],
        "dt": params.dt,
        "T": params.T,
    }


def params_from_obj(obj, where: str = "params") -> LVParams:
    r = _as_number_list(_require(obj, "r", where), f"{where}.r")
    beta = _as_number_list(_require(obj, "beta", where), f"{where}.beta")
    raw_alpha = _require(obj, "alpha", where)
    if not isinstance(raw_alpha, list):
        raise _fail(f"{where}.alpha", "expected a list of rows")
    alpha = [_as_number_list(row, f"{where}.alpha[{i}]") for i, row in enumerate(raw_alpha)]
    dt = _require(obj, "dt", where)
    if isinstance(dt, bool) or not isinstance(dt, (int, float)):
        raise _fail(f"{where}.dt", f"expected a number, got {dt!r}")
    T = _as_int(_require(obj, "T", where), f"{where}.T")
    try:
        return LVParams(
            r=np.asarray(r), alpha=np.asarray(alpha), beta=np.asarray(beta), dt=float(dt), T=T
        )
    except ValueError as exc:
        raise _fail(where, str(exc)) from exc


# --- reserve problems and solutions -------------------------------------------

def _fraction_to_pair(value: Fraction) -> list[int]:
    return [value.numerator, value.denominator]


def _fraction_from_pair(value, where: str) -> Fraction:
    if not isinstance(value, list) or len(value) != 2:
        raise _fail(where, "expected a [numerator, denominator] pair")
    num = _as_int(value[0], f"{where}[0]")
    den = _as_int(value[1], f"{where}[1]")
    if den == 0:
        raise _fail(where, "denominator must be nonzero")
    return Fraction(num, den)


def problem_to_obj(problem: ReserveProblem) -> dict:
    return {
        "values": [[int(v) for v in row] for row in problem.values],
        "weights": [_fraction_to_pair(w) for w in problem.weights],
        "costs": [int(c) for c in problem.costs],
        "budget": problem.budget,
    }


def problem_from_obj(obj, where: str = "problem") -> ReserveProblem:
    raw_values = _require(obj, "values", where)
    if not isinstance(raw_values, list) or not raw_values:
        raise _fail(f"{where}.values", "expected a nonempty list of per-species arrays")
    values = [_as_int_list(row, f"{where}.values[{i}]") for i, row in enumerate(raw_values)]
    raw_weights = _require(obj, "weights", where)
    if not isinstance(raw_weights, list):
        raise _fail(f"{where}.weights", "expected a list of [num, den] pairs")
    weights = [
        _fraction_from_pair(w, f"{where}.weights[{i}]") for i, w in enumerate(raw_weights)
    ]
    costs = _as_int_list(_require(obj, "costs", where), f"{where}.costs")
    budget = _as_int(_require(obj, "budget", where), f"{where}.budget")
    try:
        return ReserveProblem(
            values=np.asarray(values), weights=tuple(weights), costs=np.asarray(costs), budget=budget
        )
    except ValueError as exc:
        raise _fail(where, str(exc)) from exc


def solution_to_obj(solution: ReserveSolution) -> dict:
    return {
        "x": [int(v) for v in solution.x],
        "objective": _fraction_to_pair(solution.objective),
        "spent": solution.spent,
    }


def solution_from_obj(obj, where: str = "solution") -> ReserveSolution:
    x = _as_int_list(_require(obj, "x", where), f"{where}.x")
    objective = _fraction_from_pair(_require(obj, "objective", where), f"{where}.objective")
    spent = _as_int(_require(obj, "spent", where), f"{where}.spent")
    try:
        return ReserveSolution(x=np.asarray(x), objective=objective, spent=spent)
    except ValueError as exc:
        raise _fail(f"{where}.x", str(exc)) from exc


# --- species, scenarios, suites -----------------------------------------------

def _species_to_obj(spec: SpeciesSpec) -> dict:
    return {
        "id": spec.label,
        "fragmentation_rank": spec.fragmentation_rank,
        "total": spec.total,
        "landscape": landscape_to_obj(spec.landscape),
        "counts": counts_to_obj(spec.counts),
    }


def _species_from_obj(obj, where: str) -> SpeciesSpec:
    label = _require(obj, "id", where)
    if not isinstance(label, str):
        raise _fail(f"{where}.id", "expected a string")
    rank = _require(obj, "fragmentation_rank", where)
    if not isinstance(rank, str):
        raise _fail(f"{where}.fragmentation_rank", "expected a string")
    total = _as_int(_require(obj, "total", where), f"{where}.total")
    landscape = landscape_from_obj(_require(obj, "landscape", where), f"{where}.landscape")
    counts = counts_from_obj(_require(obj, "counts", where), f"{where}.counts")
    try:
        return SpeciesSpec(
            label=label, fragmentation_rank=rank, total=total, landscape=landscape, counts=counts
        )
    except ValueError as exc:
        raise _fail(where, str(exc)) from exc


def scenario_to_obj(scenario: Scenario) -> dict:
    return {
        "seed": scenario.seed,
        "weights": [_fraction_to_pair(w) for w in scenario.weights],
        "budgets": list(scenario.budgets),
        "costs": [int(c) for c in scenario.costs],
        "lv_params": params_to_obj(scenario.lv_params),
        "species": [_species_to_obj(sp) for sp in scenario.species],
    }


def scenario_from_obj(obj, where: str = "scenario") -> Scenario:
    seed = obj.get("seed") if isinstance(obj, dict) else None
    if seed is not None:
        seed = _as_int(seed, f"{where}.seed")
    raw_weights = _require(obj, "weights", where)
    if not isinstance(raw_weights, list):
        raise _fail(f"{where}.weights", "expected a list of [num, den] pairs")
    weights = tuple(
        _fraction_from_pair(w, f"{where}.weights[{i}]") for i, w in enumerate(raw_weights)
    )
    budgets = _as_int_list(_require(obj, "budgets", where), f"{where}.budgets")
    costs = _as_int_list(_require(obj, "costs", where), f"{where}.costs")
    lv_params = params_from_obj(_require(obj, "lv_params", where), f"{where}.lv_params")
    raw_species = _require(obj, "species", where)
    if not isinstance(raw_species, list) or not raw_species:
        raise _fail(f"{where}.species", "expected a nonempty list")
    species = tuple(
        _species_from_obj(sp, f"{where}.species[{i}]") for i, sp in enumerate(raw_species)
    )
    try:
        return Scenario(
            species=species,
            weights=weights,
            budgets=tuple(budgets),
            costs=np.asarray(costs),
            lv_params=lv_params,
            seed=seed,
        )
    except ValueError as exc:
        raise _fail(where, str(exc)) from exc


def suite_to_obj(suite: Sequence[SpeciesSpec], *, seed: int, pool_size: int, grid: int) -> dict:
    return {
        "seed": seed,
        "pool_size": pool_size,
        "grid": grid,
        "species": [_species_to_obj(sp) for sp in suite],
    }


def suite_from_obj(obj, where: str = "suite") -> list[SpeciesSpec]:
    raw = _require(obj, "species", where)
    if not isinstance(raw, list) or not raw:
        raise _fail(f"{where}.species", "expected a nonempty list")
    return [_species_from_obj(sp, f"{where}.species[{i}]") for i, sp in enumerate(raw)]


# --- files --------------------------------------------------------------------

def read_json(path: str | os.PathLike):
    """Parse a strict JSON file; schema errors downstream carry the file name via the CLI.

    ``NaN`` and ``Infinity`` literals and numbers that overflow a float are refused.
    """
    try:
        with open(path, "r") as handle:
            return json.load(handle, parse_constant=_finite_float, parse_float=_finite_float)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise SchemaError(f"invalid JSON: non-finite number {text}")
    return value


def write_json(path: str | os.PathLike, obj) -> None:
    write_text_atomic(path, json.dumps(obj, indent=2) + "\n")


SWEEP_HEADER = ["budget", "similarity", "objective1", "objective2"]
STATS_HEADER = ["case", "min", "average", "median"]


def sweep_rows_to_csv(rows: Sequence[SweepRow]) -> str:
    """Render sweep rows as CSV text (LF line endings, exact rational objectives)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(SWEEP_HEADER)
    for row in rows:
        writer.writerow([row.budget, row.similarity, str(row.objective_1), str(row.objective_2)])
    return out.getvalue()


def sweep_csv_to_rows(text: str, where: str = "sweep") -> list[dict]:
    """Parse a sweep CSV into dicts with integer budget/similarity and Fraction objectives."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise _fail(where, "empty CSV") from None
    if header != SWEEP_HEADER:
        raise _fail(f"{where}.header", f"expected {','.join(SWEEP_HEADER)}, got {','.join(header)}")
    rows = []
    for lineno, record in enumerate(reader, start=2):
        if not record:
            continue
        if len(record) != len(SWEEP_HEADER):
            raise _fail(f"{where}.line{lineno}", f"expected {len(SWEEP_HEADER)} columns")
        try:
            rows.append(
                {
                    "budget": int(record[0]),
                    "similarity": int(record[1]),
                    "objective1": Fraction(record[2]),
                    "objective2": Fraction(record[3]),
                }
            )
        except (ValueError, ZeroDivisionError) as exc:
            raise _fail(f"{where}.line{lineno}", str(exc)) from exc
    if not rows:
        raise _fail(where, "no data rows")
    return rows


def stats_to_csv_row(case: str, stats: SimilarityStats) -> list[str]:
    """One stats table row; means carry two decimals, medians drop trailing zeros."""
    return [case, str(stats.min), f"{stats.mean:.2f}", f"{stats.median:g}"]


def write_stats_csv(path: str | os.PathLike, rows: Sequence[Sequence[str]]) -> None:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(STATS_HEADER)
    writer.writerows(rows)
    write_text_atomic(path, out.getvalue())


def write_plot_csv(
    path: str | os.PathLike, budgets: Sequence[int], series: Sequence[tuple[str, Sequence[int]]]
) -> None:
    """Aligned similarity-vs-budget series, one labelled column per sweep."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["budget"] + [label for label, _ in series])
    for i, budget in enumerate(budgets):
        writer.writerow([budget] + [values[i] for _, values in series])
    write_text_atomic(path, out.getvalue())
