"""JSON and CSV interchange formats plus atomic file writing.

Schemas (all JSON, grids row-major):

* landscape   {"n": int, "values": [float, ...]}
* counts      {"n": int, "species": int, "counts": [[int, ...], ...]}; projected
              counts use this schema with real-valued entries
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
written atomically (temp file + rename); ``write_jsons`` writes several files
all or none.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import reprlib
from fractions import Fraction
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from ._checks import decimal_integer
from .dynamics import LVParams
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
    "write_jsons",
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
    _write_all({path: text})


def _write_all(texts: Mapping[str | os.PathLike, str]) -> None:
    """Write every (path, text) to a temp sibling, then rename each over its path.

    A target that is a directory or one file under two names is refused
    before any temp file is written; one in a missing directory, and any
    failed write, before the first rename. So no target changes.
    """
    targets = {}
    for path, text in texts.items():
        path = Path(path)
        if path.is_dir():
            raise IsADirectoryError(f"cannot write {path}: it is a directory")
        if (first := targets.setdefault(os.path.realpath(path), (path, text))[0]) is not path:
            raise ValueError(f"cannot write {first} and {path}: they name one file")
    temps = []
    try:
        for path, text in targets.values():
            tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
            try:  # mode 0o666 lets the umask set the permissions, as open() would
                fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
            except FileNotFoundError:
                raise FileNotFoundError(
                    f"cannot write {path}: directory {path.parent} does not exist"
                ) from None
            temps.append((tmp, path))
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
        for tmp, path in temps:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in temps:
            with contextlib.suppress(OSError):  # renamed already, or never written
                os.unlink(tmp)
        raise


def _fail(where: str, message: str) -> SchemaError:
    return SchemaError(f"{where}: {message}")


def _field(obj, key: str, where: str, depth: int | None = None, integer: bool = False):
    """``obj[key]``; with ``depth``, checked as numbers nested ``depth`` lists deep."""
    if not isinstance(obj, dict):
        raise _fail(where, "expected a JSON object")
    if key not in obj:
        raise _fail(f"{where}.{key}", "missing field")
    if depth is None:
        return obj[key]
    return _numbers(obj[key], f"{where}.{key}", depth, integer)


_INT, _NUMBER = {int}, {int, float}


def _numbers(value, where: str, depth: int, integer: bool = False):
    """``value`` if it is JSON numbers nested ``depth`` lists deep; names the first bad leaf."""
    if depth == 0:
        if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
            raise _fail(where, f"expected {'an integer' if integer else 'a number'}, got {value!r}")
    elif not isinstance(value, list):
        raise _fail(where, "expected a list")
    elif depth > 1 or not set(map(type, value)) <= (_INT if integer else _NUMBER):
        # a flat list of exact ints and floats passes in one type pass; the walk names a bad leaf
        for i, item in enumerate(value):
            _numbers(item, f"{where}[{i}]", depth - 1, integer)
    return value


def _build(cls, where: str, **fields):
    """``cls(**fields)``, with a refusal by the constructor reported at ``where``."""
    try:
        return cls(**fields)
    except ValueError as exc:
        raise _fail(where, str(exc)) from exc


def _fraction(pair: list, where: str) -> Fraction:
    """An integer ``[numerator, denominator]`` pair as a Fraction."""
    if len(pair) != 2 or pair[1] == 0:
        raise _fail(where, "expected a [numerator, denominator] pair with a nonzero denominator")
    return Fraction(*pair)


def _fractions(obj, key: str, where: str) -> list[Fraction]:
    """``obj[key]``, a list of ``[numerator, denominator]`` pairs, as Fractions."""
    pairs = _field(obj, key, where, 2, integer=True)
    return [_fraction(pair, f"{where}.{key}[{i}]") for i, pair in enumerate(pairs)]


# --- landscape ---------------------------------------------------------------

def landscape_to_obj(landscape: Landscape) -> dict:
    return {"n": landscape.n, "values": landscape.values.ravel().tolist()}


def landscape_from_obj(obj, where: str = "landscape") -> Landscape:
    n = _field(obj, "n", where, 0, integer=True)
    values = _field(obj, "values", where, 1)
    if n < 1 or len(values) != n * n:
        raise _fail(f"{where}.values", f"expected {n * n} values for n={n}, got {len(values)}")
    return _build(Landscape, f"{where}.values", values=np.reshape(values, (n, n)))


# --- counts / projected counts ------------------------------------------------

def counts_to_obj(counts: np.ndarray) -> dict:
    """A (species, n, n) array of integer or projected counts as a counts document."""
    species, n, _ = counts.shape
    return {"n": n, "species": species, "counts": counts.reshape(species, -1).tolist()}


def counts_from_obj(obj, where: str = "counts") -> CountsGrid:
    n = _field(obj, "n", where, 0, integer=True)
    species = _field(obj, "species", where, 0, integer=True)
    rows = _field(obj, "counts", where, 2)
    if n < 1 or len(rows) != species or any(len(row) != n * n for row in rows):
        raise _fail(f"{where}.counts", f"expected {species} per-species arrays of {n * n} entries")
    return _build(CountsGrid, f"{where}.counts", counts=np.reshape(rows, (species, n, n)))


# --- dynamics parameters ------------------------------------------------------

def params_to_obj(params: LVParams) -> dict:
    return {
        "r": params.r.tolist(),
        "alpha": params.alpha.tolist(),
        "beta": params.beta.tolist(),
        "dt": params.dt,
        "T": params.T,
    }


def params_from_obj(obj, where: str = "params") -> LVParams:
    return _build(
        LVParams,
        where,
        r=_field(obj, "r", where, 1),
        beta=_field(obj, "beta", where, 1),
        alpha=_field(obj, "alpha", where, 2),
        dt=_field(obj, "dt", where, 0),
        T=_field(obj, "T", where, 0, integer=True),
    )


# --- reserve problems and solutions -------------------------------------------

def _fraction_to_pair(value: Fraction) -> list[int]:
    return [value.numerator, value.denominator]


def problem_to_obj(problem: ReserveProblem) -> dict:
    return {
        "values": problem.values.tolist(),
        "weights": [_fraction_to_pair(w) for w in problem.weights],
        "costs": problem.costs.tolist(),
        "budget": problem.budget,
    }


def problem_from_obj(obj, where: str = "problem") -> ReserveProblem:
    return _build(
        ReserveProblem,
        where,
        values=_field(obj, "values", where, 2, integer=True),
        weights=_fractions(obj, "weights", where),
        costs=_field(obj, "costs", where, 1, integer=True),
        budget=_field(obj, "budget", where, 0, integer=True),
    )


def solution_to_obj(solution: ReserveSolution) -> dict:
    return {
        "x": solution.x.tolist(),
        "objective": _fraction_to_pair(solution.objective),
        "spent": solution.spent,
    }


def solution_from_obj(obj, where: str = "solution") -> ReserveSolution:
    return _build(
        ReserveSolution,
        where,
        x=_field(obj, "x", where, 1, integer=True),
        objective=_fraction(_field(obj, "objective", where, 1, integer=True), f"{where}.objective"),
        spent=_field(obj, "spent", where, 0, integer=True),
    )


# --- species, scenarios, suites -----------------------------------------------

def _species_to_obj(spec: SpeciesSpec) -> dict:
    return {
        "id": spec.label,
        "fragmentation_rank": spec.fragmentation_rank,
        "total": spec.total,
        "landscape": landscape_to_obj(spec.landscape),
        "counts": counts_to_obj(spec.counts.counts),
    }


def _species_from_obj(obj, where: str) -> SpeciesSpec:
    for key in ("id", "fragmentation_rank"):
        if not isinstance(_field(obj, key, where), str):
            raise _fail(f"{where}.{key}", "expected a string")
    return _build(
        SpeciesSpec,
        where,
        label=obj["id"],
        fragmentation_rank=obj["fragmentation_rank"],
        total=_field(obj, "total", where, 0, integer=True),
        landscape=landscape_from_obj(_field(obj, "landscape", where), f"{where}.landscape"),
        counts=counts_from_obj(_field(obj, "counts", where), f"{where}.counts"),
    )


def scenario_to_obj(scenario: Scenario) -> dict:
    return {
        "seed": scenario.seed,
        "weights": [_fraction_to_pair(w) for w in scenario.weights],
        "budgets": list(scenario.budgets),
        "costs": scenario.costs.tolist(),
        "lv_params": params_to_obj(scenario.lv_params),
        "species": [_species_to_obj(sp) for sp in scenario.species],
    }


def scenario_from_obj(obj, where: str = "scenario") -> Scenario:
    seed = obj.get("seed") if isinstance(obj, dict) else None
    return _build(
        Scenario,
        where,
        seed=None if seed is None else _field(obj, "seed", where, 0, integer=True),
        weights=_fractions(obj, "weights", where),
        budgets=_field(obj, "budgets", where, 1, integer=True),
        costs=_field(obj, "costs", where, 1, integer=True),
        lv_params=params_from_obj(_field(obj, "lv_params", where), f"{where}.lv_params"),
        species=suite_from_obj(obj, where),
    )


def suite_to_obj(suite: Sequence[SpeciesSpec], *, seed: int, pool_size: int, grid: int) -> dict:
    return {
        "seed": seed,
        "pool_size": pool_size,
        "grid": grid,
        "species": [_species_to_obj(sp) for sp in suite],
    }


def suite_from_obj(obj, where: str = "suite") -> list[SpeciesSpec]:
    """The species of a suite document, or of a scenario document."""
    raw = _field(obj, "species", where)
    if not isinstance(raw, list) or not raw:
        raise _fail(f"{where}.species", "expected a nonempty list")
    return [_species_from_obj(sp, f"{where}.species[{i}]") for i, sp in enumerate(raw)]


# --- files --------------------------------------------------------------------

def read_json(path: str | os.PathLike):
    """Parse a strict JSON file; schema errors downstream carry the file name via the CLI.

    ``NaN`` and ``Infinity`` literals, numbers that overflow a float and a key
    repeated within one object are refused.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle, parse_constant=_finite_float, parse_float=_finite_float,
                             object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise SchemaError(f"invalid JSON: non-finite number {text}")
    return value


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise SchemaError(f"invalid JSON: repeated key {key!r}")
        obj[key] = value
    return obj


def _json_text(obj) -> str:
    """``json.dumps(obj, indent=2) + "\\n"``, with each flat list written by json's C encoder."""
    return _indented(obj, "\n") + "\n"


_SCALAR = {str, int, float, bool, type(None)}  # exact types the C encoder writes as the indenting one does


def _indented(value, pad: str) -> str:
    """``value`` as ``json.dumps(indent=2)`` writes it at the depth where lines start with ``pad``."""
    inner = pad + "  "
    if isinstance(value, dict) and value:  # json.dumps({key: None}) is "{", the key and ': ', then "null}"
        items = (json.dumps({key: None})[1:-5] + _indented(item, inner) for key, item in value.items())
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(value, (list, tuple)) and value:
        if set(map(type, value)) <= _SCALAR:  # no indent keeps json on its C encoder
            return "[" + inner + json.dumps(value, separators=("," + inner, ": "))[1:-1] + pad + "]"
        return "[" + inner + ("," + inner).join(_indented(item, inner) for item in value) + pad + "]"
    if type(value) in _SCALAR:
        return json.dumps(value)
    # empty containers, subclasses and anything json refuses; JSON text holds no raw newline
    return json.dumps(value, indent=2).replace("\n", pad)


def write_json(path: str | os.PathLike, obj) -> None:
    write_text_atomic(path, _json_text(obj))


def write_jsons(docs: Mapping[str | os.PathLike, object]) -> None:
    """Write several JSON documents, all or none (see ``_write_all``)."""
    _write_all({path: _json_text(obj) for path, obj in docs.items()})


SWEEP_HEADER = ["budget", "similarity", "objective1", "objective2"]
STATS_HEADER = ["case", "min", "average", "median"]


def _csv_text(header: Sequence, rows) -> str:
    """``header`` and ``rows`` as CSV text with LF line endings."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def sweep_rows_to_csv(rows: Sequence[SweepRow]) -> str:
    """Render sweep rows as CSV text (LF line endings, exact rational objectives)."""
    return _csv_text(
        SWEEP_HEADER,
        ([r.budget, r.similarity, str(r.objective_1), str(r.objective_2)] for r in rows),
    )


def sweep_csv_to_rows(text: str, where: str = "sweep") -> list[dict]:
    """Parse a sweep CSV into dicts with integer budget/similarity and Fraction objectives."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise _fail(where, "empty CSV") from None
    if header != SWEEP_HEADER:
        raise _fail(f"{where}.header", f"expected {','.join(SWEEP_HEADER)}, got {','.join(header)}")
    rows, lines = [], {}  # lines: budget -> line number it was first read on
    for lineno, record in enumerate(reader, start=2):
        if not record:
            continue
        line = f"{where}.line{lineno}"
        if len(record) != len(SWEEP_HEADER):
            raise _fail(line, f"expected {len(SWEEP_HEADER)} columns")
        values = []
        for field, text in zip(SWEEP_HEADER[:2], record):
            try:
                values.append(decimal_integer(text))
            except ValueError as exc:
                raise _fail(line, f"{field} {exc}") from None
        for field, text in zip(SWEEP_HEADER[2:], record[2:]):
            try:
                values.append(Fraction(text))
            except (ValueError, ZeroDivisionError):
                raise _fail(line, f"{field} must be a rational number, got {reprlib.repr(text)}") from None
            if values[-1] < 0:
                raise _fail(line, f"{field} must be nonnegative, got {values[-1]}")
        budget = values[0]
        rows.append(dict(zip(SWEEP_HEADER, values)))
        if budget in lines:
            raise _fail(line, f"budget {budget} repeats line {lines[budget]}")
        lines[budget] = lineno
    if not rows:
        raise _fail(where, "no data rows")
    return rows


def stats_to_csv_row(case: str, stats: SimilarityStats) -> list[str]:
    """One stats table row; means carry two decimals, medians drop trailing zeros."""
    return [case, str(stats.min), f"{stats.mean:.2f}", f"{stats.median:g}"]


def write_stats_csv(path: str | os.PathLike, rows: Sequence[Sequence[str]]) -> None:
    write_text_atomic(path, _csv_text(STATS_HEADER, rows))


def write_plot_csv(
    path: str | os.PathLike, budgets: Sequence[int], series: Sequence[tuple[str, Sequence[int]]]
) -> None:
    """Aligned similarity-vs-budget series, one labelled column per sweep."""
    header = ["budget"] + [label for label, _ in series]
    rows = ([budget] + [values[i] for _, values in series] for i, budget in enumerate(budgets))
    write_text_atomic(path, _csv_text(header, rows))
