"""Span tracing for the benchmark, done from outside the package.

``Tracer.install`` swaps each traced public function of ``reserveplan`` for a
timing wrapper, in every loaded ``reserveplan.*`` namespace that holds the
same function object, so calls made through ``experiment -> solver.solve ->
solve_topk`` and the names ``cli`` imports are all caught without editing the
package. ``Tracer.restore`` puts every original back.

Spans are kept in memory as ``[name, start, end, parent, unit]`` lists, where
``parent`` is the index of the enclosing span (-1 at the top of a unit). Work
counts are recorded at the same boundaries by small meter functions.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

#: Traced functions per module; None means every public function in __all__.
TRACED: dict[str, tuple[str, ...] | None] = {
    "landscape": ("generate_landscape", "fragmentation", "select_extremes", "distribute_population"),
    "dynamics": ("simulate", "round_counts"),
    "solver": ("solve", "solve_topk", "solve_dp"),
    "experiment": (
        "build_species_suite",
        "default_scenarios",
        "budget_sweep",
        "summarize",
        "summarize_similarities",
    ),
    "fileio": None,
    "render": ("render_grid",),
    "cli": ("main",),
}

LAYERS = tuple(TRACED)

MB = 1e6


def _bound(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _meter_extremes(counts, fn, args, kwargs, result) -> None:
    most, least = result
    counts["landscape.kept"] += len(most) + len(least)


def _meter_simulate(counts, fn, args, kwargs, result) -> None:
    bound = _bound(fn, args, kwargs)
    observed, params = bound["observed"], bound["params"]
    counts["dynamics.cell_steps"] += observed.species_count * observed.parcel_count * params.T


def _meter_dp(counts, fn, args, kwargs, result) -> None:
    problem = _bound(fn, args, kwargs)["problem"]
    bmax = min(problem.budget, int(problem.costs.sum()))
    cells = (problem.parcel_count + 1) * (bmax + 1)
    counts["solver.dp_cells"] += cells
    # Computed, not measured: the int64 value table solve_dp allocates.
    counts["solver.dp_table_mb.max"] = max(counts["solver.dp_table_mb.max"], 8 * cells / MB)


def _meter_write(counts, fn, args, kwargs, result) -> None:
    counts["fileio.bytes_written"] += len(_bound(fn, args, kwargs)["text"].encode())


def _meter_read_json(counts, fn, args, kwargs, result) -> None:
    counts["fileio.bytes_read"] += os.path.getsize(_bound(fn, args, kwargs)["path"])


def _meter_read_csv(counts, fn, args, kwargs, result) -> None:
    counts["fileio.bytes_read"] += len(_bound(fn, args, kwargs)["text"].encode())


def _meter_svg(counts, fn, args, kwargs, result) -> None:
    counts["render.svg_bytes"] += len(result.encode())


METERS = {
    "landscape.select_extremes": _meter_extremes,
    "dynamics.simulate": _meter_simulate,
    "solver.solve_dp": _meter_dp,
    "fileio.write_text_atomic": _meter_write,
    "fileio.read_json": _meter_read_json,
    "fileio.sweep_csv_to_rows": _meter_read_csv,
    "render.render_grid": _meter_svg,
}


def traced_functions() -> list[tuple[str, object]]:
    """(qualified name, original function) for every function the tracer wraps."""
    found = []
    for layer, names in TRACED.items():
        module = importlib.import_module(f"reserveplan.{layer}")
        if names is None:
            names = tuple(n for n in module.__all__ if inspect.isfunction(getattr(module, n)))
        found.extend((f"{layer}.{name}", getattr(module, name)) for name in names)
    return found


def package_namespaces() -> list[object]:
    return [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "reserveplan"]


class Tracer:
    """Records spans and work counts for calls made while a unit is open."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[object, Counter] = defaultdict(Counter)
        self._stack: list[int] = []
        self._unit: object = None
        self._swapped: list[tuple[object, str, object]] = []

    def open_unit(self, unit) -> None:
        self._unit = unit

    def close_unit(self) -> None:
        self._unit = None

    def install(self) -> None:
        for qualname, original in traced_functions():
            wrapper = self._wrap(qualname, original)
            for module in package_namespaces():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._swapped.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def restore(self) -> list[str]:
        """Put back every original; return the names that still differ (none expected)."""
        for module, attr, original in reversed(self._swapped):
            setattr(module, attr, original)
        left = [
            f"{module.__name__}.{attr}"
            for module, attr, original in self._swapped
            if getattr(module, attr) is not original
        ]
        self._swapped.clear()
        return left

    def _wrap(self, qualname: str, fn):
        meter = METERS.get(qualname)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            unit = tracer._unit
            if unit is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span = [qualname, 0.0, 0.0, stack[-1] if stack else -1, unit]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            counts = tracer.counts[unit]
            counts[f"{qualname}.calls"] += 1
            if meter is not None:
                meter(counts, fn, args, kwargs, result)
            return result

        return wrapper

    def self_times(self) -> dict[object, Counter]:
        """Per unit, each layer's span time minus the time of its direct child spans.

        The key ``"top"`` holds the total time of the unit's top-level spans,
        so that unit time minus ``"top"`` is the time spent outside any span.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, unit in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[object, Counter] = defaultdict(Counter)
        for i, (name, start, end, parent, unit) in enumerate(self.spans):
            out[unit][name.split(".")[0]] += end - start - child[i]
            if parent < 0:
                out[unit]["top"] += end - start
        return out
