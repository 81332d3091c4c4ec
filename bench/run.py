"""Benchmark for reserveplan: end-to-end metrics per workload, per-layer metrics when traced.

Usage, from the repository root:

    python3 bench/run.py --workload paper --seed 0 --seconds 32 --trace 0
    python3 bench/run.py --workload all --trace 1

Each workload repeats one unit of work in a closed loop on one process; unit
``k`` takes its inputs from seed ``seed + k``. Inputs are generated and
outputs are checked outside the timed region. Every run first runs and checks
one untimed reference unit at seed 0, whose output files must match the
SHA-256 digests pinned in ``bench/pinned.json``.

With ``--trace 0`` the run measures end-to-end metrics for ``--seconds``.
With ``--trace 1`` it measures untraced for half the time, then installs the
tracer (``tracing.py``) and measures traced for the other half, runs traced
unit 0 once more to check that every work count repeats exactly, restores the
package, and writes the spans to ``.bench_run/spans-<workload>-seed<n>.json``.

Every timed stretch, a unit or an interpreter start, sits between two short
bursts of a fixed calibration loop (``calibrate.py``) and is scaled by the
machine speed those bursts measure, because this host's speed moves by up to
half within seconds. Times below are in seconds of the reference machine; the
table also prints the unscaled wall-clock values and the measured speed.

End-to-end metrics, from the untraced loop:

* ``setup_s``: median scaled time of fresh interpreters that import the
  package (process start to ready) plus the median scaled input generation
  time of a unit.
* ``units_per_s``: units completed per second of scaled timed wall clock.
* ``unit_s.p50``: median scaled unit time, printed with its unit count.
* ``peak_rss_mb``: peak resident set after the reference unit. Later units add
  heap fragmentation that differs from process to process, so peak RSS at the
  end of a run does not repeat.
* ``failed_frac``: units whose output check failed over units attempted. It
  is printed in the table; the JSON line carries it as ``failed`` and
  ``attempted``, since a metric that is 0 on every good run cannot be bounded.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are the same numbers as a table. ``attempted`` counts every unit, the
reference unit included, plus in a traced run its two whole-run checks: that
the work counts repeat and that every wrapped function is restored.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import calibrate
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_run"
WORKLOADS = ("paper", "knapsack")

IMPORT_SAMPLES = 5
#: Starting an interpreter and importing is call-heavy work, like the ``small`` loop.
IMPORT_CALIBRATION = "small"
#: Every loop runs at least this many units. Work counts are taken from the
#: first MIN_UNITS traced units, so that they repeat exactly for a given seed.
MIN_UNITS = 3
REFERENCE_SEED = 0

COUNT_METRICS = {
    "landscape.generate_landscape.calls": "count",
    "dynamics.simulate.calls": "count",
    "dynamics.cell_steps": "count",
    "solver.solve.calls": "count",
    "solver.solve_dp.calls": "count",
    "solver.dp_cells": "count",
    "solver.dp_table_mb.max": "MB",
    "fileio.bytes_written": "bytes",
    "fileio.bytes_read": "bytes",
    "render.svg_bytes": "bytes",
}


@dataclass
class Phase:
    """Timed units of one loop: wall time of each unit and of its input generation,
    and of the calibration bursts around them: ``calib_s[k]`` ran just before unit
    ``k`` and ``calib_s[k + 1]`` just after it."""

    unit_s: list[float] = field(default_factory=list)
    input_s: list[float] = field(default_factory=list)
    calib_s: list[float] = field(default_factory=list)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"unit {label}: {p}" for p in problems]


def scaled(times: list[float], bursts: list[float], calibration: str) -> list[float]:
    """Scale each time to the reference machine speed measured by the bursts around it."""
    reference = calibrate.REFERENCE_S[calibration]
    return [t * 2 * reference / (before + after) for t, before, after in zip(times, bursts, bursts[1:])]


def import_seconds(samples: int) -> tuple[list[float], list[float]]:
    """Wall time of fresh interpreters that import the package (process start to
    ready), and of ``IMPORT_CALIBRATION`` bursts before each one and after the last."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import reserveplan"
    times, bursts = [], [calibrate.burst(IMPORT_CALIBRATION)]
    for _ in range(samples):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)
        times.append(perf_counter() - start)
        bursts.append(calibrate.burst(IMPORT_CALIBRATION))
    return times, bursts


def run_unit(workload, seed: int, label, tally: Tally, workdir: Path, *, tracer=None, pinned=None):
    """Make inputs, run one timed unit, check it; return (input seconds, unit seconds)."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    start = perf_counter()
    inputs = workload.make_inputs(seed)
    ready = perf_counter()
    if tracer is not None:
        tracer.open_unit(label)
    try:
        outputs = workload.run_unit(inputs, workdir)
    finally:
        done = perf_counter()
        if tracer is not None:
            tracer.close_unit()
    problems = workload.check(inputs, outputs, workdir)
    if pinned is not None:
        got = workload.digests(inputs, outputs, workdir)
        problems += [
            f"{name}: sha256 {got.get(name)} != pinned {digest}"
            for name, digest in pinned.items()
            if got.get(name) != digest
        ]
        problems += [f"{name}: not pinned" for name in got.keys() - pinned.keys()]
    tally.record(str(label), problems)
    return ready - start, done - ready


def run_phase(workload, seed: int, seconds: float, tally: Tally, workdir: Path, tracer=None) -> Phase:
    """Closed loop over units 0, 1, ... until ``seconds`` have passed and MIN_UNITS ran,
    with a calibration burst before each unit and after the last."""
    phase = Phase()
    start = perf_counter()
    k = 0
    while k < MIN_UNITS or perf_counter() - start < seconds:
        phase.calib_s.append(calibrate.burst(workload.calibration))
        input_s, unit_s = run_unit(workload, seed + k, k, tally, workdir, tracer=tracer)
        phase.input_s.append(input_s)
        phase.unit_s.append(unit_s)
        k += 1
    phase.calib_s.append(calibrate.burst(workload.calibration))
    return phase


def end_to_end(import_s: list[float], input_s: list[float], unit_s: list[float],
               rss_mb: float) -> dict[str, tuple[float, str]]:
    return {
        "setup_s": (statistics.median(import_s) + statistics.median(input_s), "s"),
        "units_per_s": (len(unit_s) / sum(unit_s), "1/s"),
        "unit_s.p50": (statistics.median(unit_s), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def scaled_unit_s(phase: Phase, calibration: str) -> list[float]:
    return scaled(phase.unit_s, phase.calib_s, calibration)


def per_layer(tracer, traced: Phase, untraced: Phase, calibration: str) -> dict[str, tuple[float, str]]:
    """Median per traced unit of each layer's self time and work counts.

    Self times are wall clock; ``trace.overhead_frac`` compares scaled unit times.
    """
    units = range(len(traced.unit_s))
    self_s = tracer.self_times()
    counts = [tracer.counts[k] for k in range(MIN_UNITS)]

    def med(values):
        return statistics.median(list(values))

    metrics = {f"{layer}.self_s": (med(self_s[k][layer] for k in units), "s") for layer in tracing.LAYERS}
    metrics.update({name: (med(c[name] for c in counts), unit) for name, unit in COUNT_METRICS.items()})
    metrics["landscape.kept_ratio"] = (
        med(c["landscape.kept"] / c["landscape.generate_landscape.calls"]
            if c["landscape.generate_landscape.calls"] else 0.0 for c in counts),
        "ratio",
    )
    metrics["dynamics.ns_per_cell_step"] = (
        med(self_s[k]["dynamics"] / tracer.counts[k]["dynamics.cell_steps"] * 1e9
            if tracer.counts[k]["dynamics.cell_steps"] else 0.0 for k in units),
        "ns",
    )
    metrics["trace.unwrapped_s"] = (med(traced.unit_s[k] - self_s[k]["top"] for k in units), "s")
    metrics["trace.overhead_frac"] = (
        statistics.median(scaled_unit_s(traced, calibration))
        / statistics.median(scaled_unit_s(untraced, calibration)) - 1,
        "ratio",
    )
    return metrics


def count_mismatches(tracer, first, again) -> list[str]:
    a, b = tracer.counts[first], tracer.counts[again]
    return [f"{key}: {a[key]} then {b[key]}" for key in sorted(a.keys() | b.keys()) if a[key] != b[key]]


def write_spans(tracer, workload: str, seed: int) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-seed{seed}.json"
    doc = {"workload": workload, "seed": seed, "fields": ["name", "start", "end", "parent", "unit"],
           "spans": tracer.spans}
    path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
    return path


def measure(workload, seed: int, seconds: float, trace: bool, pinned=None,
            import_samples: int = IMPORT_SAMPLES) -> dict:
    """Run one workload and return its report (see ``print_report`` for the layout)."""
    tally = Tally()
    workdir = OUT / f"work-{os.getpid()}"
    report = {"workload": workload.name, "size": workload.size, "seed": seed, "tally": tally,
              "top_layer": workload.top_layer}
    try:
        kind = workload.calibration
        import_s, import_bursts = import_seconds(import_samples)
        run_unit(workload, REFERENCE_SEED, "reference", tally, workdir, pinned=pinned)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        untraced = run_phase(workload, seed, seconds / 2 if trace else seconds, tally, workdir)
        report["end_to_end"] = end_to_end(
            scaled(import_s, import_bursts, IMPORT_CALIBRATION),
            scaled(untraced.input_s, untraced.calib_s, kind),
            scaled_unit_s(untraced, kind), rss_mb,
        )
        report["wall_clock"] = end_to_end(import_s, untraced.input_s, untraced.unit_s, rss_mb)
        report["speed"] = statistics.median(scaled([1.0] * len(untraced.unit_s), untraced.calib_s, kind))
        report["units"] = len(untraced.unit_s)
        if trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = run_phase(workload, seed, seconds / 2, tally, workdir, tracer=tracer)
                run_unit(workload, seed, "repeat", tally, workdir, tracer=tracer)
            finally:
                unrestored = tracer.restore()
            tally.record("repeat-counts", count_mismatches(tracer, 0, "repeat"))
            tally.record("restore", [f"{name} still wrapped" for name in unrestored])
            report["per_layer"] = per_layer(tracer, traced, untraced, kind)
            report["traced_units"] = len(traced.unit_s)
            report["traced_unit_s.p50"] = statistics.median(scaled_unit_s(traced, kind))
            report["spans"] = write_spans(tracer, workload.name, seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return report


def print_report(report: dict, trace: bool) -> None:
    tally = report["tally"]
    print(f"workload {report['workload']} ({report['size']}), seed {report['seed']}")
    for name, (value, unit) in report["end_to_end"].items():
        note = f"  median of {report['units']} units" if name == "unit_s.p50" else ""
        print(f"  {name:<36} {value:>14.6g} {unit:<6}{note}")
    print(f"  wall clock, unscaled (machine speed, median per unit: {report['speed']:.4g} of reference):")
    for name, (value, unit) in report["wall_clock"].items():
        print(f"    {name:<34} {value:>14.6g} {unit:<6}")
    frac = tally.failed / tally.attempted
    print(f"  {'failed_frac':<36} {frac:>14.6g} {'ratio':<6}  {tally.failed} of {tally.attempted} units")
    for problem in tally.problems[:20]:
        print(f"  FAILED {problem}")
    if trace:
        print(f"  per layer, median of {report['traced_units']} traced units "
              f"(unit_s.p50 traced {report['traced_unit_s.p50']:.6g} s):")
        layers = report["per_layer"]
        for name, (value, unit) in sorted(layers.items()):
            print(f"  {name:<36} {value:>14.6g} {unit}")
        self_s = {layer: layers[f"{layer}.self_s"][0] for layer in tracing.LAYERS}
        print(f"  layer self times + unwrapped: {sum(self_s.values()) + layers['trace.unwrapped_s'][0]:.6g} s; "
              f"largest: {max(self_s, key=self_s.get)} (designed for {report['top_layer']})")
        print(f"  spans written to {report['spans'].relative_to(ROOT)}")


def result_line(report: dict, trace: bool) -> dict:
    tally = report["tally"]
    metrics = report["per_layer"] if trace else report["end_to_end"]
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def run_all(args) -> int:
    """Run every workload in its own process, so each reports its own peak RSS."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}:{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0, help="unit k uses seed + k")
    parser.add_argument("--seconds", type=float, default=32.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add a traced run and report per-layer metrics")
    args = parser.parse_args(argv)
    if not (SRC / "reserveplan" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import reserveplan
    from workloads import workloads

    if not Path(reserveplan.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported reserveplan from {reserveplan.__file__}, not {SRC}", file=sys.stderr)
        return 2
    pinned = json.loads((BENCH / "pinned.json").read_text())[args.workload]
    report = measure(workloads()[args.workload], args.seed, args.seconds, bool(args.trace), pinned)
    print_report(report, bool(args.trace))
    result = result_line(report, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
