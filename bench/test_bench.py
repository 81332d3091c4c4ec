"""Self-tests of the benchmark at a tiny size.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import calibrate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import TINY, workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def tiny():
    return workloads(TINY)


def tiny_measure(workload, trace=False, pinned=None):
    return run.measure(workload, seed=5, seconds=0.1, trace=trace, pinned=pinned, import_samples=1)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_every_named_metric_is_reported_with_its_unit(tiny, name, trace, capsys):
    report = tiny_measure(tiny[name], trace)
    result = run.result_line(report, trace)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert result["correct"], report["tally"].problems
    run.print_report(report, trace)
    table = capsys.readouterr().out
    for m in declared + [{"name": "failed_frac"}]:
        assert f"  {m['name']} " in table


def test_flipped_protection_bit_counts_as_failed(tiny):
    workload = tiny["knapsack"]

    def corrupted_unit(inputs, workdir):
        rows = workload.run_unit(inputs, workdir)
        row = rows[len(rows) // 2]
        x = row.x_1.copy()
        x[0] ^= 1
        rows[len(rows) // 2] = dataclasses.replace(row, x_1=x)
        return rows

    tally = tiny_measure(dataclasses.replace(workload, run_unit=corrupted_unit))["tally"]
    assert tally.attempted > 1 and tally.failed == tally.attempted


def test_digest_mismatch_fails_the_reference_unit(tiny):
    tally = tiny_measure(tiny["knapsack"], pinned={"sweep.csv": "0" * 64})["tally"]
    assert tally.failed == 1 and tally.problems[0].startswith("unit reference: sweep.csv")


def test_traced_run_restores_every_wrapped_name(tiny):
    def snapshot():
        return {(m.__name__, a): v for m in tracing.package_namespaces() for a, v in vars(m).items()}

    before = snapshot()
    tiny_measure(tiny["paper"], trace=True)
    after = snapshot()
    assert all(after[key] is value for key, value in before.items())


def test_install_wraps_every_namespace_holding_a_function():
    from reserveplan import cli, experiment, solver

    original = solver.solve
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert solver.solve is not original
        assert experiment.solve is solver.solve and cli.solve is solver.solve
    finally:
        assert tracer.restore() == []
    assert solver.solve is original and cli.solve is original


def test_scaling_uses_the_bursts_on_either_side():
    reference = calibrate.REFERENCE_S["small"]
    bursts = [reference, 3 * reference, 2 * reference]
    assert run.scaled([4.0, 6.0], bursts, "small") == pytest.approx([2.0, 2.4])


def test_self_time_subtracts_child_spans():
    tracer = tracing.Tracer()
    tracer.spans = [["experiment.x", 0.0, 10.0, -1, 0], ["solver.y", 2.0, 5.0, 0, 0]]
    times = tracer.self_times()[0]
    assert times["experiment"] == 7.0 and times["solver"] == 3.0 and times["top"] == 10.0


def test_exits_nonzero_without_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "paper", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and '"correct"' not in proc.stdout
