"""The benchmark in bench/ reaches into the package by name; those names must stay.

bench/ is only read here. Its tracer must find every function it wraps, undo
every swap it makes, and meter real calls; its workloads must build and pass
their own checks at a tiny size.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while the class is built
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
workloads = _load("workloads")


def test_every_traced_name_resolves():
    found = tracing.traced_functions()
    assert found and all(callable(fn) for _, fn in found)


@pytest.mark.parametrize("name", ["paper", "knapsack"])
def test_tiny_workload_runs_and_checks_under_the_tracer(name, tmp_path):
    workload = workloads.workloads(workloads.TINY)[name]
    inputs = workload.make_inputs(0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.open_unit(0)
        out = workload.run_unit(inputs, tmp_path)
        tracer.close_unit()
    finally:
        assert tracer.restore() == []
    assert workload.check(inputs, out, tmp_path) == []
    assert tracer.counts[0]["dynamics.simulate.calls"] > 0
