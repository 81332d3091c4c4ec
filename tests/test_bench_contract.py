"""The benchmark in bench/ reaches into the package by name; those names must stay.

bench/ is only read here. Its tracer must find every function it wraps, undo
every swap it makes, and meter real calls; its workloads must build and pass
their own checks at a tiny size, and their seed-0 reference units at full size
must write exactly the bytes pinned in bench/pinned.json, with the projection
memo cold and again once another seed's unit has warmed it. Consecutive seeds'
units, run in one process as the timed loop runs them, must project every grid
as the kernel does when it steps all of the grid's parcels itself, since the
workloads' own checks read their projections through the same memo.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from reserveplan import cli, dynamics, experiment, solver

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


def test_solver_aliases_share_one_wrapper_and_are_restored():
    original = solver.solve
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapper = solver.solve
        assert wrapper is not original and wrapper.__wrapped__ is original
        assert solver.solve_topk is wrapper and solver.solve_dp is wrapper
    finally:
        left = tracer.restore()
    assert left == []
    assert solver.solve is original and solver.solve_topk is original and solver.solve_dp is original


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
    if name == "paper":  # the suite scores and selects its pool through the traced names
        # each smoothing-rounds group of four or more grids picks its own four, then the pool
        counts = tracer.counts[0]
        assert counts["landscape.select_extremes.calls"] >= 1
        assert counts["landscape.kept"] == 4 * counts["landscape.select_extremes.calls"]
        assert counts["landscape.fragmentation.calls"] >= 1


@pytest.mark.parametrize("name", ["paper", "knapsack"])
def test_reference_unit_matches_pinned_digests(name, tmp_path):
    workload = workloads.workloads()[name]
    pinned = json.loads((BENCH / "pinned.json").read_text())[name]
    for seed, where in ((0, "cold"), (1, "other"), (0, "warm")):
        inputs = workload.make_inputs(seed)
        (tmp_path / where).mkdir()
        out = workload.run_unit(inputs, tmp_path / where)
        if seed == 0:
            assert workload.digests(inputs, out, tmp_path / where) == pinned, where


def test_warm_memo_projects_the_seed0_scenarios_as_the_kernel(monkeypatch):
    paper = workloads.workloads()["paper"].make_inputs(0)
    suite = experiment.build_species_suite(paper.seed, paper.pool_size, paper.grid)
    cases = experiment.default_scenarios(suite, seed=0)
    knapsack = workloads.workloads()["knapsack"].make_inputs(0)
    kernel, stepped = dynamics._project, []
    monkeypatch.setattr(dynamics, "_project", lambda *a: stepped.append(1) or kernel(*a))

    def project(scenarios) -> int:
        for label, scenario in scenarios:
            observed, params = scenario.observed(), scenario.lv_params
            got = dynamics.simulate(observed, params).tobytes()
            assert got == kernel(observed.matrix().astype(float), params, params.T).tobytes(), label
        return len(stepped)

    cold = [*enumerate(cases, start=1), ("knapsack", knapsack)]
    cold_calls = project(cold)
    assert 0 < cold_calls <= 7  # each cold call steps its new columns at most once
    assert project([*reversed(cold[:-1]), cold[-1]]) == cold_calls  # every column known


@pytest.mark.parametrize("name, units", [("paper", 4), ("knapsack", 10)])
def test_consecutive_units_project_as_the_kernel(name, units, tmp_path, monkeypatch):
    workload = workloads.workloads()[name]
    kernel, simulate = dynamics._project, dynamics.simulate
    calls, stepped = [], [0]  # (distinct columns, columns stepped) per simulate call of a unit

    def counted(state, *args):
        stepped[0] += state.shape[1]
        return kernel(state, *args)

    def checked(observed, params):
        before = stepped[0]
        got = simulate(observed, params)
        assert got.tobytes() == kernel(observed.matrix().astype(float), params, params.T).tobytes()
        calls.append((len(set(map(tuple, observed.matrix().T.tolist()))), stepped[0] - before))
        return got

    monkeypatch.setattr(dynamics, "_project", counted)
    for module in (experiment, cli):
        monkeypatch.setattr(module, "simulate", checked)
    for seed in range(units):
        inputs = workload.make_inputs(seed)
        (tmp_path / str(seed)).mkdir()
        out = workload.run_unit(inputs, tmp_path / str(seed))
        assert workload.check(inputs, out, tmp_path / str(seed)) == []
    distinct, ran = (sum(column) for column in zip(*calls))
    assert ran < distinct  # the memo answered some columns
    assert any(ran == 0 for _, ran in calls)  # and some calls wholly
