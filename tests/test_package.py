"""The package exports exactly the public names its modules declare."""

import reserveplan
from reserveplan import dynamics, experiment, landscape, solver

MODULES = (dynamics, experiment, landscape, solver)


def test_exports_are_the_union_of_the_modules_public_names():
    declared = set().union(*(module.__all__ for module in MODULES))
    assert set(reserveplan.__all__) == declared
    assert len(reserveplan.__all__) == len(declared)


def test_every_export_is_the_modules_own_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(reserveplan, name) is getattr(module, name), name


def test_retired_solver_names_are_only_aliases_of_solve():
    # the benchmark's tracer still wraps solve_topk and solve_dp by name
    assert solver.solve_topk is solver.solve_dp is solver.solve
    assert not {"solve_topk", "solve_dp", "WrongSolverError"} & set(reserveplan.__all__)
    assert not hasattr(solver, "WrongSolverError")


def test_dynamics_surface():
    assert sorted(dynamics.__all__) == ["LVParams", "default_params", "round_counts", "simulate"]
