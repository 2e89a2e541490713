"""Bank-count x port-width x access-period design-space sweeps."""

import pytest

from repro.analysis.exploration import (
    StoragePoint,
    banked_grid,
    explore_storage_space,
)
from repro.core.problem import AllocationProblem
from repro.core.solver import allocate
from repro.core.storage import StorageSpec
from repro.energy import StaticEnergyModel
from repro.energy.models import reference_reg_voltage
from repro.exceptions import InfeasibleFlowError
from repro.workloads.registry import figure_example


def fig3():
    lifetimes, horizon, _ = figure_example("fig3")
    return lifetimes, horizon


def test_banked_grid_is_the_full_product():
    grid = banked_grid([1, 2], [1, 2], port_widths=(None, 1), capacity=2)
    assert len(grid) == 8
    assert {len(s.banks) for s in grid} == {1, 2}
    assert {s.reference.divisor for s in grid} == {1, 2}
    assert all(b.capacity == 2 for s in grid for b in s.banks)


def test_explore_storage_space_covers_grid():
    lifetimes, horizon = fig3()
    specs = banked_grid([1, 2], [1, 2])
    result = explore_storage_space(lifetimes, horizon, [1, 2], specs)
    assert len(result.points) == len(specs) * 2
    assert result.feasible_points()
    best = result.best()
    assert best.feasible
    assert best.energy == min(p.energy for p in result.feasible_points())
    table = result.format()
    assert "storage space" in table and "banks" in table


def test_warm_start_matches_cold_exactly():
    lifetimes, horizon = fig3()
    registers = (1, 2, 3)
    specs = banked_grid([1, 2, 3], [2], port_widths=(None, 1))
    warm = explore_storage_space(lifetimes, horizon, registers, specs)
    model = StaticEnergyModel()

    def cold(spec: StorageSpec, register_count: int) -> float | None:
        problem = AllocationProblem(
            lifetimes,
            register_count=register_count,
            horizon=horizon,
            energy_model=model.with_voltages(
                spec.reference.voltage, reference_reg_voltage(model)
            ),
            storage=spec,
        )
        try:
            return allocate(problem).total_energy
        except InfeasibleFlowError:
            return None

    colds = [cold(spec, r) for spec in specs for r in registers]
    assert len(warm.points) == len(colds)
    for w, c in zip(warm.points, colds):
        assert w.feasible == (c is not None)
        if w.feasible:
            assert w.energy == c  # exact, not approx


def test_points_match_direct_allocate():
    lifetimes, horizon = fig3()
    spec = StorageSpec.banked(2, 2)
    result = explore_storage_space(lifetimes, horizon, [2], [spec])
    [point] = result.points
    # The sweep rescales the model to the reference supply; rebuild the
    # same operating point for the direct solve.
    model = StaticEnergyModel().with_voltages(spec.reference.voltage, 5.0)
    problem = AllocationProblem(
        lifetimes,
        register_count=2,
        horizon=horizon,
        energy_model=model,
        storage=spec,
    )
    direct = allocate(problem)
    assert point.energy == pytest.approx(direct.total_energy)


def test_infeasible_point_raises_on_energy():
    point = StoragePoint(
        register_count=0,
        spec=StorageSpec.banked(1, 2, capacity=0),
        metrics=None,
    )
    assert not point.feasible
    with pytest.raises(InfeasibleFlowError):
        point.energy
    assert "cap 0" in point.label()


def test_all_infeasible_grid_raises_on_best():
    lifetimes, horizon = fig3()
    specs = banked_grid([2], [2], capacity=0)
    result = explore_storage_space(lifetimes, horizon, [0], specs)
    assert result.feasible_points() == []
    with pytest.raises(InfeasibleFlowError):
        result.best()
