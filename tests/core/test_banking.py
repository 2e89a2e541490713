"""Bank placement pass and the degenerate byte-identity pin.

The load-bearing regression here: solving any instance through a
*degenerate* (single-bank) :class:`StorageSpec` must reproduce the
classic two-level solve exactly — same objective, same residency, same
addresses — for every paper figure and every registry kernel.
"""

import pytest

from repro.core.problem import AllocationProblem
from repro.core.solver import allocate
from repro.core.storage import StorageSpec
from repro.core.pipeline import allocate_block
from repro.energy import MemoryConfig
from repro.exceptions import InfeasibleFlowError
from repro.workloads.registry import (
    FIGURE_NAMES,
    KERNEL_NAMES,
    figure_example,
    kernel_block,
)


def figure_problem(name, registers, divisor=1):
    lifetimes, horizon, _ = figure_example(name)
    return AllocationProblem(
        lifetimes,
        register_count=registers,
        horizon=horizon,
        memory=MemoryConfig(divisor=divisor),
    )


# ---------------------------------------------------------------------------
# Degenerate byte-identity (the API-redesign acceptance pin)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", FIGURE_NAMES)
@pytest.mark.parametrize("divisor", [1, 2])
def test_degenerate_spec_matches_classic_on_figures(name, divisor):
    plain = figure_problem(name, registers=2, divisor=divisor)
    spec = StorageSpec.canonical(plain.memory)
    classic = allocate(plain)
    banked = allocate(plain.with_options(storage=spec))
    assert banked.objective == classic.objective  # exact, not approx
    assert banked.total_energy == classic.total_energy
    assert banked.residency == classic.residency
    assert banked.memory_addresses == classic.memory_addresses
    assert banked.report.mem_accesses == classic.report.mem_accesses
    assert banked.report.reg_accesses == classic.report.reg_accesses


@pytest.mark.parametrize("name", [n for n in KERNEL_NAMES if n != "random"])
def test_degenerate_spec_matches_classic_on_kernels(name):
    block = kernel_block(name, taps=4)
    classic = allocate_block(block, register_count=4)
    banked = allocate_block(
        block, register_count=4, storage=StorageSpec.canonical()
    )
    assert banked.allocation.objective == classic.allocation.objective
    assert banked.allocation.total_energy == classic.allocation.total_energy
    assert banked.allocation.residency == classic.allocation.residency


def test_degenerate_banking_attaches_zero_delta_assignment():
    problem = figure_problem("fig3", registers=2, divisor=2)
    allocation = allocate(
        problem.with_options(storage=StorageSpec.canonical(problem.memory))
    )
    banking = allocation.banking
    assert banking is not None
    assert banking.delta_energy == 0.0
    assert all(p.bank == 0 for p in banking.placements.values())
    assert set(banking.placements) == set(allocation.memory_addresses)


# ---------------------------------------------------------------------------
# Multi-bank solves
# ---------------------------------------------------------------------------

def test_multibank_solve_places_every_memory_resident():
    problem = figure_problem("fig3", registers=2)
    spec = StorageSpec.banked(2, 2)
    allocation = allocate(problem.with_options(storage=spec))
    banking = allocation.banking
    assert banking is not None
    assert set(banking.placements) == set(allocation.memory_addresses)
    assert all(
        0 <= p.bank < len(spec.banks) for p in banking.placements.values()
    )
    assert allocation.total_energy == pytest.approx(
        allocation.objective + banking.delta_energy
    )


def test_multibank_capacity_pins_into_registers():
    # Zero-capacity banks admit nothing: with enough registers the
    # legalizer pins everything register-resident.
    problem = figure_problem("fig1", registers=3)
    spec = StorageSpec.banked(2, 2, capacity=0)
    allocation = allocate(problem.with_options(storage=spec))
    assert allocation.memory_addresses == {}
    assert allocation.banking is not None
    assert allocation.banking.placements == {}


def test_multibank_capacity_overflow_is_infeasible():
    # Density 2 at R = 1 with zero bank capacity cannot be placed.
    problem = figure_problem("fig3", registers=1)
    spec = StorageSpec.banked(2, 2, capacity=0)
    with pytest.raises(InfeasibleFlowError):
        allocate(problem.with_options(storage=spec))


def test_multibank_solution_passes_oracles():
    from repro.verify.oracles import check_allocation

    problem = figure_problem("fig4", registers=2).with_options(
        storage=StorageSpec.banked(2, 2, ports=1)
    )
    allocation = allocate(problem)
    assert check_allocation(allocation) == []
