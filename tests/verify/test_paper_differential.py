"""Differential regression pins for the paper's worked examples.

Commits the expected energies of figure 1 and the table-1 RSP sweep as
constants and asserts that *every* solution method — the SSP production
solver (its flow checked by the optimality certificate), the scipy LP
relaxation, and all five prior-art baselines — reproduces them.  A
regression in the solver, the network construction, or the energy
accounting moves one of these numbers and trips the pin.
"""

import random

import pytest

from repro.core.network_builder import SINK, SOURCE
from repro.core.problem import AllocationProblem
from repro.core.solver import allocate
from repro.energy import ActivityEnergyModel, MemoryConfig
from repro.energy.voltage import max_divisor_supply
from repro.verify.differential import cross_check, run_baselines
from repro.verify.oracles import check_allocation
from repro.workloads import (
    FIGURE1_HORIZON,
    figure1_lifetimes,
    rsp_schedule,
)

# ---------------------------------------------------------------------------
# Committed expected values (static model unless noted).
# ---------------------------------------------------------------------------

#: Figure 1 with R = 2, unrestricted memory: three units of storage must
#: overflow to memory at the two density-3 regions.
FIG1_R2_ENERGY = 21.0

#: Figure 1 with R = 2 and the c = 2 restricted memory (access times
#: {1, 3, 5, 7}): restricted access makes memory residency costlier.
FIG1_R2_C2_ENERGY = 34.5

#: Figure 1 with R = 3 (= max density): everything fits in registers.
FIG1_R3_ENERGY = 7.5

#: Table-1 RSP sweep at R = 16 (activity model, seed 2024): objective per
#: memory divisor, with the memory supply scaled to the divisor.
TABLE1_ENERGY = {1: 182.5, 2: 95.433131, 4: 65.176991}

#: Table 1 prints 20 memory accesses at every operating point.
TABLE1_MEM_ACCESSES = 20


def fig1_problem(registers, divisor=1):
    return AllocationProblem(
        figure1_lifetimes(),
        register_count=registers,
        horizon=FIGURE1_HORIZON,
        memory=MemoryConfig(divisor=divisor),
    )


@pytest.mark.parametrize(
    "registers, divisor, expected",
    [
        (2, 1, FIG1_R2_ENERGY),
        (2, 2, FIG1_R2_C2_ENERGY),
        (3, 1, FIG1_R3_ENERGY),
    ],
)
def test_fig1_energy_pinned_all_solvers(registers, divisor, expected):
    problem = fig1_problem(registers, divisor)
    allocation = allocate(problem)
    assert allocation.objective == pytest.approx(expected)
    assert check_allocation(allocation) == []
    outcome = cross_check(
        allocation.flow.network, SOURCE, SINK, registers
    )
    assert outcome.agreed, outcome.message
    assert set(outcome.costs) == {"ssp", "lp"}
    # Every solver's objective implies the same total energy.
    constant = problem.constant_energy()
    for name, cost in outcome.costs.items():
        assert constant + cost == pytest.approx(expected), name


def test_fig1_baselines_pinned():
    # R = 2: the four partition baselines all find the same optimum on
    # this tiny instance (it is the worked example, after all); R = 3
    # additionally admits the Chang-Pedram full binding.
    problem = fig1_problem(2)
    objectives, skipped = run_baselines(
        problem.lifetimes, problem.horizon, 2, problem.energy_model
    )
    assert skipped == ["chang-pedram"]
    for name, objective in objectives.items():
        assert objective == pytest.approx(FIG1_R2_ENERGY), name

    objectives, skipped = run_baselines(
        problem.lifetimes, problem.horizon, 3, problem.energy_model
    )
    assert skipped == []
    assert set(objectives) == {
        "two-phase",
        "left-edge",
        "graph-coloring",
        "greedy",
        "chang-pedram",
    }
    for name, objective in objectives.items():
        assert objective == pytest.approx(FIG1_R3_ENERGY), name


@pytest.mark.parametrize("divisor", sorted(TABLE1_ENERGY))
def test_table1_energy_pinned(divisor):
    schedule = rsp_schedule(rng=random.Random(2024))
    voltage = round(max_divisor_supply(divisor), 2)
    model = ActivityEnergyModel().with_voltages(voltage, 5.0)
    problem = AllocationProblem.from_schedule(
        schedule,
        register_count=16,
        energy_model=model,
        memory=MemoryConfig(divisor=divisor, voltage=voltage),
    )
    allocation = allocate(problem)
    assert allocation.objective == pytest.approx(
        TABLE1_ENERGY[divisor], abs=1e-5
    )
    assert allocation.report.mem_accesses == TABLE1_MEM_ACCESSES
    assert check_allocation(allocation) == []
    outcome = cross_check(allocation.flow.network, SOURCE, SINK, 16)
    assert outcome.agreed, outcome.message
    assert set(outcome.costs) == {"ssp", "lp"}


def test_table1_voltage_scaling_monotone():
    # The pinned energies must decrease as the memory slows down and its
    # supply drops — the paper's headline table-1 trend.
    energies = [TABLE1_ENERGY[d] for d in sorted(TABLE1_ENERGY)]
    assert energies == sorted(energies, reverse=True)
