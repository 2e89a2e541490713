"""Tests for the scratchpad/off-chip hierarchy partition."""

import itertools
import random

import pytest

from repro.core import AllocationProblem, allocate, partition_memory_hierarchy
from repro.core.allocation import memory_intervals
from repro.core.banking import variable_traffic
from repro.energy import CapacitanceTable, MemoryConfig, StaticEnergyModel
from repro.exceptions import AllocationError
from repro.lifetimes.intervals import density_profile
from repro.workloads.paper_examples import FIGURE1_HORIZON, figure1_lifetimes
from repro.workloads.random_blocks import random_lifetimes
from tests.conftest import make_lifetime

ONCHIP = StaticEnergyModel()
OFFCHIP = StaticEnergyModel(table=CapacitanceTable.offchip_memory())


def solved(seed=8, count=14, registers=2, horizon=12):
    lifetimes = random_lifetimes(random.Random(seed), count, horizon)
    return allocate(AllocationProblem(lifetimes, registers, horizon))


def test_zero_capacity_everything_offchip():
    allocation = solved()
    result = partition_memory_hierarchy(allocation, 0, ONCHIP, OFFCHIP)
    assert result.scratch == {}
    assert result.total_energy == pytest.approx(result.baseline_energy)
    assert result.saving_factor == pytest.approx(1.0)


def test_savings_monotone_in_capacity():
    allocation = solved()
    energies = [
        partition_memory_hierarchy(allocation, s, ONCHIP, OFFCHIP).total_energy
        for s in (0, 1, 2, 4, 8)
    ]
    assert energies == sorted(energies, reverse=True)


def test_large_capacity_takes_everything_onchip():
    allocation = solved()
    result = partition_memory_hierarchy(allocation, 99, ONCHIP, OFFCHIP)
    assert result.offchip == ()
    intervals = memory_intervals(
        allocation.problem, allocation.residency
    )
    assert set(result.scratch) == set(intervals)


def test_capacity_respected():
    allocation = solved()
    problem = allocation.problem
    for capacity in (1, 2, 3):
        result = partition_memory_hierarchy(
            allocation, capacity, ONCHIP, OFFCHIP
        )
        # Locations used <= capacity.
        if result.scratch:
            assert max(result.scratch.values()) + 1 <= capacity
        # Overlapping intervals never share a scratch location.
        intervals = memory_intervals(problem, allocation.residency)
        by_location: dict[int, list[tuple[int, int]]] = {}
        for name, location in result.scratch.items():
            by_location.setdefault(location, []).append(intervals[name])
        for spans in by_location.values():
            for (s1, e1), (s2, e2) in itertools.combinations(spans, 2):
                assert e1 <= s2 or e2 <= s1


def test_matches_bruteforce_on_small_instances():
    for seed in range(6):
        lifetimes = random_lifetimes(
            random.Random(seed), count=6, horizon=8
        )
        allocation = allocate(AllocationProblem(lifetimes, 1, 8))
        intervals = memory_intervals(
            allocation.problem, allocation.residency
        )
        names = list(intervals)
        capacity = 2

        def energy_of(scratch_set: frozenset[str]) -> float:
            total = 0.0
            for name in names:
                traffic = variable_traffic(
                    allocation.problem, allocation.residency, name
                )
                writes, reads = traffic.writes, traffic.reads
                variable = allocation.problem.lifetimes[name].variable
                model = ONCHIP if name in scratch_set else OFFCHIP
                total += writes * model.mem_write(variable)
                total += reads * model.mem_read(variable)
            return total

        best = float("inf")
        for r in range(len(names) + 1):
            for subset in itertools.combinations(names, r):
                spans = [
                    make_lifetime(n, *intervals[n]) for n in subset
                ]
                profile = density_profile(spans, 8)
                if max(profile, default=0) > capacity:
                    continue
                best = min(best, energy_of(frozenset(subset)))
        result = partition_memory_hierarchy(
            allocation, capacity, ONCHIP, OFFCHIP
        )
        assert result.total_energy == pytest.approx(best, abs=1e-6)


def test_prices_the_reports_memory_traffic_under_restricted_access():
    # Fig. 1 at R=2 with memory at half speed: the report counts 2
    # memory writes and 2 reads, and the all-off-chip baseline must
    # price exactly those.  A reload read belongs to a register segment
    # entering from memory, never to a memory-resident segment.
    problem = AllocationProblem(
        figure1_lifetimes(),
        register_count=2,
        horizon=FIGURE1_HORIZON,
        energy_model=StaticEnergyModel(),
        memory=MemoryConfig.scaled(2),
    )
    allocation = allocate(problem)
    report = allocation.report
    assert (report.mem_writes, report.mem_reads) == (2, 2)
    result = partition_memory_hierarchy(allocation, 0, ONCHIP, OFFCHIP)
    variable = next(iter(problem.lifetimes.values())).variable
    expected = 2 * OFFCHIP.mem_write(variable) + 2 * OFFCHIP.mem_read(
        variable
    )
    assert result.baseline_energy == pytest.approx(expected)
    assert result.baseline_energy == pytest.approx(330.0)


def test_negative_capacity_rejected():
    allocation = solved()
    with pytest.raises(AllocationError):
        partition_memory_hierarchy(allocation, -1, ONCHIP, OFFCHIP)


def test_no_memory_variables():
    lifetimes = {"a": make_lifetime("a", 1, 3)}
    allocation = allocate(AllocationProblem(lifetimes, 1, 3))
    result = partition_memory_hierarchy(allocation, 4, ONCHIP, OFFCHIP)
    assert result.scratch == {}
    assert result.offchip == ()
    assert result.total_energy == 0.0
