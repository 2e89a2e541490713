"""Hypothesis property tests for allocator invariants."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import two_phase_allocate
from repro.core.options import SolveOptions
from repro.core.problem import AllocationProblem
from repro.core.solver import allocate
from repro.energy import ActivityEnergyModel, MemoryConfig, StaticEnergyModel
from repro.exceptions import InfeasibleFlowError
from repro.lifetimes.intervals import density_profile
from repro.workloads.random_blocks import random_lifetimes

HORIZON = 10


@st.composite
def instances(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    count = draw(st.integers(min_value=1, max_value=10))
    registers = draw(st.integers(min_value=0, max_value=4))
    rng = random.Random(seed)
    lifetimes = random_lifetimes(
        rng, count=count, horizon=HORIZON, multi_read_fraction=0.35
    )
    return lifetimes, registers


@given(instances())
@settings(max_examples=60, deadline=None)
def test_solution_invariants(instance):
    lifetimes, registers = instance
    problem = AllocationProblem(
        lifetimes, registers, HORIZON, energy_model=StaticEnergyModel()
    )
    allocation = allocate(problem, SolveOptions(validate=True))

    # Chains respect time and use each segment at most once.
    seen = set()
    for chain in allocation.chains:
        for earlier, later in zip(chain, chain[1:]):
            assert earlier.end <= later.start
        for seg in chain:
            assert seg.key not in seen
            seen.add(seg.key)

    # Register budget respected; accounting is internally consistent.
    assert allocation.registers_used + allocation.unused_registers <= registers
    assert allocation.report.total_energy == pytest.approx(
        allocation.objective
    )

    # Every read happens exactly once somewhere.
    total_reads = sum(lt.read_count for lt in lifetimes.values())
    assert (
        allocation.report.reg_reads
        + allocation.report.mem_reads
        - extra_reloads(allocation)
        == total_reads
    )


def extra_reloads(allocation) -> int:
    # Without restricted access there are no reload reads.
    return 0


@given(instances())
@settings(max_examples=40, deadline=None)
def test_objective_monotone_in_register_count(instance):
    lifetimes, registers = instance
    problem = AllocationProblem(lifetimes, registers, HORIZON)
    more = problem.with_options(register_count=registers + 1)
    assert (
        allocate(more).objective <= allocate(problem).objective + 1e-9
    )


@given(instances())
@settings(max_examples=40, deadline=None)
def test_all_pairs_no_worse_than_adjacent(instance):
    lifetimes, registers = instance
    adjacent = AllocationProblem(lifetimes, registers, HORIZON)
    all_pairs = adjacent.with_options(graph_style="all_pairs")
    assert (
        allocate(all_pairs).objective
        <= allocate(adjacent).objective + 1e-9
    )


@given(instances())
@settings(max_examples=40, deadline=None)
def test_flow_no_worse_than_two_phase(instance):
    lifetimes, registers = instance
    if registers == 0:
        return
    model = StaticEnergyModel()
    problem = AllocationProblem(
        lifetimes,
        registers,
        HORIZON,
        energy_model=model,
        graph_style="all_pairs",
        split_at_reads=False,
    )
    flow = allocate(problem)
    baseline = two_phase_allocate(lifetimes, HORIZON, registers, model)
    assert flow.objective <= baseline.objective + 1e-9


@given(instances())
@settings(max_examples=40, deadline=None)
def test_memory_addresses_equal_memory_density(instance):
    lifetimes, registers = instance
    problem = AllocationProblem(lifetimes, registers, HORIZON)
    allocation = allocate(problem)
    from repro.core.allocation import memory_intervals

    intervals = memory_intervals(problem, allocation.residency)
    if not intervals:
        assert allocation.address_count == 0
        return
    from types import SimpleNamespace

    spans = [
        SimpleNamespace(start=start, end=end)
        for start, end in intervals.values()
    ]
    profile = density_profile(spans, HORIZON + 1)
    assert allocation.address_count == max(profile)


@given(instances(), st.integers(min_value=2, max_value=4))
@settings(max_examples=40, deadline=None)
def test_restricted_access_forced_segments_registered(instance, divisor):
    lifetimes, registers = instance
    problem = AllocationProblem(
        lifetimes,
        registers,
        HORIZON,
        memory=MemoryConfig(divisor=divisor, voltage=3.3),
    )
    try:
        allocation = allocate(problem, SolveOptions(validate=True))
    except InfeasibleFlowError:
        return  # forced density exceeded R: a legal outcome
    for name, segments in problem.segments.items():
        for seg in segments:
            if seg.forced:
                assert seg.key in allocation.residency


@given(instances())
@settings(max_examples=30, deadline=None)
def test_activity_model_solutions_validate(instance):
    lifetimes, registers = instance
    problem = AllocationProblem(
        lifetimes, registers, HORIZON, energy_model=ActivityEnergyModel()
    )
    allocation = allocate(problem, SolveOptions(validate=True))
    assert allocation.objective == pytest.approx(
        allocation.report.total_energy
    )
