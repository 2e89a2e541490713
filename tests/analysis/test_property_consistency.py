"""Cross-module consistency properties.

Three independent views of a solution must agree on random instances:

* the energy report (``compute_report``),
* the per-step port-usage schedule (``port_usage``),
* the MOA access sequence (``access_sequence``).

Any drift between the three indicates an accounting bug in one of them.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.ports import port_usage
from repro.core import AllocationProblem, SolveOptions, allocate
from repro.energy import MemoryConfig, StaticEnergyModel
from repro.exceptions import InfeasibleFlowError
from repro.moa.access import access_sequence
from repro.workloads.random_blocks import random_lifetimes

HORIZON = 10


@st.composite
def solved_instances(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    registers = draw(st.integers(min_value=0, max_value=4))
    divisor = draw(st.sampled_from((1, 1, 2, 3)))
    rng = random.Random(seed)
    lifetimes = random_lifetimes(
        rng, count=draw(st.integers(min_value=1, max_value=9)),
        horizon=HORIZON, multi_read_fraction=0.3,
    )
    problem = AllocationProblem(
        lifetimes,
        registers,
        HORIZON,
        energy_model=StaticEnergyModel(),
        memory=MemoryConfig(divisor=divisor, voltage=3.3),
    )
    try:
        return problem, allocate(problem, SolveOptions(validate=True))
    except InfeasibleFlowError:
        return None


@given(solved_instances())
@settings(max_examples=60, deadline=None)
def test_port_usage_sums_match_report(instance):
    if instance is None:
        return
    problem, allocation = instance
    usage = port_usage(allocation)
    steps = range(1, problem.horizon + 1)
    block_end_reads = sum(
        1
        for name, segments in problem.segments.items()
        for seg in segments
        if seg.reads and seg.reads[-1] == problem.horizon + 1
        and seg.key not in allocation.residency
    )
    block_end_reg_reads = sum(
        1
        for name, segments in problem.segments.items()
        for seg in segments
        if seg.reads and seg.reads[-1] == problem.horizon + 1
        and seg.key in allocation.residency
    )
    assert (
        sum(usage.mem_reads[s] for s in steps) + block_end_reads
        == allocation.report.mem_reads
    )
    assert (
        sum(usage.reg_reads[s] for s in steps) + block_end_reg_reads
        == allocation.report.reg_reads
    )
    # Writes never occur past the horizon (spills land on access steps
    # inside the block or are dropped as unreachable).
    assert (
        sum(usage.mem_writes[s] for s in steps)
        <= allocation.report.mem_writes
    )
    assert (
        sum(usage.reg_writes[s] for s in steps)
        <= allocation.report.reg_writes
    )


@given(solved_instances())
@settings(max_examples=60, deadline=None)
def test_access_sequence_matches_report(instance):
    if instance is None:
        return
    problem, allocation = instance
    sequence = access_sequence(allocation)
    assert len(sequence) == allocation.report.mem_accesses
    memory_names = {
        seg.name
        for segments in problem.segments.values()
        for seg in segments
        if seg.key not in allocation.residency
    }
    spilled = {
        seg.name
        for chain in allocation.chains
        for seg in chain
        if not seg.is_last
    }
    assert set(sequence) <= memory_names | spilled
