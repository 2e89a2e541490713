"""Tests for port-constrained allocation (section 7 hook)."""

import random

import pytest

from repro.analysis.ports import required_ports
from repro.core.ports import allocate_with_port_limit
from repro.core.problem import AllocationProblem
from repro.core.solver import allocate
from repro.energy import CapacitanceTable, MemoryConfig, StaticEnergyModel
from repro.exceptions import AllocationError, InfeasibleFlowError
from repro.workloads.random_blocks import random_lifetimes
from tests.conftest import make_lifetime

#: A datapath with an *expensive* register file (reads 10, writes 20 at
#: nominal supply vs memory's 5/10): the unconstrained optimum then keeps
#: values in memory even when registers are free, so the port legalizer
#: has real work and real headroom.
EXPENSIVE_REGS = StaticEnergyModel(
    table=CapacitanceTable(reg_read=0.4, reg_write=0.8)
)


def crowded_instance():
    """Three memory-friendly variables all read at step 5."""
    return {
        "a": make_lifetime("a", 1, 5),
        "b": make_lifetime("b", 2, 5),
        "c": make_lifetime("c", 3, 5),
    }


def test_already_legal_returns_round_one():
    lifetimes = {"a": make_lifetime("a", 1, 3)}
    problem = AllocationProblem(lifetimes, 1, 3)
    result = allocate_with_port_limit(problem, max_mem_ports=2)
    assert result.rounds == 1
    assert result.pinned == frozenset()
    assert result.energy_overhead == 0.0


def test_legalizer_reduces_read_port_pressure():
    problem = AllocationProblem(
        crowded_instance(), 4, 5, energy_model=EXPENSIVE_REGS
    )
    unconstrained = allocate(problem)
    before = required_ports(unconstrained).mem_rw_ports
    assert before == 3  # all three reads collide at step 5
    result = allocate_with_port_limit(problem, max_mem_ports=2)
    assert result.mem_ports_used <= 2
    assert result.pinned  # something had to be forced into registers
    assert result.energy_overhead > 0.0  # registers are the dear option


def test_tighter_budget_pins_more():
    problem = AllocationProblem(
        crowded_instance(), 4, 5, energy_model=EXPENSIVE_REGS
    )
    two_ports = allocate_with_port_limit(problem, max_mem_ports=2)
    one_port = allocate_with_port_limit(problem, max_mem_ports=1)
    assert one_port.mem_ports_used <= 1
    assert len(one_port.pinned) > len(two_ports.pinned)
    assert one_port.energy_overhead >= two_ports.energy_overhead


def test_pins_are_register_resident():
    problem = AllocationProblem(
        crowded_instance(), 4, 5, energy_model=EXPENSIVE_REGS
    )
    result = allocate_with_port_limit(problem, max_mem_ports=1)
    for key in result.pinned:
        assert key in result.allocation.residency


def test_unachievable_limit_raises():
    # One register can absorb only one of the overlapping variables; the
    # other two still collide at step 5.
    problem = AllocationProblem(
        crowded_instance(), 1, 5, energy_model=EXPENSIVE_REGS
    )
    with pytest.raises(InfeasibleFlowError, match="cannot reduce"):
        allocate_with_port_limit(problem, max_mem_ports=1)


def test_bad_budget_rejected():
    problem = AllocationProblem(crowded_instance(), 1, 5)
    with pytest.raises(AllocationError):
        allocate_with_port_limit(problem, max_mem_ports=0)


def test_overhead_is_price_of_constraint():
    problem = AllocationProblem(
        crowded_instance(), 4, 5, energy_model=EXPENSIVE_REGS
    )
    free = allocate(problem)
    result = allocate_with_port_limit(problem, max_mem_ports=1)
    assert result.allocation.objective == pytest.approx(
        free.objective + result.energy_overhead
    )


def test_forced_segments_round_trip_through_problem():
    lifetimes = crowded_instance()
    problem = AllocationProblem(
        lifetimes, 2, 5, forced_segments=frozenset({("a", 0)})
    )
    allocation = allocate(problem)
    assert ("a", 0) in allocation.residency


def test_unknown_forced_segment_rejected():
    problem = AllocationProblem(
        crowded_instance(), 2, 5,
        forced_segments=frozenset({("ghost", 0)}),
    )
    from repro.exceptions import GraphError

    with pytest.raises(GraphError, match="unknown segments"):
        allocate(problem)


def test_spill_and_reload_contributors_are_pinned_last():
    # At half-speed memory the worst step's last contributors are a
    # spill write-back and a reload read; pinning their variables must
    # be tried once every memory-read candidate fails.
    problem = AllocationProblem(
        random_lifetimes(random.Random(1), 12, 14),
        4,
        14,
        memory=MemoryConfig.scaled(2),
    )
    result = allocate_with_port_limit(problem, max_mem_ports=2)
    assert required_ports(result.allocation).mem_rw_ports <= 2
    assert result.pinned
