"""The one solver path: summaries of exact solves, infeasibility."""

import pytest

from repro import obs
from repro.core import allocate
from repro.core.problem import AllocationProblem
from repro.energy import MemoryConfig
from repro.service import BatchExecutor, ResultCache, SolveSummary, canonicalize
from tests.conftest import make_lifetime


@pytest.fixture
def problem() -> AllocationProblem:
    lifetimes = {
        "a": make_lifetime("a", 1, (3, 5)),
        "b": make_lifetime("b", 2, 4),
        "c": make_lifetime("c", 3, 6, live_out=True),
        "d": make_lifetime("d", 4, 6),
    }
    return AllocationProblem(lifetimes, 2, 6)


def test_summary_of_an_allocation_is_exact_ssp(problem):
    allocation = allocate(problem)
    summary = SolveSummary.from_allocation(allocation, "sha256:aa")
    assert summary.key == "sha256:aa"
    assert summary.solver == "ssp"
    assert summary.exact
    assert summary.objective == allocation.objective
    assert summary.mem_accesses == allocation.report.mem_accesses


def test_infeasible_settles_immediately():
    lifetimes = {
        "u": make_lifetime("u", 2, 4),
        "v": make_lifetime("v", 2, 4),
    }
    problem = AllocationProblem(
        lifetimes, 1, 6, memory=MemoryConfig(divisor=6, voltage=2.0)
    )
    cache = ResultCache()
    with obs.collect() as trace:
        result = BatchExecutor(workers=1, cache=cache).map_blocks([problem])[0]
    assert result.status == "infeasible"
    assert result.solver is None and result.summary is None
    assert result.error
    assert len(cache) == 0
    # Infeasibility is a property of the instance, not a solver fault.
    assert trace.counters["service.failures"] == 1
    assert "service.solver_error" not in trace.counters


def test_summary_round_trips_through_dict_and_cache(problem):
    canonical = canonicalize(problem)
    summary = SolveSummary.from_allocation(allocate(problem), canonical.key)
    assert SolveSummary.from_dict(summary.to_dict()) == summary
    entry = summary.remap(canonical.renaming)
    names = {name for name, _, _ in entry.residency} | {
        name for name, _ in entry.memory_addresses
    }
    assert names and names <= set(canonical.renaming.values())
    assert entry.remap(canonical.inverse()) == summary
