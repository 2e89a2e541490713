"""Tests for the end-to-end allocator."""

import pytest

from repro import obs
from repro.core.options import SolveOptions
from repro.core.problem import AllocationProblem
from repro.core.solver import allocate
from repro.energy import ActivityEnergyModel, MemoryConfig, StaticEnergyModel
from repro.exceptions import AllocationError, InfeasibleFlowError
from tests.conftest import make_lifetime


def five_var_problem(register_count, **options):
    lifetimes = {
        "a": make_lifetime("a", 1, 3),
        "b": make_lifetime("b", 2, 3),
        "d": make_lifetime("d", 3, 8, live_out=True),
        "e": make_lifetime("e", 4, 5),
        "c": make_lifetime("c", 5, 8, live_out=True),
    }
    return AllocationProblem(
        lifetimes,
        register_count,
        7,
        energy_model=options.pop("energy_model", StaticEnergyModel()),
        **options,
    )


def test_zero_registers_all_memory():
    allocation = allocate(five_var_problem(0))
    assert allocation.chains == []
    assert allocation.report.reg_accesses == 0
    assert allocation.report.mem_accesses == 10  # 5 writes + 5 reads
    assert set(allocation.memory_addresses) == {"a", "b", "c", "d", "e"}


def test_enough_registers_no_memory():
    allocation = allocate(five_var_problem(2))
    assert allocation.report.mem_accesses == 0
    assert allocation.memory_addresses == {}
    assert allocation.registers_used == 2


def test_extra_registers_left_unused():
    allocation = allocate(five_var_problem(4))
    assert allocation.unused_registers == 2
    assert allocation.registers_used == 2


def test_objective_monotone_in_registers():
    energies = [
        allocate(five_var_problem(r)).objective for r in range(0, 4)
    ]
    assert energies == sorted(energies, reverse=True)
    assert energies[2] == energies[3]  # saturates at density


def test_chains_are_time_ordered_and_disjoint():
    allocation = allocate(five_var_problem(2))
    seen = set()
    for chain in allocation.chains:
        for earlier, later in zip(chain, chain[1:]):
            assert earlier.end <= later.start
        for seg in chain:
            assert seg.key not in seen
            seen.add(seg.key)


def test_residency_matches_chains():
    allocation = allocate(five_var_problem(1))
    for register, chain in enumerate(allocation.chains):
        for seg in chain:
            assert allocation.residency[seg.key] == register
    for name in allocation.problem.lifetimes:
        in_reg = allocation.in_register(name)
        in_mem = name in allocation.memory_addresses
        assert in_reg != in_mem  # single-read vars: exactly one home


def test_energy_identity_flow_vs_accounting():
    # SolveOptions(validate=True) enforces objective == recomputed energy;
    # run across models and register counts.
    for model in (StaticEnergyModel(), ActivityEnergyModel()):
        for r in range(4):
            allocation = allocate(
                five_var_problem(r, energy_model=model),
                SolveOptions(validate=True),
            )
            assert allocation.report.total_energy == pytest.approx(
                allocation.objective
            )


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("voltage", [float("nan"), float("inf")])
def test_energy_check_fails_a_non_finite_objective(voltage):
    # NaN compares false with everything, so the cross-check must be
    # phrased to fail on it rather than to pass it.
    problem = five_var_problem(
        2, energy_model=StaticEnergyModel(mem_voltage=voltage)
    )
    with pytest.raises(AllocationError, match="energy accounting mismatch"):
        allocate(problem, SolveOptions(validate=True))


def test_infeasible_forced_density_raises():
    # Two forced (interior) lifetimes overlap but only 1 register exists.
    lifetimes = {
        "u": make_lifetime("u", 2, 4),
        "v": make_lifetime("v", 2, 4),
    }
    problem = AllocationProblem(
        lifetimes,
        1,
        6,
        memory=MemoryConfig(divisor=6, voltage=2.0),
    )
    with pytest.raises(InfeasibleFlowError):
        allocate(problem)


def test_register_count_never_exceeded():
    for r in (1, 2, 3):
        allocation = allocate(five_var_problem(r))
        assert allocation.registers_used <= r


def test_format_mentions_chains():
    allocation = allocate(five_var_problem(2))
    text = allocation.format()
    assert "R0:" in text
    assert "objective" in text


def test_prebuilt_network_is_solved_and_must_match_its_problem():
    from repro.core.network_builder import build_network

    problem = five_var_problem(2)
    network = build_network(problem)
    given = allocate(problem, network=network)
    assert given.flow.network is network.network
    fresh = allocate(problem)
    assert list(given.flow.flows) == list(fresh.flow.flows)
    assert given.residency == fresh.residency
    with pytest.raises(ValueError, match="different problem"):
        allocate(five_var_problem(2), network=network)


def test_allocate_many_matches_allocate_and_returns_errors():
    from repro.core.network_builder import build_network
    from repro.core.solver import allocate_many

    infeasible = AllocationProblem(
        {"u": make_lifetime("u", 2, 4), "v": make_lifetime("v", 2, 4)},
        1,
        6,
        memory=MemoryConfig(divisor=6, voltage=2.0),
    )
    problems = [five_var_problem(r) for r in (0, 1, 2, 3)] + [infeasible]
    given = build_network(problems[2])
    settled = list(
        allocate_many(
            problems,
            [SolveOptions(certify=bool(i % 2)) for i in range(len(problems))],
            networks=[None, None, given, None, None],
        )
    )
    assert sorted(index for index, _ in settled) == list(range(5))
    outcomes = [outcome for _, outcome in sorted(settled)]
    for problem, outcome in zip(problems[:4], outcomes):
        alone = allocate(problem)
        assert outcome.result.residency == alone.residency
        assert list(outcome.result.flow.flows) == list(alone.flow.flows)
        assert outcome.wall_time_s > 0
    assert outcomes[2].result.flow.network is given.network
    error = outcomes[4].result
    assert isinstance(error, InfeasibleFlowError)
    assert error.problem is infeasible
    with pytest.raises(InfeasibleFlowError) as alone_error:
        allocate(infeasible)
    assert str(alone_error.value) == str(error)
    ((_, mismatch),) = allocate_many([five_var_problem(2)], networks=[given])
    assert isinstance(mismatch.result, ValueError)


def test_a_fault_in_a_lone_solve_is_not_solved_again(monkeypatch):
    from repro.exceptions import GraphError
    from repro.flow.kernel import FlowKernel

    calls = []

    def faulty_solve_many(self, sources, sinks, flow_values, labels=None):
        calls.append(len(flow_values))
        raise GraphError("negative-cost cycle")

    monkeypatch.setattr(FlowKernel, "solve_many", faulty_solve_many)
    with obs.collect() as trace:
        with pytest.raises(GraphError, match="negative-cost cycle"):
            allocate(five_var_problem(1))
    assert calls == [1]
    assert trace.counters["solver.flow_solve.calls"] == 1
