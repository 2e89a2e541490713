"""Register chains walked over the flow arrays.

:func:`~repro.core.allocation.decompose_chains` follows a successor
array over the flow-carrying arcs.  The generic greedy path
decomposition (:func:`~repro.flow.decompose.decompose_into_paths`)
is the oracle here: on every kind of network the builder makes, both
must give the same chains, segment by segment, and the same bypass
units.  Malformed flows must be refused, not walked.
"""

from __future__ import annotations

import random

import pytest

from repro.core import solver
from repro.core.allocation import decompose_chains
from repro.core.diagnostics import minimum_feasible_registers
from repro.core.network_builder import build_network
from repro.core.problem import AllocationProblem
from repro.core.solver import allocate
from repro.energy import MemoryConfig
from repro.energy.models import ActivityEnergyModel
from repro.exceptions import AllocationError
from repro.flow.decompose import decompose_into_paths
from repro.flow.graph import FlowResult
from repro.flow.lower_bounds import solve
from repro.scheduling.list_scheduler import list_schedule
from repro.service.manifest import parse_manifest
from repro.workloads.random_blocks import random_lifetimes
from repro.workloads.registry import KERNEL_NAMES, kernel_block


def oracle_chains(built, flow):
    """Chains and bypass units by the generic greedy path walk."""
    chains, bypass = [], 0
    for path in decompose_into_paths(flow, built.source, built.sink):
        chain = [
            arc.data[1] for arc in path if arc.data and arc.data[0] == "segment"
        ]
        if chain:
            chains.append(chain)
        else:
            bypass += 1
    return chains, bypass


def solved(problem: AllocationProblem):
    built = build_network(problem)
    return built, solve(built.network, built.source, built.sink, built.flow_value)


def assert_matches_oracle(built, flow) -> None:
    chains, bypass = decompose_chains(built, flow)
    want_chains, want_bypass = oracle_chains(built, flow)
    assert bypass == want_bypass
    assert len(chains) == len(want_chains)
    for chain, want in zip(chains, want_chains):
        assert [seg.key for seg in chain] == [seg.key for seg in want]
        assert chain == want


def random_problem(seed: int, registers: int, **options) -> AllocationProblem:
    lifetimes = random_lifetimes(random.Random(seed), count=60, horizon=24)
    return AllocationProblem(
        lifetimes,
        register_count=registers,
        horizon=max(lt.end for lt in lifetimes.values()),
        **options,
    )


@pytest.mark.parametrize("registers", [0, 3, 6])
@pytest.mark.parametrize("seed", range(4))
def test_random_blocks_match_the_path_walk(seed, registers):
    built, flow = solved(random_problem(seed, registers))
    assert_matches_oracle(built, flow)


@pytest.mark.parametrize("divisor", [1, 2, 3])
@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_registry_kernels_match_the_path_walk(name, divisor):
    problem = AllocationProblem.from_schedule(
        list_schedule(kernel_block(name)),
        register_count=1,
        memory=MemoryConfig.scaled(divisor),
    )
    registers = max(minimum_feasible_registers(problem), problem.max_density // 2)
    built, flow = solved(problem.with_options(register_count=registers))
    assert built.network.has_lower_bounds() == (divisor > 1)
    assert_matches_oracle(built, flow)


@pytest.mark.parametrize(
    "options",
    [
        {"graph_style": "all_pairs"},
        {"allow_unused_registers": False},
        {"energy_model": ActivityEnergyModel()},
    ],
    ids=["all_pairs", "no_bypass", "activity"],
)
def test_builder_variants_match_the_path_walk(options):
    for seed in range(3):
        built, flow = solved(random_problem(seed, 6, **options))
        assert_matches_oracle(built, flow)


def test_oversized_register_file_sends_units_through_the_bypass():
    problem = random_problem(0, 6)
    built, flow = solved(problem.with_options(register_count=problem.max_density + 3))
    chains, bypass = decompose_chains(built, flow)
    assert bypass >= 3
    assert len(chains) + bypass == built.flow_value
    assert_matches_oracle(built, flow)


def test_banked_pin_rounds_match_the_path_walk(monkeypatch):
    # Bank conflicts pin segments to registers and solve again: every
    # round's flow is extracted, so every round is checked.
    rounds = []
    real_extract = solver.extract_allocation

    def spy(built, flow, validate=True):
        rounds.append((built, flow))
        return real_extract(built, flow, validate)

    monkeypatch.setattr(solver, "extract_allocation", spy)
    manifest = parse_manifest(
        {
            "schema": "repro.service/manifest/v2",
            "jobs": [
                {"kind": "random", "variables": 12, "horizon": 12,
                 "registers": 5, "seed": seed,
                 "storage": {"banks": 2, "period": 2}}
                for seed in (1, 3, 4)
            ],
        }
    )
    for job in manifest.build():
        before = len(rounds)
        assert allocate(job.problem).banking is not None
        assert len(rounds) - before >= 2
    for built, flow in rounds:
        assert_matches_oracle(built, flow)


# ----------------------------------------------------------------------
# malformed flows
# ----------------------------------------------------------------------
def planted(built, flow, change) -> FlowResult:
    """*flow* with *change* applied to a copy of its flow vector."""
    flows = list(flow.flows)
    change(built, flows)
    return FlowResult(built.network, flows, flow.value)


def second_unit_out_of_r(built, flows) -> None:
    arrays = built.network.arrays()
    tails = arrays.tails.tolist()
    held = [i for i in range(built.roles.num_segments) if flows[i]]
    r_node = 3 + 2 * held[0]
    spare = next(
        a for a, t in enumerate(tails) if t == r_node and not flows[a]
    )
    flows[spare] = 1


def two_units_on_a_source_arc(built, flows) -> None:
    tails = built.network.arrays().tails.tolist()
    arc = next(
        a
        for a, t in enumerate(tails)
        if t == 0 and flows[a] and a != built.roles.bypass_arc
    )
    flows[arc] = 2


def unit_on_an_unfed_segment(built, flows) -> None:
    idle = next(i for i in range(built.roles.num_segments) if not flows[i])
    flows[idle] = 1


def chain_broken_at_a_segment(built, flows) -> None:
    held = next(i for i in range(built.roles.num_segments) if flows[i])
    flows[held] = 0


@pytest.mark.parametrize(
    "change",
    [
        second_unit_out_of_r,
        two_units_on_a_source_arc,
        unit_on_an_unfed_segment,
        chain_broken_at_a_segment,
    ],
)
def test_malformed_flows_are_refused(change):
    built, flow = solved(random_problem(0, 6))
    bad = planted(built, flow, change)
    with pytest.raises(AllocationError, match="invalid allocation flow"):
        decompose_chains(built, bad)
    with pytest.raises(AllocationError, match="invalid allocation flow"):
        solver.extract_allocation(built, bad, validate=False)


def test_flow_vector_of_the_wrong_length_is_refused():
    built, flow = solved(random_problem(0, 6))
    short = FlowResult(built.network, list(flow.flows), flow.value)
    short.flows = short.flows[:-1]
    with pytest.raises(AllocationError, match="invalid allocation flow"):
        decompose_chains(built, short)
