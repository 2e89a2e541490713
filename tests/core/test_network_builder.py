"""Tests for the flow-network construction."""

import pickle

import numpy as np
import pytest

from repro.core.network_builder import (
    SINK,
    SOURCE,
    build_network,
    recost_network,
)
from repro.core.problem import AllocationProblem
from repro.energy import ActivityEnergyModel, MemoryConfig, StaticEnergyModel
from repro.flow.graph import FlowNetwork
from repro.scheduling.list_scheduler import list_schedule
from repro.workloads.registry import kernel_block
from tests.conftest import make_lifetime


def simple_problem(**options):
    lifetimes = {
        "a": make_lifetime("a", 1, 3),
        "b": make_lifetime("b", 3, 5),
        "c": make_lifetime("c", 2, 4),
    }
    defaults = dict(
        register_count=2, horizon=5, energy_model=StaticEnergyModel()
    )
    defaults.update(options)
    return AllocationProblem(lifetimes, **defaults)


def arcs_by_kind(network):
    kinds: dict[str, list] = {}
    for arc in network.arcs:
        kinds.setdefault(arc.data[0] if arc.data else "?", []).append(arc)
    return kinds


def test_every_segment_gets_an_arc():
    built = build_network(simple_problem())
    assert set(built.segment_arcs) == {("a", 0), ("b", 0), ("c", 0)}
    for arc in built.segment_arcs.values():
        assert arc.capacity == 1
        assert arc.lower == 0


def test_bypass_arc_present_by_default():
    built = build_network(simple_problem())
    kinds = arcs_by_kind(built.network)
    assert len(kinds.get("bypass", [])) == 1
    assert kinds["bypass"][0].capacity == 2


def test_bypass_arc_can_be_disabled():
    built = build_network(simple_problem(allow_unused_registers=False))
    kinds = arcs_by_kind(built.network)
    assert "bypass" not in kinds


def test_no_bypass_for_zero_registers():
    built = build_network(simple_problem(register_count=0))
    kinds = arcs_by_kind(built.network)
    assert "bypass" not in kinds


def test_intra_arcs_between_consecutive_segments():
    lifetimes = {"m": make_lifetime("m", 1, (3, 5, 7))}
    p = AllocationProblem(lifetimes, 1, 7)
    built = build_network(p)
    kinds = arcs_by_kind(built.network)
    intra = [
        (a.data[1].index, a.data[2].index) for a in kinds.get("intra", [])
    ]
    assert intra == [(0, 1), (1, 2)]


def test_all_pairs_has_at_least_adjacent_arcs():
    adjacent = build_network(simple_problem())
    all_pairs = build_network(simple_problem(graph_style="all_pairs"))

    def handoffs(built):
        return {
            (
                a.data[1].key if a.data[1] is not None else None,
                a.data[2].key if a.data[2] is not None else None,
            )
            for a in built.network.arcs
            if a.data and a.data[0] == "handoff"
        }

    assert handoffs(adjacent) <= handoffs(all_pairs)


def test_all_pairs_allows_peak_skip():
    # a [1,2], peak [2,4] via c, b [4,6]: a->b skips the peak — legal in
    # all_pairs, forbidden in the adjacent (paper) graph.
    lifetimes = {
        "a": make_lifetime("a", 1, 2),
        "c": make_lifetime("c", 2, 4),
        "b": make_lifetime("b", 4, 6),
    }
    def handoffs(style):
        p = AllocationProblem(lifetimes, 1, 6, graph_style=style)
        built = build_network(p)
        return {
            (a.data[1].name, a.data[2].name)
            for a in built.network.arcs
            if a.data
            and a.data[0] == "handoff"
            and a.data[1] is not None
            and a.data[2] is not None
        }

    assert ("a", "b") in handoffs("all_pairs")
    assert ("a", "b") not in handoffs("adjacent")
    # Peak-adjacent handoffs exist in both.
    assert ("a", "c") in handoffs("adjacent")
    assert ("c", "b") in handoffs("adjacent")


def test_same_step_handoff_allowed():
    lifetimes = {
        "a": make_lifetime("a", 1, 3),
        "b": make_lifetime("b", 3, 5),
    }
    p = AllocationProblem(lifetimes, 1, 5)
    built = build_network(p)
    pairs = {
        (a.data[1].name, a.data[2].name)
        for a in built.network.arcs
        if a.data and a.data[0] == "handoff" and a.data[1] and a.data[2]
    }
    assert ("a", "b") in pairs
    assert ("b", "a") not in pairs  # time-incompatible


def test_forced_segments_get_lower_bounds():
    lifetimes = {"v": make_lifetime("v", 2, 4)}
    p = AllocationProblem(
        lifetimes,
        1,
        6,
        memory=MemoryConfig(divisor=6, voltage=2.0, offset=1),
    )
    built = build_network(p)
    seg_arc = built.segment_arcs[("v", 0)]
    assert seg_arc.lower == 1


def test_spill_arcs_require_access_step():
    # v has reads at 3 and 6; under access {1,5} the first segment ends at
    # a non-access step (3), so no inter-variable handoff may leave it.
    lifetimes = {
        "v": make_lifetime("v", 1, (3, 6)),
        "w": make_lifetime("w", 3, 5),
    }
    restricted = AllocationProblem(
        lifetimes,
        1,
        6,
        memory=MemoryConfig(divisor=4, voltage=2.0, offset=1),
    )
    built = build_network(restricted)
    pairs = {
        (a.data[1].key, a.data[2].name)
        for a in built.network.arcs
        if a.data and a.data[0] == "handoff" and a.data[1] and a.data[2]
    }
    assert (("v", 0), "w") not in pairs

    free = AllocationProblem(lifetimes, 1, 6)
    built_free = build_network(free)
    pairs_free = {
        (a.data[1].key, a.data[2].name)
        for a in built_free.network.arcs
        if a.data and a.data[0] == "handoff" and a.data[1] and a.data[2]
    }
    assert (("v", 0), "w") in pairs_free


def test_flow_value_is_register_count():
    built = build_network(simple_problem(register_count=7))
    assert built.flow_value == 7


@pytest.mark.parametrize("model", [StaticEnergyModel(), ActivityEnergyModel()])
def test_recost_returns_a_copy_and_leaves_its_argument_untouched(model):
    # Forced segments give the network lower bounds; the two models take
    # the vectorized and the per-arc cost paths.
    memory = MemoryConfig(divisor=3, voltage=5.0, offset=1)
    problem = simple_problem(energy_model=model, memory=memory)
    cheaper = simple_problem(
        energy_model=model.with_voltages(2.4, 2.4),
        memory=MemoryConfig(divisor=3, voltage=2.4, offset=1),
    )
    built = build_network(problem)
    network = built.network
    before = network.arrays()
    costs = before.costs.copy()
    arcs = network.arcs

    recosted = recost_network(built, cheaper)

    assert built.problem is problem
    assert built.network is network
    assert network.arrays() is before
    assert np.array_equal(network.arrays().costs, costs)
    assert network.arcs is arcs
    assert recosted is not built
    assert recosted.network is not network
    assert recosted.problem is cheaper
    fresh = build_network(cheaper).network.arrays()
    after = recosted.network.arrays()
    assert not np.array_equal(after.costs, costs)
    assert np.array_equal(after.costs, fresh.costs)
    for column in ("tails", "heads", "capacities", "lowers"):
        assert np.array_equal(getattr(after, column), getattr(before, column))
        assert np.array_equal(getattr(after, column), getattr(fresh, column))
    assert recosted.network.has_lower_bounds() == network.has_lower_bounds()
    assert recosted.network.nodes == network.nodes
    assert [arc.cost for arc in recosted.network.arcs] == fresh.costs.tolist()


def named_one_by_one(network):
    """*network* rebuilt with every node registered by name, in index
    order, and the same arcs and payloads."""
    names = network.nodes
    reference = FlowNetwork()
    for name in names:
        reference.add_node(name)
    arrays = network.arrays()
    reference.add_arcs_indexed(
        arrays.tails,
        arrays.heads,
        arrays.capacities,
        arrays.costs,
        lowers=arrays.lowers,
        data_factory=[
            network.arc_data(i) for i in range(network.num_arcs)
        ].__getitem__,
    )
    return reference


def facade(arcs):
    return [
        (a.index, a.tail, a.head, a.capacity, a.lower, a.cost, a.data)
        for a in arcs
    ]


@pytest.mark.parametrize(
    "problem",
    [
        simple_problem(),
        simple_problem(
            memory=MemoryConfig(divisor=3, voltage=5.0, offset=1),
            allow_unused_registers=False,
        ),
        AllocationProblem.from_schedule(
            list_schedule(kernel_block("ewf")),
            register_count=6,
            memory=MemoryConfig.scaled(2),
        ),
    ],
    ids=["simple", "forced-no-bypass", "ewf-divisor-2"],
)
def test_block_named_nodes_match_nodes_added_one_by_one(problem):
    built = build_network(problem)
    # Ask for the names in a scrambled order first: each is derived on
    # its own, not by position in a walk.
    network = built.network
    n = network.num_nodes
    scrambled = [network.node(i) for i in reversed(range(n))]
    fresh = build_network(problem).network
    reference = named_one_by_one(fresh)
    assert fresh.nodes == reference.nodes == tuple(reversed(scrambled))
    assert fresh.nodes[:2] == (SOURCE, SINK)
    segments = [seg for segs in problem.segments.values() for seg in segs]
    assert n == 2 + 2 * len(segments)
    for i, seg in enumerate(segments):
        write = ("w", seg.name, seg.index)
        read = ("r", seg.name, seg.index)
        assert network.node(2 + 2 * i) == write
        assert network.node(3 + 2 * i) == read
        for key in (write, read):
            assert fresh.has_node(key)
            assert fresh.node_index(key) == reference.node_index(key)
        assert facade(fresh.arcs_from(read)) == facade(
            reference.arcs_from(read)
        )
        assert facade(fresh.arcs_into(write)) == facade(
            reference.arcs_into(write)
        )
    for absent in (("w", "nope", 0), ("r", segments[0].name, 99), ("x", 1)):
        assert not fresh.has_node(absent)
    assert facade(fresh.arcs) == facade(reference.arcs)
    # A pickled network names its block the same way on the other side.
    copied = pickle.loads(pickle.dumps(build_network(problem).network))
    assert copied.nodes == reference.nodes
    assert facade(copied.arcs) == facade(reference.arcs)
