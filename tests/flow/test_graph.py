"""Unit tests for the FlowNetwork container."""

import pytest

from repro.exceptions import GraphError
from repro.flow import FlowNetwork


def test_add_arc_registers_endpoints():
    net = FlowNetwork()
    arc = net.add_arc("u", "v", capacity=3, cost=1.5)
    assert net.has_node("u") and net.has_node("v")
    assert arc.capacity == 3
    assert arc.cost == 1.5
    assert arc.lower == 0
    assert net.num_nodes == 2
    assert net.num_arcs == 1


def test_add_node_idempotent():
    net = FlowNetwork()
    net.add_node("x")
    net.add_node("x")
    assert net.num_nodes == 1


def test_node_index_dense_and_stable():
    net = FlowNetwork()
    for name in ("a", "b", "c"):
        net.add_node(name)
    assert [net.node_index(n) for n in ("a", "b", "c")] == [0, 1, 2]


def test_parallel_arcs_allowed():
    net = FlowNetwork()
    net.add_arc("u", "v", capacity=1, cost=1.0)
    net.add_arc("u", "v", capacity=1, cost=2.0)
    assert net.num_arcs == 2
    assert len(net.arcs_from("u")) == 2


def test_self_loop_rejected():
    net = FlowNetwork()
    with pytest.raises(GraphError):
        net.add_arc("u", "u", capacity=1)


def test_negative_lower_bound_rejected():
    net = FlowNetwork()
    with pytest.raises(GraphError):
        net.add_arc("u", "v", capacity=1, lower=-1)


def test_capacity_below_lower_rejected():
    net = FlowNetwork()
    with pytest.raises(GraphError):
        net.add_arc("u", "v", capacity=1, lower=2)


def test_non_integer_bounds_rejected():
    net = FlowNetwork()
    with pytest.raises(GraphError):
        net.add_arc("u", "v", capacity=1.5)  # type: ignore[arg-type]


def test_adjacency_queries():
    net = FlowNetwork()
    a1 = net.add_arc("u", "v", capacity=1)
    a2 = net.add_arc("u", "w", capacity=1)
    a3 = net.add_arc("w", "v", capacity=1)
    assert net.arcs_from("u") == (a1, a2)
    assert net.arcs_into("v") == (a1, a3)
    assert net.arcs_from("v") == ()


def test_has_lower_bounds():
    net = FlowNetwork()
    net.add_arc("u", "v", capacity=2)
    assert not net.has_lower_bounds()
    net.add_arc("v", "w", capacity=2, lower=1)
    assert net.has_lower_bounds()




def test_iteration_yields_arcs_in_insertion_order():
    net = FlowNetwork()
    arcs = [net.add_arc("a", "b", capacity=1) for _ in range(3)]
    assert list(net) == arcs
    assert [a.index for a in net] == [0, 1, 2]


def test_with_costs_copies_and_leaves_the_original_untouched():
    net = FlowNetwork()
    net.add_arc("s", "a", capacity=2, cost=1.0, data="first")
    net.add_arc("a", "t", capacity=2, cost=3.0, lower=1)
    original = net.arcs
    copy = net.with_costs([5.0, -2.0])
    assert [arc.cost for arc in net.arcs] == [1.0, 3.0]
    assert net.arcs is original
    assert [arc.cost for arc in copy.arcs] == [5.0, -2.0]
    assert copy.arrays().costs.tolist() == [5.0, -2.0]
    assert copy.nodes == net.nodes
    assert copy.arc(0).data == "first"
    assert copy.has_lower_bounds()
    # The copy is a network of its own: growing it leaves the original be.
    copy.add_arc("s", "t", capacity=1)
    assert (net.num_arcs, copy.num_arcs) == (2, 3)
    assert net.arcs_from("s") == (net.arc(0),)


def test_with_costs_rejects_a_wrong_length():
    net = FlowNetwork()
    net.add_arc("s", "t", capacity=1)
    with pytest.raises(GraphError, match="expects 1 costs"):
        net.with_costs([1.0, 2.0])
