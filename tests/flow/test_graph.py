"""Unit tests for the FlowNetwork container."""

import numpy as np
import pytest

from repro.exceptions import GraphError
from repro.flow import FlowNetwork
from repro.flow.graph import ArcArrays, FlowResult


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


# ---------------------------------------------------------------------------
# Array-native storage: read-only views, shared topology, bulk validation.
# ---------------------------------------------------------------------------

def two_arc_network() -> FlowNetwork:
    net = FlowNetwork()
    net.add_arc("s", "a", capacity=2, cost=1.0)
    net.add_arc("a", "t", capacity=2, cost=3.0, lower=1)
    return net


def test_array_views_share_the_columns_and_are_read_only():
    net = two_arc_network()
    arrays = net.arrays()
    assert net.arrays() is arrays  # cached, no conversion per call
    for name in ArcArrays._fields:
        view = getattr(arrays, name)
        assert np.shares_memory(view, getattr(net.arrays(), name))
        with pytest.raises(ValueError, match="read-only"):
            view[0] = 0
    assert arrays.tails.dtype == np.int64 and arrays.costs.dtype == np.float64
    net.add_arc("s", "t", capacity=1, cost=2.0)
    # Appends refresh the views; the old ones keep showing two arcs.
    assert len(arrays.tails) == 2 and len(net.arrays().tails) == 3
    assert net.arrays().costs.tolist() == [1.0, 3.0, 2.0]


def test_with_costs_shares_topology_copy_on_write():
    net = two_arc_network()
    copy = net.with_costs([5.0, -2.0])
    for name in ("tails", "heads", "capacities", "lowers"):
        assert np.shares_memory(
            getattr(net.arrays(), name), getattr(copy.arrays(), name)
        ), name
    assert not np.shares_memory(net.arrays().costs, copy.arrays().costs)
    # An arc appended to either network does not show in the other.
    net.add_arc("a", "s", capacity=4, cost=9.0)
    copy.add_arc("t", "s", capacity=7, cost=8.0, lower=2)
    assert net.arrays().tails.tolist() == [0, 1, 1]
    assert net.arrays().capacities.tolist() == [2, 2, 4]
    assert copy.arrays().tails.tolist() == [0, 1, 2]
    assert copy.arrays().capacities.tolist() == [2, 2, 7]
    assert copy.arrays().lowers.tolist() == [0, 1, 2]
    assert [arc.cost for arc in net.arcs] == [1.0, 3.0, 9.0]
    assert [arc.cost for arc in copy.arcs] == [5.0, -2.0, 8.0]
    again = net.with_costs([0.0, 0.0, 0.0])
    net.add_arcs_indexed(
        np.array([0]), np.array([2]), np.array([1]), np.array([0.5])
    )
    assert (net.num_arcs, again.num_arcs) == (4, 3)
    assert again.arrays().heads.tolist() == [1, 2, 0]


def test_arc_facades_keep_python_scalars():
    net = two_arc_network()
    net.add_arcs_indexed(
        np.array([0]), np.array([2]), np.array([3]), np.array([0.25])
    )
    for arc in net.arcs:
        assert type(arc.capacity) is int and type(arc.lower) is int
        assert type(arc.cost) is float
    assert net.arc(2).capacity == 3 and net.arc(2).cost == 0.25


def test_node_block_names_on_demand():
    asked: list[int] = []

    def name_of(offset: int):
        asked.append(offset)
        return ("n", offset)

    def index_of(node):
        if isinstance(node, tuple) and len(node) == 2 and node[0] == "n":
            return node[1] if 0 <= node[1] < 3 else None
        return None

    net = FlowNetwork()
    net.add_node("s")
    assert net.add_node_block(3, name_of, index_of) == 1
    net.add_node("t")
    assert net.add_node(("n", 1)) == ("n", 1)  # already there, via its block
    assert net.num_nodes == 5 and asked == []
    assert net.node_index(("n", 2)) == 3 and net.has_node(("n", 0))
    assert not net.has_node(("n", 3))
    with pytest.raises(KeyError):
        net.node_index(("n", 7))
    assert net.node_index("t") == 4 and asked == []
    assert net.node(2) == ("n", 1) and asked == [1]
    assert net.node(-1) == "t"
    assert net.nodes == ("s", ("n", 0), ("n", 1), ("n", 2), "t")
    assert sorted(asked) == [0, 1, 2]  # each name is built once
    with pytest.raises(IndexError):
        net.node(5)


@pytest.mark.parametrize(
    "column, values",
    [
        ("capacities", [1.5]),
        ("lowers", [0.7]),
        ("capacities", [1.0]),
        ("tails", [0.9]),
        ("heads", [1.2]),
    ],
)
def test_bulk_appends_reject_non_integers_like_single_ones(column, values):
    net = FlowNetwork()
    for name in ("u", "v"):
        net.add_node(name)
    batch = {
        "tails": np.array([0]),
        "heads": np.array([1]),
        "capacities": np.array([2]),
        "costs": np.array([0.0]),
        "lowers": np.array([0]),
    }
    batch[column] = np.array(values)
    with pytest.raises(GraphError, match="must be integers"):
        net.add_arcs_indexed(**batch)
    assert net.num_arcs == 0
    if column in ("capacities", "lowers"):
        keyword = "capacity" if column == "capacities" else "lower"
        scalar = {"capacity": 2, keyword: values[0]}
        with pytest.raises(GraphError, match="must be integers"):
            net.add_arc("u", "v", **scalar)
    # Integer arrays of any width, and empty batches, are accepted.
    net.add_arcs_indexed(
        np.array([0], np.int32), np.array([1], np.uint8), [2], [0.0], [1]
    )
    net.add_arcs_indexed([], [], [], [])
    assert net.arcs[0].capacity == 2 and net.arcs[0].lower == 1


@pytest.mark.parametrize("flows", [[2, 1, 0], [0, 0, 0], [3, 0, 2]])
def test_flow_result_cost_is_the_same_from_a_list_or_an_array(flows):
    net = FlowNetwork()
    net.add_arc("s", "a", capacity=3, cost=0.1)
    net.add_arc("a", "t", capacity=3, cost=0.7)
    net.add_arc("s", "t", capacity=3, cost=-1e-17)
    listed = FlowResult(net, list(flows), 2)
    vector = FlowResult(net, np.array(flows, dtype=np.int64), 2)
    assert listed.cost.hex() == vector.cost.hex()
    assert vector.flows == flows
    assert all(type(f) is int for f in vector.flows)
    assert vector.vector.dtype == np.int64
    vector.flows = [1, 1, 1]  # the list facade stays settable
    assert vector.vector.tolist() == [1, 1, 1]
