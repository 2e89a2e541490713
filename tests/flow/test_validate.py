"""Tests for the flow validator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flow import FlowNetwork, check_flow, flow_cost
from repro.flow.graph import FlowResult
from repro.flow.validate import FlowValidationError, node_balances


def net_and_flow():
    net = FlowNetwork()
    net.add_arc("s", "a", capacity=2, cost=1.0)
    net.add_arc("a", "t", capacity=2, cost=3.0)
    return net, FlowResult(net, [2, 2], 2)


def test_valid_flow_passes():
    net, result = net_and_flow()
    check_flow(result, "s", "t", 2)


def test_flow_cost_recomputation():
    net, result = net_and_flow()
    assert flow_cost(result) == pytest.approx(8.0)
    assert result.cost == pytest.approx(8.0)


def test_conservation_violation_detected():
    net = FlowNetwork()
    net.add_arc("s", "a", capacity=2)
    net.add_arc("a", "t", capacity=2)
    bad = FlowResult(net, [2, 1], 2)
    with pytest.raises(FlowValidationError, match="conservation|receives"):
        check_flow(bad, "s", "t", 2)


def test_capacity_violation_detected():
    net, _ = net_and_flow()
    bad = FlowResult(net, [3, 3], 3)
    with pytest.raises(FlowValidationError, match="bounds"):
        check_flow(bad, "s", "t", 3)


def test_lower_bound_violation_detected():
    net = FlowNetwork()
    net.add_arc("s", "t", capacity=2, lower=1)
    bad = FlowResult(net, [0], 0)
    with pytest.raises(FlowValidationError, match="bounds"):
        check_flow(bad, "s", "t", 0)


def test_wrong_value_detected():
    net, result = net_and_flow()
    with pytest.raises(FlowValidationError, match="ships|receives"):
        check_flow(result, "s", "t", 1)


@pytest.mark.parametrize("value", [1.5, np.float64(1.0), None])
def test_non_integral_flow_detected(value):
    net, _ = net_and_flow()
    bad = FlowResult(net, [value, value], 1)  # type: ignore[list-item]
    with pytest.raises(FlowValidationError, match="non-integral"):
        check_flow(bad, "s", "t", 1)


def test_wrong_vector_length_detected():
    net, result = net_and_flow()
    result.flows = [2]  # truncate after construction
    with pytest.raises(FlowValidationError, match="entries"):
        check_flow(result, "s", "t", 2)


@pytest.mark.parametrize("kind", ["list", "int64 array"])
def test_in_place_edit_of_the_flow_list_is_checked(kind):
    net, _ = net_and_flow()
    flows = [2, 2] if kind == "list" else np.array([2, 2], dtype=np.int64)
    result = FlowResult(net, flows, 2)
    check_flow(result, "s", "t", 2)  # reads the vector before the edit
    result.flows[1] = 1
    assert result.vector.tolist() == [2, 1]
    with pytest.raises(FlowValidationError, match="conservation"):
        check_flow(result, "s", "t", 2)


# ---------------------------------------------------------------------------
# Lower-bounded and degenerate networks.
# ---------------------------------------------------------------------------

def test_valid_lower_bounded_flow_passes():
    net = FlowNetwork()
    net.add_arc("s", "a", capacity=2, cost=1.0, lower=1)
    net.add_arc("a", "t", capacity=2, cost=1.0, lower=1)
    check_flow(FlowResult(net, [1, 1], 1), "s", "t", 1)
    check_flow(FlowResult(net, [2, 2], 2), "s", "t", 2)


def test_solver_output_respects_lower_bounds():
    from repro.flow.lower_bounds import solve_with_lower_bounds

    net = FlowNetwork()
    net.add_arc("s", "a", capacity=1, cost=5.0, lower=1)
    net.add_arc("a", "t", capacity=1, cost=5.0, lower=1)
    net.add_arc("s", "t", capacity=1, cost=0.0)
    result = solve_with_lower_bounds(net, "s", "t", 2)
    check_flow(result, "s", "t", 2)
    assert flow_cost(result) == pytest.approx(10.0)


def test_empty_network_zero_flow():
    net = FlowNetwork()
    net.add_node("s")
    net.add_node("t")
    check_flow(FlowResult(net, [], 0), "s", "t", 0)


def test_empty_problem_network_validates():
    from repro.core.network_builder import SINK, SOURCE, build_network
    from repro.core.problem import AllocationProblem
    from repro.flow.lower_bounds import solve

    problem = AllocationProblem({}, register_count=2, horizon=3)
    built = build_network(problem)
    result = solve(built.network, SOURCE, SINK, 2)
    check_flow(result, SOURCE, SINK, 2)


def test_single_variable_network_validates():
    from repro.core.network_builder import SINK, SOURCE, build_network
    from repro.core.problem import AllocationProblem
    from repro.flow.lower_bounds import solve
    from tests.conftest import make_lifetime

    problem = AllocationProblem(
        {"a": make_lifetime("a", 1, (2,), live_out=False)},
        register_count=1,
        horizon=3,
    )
    built = build_network(problem)
    result = solve(built.network, SOURCE, SINK, 1)
    check_flow(result, SOURCE, SINK, 1)
    assert result.value == 1


# ---------------------------------------------------------------------------
# First violation: the same arc, node and message as an arc-by-arc walk.
# ---------------------------------------------------------------------------

def test_lowest_out_of_bounds_arc_is_named():
    net = FlowNetwork()
    net.add_arc("s", "a", capacity=3)
    net.add_arc("a", "t", capacity=1)
    net.add_arc("s", "b", capacity=3, lower=2)
    net.add_arc("b", "t", capacity=1)
    bad = FlowResult(net, [2, 2, 1, 1], 3)
    message = f"flow 2 outside bounds [0, 1] on {net.arc(1)}"
    with pytest.raises(FlowValidationError) as caught:
        check_flow(bad, "s", "t", 3)
    assert str(caught.value) == message


def test_first_unbalanced_node_in_insertion_order_is_named():
    net = FlowNetwork()
    for node in ("s", "t", "b", "a"):
        net.add_node(node)
    net.add_arc("s", "a", capacity=1)
    net.add_arc("a", "t", capacity=1)
    net.add_arc("s", "b", capacity=1)
    net.add_arc("b", "t", capacity=1)
    # a keeps a unit (+1) and b ships one it never got (-1); the
    # terminals balance.  b was inserted first.
    bad = FlowResult(net, [1, 0, 0, 1], 1)
    with pytest.raises(FlowValidationError) as caught:
        check_flow(bad, "s", "t", 1)
    assert str(caught.value) == "conservation violated at 'b': imbalance -1"


def test_terminal_absent_from_the_network():
    net = FlowNetwork()
    net.add_arc("s", "a", capacity=1)
    net.add_arc("a", "t", capacity=1)
    # An absent terminal has no balance to check ...
    check_flow(FlowResult(net, [0, 0], 0), "x", "t", 0)
    check_flow(FlowResult(net, [0, 0], 0), "s", "y", 0)
    # ... so a present node shipping the flow is an interior imbalance.
    with pytest.raises(FlowValidationError) as caught:
        check_flow(FlowResult(net, [1, 1], 1), "x", "t", 1)
    assert str(caught.value) == "conservation violated at 's': imbalance -1"
    with pytest.raises(FlowValidationError) as caught:
        check_flow(FlowResult(net, [1, 1], 1), "s", "y", 1)
    assert str(caught.value) == "conservation violated at 't': imbalance 1"


def test_node_balances_is_keyed_by_node_in_insertion_order():
    net, result = net_and_flow()
    assert node_balances(result) == {"s": -2, "a": 0, "t": 2}
    assert list(node_balances(result)) == ["s", "a", "t"]
    assert all(type(v) is int for v in node_balances(result).values())


def reference_check_flow(result, source, sink, flow_value=None):
    """The validator written arc by arc over the ``Arc`` facade."""
    network = result.network
    expected = result.value if flow_value is None else flow_value
    if len(result.flows) != network.num_arcs:
        raise FlowValidationError(
            f"flow vector has {len(result.flows)} entries for "
            f"{network.num_arcs} arcs"
        )
    for arc in network.arcs:
        f = result.flows[arc.index]
        if not isinstance(f, int):
            raise FlowValidationError(f"non-integral flow {f!r} on {arc}")
        if f < arc.lower or f > arc.capacity:
            raise FlowValidationError(
                f"flow {f} outside bounds [{arc.lower}, {arc.capacity}] on {arc}"
            )
    balance = {node: 0 for node in network.nodes}
    for arc in network.arcs:
        balance[arc.tail] -= result.flows[arc.index]
        balance[arc.head] += result.flows[arc.index]
    for node, net in balance.items():
        if node == source:
            if net != -expected:
                raise FlowValidationError(
                    f"source ships {-net} units, expected {expected}"
                )
        elif node == sink:
            if net != expected:
                raise FlowValidationError(
                    f"sink receives {net} units, expected {expected}"
                )
        elif net != 0:
            raise FlowValidationError(
                f"conservation violated at {node!r}: imbalance {net}"
            )


def verdict(check, *args):
    """``None`` when *check* accepts, else its error message."""
    try:
        check(*args)
    except FlowValidationError as exc:
        return str(exc)
    return None


@st.composite
def perturbed_flows(draw):
    """A small network, a flow routed along random source-sink paths,
    and up to two perturbations (an integer nudge or a float entry)."""
    size = draw(st.integers(min_value=2, max_value=6))
    names = [f"n{i}" for i in range(size)]
    net = FlowNetwork()
    for node in draw(st.permutations(names)):
        net.add_node(node)
    arcs: list[list] = []  # [tail, head, flow]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        interior = st.lists(st.integers(1, size - 2), unique=True)
        path = [0, *sorted(draw(interior) if size > 2 else []), size - 1]
        for tail, head in zip(path, path[1:]):
            arcs.append([tail, head, 1])
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        tail = draw(st.integers(0, size - 2))
        head = draw(st.integers(tail + 1, size - 1))
        arcs.append([tail, head, draw(st.integers(0, 2))])
    flows: list = []
    for tail, head, flow in arcs:
        lower = draw(st.integers(0, flow))
        capacity = flow + draw(st.integers(0, 2))
        net.add_arc(names[tail], names[head], capacity=capacity, lower=lower)
        flows.append(flow)
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        if not flows:
            break
        index = draw(st.integers(0, len(flows) - 1))
        flows[index] = draw(
            st.sampled_from(
                [
                    flows[index] + 1,
                    flows[index] - 1,
                    float(flows[index]),
                    flows[index] + 0.5,
                ]
            )
        )
    source = draw(st.sampled_from([names[0], names[-1], "absent"]))
    sink = draw(st.sampled_from([names[-1], names[0], "absent"]))
    value = sum(f for (t, _, _), f in zip(arcs, flows) if t == 0)
    flow_value = draw(st.sampled_from([None, value, value + 1]))
    return FlowResult(net, flows, value), source, sink, flow_value


@settings(max_examples=300, deadline=None)
@given(case=perturbed_flows())
def test_check_flow_matches_the_arc_by_arc_reference(case):
    result, source, sink, flow_value = case
    assert verdict(check_flow, result, source, sink, flow_value) == verdict(
        reference_check_flow, result, source, sink, flow_value
    )
