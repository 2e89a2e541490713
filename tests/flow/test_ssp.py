"""Unit tests for the successive-shortest-path solver."""

import pytest

from repro.exceptions import GraphError, InfeasibleFlowError
from repro.flow import FlowNetwork, check_flow, solve_min_cost_flow


def diamond() -> FlowNetwork:
    net = FlowNetwork()
    net.add_arc("s", "a", capacity=2, cost=1.0)
    net.add_arc("s", "b", capacity=2, cost=4.0)
    net.add_arc("a", "t", capacity=1, cost=1.0)
    net.add_arc("a", "b", capacity=1, cost=1.0)
    net.add_arc("b", "t", capacity=2, cost=1.0)
    return net


def test_single_arc():
    net = FlowNetwork()
    net.add_arc("s", "t", capacity=5, cost=2.0)
    result = solve_min_cost_flow(net, "s", "t", 3)
    assert result.flows == [3]
    assert result.cost == 6.0


def test_prefers_cheap_path():
    result = solve_min_cost_flow(diamond(), "s", "t", 1)
    check_flow(result, "s", "t", 1)
    assert result.cost == pytest.approx(2.0)  # s->a->t


def test_fills_paths_in_cost_order():
    result = solve_min_cost_flow(diamond(), "s", "t", 3)
    check_flow(result, "s", "t", 3)
    # unit 1: s-a-t (2), unit 2: s-a-b-t (3), unit 3: s-b-t (5)
    assert result.cost == pytest.approx(10.0)


def test_negative_costs_on_dag():
    net = FlowNetwork()
    net.add_arc("s", "a", capacity=1, cost=5.0)
    net.add_arc("s", "b", capacity=1, cost=0.0)
    net.add_arc("a", "t", capacity=1, cost=-10.0)
    net.add_arc("b", "t", capacity=1, cost=0.0)
    result = solve_min_cost_flow(net, "s", "t", 1)
    assert result.cost == pytest.approx(-5.0)


def test_zero_flow_returns_empty():
    result = solve_min_cost_flow(diamond(), "s", "t", 0)
    assert result.value == 0
    assert all(f == 0 for f in result.flows)
    assert result.cost == 0.0


def test_infeasible_raises():
    with pytest.raises(InfeasibleFlowError):
        solve_min_cost_flow(diamond(), "s", "t", 4)


def test_unreachable_sink_raises():
    net = FlowNetwork()
    net.add_arc("s", "a", capacity=1)
    net.add_node("t")
    with pytest.raises(InfeasibleFlowError):
        solve_min_cost_flow(net, "s", "t", 1)


def test_unknown_endpoint_raises():
    net = FlowNetwork()
    net.add_arc("s", "a", capacity=1)
    with pytest.raises(GraphError):
        solve_min_cost_flow(net, "s", "zzz", 1)


def test_negative_flow_value_rejected():
    with pytest.raises(GraphError):
        solve_min_cost_flow(diamond(), "s", "t", -1)


def test_lower_bounds_rejected_here():
    net = FlowNetwork()
    net.add_arc("s", "t", capacity=2, lower=1)
    with pytest.raises(GraphError):
        solve_min_cost_flow(net, "s", "t", 1)


def test_solver_handles_cyclic_network():
    # Cycle with positive total cost is fine (Bellman-Ford fallback).
    net = FlowNetwork()
    net.add_arc("s", "a", capacity=2, cost=1.0)
    net.add_arc("a", "b", capacity=2, cost=1.0)
    net.add_arc("b", "a", capacity=2, cost=1.0)
    net.add_arc("b", "t", capacity=2, cost=1.0)
    result = solve_min_cost_flow(net, "s", "t", 2)
    check_flow(result, "s", "t", 2)
    assert result.cost == pytest.approx(6.0)


def test_negative_cycle_detected():
    net = FlowNetwork()
    net.add_arc("s", "a", capacity=1, cost=0.0)
    net.add_arc("a", "b", capacity=1, cost=-2.0)
    net.add_arc("b", "a", capacity=1, cost=1.0)
    net.add_arc("b", "t", capacity=1, cost=0.0)
    with pytest.raises(GraphError):
        solve_min_cost_flow(net, "s", "t", 1)


def test_integrality():
    result = solve_min_cost_flow(diamond(), "s", "t", 3)
    assert all(isinstance(f, int) for f in result.flows)


def test_result_helpers():
    result = solve_min_cost_flow(diamond(), "s", "t", 3)
    assert result.outflow("s") == 3
    assert result.inflow("t") == 3
    assert all(result.flow(arc) >= 0 for arc in result.network.arcs)
    assert {a.tail for a in result.saturated_arcs()} <= {"s", "a", "b"}
