"""Unit tests for the lower-bound transformation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import chain_flow
from repro.core.network_builder import build_network
from repro.core.problem import AllocationProblem
from repro.energy import MemoryConfig
from repro.exceptions import InfeasibleFlowError
from repro.flow import (
    FlowNetwork,
    check_flow,
    solve,
    solve_min_cost_flow,
    solve_with_lower_bounds,
)
from repro.flow.graph import ArcArrays, FlowResult
from repro.flow.lower_bounds import (
    _SUPER_SINK as SUPER_SINK,
    _SUPER_SOURCE as SUPER_SOURCE,
    solve as flow_solve,
    transform_lower_bounds,
)
from repro.scheduling.list_scheduler import list_schedule
from repro.verify.differential import cross_check
from repro.workloads.registry import KERNEL_NAMES, kernel_block


def test_dispatch_without_lower_bounds():
    net = FlowNetwork()
    net.add_arc("s", "t", capacity=3, cost=1.0)
    result = solve(net, "s", "t", 2)
    assert result.cost == 2.0


def test_forced_expensive_arc():
    net = FlowNetwork()
    net.add_arc("s", "a", capacity=2, cost=5.0)
    net.add_arc("s", "b", capacity=2, cost=0.0)
    net.add_arc("a", "t", capacity=2, cost=0.0, lower=1)
    net.add_arc("b", "t", capacity=2, cost=0.0)
    result = solve_with_lower_bounds(net, "s", "t", 2)
    check_flow(result, "s", "t", 2)
    # Without the bound the optimum would route both units via b (cost 0);
    # the bound forces one unit over the 5-cost arc.
    assert result.cost == pytest.approx(5.0)
    forced = net.arcs[2]
    assert result.flow(forced) >= 1


def test_bounds_respected_exactly():
    net = FlowNetwork()
    net.add_arc("s", "a", capacity=3, cost=0.0)
    net.add_arc("a", "t", capacity=3, cost=0.0, lower=2)
    result = solve_with_lower_bounds(net, "s", "t", 3)
    check_flow(result, "s", "t", 3)
    assert result.flow(net.arcs[1]) == 3


def test_infeasible_lower_bound():
    net = FlowNetwork()
    net.add_arc("s", "a", capacity=1, cost=0.0)
    net.add_arc("a", "t", capacity=2, cost=0.0, lower=2)
    # Only 1 unit can reach a, but the arc demands 2.
    with pytest.raises(InfeasibleFlowError):
        solve_with_lower_bounds(net, "s", "t", 1)


def test_lower_bound_exceeding_flow_value_infeasible():
    net = FlowNetwork()
    net.add_arc("s", "t", capacity=5, cost=0.0, lower=3)
    with pytest.raises(InfeasibleFlowError):
        solve_with_lower_bounds(net, "s", "t", 2)


def test_parallel_bounded_arcs():
    net = FlowNetwork()
    net.add_arc("s", "a", capacity=2, cost=0.0)
    net.add_arc("a", "t", capacity=1, cost=1.0, lower=1)
    net.add_arc("a", "t", capacity=1, cost=9.0, lower=1)
    result = solve_with_lower_bounds(net, "s", "t", 2)
    check_flow(result, "s", "t", 2)
    assert result.cost == pytest.approx(10.0)


def test_optimality_with_negative_costs_and_bounds():
    net = FlowNetwork()
    net.add_arc("s", "a", capacity=2, cost=0.0)
    net.add_arc("s", "b", capacity=2, cost=0.0)
    net.add_arc("a", "t", capacity=2, cost=-4.0)
    net.add_arc("b", "t", capacity=2, cost=1.0, lower=1)
    result = solve_with_lower_bounds(net, "s", "t", 3)
    check_flow(result, "s", "t", 3)
    # Best: 2 units at -4, 1 forced unit at +1.
    assert result.cost == pytest.approx(-7.0)


# ---------------------------------------------------------------------------
# The reduction is built on the arrays; it must equal the arc-by-arc one.
# ---------------------------------------------------------------------------

def reference_transform(network, source, sink, flow_value):
    """The excess/deficit reduction written arc by arc over the facade:
    ``(network, demand)``."""
    excess = {}
    transformed = FlowNetwork()
    for node in network.nodes:
        transformed.add_node(node)
    for arc in network.arcs:
        transformed.add_arc(
            arc.tail,
            arc.head,
            capacity=arc.capacity - arc.lower,
            cost=arc.cost,
            data=arc.index,
        )
        if arc.lower:
            excess[arc.head] = excess.get(arc.head, 0) + arc.lower
            excess[arc.tail] = excess.get(arc.tail, 0) - arc.lower
    excess[source] = excess.get(source, 0) + flow_value
    excess[sink] = excess.get(sink, 0) - flow_value
    transformed.add_node(SUPER_SOURCE)
    transformed.add_node(SUPER_SINK)
    demand = 0
    for node, value in excess.items():
        if value > 0:
            transformed.add_arc(SUPER_SOURCE, node, capacity=value, cost=0.0)
            demand += value
        elif value < 0:
            transformed.add_arc(node, SUPER_SINK, capacity=-value, cost=0.0)
    return transformed, demand


def reference_recover(transform, inner):
    """:meth:`LowerBoundTransform.recover` written arc by arc."""
    flows = [0] * transform.original.num_arcs
    for t_arc in transform.network.arcs:
        if isinstance(t_arc.data, int):
            flows[t_arc.data] = inner.flows[t_arc.index]
    for arc in transform.original.arcs:
        flows[arc.index] += arc.lower
    result = FlowResult(transform.original, flows, transform.flow_value)
    source, sink = transform.source, transform.sink
    net_out = result.outflow(source) - result.inflow(source)
    net_in = result.inflow(sink) - result.outflow(sink)
    if net_out != transform.flow_value or net_in != transform.flow_value:
        raise InfeasibleFlowError(
            f"recovered flow ships {net_out}/{net_in} units, expected "
            f"{transform.flow_value} (bounds make the problem infeasible)"
        )
    return result


def recovered(recover, *args):
    """``(flows, value)`` of a recovery, or its infeasibility message."""
    try:
        result = recover(*args)
    except InfeasibleFlowError as exc:
        return str(exc)
    return result.flows, result.value


@st.composite
def lower_bounded_instances(draw):
    """Small acyclic networks (arcs point from lower to higher position in
    ``s, v1, ..., t``) where some arcs — parallel ones, and arcs leaving
    ``s`` or entering ``t`` among them — carry lower bounds."""
    size = draw(st.integers(min_value=2, max_value=6))
    names = ["s", *(f"v{i}" for i in range(1, size - 1)), "t"]
    net = FlowNetwork()
    for node in draw(st.permutations(names)):
        net.add_node(node)
    specs = draw(
        st.lists(
            st.tuples(
                st.integers(0, size - 1),
                st.integers(0, size - 1),
                st.integers(0, 1),  # lower
                st.integers(0, 2),  # capacity above the lower bound
                st.integers(-3, 5),  # cost
                st.integers(1, 2),  # copies (parallel arcs)
            ),
            min_size=1,
            max_size=8,
        )
    )
    for tail, head, lower, extra, cost, copies in specs:
        if tail == head:
            continue
        tail, head = min(tail, head), max(tail, head)
        for _ in range(copies):
            net.add_arc(
                names[tail],
                names[head],
                capacity=lower + extra,
                cost=float(cost),
                lower=lower,
            )
    # Guarantee a bound at each terminal.
    net.add_arc("s", names[draw(st.integers(1, size - 1))], 2, lower=1)
    net.add_arc(names[draw(st.integers(0, size - 2))], "t", 2, lower=1)
    if draw(st.booleans()):
        # Costly unbounded detours through every node make most bounds
        # satisfiable, so recovery is exercised on feasible flows too.
        for node in names:
            if node not in ("s", "t"):
                net.add_arc("s", node, 9, cost=7.0)
                net.add_arc(node, "t", 9, cost=7.0)
    return net, draw(st.integers(min_value=0, max_value=12))


@settings(max_examples=150, deadline=None)
@given(case=lower_bounded_instances(), data=st.data())
def test_transform_matches_the_arc_by_arc_reduction(case, data):
    net, flow_value = case
    transform = transform_lower_bounds(net, "s", "t", flow_value)
    expected, demand = reference_transform(net, "s", "t", flow_value)
    got = transform.network
    assert got.nodes == expected.nodes
    for name in ArcArrays._fields:
        left, right = getattr(got.arrays(), name), getattr(expected.arrays(), name)
        assert left.dtype == right.dtype and np.array_equal(left, right), name
    assert transform.demand == demand
    m = net.num_arcs
    assert all(got.arc_data(i) == i for i in range(m))
    assert all(got.arc_data(i) is None for i in range(m, got.num_arcs))
    # Identical sequences: the super arcs come in the same order.
    assert [(a.tail, a.head, a.capacity) for a in got.arcs[m:]] == [
        (a.tail, a.head, a.capacity) for a in expected.arcs[m:]
    ]

    inner_flows = [
        data.draw(st.integers(0, int(c)), label=f"inner[{i}]")
        for i, c in enumerate(got.arrays().capacities)
    ]
    candidates = [FlowResult(got, inner_flows, transform.demand)]
    try:
        candidates.append(
            solve_min_cost_flow(
                got, transform.super_source, transform.super_sink, demand
            )
        )
    except InfeasibleFlowError:
        pass
    for inner in candidates:
        assert recovered(transform.recover, inner) == recovered(
            reference_recover, transform, inner
        )


def test_transform_keeps_original_ids_on_a_bounded_kernel():
    problem = AllocationProblem.from_schedule(
        list_schedule(kernel_block("fir", taps=8)),
        register_count=4,
        memory=MemoryConfig.scaled(2),
    )
    built = build_network(problem)
    assert built.network.has_lower_bounds()
    transform = transform_lower_bounds(
        built.network, built.source, built.sink, built.flow_value
    )
    expected, demand = reference_transform(
        built.network, built.source, built.sink, built.flow_value
    )
    assert transform.demand == demand
    for name in ArcArrays._fields:
        assert np.array_equal(
            getattr(transform.network.arrays(), name),
            getattr(expected.arrays(), name),
        )
    inner = solve_min_cost_flow(
        transform.network,
        transform.super_source,
        transform.super_sink,
        transform.demand,
    )
    assert recovered(transform.recover, inner) == recovered(
        reference_recover, transform, inner
    )


@settings(max_examples=40, deadline=None)
@given(case=lower_bounded_instances())
def test_cross_check_agrees_on_lower_bounded_instances(case):
    net, flow_value = case
    outcome = cross_check(net, "s", "t", flow_value)
    assert outcome.agreed, outcome.message


def super_arcs(network, first):
    """``(tail, head, capacity)`` of arcs ``first..`` as node names."""
    arrays = network.arrays()
    return [
        (
            network.node(int(arrays.tails[i])),
            network.node(int(arrays.heads[i])),
            int(arrays.capacities[i]),
        )
        for i in range(first, network.num_arcs)
    ]


def assert_same_super_arcs(network, source, sink, flow_value):
    transform = transform_lower_bounds(network, source, sink, flow_value)
    expected, demand = reference_transform(network, source, sink, flow_value)
    m = network.num_arcs
    assert transform.demand == demand
    assert super_arcs(transform.network, m) == super_arcs(expected, m)
    assert transform.network.nodes == expected.nodes


@pytest.mark.parametrize("divisor", [2, 3])
@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_super_arcs_follow_first_touch_order_on_registry_kernels(
    name, divisor
):
    problem = AllocationProblem.from_schedule(
        list_schedule(kernel_block(name)),
        register_count=4,
        memory=MemoryConfig.scaled(divisor),
    )
    built = build_network(problem)
    assert built.network.has_lower_bounds()
    assert_same_super_arcs(
        built.network, built.source, built.sink, built.flow_value
    )


@pytest.mark.parametrize("style", ["adjacent", "all_pairs"])
@pytest.mark.parametrize("name", ["fir", "ewf", "dct"])
def test_super_arcs_follow_first_touch_order_on_chain_flows(
    monkeypatch, name, style
):
    # The interval-chaining flows pin every interval with a lower bound.
    captured = []

    def capture(network, source, sink, flow_value):
        captured.append((network, source, sink, flow_value))
        return flow_solve(network, source, sink, flow_value)

    monkeypatch.setattr(chain_flow, "flow_solve", capture)
    problem = AllocationProblem.from_schedule(
        list_schedule(kernel_block(name)), register_count=4
    )
    chain_flow.optimal_interval_chains(
        problem.lifetimes.values(),
        problem.horizon,
        pair_cost=lambda previous, item: 0.0 if previous else 1.0,
        style=style,
    )
    ((network, source, sink, flow_value),) = captured
    assert network.has_lower_bounds()
    assert_same_super_arcs(network, source, sink, flow_value)
