"""Property-based tests: the from-scratch solver against networkx.

Random layered DAGs with integer capacities and (possibly negative)
integer costs; the SSP solver's optimum must match networkx's
``min_cost_flow`` (node-demand formulation) and always satisfy the flow
axioms.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import InfeasibleFlowError
from repro.flow import (
    FlowNetwork,
    check_flow,
    decompose_into_paths,
    solve_min_cost_flow,
    solve_with_lower_bounds,
)

from tests.flow.networkx_oracle import networkx_max_flow, networkx_min_cost

# An arc spec: (tail_layer_offset handled below) — generate as tuples.
arc_strategy = st.tuples(
    st.integers(min_value=0, max_value=6),  # tail node id
    st.integers(min_value=1, max_value=7),  # head offset (ensures DAG)
    st.integers(min_value=1, max_value=5),  # capacity
    st.integers(min_value=-5, max_value=9),  # cost
)


def build_network(arcs: list[tuple[int, int, int, int]]) -> FlowNetwork:
    net = FlowNetwork()
    net.add_node(0)
    net.add_node(8)
    for tail, offset, capacity, cost in arcs:
        head = min(tail + offset, 8)
        if head == tail:
            continue
        net.add_arc(tail, head, capacity=capacity, cost=float(cost))
    return net


@given(arcs=st.lists(arc_strategy, min_size=1, max_size=18))
@settings(max_examples=120, deadline=None)
def test_matches_networkx_min_cost_flow(arcs):
    net = build_network(arcs)
    limit = networkx_max_flow(net, 0, 8)
    if limit == 0:
        return
    value = min(limit, 2)
    result = solve_min_cost_flow(net, 0, 8, value)
    check_flow(result, 0, 8, value)
    expected = networkx_min_cost(net, 0, 8, value)
    assert result.cost == pytest.approx(expected, abs=1e-6)


@given(arcs=st.lists(arc_strategy, min_size=1, max_size=18))
@settings(max_examples=80, deadline=None)
def test_flow_axioms_hold(arcs):
    net = build_network(arcs)
    limit = networkx_max_flow(net, 0, 8)
    if limit == 0:
        return
    result = solve_min_cost_flow(net, 0, 8, limit)
    check_flow(result, 0, 8, limit)
    # Decomposition must reproduce the flow exactly.
    paths = decompose_into_paths(result, 0, 8)
    assert len(paths) == limit


@given(
    arcs=st.lists(arc_strategy, min_size=1, max_size=14),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_lower_bounds_tighten_never_cheapen(arcs, data):
    """Adding a lower bound can only increase (or keep) the optimal cost."""
    net = build_network(arcs)
    limit = networkx_max_flow(net, 0, 8)
    if limit == 0:
        return
    value = limit
    free = solve_min_cost_flow(net, 0, 8, value)

    # Rebuild with a lower bound of 1 on one arc the free optimum uses.
    used = [a for a in net.arcs if free.flow(a) > 0]
    if not used:
        return
    chosen = data.draw(st.sampled_from(used))
    bounded = FlowNetwork()
    for arc in net.arcs:
        bounded.add_arc(
            arc.tail,
            arc.head,
            capacity=arc.capacity,
            cost=arc.cost,
            lower=1 if arc.index == chosen.index else 0,
        )
    result = solve_with_lower_bounds(bounded, 0, 8, value)
    check_flow(result, 0, 8, value)
    # The bound is satisfied by the free optimum, so costs must match.
    assert result.cost == pytest.approx(free.cost, abs=1e-6)


@given(
    arcs=st.lists(arc_strategy, min_size=2, max_size=14),
    bound_index=st.integers(min_value=0, max_value=100),
)
@settings(max_examples=80, deadline=None)
def test_lower_bound_on_arbitrary_arc_is_respected_or_infeasible(
    arcs, bound_index
):
    net = build_network(arcs)
    limit = networkx_max_flow(net, 0, 8)
    if limit == 0 or net.num_arcs == 0:
        return
    target = net.arcs[bound_index % net.num_arcs]
    bounded = FlowNetwork()
    for arc in net.arcs:
        bounded.add_arc(
            arc.tail,
            arc.head,
            capacity=arc.capacity,
            cost=arc.cost,
            lower=1 if arc.index == target.index else 0,
        )
    try:
        result = solve_with_lower_bounds(bounded, 0, 8, limit)
    except InfeasibleFlowError:
        return
    check_flow(result, 0, 8, limit)
    assert result.flow(bounded.arcs[target.index]) >= 1
