"""Parity tests: the vectorized kernel against networkx.

The struct-of-arrays kernel (``repro.flow.kernel``) and networkx's
network simplex share no code, so agreement on random layered DAGs —
optimal cost, flow axioms and optimality certificate, error behaviour —
pins the vectorization.  The incremental re-solve is checked against a
fresh cold solve after seeded cost perturbations, and the
label-correcting fallback (the only search on an install without scipy)
against the scipy Dijkstra path.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.options import SolveOptions
from repro.core.problem import AllocationProblem
from repro.core.solver import allocate
from repro.energy import MemoryConfig
from repro.exceptions import GraphError, InfeasibleFlowError
from repro.flow import check_flow, kernel as kernel_module, solve_min_cost_flow
from repro.flow.graph import FlowNetwork
from repro.flow.kernel import FlowKernel, dag_distances
from repro.scheduling.list_scheduler import list_schedule
from repro.verify.certificates import certify_flow
from repro.workloads.registry import (
    FIGURE_NAMES,
    KERNEL_NAMES,
    figure_example,
    kernel_block,
)

from tests.flow.networkx_oracle import networkx_max_flow, networkx_min_cost


def random_network(seed: int, nodes: int = 10, arcs: int = 30) -> FlowNetwork:
    """Random layered DAG (arcs point to higher node ids: no cycles)."""
    rng = random.Random(seed)
    net = FlowNetwork()
    for u in range(nodes):
        net.add_node(u)
    for _ in range(arcs):
        tail = rng.randrange(nodes - 1)
        head = rng.randrange(tail + 1, nodes)
        net.add_arc(
            tail,
            head,
            capacity=rng.randint(1, 4),
            cost=float(rng.randint(-5, 9)),
        )
    return net


def _tail_grouped(net: FlowNetwork):
    arrays = net.arrays()
    order = np.argsort(arrays.tails, kind="stable")
    return arrays.tails[order], arrays.heads[order], arrays.costs[order]


@pytest.mark.parametrize("seed", range(12))
def test_dag_distances_match_bellman_ford_on_random_dags(seed):
    import networkx as nx

    net = random_network(seed)
    source = seed % 3  # lower node ids stay unreachable
    dist = dag_distances(net.num_nodes, *_tail_grouped(net), source)
    graph = nx.MultiDiGraph()
    graph.add_nodes_from(net.nodes)
    for arc in net.arcs:
        graph.add_edge(arc.tail, arc.head, weight=arc.cost)
    expected = nx.single_source_bellman_ford_path_length(graph, source)
    assert any(cost < 0 for cost in net.arrays().costs)
    for node in net.nodes:
        got = dist[net.node_index(node)]
        assert got == expected.get(node, float("inf")), node


def test_dag_distances_mark_unreachable_nodes_inf():
    tails = np.array([0, 2], dtype=np.int64)
    heads = np.array([1, 1], dtype=np.int64)
    dist = dag_distances(4, tails, heads, np.array([-3.0, -7.0]), 0)
    assert dist.tolist() == [0.0, -3.0, float("inf"), float("inf")]


def test_dag_distances_return_none_on_a_cycle():
    tails = np.array([0, 1, 2], dtype=np.int64)
    heads = np.array([1, 2, 1], dtype=np.int64)
    assert dag_distances(3, tails, heads, np.zeros(3), 0) is None


@pytest.mark.parametrize("seed", range(25))
def test_kernel_matches_reference_on_random_dags(seed):
    net = random_network(seed)
    source, sink = 0, net.num_nodes - 1
    limit = networkx_max_flow(net, source, sink)
    if limit == 0:
        return
    value = min(limit, 3)
    result = solve_min_cost_flow(net, source, sink, value)
    check_flow(result, source, sink, value)
    certify_flow(result)
    assert result.cost == pytest.approx(
        networkx_min_cost(net, source, sink, value), abs=1e-6
    )


def _random_dag(rng: random.Random, nodes: int, extra_arcs: int) -> FlowNetwork:
    """Random layered DAG over an ``s -> n0 -> ... -> t`` chain, with
    integer costs (possibly negative) and parallel arcs."""
    net = FlowNetwork()
    names = ["s"] + [f"n{i}" for i in range(nodes)] + ["t"]
    for a, b in zip(names, names[1:]):  # guarantee an s-t path
        net.add_arc(a, b, capacity=rng.randint(1, 4), cost=rng.randint(-3, 6))
    for _ in range(extra_arcs):
        i = rng.randrange(len(names) - 1)
        j = rng.randrange(i + 1, len(names))
        net.add_arc(
            names[i],
            names[j],
            capacity=rng.randint(1, 4),
            cost=rng.randint(-3, 6),
        )
    return net


@pytest.mark.parametrize("seed", range(20))
def test_agrees_with_networkx_on_random_dags(seed):
    rng = random.Random(seed)
    net = _random_dag(rng, nodes=rng.randint(2, 7), extra_arcs=rng.randint(2, 12))
    limit = networkx_max_flow(net, "s", "t")
    value = rng.randint(1, limit)
    result = solve_min_cost_flow(net, "s", "t", value)
    check_flow(result, "s", "t", value)
    certify_flow(result)
    assert result.cost == pytest.approx(
        networkx_min_cost(net, "s", "t", value), abs=1e-6
    )


@pytest.mark.parametrize("seed", range(25))
def test_kernel_flows_are_python_ints(seed):
    net = random_network(seed)
    limit = networkx_max_flow(net, 0, net.num_nodes - 1)
    if limit == 0:
        return
    result = solve_min_cost_flow(net, 0, net.num_nodes - 1, limit)
    assert all(isinstance(f, int) for f in result.flows)


@pytest.mark.parametrize("seed", range(15))
def test_reoptimize_matches_cold_solve_after_cost_perturbation(seed):
    net = random_network(seed, nodes=12, arcs=40)
    source, sink = 0, net.num_nodes - 1
    limit = networkx_max_flow(net, source, sink)
    if limit == 0:
        return
    value = min(limit, 3)
    kernel = FlowKernel(net)
    flows, potential, _ = kernel.solve(source, sink, value)

    rng = np.random.default_rng(seed)
    new_costs = net.arrays().costs + rng.integers(
        -3, 4, size=net.num_arcs
    ).astype(float)
    net = net.with_costs(new_costs)

    warm = FlowKernel(net, csr=kernel.csr)
    warm.load_flows(flows)
    warm_flows, new_potential, stats = warm.reoptimize(potential)

    cold = solve_min_cost_flow(net, source, sink, value)
    warm_cost = float(new_costs @ warm_flows)
    assert warm_cost == pytest.approx(cold.cost, abs=1e-6)
    check_flow(
        type(cold)(net, warm_flows.tolist(), value), source, sink, value
    )
    # The refreshed potentials certify the optimum: no active residual
    # arc has negative reduced cost.
    active = warm.res_cap > 0
    reduced = (
        warm.res_cost[active]
        + new_potential[warm.res_tail[active]]
        - new_potential[warm.res_head[active]]
    )
    assert reduced.min(initial=0.0) >= -1e-6


def test_reoptimize_is_noop_when_costs_unchanged():
    net = random_network(3)
    source, sink = 0, net.num_nodes - 1
    limit = networkx_max_flow(net, source, sink)
    value = min(limit, 3)
    kernel = FlowKernel(net)
    flows, potential, _ = kernel.solve(source, sink, value)
    warm = FlowKernel(net, csr=kernel.csr)
    warm.load_flows(flows)
    warm_flows, _, stats = warm.reoptimize(potential)
    assert np.array_equal(warm_flows, flows)
    assert stats.cancellations == 0


def test_negative_cycle_detected():
    net = FlowNetwork()
    net.add_arc("s", "a", capacity=1, cost=0.0)
    net.add_arc("a", "b", capacity=1, cost=-5.0)
    net.add_arc("b", "a", capacity=1, cost=-5.0)
    net.add_arc("b", "t", capacity=1, cost=0.0)
    with pytest.raises(GraphError, match="negative-cost cycle"):
        solve_min_cost_flow(net, "s", "t", 1)


def test_csr_is_topology_only_and_reusable():
    net = random_network(7)
    kernel = FlowKernel(net)
    net = net.with_costs(net.arrays().costs * 2.0)
    rebuilt = FlowKernel(net, csr=kernel.csr)
    fresh = FlowKernel(net)
    assert np.array_equal(rebuilt.csr.order, fresh.csr.order)
    assert np.array_equal(rebuilt.csr.indptr, fresh.csr.indptr)
    assert np.array_equal(rebuilt.res_cost, fresh.res_cost)


def paper_problems():
    """Fig. 1/3/4 at R 1-3 and every registry kernel (list-scheduled,
    R = 4), each at memory divisors 1-3."""
    problems = {}
    for name in FIGURE_NAMES:
        lifetimes, horizon, _ = figure_example(name)
        for divisor in (1, 2, 3):
            for registers in (1, 2, 3):
                problems[f"{name}-d{divisor}-R{registers}"] = AllocationProblem(
                    lifetimes,
                    register_count=registers,
                    horizon=horizon,
                    memory=MemoryConfig(divisor=divisor),
                )
    for name in KERNEL_NAMES:
        schedule = list_schedule(kernel_block(name))
        for divisor in (1, 2, 3):
            problems[f"{name}-d{divisor}"] = AllocationProblem.from_schedule(
                schedule,
                register_count=4,
                memory=MemoryConfig(divisor=divisor),
            )
    return problems


PAPER_PROBLEMS = paper_problems()


def _certified_objective(problem: AllocationProblem) -> float | None:
    """The certified optimum of *problem*, or ``None`` if infeasible."""
    try:
        return allocate(problem, SolveOptions(certify=True)).objective
    except InfeasibleFlowError:
        return None


@pytest.mark.parametrize("label", list(PAPER_PROBLEMS))
def test_fallback_search_matches_the_scipy_path(label, monkeypatch):
    # The two searches break ties differently, so compare optima (or
    # infeasibility verdicts), not flow vectors.
    problem = PAPER_PROBLEMS[label]
    with_scipy = _certified_objective(problem)
    monkeypatch.setattr(kernel_module, "_scipy_dijkstra", None)
    monkeypatch.setattr(kernel_module, "_csr_array", None)
    numpy_only = _certified_objective(problem)
    if with_scipy is None:
        assert numpy_only is None
    else:
        assert numpy_only == pytest.approx(with_scipy, abs=1e-6)
