"""The lockstep kernel: an instance's answer never depends on its group.

:meth:`FlowKernel.solve_many` lays instances out block-diagonally and
serves them all with one multi-source search per round.  Every test here
solves each instance alone (``FlowKernel(network)``) and inside shuffled
groups (``FlowKernel.stacked``) and requires identical flows, potentials,
work counters and error messages — with scipy's Dijkstra and with the
label-correcting search that runs without scipy.  The corpus includes the
shapes that mostly run one-member rounds: the interval-chaining flows of
:mod:`repro.core.chain_flow` (every interval forced) and the first-pass
union network of a 2-bank storage job with its bank-placement flows.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core import chain_flow
from repro.core.network_builder import build_network
from repro.core.problem import AllocationProblem
from repro.core.solver import allocate
from repro.energy import MemoryConfig
from repro.exceptions import InfeasibleFlowError
from repro.flow import kernel as kernel_module
from repro.flow.graph import FlowNetwork
from repro.flow.kernel import FlowKernel
from repro.flow.lower_bounds import transform_lower_bounds
from repro.scheduling.list_scheduler import list_schedule
from repro.service.manifest import parse_manifest
from repro.workloads.registry import (
    FIGURE_NAMES,
    KERNEL_NAMES,
    figure_example,
    kernel_block,
)

from tests.flow.test_kernel import random_network


def _instance(problem: AllocationProblem):
    """``(network, source, sink, value)`` the kernel solves for *problem*."""
    built = build_network(problem)
    return _plain(built.network, built.source, built.sink, built.flow_value)


def _plain(network, source, sink, value):
    """The kernel's instance: lower bounds transformed away."""
    if network.has_lower_bounds():
        t = transform_lower_bounds(network, source, sink, value)
        return t.network, t.super_source, t.super_sink, t.demand
    return network, source, sink, value


def _chain_flows(solve):
    """The interval-chaining flows :func:`chain_flow.optimal_interval_chains`
    solves while *solve* runs, as kernel instances."""
    captured = []
    original = chain_flow.flow_solve

    def capture(network, source, sink, flow_value):
        captured.append(_plain(network, source, sink, flow_value))
        return original(network, source, sink, flow_value)

    chain_flow.flow_solve = capture
    try:
        solve()
    finally:
        chain_flow.flow_solve = original
    return captured


def _banked_problem(seed: int) -> AllocationProblem:
    """A small 2-bank storage job, as the batch benchmark draws them."""
    job = {
        "kind": "random",
        "variables": 12,
        "horizon": 12,
        "registers": 3,
        "seed": seed,
        "storage": {"banks": 2, "period": 1},
    }
    manifest = {"schema": "repro.service/manifest/v2", "jobs": [job]}
    (workload,) = parse_manifest(manifest).build()
    return workload.problem


def _corpus():
    instances = {}
    for name in KERNEL_NAMES:
        schedule = list_schedule(kernel_block(name))
        for divisor in (1, 2, 3):
            for registers in (1, 2, 4, 8):
                problem = AllocationProblem.from_schedule(
                    schedule,
                    register_count=registers,
                    memory=MemoryConfig(divisor=divisor),
                )
                instances[f"{name}-d{divisor}-R{registers}"] = _instance(problem)
    for name in FIGURE_NAMES:
        lifetimes, horizon, _ = figure_example(name)
        for registers in (1, 2, 3):
            problem = AllocationProblem(
                lifetimes, register_count=registers, horizon=horizon
            )
            instances[f"{name}-R{registers}"] = _instance(problem)
    for name in ("fir", "dct"):
        problem = AllocationProblem.from_schedule(
            list_schedule(kernel_block(name)), register_count=4
        )
        for style in ("adjacent", "all_pairs"):
            (instance,) = _chain_flows(
                lambda: chain_flow.optimal_interval_chains(
                    problem.lifetimes.values(),
                    problem.horizon,
                    pair_cost=lambda previous, item: 0.0 if previous else 1.0,
                    style=style,
                )
            )
            instances[f"chain-{name}-{style}"] = instance
    for seed in (1, 2, 3):
        problem = _banked_problem(seed)
        instances[f"banked-{seed}"] = _instance(problem)
        placements = _chain_flows(lambda: allocate(problem))
        for index, instance in enumerate(placements):
            instances[f"banked-{seed}-placement-{index}"] = instance
    for seed in range(30):
        net = random_network(seed)
        # Values 1-6 leave some instances short of their flow value.
        instances[f"random-{seed}"] = (net, 0, net.num_nodes - 1, 1 + seed % 6)
    cyclic = FlowNetwork()
    cyclic.add_arc("s", "a", capacity=2, cost=1.0)
    cyclic.add_arc("a", "b", capacity=2, cost=-1.0)
    cyclic.add_arc("b", "a", capacity=1, cost=2.0)
    cyclic.add_arc("b", "t", capacity=2, cost=0.0)
    instances["cyclic"] = (cyclic, "s", "t", 2)
    lonely = FlowNetwork()
    lonely.add_node("s")
    lonely.add_node("t")
    lonely.add_arc("s", "x", capacity=1, cost=1.0)
    instances["unreachable-sink"] = (lonely, "s", "t", 1)
    return instances


CORPUS = _corpus()


def _solve(kernel: FlowKernel, instances):
    return kernel.solve_many(
        [net.node_index(s) for net, s, _, _ in instances],
        [net.node_index(t) for net, _, t, _ in instances],
        [value for *_, value in instances],
        [(s, t) for _, s, t, _ in instances],
    )


def _alone(labels):
    return {
        label: _solve(FlowKernel(CORPUS[label][0]), [CORPUS[label]])[0]
        for label in labels
    }


@pytest.fixture(scope="module")
def alone():
    """Every corpus instance solved on its own (scipy's Dijkstra)."""
    return _alone(list(CORPUS))


def _assert_same(label, grouped, alone):
    if isinstance(alone, InfeasibleFlowError):
        assert isinstance(grouped, InfeasibleFlowError), label
        assert str(grouped) == str(alone), label
        return
    assert not isinstance(grouped, Exception), (label, grouped)
    flows, potential, stats = grouped
    assert np.array_equal(flows, alone[0]), label
    assert np.array_equal(potential, alone[1]), label
    assert stats == alone[2], label


def _check_groups(labels, alone, seed: int) -> None:
    assert any(isinstance(alone[label], InfeasibleFlowError) for label in labels)
    labels = list(labels)
    rng = random.Random(seed)
    rng.shuffle(labels)
    start = 0
    while start < len(labels):
        size = rng.randint(2, 12)
        group = labels[start:start + size]
        start += size
        kernel = FlowKernel.stacked([CORPUS[label][0] for label in group])
        outcomes = _solve(kernel, [CORPUS[label] for label in group])
        for label, outcome in zip(group, outcomes):
            _assert_same(label, outcome, alone[label])


@pytest.mark.parametrize("seed", range(2))
def test_groups_match_solo_solves(seed, alone):
    _check_groups(list(CORPUS), alone, seed)


def test_groups_match_solo_solves_without_scipy(monkeypatch):
    monkeypatch.setattr(kernel_module, "_scipy_dijkstra", None)
    monkeypatch.setattr(kernel_module, "_csr_array", None)
    # The label-correcting search is slow on the largest kernels; the
    # smaller ones still cover lower bounds, shortfalls and the cycle.
    labels = [
        label
        for label in CORPUS
        if not label.startswith(("rsp", "ewf", "random-d"))
    ]
    _check_groups(labels, _alone(labels), seed=0)


def test_whole_corpus_in_one_kernel(alone):
    labels = list(CORPUS)
    for order in (labels, labels[::-1]):
        kernel = FlowKernel.stacked([CORPUS[label][0] for label in order])
        outcomes = _solve(kernel, [CORPUS[label] for label in order])
        for label, outcome in zip(order, outcomes):
            _assert_same(label, outcome, alone[label])


def test_one_search_per_round():
    labels = [label for label in CORPUS if label.startswith(("fir", "iir"))]
    instances = [CORPUS[label] for label in labels]
    kernel = FlowKernel.stacked([net for net, *_ in instances])
    outcomes = _solve(kernel, instances)
    solved = [o for o in outcomes if not isinstance(o, Exception)]
    assert solved
    longest = max(stats.paths for *_, stats in solved)
    # Each round augments every unfinished instance; an instance that
    # runs short leaves after one more search.
    assert longest <= kernel.searches <= longest + 1
    assert kernel.searches < sum(stats.rounds for *_, stats in solved)


def test_a_cyclic_union_is_solved_apart(alone):
    labels = ["cyclic", "random-3", "fig3-R2"]
    solo_searches = 0
    for label in labels:
        solo = FlowKernel(CORPUS[label][0])
        _solve(solo, [CORPUS[label]])
        solo_searches += solo.searches
    kernel = FlowKernel.stacked([CORPUS[label][0] for label in labels])
    outcomes = _solve(kernel, [CORPUS[label] for label in labels])
    for label, outcome in zip(labels, outcomes):
        _assert_same(label, outcome, alone[label])
    # The union's Kahn sweep finds the cycle, so each instance runs alone.
    assert kernel.searches == solo_searches
