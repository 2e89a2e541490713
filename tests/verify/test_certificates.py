"""Tests for optimality-certificate construction and verification.

The acceptance-critical property lives here: a hand-perturbed suboptimal
flow must be *provably* rejected by the certificate machinery itself (a
negative residual cycle / failed complementary slackness), not merely by
comparing objective values.
"""

import random
import re

import numpy as np
import pytest

from repro.core.network_builder import SINK, SOURCE
from repro.core.options import SolveOptions
from repro.core.problem import AllocationProblem
from repro.core.solver import allocate
from repro.energy import MemoryConfig, StaticEnergyModel
from repro.flow import FlowNetwork, solve_min_cost_flow
from repro.flow.graph import FlowResult
from repro.scheduling.list_scheduler import list_schedule
from repro.verify.certificates import (
    CertificateError,
    _residual_arcs,
    certify_flow,
    certify_optimal,
    check_certificate,
    compute_potentials,
)
from repro.workloads.random_blocks import random_lifetimes
from repro.workloads.registry import (
    FIGURE_NAMES,
    KERNEL_NAMES,
    figure_example,
    kernel_block,
)


def diamond():
    """Two parallel s->t paths: cheap (cost 1) and expensive (cost 5)."""
    net = FlowNetwork()
    net.add_arc("s", "a", capacity=1, cost=1.0)
    net.add_arc("a", "t", capacity=1, cost=0.0)
    net.add_arc("s", "b", capacity=1, cost=5.0)
    net.add_arc("b", "t", capacity=1, cost=0.0)
    return net


def test_optimal_flow_certifies():
    net = diamond()
    result = solve_min_cost_flow(net, "s", "t", 1)
    potentials = certify_flow(result)
    # The witness is reusable: arithmetic-only re-verification passes.
    check_certificate(net, result.flows, potentials)


def test_hand_perturbed_flow_rejected():
    net = diamond()
    # Feasible but suboptimal: route the unit via the expensive path.
    bad = [0, 0, 1, 1]
    with pytest.raises(CertificateError, match="residual cycle") as caught:
        compute_potentials(net, bad)
    assert str(caught.value) == (
        "flow is not optimal: residual cycle of cost -4 "
        "(b<-s, s->a, a->t, t<-b)"
    )
    with pytest.raises(CertificateError):
        certify_optimal(net, bad)


def test_perturbed_allocation_flow_rejected():
    # The same property on a real allocation network: rerouting one unit
    # around a residual cycle yields a feasible flow of the same value
    # and the certificate names the cycle that proves it suboptimal.
    lifetimes = random_lifetimes(random.Random(3), count=8, horizon=10)
    problem = AllocationProblem(
        lifetimes,
        register_count=3,
        horizon=max(l.end for l in lifetimes.values()),
    )
    allocation = allocate(problem)
    certify_flow(allocation.flow)

    net = allocation.flow.network
    # Build the worst feasible flow of the same value by negating costs.
    negated = FlowNetwork()
    for node in net.nodes:
        negated.add_node(node)
    for arc in net.arcs:
        negated.add_arc(
            arc.tail,
            arc.head,
            capacity=arc.capacity,
            cost=-arc.cost,
            lower=arc.lower,
        )
    worst = solve_min_cost_flow(
        negated, SOURCE, SINK, problem.register_count
    )
    perturbed = FlowResult(
        net, list(worst.flows), problem.register_count
    )
    assert perturbed.cost > allocation.flow.cost
    with pytest.raises(CertificateError, match="residual cycle") as caught:
        certify_flow(perturbed)
    cost, costs_named = named_cycle(str(caught.value), net)
    assert cost < 0
    assert any(total == pytest.approx(cost, rel=1e-5) for total in costs_named)


def named_cycle(message, network):
    """The cost a residual-cycle message states, and the cost sums of
    every way its steps read as residual images of *network*'s arcs
    (``tail->head`` forward, ``head<-tail`` backward).  Node names may
    contain ``", "``, so the steps are matched against the images
    rather than split."""
    match = re.fullmatch(
        r"flow is not optimal: residual cycle of cost (\S+) \((.+)\)",
        message,
    )
    assert match, message
    images: dict[str, set[float]] = {}
    for arc in network.arcs:
        images.setdefault(f"{arc.tail}->{arc.head}", set()).add(arc.cost)
        images.setdefault(f"{arc.head}<-{arc.tail}", set()).add(-arc.cost)

    def totals(rest):
        found = set()
        for image, costs in images.items():
            if rest == image:
                found |= costs
            elif rest.startswith(image + ", "):
                for total in totals(rest[len(image) + 2:]):
                    found |= {c + total for c in costs}
        return found

    return float(match[1]), totals(match[2])


def test_bogus_potentials_rejected():
    net = diamond()
    result = solve_min_cost_flow(net, "s", "t", 1)
    good = compute_potentials(net, result.flows)
    bad = dict(good)
    bad["a"] = bad["a"] + 100.0
    with pytest.raises(CertificateError, match="slackness"):
        check_certificate(net, result.flows, bad)


def test_missing_node_rejected():
    net = diamond()
    result = solve_min_cost_flow(net, "s", "t", 1)
    potentials = compute_potentials(net, result.flows)
    del potentials["b"]
    with pytest.raises(CertificateError, match="misses node"):
        check_certificate(net, result.flows, potentials)


def test_lower_bounded_arcs_respected():
    # flow > lower admits a backward residual arc; flow == lower does not.
    net = FlowNetwork()
    net.add_arc("s", "a", capacity=2, cost=1.0, lower=1)
    net.add_arc("a", "t", capacity=2, cost=0.0, lower=1)
    net.add_arc("s", "t", capacity=2, cost=0.0)
    # One forced unit through a, one via the free bypass: optimal.
    certify_optimal(net, [1, 1, 1])
    # Two units through the costly path when the bypass is free: not.
    with pytest.raises(CertificateError):
        certify_optimal(net, [2, 2, 0])


def test_certificate_on_zero_flow():
    net = diamond()
    result = solve_min_cost_flow(net, "s", "t", 0)
    certify_flow(result)


def test_random_allocations_all_certify():
    rng = random.Random(0xA11C)
    for _ in range(10):
        lifetimes = random_lifetimes(
            rng, count=rng.randint(2, 10), horizon=rng.randint(4, 12)
        )
        problem = AllocationProblem(
            lifetimes,
            register_count=rng.randint(0, len(lifetimes)),
            horizon=max(l.end for l in lifetimes.values()),
        )
        certify_flow(allocate(problem).flow)


def test_allocate_certify_flag():
    from repro.obs import trace as obs

    lifetimes = random_lifetimes(random.Random(12), count=6, horizon=8)
    problem = AllocationProblem(
        lifetimes,
        register_count=2,
        horizon=max(l.end for l in lifetimes.values()),
    )
    with obs.collect() as trace:
        allocation = allocate(problem, SolveOptions(certify=True))
    assert allocation.objective == allocate(problem).objective
    assert trace.find("solver.certify") is not None


def test_lowest_violating_arc_is_named():
    net = FlowNetwork()
    net.add_arc("s", "a", capacity=1, cost=0.0)
    net.add_arc("a", "t", capacity=1, cost=-2.0)
    net.add_arc("s", "b", capacity=1, cost=0.0)
    net.add_arc("b", "t", capacity=1, cost=-3.0)
    zero = {node: 0.0 for node in net.nodes}
    # Arcs 1 and 3 both have room left at a negative reduced cost.
    with pytest.raises(CertificateError) as caught:
        check_certificate(net, [0, 0, 0, 0], zero)
    assert str(caught.value) == (
        f"slackness violated on {net.arc(1)}: flow 0 below capacity but "
        "reduced cost -2 < 0 (cheaper flow exists)"
    )
    # Arc 1 retractable at a positive reduced cost beats arc 3's room.
    net = net.with_costs(np.array([0.0, 2.0, 0.0, -3.0]))
    with pytest.raises(CertificateError) as caught:
        check_certificate(net, [1, 1, 0, 0], zero)
    assert str(caught.value) == (
        f"slackness violated on {net.arc(1)}: flow 1 above lower bound "
        "but reduced cost 2 > 0 (retracting is cheaper)"
    )


def reference_residual_arcs(network, flows):
    """The residual arcs walked arc by arc over the ``Arc`` facade."""
    index = network.node_index
    for arc in network.arcs:
        f = flows[arc.index]
        if f < arc.capacity:
            yield index(arc.tail), index(arc.head), arc.cost, arc.index, True
        if f > arc.lower:
            yield index(arc.head), index(arc.tail), -arc.cost, arc.index, False


def solved_problems():
    """Fig. 1/3/4 and every registry kernel, each at memory divisors 1 and
    2 (divisor 2 puts lower bounds on the forced segments)."""
    problems = {}
    for name in FIGURE_NAMES:
        lifetimes, horizon, _ = figure_example(name)
        for divisor in (1, 2):
            problems[f"{name}-d{divisor}"] = AllocationProblem(
                lifetimes,
                register_count=2,
                horizon=horizon,
                memory=MemoryConfig(divisor=divisor),
            )
    for name in KERNEL_NAMES:
        schedule = list_schedule(kernel_block(name))
        for divisor in (1, 2):
            memory = MemoryConfig.scaled(divisor)
            problems[f"{name}-d{divisor}"] = AllocationProblem.from_schedule(
                schedule,
                register_count=10,
                energy_model=StaticEnergyModel().with_voltages(
                    memory.voltage, 5.0
                ),
                memory=memory,
            )
    return problems


SOLVED = solved_problems()


@pytest.mark.parametrize("label", list(SOLVED))
def test_residual_arcs_match_the_arc_by_arc_walk(label):
    flow = allocate(SOLVED[label]).flow
    network, flows = flow.network, flow.flows
    got = _residual_arcs(network, flows)
    expected = list(reference_residual_arcs(network, flows))
    # Element by element, down to the element types and signed zeros:
    # Bellman-Ford then relaxes the same arcs in the same order.
    assert repr(got) == repr(expected)
