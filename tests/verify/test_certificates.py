"""Tests for optimality-certificate construction and verification.

The acceptance-critical property lives here: a hand-perturbed suboptimal
flow must be *provably* rejected by the certificate machinery itself (a
negative residual cycle / failed complementary slackness), not merely by
comparing objective values.
"""

import random

import pytest

from repro.core.network_builder import SINK, SOURCE
from repro.core.options import SolveOptions
from repro.core.problem import AllocationProblem
from repro.core.solver import allocate
from repro.flow import FlowNetwork, solve_min_cost_flow
from repro.flow.graph import FlowResult
from repro.verify.certificates import (
    CertificateError,
    certify_flow,
    certify_optimal,
    check_certificate,
    compute_potentials,
)
from repro.workloads.random_blocks import random_lifetimes


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
    with pytest.raises(CertificateError, match="residual cycle"):
        compute_potentials(net, bad)
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
    with pytest.raises(CertificateError, match="residual cycle"):
        certify_flow(perturbed)


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
