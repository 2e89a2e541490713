"""Tests for solver cross-checking and baseline dominance."""

import random

import pytest

from repro.core.network_builder import SINK, SOURCE, build_network
from repro.core.problem import AllocationProblem
from repro.core.solver import allocate
from repro.energy import MemoryConfig
from repro.exceptions import InfeasibleFlowError
from repro.flow import FlowNetwork, FlowResult
from repro.verify import differential
from repro.verify.differential import (
    baseline_dominance,
    cross_check,
    run_baselines,
)
from repro.workloads.random_blocks import random_lifetimes


def instance(seed=5, count=9, horizon=11, registers=3, divisor=1):
    lifetimes = random_lifetimes(
        random.Random(seed), count=count, horizon=horizon
    )
    return AllocationProblem(
        lifetimes,
        register_count=registers,
        horizon=max(l.end for l in lifetimes.values()),
        memory=MemoryConfig(divisor=divisor),
    )


def test_solvers_agree_plain_network():
    problem = instance()
    built = build_network(problem)
    outcome = cross_check(
        built.network, SOURCE, SINK, problem.register_count
    )
    assert outcome.agreed, outcome.message
    assert set(outcome.costs) == {"ssp", "lp"}
    assert outcome.spread <= 1e-6 * (
        1 + max(abs(c) for c in outcome.costs.values())
    )


def test_solvers_agree_with_lower_bounds():
    problem = instance(seed=8, registers=5, divisor=2)
    built = build_network(problem)
    assert built.network.has_lower_bounds()
    outcome = cross_check(
        built.network, SOURCE, SINK, problem.register_count
    )
    assert outcome.agreed, outcome.message
    assert set(outcome.costs) == {"ssp", "lp"}


def test_lp_can_be_skipped(monkeypatch):
    # An install without scipy: the certificate is the only check left.
    monkeypatch.setattr(differential, "_lp_available", lambda: False)
    problem = instance()
    built = build_network(problem)
    outcome = cross_check(
        built.network, SOURCE, SINK, problem.register_count
    )
    assert outcome.skipped == ["lp"]
    assert set(outcome.costs) == {"ssp"}
    assert outcome.agreed


def test_unanimous_infeasibility_agrees():
    net = FlowNetwork()
    net.add_arc("s", "t", capacity=1)
    outcome = cross_check(net, "s", "t", 5)
    assert outcome.agreed
    assert not outcome.costs
    assert outcome.infeasible == ["ssp", "lp"]


def two_routes():
    """Two unit-capacity s->t routes: via a costs 10, via b costs 1."""
    net = FlowNetwork()
    net.add_arc("s", "a", capacity=1, cost=10.0)
    net.add_arc("a", "t", capacity=1, cost=0.0)
    net.add_arc("s", "b", capacity=1, cost=1.0)
    net.add_arc("b", "t", capacity=1, cost=0.0)
    return net


def test_certificate_flags_a_suboptimal_flow(monkeypatch):
    # A planted kernel answer that is feasible but ships over the
    # expensive route; with no LP to compare against, the certificate
    # alone must reject it.
    monkeypatch.setattr(differential, "_lp_available", lambda: False)
    monkeypatch.setattr(
        differential,
        "ssp_solve",
        lambda network, source, sink, value: FlowResult(
            network, [1, 1, 0, 0], value
        ),
    )
    outcome = cross_check(two_routes(), "s", "t", 1)
    assert not outcome.agreed
    assert "not optimal" in outcome.message
    assert outcome.message.startswith("ssp flow failed its check: ")
    assert outcome.costs == {"ssp": 10.0}


def test_planted_infeasibility_is_a_disagreement(monkeypatch):
    def infeasible(network, source, sink, value):
        raise InfeasibleFlowError("planted")

    monkeypatch.setattr(differential, "ssp_solve", infeasible)
    outcome = cross_check(two_routes(), "s", "t", 1)
    assert outcome.infeasible == ["ssp"]
    assert outcome.costs == {"lp": pytest.approx(1.0)}
    assert not outcome.agreed
    assert outcome.message.startswith("feasibility disagreement")


def test_outcome_serialises():
    problem = instance()
    built = build_network(problem)
    outcome = cross_check(
        built.network, SOURCE, SINK, problem.register_count
    )
    data = outcome.to_dict()
    assert data["agreed"] is True
    assert set(data) == {
        "costs",
        "infeasible",
        "skipped",
        "agreed",
        "spread",
        "message",
    }


def test_dominance_over_all_baselines():
    for seed in (1, 2, 3):
        problem = instance(seed=seed, registers=4)
        outcome = baseline_dominance(allocate(problem))
        assert outcome.dominated, outcome.message
        ran = set(outcome.baselines) | set(outcome.skipped)
        assert ran == {
            "two-phase",
            "left-edge",
            "graph-coloring",
            "greedy",
            "chang-pedram",
        }


def test_chang_pedram_runs_above_density():
    problem = instance(seed=6, registers=9, count=9)
    if problem.register_count < problem.max_density:
        problem = problem.with_options(
            register_count=problem.max_density
        )
    outcome = baseline_dominance(allocate(problem))
    assert "chang-pedram" in outcome.baselines
    assert outcome.dominated, outcome.message


def test_run_baselines_skips_chang_pedram_below_density():
    problem = instance(seed=7, registers=1, count=10)
    objectives, skipped = run_baselines(
        problem.lifetimes,
        problem.horizon,
        problem.register_count,
        problem.energy_model,
    )
    if problem.max_density > 1:
        assert skipped == ["chang-pedram"]
    assert set(objectives) >= {"two-phase", "left-edge"}
