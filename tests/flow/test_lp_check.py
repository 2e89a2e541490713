"""LP cross-check: the flow kernel against scipy's HiGHS.

Also verifies the paper's integrality remark: with integral capacities
and flow value the LP optimum equals the integral optimum.
"""

import random

import pytest

from repro.exceptions import InfeasibleFlowError
from repro.flow import FlowNetwork, solve_with_lower_bounds
from repro.flow.lp_check import lp_flows, lp_min_cost

from tests.flow.networkx_oracle import networkx_max_flow


def _random_dag(rng: random.Random) -> FlowNetwork:
    net = FlowNetwork()
    names = ["s"] + [f"n{i}" for i in range(rng.randint(2, 6))] + ["t"]
    for a, b in zip(names, names[1:]):
        net.add_arc(a, b, capacity=rng.randint(1, 4), cost=rng.randint(-4, 6))
    for _ in range(rng.randint(2, 10)):
        i = rng.randrange(len(names) - 1)
        j = rng.randrange(i + 1, len(names))
        lower = rng.choice((0, 0, 1))
        net.add_arc(
            names[i],
            names[j],
            capacity=rng.randint(max(1, lower), 4),
            cost=rng.randint(-4, 6),
            lower=lower,
        )
    return net


@pytest.mark.parametrize("seed", range(15))
def test_solver_matches_lp_optimum(seed):
    rng = random.Random(seed)
    net = _random_dag(rng)
    limit = networkx_max_flow(net, "s", "t")
    if limit == 0:
        pytest.skip("degenerate instance")
    value = rng.randint(1, limit)
    try:
        combinatorial = solve_with_lower_bounds(net, "s", "t", value)
    except InfeasibleFlowError:
        with pytest.raises(InfeasibleFlowError):
            lp_min_cost(net, "s", "t", value)
        return
    assert combinatorial.cost == pytest.approx(
        lp_min_cost(net, "s", "t", value), abs=1e-6
    )


def test_lp_flow_vector_is_feasible():
    net = FlowNetwork()
    net.add_arc("s", "a", capacity=2, cost=1.0)
    net.add_arc("a", "t", capacity=2, cost=1.0)
    flows = lp_flows(net, "s", "t", 2)
    assert flows == pytest.approx([2.0, 2.0])


def test_lp_detects_infeasibility():
    net = FlowNetwork()
    net.add_arc("s", "t", capacity=1, cost=0.0)
    with pytest.raises(InfeasibleFlowError):
        lp_min_cost(net, "s", "t", 5)


def test_integrality_of_lp_on_allocation_network():
    """The LP relaxation of a figure-3 allocation network has an integral
    optimum (unimodularity) — the property the paper leans on."""
    from repro.core import AllocationProblem, build_network
    from repro.workloads import FIGURE3_HORIZON, figure3_lifetimes

    problem = AllocationProblem(figure3_lifetimes(), 1, FIGURE3_HORIZON)
    built = build_network(problem)
    flows = lp_flows(built.network, built.source, built.sink, 1)
    for value in flows:
        assert value == pytest.approx(round(value), abs=1e-6)
