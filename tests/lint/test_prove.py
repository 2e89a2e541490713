"""Soundness of the solver-free infeasibility prover.

The RA6xx prover (:mod:`repro.lint.prove`) is deliberately incomplete
but must be *sound*: a certificate is a machine-checkable promise that
the min-cost-flow solver will raise ``InfeasibleFlowError`` on the same
instance.  The acceptance bar of the PR — zero false infeasibility
claims across >= 50 seeded fuzz instances — is enforced here, together
with targeted certificate shapes on hand-corrupted instances.
"""

from __future__ import annotations

import pytest

from repro.core.problem import AllocationProblem
from repro.core.solver import allocate
from repro.energy import MemoryConfig
from repro.exceptions import InfeasibleFlowError
from repro.lint.prove import (
    InfeasibilityCertificate,
    check_certificate,
    find_certificates,
    prove_infeasible,
    reachable,
)
from repro.service.manifest import parse_manifest
from repro.verify.fuzz import build_problem, draw_case
from repro.workloads.random_blocks import spawn_rng
from tests.conftest import make_lifetime

#: Instances drawn for the agreement sweep (acceptance bar: >= 50).
FUZZ_INSTANCES = 60


def corrupted_fig3():
    """The admission-gate fixture: fig3 at R=0 under divisor 2."""
    manifest = {
        "schema": "repro.service/manifest/v1",
        "jobs": [
            {"kind": "figure", "name": "fig3", "registers": 0, "divisor": 2}
        ],
    }
    return parse_manifest(manifest).build()[0].problem


def test_corrupted_fig3_yields_a_checked_certificate():
    problem = corrupted_fig3()
    certificate = prove_infeasible(problem)
    assert certificate is not None
    assert certificate.kind in (
        "forced-pressure",
        "cut-capacity",
        "unreachable-forced-segment",
    )
    assert check_certificate(problem, certificate)
    with pytest.raises(InfeasibleFlowError):
        allocate(problem)


def test_forced_pressure_certificate_details():
    problem = corrupted_fig3()
    certs = find_certificates(problem)
    forced = [c for c in certs if c.kind == "forced-pressure"]
    assert forced, "fig3 at R=0/divisor 2 must have a forced segment"
    cert = forced[0]
    assert cert.required > cert.available
    assert cert.witness, "forced-pressure certificates name the segments"


def test_certificate_roundtrips_through_dict():
    problem = corrupted_fig3()
    cert = prove_infeasible(problem)
    rebuilt = InfeasibilityCertificate.from_dict(cert.to_dict())
    assert rebuilt == cert
    assert check_certificate(problem, rebuilt)


def test_feasible_instance_has_no_certificate():
    problem = AllocationProblem(
        {
            "a": make_lifetime("a", 1, 3),
            "b": make_lifetime("b", 2, 5),
        },
        2,
        6,
    )
    assert prove_infeasible(problem) is None
    allocate(problem)  # must not raise


def test_zero_registers_unrestricted_memory_is_not_flagged():
    # R = 0 with free memory access is feasible (everything spills);
    # an over-eager cut bound here would be a false claim.
    problem = AllocationProblem(
        {
            "a": make_lifetime("a", 1, 3),
            "b": make_lifetime("b", 2, 5),
        },
        0,
        6,
    )
    assert prove_infeasible(problem) is None
    allocate(problem)


def test_prover_never_contradicts_the_solver_on_seeded_instances():
    """Acceptance bar: 0 false infeasibility claims on >= 50 instances."""
    plan_rng = spawn_rng(404, "prove-agreement")
    proofs = infeasible = 0
    for index in range(FUZZ_INSTANCES):
        case = draw_case(plan_rng, index)
        rng = spawn_rng(404, "prove-agreement-case", index)
        problem = build_problem(case, rng)
        certificate = prove_infeasible(problem)
        try:
            allocate(problem)
            solved = True
        except InfeasibleFlowError:
            solved = False
            infeasible += 1
        if certificate is not None:
            proofs += 1
            assert not solved, (
                f"case {index}: prover claimed infeasibility "
                f"({certificate.kind}: {certificate.detail}) but the "
                f"solver found a solution"
            )
            assert check_certificate(problem, certificate), (
                f"case {index}: {certificate.kind} certificate failed "
                f"its independent re-check"
            )
    # The sweep must actually exercise both sides of the oracle.
    assert infeasible > 0, "sweep drew no infeasible instances"
    assert proofs > 0, "sweep produced no certificates"


@pytest.mark.parametrize("seed", range(8))
def test_reachable_matches_networkx_descendants(seed):
    import networkx as nx
    import numpy as np

    rng = spawn_rng(seed, "reachable")
    n = 12
    arcs = [(rng.randrange(n), rng.randrange(n)) for _ in range(20)]
    tails = np.array([t for t, _ in arcs], dtype=np.int64)
    heads = np.array([h for _, h in arcs], dtype=np.int64)
    graph = nx.MultiDiGraph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(arcs)
    want = nx.descendants(graph, 0) | {0}
    assert set(np.nonzero(reachable(n, tails, heads, 0))[0].tolist()) == want


def test_restricted_memory_pressure_is_proved():
    # Two overlapping lifetimes, one register, memory writable only on
    # even steps: the divisor forces both into the register file at the
    # overlap, which a time-cut counts as impossible.
    problem = AllocationProblem(
        {
            "a": make_lifetime("a", 1, 4),
            "b": make_lifetime("b", 1, 4),
            "c": make_lifetime("c", 1, 4),
        },
        1,
        6,
        memory=MemoryConfig(divisor=3),
    )
    try:
        allocate(problem)
        feasible = True
    except InfeasibleFlowError:
        feasible = False
    certificate = prove_infeasible(problem)
    if certificate is not None:
        assert not feasible
        assert check_certificate(problem, certificate)
