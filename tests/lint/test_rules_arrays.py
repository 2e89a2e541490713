"""The network rules on arrays agree with their arc-facade originals.

RA501–RA504 and RA604 find defects with vector masks over
``FlowNetwork.arrays()`` and the builder's role arrays, and build an
:class:`~repro.flow.graph.Arc` only to word a finding.  Every test here
runs the rule and its facade reference (:mod:`tests.lint.facade_oracle`)
on one context and requires the same findings, byte for byte: message,
location, severity, hint, evidence and order.  Defects are planted in
the network's columns (or in the segments both sides read), never in a
cached facade.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.core.network_builder import build_network
from repro.core.problem import AllocationProblem
from repro.flow import graph
from repro.lint import LintContext, get_rule, prove, run_lint
from repro.lint import context as context_module
from repro.lint import rules_network
from repro.service.manifest import parse_manifest
from repro.workloads.registry import KERNEL_NAMES
from tests.conftest import make_lifetime
from tests.lint.facade_oracle import ORACLES, plant
from tests.lint.test_rules_dataflow import (
    _EvilModel,
    _NaNModel,
    _two_var_problem,
)

CODES = tuple(ORACLES)

PAPER_MANIFEST = (
    Path(__file__).resolve().parents[2] / "examples" / "manifests" / "paper.json"
)


def _workloads(jobs):
    document = {"schema": "repro.service/manifest/v1", "jobs": jobs}
    return parse_manifest(document).build()


def _context(problem, built=None, schedule=None):
    ctx = LintContext(problem, schedule=schedule)
    if built is not None:
        ctx.__dict__["_network_result"] = (built, None)
    return ctx


def assert_agree(ctx, codes=CODES):
    """Every rule in *codes* matches its oracle on *ctx*; returns the
    findings of the ported rules."""
    found = {}
    for code in codes:
        ported = list(get_rule(code).check(ctx))
        reference = list(ORACLES[code](ctx))
        assert repr(ported) == repr(reference), code
        found[code] = ported
    return found


@pytest.mark.parametrize("kernel", KERNEL_NAMES)
def test_registry_kernels_agree(kernel):
    jobs = [
        {"kind": "kernel", "name": kernel, "registers": registers,
         "divisor": divisor, "label": f"{kernel}-{divisor}-{registers}"}
        for divisor in (1, 2, 3)
        for registers in (0, 1, 2, 4)
    ]
    for workload in _workloads(jobs):
        assert_agree(_context(workload.problem, schedule=workload.schedule))


def test_random_instances_agree():
    jobs = [
        {"kind": "random", "variables": 10, "horizon": 12, "seed": seed,
         "registers": 1 + seed % 4, "divisor": divisor,
         "label": f"random-{seed}-{divisor}"}
        for seed in range(60)
        for divisor in (1, 2, 3)
    ]
    for workload in _workloads(jobs):
        assert_agree(_context(workload.problem))


def _planted(**columns):
    problem = AllocationProblem(
        {"a": make_lifetime("a", 1, 4), "b": make_lifetime("b", 2, 5)}, 2, 5
    )
    built = build_network(problem)
    plant(built.network, 0, **columns)
    return _context(problem, built)


def test_inverted_bound_agrees():
    found = assert_agree(_planted(lower=2))
    assert "exceeds capacity" in found["RA501"][0].message


def test_negative_lower_bound_agrees():
    found = assert_agree(_planted(lower=-1, capacity=-2))
    assert [f.message.split(" has ")[1] for f in found["RA501"]] == [
        "negative lower bound -1",
        "lower -1 exceeds capacity -2",
    ]


def test_orphaned_segment_agrees():
    problem = AllocationProblem(
        {"a": make_lifetime("a", 1, 4), "b": make_lifetime("b", 2, 5)}, 2, 5
    )
    built = build_network(problem)
    built.network.add_node(("orphan", "node"))
    plant(built.network, 0, tail=("orphan", "node"))
    found = assert_agree(_context(problem, built))
    assert [f.location.variable for f in found["RA503"]] == ["a"]


def test_zero_capacity_arcs_agree():
    # Zeroing every arc into segment a's write node hides it from the
    # positive-capacity walk the prover shares; RA503 walks every arc,
    # so it must still reach the node and report nothing for it.
    problem = AllocationProblem(
        {"a": make_lifetime("a", 1, 4), "b": make_lifetime("b", 2, 5)}, 2, 5
    )
    built = build_network(problem)
    network = built.network
    arrays = network.arrays()
    write = int(arrays.tails[0])
    for index in np.flatnonzero(arrays.heads == write).tolist():
        plant(network, index, capacity=0)
    ctx = _context(problem, built)
    assert not ctx.source_reach[write]
    found = assert_agree(ctx)
    assert [f.location.variable for f in found["RA503"]] == []


def test_one_forward_walk_per_lint_run(monkeypatch):
    walks = []
    walk = prove.reachable

    def counting(*args, **kwargs):
        walks.append(kwargs.get("start"))
        return walk(*args, **kwargs)

    for module in (prove, context_module, rules_network):
        monkeypatch.setattr(module, "reachable", counting)
    jobs = [
        {"kind": "random", "variables": 30, "horizon": 16, "seed": seed,
         "registers": 4, "label": f"fresh-{seed}"}
        for seed in range(8)
    ]
    for workload in _workloads(jobs):
        walks.clear()
        run_lint(workload.problem)
        # Forward from the source once (shared), back from the sink once.
        assert walks == [0, 1], workload.label


def test_stretched_handoff_agrees():
    problem = AllocationProblem(
        {"a": make_lifetime("a", 1, 3), "b": make_lifetime("b", 4, 6)},
        1,
        6,
        graph_style="adjacent",
    )
    built = build_network(problem)
    ctx = _context(problem, built)
    assert assert_agree(ctx)["RA502"] == []
    segments = [seg for segs in problem.segments.values() for seg in segs]
    roles = built.roles
    i = next(
        i
        for i in range(len(roles.handoff_src))
        if roles.handoff_src[i] >= 0 and roles.handoff_dst[i] >= 0
    )
    # Both sides read the segment objects the problem caches.
    object.__setattr__(segments[roles.handoff_dst[i]], "start", 6)
    found = assert_agree(ctx)
    assert "maximum-density point" in found["RA502"][0].message


def test_registers_above_source_cut_agree():
    problem = AllocationProblem(
        {"a": make_lifetime("a", 1, 3)}, 10, 4, allow_unused_registers=False
    )
    found = assert_agree(_context(problem))
    assert "R = 10" in found["RA504"][0].message


class _InfModel(_NaNModel):
    def reg_read(self, v):
        return math.inf

    def reg_write(self, v, prev=None):
        return math.inf


@pytest.mark.parametrize("model", [_NaNModel(), _InfModel(), _EvilModel()])
def test_cost_models_agree(model):
    found = assert_agree(_context(_two_var_problem(model)))
    assert found["RA604"], "every model here is broken"


def test_clean_runs_build_no_arc(monkeypatch):
    built = []

    class CountingArc(graph.Arc):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(graph, "Arc", CountingArc)
    (fir,) = _workloads([{"kind": "kernel", "name": "fir", "taps": 8}])
    build_network(fir.problem)
    assert built == []
    document = json.loads(PAPER_MANIFEST.read_text(encoding="utf-8"))
    for workload in parse_manifest(document).build():
        report = run_lint(workload.problem, schedule=workload.schedule)
        assert not report.errors, workload.label
    assert built == []
