"""The solve path reads the flow network's arrays, not its ``Arc`` facade.

Validation, the lower-bound reduction, the optimality certificate and
the chain extraction all walk whole networks or flows on every solve.
They must do so on ``FlowNetwork.arrays()`` and the flow vector:
reading ``FlowNetwork.arcs`` materialises an ``Arc`` (and its payload)
for every arc.  A plain solve builds no ``Arc`` at all, and no name of
a ``w``/``r`` node (the builder registers those as one block named on
demand); an ``Arc`` is built only to word an error, and names only for
an error or a certificate's potentials.  The bank-placement pass still
walks its
interval-chaining flow (:mod:`repro.core.chain_flow`) over the facade,
so a banked solve stays within a budget of (positive-flow arcs +
segment arcs).
"""

from __future__ import annotations

import random

import pytest

from repro.core.network_builder import _SegmentNodes, build_network
from repro.core.options import SolveOptions
from repro.core.problem import AllocationProblem
from repro.core.solver import allocate
from repro.energy import MemoryConfig, StaticEnergyModel
from repro.flow.graph import FlowNetwork
from repro.flow.warm_start import WarmStartCache
from repro.obs import trace as obs
from repro.scheduling.list_scheduler import list_schedule
from repro.service.executor import BatchExecutor
from repro.service.manifest import parse_manifest
from repro.workloads.random_blocks import random_lifetimes
from repro.workloads.registry import kernel_block


class FacadeProbe:
    """Forbids ``FlowNetwork.arcs`` and counts ``FlowNetwork.arc`` calls
    and the network builder's node-name derivations."""

    def __init__(self, monkeypatch: pytest.MonkeyPatch) -> None:
        self.arcs_reads = 0
        self.arc_calls = 0
        self.names = 0
        original_arc = FlowNetwork.arc
        original_name = _SegmentNodes.name

        def counting_arc(network: FlowNetwork, index: int):
            self.arc_calls += 1
            return original_arc(network, index)

        def counting_name(nodes: _SegmentNodes, offset: int):
            self.names += 1
            return original_name(nodes, offset)

        def forbidden_arcs(network: FlowNetwork):
            # Counted as well as raised: the batch executor turns a solver
            # exception into a failed job instead of propagating it.
            self.arcs_reads += 1
            raise AssertionError("FlowNetwork.arcs read on the solve path")

        monkeypatch.setattr(FlowNetwork, "arc", counting_arc)
        monkeypatch.setattr(FlowNetwork, "arcs", property(forbidden_arcs))
        monkeypatch.setattr(_SegmentNodes, "name", counting_name)

    def solve(self, problem: AllocationProblem, options: SolveOptions):
        """One ``allocate`` call; asserts that it built no ``Arc``, and
        no ``w``/``r`` node name unless it certified the flow (the
        certificate's potentials are keyed by node name)."""
        arcs_before, names_before = self.arc_calls, self.names
        allocation = allocate(problem, options)
        assert self.arcs_reads == 0
        assert self.arc_calls == arcs_before
        if not options.certify:
            assert self.names == names_before
        return allocation


def arc_budget(allocation) -> int:
    """Positive-flow arcs + segment arcs of one solved allocation."""
    positive = sum(1 for f in allocation.flow.flows if f > 0)
    segments = sum(len(s) for s in allocation.problem.segments.values())
    return positive + segments


def random_problem(seed: int = 0) -> AllocationProblem:
    lifetimes = random_lifetimes(random.Random(seed), count=60, horizon=24)
    return AllocationProblem(
        lifetimes,
        register_count=6,
        horizon=max(l.end for l in lifetimes.values()),
    )


def kernel_problem(
    divisor: int = 2, voltage: float | None = None
) -> AllocationProblem:
    schedule = list_schedule(kernel_block("fir", taps=8))
    memory = MemoryConfig.scaled(divisor)
    if voltage is not None:
        memory = MemoryConfig(divisor=divisor, voltage=voltage)
    return AllocationProblem.from_schedule(
        schedule,
        register_count=4,
        energy_model=StaticEnergyModel().with_voltages(memory.voltage, 5.0),
        memory=memory,
    )


def test_random_instance_never_walks_the_facade(monkeypatch):
    problem = random_problem()
    FacadeProbe(monkeypatch).solve(problem, SolveOptions(certify=True))


def test_lower_bounded_kernel_never_walks_the_facade(monkeypatch):
    problem = kernel_problem(divisor=2)
    assert build_network(problem).network.has_lower_bounds()
    FacadeProbe(monkeypatch).solve(problem, SolveOptions(certify=True))


def test_plain_solves_name_no_node(monkeypatch):
    # The transform, the kernel, validation and extraction run on node
    # indices; a certified solve names each node once, for its
    # potentials.
    problems = [random_problem(), kernel_problem(divisor=2)]
    probe = FacadeProbe(monkeypatch)
    for problem in problems:
        probe.solve(problem, SolveOptions())
    results = BatchExecutor(workers=1).map_blocks(problems)
    assert [r.status for r in results] == ["ok"] * len(problems)
    assert probe.names == 0
    for problem in problems:
        probe.solve(problem, SolveOptions(certify=True))
    nodes = sum(build_network(p).network.num_nodes - 2 for p in problems)
    assert probe.names == nodes


def test_warm_voltage_sweep_never_walks_the_facade(monkeypatch):
    probe = FacadeProbe(monkeypatch)
    options = SolveOptions(certify=True, warm_cache=WarmStartCache())
    with obs.collect() as trace:
        energies = [
            probe.solve(kernel_problem(voltage=v), options).objective
            for v in (5.0, 3.3, 2.4)
        ]
    assert trace.counters["solver.warm_start.incremental"] == 2
    assert len(set(energies)) == len(energies)  # the costs really moved


def test_inline_batch_gather_never_walks_the_facade(monkeypatch):
    problems = [random_problem(seed) for seed in range(3)]
    problems.append(kernel_problem(divisor=2))
    probe = FacadeProbe(monkeypatch)
    results = BatchExecutor(workers=1, certify_fraction=1.0).map_blocks(
        problems
    )
    assert [r.status for r in results] == ["ok"] * len(problems)
    assert all(r.certified for r in results)
    assert probe.arcs_reads == 0
    assert probe.arc_calls == 0


def test_banked_job_keeps_the_arc_budget(monkeypatch):
    # A 2-bank job shaped like the batch benchmark's: its bank placement
    # walks an interval-chaining flow over the facade, within budget,
    # while the plain job beside it builds no Arc at all.
    manifest = parse_manifest(
        {
            "schema": "repro.service/manifest/v2",
            "jobs": [
                {"kind": "random", "variables": 60, "horizon": 24,
                 "registers": 6, "seed": 1},
                {"kind": "random", "label": "banked", "variables": 12,
                 "horizon": 12, "registers": 3, "seed": 2,
                 "storage": {"banks": 2, "period": 1}},
            ],
        }
    )
    plain, banked = (job.problem for job in manifest.build())
    probe = FacadeProbe(monkeypatch)
    probe.solve(plain, SolveOptions(certify=True))
    allocation = allocate(banked, SolveOptions(certify=True))
    assert allocation.banking is not None
    assert probe.arcs_reads == 0
    assert probe.arc_calls <= arc_budget(allocation)
