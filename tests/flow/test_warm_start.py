"""Warm-start cache behaviour: replay, incremental re-solve, cold fallback.

The contract under test (DESIGN.md "Performance model", THEORY.md §7):
warm starts change how much work a re-solve does, never its result.
Energies are compared against independent cold solves, warm allocations
are certificate-checked (``SolveOptions(certify=True)``), and a capacity
change — a topology perturbation — must miss the cache and fall back to
a cold solve rather than reuse anything.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.exploration import explore_design_space
from repro.core.network_builder import build_network, recost_network
from repro.core.options import SolveOptions
from repro.core.problem import AllocationProblem
from repro.core.solver import allocate, solve_built
from repro.energy import MemoryConfig, StaticEnergyModel
from repro.energy.models import reference_reg_voltage
from repro.exceptions import GraphError, InfeasibleFlowError
from repro.flow.graph import FlowNetwork
from repro.flow.warm_start import WarmStartCache, solve_warm, topology_key
from repro.obs import trace as obs
from repro.workloads.random_blocks import random_lifetimes, spawn_rng

from tests.conftest import make_lifetime


def diamond_network() -> FlowNetwork:
    net = FlowNetwork()
    net.add_arc("s", "a", capacity=2, cost=1.0)
    net.add_arc("s", "b", capacity=2, cost=4.0)
    net.add_arc("a", "t", capacity=2, cost=1.0)
    net.add_arc("b", "t", capacity=2, cost=1.0)
    return net


def sweep_lifetimes():
    return {
        "a": make_lifetime("a", 1, 3),
        "b": make_lifetime("b", 2, 5),
        "c": make_lifetime("c", 2, 4),
        "d": make_lifetime("d", 4, 6),
    }


VOLTAGES = (5.0, 3.3, 2.4, 1.6, 1.2)


class TestSolveWarm:
    def test_cold_then_replay(self):
        net = diamond_network()
        cache = WarmStartCache()
        with obs.collect() as trace:
            first = solve_warm(net, "s", "t", 2, cache)
            second = solve_warm(net, "s", "t", 2, cache)
        assert first.flows == second.flows
        assert first.cost == second.cost == 4.0
        assert trace.counters["solver.warm_start.cold"] == 1
        assert trace.counters["solver.warm_start.replay"] == 1
        assert len(cache) == 1

    def test_incremental_matches_cold_after_cost_change(self):
        net = diamond_network()
        cache = WarmStartCache()
        solve_warm(net, "s", "t", 2, cache)
        # Make the a-route expensive: the optimum must reroute via b.
        net = net.with_costs(np.array([9.0, 4.0, 9.0, 1.0]))
        with obs.collect() as trace:
            warm = solve_warm(net, "s", "t", 2, cache)
        cold = solve_warm(net, "s", "t", 2, WarmStartCache())
        assert trace.counters["solver.warm_start.incremental"] == 1
        assert warm.cost == pytest.approx(cold.cost)
        assert warm.flows == cold.flows

    def test_capacity_change_falls_back_to_cold(self):
        """Topology perturbations must miss the cache, not corrupt it."""
        net = diamond_network()
        cache = WarmStartCache()
        solve_warm(net, "s", "t", 2, cache)
        shrunk = FlowNetwork()
        for arc in net.arcs:
            shrunk.add_arc(
                arc.tail,
                arc.head,
                capacity=1 if arc.tail == "s" and arc.head == "a" else 2,
                cost=arc.cost,
            )
        with obs.collect() as trace:
            result = solve_warm(shrunk, "s", "t", 2, cache)
        assert trace.counters["solver.warm_start.cold"] == 1
        assert "solver.warm_start.incremental" not in trace.counters
        assert "solver.warm_start.replay" not in trace.counters
        # 1 unit via a (1 + 1) plus 1 unit rerouted via b (4 + 1).
        assert result.cost == pytest.approx(7.0)
        assert len(cache) == 2

    def test_flow_value_is_part_of_the_key(self):
        net = diamond_network()
        assert topology_key(net, "s", "t", 1) != topology_key(net, "s", "t", 2)

    def test_cost_change_keeps_the_key(self):
        net = diamond_network()
        before = topology_key(net, "s", "t", 2)
        net = net.with_costs(np.array([9.0, 9.0, 9.0, 9.0]))
        assert topology_key(net, "s", "t", 2) == before

    def test_eviction_keeps_cache_bounded(self):
        cache = WarmStartCache(max_entries=1)
        net = diamond_network()
        solve_warm(net, "s", "t", 1, cache)
        solve_warm(net, "s", "t", 2, cache)
        assert len(cache) == 1


class TestWarmAllocations:
    def test_cold_solve_counts_the_same_kernel_work_with_a_cache(self):
        """A warm cache's first (cold) solve reports the ``ssp.*`` work."""
        rng = spawn_rng(0, "warm-counters")
        problem = AllocationProblem(random_lifetimes(rng, 30, 40), 4, 40)

        def kernel_counters(options: SolveOptions) -> dict[str, float]:
            with obs.collect() as trace:
                allocate(problem, options)
            return {
                name: value
                for name, value in trace.counters.items()
                if name.startswith("ssp.")
            }

        plain = kernel_counters(SolveOptions())
        warmed = kernel_counters(SolveOptions(warm_cache=WarmStartCache()))
        assert plain["ssp.solves"] == 1 and plain["ssp.augmenting_paths"] > 0
        assert warmed == plain

    @pytest.mark.parametrize("registers", (1, 2, 3))
    def test_voltage_sweep_energies_match_cold_and_certify(self, registers):
        """Seeded cost perturbations: warm == cold, certificate-checked."""
        cache = WarmStartCache()
        certified = SolveOptions(certify=True)
        warm_options = certified.replace(warm_cache=cache)
        model = StaticEnergyModel()
        for voltage in VOLTAGES:
            problem = AllocationProblem(
                lifetimes=sweep_lifetimes(),
                register_count=registers,
                horizon=6,
                energy_model=model.with_voltages(voltage, 5.0),
                memory=MemoryConfig(divisor=2, voltage=voltage),
            )
            try:
                cold = allocate(problem, certified)
            except InfeasibleFlowError:
                with pytest.raises(InfeasibleFlowError):
                    allocate(problem, warm_options)
                continue
            warm = allocate(problem, warm_options)
            assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
            assert warm.residency == cold.residency

    def test_recost_plus_warm_sweep_uses_incremental_solves(self):
        cache = WarmStartCache()
        model = StaticEnergyModel()
        problems = [
            AllocationProblem(
                lifetimes=sweep_lifetimes(),
                register_count=2,
                horizon=6,
                energy_model=model.with_voltages(v, 5.0),
                memory=MemoryConfig(divisor=2, voltage=v),
            )
            for v in VOLTAGES
        ]
        with obs.collect() as trace:
            built = build_network(problems[0])
            warm = SolveOptions(warm_cache=cache)
            energies = [solve_built(built, warm).objective]
            for problem in problems[1:]:
                built = recost_network(built, problem)
                energies.append(solve_built(built, warm).objective)
        assert trace.counters["network.builds"] == 1
        assert trace.counters["network.recosts"] == len(VOLTAGES) - 1
        assert trace.counters["solver.warm_start.cold"] == 1
        assert trace.counters["solver.warm_start.incremental"] == len(VOLTAGES) - 1
        colds = [allocate(p).objective for p in problems]
        assert energies == pytest.approx(colds, abs=1e-9)

    def test_recost_rejects_topology_changes(self):
        problem = AllocationProblem(
            lifetimes=sweep_lifetimes(),
            register_count=2,
            horizon=6,
            energy_model=StaticEnergyModel(),
            memory=MemoryConfig(),
        )
        built = build_network(problem)
        bigger = AllocationProblem(
            lifetimes=sweep_lifetimes(),
            register_count=3,
            horizon=6,
            energy_model=StaticEnergyModel(),
            memory=MemoryConfig(),
        )
        with pytest.raises(GraphError, match="identical topology"):
            recost_network(built, bigger)

    def test_exploration_warm_equals_cold(self):
        configs = tuple(
            MemoryConfig(divisor=2, voltage=v) for v in VOLTAGES
        )
        registers = (1, 2, 3)
        model = StaticEnergyModel()
        warm = explore_design_space(
            sweep_lifetimes(),
            6,
            register_counts=registers,
            memory_configs=configs,
            energy_model=model,
        )

        def cold(memory: MemoryConfig, register_count: int) -> float | None:
            problem = AllocationProblem(
                lifetimes=sweep_lifetimes(),
                register_count=register_count,
                horizon=6,
                energy_model=model.with_voltages(
                    memory.voltage, reference_reg_voltage(model)
                ),
                memory=memory,
            )
            try:
                return allocate(problem).objective
            except InfeasibleFlowError:
                return None

        colds = [cold(m, r) for m in configs for r in registers]
        assert len(warm.points) == len(colds)
        for pw, pc in zip(warm.points, colds):
            assert pw.feasible == (pc is not None)
            if pw.feasible:
                assert pw.energy == pytest.approx(pc, abs=1e-9)
