"""Counter accuracy of the instrumented solvers and builders.

The headline check hand-builds the flow network of a four-variable
allocation — four disjoint ``s -> w(v) -> r(v) -> t`` unit-capacity paths —
where the successive-shortest-path solver must augment *exactly once per
variable*, so the expected counter values are known in closed form.
"""

from __future__ import annotations

from repro.core.network_builder import build_network
from repro.core.pipeline import allocate_block
from repro.core.problem import AllocationProblem
from repro.energy import StaticEnergyModel
from repro.flow.graph import FlowNetwork
from repro.flow.ssp import solve_min_cost_flow
from repro.obs import trace as obs
from repro.workloads import fir_filter

from tests.conftest import make_lifetime


def four_variable_network() -> FlowNetwork:
    """Four parallel unit paths s -> w(v) -> r(v) -> t, one per variable."""
    network = FlowNetwork()
    for i, name in enumerate("abcd"):
        network.add_arc("s", ("w", name), capacity=1, cost=float(i))
        network.add_arc(("w", name), ("r", name), capacity=1, cost=1.0)
        network.add_arc(("r", name), "t", capacity=1, cost=0.0)
    return network


class TestSspCounters:
    def test_exact_augmenting_path_count(self):
        with obs.collect() as trace:
            result = solve_min_cost_flow(four_variable_network(), "s", "t", 4)
        assert result.value == 4
        counters = trace.counters
        # Unit capacities force one augmenting path per shipped unit.
        assert counters["ssp.augmenting_paths"] == 4
        assert counters["ssp.solves"] == 1
        # Every Dijkstra round settles at least the path's own nodes.
        assert counters["ssp.dijkstra_pops"] >= counters["ssp.augmenting_paths"]
        assert counters["ssp.dijkstra_relaxations"] > 0
        assert counters["ssp.potential_updates"] > 0

    def test_counters_are_deterministic(self):
        def run() -> dict:
            with obs.collect() as trace:
                solve_min_cost_flow(four_variable_network(), "s", "t", 4)
            return trace.counters

        assert run() == run()

    def test_partial_flow_counts_fewer_paths(self):
        with obs.collect() as trace:
            solve_min_cost_flow(four_variable_network(), "s", "t", 2)
        assert trace.counter("ssp.augmenting_paths") == 2

    def test_zero_flow_skips_the_solver(self):
        with obs.collect() as trace:
            solve_min_cost_flow(four_variable_network(), "s", "t", 0)
        assert trace.counters == {}


class TestNetworkBuilderCounters:
    def problem(self) -> AllocationProblem:
        lifetimes = {
            "a": make_lifetime("a", 0, 3),
            "b": make_lifetime("b", 1, 4),
            "c": make_lifetime("c", 2, 6),
            "d": make_lifetime("d", 5, 7),
        }
        return AllocationProblem(
            lifetimes, 2, 8, energy_model=StaticEnergyModel()
        )

    def test_counts_match_the_built_network(self):
        with obs.collect() as trace:
            built = build_network(self.problem())
        counters = trace.counters
        assert counters["network.builds"] == 1
        assert counters["network.nodes_built"] == built.network.num_nodes
        assert counters["network.arcs_built"] == built.network.num_arcs
        regions = trace.gauges["network.density_regions"]
        assert regions == len(built.problem.density_regions)

    def test_counts_accumulate_across_builds(self):
        problem = self.problem()
        with obs.collect() as trace:
            build_network(problem)
            build_network(problem)
        assert trace.counter("network.builds") == 2


class TestPipelineSpans:
    def test_full_pipeline_emits_stage_spans(self):
        with obs.collect() as trace:
            allocate_block(fir_filter(5), register_count=3)
        names = [root.name for root in trace.roots]
        assert names[:3] == [
            "pipeline.schedule",
            "pipeline.build_problem",
            "pipeline.allocate",
        ]
        allocate_span = trace.find("pipeline.allocate")
        child_names = [child.name for child in allocate_span.children]
        assert child_names == [
            "solver.build_network",
            "solver.flow_solve",
            "solver.validate",
            "solver.extract",
        ]
        assert all(child.duration >= 0.0 for child in allocate_span.children)

    def test_solver_counters_reach_the_same_trace(self):
        with obs.collect() as trace:
            allocate_block(fir_filter(5), register_count=3)
        counters = trace.counters
        assert counters["ssp.augmenting_paths"] > 0
        assert counters["ssp.dijkstra_pops"] > 0
        assert counters["network.arcs_built"] > 0
