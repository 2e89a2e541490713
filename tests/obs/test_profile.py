"""Run reports: schema, JSON round-trip, CSV/table rendering, overhead."""

from __future__ import annotations

import json
import random
import time

from repro.core.options import SolveOptions
from repro.core.problem import AllocationProblem
from repro.core.solver import allocate
from repro.energy import StaticEnergyModel
from repro.obs import trace as obs
from repro.obs.profile import (
    SCHEMA,
    build_report,
    format_report,
    profile_block,
    report_to_csv,
    report_to_json,
)
from repro.workloads import fir_filter
from repro.workloads.random_blocks import random_lifetimes


def test_profile_block_report_schema():
    report = profile_block(
        fir_filter(5),
        register_count=3,
        workload="fir",
        params={"taps": 5, "registers": 3},
    )
    assert report["schema"] == SCHEMA
    assert report["workload"] == "fir"
    assert report["params"] == {"taps": 5, "registers": 3}
    assert report["wall_time_s"] > 0.0
    # Per-stage wall times, flattened and nested.
    assert "pipeline.allocate" in report["stages"]
    assert "pipeline.allocate/solver.flow_solve" in report["stages"]
    assert all(d >= 0.0 for d in report["stages"].values())
    # Solver counters required by the acceptance criteria.
    counters = report["trace"]["counters"]
    assert counters["ssp.dijkstra_pops"] > 0
    assert counters["ssp.augmenting_paths"] > 0
    assert counters["network.arcs_built"] > 0
    # Allocation summary.
    allocation = report["allocation"]
    assert allocation["registers_used"] >= 1
    assert allocation["total_energy"] == allocation["objective"]


def test_report_json_round_trip():
    report = profile_block(fir_filter(4), register_count=2)
    assert json.loads(report_to_json(report)) == report


def test_report_csv_and_table():
    report = profile_block(fir_filter(4), register_count=2)
    csv_text = report_to_csv(report)
    assert csv_text.splitlines()[0] == "kind,name,value"
    assert "counter,ssp.augmenting_paths," in csv_text
    table = format_report(report)
    for token in ("run report", "pipeline.allocate", "ssp.dijkstra_pops"):
        assert token in table


def test_build_report_defaults_wall_time_to_root_sum():
    with obs.collect() as trace:
        with obs.span("only"):
            pass
    report = build_report(workload="w", trace=trace)
    assert report["wall_time_s"] == trace.roots[0].duration
    assert "allocation" not in report


def test_profiling_leaves_tracing_disabled():
    profile_block(fir_filter(3), register_count=2)
    assert not obs.enabled()


def test_disabled_tracing_overhead_is_negligible():
    """Instrumentation off must stay within noise of the solve itself.

    A coarse, non-flaky guard for the <2% target measured properly on the
    scaling bench: the per-call cost of the disabled obs API must be tiny
    relative to one small allocate() call.
    """
    lifetimes = random_lifetimes(random.Random(7), count=40, horizon=12)
    problem = AllocationProblem(
        lifetimes, 4, 12, energy_model=StaticEnergyModel()
    )
    start = time.perf_counter()
    allocate(problem, SolveOptions(validate=False))
    solve_time = time.perf_counter() - start

    calls = 10_000
    start = time.perf_counter()
    for _ in range(calls):
        obs.count("x")
        with obs.span("y"):
            pass
    obs_time = time.perf_counter() - start
    # The whole pipeline makes a few dozen obs calls per solve; 10k calls
    # finishing in a fraction of one solve leaves the real overhead far
    # below the 2% budget.
    assert obs_time < max(solve_time, 0.005) * 5
