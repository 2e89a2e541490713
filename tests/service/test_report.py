"""Batch report totals, JSON round trip and text rendering."""

import json

import pytest

from repro.flow.kernel import FlowKernel
from repro.service import (
    BatchExecutor,
    REPORT_SCHEMA,
    ResultCache,
    build_batch_report,
    render_batch_text,
    report_to_json,
)
from repro.core.problem import AllocationProblem
from repro.workloads.random_blocks import random_lifetimes, spawn_rng


@pytest.fixture
def batch():
    problems = []
    for case in range(5):
        rng = spawn_rng(2, "report", case)
        problems.append(
            AllocationProblem(random_lifetimes(rng, 6, 10), 2, 10)
        )
    cache = ResultCache()
    executor = BatchExecutor(workers=1, cache=cache)
    results = executor.map_blocks(
        problems, ids=[f"job-{i}" for i in range(5)]
    )
    return results, cache


def test_totals_add_up(batch):
    results, cache = batch
    report = build_batch_report(
        results, cache=cache, wall_time_s=1.5, workers=1, manifest="m.json"
    )
    totals = report["totals"]
    assert report["schema"] == REPORT_SCHEMA
    assert totals["jobs"] == 5
    assert totals["ok"] + totals["failed"] + totals["infeasible"] + (
        totals["timeout"]
    ) == 5
    assert totals["cached"] + totals["solved"] == 5
    assert sum(totals["by_solver"].values()) == totals["ok"]
    assert totals["by_solver"] == {"ssp": totals["ok"]}
    assert totals["cache"]["misses"] >= totals["solved"]
    assert len(report["jobs"]) == 5


def test_json_round_trip(batch):
    results, cache = batch
    report = build_batch_report(results, cache=cache)
    text = report_to_json(report)
    assert text.endswith("\n")
    rebuilt = json.loads(text)
    assert rebuilt["totals"]["jobs"] == 5
    assert rebuilt["jobs"][0]["job_id"] == "job-0"


def test_text_rendering_mentions_every_job(batch):
    results, cache = batch
    report = build_batch_report(
        results, cache=cache, wall_time_s=0.5, workers=2
    )
    text = render_batch_text(report)
    for i in range(5):
        assert f"job-{i}" in text
    assert "cache" in text
    assert "solvers:  ssp:5  certified 0" in text


def test_failed_jobs_surface_their_errors(monkeypatch):
    def broken_solve_many(self, sources, sinks, flow_values, labels=None):
        raise ArithmeticError("negative reduced cost on a tree arc")

    monkeypatch.setattr(FlowKernel, "solve_many", broken_solve_many)
    executor = BatchExecutor(workers=1, cache=None)
    rng = spawn_rng(2, "report", 0)
    problem = AllocationProblem(random_lifetimes(rng, 6, 10), 2, 10)
    results = executor.map_blocks([problem], ids=["doomed"])
    report = build_batch_report(results)
    assert report["totals"]["failed"] == 1
    assert report["totals"]["by_solver"] == {}
    job = report["jobs"][0]
    assert job["solver"] is None and "objective" not in job
    text = render_batch_text(report)
    assert "doomed" in text and "ArithmeticError: negative" in text
