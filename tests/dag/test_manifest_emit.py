"""Tests for lowering partition plans onto the batch service."""

import json

import pytest

from repro.dag import (
    build_jobs,
    dispatch_blocks,
    emit_manifest,
    partition_graph,
    sweep_operating_points,
)
from repro.service.executor import BatchExecutor
from repro.service.manifest import SCHEMA_V2, load_manifest
from repro.workloads.registry import dag_workload


def pipeline(name="diamond", cores=2, registers=4, slack=1.5):
    plan = partition_graph(dag_workload(name), cores=cores, slack=slack)
    selection = sweep_operating_points(plan, register_count=registers)
    jobs = build_jobs(plan, selection, register_count=registers)
    return plan, selection, jobs


def test_one_job_per_task_at_the_assigned_point():
    plan, selection, jobs = pipeline()
    assert sorted(j.task for j in jobs) == sorted(
        t.name for t in plan.graph.tasks
    )
    for job in jobs:
        point = selection.assignment[job.partition]
        assert job.point == point
        assert job.job_id == f"{job.partition}:{job.task}"
        assert job.problem.memory.voltage == point.voltage
        assert job.problem.memory.divisor == 1  # topology stays warm-startable
        assert job.problem.horizon == plan.schedules[job.task].length


def test_dispatch_objectives_reconcile_with_the_sweep():
    plan, selection, jobs = pipeline()
    results = dispatch_blocks(jobs, certify_fraction=1.0)
    assert [r.job_id for r in results] == [j.job_id for j in jobs]
    for job, result in zip(jobs, results):
        assert result.status == "ok"
        assert result.certified
        rate = plan.graph.task(job.task).rate
        assert result.objective * rate == pytest.approx(
            selection.block_energies[job.task]
        )


def test_dispatch_objectives_equal_the_sweep_exactly():
    # The sweep prices each rung as a cold solve of its instance, so the
    # dispatch's independent cold re-solve of the chosen rung gives the
    # same bits, not just the same value within a tolerance.
    plan, selection, jobs = pipeline("diamond", cores=2, registers=4, slack=2.5)
    results = dispatch_blocks(jobs, certify_fraction=1.0)
    for job, result in zip(jobs, results):
        assert result.status == "ok"
        assert result.certified
        rate = plan.graph.task(job.task).rate
        assert result.objective * rate == selection.block_energies[job.task]


def test_dispatch_reuses_a_caller_supplied_executor():
    _, _, jobs = pipeline()
    executor = BatchExecutor(certify_fraction=1.0)
    first = dispatch_blocks(jobs, executor=executor)
    second = dispatch_blocks(jobs, executor=executor)
    assert all(r.status == "ok" for r in first)
    # identical instances: nothing to solve the second time around
    assert all(not r.cached for r in first)


def test_emitted_manifest_replays_through_the_service(tmp_path):
    plan, selection, jobs = pipeline()
    manifest_path = emit_manifest(jobs, tmp_path, graph_name="diamond")
    assert manifest_path.name == "diamond.manifest.json"

    document = json.loads(manifest_path.read_text())
    assert document["schema"] == SCHEMA_V2
    assert len(document["jobs"]) == len(jobs)
    assert all(entry["kind"] == "instance" for entry in document["jobs"])

    manifest = load_manifest(manifest_path)
    built = manifest.build()
    assert [w.label for w in built] == [j.job_id for j in jobs]
    # The instance files embed the full DVFS operating point: replaying
    # the manifest must produce byte-identical problems.
    for job, workload in zip(jobs, built):
        assert workload.problem.memory == job.problem.memory
        assert workload.problem.register_count == job.problem.register_count
        assert workload.problem.lifetimes == job.problem.lifetimes

    executor = BatchExecutor()
    for workload in built:
        executor.submit(workload.problem, job_id=workload.label)
    replayed = executor.gather()
    direct = dispatch_blocks(jobs)
    for a, b in zip(replayed, direct):
        assert a.status == "ok"
        assert a.objective == pytest.approx(b.objective)


def test_missing_partition_in_selection_is_a_dag_error():
    from repro.exceptions import DagError

    plan, selection, _ = pipeline()
    broken = type(selection)(
        assignment={},
        partition_energies=selection.partition_energies,
        block_energies=selection.block_energies,
        handoff_energy=selection.handoff_energy,
        total_energy=selection.total_energy,
        makespan=selection.makespan,
        frontier=selection.frontier,
    )
    with pytest.raises(DagError):
        build_jobs(plan, broken)
