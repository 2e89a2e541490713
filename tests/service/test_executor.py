"""Batch executor: caching, solver failures, the parallel path."""

import json
import os
import time

import pytest

from repro import obs
from repro.core import allocate
from repro.core.problem import AllocationProblem
from repro.exceptions import ServiceError
from repro.flow.kernel import FlowKernel
from repro.service import (
    BatchExecutor,
    ResultCache,
    SolveSummary,
    canonicalize,
    pool,
)
from repro.workloads.random_blocks import random_lifetimes, spawn_rng
from tests.conftest import make_lifetime

from .conftest import running


def small_problem() -> AllocationProblem:
    lifetimes = {
        "a": make_lifetime("a", 1, (3, 5)),
        "b": make_lifetime("b", 2, 4),
        "c": make_lifetime("c", 3, 6, live_out=True),
    }
    return AllocationProblem(lifetimes, 2, 6)


def random_batch(count: int, seed: int = 7) -> list[AllocationProblem]:
    problems = []
    for case in range(count):
        rng = spawn_rng(seed, "batch", case)
        lifetimes = random_lifetimes(rng, 8, 12)
        problems.append(AllocationProblem(lifetimes, 3, 12))
    return problems


class PlantedSolverBug(RuntimeError):
    """Stands in for a defect inside the exact allocator."""


_solve_many = FlowKernel.solve_many


def solve_many_with_planted_bug(
    self, sources, sinks, flow_values, labels=None
):
    """:meth:`FlowKernel.solve_many`, except that a kernel holding a
    single-register instance (flow value 1) crashes."""
    if 1 in list(flow_values):
        raise PlantedSolverBug("kernel lost an arc")
    return _solve_many(self, sources, sinks, flow_values, labels)


def doomed_problem() -> AllocationProblem:
    lifetimes = {"a": make_lifetime("a", 1, 3), "b": make_lifetime("b", 2, 5)}
    return AllocationProblem(lifetimes, 1, 6)


@pytest.fixture
def planted_bug(monkeypatch):
    # Every flow solve, lockstep or alone, runs FlowKernel.solve_many.
    # Pool workers fork after the patch, so they inherit it too: the
    # suite stops the pool after every test (tests/conftest.py).
    monkeypatch.setattr(FlowKernel, "solve_many", solve_many_with_planted_bug)


def test_serial_batch_matches_direct_solve():
    problem = small_problem()
    executor = BatchExecutor(workers=1, cache=ResultCache())
    job_id = executor.submit(problem, job_id="small")
    assert job_id == "small"
    result = executor.gather()[0]
    assert result.ok and not result.cached
    assert result.solver == "ssp"
    assert result.objective == pytest.approx(allocate(problem).objective)
    assert result.worker is not None


def test_repeat_batch_is_cache_served_with_identical_energies():
    problems = random_batch(20)
    cache = ResultCache()
    executor = BatchExecutor(workers=1, cache=cache)
    first = executor.map_blocks(problems)
    hits_before = cache.stats()["hits"]
    second = executor.map_blocks(problems)
    assert all(result.ok for result in first + second)
    assert all(result.cached for result in second)
    second_run_rate = (cache.stats()["hits"] - hits_before) / len(problems)
    assert second_run_rate >= 0.9
    for before, after in zip(first, second):
        assert before.objective == after.objective  # byte-identical
        assert before.summary.residency == after.summary.residency


@pytest.mark.parametrize("workers", [1, 2])
def test_solver_exception_is_a_job_failure_not_a_crash(planted_bug, workers):
    problems = random_batch(3) + [doomed_problem()] + random_batch(2, seed=9)
    cache = ResultCache()
    executor = BatchExecutor(workers=workers, cache=cache)
    with obs.collect() as trace:
        results = executor.map_blocks(problems)
    assert [result.status for result in results] == [
        "ok", "ok", "ok", "failed", "ok", "ok",
    ]
    # Counted in the parent, so pool workers' faults show up too.
    assert trace.counters["service.solver_error"] == 1
    failed = results[3]
    assert failed.error == "PlantedSolverBug: kernel lost an arc"
    assert failed.solver is None and failed.summary is None
    assert not failed.certified
    assert all(r.solver == "ssp" and r.summary.exact for r in results if r.ok)
    # The healthy jobs get the answers they get alone, and every job
    # still accounts for its share of the solve.
    for problem, result in zip(problems, results):
        if result.ok:
            alone = SolveSummary.from_allocation(allocate(problem), result.key)
            assert result.summary.to_dict() == alone.to_dict()
    assert all(r.wall_time_s > 0 for r in results)
    # Only the five exact answers were cached.
    assert len(cache) == 5
    assert cache.get(canonicalize(doomed_problem()).key) is None


def test_pool_and_serial_paths_agree():
    problems = random_batch(12, seed=11)
    serial = BatchExecutor(workers=1, cache=None).map_blocks(problems)
    pooled = BatchExecutor(workers=2, cache=None).map_blocks(problems)
    assert [r.status for r in serial] == [r.status for r in pooled]
    assert _summaries(pooled) == _summaries(serial)
    # One contiguous chunk per worker, each solved in one lockstep call.
    pids = [r.worker for r in pooled]
    assert len(set(pids[:6])) == len(set(pids[6:])) == 1
    assert pids[0] != pids[-1]


def solve_many_with_planted_stalls(
    self, sources, sinks, flow_values, labels=None
):
    """:meth:`FlowKernel.solve_many`, except that a kernel holding a
    two-register instance hangs and one holding a single-register
    instance kills its process."""
    values = list(flow_values)
    if 1 in values:
        os._exit(3)
    if 2 in values:
        time.sleep(60)
    return _solve_many(self, sources, sinks, flow_values, labels)


def test_late_and_crashing_jobs_cost_only_their_own_answers(monkeypatch):
    # Chunk one holds the sleeper (index 3), chunk two the crasher (7).
    problems = (
        random_batch(3) + [small_problem()]
        + random_batch(3, seed=9) + [doomed_problem()]
    )
    healthy = [0, 1, 2, 4, 5, 6]
    alone = {
        index: SolveSummary.from_allocation(
            allocate(problems[index]), canonicalize(problems[index]).key
        ).to_dict()
        for index in healthy
    }
    monkeypatch.setattr(FlowKernel, "solve_many", solve_many_with_planted_stalls)
    timeout = 0.5
    executor = BatchExecutor(workers=2, cache=None, timeout=timeout)
    start = time.monotonic()
    with obs.collect() as trace:
        results = executor.map_blocks(problems)
    elapsed = time.monotonic() - start
    # Both chunks are lost, then each job runs alone under `timeout`.
    assert elapsed < 2 * timeout * 4 + 2.0
    assert [r.status for r in results] == (
        ["ok"] * 3 + ["timeout"] + ["ok"] * 3 + ["failed"]
    )
    assert {i: results[i].summary.to_dict() for i in healthy} == alone
    late, crashed = results[3], results[7]
    assert late.error == (
        f"exceeded its {timeout:.3f}s deadline; worker {late.worker} was killed"
    )
    assert late.wall_time_s == timeout
    assert crashed.error.startswith("WorkerLost: worker ")
    assert "exited with code 3" in crashed.error
    # Both first-round workers and both second-round ones were replaced.
    assert trace.counters["service.pool.replaced"] == 4
    assert not running(late.worker) and not running(crashed.worker)
    again = BatchExecutor(workers=2, cache=None).map_blocks(random_batch(4, 21))
    assert all(result.ok for result in again)
    live = pool.shared(2).pids
    assert {result.worker for result in again} == set(live)
    assert len(live) == 2 and all(running(pid) for pid in live)


def test_results_keep_submission_order_and_ids():
    problems = random_batch(6, seed=3)
    executor = BatchExecutor(workers=1, cache=ResultCache())
    results = executor.map_blocks(
        problems, ids=[f"case-{i}" for i in range(6)]
    )
    assert [result.job_id for result in results] == [
        f"case-{i}" for i in range(6)
    ]
    assert [result.index for result in results] == list(range(6))


def test_duplicate_instances_inside_one_batch_hit_the_cache():
    problem = small_problem()
    executor = BatchExecutor(workers=1, cache=ResultCache())
    results = executor.map_blocks([problem, problem, problem])
    # The first gather resolves all three; the first solve populates the
    # cache only after the batch, so hits land on identical keys via the
    # canonical lookup in the *next* gather.
    assert all(result.ok for result in results)
    repeat = executor.map_blocks([problem])
    assert repeat[0].cached


def test_failed_jobs_are_not_cached(planted_bug):
    cache = ResultCache()
    executor = BatchExecutor(workers=1, cache=cache)
    executor.map_blocks([doomed_problem()])
    assert len(cache) == 0
    # Still a miss (and a fresh solve attempt) the next time round.
    again = executor.map_blocks([doomed_problem()])[0]
    assert again.status == "failed" and not again.cached


def test_stale_inexact_cache_entry_is_re_solved_and_overwritten(tmp_path):
    problem = small_problem()
    canonical = canonicalize(problem)
    store = tmp_path / "store"
    digest = canonical.key.split(":", 1)[1]
    path = store / digest[:2] / f"{digest}.json"
    path.parent.mkdir(parents=True)
    # What an older release's approximate fallback left on disk.
    path.write_text(
        json.dumps(
            {
                "schema": "repro.service/cache-entry/v1",
                "key": canonical.key,
                "solver": "two_phase",
                "exact": False,
                "objective": 999.0,
                "mem_accesses": 6,
                "reg_accesses": 0,
                "registers_used": 0,
                "unused_registers": 2,
                "address_count": 3,
                "residency": [],
                "memory_addresses": [["x0", 0], ["x1", 1], ["x2", 2]],
            }
        ),
        encoding="utf-8",
    )
    cache = ResultCache(directory=store)
    result = BatchExecutor(workers=1, cache=cache).map_blocks([problem])[0]
    assert result.ok and not result.cached
    assert result.solver == "ssp" and result.summary.exact
    assert result.objective == allocate(problem).objective
    assert cache.stats()["misses"] == 1 and cache.stats()["hits"] == 0
    stored = json.loads(path.read_text(encoding="utf-8"))
    assert stored["solver"] == "ssp" and stored["exact"] is True
    replay = BatchExecutor(
        workers=1, cache=ResultCache(directory=store)
    ).map_blocks([problem])[0]
    assert replay.cached and replay.objective == result.objective


def test_certify_fraction_samples_jobs():
    executor = BatchExecutor(
        workers=1, cache=None, certify_fraction=1.0, seed=5
    )
    result = executor.map_blocks([small_problem()])[0]
    assert result.ok and result.certified


def test_lint_gate_failure_becomes_a_job_failure():
    from repro.energy import MemoryConfig
    from repro.service.lintgate import LintGate

    # RA405: restricted memory at 3.3 V while the model still charges
    # memory at the nominal 5 V — a warning-severity finding.
    problem = AllocationProblem(
        {
            "a": make_lifetime("a", 1, 3),
            "b": make_lifetime("b", 2, 5),
        },
        1,
        6,
        memory=MemoryConfig(divisor=2, voltage=3.3),
    )
    executor = BatchExecutor(
        workers=1, cache=None, lint_gate=LintGate(fail_on="warning")
    )
    result = executor.map_blocks([problem])[0]
    assert result.status == "rejected"
    assert not result.ok
    assert "RA405" in (result.error or "")


def test_invalid_parameters_rejected():
    with pytest.raises(ServiceError, match="workers"):
        BatchExecutor(workers=0)
    with pytest.raises(ServiceError, match="fraction"):
        BatchExecutor(certify_fraction=1.5)
    with pytest.raises(ServiceError, match="timeout"):
        BatchExecutor(timeout=-1.0)


def test_job_result_to_dict_is_json_ready():
    executor = BatchExecutor(workers=1, cache=None)
    result = executor.map_blocks([small_problem()])[0]
    data = json.loads(json.dumps(result.to_dict()))
    assert data["status"] == "ok"
    assert data["solver"] == "ssp" and data["exact"] is True
    assert data["objective"] == pytest.approx(result.objective)


def _summaries(results):
    return [r.summary.to_dict() if r.ok else (r.status, r.error) for r in results]


def test_gather_splits_into_arc_budget_groups(monkeypatch):
    import repro.core.solver as solver_module

    problems = random_batch(9, seed=13) + [doomed_problem()]
    whole = BatchExecutor(workers=1, cache=None).map_blocks(problems)
    sizes = []
    stacked = FlowKernel.stacked.__func__

    def recording(cls, networks):
        sizes.append(len(networks))
        return stacked(cls, networks)

    monkeypatch.setattr(FlowKernel, "stacked", classmethod(recording))
    monkeypatch.setattr(solver_module, "GROUP_ARCS", 300)
    split = BatchExecutor(workers=1, cache=None).map_blocks(problems)
    assert len(sizes) > 1 and max(sizes) > 1
    assert sum(sizes) == len(problems)
    assert _summaries(split) == _summaries(whole)
    assert [r.objective for r in split] == [
        allocate(problem).objective for problem in problems
    ]


def test_paper_manifest_counts_work_per_instance():
    import pathlib

    from repro.service.manifest import parse_manifest

    path = (
        pathlib.Path(__file__).resolve().parents[2]
        / "examples" / "manifests" / "paper.json"
    )
    manifest = parse_manifest(json.loads(path.read_text(encoding="utf-8")))
    executor = BatchExecutor(workers=1, cache=None)
    for workload in manifest.build():
        executor.submit(workload.problem, job_id=workload.label)
    with obs.collect() as trace:
        results = executor.gather()
    assert all(result.ok for result in results)
    counters = trace.counters
    # The totals of solving each job on its own.
    assert counters["network.builds"] == 16
    assert counters["solver.flow_solve.calls"] == 16
    assert counters["ssp.solves"] == 16
    assert counters["ssp.augmenting_paths"] == 93
    assert counters["ssp.relax_rounds"] == 93
    # One multi-source search serves every unfinished job of a round.
    assert counters["ssp.searches"] < counters["ssp.relax_rounds"]


def test_a_large_gather_holds_one_group_at_a_time(monkeypatch):
    import weakref

    import repro.core.solver as solver_module

    problems = random_batch(24, seed=5)
    networks, allocations, alive = [], [], []
    build, finish = solver_module.build_network, solver_module._finish

    def recording_build(problem):
        built = build(problem)
        networks.append(weakref.ref(built.network))
        return built

    def recording_finish(built, flow, options):
        # What the gather still holds when the next job is finished.
        alive.append(
            (
                sum(ref() is not None for ref in allocations),
                sum(ref() is not None for ref in networks),
            )
        )
        allocation = finish(built, flow, options)
        allocations.append(weakref.ref(allocation))
        return allocation

    monkeypatch.setattr(solver_module, "build_network", recording_build)
    monkeypatch.setattr(solver_module, "_finish", recording_finish)
    # About two jobs per group, so the gather spans about ten groups.
    monkeypatch.setattr(solver_module, "GROUP_ARCS", 150)
    results = BatchExecutor(workers=1, cache=None).map_blocks(problems)
    assert all(result.ok for result in results)
    assert len(alive) == len(problems)
    # Alive: the previous job's allocation, one group's networks (three
    # at most here), the next job's, built before the group is solved,
    # and the previous allocation's.  Nothing piles up per job.
    assert max(count for count, _ in alive) <= 1
    assert max(count for _, count in alive) <= 5
