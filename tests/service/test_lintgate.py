"""Lint-verdict caching and the executor-side admission gate.

The contract under test: verdicts key on the canonical sha256 digest
*plus* the schedule fingerprint and the variable naming (isomorphic
lifetimes from different schedules, or under different names, must not
share a verdict), persist as sibling
``<digest>.lint.json`` files in the result cache's one disk layout,
and the executor's gate turns blocking verdicts into ``"rejected"``
results that never reach a solver.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

from repro.core.problem import AllocationProblem
from repro.ir.values import DataVariable
from repro.lifetimes.intervals import Lifetime
from repro.lint import run_lint
from repro.obs import trace as obs
from repro.scheduling.list_scheduler import list_schedule
from repro.scheduling.schedule import Schedule
from repro.service.cache import CachedLint, ResultCache
from repro.service.executor import BatchExecutor
from repro.service.lintgate import LintGate, schedule_fingerprint
from repro.service.manifest import parse_manifest
from repro.workloads.registry import kernel_block


def renamed(problem, prefix):
    """*problem* with every variable renamed ``prefix + name``."""
    lifetimes = {
        prefix + name: Lifetime(
            DataVariable(prefix + name, lt.variable.width, lt.variable.trace),
            lt.write_time,
            lt.read_times,
            lt.live_out,
        )
        for name, lt in problem.lifetimes.items()
    }
    forced = frozenset(
        (prefix + name, index) for name, index in problem.forced_segments
    )
    return dataclasses.replace(
        problem, lifetimes=lifetimes, forced_segments=forced
    )


def healthy():
    block = kernel_block("fir", taps=6, seed=3)
    schedule = list_schedule(block)
    return AllocationProblem.from_schedule(schedule, register_count=4), schedule


def corrupted():
    manifest = {
        "schema": "repro.service/manifest/v1",
        "jobs": [
            {"kind": "figure", "name": "fig3", "registers": 0, "divisor": 2}
        ],
    }
    built = parse_manifest(manifest).build()[0]
    return built.problem, built.schedule


# ----------------------------------------------------------------------
# fingerprints
# ----------------------------------------------------------------------
def test_fingerprint_empty_for_no_schedule():
    assert schedule_fingerprint(None) == ""


def test_fingerprint_stable_and_schedule_sensitive():
    _, schedule = healthy()
    first = schedule_fingerprint(schedule)
    assert first == schedule_fingerprint(schedule)
    # A legal reschedule of the same block must fingerprint differently.
    shifted = Schedule(
        schedule.block,
        {name: step + 1 for name, step in schedule.start.items()},
    )
    assert schedule_fingerprint(shifted) != first


# ----------------------------------------------------------------------
# verdict cache
# ----------------------------------------------------------------------
def test_verdict_cached_by_digest_and_fingerprint():
    problem, schedule = healthy()
    cache = ResultCache()
    gate = LintGate(cache=cache, fail_on="error")
    first, network = gate.check(problem, schedule=schedule, label="a")
    second, no_network = gate.check(problem, schedule=schedule, label="a")
    assert not first.cached and second.cached
    assert cache.stats()["lint_hits"] == 1
    # A miss hands back the network it analysed; a hit built none.
    assert network is not None and network.problem is problem
    assert no_network is None


def test_different_schedule_fingerprint_is_a_miss():
    problem, schedule = healthy()
    cache = ResultCache()
    gate = LintGate(cache=cache, fail_on="error")
    gate.check(problem, schedule=schedule)
    # Same canonical problem, no schedule: the verdict must not be
    # shared (the schedule-aware rules did not run for this lookup).
    verdict, _ = gate.check(problem, schedule=None)
    assert not verdict.cached
    assert cache.stats()["lint_misses"] == 2


def test_renamed_instance_is_a_miss():
    # Same canonical instance (fig3's lifetimes, R=0, divisor 2), every
    # variable renamed: the report names variables, so the first
    # instance's verdict must not be served to the second.
    fig3, _ = corrupted()
    problem = AllocationProblem(
        fig3.lifetimes, 0, fig3.horizon, memory=fig3.memory
    )
    other = renamed(problem, "zz_")
    gate = LintGate(cache=ResultCache(), fail_on="error")
    first, _ = gate.check(problem)
    verdict, _ = gate.check(other)
    assert verdict.key == first.key
    assert not verdict.cached

    def witness(report):
        proof = next(d for d in report.diagnostics if d.code == "RA601")
        return proof.evidence["witness"]

    assert witness(first.report) == ["d"]
    assert witness(verdict.report) == witness(run_lint(other)) == ["zz_d"]
    # A byte-identical re-submission still hits.
    again, _ = gate.check(other)
    assert again.cached and witness(again.report) == ["zz_d"]


def test_verdicts_persist_on_disk_next_to_results(tmp_path):
    problem, schedule = healthy()
    store = tmp_path / "store"
    first_cache = ResultCache(directory=store)
    LintGate(cache=first_cache, fail_on="error").check(
        problem, schedule=schedule
    )
    lint_files = list(store.rglob("*.lint.json"))
    assert len(lint_files) == 1
    # A fresh cache over the same directory serves the verdict from disk.
    second_cache = ResultCache(directory=store)
    verdict, _ = LintGate(cache=second_cache, fail_on="error").check(
        problem, schedule=schedule
    )
    assert verdict.cached


def test_sharded_cache_separates_lint_entries_in_stats(tmp_path):
    problem, schedule = healthy()
    store = tmp_path / "store"
    cache = ResultCache(directory=store)
    verdict, _ = LintGate(cache=cache, fail_on="error").check(
        problem, schedule=schedule
    )
    stats = cache.stats()
    assert stats["lint_entries"] == 1
    assert stats["entries"] == 0
    # The verdict file landed in its digest-prefix directory, and no
    # result entry was written beside it.
    digest = verdict.key.split(":", 1)[1]
    assert [p.relative_to(store) for p in store.rglob("*.json")] == [
        Path(digest[:2]) / f"{digest}.lint.json"
    ]


def test_corrupt_cached_verdict_is_reanalysed():
    problem, schedule = healthy()
    cache = ResultCache()
    gate = LintGate(cache=cache, fail_on="error")
    verdict, _ = gate.check(problem, schedule=schedule)
    cache.put_lint(
        CachedLint(
            key=verdict.key,
            fingerprint=verdict.fingerprint,
            naming=verdict.naming,
            report={"schema": "bogus"},
        )
    )
    again, _ = gate.check(problem, schedule=schedule)
    assert not again.cached
    assert again.report.codes == verdict.report.codes


# ----------------------------------------------------------------------
# gate semantics
# ----------------------------------------------------------------------
def test_unknown_fail_on_fails_closed_to_error():
    gate = LintGate(fail_on="definitely-not-a-severity")
    problem, schedule = corrupted()
    verdict, _ = gate.check(problem, schedule=schedule)
    assert verdict.blocking


def test_never_lints_but_never_blocks():
    gate = LintGate(fail_on="never")
    problem, schedule = corrupted()
    verdict, _ = gate.check(problem, schedule=schedule)
    assert verdict.report.codes  # findings exist
    assert not verdict.blocking


# ----------------------------------------------------------------------
# executor integration
# ----------------------------------------------------------------------
def test_executor_rejects_blocked_jobs_without_solving():
    good_problem, good_schedule = healthy()
    bad_problem, bad_schedule = corrupted()
    cache = ResultCache()
    executor = BatchExecutor(
        workers=1,
        cache=cache,
        lint_gate=LintGate(cache=cache, fail_on="error"),
    )
    with obs.collect() as trace:
        executor.submit(good_problem, job_id="good", schedule=good_schedule)
        executor.submit(bad_problem, job_id="bad", schedule=bad_schedule)
        results = executor.gather()
    assert [r.status for r in results] == ["ok", "rejected"]
    assert results[1].summary is None
    assert "lint" in (results[1].error or "")
    assert len(executor.lint_verdicts) == 2
    assert [v.blocking for v in executor.lint_verdicts] == [False, True]
    # Exactly one solve happened: the rejected job never reached a rung.
    assert trace.counters.get("solver.flow_solve.calls", 0) == 1


def test_executor_gates_cache_hits_too():
    problem, schedule = healthy()
    cache = ResultCache()
    executor = BatchExecutor(
        workers=1,
        cache=cache,
        lint_gate=LintGate(cache=cache, fail_on="error"),
    )
    executor.map_blocks([problem], ids=["x"], schedules=[schedule])
    results = executor.map_blocks([problem], ids=["x"], schedules=[schedule])
    assert results[0].cached
    # The second gather still produced a verdict (served from cache).
    assert len(executor.lint_verdicts) == 1
    assert executor.lint_verdicts[0].cached
