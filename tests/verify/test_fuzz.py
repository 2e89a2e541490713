"""Tests for the seeded fuzz harness and its shrinking minimizer."""

import json
import random

from repro.core.problem import AllocationProblem
from repro.verify.fuzz import (
    SCHEMA,
    draw_case,
    render_report,
    run_case,
    run_fuzz,
    run_problem,
    shrink_case,
)
from repro.workloads.random_blocks import random_lifetimes, spawn_rng
from repro.workloads.serialize import problem_from_dict


def test_small_run_clean():
    report = run_fuzz(0, 12)
    assert report["schema"] == SCHEMA
    assert report["statuses"]["violation"] == 0
    assert report["failures"] == []
    total = sum(report["statuses"].values())
    assert total == report["iterations"] == 12


def test_runs_are_deterministic():
    first = run_fuzz(3, 10)
    second = run_fuzz(3, 10)
    assert render_report(first) == render_report(second)


def test_different_seeds_differ():
    assert run_fuzz(0, 10)["coverage"] != run_fuzz(1, 10)["coverage"]


def test_cases_replay_independently():
    # Case k is reproducible without running cases 0..k-1: the plan RNG
    # and each case RNG are derived, not shared.
    seed = 7
    plan = spawn_rng(seed, "fuzz-plan")
    cases = [draw_case(plan, i) for i in range(6)]
    full = [run_case(seed, case) for case in cases]
    alone = run_case(seed, cases[4])
    assert alone.status == full[4].status
    assert alone.case == cases[4]


def test_degenerate_families_covered():
    report = run_fuzz(0, 16)
    families = set(report["coverage"]["degenerate"])
    assert families == {
        "none",
        "zero-registers",
        "surplus-registers",
        "minimal-lifetimes",
        "split-heavy",
    }
    assert "0" in report["coverage"]["register_count"]


def test_report_round_trips_json():
    report = run_fuzz(2, 8)
    assert json.loads(render_report(report)) == report


def test_run_problem_statuses():
    lifetimes = random_lifetimes(random.Random(1), count=6, horizon=8)
    horizon = max(l.end for l in lifetimes.values())
    ok = AllocationProblem(lifetimes, 2, horizon)
    status, violations = run_problem(ok)
    assert status == "ok" and violations == []


def test_shrinker_minimises_and_preserves_failure():
    # Use an artificial failure predicate via a wrapped battery: the
    # shrinker must keep only what sustains the failure.  We simulate a
    # "bug" that triggers whenever variable 'v0' is present by shrinking
    # a real instance against run_problem patched through duck typing:
    # instead, exercise the real shrinker on a real (passing) instance
    # and check the contract that a passing instance shrinks to itself.
    lifetimes = random_lifetimes(random.Random(5), count=8, horizon=9)
    horizon = max(l.end for l in lifetimes.values())
    problem = AllocationProblem(lifetimes, 3, horizon)
    shrunk = shrink_case(problem)
    # No violation -> nothing may be removed.
    assert shrunk.lifetimes.keys() == problem.lifetimes.keys()
    assert shrunk.register_count == problem.register_count


def test_shrinker_reduces_failing_instance(monkeypatch):
    # Inject a fake oracle violation that fires iff 'v2' is alive, and
    # check the minimizer strips everything else.
    import repro.verify.fuzz as fuzz_mod
    from repro.verify.oracles import Violation

    def fake_run_problem(problem):
        if "v2" in problem.lifetimes:
            return "violation", [Violation("fake", "v2 present")]
        return "ok", []

    monkeypatch.setattr(fuzz_mod, "run_problem", fake_run_problem)
    lifetimes = random_lifetimes(random.Random(6), count=9, horizon=10)
    horizon = max(l.end for l in lifetimes.values())
    problem = AllocationProblem(lifetimes, 4, horizon)
    shrunk = fuzz_mod.shrink_case(problem)
    assert set(shrunk.lifetimes) == {"v2"}
    assert shrunk.register_count == 0
    assert shrunk.horizon <= problem.horizon


def test_failure_entries_carry_reproducer(monkeypatch):
    # Force every case to "fail" and check the report embeds a
    # round-trippable minimized instance.
    import repro.verify.fuzz as fuzz_mod
    from repro.verify.oracles import Violation

    real = fuzz_mod.run_problem

    def failing_run_problem(problem):
        status, violations = real(problem)
        if status == "ok":
            return "violation", [Violation("fake", "synthetic failure")]
        return status, violations

    monkeypatch.setattr(fuzz_mod, "run_problem", failing_run_problem)
    report = fuzz_mod.run_fuzz(0, 4, shrink=False)
    assert report["statuses"]["violation"] >= 1
    entry = report["failures"][0]
    assert entry["violations"][0]["oracle"] == "fake"
    rebuilt = problem_from_dict(entry["minimized"])
    assert rebuilt.register_count == entry["minimized_size"]["register_count"]
    assert len(rebuilt.lifetimes) == entry["minimized_size"]["variables"]
