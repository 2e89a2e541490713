"""The bank-conflict fuzz family: coverage, agreement, shrinking."""

import random

from repro.verify.fuzz import (
    FuzzCase,
    draw_bank_case,
    run_case,
    run_fuzz,
    shrink_case,
)
from repro.workloads.random_blocks import spawn_rng


def test_banked_sweep_has_zero_disagreements():
    # The acceptance pin: a >= 40-instance seeded sweep over bank
    # counts x port widths x access periods — every solve certified
    # (run_problem arms certify=True) and every multi-bank oracle
    # armed — must produce no differential disagreement.
    report = run_fuzz(seed=7, iters=48, family="banked")
    assert report["family"] == "banked"
    assert report["iterations"] == 48
    assert report["statuses"]["violation"] == 0
    assert report["failures"] == []
    # The sweep actually exercised all three axes.
    coverage = report["coverage"]
    assert len(coverage["bank_count"]) >= 2
    assert len(coverage["bank_period"]) >= 2
    assert len(coverage["bank_ports"]) >= 2
    assert report["statuses"]["ok"] > 0


def test_banked_runs_are_deterministic():
    first = run_fuzz(seed=11, iters=8, family="banked")
    second = run_fuzz(seed=11, iters=8, family="banked")
    assert first == second


def test_unknown_family_rejected():
    import pytest

    with pytest.raises(ValueError, match="family"):
        run_fuzz(seed=1, iters=1, family="hierarchical")


def test_draw_bank_case_stays_in_the_grid():
    rng = spawn_rng(3, "fuzz-plan")
    for index in range(30):
        case = draw_bank_case(rng, index)
        assert case.bank_count in (1, 2, 3)
        assert case.bank_period in (1, 2, 3)
        assert case.bank_ports in (None, 1, 2)
        assert case.bank_capacity in (None, 1, 2, 3)
        spec = case.storage_spec()
        assert spec is not None
        assert len(spec.banks) == case.bank_count


def test_case_round_trips_storage_params():
    rng = random.Random(5)
    case = draw_bank_case(rng, 0)
    rebuilt = FuzzCase(**case.to_dict())
    assert rebuilt == case
    assert rebuilt.storage_spec() == case.storage_spec()


def test_banked_cases_replay_independently():
    report = run_fuzz(seed=19, iters=6, family="banked")
    rng = spawn_rng(19, "fuzz-plan")
    statuses = {"ok": 0, "infeasible": 0, "violation": 0}
    for index in range(6):
        case = draw_bank_case(rng, index)
        statuses[run_case(19, case).status] += 1
    assert statuses == report["statuses"]


def test_shrinker_keeps_storage_when_failure_needs_it(monkeypatch):
    # A fault that only manifests under a storage hierarchy: the
    # shrinker must not drop the spec, but may shed redundant banks.
    import repro.verify.fuzz as fuzz_mod
    from repro.core.problem import AllocationProblem
    from repro.core.storage import StorageSpec
    from repro.verify.oracles import Violation
    from tests.conftest import make_lifetime

    def storage_sensitive(problem):
        if problem.storage is None:
            return "ok", []
        return "violation", [Violation(oracle="fake", message="boom")]

    monkeypatch.setattr(fuzz_mod, "run_problem", storage_sensitive)
    problem = AllocationProblem(
        {"a": make_lifetime("a", 1, 4), "b": make_lifetime("b", 2, 5)},
        register_count=1,
        horizon=6,
        storage=StorageSpec.banked(3, 2),
    )
    shrunk = shrink_case(problem)
    assert shrunk.storage is not None
    assert len(shrunk.storage.banks) == 1  # redundant banks shed


def test_shrinker_drops_unneeded_storage(monkeypatch):
    import repro.verify.fuzz as fuzz_mod
    from repro.core.problem import AllocationProblem
    from repro.core.storage import StorageSpec
    from repro.verify.oracles import Violation
    from tests.conftest import make_lifetime

    def always_fails(problem):
        return "violation", [Violation(oracle="fake", message="boom")]

    monkeypatch.setattr(fuzz_mod, "run_problem", always_fails)
    problem = AllocationProblem(
        {"a": make_lifetime("a", 1, 4)},
        register_count=1,
        horizon=5,
        storage=StorageSpec.banked(2, 2),
    )
    shrunk = shrink_case(problem)
    assert shrunk.storage is None
