"""The RA6xx rule family fires on proofs, not heuristics.

Each rule attaches machine-checkable evidence: RA601/RA603 embed the
prover's certificate (with its independent re-check result), RA602 the
derived-vs-declared lifetime diff, RA604 the cost intervals and the
one-path witness energy.  Healthy instances must stay silent — the
family's value is zero false positives, verified here on scheduled
kernels and in ``tests/lint/test_prove.py`` across the fuzz sweep.
"""

from __future__ import annotations

import math

import pytest

from repro.core.problem import AllocationProblem
from repro.energy import MemoryConfig
from repro.lifetimes.intervals import Lifetime
from repro.ir.values import DataVariable
from repro.lint import (
    InfeasibilityCertificate,
    LintConfig,
    LintContext,
    Location,
    Severity,
    run_lint,
)
from repro.obs import trace as obs
from repro.scheduling.list_scheduler import list_schedule
from repro.service.manifest import parse_manifest
from repro.workloads.registry import kernel_block


def corrupted_fig3():
    manifest = {
        "schema": "repro.service/manifest/v1",
        "jobs": [
            {"kind": "figure", "name": "fig3", "registers": 0, "divisor": 2}
        ],
    }
    return parse_manifest(manifest).build()[0].problem


def healthy_scheduled(registers=4):
    block = kernel_block("fir", taps=8, seed=7)
    schedule = list_schedule(block)
    problem = AllocationProblem.from_schedule(
        schedule, register_count=registers
    )
    return problem, schedule


def codes_of(problem, schedule=None, select=(), options=None):
    config = LintConfig(select=tuple(select), options=options or {})
    return run_lint(problem, schedule=schedule, config=config)


# ----------------------------------------------------------------------
# RA601 — pressure proofs
# ----------------------------------------------------------------------
def test_ra601_fires_with_checked_certificate():
    report = codes_of(corrupted_fig3(), select=("RA601",))
    assert "RA601" in report.codes
    finding = next(d for d in report.diagnostics if d.code == "RA601")
    assert finding.severity is Severity.ERROR
    evidence = finding.evidence
    assert evidence is not None
    assert evidence["certificate"] in ("forced-pressure", "cut-capacity")
    assert evidence["checked"] is True
    assert evidence["required"] > evidence["available"]


def test_ra601_silent_on_healthy_instances():
    problem, schedule = healthy_scheduled()
    report = codes_of(problem, schedule, select=("RA601", "RA603"))
    assert report.codes == ()


# ----------------------------------------------------------------------
# RA602 — schedule/lifetime disagreement
# ----------------------------------------------------------------------
def test_ra602_silent_when_lifetimes_match_schedule():
    problem, schedule = healthy_scheduled()
    report = codes_of(problem, schedule, select=("RA602",))
    assert report.codes == ()


def test_ra602_flags_tampered_lifetime():
    problem, schedule = healthy_scheduled()
    name, original = next(iter(sorted(problem.lifetimes.items())))
    tampered = object.__new__(Lifetime)
    object.__setattr__(tampered, "variable", original.variable)
    object.__setattr__(tampered, "write_time", original.write_time)
    object.__setattr__(
        tampered,
        "read_times",
        tuple(t + 1 for t in original.read_times),
    )
    object.__setattr__(tampered, "live_out", original.live_out)
    problem.lifetimes[name] = tampered
    report = codes_of(problem, schedule, select=("RA602",))
    assert "RA602" in report.codes
    finding = next(d for d in report.diagnostics if d.code == "RA602")
    assert finding.evidence["variable"] == name
    assert finding.evidence["derived"] != finding.evidence["declared"]


def test_ra602_flags_phantom_lifetime():
    problem, schedule = healthy_scheduled()
    phantom = object.__new__(Lifetime)
    object.__setattr__(
        phantom, "variable", DataVariable("ghost", 16, ())
    )
    object.__setattr__(phantom, "write_time", 1)
    object.__setattr__(phantom, "read_times", (2,))
    object.__setattr__(phantom, "live_out", False)
    problem.lifetimes["ghost"] = phantom
    report = codes_of(problem, schedule, select=("RA602",))
    assert "RA602" in report.codes
    assert any(
        d.evidence and d.evidence.get("derived") is None
        for d in report.diagnostics
    )


def test_ra602_skipped_without_a_schedule():
    report = codes_of(corrupted_fig3(), schedule=None, select=("RA602",))
    assert report.codes == ()


# ----------------------------------------------------------------------
# RA604 — energy cost intervals
# ----------------------------------------------------------------------
class _EvilModel:
    """Charges memory normally but *credits* every register access."""

    def mem_read(self, v):
        return 10.0

    def mem_write(self, v):
        return 10.0

    def reg_read(self, v):
        return -500.0

    def reg_write(self, v, prev=None):
        return -500.0

    def with_voltages(self, mem_voltage, reg_voltage):
        return self


class _NaNModel(_EvilModel):
    def reg_read(self, v):
        return math.nan

    def reg_write(self, v, prev=None):
        return math.nan


def _two_var_problem(model):
    from tests.conftest import make_lifetime

    return AllocationProblem(
        {
            "a": make_lifetime("a", 1, 3),
            "b": make_lifetime("b", 2, 5),
        },
        2,
        6,
        energy_model=model,
    )


def test_ra604_fires_on_net_negative_register_chains():
    report = codes_of(_two_var_problem(_EvilModel()), select=("RA604",))
    assert "RA604" in report.codes
    finding = next(d for d in report.diagnostics if d.code == "RA604")
    assert finding.evidence["witness_energy"] < 0
    assert "intervals" in finding.evidence


def test_ra604_nonfinite_costs_escalate_to_error():
    report = codes_of(_two_var_problem(_NaNModel()), select=("RA604",))
    assert "RA604" in report.codes
    finding = next(d for d in report.diagnostics if d.code == "RA604")
    assert finding.severity is Severity.ERROR


def test_ra604_silent_on_healthy_models():
    problem, schedule = healthy_scheduled()
    report = codes_of(problem, schedule, select=("RA604",))
    assert report.codes == ()


def test_ra604_tolerance_option_suppresses_tiny_credits():
    report = codes_of(
        _two_var_problem(_EvilModel()),
        select=("RA604",),
        options={"RA604": {"tolerance": 1e9}},
    )
    assert report.codes == ()


# ----------------------------------------------------------------------
# family smoke: corrupted admission fixture trips proofs + structure
# ----------------------------------------------------------------------
def test_corrupted_fig3_full_report_has_proof_and_structure():
    report = run_lint(corrupted_fig3())
    assert "RA601" in report.codes
    assert report.at_least(Severity.ERROR)


# ----------------------------------------------------------------------
# one prover run per lint run, shared by RA601/RA603/RA605
# ----------------------------------------------------------------------
def test_one_lint_run_runs_the_prover_once():
    with obs.collect() as trace:
        report = run_lint(corrupted_fig3())
    assert "RA601" in report.codes
    assert trace.counters["lint.prove.calls"] == 1


@pytest.mark.parametrize(
    "code,certificate,message,location",
    [
        (
            "RA601",
            InfeasibilityCertificate(
                "forced-pressure", 1, 9, 4, "nine forced segments"
            ),
            "prover emitted a forced-pressure certificate",
            Location(step=1, detail="forced-pressure"),
        ),
        (
            "RA603",
            InfeasibilityCertificate(
                "unreachable-forced-segment",
                None,
                1,
                0,
                "segment cut off",
                witness=("ghost#2",),
            ),
            "prover emitted an unreachability certificate",
            Location(variable="ghost", segment=2),
        ),
        (
            "RA605",
            InfeasibilityCertificate(
                "bank-capacity", 1, 9, 4, "nine live values"
            ),
            "prover emitted a bank-capacity certificate",
            Location(step=1, detail="bank-capacity"),
        ),
    ],
    ids=["RA601", "RA603", "RA605"],
)
def test_proof_rules_report_certificates_that_fail_their_recheck(
    monkeypatch, code, certificate, message, location
):
    # A certificate the independent re-check rejects is a prover bug:
    # the rule says so instead of presenting it as a proof.
    monkeypatch.setattr(
        LintContext, "certificates", property(lambda ctx: (certificate,))
    )
    problem, schedule = healthy_scheduled()
    report = codes_of(problem, schedule, select=(code,))
    assert report.codes == (code,)
    finding = report.diagnostics[0]
    assert finding.message == (
        f"{message} that fails independent re-verification: "
        f"{certificate.detail}"
    )
    assert finding.location == location
    assert finding.hint.startswith("this is a prover bug")
    assert finding.evidence == {**certificate.to_dict(), "checked": False}
