"""The analysis engine: run the rule set over one instance.

:func:`run_lint` is the package's entry point: it wraps the instance in
a :class:`~repro.lint.context.LintContext` and :func:`run_rules` walks
the enabled rules over it in stable code order, folding their findings
into a :class:`~repro.lint.diagnostics.LintReport`.  Everything is pre-solve
and side-effect free — no flow is ever solved.

:func:`gate_problem` is the opt-in pipeline gate behind
``allocate(problem, SolveOptions(lint="error"))``: it raises
:class:`~repro.exceptions.LintGateError` when the report contains
findings at or above the requested severity.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.exceptions import LintGateError
from repro.lint.context import LintContext
from repro.lint.diagnostics import Diagnostic, LintReport, Severity
from repro.lint.registry import INTERNAL_ERROR, LintConfig
from repro.obs import trace as obs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.problem import AllocationProblem
    from repro.scheduling.schedule import Schedule

__all__ = ["run_lint", "run_rules", "gate_problem"]


def run_lint(
    problem: "AllocationProblem",
    schedule: "Schedule | None" = None,
    config: LintConfig | None = None,
) -> LintReport:
    """Statically analyse *problem* (and *schedule*, when given).

    Args:
        problem: The instance to check; it is never solved.
        schedule: The schedule the lifetimes came from; enables the
            RA1xx schedule rules.
        config: Rule selection, severity overrides and per-rule options.

    Returns:
        The :class:`LintReport` with every finding of the enabled rules.
    """
    config = config or LintConfig()
    return run_rules(LintContext(problem, schedule=schedule, config=config))


def run_rules(ctx: LintContext) -> LintReport:
    """Run the rules *ctx*'s config enables over *ctx*.

    :func:`run_lint` in two halves: a caller that builds the
    :class:`~repro.lint.context.LintContext` itself can reuse what the
    analysis derived once the report is out — the admission gate hands
    :attr:`~repro.lint.context.LintContext.built` on to the solve.
    """
    config = ctx.config
    diagnostics: list[Diagnostic] = []
    with obs.span("lint.run"):
        for entry in config.active_rules():
            obs.count("lint.rules_run")
            assert entry.check is not None  # active_rules filters these
            try:
                findings = list(entry.check(ctx))
            except Exception as exc:  # a rule must never kill the run
                diagnostics.append(
                    Diagnostic(
                        code=INTERNAL_ERROR.code,
                        rule=INTERNAL_ERROR.name,
                        severity=INTERNAL_ERROR.severity,
                        message=(
                            f"rule {entry.code} ({entry.name}) raised "
                            f"{type(exc).__name__}: {exc}"
                        ),
                        hint=INTERNAL_ERROR.hint,
                    )
                )
                continue
            for finding in findings:
                diagnostics.append(
                    Diagnostic(
                        code=entry.code,
                        rule=entry.name,
                        severity=finding.severity
                        or config.severity_of(entry),
                        message=finding.message,
                        location=finding.location,
                        hint=finding.hint or entry.hint,
                        evidence=finding.evidence,
                    )
                )
        report = LintReport(tuple(diagnostics))
        obs.count("lint.diagnostics", len(report))
        if report.errors:
            obs.count("lint.errors", len(report.errors))
    return report


def gate_problem(
    problem: "AllocationProblem",
    schedule: "Schedule | None" = None,
    fail_on: str | Severity = Severity.ERROR,
    config: LintConfig | None = None,
) -> LintReport:
    """Lint *problem* and raise when findings reach *fail_on*.

    This is the opt-in pre-solve gate used by
    ``repro.core.solver.allocate(problem, SolveOptions(lint="error"))``
    and the pipeline entry points.

    Args:
        problem: The instance about to be solved.
        schedule: Optional schedule context for the RA1xx rules.
        fail_on: Severity threshold (name or :class:`Severity`).
        config: Optional rule-set configuration.

    Returns:
        The (passing) report, so callers can still inspect warnings.

    Raises:
        LintGateError: When any finding is at or above the threshold;
            the report rides on the exception's ``report`` attribute.
    """
    threshold = (
        Severity.from_name(fail_on) if isinstance(fail_on, str) else fail_on
    )
    with obs.span("lint.gate"):
        report = run_lint(problem, schedule=schedule, config=config)
    blocking = report.at_least(threshold)
    if blocking:
        lines = "\n".join(d.format() for d in blocking)
        raise LintGateError(
            f"lint gate failed at severity >= {threshold.label}: "
            f"{report.summary()}\n{lines}",
            report=report,
        )
    return report
