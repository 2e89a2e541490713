"""Pre-solve static analysis of allocation instances.

A rule-based engine that checks an
:class:`~repro.core.problem.AllocationProblem` — and everything beneath
it: the schedule, the (split) lifetimes, the restricted-memory
configuration, the energy model and the constructed flow network —
*without solving*, emitting structured
:class:`~repro.lint.diagnostics.Diagnostic` records with stable rule
codes:

=======  ==============================================================
family   checks
=======  ==============================================================
RA1xx    schedule consistency (use-before-def, missing/unknown ops,
         nonpositive steps, horizon mismatch)
RA2xx    lifetime anomalies (dead writes, zero-length/inverted
         intervals, past-horizon reads, key mismatches, segment tiling)
RA3xx    section-5.2 restricted memory (forced density vs R, access
         period pathologies, unknown pins)
RA4xx    energy-model sanity (negative energies, evaluation failures,
         voltage/frequency consistency, operating-point mismatches)
RA5xx    network structure (construction failures, inverted arc
         bounds, non-adjacent density-region handoffs, unreachable
         segments, insufficient source capacity)
RA6xx    dataflow analysis and feasibility proofs (time-cut and
         bank-capacity infeasibility certificates, schedule-derived vs
         declared lifetimes, terminal reachability of forced segments,
         arc-cost interval/sign analysis) — diagnostics carry
         machine-checkable ``evidence``
RA9xx    engine-internal (a rule crashed)
=======  ==============================================================

Entry points: :func:`run_lint` for a report (:func:`run_rules` over a
caller-built :class:`LintContext`), :func:`gate_problem` for
the opt-in pre-solve gate (``SolveOptions(lint="error")`` on any
``allocate*`` entry point), text/JSON reporters, and a SARIF 2.1.0
exporter for CI consumption.  One lint run derives each fact once:
the :class:`LintContext` caches the built network and the prover's
certificates, which the RA6xx proof rules share.  The prover is also
callable directly: :func:`prove_infeasible` returns an
:class:`InfeasibilityCertificate` (or ``None``) without ever solving a
flow, and :func:`check_certificate` re-verifies one through an
independent derivation.  The dynamic post-solve counterpart — oracles
that check *solutions* — lives in :mod:`repro.verify`.
"""

from repro.lint.context import Finding, LintContext
from repro.lint.dataflow import Interval, LivenessResult, liveness
from repro.lint.diagnostics import (
    Diagnostic,
    LintReport,
    Location,
    NO_LOCATION,
    Severity,
)
from repro.lint.engine import gate_problem, run_lint, run_rules
from repro.lint.prove import (
    InfeasibilityCertificate,
    check_certificate,
    find_certificates,
    prove_infeasible,
)
from repro.lint.registry import (
    LintConfig,
    Rule,
    all_rules,
    get_rule,
    register,
    rule,
)
from repro.lint.reporters import (
    describe_rules,
    explain_rule,
    render_text,
    report_to_json,
    rules_markdown,
)
from repro.lint.sarif import merge_sarif, sarif_to_json, to_sarif

__all__ = [
    "Diagnostic",
    "Finding",
    "InfeasibilityCertificate",
    "Interval",
    "LintConfig",
    "LintContext",
    "LintReport",
    "LivenessResult",
    "Location",
    "NO_LOCATION",
    "Rule",
    "Severity",
    "all_rules",
    "check_certificate",
    "describe_rules",
    "explain_rule",
    "find_certificates",
    "gate_problem",
    "get_rule",
    "liveness",
    "merge_sarif",
    "prove_infeasible",
    "register",
    "render_text",
    "report_to_json",
    "rule",
    "rules_markdown",
    "run_lint",
    "run_rules",
    "sarif_to_json",
    "to_sarif",
]
