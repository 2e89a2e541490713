"""Admission-time lint gating with cached SARIF-ready verdicts.

The serving path runs the static analyser (:mod:`repro.lint`) over every
job *before* it reaches the solver queue: a manifest that is provably
bad — an RA6xx infeasibility certificate, a schedule/lifetime
disagreement, a broken cost model — is rejected up front with the full
diagnostic report instead of burning a solver slot to rediscover the
problem the hard way.

Every check runs the default rule set over a
:class:`~repro.lint.LintContext` it builds itself
(:func:`~repro.lint.run_rules`), so the flow network the analysis
constructed can be handed back to the caller's solve.  Verdicts are
cached in the shared :class:`~repro.service.cache` store under the
instance's canonical sha256 digest, with two twists:
the canonical form is name-free and captures lifetimes but not the
schedule they came from, while a report names variables and the
schedule-aware rules (RA1xx, RA602) analyse the schedule.  A verdict
therefore stores a **schedule fingerprint** (sha256 over the scheduled
operations; empty for schedule-less instances) and a **naming** digest
(the instance's variable names in canonical order), and a lookup that
differs in either is a miss.  Without this, two manifests with
isomorphic lifetimes but different schedules or variable names would
share a verdict and one of them would be wrong.

Counters: ``service.lint.checked`` / ``service.lint.blocked`` per job,
plus the cache's ``service.lint.cache_hit`` / ``service.lint.cache_miss``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.lint import LintContext, LintReport, Severity, run_rules
from repro.obs import trace as obs
from repro.service.cache import CachedLint, ResultCache
from repro.service.canonical import canonicalize

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.network_builder import BuiltNetwork
    from repro.core.problem import AllocationProblem
    from repro.scheduling.schedule import Schedule
    from repro.service.canonical import CanonicalInstance

__all__ = ["LintGate", "LintVerdict", "schedule_fingerprint"]


def schedule_fingerprint(schedule: "Schedule | None") -> str:
    """Stable digest of a schedule's operations (empty when ``None``).

    Two schedules fingerprint equally iff they place the same operations
    (name, inputs, output, delay) at the same steps — exactly the facts
    the schedule-aware lint rules consume.
    """
    if schedule is None:
        return ""
    ops = sorted(
        (
            op.name,
            tuple(op.inputs),
            op.output,
            op.delay,
            schedule.read_step(op),
            schedule.write_step(op),
        )
        for op in schedule.block
    )
    payload = json.dumps(
        [list(map(_plain, row)) for row in ops], sort_keys=False
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _plain(value: Any) -> Any:
    return list(value) if isinstance(value, tuple) else value


def _naming(canonical: "CanonicalInstance") -> str:
    """Digest of which variable name plays which canonical role."""
    payload = json.dumps(list(canonical.renaming))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class LintVerdict:
    """The admission gate's decision for one job.

    Attributes:
        label: The job's display label.
        key: Canonical cache key of the instance.
        fingerprint: Schedule fingerprint the verdict was computed for.
        naming: Digest of the variable names the verdict was computed
            for.
        report: The full lint report.
        blocking: Whether findings reach the gate's severity threshold
            (the job must not be solved).
        cached: Whether the verdict was served from the lint cache.
    """

    label: str
    key: str
    fingerprint: str
    naming: str
    report: LintReport
    blocking: bool
    cached: bool = False

    def run_properties(self) -> dict[str, Any]:
        """SARIF run property bag attributing this verdict to its job."""
        return {
            "job": self.label,
            "digest": self.key,
            "scheduleFingerprint": self.fingerprint or None,
            "blocking": self.blocking,
            "cached": self.cached,
        }


class LintGate:
    """Reusable admission gate: lint, cache, and classify jobs.

    Args:
        cache: Shared result cache whose lint layer stores verdicts
            (``None`` disables caching; every check re-analyses).
        fail_on: Severity threshold at which a verdict blocks the job.
            Parsed leniently — unknown names fail *closed* to ``error``
            (see :meth:`repro.lint.Severity.coerce`) — and ``"never"``
            disables blocking while still producing reports.
    """

    def __init__(
        self,
        cache: ResultCache | None = None,
        fail_on: "str | Severity" = Severity.ERROR,
    ) -> None:
        self.cache = cache
        self.never = isinstance(fail_on, str) and fail_on == "never"
        self.threshold = (
            Severity.ERROR if self.never else Severity.coerce(fail_on)
        )

    def check(
        self,
        problem: "AllocationProblem",
        schedule: "Schedule | None" = None,
        label: str = "",
        canonical: "CanonicalInstance | None" = None,
    ) -> "tuple[LintVerdict, BuiltNetwork | None]":
        """Lint one job (through the verdict cache) and classify it.

        Args:
            problem: The instance about to be admitted.
            schedule: Its schedule, when the job kind has one (enables
                the schedule-aware rules and keys the fingerprint).
            label: Display label used in reports.
            canonical: Pre-computed canonical form, when the caller
                already paid for it (the executor canonicalizes every
                job anyway); computed here otherwise.

        Returns:
            ``(verdict, network)``: *network* is the flow network the
            analysis built for *problem*, which the caller may solve
            instead of building it again — ``None`` on a verdict-cache
            hit or when the build failed.  Neither the gate nor its
            cache keeps it.
        """
        if canonical is None:
            canonical = canonicalize(problem)
        fingerprint = schedule_fingerprint(schedule)
        naming = _naming(canonical)
        report: LintReport | None = None
        network: "BuiltNetwork | None" = None
        cached = False
        if self.cache is not None:
            entry = self.cache.get_lint(canonical.key, fingerprint, naming)
            if entry is not None:
                try:
                    report = LintReport.from_dict(dict(entry.report))
                    cached = True
                except Exception:
                    report = None  # corrupt verdict: re-analyse
        if report is None:
            context = LintContext(problem, schedule=schedule)
            report = run_rules(context)
            network = context.built
            if self.cache is not None:
                self.cache.put_lint(
                    CachedLint(
                        key=canonical.key,
                        fingerprint=fingerprint,
                        naming=naming,
                        report=report.to_dict(),
                    )
                )
        blocking = (
            not self.never and bool(report.at_least(self.threshold))
        )
        obs.count("service.lint.checked")
        if blocking:
            obs.count("service.lint.blocked")
        verdict = LintVerdict(
            label=label,
            key=canonical.key,
            fingerprint=fingerprint,
            naming=naming,
            report=report,
            blocking=blocking,
            cached=cached,
        )
        return verdict, network
