"""Batch reports: the versioned output document of a service run.

:func:`build_batch_report` folds a list of
:class:`~repro.service.executor.JobResult` into the
``repro.service/batch-report/v1`` document: per-job records plus batch
totals (status counts, cache hit rate, certified solves, per-solver
provenance counts, wall times).  :func:`report_to_json` and
:func:`render_batch_text` are the two output formats of the
``repro-alloc batch`` subcommand; the CI batch-smoke job parses the JSON
form to assert its cache-hit-rate floor.
"""

from __future__ import annotations

import json
from typing import Any, Mapping, Sequence

from repro.service.cache import ResultCache
from repro.service.executor import JobResult

__all__ = ["REPORT_SCHEMA", "build_batch_report", "render_batch_text", "report_to_json"]

#: Schema identifier of a batch report document.
REPORT_SCHEMA = "repro.service/batch-report/v1"


def build_batch_report(
    results: Sequence[JobResult],
    cache: ResultCache | None = None,
    wall_time_s: float = 0.0,
    workers: int = 1,
    manifest: str | None = None,
) -> dict[str, Any]:
    """Fold job results into a ``repro.service/batch-report/v1`` dict.

    Args:
        results: Gathered job results, in submission order.
        cache: The batch's result cache, for hit/miss statistics.
        wall_time_s: End-to-end batch wall time.
        workers: Worker processes the batch ran with.
        manifest: Manifest path or label, for provenance.
    """
    statuses = {
        "ok": 0,
        "failed": 0,
        "infeasible": 0,
        "timeout": 0,
        "rejected": 0,
    }
    by_solver: dict[str, int] = {}
    certified = 0
    cached = 0
    solve_wall = 0.0
    for result in results:
        statuses[result.status] = statuses.get(result.status, 0) + 1
        if result.cached:
            cached += 1
        if result.solver is not None:
            by_solver[result.solver] = by_solver.get(result.solver, 0) + 1
        certified += result.certified
        solve_wall += result.wall_time_s
    totals: dict[str, Any] = {
        "jobs": len(results),
        **statuses,
        "cached": cached,
        "solved": len(results) - cached,
        "certified": certified,
        "by_solver": dict(sorted(by_solver.items())),
        "solve_wall_s": round(solve_wall, 6),
    }
    if cache is not None:
        totals["cache"] = cache.stats()
    return {
        "schema": REPORT_SCHEMA,
        "manifest": manifest,
        "workers": workers,
        "wall_time_s": round(wall_time_s, 6),
        "totals": totals,
        "jobs": [result.to_dict() for result in results],
    }


def report_to_json(report: Mapping[str, Any], indent: int = 2) -> str:
    """Serialise a batch report to JSON text (trailing newline)."""
    return json.dumps(report, indent=indent, sort_keys=True) + "\n"


def render_batch_text(report: Mapping[str, Any]) -> str:
    """Human-readable one-screen summary of a batch report."""
    totals = report["totals"]
    lines = [
        f"batch report ({report['schema']})",
        f"  manifest: {report.get('manifest') or '-'}",
        f"  workers:  {report['workers']}  "
        f"wall: {report['wall_time_s']:.3f}s  "
        f"(solve {totals['solve_wall_s']:.3f}s)",
        f"  jobs:     {totals['jobs']}  ok {totals['ok']}  "
        f"failed {totals['failed']}  infeasible {totals['infeasible']}  "
        f"timeout {totals['timeout']}  "
        f"rejected {totals.get('rejected', 0)}",
        f"  cache:    {totals['cached']} served / "
        f"{totals['solved']} solved",
    ]
    if "cache" in totals:
        stats = totals["cache"]
        lines.append(
            f"            lookups {stats['hits']} hit / "
            f"{stats['misses']} miss "
            f"(rate {stats['hit_rate']:.2%})"
        )
    solvers = "  ".join(
        f"{name}:{count}" for name, count in totals["by_solver"].items()
    )
    lines.append(
        f"  solvers:  {solvers or '-'}  certified {totals['certified']}"
    )
    width = max(
        [len(str(job["job_id"])) for job in report["jobs"]] or [3]
    )
    for job in report["jobs"]:
        origin = "cache" if job["cached"] else (job["solver"] or "-")
        energy = (
            f"{job['objective']:.2f}"
            if job.get("objective") is not None
            else "-"
        )
        line = (
            f"  {str(job['job_id']).ljust(width)}  "
            f"{job['status']:<10}  E={energy:<10}  via {origin}"
        )
        if job.get("error"):
            line += f"  ({job['error']})"
        lines.append(line)
    return "\n".join(lines) + "\n"
