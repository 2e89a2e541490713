"""Parallel batch executor over the cache and the exact allocator.

:class:`BatchExecutor` is the serving engine: jobs are submitted as
:class:`~repro.core.problem.AllocationProblem` instances, deduplicated
through the canonical cache (:mod:`repro.service.canonical` /
:mod:`repro.service.cache`), and the remaining misses are solved — in
process for ``workers == 1``, or fanned out over a
``concurrent.futures.ProcessPoolExecutor`` with configurable chunking.

Each miss is one call to the exact min-cost-flow allocator
(:func:`repro.core.solver.allocate`).  An
:class:`~repro.exceptions.InfeasibleFlowError` settles the job as
``"infeasible"``; any other exception makes it ``"failed"`` with
``"<ExceptionClass>: <message>"`` in its error (the traceback goes to
this module's logger), and a failed job is never cached.  There is no
retry and no fallback solver: the allocator is deterministic, and the
service never swaps in an approximate answer.

Observability: a ``service.batch`` span wraps each gather;
``service.jobs`` / ``service.failures`` and the cache hit/miss counters
accumulate, and the ``service.queue_depth`` gauge tracks outstanding
work while the pool drains.

Timeouts are enforced per dispatched chunk (``timeout * chunk length``
seconds) on the parent side; a chunk that blows its deadline marks its
jobs ``"timeout"`` without sinking the batch.  The in-process path
cannot preempt a running solve, so timeouts require ``workers > 1``.
"""

from __future__ import annotations

import logging
import os
import time
from concurrent.futures import ProcessPoolExecutor, TimeoutError as FutureTimeout
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

from repro.core.options import SolveOptions
from repro.core.problem import AllocationProblem
from repro.core.solver import allocate
from repro.core.storage import StorageSpec
from repro.exceptions import InfeasibleFlowError, ServiceError
from repro.flow.warm_start import WarmStartCache
from repro.obs import trace as obs
from repro.service.cache import ResultCache
from repro.service.canonical import canonicalize
from repro.service.lintgate import LintGate, LintVerdict
from repro.service.solvers import SolveSummary
from repro.workloads.random_blocks import spawn_rng

__all__ = ["BatchExecutor", "JobResult"]

_log = logging.getLogger(__name__)


@dataclass
class JobResult:
    """Outcome of one batch job.

    Attributes:
        job_id: Caller-visible job identifier.
        index: 0-based submission position within the batch.
        key: Canonical cache key of the instance.
        status: ``"ok"``, ``"infeasible"``, ``"failed"``, ``"timeout"``
            or ``"rejected"`` (blocked by the admission lint gate
            before reaching a solver).
        cached: Whether the result was served from the cache.
        solver: Solver (or cached provenance) that produced the result;
            ``None`` unless ``status == "ok"``.
        summary: Full solution summary in the instance's own variable
            names (``None`` unless ``status == "ok"``).
        certified: Whether an optimality certificate was spot-checked.
        wall_time_s: Solve wall time (0 for cache hits).
        worker: PID of the process that solved the job, if any.
        error: Failure message when the job did not succeed.
    """

    job_id: str
    index: int
    key: str
    status: str
    cached: bool = False
    solver: str | None = None
    summary: SolveSummary | None = None
    certified: bool = False
    wall_time_s: float = 0.0
    worker: int | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        """Whether the job produced a solution."""
        return self.status == "ok"

    @property
    def objective(self) -> float | None:
        """Absolute storage energy, when solved."""
        return self.summary.objective if self.summary else None

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready view for the batch report.

        Summaries are flattened to their headline numbers; the full
        residency/address maps stay on the in-memory object only.
        """
        data: dict[str, Any] = {
            "job_id": self.job_id,
            "index": self.index,
            "key": self.key,
            "status": self.status,
            "cached": self.cached,
            "solver": self.solver,
            "certified": self.certified,
            "wall_time_s": self.wall_time_s,
            "worker": self.worker,
            "error": self.error,
        }
        if self.summary is not None:
            data.update(
                {
                    "exact": self.summary.exact,
                    "objective": self.summary.objective,
                    "mem_accesses": self.summary.mem_accesses,
                    "reg_accesses": self.summary.reg_accesses,
                    "registers_used": self.summary.registers_used,
                    "address_count": self.summary.address_count,
                }
            )
        return data


def _execute_job(payload: Mapping[str, Any]) -> dict[str, Any]:
    """Worker entry point: one exact solve for one job.

    Runs in the worker process (or inline for ``workers == 1``); both
    the payload and the returned record are plain picklable data.
    """
    start = time.perf_counter()
    certify = payload["certify"]
    record: dict[str, Any] = {
        "status": "ok",
        "summary": None,
        "certified": False,
        "error": None,
        "worker": os.getpid(),
    }
    options = SolveOptions(certify=certify, warm_cache=payload["warm_cache"])
    try:
        with obs.span("service.solve.ssp"):
            allocation = allocate(payload["problem"], options)
        record["summary"] = SolveSummary.from_allocation(allocation).to_dict()
        record["certified"] = certify
    except InfeasibleFlowError as exc:
        # A property of the instance, not a solver fault.
        record.update(status="infeasible", error=str(exc))
    except Exception as exc:  # noqa: BLE001 - worker boundary: failures
        # become job records, never batch-level crashes.
        _log.exception("solver failed on a batch job")
        record.update(status="failed", error=f"{type(exc).__name__}: {exc}")
    record["wall_time_s"] = time.perf_counter() - start
    return record


def _unsolved_record(status: str, error: str, wall: float) -> dict[str, Any]:
    """The record of a job whose worker never reported back."""
    return {
        "status": status,
        "summary": None,
        "certified": False,
        "error": error,
        "wall_time_s": wall,
        "worker": None,
    }


def _execute_chunk(
    payloads: Sequence[Mapping[str, Any]],
) -> list[dict[str, Any]]:
    """Worker entry point for one chunk of jobs (amortises IPC)."""
    return [_execute_job(payload) for payload in payloads]


class BatchExecutor:
    """High-throughput batch front end of the allocator.

    Usage::

        executor = BatchExecutor(workers=4, cache=ResultCache())
        executor.submit(problem_a, job_id="fir-8")
        executor.submit(problem_b)
        results = executor.gather()          # submission order

    or, in one call, ``executor.map_blocks(problems)``.

    Args:
        workers: Worker processes; 1 solves in-process (no pool).
        cache: Shared :class:`~repro.service.cache.ResultCache`
            (``None`` disables caching entirely).
        timeout: Per-job time budget, seconds (enforced per chunk on the
            pool path; ``None`` disables).
        chunksize: Jobs dispatched per worker task.
        lint_gate: Optional admission-time
            :class:`~repro.service.lintgate.LintGate`.  Every job —
            including result-cache hits — is linted in the parent before
            dispatch; blocking verdicts become ``"rejected"`` results
            that never reach a solver, and all verdicts of the last
            gather are kept on :attr:`lint_verdicts` (submission order)
            for SARIF export.
        certify_fraction: Fraction of jobs (seeded sample) whose
            solutions get an optimality-certificate spot-check.
        seed: Seed of the certify sampler.
        warm_cache: Optional
            :class:`~repro.flow.warm_start.WarmStartCache` kept hot
            across gathers.  Only the in-process path (``workers == 1``)
            uses it — kernel state is not shipped to pool workers — so a
            long-lived single-worker server re-solves cost-only sweeps
            incrementally.  Results are identical with or without.
        storage: Optional :class:`~repro.core.storage.StorageSpec`
            attached to every submitted problem that does not already
            carry a hierarchy.
    """

    def __init__(
        self,
        workers: int = 1,
        cache: ResultCache | None = None,
        timeout: float | None = None,
        chunksize: int = 1,
        lint_gate: LintGate | None = None,
        certify_fraction: float = 0.0,
        seed: int = 0,
        warm_cache: WarmStartCache | None = None,
        storage: StorageSpec | None = None,
    ) -> None:
        if workers < 1:
            raise ServiceError(f"workers must be >= 1, got {workers}")
        if chunksize < 1:
            raise ServiceError(f"chunksize must be >= 1, got {chunksize}")
        if not 0.0 <= certify_fraction <= 1.0:
            raise ServiceError(
                f"certify fraction {certify_fraction} outside [0, 1]"
            )
        if timeout is not None and timeout <= 0:
            raise ServiceError(f"timeout must be positive, got {timeout}")
        self.workers = workers
        self.cache = cache
        self.timeout = timeout
        self.chunksize = chunksize
        self.lint_gate = lint_gate
        self.certify_fraction = certify_fraction
        self.seed = seed
        self.warm_cache = warm_cache
        self.storage = storage
        #: Verdicts of the last :meth:`gather`, in submission order
        #: (empty when no *lint_gate* is configured).
        self.lint_verdicts: list[LintVerdict] = []
        self._pending: list[tuple[int, str, AllocationProblem, Any]] = []
        self._submitted = 0

    def submit(
        self,
        problem: AllocationProblem,
        job_id: str | None = None,
        schedule: Any = None,
    ) -> str:
        """Queue one instance; returns its (possibly generated) job id.

        Args:
            problem: The instance to solve.
            job_id: Caller-visible identifier (generated when omitted).
            schedule: The schedule the lifetimes came from, when the
                caller has one — enables the schedule-aware lint rules
                at the admission gate.
        """
        if job_id is None:
            job_id = f"job-{self._submitted}"
        if self.storage is not None and problem.storage is None:
            problem = problem.with_options(storage=self.storage)
        self._pending.append((self._submitted, job_id, problem, schedule))
        self._submitted += 1
        return job_id

    def map_blocks(
        self,
        problems: Iterable[AllocationProblem],
        ids: Sequence[str] | None = None,
        schedules: Sequence[Any] | None = None,
    ) -> list[JobResult]:
        """Submit every instance and gather; results in input order."""
        for position, problem in enumerate(problems):
            self.submit(
                problem,
                ids[position] if ids is not None else None,
                schedule=(
                    schedules[position] if schedules is not None else None
                ),
            )
        return self.gather()

    def gather(self) -> list[JobResult]:
        """Run all pending jobs; return results in submission order.

        Cache hits are resolved in the parent without touching a worker;
        misses are solved (and, when successful, inserted into the
        cache).  Never raises for job-level failures — inspect each
        :class:`JobResult`.
        """
        pending, self._pending = self._pending, []
        results: dict[int, JobResult] = {}
        misses: list[tuple[int, str, AllocationProblem, Any]] = []
        self.lint_verdicts = []
        with obs.span("service.batch"):
            with obs.span("service.canonicalize"):
                canonicals = [
                    (index, job_id, problem, canonicalize(problem), schedule)
                    for index, job_id, problem, schedule in pending
                ]
            rejected: set[int] = set()
            if self.lint_gate is not None:
                with obs.span("service.lint_gate"):
                    # Every job is gated — result-cache hits included —
                    # so the verdict list (and any SARIF export) covers
                    # the whole batch, not just the solved remainder.
                    for index, job_id, problem, canonical, sched in canonicals:
                        verdict = self.lint_gate.check(
                            problem,
                            schedule=sched,
                            label=job_id,
                            canonical=canonical,
                        )
                        self.lint_verdicts.append(verdict)
                        if verdict.blocking:
                            rejected.add(index)
                            results[index] = JobResult(
                                job_id=job_id,
                                index=index,
                                key=canonical.key,
                                status="rejected",
                                error=verdict.report.summary(),
                            )
            for index, job_id, problem, canonical, _ in canonicals:
                if index in rejected:
                    continue
                entry = (
                    self.cache.get(canonical.key)
                    if self.cache is not None
                    else None
                )
                if entry is not None:
                    results[index] = JobResult(
                        job_id=job_id,
                        index=index,
                        key=canonical.key,
                        status="ok",
                        cached=True,
                        solver=entry.solver,
                        summary=SolveSummary.from_cached(entry, canonical),
                    )
                else:
                    misses.append((index, job_id, problem, canonical))

            # The warm-start kernel state is process-local (numpy arrays
            # + CSR views); it rides along only on the inline path.
            warm_cache = self.warm_cache if self.workers == 1 else None
            payloads = [
                (
                    index,
                    {
                        "problem": problem,
                        "certify": self._certify(job_id),
                        "warm_cache": warm_cache,
                    },
                )
                for index, job_id, problem, _ in misses
            ]
            if payloads:
                if self.workers == 1:
                    records = self._run_inline(payloads)
                else:
                    records = self._run_pool(payloads)
            else:
                records = {}

            by_index = {
                index: (job_id, canonical)
                for index, job_id, _, canonical in misses
            }
            for index, record in records.items():
                job_id, canonical = by_index[index]
                result = self._to_result(index, job_id, canonical, record)
                results[index] = result
                if (
                    result.ok
                    and self.cache is not None
                    and result.summary is not None
                ):
                    self.cache.put(result.summary.to_cached(canonical))

            obs.count("service.jobs", len(pending))
            failures = sum(
                1 for result in results.values() if not result.ok
            )
            if failures:
                obs.count("service.failures", failures)
            if rejected:
                obs.count("service.lint.rejected_jobs", len(rejected))
        return [results[index] for index, _, _, _ in pending]

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _certify(self, job_id: str) -> bool:
        """Seeded per-job spot-check decision."""
        if self.certify_fraction <= 0.0:
            return False
        if self.certify_fraction >= 1.0:
            return True
        rng = spawn_rng(self.seed, "certify", job_id)
        return rng.random() < self.certify_fraction

    def _run_inline(
        self, payloads: list[tuple[int, dict]]
    ) -> dict[int, dict]:
        """Solve misses in-process (``workers == 1``)."""
        records: dict[int, dict] = {}
        remaining = len(payloads)
        for index, payload in payloads:
            obs.gauge("service.queue_depth", remaining)
            records[index] = _execute_job(payload)
            remaining -= 1
        obs.gauge("service.queue_depth", 0)
        return records

    def _run_pool(
        self, payloads: list[tuple[int, dict]]
    ) -> dict[int, dict]:
        """Fan misses out over a process pool, chunked, with deadlines."""
        records: dict[int, dict] = {}
        chunks = [
            payloads[start:start + self.chunksize]
            for start in range(0, len(payloads), self.chunksize)
        ]
        remaining = len(payloads)
        obs.gauge("service.queue_depth", remaining)
        with ProcessPoolExecutor(max_workers=self.workers) as pool:
            futures = [
                (chunk, pool.submit(
                    _execute_chunk, [payload for _, payload in chunk]
                ))
                for chunk in chunks
            ]
            for chunk, future in futures:
                deadline = (
                    self.timeout * len(chunk)
                    if self.timeout is not None
                    else None
                )
                try:
                    chunk_records = future.result(timeout=deadline)
                except FutureTimeout:
                    future.cancel()
                    for index, _ in chunk:
                        records[index] = _unsolved_record(
                            "timeout",
                            f"chunk exceeded its {deadline:.3f}s deadline",
                            deadline or 0.0,
                        )
                except Exception as exc:  # noqa: BLE001 - pool failures
                    # (e.g. BrokenProcessPool) degrade to job failures.
                    for index, _ in chunk:
                        records[index] = _unsolved_record(
                            "failed", f"{type(exc).__name__}: {exc}", 0.0
                        )
                else:
                    for (index, _), record in zip(chunk, chunk_records):
                        records[index] = record
                remaining -= len(chunk)
                obs.gauge("service.queue_depth", remaining)
        return records

    def _to_result(
        self, index: int, job_id: str, canonical, record: Mapping[str, Any]
    ) -> JobResult:
        """Build a :class:`JobResult` from a worker record."""
        summary = None
        if record.get("summary") is not None:
            summary = SolveSummary.from_dict(record["summary"])
        return JobResult(
            job_id=job_id,
            index=index,
            key=canonical.key,
            status=str(record.get("status", "failed")),
            cached=False,
            solver=summary.solver if summary else None,
            summary=summary,
            certified=bool(record.get("certified", False)),
            wall_time_s=float(record.get("wall_time_s", 0.0)),
            worker=record.get("worker"),
            error=record.get("error"),
        )
