"""Parallel batch executor over the cache and the exact allocator.

:class:`BatchExecutor` is the serving engine: jobs are submitted as
:class:`~repro.core.problem.AllocationProblem` instances, deduplicated
through the canonical cache (:mod:`repro.service.canonical` /
:mod:`repro.service.cache`), and the remaining misses are solved — in
process for ``workers == 1``, or on the process's long-lived pool of
forked workers (:mod:`repro.service.pool`) otherwise.  The first pooled
gather starts that pool, each gather resizes it to its ``workers``, and
every later executor in the process (each ``serve`` request, each
``dag --workers N`` dispatch) reuses it.

A gather's misses go to the exact min-cost-flow allocator in one call,
:func:`repro.core.solver.allocate_many`, which solves the plain ones'
flows in lockstep and gives every job the answer it gets alone.  On the
pool, the misses are split into one contiguous chunk per worker and each
worker makes that call on its chunk.  An
:class:`~repro.exceptions.InfeasibleFlowError` settles the job as
``"infeasible"``; any other exception makes it ``"failed"`` with
``"<ExceptionClass>: <message>"`` in its error (the traceback goes to
this module's logger), and a failed job is never cached.  A fault in a
shared lockstep solve is retried job by job, so it fails only its own
job.  There is no fallback solver: the allocator is deterministic, and
the service never swaps in an approximate answer.  A job's
``wall_time_s`` is its own build, check and extraction time plus an
equal share of its group's solve.

Each cache miss is dispatched as an unsettled :class:`JobResult`; the
worker settles it and sends it back, so the parent receives the very
record the report prints.

Observability: a ``service.batch`` span wraps each gather;
``service.jobs`` / ``service.failures`` and the cache hit/miss counters
accumulate, ``service.solver_error`` counts the jobs settled
``"failed"`` (solver faults, as opposed to infeasible, rejected or
timed-out jobs), the ``service.queue_depth`` gauge tracks outstanding
work while the pool drains, and ``service.pool.replaced`` counts the
workers killed or found dead and replaced.

Deadlines hold on the pool.  A chunk's deadline is ``timeout`` times its
length, from dispatch.  A worker still busy at its chunk's deadline is
killed and replaced, and so is one that dies mid-chunk.  The jobs of
such a lost chunk of two or more are sent again one job per chunk, each
with deadline ``timeout`` — the rule ``allocate_many`` applies to a
faulting lockstep group — so of a lost chunk's jobs only one that is
late on its own ends ``"timeout"``, and only one that kills its worker
on its own ends ``"failed"``.  The in-process path cannot preempt a
running solve, so timeouts require ``workers > 1``.
"""

from __future__ import annotations

import logging
import os
import time
from dataclasses import dataclass, replace
from typing import Any, Iterable, Sequence

from repro.core.network_builder import BuiltNetwork
from repro.core.options import SolveOptions
from repro.core.problem import AllocationProblem
from repro.core.solver import Outcome, allocate_many
from repro.core.storage import StorageSpec
from repro.exceptions import InfeasibleFlowError, ServiceError
from repro.flow.warm_start import WarmStartCache
from repro.obs import trace as obs
from repro.service import pool
from repro.service.cache import ResultCache, SolveSummary
from repro.service.canonical import CanonicalInstance, canonicalize
from repro.service.lintgate import LintGate, LintVerdict
from repro.workloads.random_blocks import spawn_rng

__all__ = ["BatchExecutor", "JobResult"]

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class _Pending:
    """One submitted job awaiting :meth:`BatchExecutor.gather`."""

    index: int
    job_id: str
    problem: AllocationProblem
    schedule: Any
    canonical: CanonicalInstance | None
    network: BuiltNetwork | None


@dataclass
class JobResult:
    """Outcome of one batch job.

    Attributes:
        job_id: Caller-visible job identifier.
        index: 0-based submission position within the batch.
        key: Canonical cache key of the instance.
        status: ``"ok"``, ``"infeasible"``, ``"failed"``, ``"timeout"``
            or ``"rejected"`` (blocked by the admission lint gate
            before reaching a solver); ``"pending"`` only while a job
            waits for a solver, never in a gathered result.
        cached: Whether the result was served from the cache.
        summary: Full solution summary in the instance's own variable
            names (``None`` unless ``status == "ok"``).
        certified: Whether an optimality certificate was spot-checked.
        wall_time_s: Solve wall time (0 for cache hits).
        worker: PID of the process that solved the job, or of the pool
            worker lost with it (killed late, or dead); ``None`` if none.
        error: Failure message when the job did not succeed.
    """

    job_id: str
    index: int
    key: str
    status: str
    cached: bool = False
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
    def solver(self) -> str | None:
        """Solver (or cached provenance) that produced the result."""
        return self.summary.solver if self.summary else None

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


def _execute_chunk(tasks: Sequence[tuple]) -> list[JobResult]:
    """Worker entry point: settle a chunk of pending jobs in one
    :func:`~repro.core.solver.allocate_many` call.

    Each task is ``(job, problem, certify, warm_cache, network)``, where
    *network* is the instance's already-built flow network (inline path
    only).  Each outcome is reduced to its :class:`JobResult` as soon as
    it settles, so only one lockstep group's networks and flows are
    alive at a time.  Runs in the worker process (or inline for
    ``workers == 1``); the arguments and the returned results are
    picklable.
    """
    start = time.perf_counter()
    worker = os.getpid()
    settled: list[JobResult | None] = [None] * len(tasks)
    try:
        with obs.span("service.solve.ssp"):
            for index, outcome in allocate_many(
                [problem for _, problem, *_ in tasks],
                [
                    SolveOptions(certify=certify, warm_cache=warm_cache)
                    for _, _, certify, warm_cache, _ in tasks
                ],
                networks=[network for *_, network in tasks],
            ):
                job, _, certify, *_ = tasks[index]
                settled[index] = _settle(job, outcome, certify, worker)
    except Exception as exc:  # noqa: BLE001 - worker boundary: failures
        # become job results, never batch-level crashes.
        _log.exception("batch solve failed")
        left = [index for index, done in enumerate(settled) if done is None]
        share = (time.perf_counter() - start) / max(len(left), 1)
        for index in left:
            job, _, certify, *_ = tasks[index]
            settled[index] = _settle(job, Outcome(exc, share), certify, worker)
    return settled  # type: ignore[return-value]


def _settle(
    job: JobResult, outcome: Outcome, certify: bool, worker: int
) -> JobResult:
    """The settled form of pending *job* given its solve *outcome*."""
    result = outcome.result
    if not isinstance(result, Exception):
        try:
            summary = SolveSummary.from_allocation(result, job.key)
        except Exception as exc:  # noqa: BLE001 - worker boundary
            result = exc
        else:
            job = replace(
                job, status="ok", summary=summary, certified=certify
            )
    if isinstance(result, InfeasibleFlowError):
        # A property of the instance, not a solver fault.
        job = replace(job, status="infeasible", error=str(result))
    elif isinstance(result, Exception):
        _log.error("solver failed on a batch job", exc_info=result)
        job = replace(
            job, status="failed", error=f"{type(result).__name__}: {result}"
        )
    return replace(job, wall_time_s=outcome.wall_time_s, worker=worker)


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
            More run the misses on the process's shared
            :mod:`~repro.service.pool`, one contiguous chunk per worker.
        cache: Shared :class:`~repro.service.cache.ResultCache`
            (``None`` disables caching entirely).
        timeout: Per-job time budget, seconds; a pool chunk's deadline
            is ``timeout`` times its length, and a late worker is killed
            (``None`` disables; the inline path cannot enforce it).
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
        lint_gate: LintGate | None = None,
        certify_fraction: float = 0.0,
        seed: int = 0,
        warm_cache: WarmStartCache | None = None,
        storage: StorageSpec | None = None,
    ) -> None:
        if workers < 1:
            raise ServiceError(f"workers must be >= 1, got {workers}")
        if not 0.0 <= certify_fraction <= 1.0:
            raise ServiceError(
                f"certify fraction {certify_fraction} outside [0, 1]"
            )
        if timeout is not None and timeout <= 0:
            raise ServiceError(f"timeout must be positive, got {timeout}")
        self.workers = workers
        self.cache = cache
        self.timeout = timeout
        self.lint_gate = lint_gate
        self.certify_fraction = certify_fraction
        self.seed = seed
        self.warm_cache = warm_cache
        self.storage = storage
        #: Verdicts of the last :meth:`gather`, in submission order
        #: (empty when no *lint_gate* is configured).
        self.lint_verdicts: list[LintVerdict] = []
        self._pending: list[_Pending] = []
        self._submitted = 0

    def submit(
        self,
        problem: AllocationProblem,
        job_id: str | None = None,
        schedule: Any = None,
        *,
        canonical: CanonicalInstance | None = None,
        network: BuiltNetwork | None = None,
    ) -> str:
        """Queue one instance; returns its (possibly generated) job id.

        Args:
            problem: The instance to solve.
            job_id: Caller-visible identifier (generated when omitted).
            schedule: The schedule the lifetimes came from, when the
                caller has one — enables the schedule-aware lint rules
                at the admission gate.
            canonical: *problem*'s canonical form, when the caller
                already computed it (computed at gather time otherwise).
            network: *problem*'s flow network, when the caller already
                built it; the in-process solve uses it instead of
                building another (pool workers build their own).
        """
        if job_id is None:
            job_id = f"job-{self._submitted}"
        if self.storage is not None and problem.storage is None:
            # A different problem: what the caller derived no longer
            # describes it.
            problem = problem.with_options(storage=self.storage)
            canonical = network = None
        self._pending.append(
            _Pending(
                self._submitted, job_id, problem, schedule, canonical, network
            )
        )
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
        self.lint_verdicts = []
        with obs.span("service.batch"):
            with obs.span("service.canonicalize"):
                canonicals = [
                    canonicalize(item.problem)
                    if item.canonical is None
                    else item.canonical
                    for item in pending
                ]
            rejected: set[int] = set()
            if self.lint_gate is not None:
                with obs.span("service.lint_gate"):
                    # Every job is gated — result-cache hits included —
                    # so the verdict list (and any SARIF export) covers
                    # the whole batch, not just the solved remainder.
                    # The gate's networks are dropped: holding one per
                    # job until the solve pass would grow peak memory.
                    for item, canonical in zip(pending, canonicals):
                        verdict, _ = self.lint_gate.check(
                            item.problem,
                            schedule=item.schedule,
                            label=item.job_id,
                            canonical=canonical,
                        )
                        self.lint_verdicts.append(verdict)
                        if verdict.blocking:
                            rejected.add(item.index)
                            results[item.index] = JobResult(
                                job_id=item.job_id,
                                index=item.index,
                                key=canonical.key,
                                status="rejected",
                                error=verdict.report.summary(),
                            )
            # The warm-start kernel state and prebuilt networks are
            # process-local (numpy arrays + CSR views); they ride along
            # only on the inline path.
            inline = self.workers == 1
            warm_cache = self.warm_cache if inline else None
            tasks = []
            renamings = {}
            for item, canonical in zip(pending, canonicals):
                if item.index in rejected:
                    continue
                job = JobResult(
                    item.job_id, item.index, canonical.key, "pending"
                )
                entry = (
                    self.cache.get(canonical.key)
                    if self.cache is not None
                    else None
                )
                if entry is not None:
                    results[item.index] = replace(
                        job,
                        status="ok",
                        cached=True,
                        summary=entry.remap(canonical.inverse()),
                    )
                else:
                    certify = self._certify(item.job_id)
                    network = item.network if inline else None
                    tasks.append(
                        (job, item.problem, certify, warm_cache, network)
                    )
                    renamings[item.index] = canonical.renaming

            run = self._run_inline if self.workers == 1 else self._run_pool
            for result in run(tasks) if tasks else ():
                results[result.index] = result
                if result.summary is not None and self.cache is not None:
                    self.cache.put(
                        result.summary.remap(renamings[result.index])
                    )

            obs.count("service.jobs", len(pending))
            failures = sum(
                1 for result in results.values() if not result.ok
            )
            if failures:
                obs.count("service.failures", failures)
            solver_errors = sum(
                1 for result in results.values() if result.status == "failed"
            )
            if solver_errors:
                obs.count("service.solver_error", solver_errors)
            if rejected:
                obs.count("service.lint.rejected_jobs", len(rejected))
        return [results[item.index] for item in pending]

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

    def _run_inline(self, tasks: list[tuple]) -> list[JobResult]:
        """Solve misses in-process (``workers == 1``), all in one call."""
        obs.gauge("service.queue_depth", len(tasks))
        solved = _execute_chunk(tasks)
        obs.gauge("service.queue_depth", 0)
        return solved

    def _run_pool(self, tasks: list[tuple]) -> list[JobResult]:
        """Solve misses on the process's worker pool: one contiguous
        chunk per worker, then each job of a lost chunk on its own."""
        workers = pool.shared(self.workers)
        count = min(self.workers, len(tasks))
        bounds = [len(tasks) * part // count for part in range(count + 1)]
        chunks = [tasks[a:b] for a, b in zip(bounds, bounds[1:])]
        solved: list[JobResult] = []
        obs.gauge("service.queue_depth", len(tasks))
        while chunks:
            replies = workers.run(
                _execute_chunk, chunks, [self._deadline(c) for c in chunks]
            )
            retry = []
            for chunk, reply in zip(chunks, replies):
                if not isinstance(reply, Exception):
                    solved.extend(reply)
                elif len(chunk) > 1:
                    retry.extend([task] for task in chunk)
                else:
                    solved.append(self._lost(chunk, reply))
            chunks = retry
            obs.gauge("service.queue_depth", len(chunks))
        return solved

    def _deadline(self, chunk: list[tuple]) -> float | None:
        """Seconds *chunk* may run on a worker, from its dispatch."""
        return self.timeout * len(chunk) if self.timeout is not None else None

    def _lost(self, chunk: list[tuple], reply: Exception) -> JobResult:
        """The settled form of a one-job *chunk* that got no result."""
        job = chunk[0][0]
        pid = reply.pid if isinstance(reply, pool.WorkerLost) else None
        if isinstance(reply, pool.WorkerLost) and reply.late:
            deadline = self._deadline(chunk) or 0.0
            return replace(
                job,
                status="timeout",
                error=f"exceeded its {deadline:.3f}s deadline; "
                f"worker {pid} was killed",
                wall_time_s=deadline,
                worker=pid,
            )
        return replace(
            job,
            status="failed",
            error=f"{type(reply).__name__}: {reply}",
            worker=pid,
        )
