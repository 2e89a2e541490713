"""Long-lived allocation server: a zero-dependency asyncio HTTP gateway.

``repro-alloc serve`` turns the one-shot batch machinery
(:mod:`repro.service.executor`) into a streaming front end.  A single
asyncio event loop accepts HTTP/1.1 connections, admission-controls
every submission (:mod:`repro.service.admission`), and a dispatcher
task feeds admitted requests — one at a time, round-robin across
clients — through a :class:`~repro.service.executor.BatchExecutor`
running in a worker thread, so the loop stays responsive (``/healthz``
answers mid-solve) while the solve itself may still fan out over worker
processes.

Why long-lived matters: the server keeps its result cache, its
counters and its pool across the whole request stream —

* the result cache (:class:`~repro.service.cache.ResultCache`), on
  disk with ``--cache-dir`` in the same layout ``repro-alloc batch``
  uses: repeated or rename-isomorphic instances are answered without
  solving;
* a process-global :class:`~repro.obs.trace.CounterCollector`, exported
  by ``/metrics``, so solve and failure counts and shed totals are
  observable without restarting anything; it keeps counters and
  gauges only, never span trees, so it does not grow with the stream;
* with ``workers > 1``, the process's pool of forked workers
  (:mod:`repro.service.pool`): the first request forks it, every later
  one reuses it, a worker past its chunk's deadline is killed and
  replaced, and :meth:`AllocationServer.close` stops it after the
  drain.

A request's cache misses are solved as ``repro-alloc batch`` solves
them: in one :func:`~repro.core.solver.allocate_many` call, in process
or one chunk per pool worker, sharing lockstep kernels.

Protocol (HTTP/1.1, ``Connection: close``):

* ``GET /healthz`` — liveness: ``{"status": "ok" | "draining", ...}``.
  Never queued, so it answers even under full overload.
* ``GET /metrics`` — counters/gauges plus admission, cache and server
  stats as JSON (``repro.service/metrics/v1``); append ``?format=text``
  for a Prometheus-style exposition.
* ``POST /v1/batch`` — body is a ``repro.service/manifest/v1`` document
  (same format the batch CLI reads from disk); the response is the
  ``repro.service/batch-report/v1`` JSON for the whole request.
* ``POST /v1/lint`` — same manifest body, but only the static analyser
  runs: the response is a merged SARIF 2.1.0 log with one run per job,
  and nothing is queued or solved.  The job bound below applies here
  too.

Every ``/v1/batch`` manifest is built and canonicalized *before*
``admission.admit``, so a job with bad parameters is answered ``400``
without occupying a queue slot.  Admission-time lint gating: unless
``ServerConfig.admission_lint`` is ``None``, every job is also linted
there — a provably-bad manifest (an RA6xx infeasibility certificate, a
schedule/lifetime disagreement, ...) is rejected with ``422
Unprocessable Entity`` and a SARIF body carrying the machine-checkable
evidence, without ever occupying a queue slot or a solver.  Verdicts
are cached by canonical digest, schedule fingerprint and variable
naming (:mod:`repro.service.lintgate`), so re-posting a manifest
re-uses its verdicts (``service.lint.cache_hit``); rejections
accumulate on ``service.lint.rejected_requests``.  An admitted job is
canonicalized once and its network built once: the executor reuses the
canonical form, and the in-process solve runs on the network the gate's
analysis built.

Backpressure is explicit, never silent: a request carrying more jobs
than the whole admission queue holds can never be admitted and is
answered ``413`` before anything is built or linted (on ``/v1/lint``
as on ``/v1/batch``); one that would
overflow the queue now, exceed its client's token-bucket rate, or
arrive while draining is answered ``503`` with a ``Retry-After`` header
and a JSON body naming the shed reason — and counted on
``service.shed`` / ``service.shed.<reason>``.  ``SIGTERM`` (or
:meth:`AllocationServer.drain`) stops admission, finishes every queued
and in-flight job, then closes the listener — no accepted job is ever
abandoned.
"""

from __future__ import annotations

import asyncio
import json
import math
import signal
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping
from urllib.parse import parse_qs

from repro.exceptions import ServiceError
from repro.obs import trace as obs
from repro.lint.sarif import merge_sarif
from repro.obs.export import counter_group, metrics_text
from repro.service import pool
from repro.service.admission import AdmissionController
from repro.service.cache import ResultCache
from repro.service.canonical import CanonicalInstance, canonicalize
from repro.service.executor import BatchExecutor
from repro.service.lintgate import LintGate, LintVerdict
from repro.service.manifest import BuiltWorkload, Manifest, parse_manifest
from repro.service.report import build_batch_report

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.network_builder import BuiltNetwork

__all__ = ["AllocationServer", "ServerConfig", "serve"]

#: Schema identifier of the ``/metrics`` JSON document.
METRICS_SCHEMA = "repro.service/metrics/v1"

#: Seconds a connection may take to deliver its request head and body.
_READ_TIMEOUT_S = 30.0


@dataclass
class ServerConfig:
    """Tunables of one server process.

    Attributes:
        host: Listen address.
        port: Listen port (0 picks a free one; the bound port is on
            :attr:`AllocationServer.port` after start).
        queue_capacity: Admission queue bound, in *jobs* (a batch
            request occupies one slot per manifest job).
        rate: Per-client sustained admission rate in jobs/second
            (``None`` disables rate limiting).
        burst: Per-client burst allowance (defaults to ``max(rate, 1)``).
        workers: Executor worker processes; 1 solves in-process.  More
            run every request on one pool of forked workers that the
            server owns for its lifetime (:mod:`repro.service.pool`).
        cache_dir: Directory of the on-disk result store, shared with
            ``repro-alloc batch --cache-dir`` (``None`` = in-memory
            result cache only).
        cache_capacity: In-memory LRU entries of the result cache.
        timeout: Per-job solve budget in seconds (pool mode only): a
            worker still solving past its chunk's deadline is killed
            and replaced, and only the late job ends ``"timeout"``.
        admission_lint: Severity threshold of the admission-time lint
            gate (``"error"``, ``"warning"``, ``"note"``; unknown names
            fail closed to ``"error"``).  ``"never"`` lints — verdicts
            still cache and export — without ever rejecting; ``None``
            disables the gate entirely.
        drain_grace: Maximum seconds :meth:`AllocationServer.drain`
            waits for queued + in-flight work before closing anyway.
        max_body_bytes: Largest accepted request body.
    """

    host: str = "127.0.0.1"
    port: int = 8713
    queue_capacity: int = 64
    rate: float | None = None
    burst: float | None = None
    workers: int = 1
    cache_dir: str | Path | None = None
    cache_capacity: int = 1024
    timeout: float | None = None
    admission_lint: str | None = "error"
    drain_grace: float = 60.0
    max_body_bytes: int = 8 * 1024 * 1024


@dataclass
class _Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: str
    headers: Mapping[str, str]
    body: bytes
    peer: str


@dataclass
class _Ticket:
    """An admitted batch request waiting for the dispatcher."""

    client: str
    jobs: int
    future: "asyncio.Future[tuple[int, dict]]"
    #: Jobs already built, canonicalized and gated at admission time,
    #: so the dispatcher neither rebuilds the manifest nor
    #: canonicalizes or builds a network again.
    gated: "list[_GatedJob]"


@dataclass
class _GatedJob:
    """One workload as admission left it, ready to solve."""

    workload: BuiltWorkload
    canonical: CanonicalInstance
    #: The gate's verdict; ``None`` when there is no gate.
    verdict: LintVerdict | None
    #: The network the gate's analysis built (``None`` without a gate
    #: or on a verdict cache hit); it lives only as long as the request.
    network: "BuiltNetwork | None"


class _HttpError(Exception):
    """Maps straight to an HTTP error response."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class AllocationServer:
    """The serving engine: admission + dispatcher + HTTP front end.

    Usage (inside a running event loop)::

        server = AllocationServer(ServerConfig(port=0))
        await server.start()
        ...                      # serve traffic; server.port is bound
        await server.drain()     # finish queued + in-flight work
        await server.close()

    The blocking :func:`serve` helper wraps this with signal handling
    for the CLI.

    Args:
        config: Tunables (defaults are sensible for local use).
    """

    def __init__(self, config: ServerConfig | None = None) -> None:
        self.config = config or ServerConfig()
        cfg = self.config
        if cfg.workers < 1:
            raise ServiceError(f"workers must be >= 1, got {cfg.workers}")
        self.admission = AdmissionController(
            capacity=cfg.queue_capacity, rate=cfg.rate, burst=cfg.burst
        )
        self.cache = ResultCache(
            capacity=cfg.cache_capacity, directory=cfg.cache_dir
        )
        #: Admission-time lint gate; ``None`` when disabled by config.
        self.lint_gate: LintGate | None = (
            LintGate(cache=self.cache, fail_on=cfg.admission_lint)
            if cfg.admission_lint is not None
            else None
        )
        self.draining = False
        self.port: int | None = None
        self.requests_served = 0
        self._started = time.monotonic()
        self._inflight_jobs = 0
        self._server: asyncio.base_events.Server | None = None
        self._dispatcher: asyncio.Task | None = None
        self._wakeup: asyncio.Event | None = None
        self._drained: asyncio.Event | None = None
        self._own_collector: obs.TraceCollector | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "AllocationServer":
        """Bind the listener and start the dispatcher task."""
        if self._server is not None:
            raise ServiceError("server already started")
        if obs.current() is None:
            # The server owns a process-global collector so /metrics has
            # something to export; an externally installed collector
            # (tests, profiling) takes precedence.  /metrics reads
            # counters and gauges only, so it keeps no span trees.
            self._own_collector = obs.CounterCollector()
            obs.install(self._own_collector)
        self._wakeup = asyncio.Event()
        self._drained = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._dispatcher = asyncio.create_task(
            self._dispatch_loop(), name="repro-serve-dispatcher"
        )
        return self

    async def drain(self) -> None:
        """Graceful shutdown: stop admitting, finish accepted work.

        New submissions shed with 503 (reason ``draining``) while every
        already-queued and in-flight job runs to completion (bounded by
        ``config.drain_grace``); then the listener closes.
        """
        if self.draining:
            return
        self.draining = True
        self.admission.start_drain()
        assert self._wakeup is not None and self._drained is not None
        self._wakeup.set()
        try:
            await asyncio.wait_for(
                self._drained.wait(), self.config.drain_grace
            )
        except asyncio.TimeoutError:  # pragma: no cover - defensive
            pass
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    async def close(self) -> None:
        """Tear down (drains first if not already drained).

        A server with ``workers > 1`` owns the process's worker pool
        for its lifetime: after the drain, its workers are stopped.
        """
        await self.drain()
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
            self._dispatcher = None
        if self.config.workers > 1:
            await asyncio.to_thread(pool.shutdown)
        if self._own_collector is not None:
            if obs.current() is self._own_collector:
                obs.uninstall()
            self._own_collector = None

    # ------------------------------------------------------------------
    # dispatcher
    # ------------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        """Drain the admission queue, one request at a time."""
        assert self._wakeup is not None and self._drained is not None
        while True:
            item = self.admission.next()
            if item is None:
                if self.draining:
                    break
                self._wakeup.clear()
                # Re-check after clearing: an admit may have raced in
                # between our failed dequeue and the clear.
                if self.admission.queued or self.draining:
                    continue
                await self._wakeup.wait()
                continue
            _, ticket = item
            self._inflight_jobs += ticket.jobs
            obs.gauge("service.server.inflight_jobs", self._inflight_jobs)
            try:
                status, payload = await asyncio.to_thread(
                    self._solve_request, ticket
                )
            except Exception as exc:  # noqa: BLE001 - dispatcher must
                # survive any single request failure.
                status, payload = 500, {
                    "error": f"{type(exc).__name__}: {exc}"
                }
            finally:
                self._inflight_jobs -= ticket.jobs
                obs.gauge(
                    "service.server.inflight_jobs", self._inflight_jobs
                )
            if not ticket.future.done():
                ticket.future.set_result((status, payload))
        self._drained.set()

    def _solve_request(self, ticket: _Ticket) -> tuple[int, dict]:
        """Blocking per-request work; runs in a worker thread."""
        cfg = self.config
        start = time.perf_counter()
        executor = BatchExecutor(
            workers=cfg.workers, cache=self.cache, timeout=cfg.timeout
        )
        for job in ticket.gated:
            w = job.workload
            executor.submit(
                w.problem,
                w.label,
                schedule=w.schedule,
                canonical=job.canonical,
                network=job.network,
            )
        results = executor.gather()
        wall = time.perf_counter() - start
        self.admission.observe_service_time(wall, max(1, len(results)))
        report = build_batch_report(
            results,
            cache=self.cache,
            wall_time_s=wall,
            workers=cfg.workers,
            manifest=f"<request from {ticket.client}>",
        )
        return 200, report

    # ------------------------------------------------------------------
    # HTTP front end
    # ------------------------------------------------------------------
    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Parse one request, route it, write one response, close."""
        status, body, extra = 500, b"{}", {}
        try:
            request = await asyncio.wait_for(
                self._read_request(reader, writer), _READ_TIMEOUT_S
            )
            status, body, extra = await self._route(request)
        except _HttpError as exc:
            status = exc.status
            body = _json_bytes({"error": exc.message})
            extra = {}
        except (
            asyncio.TimeoutError,
            asyncio.IncompleteReadError,
            ConnectionError,
        ):
            writer.close()
            return
        except Exception as exc:  # noqa: BLE001 - connection handler is
            # the outermost error boundary of the front end.
            status = 500
            body = _json_bytes({"error": f"{type(exc).__name__}: {exc}"})
            extra = {}
        try:
            self._write_response(writer, status, body, extra)
            await writer.drain()
        except ConnectionError:
            pass
        finally:
            writer.close()

    async def _read_request(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> _Request:
        line = await reader.readline()
        if not line:
            raise ConnectionError("empty request")
        parts = line.decode("latin-1").split()
        if len(parts) < 2:
            raise _HttpError(400, "malformed request line")
        method, target = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            raise _HttpError(400, "bad Content-Length") from None
        if length > self.config.max_body_bytes:
            raise _HttpError(413, "request body too large")
        body = await reader.readexactly(length) if length > 0 else b""
        path, _, query = target.partition("?")
        peername = writer.get_extra_info("peername")
        peer = peername[0] if isinstance(peername, tuple) else "unknown"
        return _Request(method, path, query, headers, body, peer)

    async def _route(
        self, request: _Request
    ) -> tuple[int, bytes, dict[str, str]]:
        if request.path == "/healthz":
            if request.method != "GET":
                raise _HttpError(405, "healthz is GET-only")
            return 200, _json_bytes(self.health()), {}
        if request.path == "/metrics":
            if request.method != "GET":
                raise _HttpError(405, "metrics is GET-only")
            form = parse_qs(request.query).get("format", ["json"])[0]
            if form == "text":
                collector = obs.current()
                text = metrics_text(collector) if collector else ""
                return 200, text.encode("utf-8"), {
                    "Content-Type": "text/plain; charset=utf-8"
                }
            return 200, _json_bytes(self.metrics()), {}
        if request.path == "/v1/batch":
            if request.method != "POST":
                raise _HttpError(405, "batch submissions are POST-only")
            return await self._handle_batch(request)
        if request.path == "/v1/lint":
            if request.method != "POST":
                raise _HttpError(405, "lint submissions are POST-only")
            return await self._handle_lint(request)
        raise _HttpError(404, f"no route for {request.path}")

    def _parse_body_manifest(self, request: _Request) -> Manifest:
        """Decode and schema-check a manifest request body."""
        try:
            document = json.loads(request.body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise _HttpError(400, f"request body is not JSON: {exc}")
        try:
            return parse_manifest(document, source="<request>")
        except ServiceError as exc:
            raise _HttpError(400, str(exc))

    def _build_workloads(
        self, manifest: Manifest, gate: LintGate | None
    ) -> "list[_GatedJob]":
        """Build a manifest, canonicalize every workload and gate it
        when there is a *gate* (blocking call).

        Each workload is canonicalized once; the gate and, for an
        admitted request, the executor share that form and the network
        the gate's analysis built.  Runs in a worker thread via
        ``asyncio.to_thread``; manifest build failures surface as 400s
        through :class:`_HttpError`.
        """
        try:
            workloads = manifest.build()
        except ServiceError as exc:
            raise _HttpError(400, str(exc))
        gated = []
        for workload in workloads:
            canonical = canonicalize(workload.problem)
            verdict = network = None
            if gate is not None:
                verdict, network = gate.check(
                    workload.problem,
                    schedule=workload.schedule,
                    label=workload.label,
                    canonical=canonical,
                )
            gated.append(_GatedJob(workload, canonical, verdict, network))
        return gated

    @staticmethod
    def _sarif_body(gated: "list[_GatedJob]") -> dict[str, Any]:
        """Merged SARIF log of the gated jobs, one run per job."""
        return merge_sarif(
            (job.verdict.report, job.verdict.run_properties())
            for job in gated
        )

    async def _handle_batch(
        self, request: _Request
    ) -> tuple[int, bytes, dict[str, str]]:
        self.requests_served += 1
        obs.count("service.server.requests")
        manifest = self._parse_body_manifest(request)
        jobs = self._bounded_job_count(manifest)
        # Build and lint BEFORE admission: a malformed or provably-bad
        # manifest must never occupy a queue slot, let alone a solver.
        gated = await asyncio.to_thread(
            self._build_workloads, manifest, self.lint_gate
        )
        blocking = [
            job.verdict
            for job in gated
            if job.verdict is not None and job.verdict.blocking
        ]
        if blocking:
            obs.count("service.lint.rejected_requests")
            body = _json_bytes(
                {
                    "error": (
                        f"manifest rejected by the admission lint "
                        f"gate: {len(blocking)} of "
                        f"{len(gated)} job(s) provably bad"
                    ),
                    "rejected_jobs": [v.label for v in blocking],
                    "sarif": self._sarif_body(gated),
                }
            )
            return 422, body, {}
        client = request.headers.get("x-client-id") or request.peer
        loop = asyncio.get_running_loop()
        ticket = _Ticket(
            client=client,
            jobs=jobs,
            future=loop.create_future(),
            gated=gated,
        )
        verdict = self.admission.admit(client, ticket, weight=ticket.jobs)
        if not verdict.admitted:
            retry = max(1, math.ceil(verdict.retry_after))
            body = _json_bytes(
                {
                    "error": "request shed by admission control",
                    "reason": verdict.reason,
                    "retry_after_s": round(verdict.retry_after, 3),
                    "shed_jobs": ticket.jobs,
                }
            )
            return 503, body, {"Retry-After": str(retry)}
        assert self._wakeup is not None
        self._wakeup.set()
        status, payload = await ticket.future
        return status, _json_bytes(payload), {}

    def _bounded_job_count(self, manifest) -> int:
        """*manifest*'s job count; 413 when the whole admission queue
        could never hold it (no retry could help, so refuse before
        building or linting anything)."""
        jobs = manifest.job_count()
        if jobs > self.config.queue_capacity:
            raise _HttpError(
                413,
                f"request carries {jobs} jobs but the admission queue "
                f"holds at most {self.config.queue_capacity}; split it",
            )
        return jobs

    async def _handle_lint(
        self, request: _Request
    ) -> tuple[int, bytes, dict[str, str]]:
        """``POST /v1/lint``: analyse a manifest without solving it.

        Answers 200 with the merged SARIF log — whether the jobs are
        clean or provably bad is in the results, not the status — and
        never touches the admission queue or a solver.  A manifest with
        more jobs than the admission queue holds gets 413, as on
        ``/v1/batch``, before anything is built or linted.
        """
        self.requests_served += 1
        obs.count("service.server.requests")
        obs.count("service.lint.requests")
        manifest = self._parse_body_manifest(request)
        self._bounded_job_count(manifest)
        # A lint-only request must report, never reject; reuse the
        # admission gate (shared verdict cache) when it exists.
        gate = self.lint_gate or LintGate(cache=self.cache, fail_on="never")
        gated = await asyncio.to_thread(self._build_workloads, manifest, gate)
        return 200, _json_bytes(self._sarif_body(gated)), {}

    def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: bytes,
        extra_headers: Mapping[str, str],
    ) -> None:
        reason = _STATUS_TEXT.get(status, "Unknown")
        headers = {
            "Content-Type": "application/json; charset=utf-8",
            **extra_headers,
            "Content-Length": str(len(body)),
            "Connection": "close",
        }
        head = f"HTTP/1.1 {status} {reason}\r\n" + "".join(
            f"{name}: {value}\r\n" for name, value in headers.items()
        )
        writer.write(head.encode("latin-1") + b"\r\n" + body)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def health(self) -> dict[str, Any]:
        """The ``/healthz`` document (cheap; no locks beyond counters)."""
        return {
            "status": "draining" if self.draining else "ok",
            "queued_jobs": self.admission.queued,
            "inflight_jobs": self._inflight_jobs,
            "requests": self.requests_served,
            "uptime_s": round(time.monotonic() - self._started, 3),
        }

    def metrics(self) -> dict[str, Any]:
        """The ``/metrics`` JSON document (``repro.service/metrics/v1``).

        Exports every :mod:`repro.obs` counter and gauge accumulated
        since the server started — flow solves
        (``solver.flow_solve.calls``), lockstep searches and augmenting
        paths (``ssp.*``), job, failure and solver-error
        totals (``service.jobs``, ``service.failures``,
        ``service.solver_error``), shed totals
        (``service.shed*``), task-graph pipeline counters (``dag.*``,
        grouped under ``dag``) — plus admission, result-cache and
        server stats.
        """
        collector = obs.current()
        return {
            "schema": METRICS_SCHEMA,
            "counters": dict(sorted(collector.counters.items()))
            if collector
            else {},
            "gauges": dict(sorted(collector.gauges.items()))
            if collector
            else {},
            "admission": self.admission.stats(),
            "cache": self.cache.stats(),
            "lint": (
                counter_group(collector, "service.lint")
                if collector
                else {}
            ),
            "dag": counter_group(collector, "dag") if collector else {},
            "server": self.health(),
        }


def _json_bytes(payload: Mapping[str, Any]) -> bytes:
    """Compact UTF-8 JSON encoding of a response payload."""
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def serve(config: ServerConfig | None = None) -> int:
    """Run a server until SIGTERM/SIGINT, then drain and exit.

    The blocking entry point behind ``repro-alloc serve``: prints the
    bound address once listening, installs signal handlers (best-effort
    on platforms without them), and performs the graceful-drain
    shutdown sequence on the first signal.

    Returns:
        Process exit code (0 after a clean drain).
    """

    async def _main() -> None:
        server = AllocationServer(config)
        await server.start()
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # e.g. non-unix platforms
        print(
            f"repro-alloc serve: listening on "
            f"http://{server.config.host}:{server.port} "
            f"(queue={server.config.queue_capacity} jobs, "
            f"workers={server.config.workers})",
            flush=True,
        )
        await stop.wait()
        print("repro-alloc serve: draining...", flush=True)
        await server.drain()
        await server.close()
        print("repro-alloc serve: stopped", flush=True)

    asyncio.run(_main())
    return 0
