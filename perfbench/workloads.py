"""The four workloads: how each op is driven, timed and checked.

``batch-inline``, ``batch-pool`` and ``dag`` are closed loops with one
client calling the ``repro-alloc`` entry point in process. ``serve-mixed``
is an open loop against a ``repro-alloc serve`` subprocess. Each loop
records per-op latency and outcome; answers are checked outside the
timed calls (after each op, or after the loop).
"""

from __future__ import annotations

import contextlib
import http.client
import io
import json
import math
import resource
import signal
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import calibrate
import checks
import inputs
import serving

#: Fewest ops a loop measures, so ``op_p90_ms`` has ten samples beyond it.
MIN_OPS = 100

#: A loop still short of :data:`MIN_OPS` after ``--seconds`` runs on, up
#: to this multiple of ``--seconds``.
MAX_STRETCH = 2.0

#: Untimed ops before a closed loop starts measuring.
WARMUP_OPS = 2


@dataclass
class Loop:
    """What one measured loop produced.

    Attributes:
        latencies_ms: Per-op wall-clock latency, in schedule order.
        scales: Per op, the host-speed factor measured next to it
            (:mod:`calibrate`); ``latency * scale`` is reference time.
        traced: Per op, whether layer timing was on during it.
        jobs_ok: Allocation jobs solved OK inside the loop.
        busy_s: Reference-speed seconds the jobs-per-second rate is
            taken over: the ops' time for a closed loop, the server's
            per-request ``wall_time_s`` summed for the open one.
        failures: Problems per failed op (op index → messages).
        peak_rss_mb: High-water RSS of the processes running the program.
        shed: Requests answered 503 (serve only).
        server_overhead_ms: Per 200 response, client latency from send
            minus the report's ``wall_time_s`` (serve only).
        late_ms: Per request, how late the generator sent it after its
            due time (serve only).
    """

    latencies_ms: list[float] = field(default_factory=list)
    scales: list[float] = field(default_factory=list)
    traced: list[bool] = field(default_factory=list)
    jobs_ok: int = 0
    busy_s: float = 0.0
    failures: dict[object, list[str]] = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    shed: int = 0
    server_overhead_ms: list[float] = field(default_factory=list)
    late_ms: list[float] = field(default_factory=list)

    def fail(self, key: object, problems: list[str]) -> None:
        if problems:
            self.failures.setdefault(key, []).extend(problems)

    @property
    def scaled_ms(self) -> list[float]:
        """Per-op latency at the reference host speed."""
        return [ms * s for ms, s in zip(self.latencies_ms, self.scales)]


class ClosedLoop:
    """One client calling ``repro-alloc`` in process, op after op."""

    def __init__(self, workdir: Path, seed: int, tracer=None):
        from repro.cli import main

        self.cli = main
        self.workdir = workdir
        self.seed = seed
        self.tracer = tracer
        self.loop = Loop()

    def call(self, argv: list[str]) -> tuple[int, str, float]:
        """Run one CLI command; returns (exit code, stdout, seconds)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            code = self.cli(argv)
            elapsed = time.perf_counter() - start
        return code, out.getvalue(), elapsed

    def op(self, index: int, traced: bool) -> float:
        """Run and settle op *index*; returns its latency in seconds."""
        argv = self.prepare(index)
        if traced:
            from repro import obs

            self.tracer.install()
            try:
                with obs.collect():
                    code, out, elapsed = self.call(argv)
            finally:
                self.tracer.remove()
        else:
            code, out, elapsed = self.call(argv)
        problems = [] if code == 0 else [f"exit code {code}"]
        try:
            problems += self.settle(index, json.loads(out))
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"unreadable report: {exc!r}")
        self.loop.fail(index, problems)
        return elapsed

    def run(self, seconds: float, pause=None, pauses: int = 0) -> Loop:
        """Measure ops for *seconds*.

        *pause*, when given, is called *pauses* times at evenly spaced
        points of the loop, between ops; its time is not loop time.
        """
        for index in range(1, WARMUP_OPS + 1):
            self.op(-index, traced=False)
        loop = self.loop
        taken = 0
        start = time.perf_counter()
        # Each op is bracketed by the calibration samples taken just
        # before and just after it; the host drifts within a second.
        before = calibrate.sample_ms()
        index = 0
        while True:
            elapsed = time.perf_counter() - start
            if pause is not None and taken < pauses and elapsed >= seconds * taken / pauses:
                began = time.perf_counter()
                pause()
                taken += 1
                before = calibrate.sample_ms()
                start += time.perf_counter() - began
                continue
            if elapsed >= seconds and (
                index >= MIN_OPS or elapsed >= seconds * MAX_STRETCH
            ):
                break
            # Pairs of ops alternate, so traced and untraced ops see the
            # same mix of the even-length input rotations.
            traced = self.tracer is not None and index // 2 % 2 == 0
            latency = self.op(index, traced)
            after = calibrate.sample_ms()
            loop.latencies_ms.append(latency * 1e3)
            loop.scales.append(2 * calibrate.REFERENCE_MS / (before + after))
            loop.traced.append(traced)
            before = after
            index += 1
        loop.busy_s = sum(loop.scaled_ms) / 1e3
        usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        loop.peak_rss_mb = max(usage, children) / 1024.0
        return loop

    def solve_document(self, document: dict) -> dict:
        """Solve a manifest through ``repro-alloc batch`` (untimed)."""
        path = self.workdir / "check.json"
        path.write_bytes(inputs.encode(document))
        _, out, _ = self.call(["batch", str(path), "--format", "json"])
        return json.loads(out)

    def check(self, reference: dict) -> None:
        """Outside-the-loop answer checks; failures land in the loop."""
        report = self.solve_document(checks.PAPER_MANIFEST)
        self.loop.fail("paper", checks.paper_problems(report, reference))

    def close(self) -> dict:
        return {}


class BatchLoop(ClosedLoop):
    """``repro-alloc batch`` on a fresh 8-job manifest per op."""

    jobs_per_op = 8

    def __init__(self, workdir, seed, tracer=None, workers: int = 1):
        super().__init__(workdir, seed, tracer)
        self.workers = workers
        self.path = workdir / "op.json"
        self.solved: dict[int, list[tuple[str, float]]] = {}

    def prepare(self, index: int) -> list[str]:
        self.path.write_bytes(inputs.encode(inputs.batch_manifest(self.seed, index)))
        return [
            "batch", str(self.path), "--workers", str(self.workers),
            "--format", "json",
        ]

    def settle(self, index: int, report: dict) -> list[str]:
        problems = checks.job_problems(report, self.jobs_per_op)
        if index >= 0:
            self.loop.jobs_ok += sum(job["status"] == "ok" for job in report["jobs"])
            self.solved[index] = [
                (job["job_id"], job["objective"]) for job in report["jobs"]
            ]
        return problems

    def check(self, reference: dict) -> None:
        super().check(reference)
        if self.seed == checks.REFERENCE_SEED:
            for index, want in enumerate(reference["batch"]):
                if index in self.solved:
                    got = [energy for _, energy in self.solved[index]]
                    self.loop.fail(index, checks.compare(f"op {index}", got, want))
        candidates = [
            (index, label, energy)
            for index, jobs in sorted(self.solved.items())
            for label, energy in jobs
            if label != "banked"
        ]
        for index, label, energy in checks.lp_sample(self.seed, candidates):
            document = inputs.batch_manifest(self.seed, index)
            self.loop.fail(index, checks.lp_problems(document, label, energy))


class DagLoop(ClosedLoop):
    """``repro-alloc dag`` on alternating diamond/fan-in graphs."""

    def __init__(self, workdir, seed, tracer=None):
        super().__init__(workdir, seed, tracer)
        self.totals: dict[int, float] = {}

    def prepare(self, index: int) -> list[str]:
        return inputs.dag_argv(self.seed, index)

    def settle(self, index: int, report: dict) -> list[str]:
        from repro.verify import OracleViolation, oracle_dag_reconciliation

        problems = []
        try:
            oracle_dag_reconciliation(report, require_certified=True)
        except OracleViolation as exc:
            problems.append(str(exc))
        jobs = [block.get("job", {}) for block in report["blocks"]]
        solved = sum(job.get("status") == "ok" for job in jobs)
        if solved != len(jobs):
            problems.append(f"{len(jobs) - solved} of {len(jobs)} blocks not solved")
        if index >= 0:
            self.loop.jobs_ok += solved
            self.totals[index] = report["energy"]["total"]
        return problems

    def check(self, reference: dict) -> None:
        super().check(reference)
        if self.seed == checks.REFERENCE_SEED:
            for index, want in enumerate(reference["dag"]):
                if index in self.totals:
                    self.loop.fail(
                        index,
                        checks.compare(f"op {index}", [self.totals[index]], [want]),
                    )


class ServeLoad:
    """Open-loop mixed traffic against a ``repro-alloc serve`` subprocess.

    Requests are due at a fixed rate and sent over at most
    :data:`CONNECTIONS` connections; each one's latency runs from its due
    time, so a stall also delays the requests queued behind it. With
    layer tracing, timing inside the server is switched on and off every
    :data:`PHASE_S` seconds and ``trace.overhead_pct`` compares the two
    phases.
    """

    #: Requests per second: about half the capacity measured for the mix.
    RATE = 20.0

    #: Concurrent connections of the load generator.
    CONNECTIONS = 2

    #: Length of one traced or untraced phase in a traced run.
    PHASE_S = 2.0

    #: A connection with this much idle time before its next request
    #: takes a host-speed sample (about 4 ms of work) first.
    CALIBRATE_SLACK_S = 0.01

    def __init__(self, root: Path, workdir: Path, seed: int, tracer=None):
        self.seed = seed
        self.traced_run = tracer is not None
        self.table_path = workdir / "serve-layers.json" if self.traced_run else None
        self.proc, self.port = serving.start_server(
            root, workdir / "serve.log", self.table_path
        )
        self.loop = Loop()
        self.responses: list[tuple | None] = []
        self.schedule: list[inputs.Request] = []
        self.counters: dict[str, float] = {}

    def _send(self, body: bytes, key: object, expected: int) -> dict | None:
        try:
            status, raw = serving.post(self.port, "/v1/batch", body)
            payload = json.loads(raw)
        except (OSError, ValueError, http.client.HTTPException) as exc:
            self.loop.fail(key, [f"request failed: {exc!r}"])
            return None
        if status != expected:
            self.loop.fail(key, [f"HTTP {status}, expected {expected}"])
            return None
        return payload

    def warmup(self) -> None:
        for k in range(6):
            document = inputs.fresh_manifest(inputs.job_seed(self.seed, "warmup", k))
            self._send(inputs.encode(document), "warmup", 200)
        self._send(inputs.encode(inputs.BAD_MANIFEST), "warmup", 422)

    def run(self, seconds: float, pause=None, pauses: int = 0) -> Loop:
        """Send the load for *seconds*.

        *pause*, when given, is called *pauses* times, half before the
        load and half after it: the open loop must not stall.
        """
        self.warmup()
        for _ in range(pauses - pauses // 2 if pause else 0):
            pause()
        count = max(MIN_OPS, math.ceil(seconds * self.RATE))
        self.schedule = schedule = inputs.serve_schedule(self.seed, count, self.RATE)
        self.responses = [None] * len(schedule)
        before = serving.get_json(self.port, "/metrics")["counters"]
        cursor = iter(range(len(schedule)))
        cursor_lock = threading.Lock()
        start = time.perf_counter() + 0.05
        stop = threading.Event()
        speed: list[tuple[float, float]] = []

        def connection() -> None:
            while True:
                with cursor_lock:
                    index = next(cursor, None)
                if index is None:
                    return
                request = schedule[index]
                due = start + request.due_s
                if due - time.perf_counter() > self.CALIBRATE_SLACK_S:
                    # Idle until the request is due: sample host speed.
                    speed.append((time.perf_counter(), calibrate.sample_ms()))
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                try:
                    status, raw = serving.post(self.port, "/v1/batch", request.body)
                except (OSError, http.client.HTTPException) as exc:
                    status, raw = None, repr(exc).encode()
                self.responses[index] = (due, sent, time.perf_counter(), status, raw)

        def toggle() -> None:
            phase = 1
            while not stop.wait(start + phase * self.PHASE_S - time.perf_counter()):
                self.proc.send_signal(signal.SIGUSR1 if phase % 2 else signal.SIGUSR2)
                phase += 1

        threads = [threading.Thread(target=connection) for _ in range(self.CONNECTIONS)]
        if self.traced_run:
            threads.append(threading.Thread(target=toggle))
        for thread in threads:
            thread.start()
        for thread in threads[: self.CONNECTIONS]:
            thread.join()
        stop.set()
        for thread in threads[self.CONNECTIONS:]:
            thread.join()
        if self.traced_run:
            self.proc.send_signal(signal.SIGUSR2)
        after = serving.get_json(self.port, "/metrics")["counters"]
        self.counters = {
            name: value - before.get(name, 0)
            for name, value in after.items()
            if isinstance(value, (int, float))
        }
        self.loop.peak_rss_mb = serving.peak_rss_mb(self.proc.pid)
        self._settle(sorted(speed))
        for _ in range(pauses // 2 if pause else 0):
            pause()
        return self.loop

    def _scale(self, speed: list[tuple[float, float]], due: float) -> float:
        """Host-speed factor from the samples within a second of *due*."""
        near = [ms for at, ms in speed if abs(at - due) <= 1.0] or [
            ms for _, ms in speed
        ]
        return calibrate.REFERENCE_MS / statistics.median(near) if near else 1.0

    def _settle(self, speed: list[tuple[float, float]]) -> None:
        loop = self.loop
        for request, response in zip(self.schedule, self.responses):
            if response is None:
                loop.fail(request.index, ["never sent"])
                continue
            due, sent, done, status, raw = response
            try:
                payload = json.loads(raw)
            except ValueError:
                status, payload = None, raw
            self.responses[request.index] = (due, sent, done, status, payload)
            scale = self._scale(speed, due)
            loop.latencies_ms.append((done - due) * 1e3)
            loop.scales.append(scale)
            loop.late_ms.append((sent - due) * 1e3)
            loop.traced.append(
                self.traced_run and int(request.due_s // self.PHASE_S) % 2 == 1
            )
            if status == 503:
                loop.shed += 1
            if status != request.expected_status:
                loop.fail(request.index, [f"HTTP {status}: {str(payload)[:200]}"])
                continue
            if status == 422:
                if payload.get("rejected_jobs") != ["fig3"]:
                    loop.fail(request.index, [f"422 rejected {payload.get('rejected_jobs')}"])
                continue
            loop.fail(request.index, checks.job_problems(payload, request.job_count))
            loop.jobs_ok += sum(job["status"] == "ok" for job in payload["jobs"])
            # The open loop paces the requests, so its wall time is fixed
            # by the schedule; the rate is taken over the server's own
            # busy time instead, at reference speed.
            loop.busy_s += payload["wall_time_s"] * scale
            loop.server_overhead_ms.append(
                (done - sent - payload["wall_time_s"]) * 1e3
            )

    def solve_document(self, document: dict) -> dict:
        return self._send(inputs.encode(document), "paper", 200) or {"jobs": []}

    def check(self, reference: dict) -> None:
        loop = self.loop
        report = self.solve_document(checks.PAPER_MANIFEST)
        loop.fail("paper", checks.paper_problems(report, reference))
        answered = {
            request.index: checks.energies(response[4])
            for request, response in zip(self.schedule, self.responses)
            if response is not None and response[3] == 200
        }
        for request in self.schedule:
            if request.kind == "repeat" and request.index in answered:
                original = answered.get(request.first)
                if original is not None:
                    loop.fail(
                        request.index,
                        checks.compare("repeat", answered[request.index], original),
                    )
        if self.seed == checks.REFERENCE_SEED:
            for key, want in reference["serve"].items():
                index = int(key)
                if index in answered:
                    loop.fail(
                        index,
                        checks.compare(f"request {index}", answered[index], want),
                    )
        candidates = [
            (request.index, job["job_id"], job["objective"])
            for request, response in zip(self.schedule, self.responses)
            if request.kind == "fresh"
            and response is not None
            and response[3] == 200
            for job in response[4]["jobs"]
        ]
        for index, label, energy in checks.lp_sample(self.seed, candidates):
            document = json.loads(self.schedule[index].body)
            loop.fail(index, checks.lp_problems(document, label, energy))

    def close(self) -> dict:
        """Stop the server; returns its per-layer table when traced."""
        code = serving.stop_server(self.proc)
        if code != 0:
            self.loop.fail("server", [f"server exited with {code}"])
        if self.table_path is not None and self.table_path.exists():
            return json.loads(self.table_path.read_text())["layers"]
        return {}
