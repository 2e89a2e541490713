"""End-to-end serving tests: real sockets, real solves, real drain.

Everything here exercises :class:`repro.service.server.AllocationServer`
over HTTP through the :class:`~tests.service.conftest.ServerHarness`
(the event loop lives on a background thread; the tests are plain
blocking clients).  The acceptance bars of the serving PR live here:

* the paper manifest served twice is >= 90% cache-hit the second time,
  with energies identical to the ``repro-alloc batch`` CLI;
* a cold/warm voltage sweep hits the warm-start cache on points 2..N
  with energies identical to cold solves, visible on ``/metrics``;
* a burst of 4x queue capacity sheds with explicit 503 + Retry-After
  (zero silent drops — every request is answered and the shed counter
  reconciles) while ``/healthz`` stays responsive;
* SIGTERM-style drain finishes in-flight work and sheds new arrivals.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import threading
import time

from repro.cli import main
from repro.service.server import ServerConfig

from .conftest import PAPER_MANIFEST, ServerHarness, running, tiny_manifest


def _job_energies(report: dict) -> dict[str, float]:
    """job_id -> objective map of a batch report document."""
    return {
        job["job_id"]: job["objective"]
        for job in report["jobs"]
        if job.get("objective") is not None
    }


# ---------------------------------------------------------------------------
# basic routes
# ---------------------------------------------------------------------------


def test_healthz_and_metrics_endpoints():
    with ServerHarness(ServerConfig()) as harness:
        status, health = harness.get_json("/healthz")
        assert status == 200
        assert health["status"] == "ok"
        assert health["queued_jobs"] == 0

        status, metrics = harness.get_json("/metrics")
        assert status == 200
        assert metrics["schema"] == "repro.service/metrics/v1"
        assert metrics["admission"]["capacity"] == harness.config.queue_capacity
        assert "counters" in metrics and "cache" in metrics
        assert "dag" in metrics  # task-graph counters get their own section

        status, _, body = harness.request("GET", "/metrics?format=text")
        assert status == 200


def test_dag_counters_reach_the_metrics_endpoint():
    # The server installs a process-global trace collector, so dag.*
    # counters emitted by the task-graph pipeline (partitioning, DVFS
    # sweeps, block dispatch) surface in /metrics — JSON section and
    # Prometheus text exposition alike.
    from repro.obs import trace as obs

    with ServerHarness(ServerConfig()) as harness:
        obs.count("dag.blocks_dispatched", 4)
        obs.count("dag.dvfs_sweep.solves", 20)

        status, metrics = harness.get_json("/metrics")
        assert status == 200
        assert metrics["dag"]["blocks_dispatched"] == 4
        assert metrics["dag"]["dvfs_sweep.solves"] == 20
        assert metrics["counters"]["dag.blocks_dispatched"] == 4

        status, _, body = harness.request("GET", "/metrics?format=text")
        assert status == 200
        text = body.decode()
        assert "dag_blocks_dispatched_total 4" in text
        assert "dag_dvfs_sweep_solves_total 20" in text


def test_bad_requests_are_explicit_errors():
    with ServerHarness(ServerConfig()) as harness:
        status, _, body = harness.request("GET", "/nope")
        assert status == 404

        status, _, body = harness.request("POST", "/healthz")
        assert status == 405

        status, _, body = harness.request(
            "POST", "/v1/batch", body=b"{not json"
        )
        assert status == 400
        assert "JSON" in json.loads(body)["error"]

        status, _, wrong = harness.post_json(
            "/v1/batch", {"schema": "nope", "jobs": [{}]}
        )
        assert status == 400
        assert "schema" in wrong["error"]


def test_single_job_request_round_trip():
    with ServerHarness(ServerConfig()) as harness:
        status, _, report = harness.post_json(
            "/v1/batch", tiny_manifest(), client_id="round-trip"
        )
        assert status == 200
        assert report["schema"] == "repro.service/batch-report/v1"
        assert report["totals"]["jobs"] == 1
        assert report["totals"]["ok"] == 1


def test_request_larger_than_the_queue_is_refused_unbuilt():
    config = ServerConfig(queue_capacity=4)
    with ServerHarness(config) as harness:
        document = tiny_manifest(
            jobs=[{"kind": "random", "variables": 6, "horizon": 8,
                   "seed": 1, "count": 5}]
        )
        status, headers, body = harness.post_json("/v1/batch", document)
        assert status == 413
        assert "retry-after" not in headers
        assert "at most 4" in body["error"]
        _, metrics = harness.get_json("/metrics")
    counters = metrics["counters"]
    assert counters.get("network.builds", 0) == 0
    assert counters.get("service.lint.checked", 0) == 0
    assert metrics["admission"]["shed_jobs"] == 0


# ---------------------------------------------------------------------------
# paper manifest, twice: the cache-hit acceptance bar
# ---------------------------------------------------------------------------


def test_paper_manifest_twice_second_pass_is_cache_served(
    paper_manifest, tmp_path
):
    config = ServerConfig(cache_dir=tmp_path / "serve-cache")
    with ServerHarness(config) as harness:
        status, _, cold = harness.post_json(
            "/v1/batch", paper_manifest, client_id="ci"
        )
        assert status == 200
        assert cold["totals"]["jobs"] == 16
        assert cold["totals"]["ok"] == 16
        assert cold["totals"]["cached"] == 0

        status, _, warm = harness.post_json(
            "/v1/batch", paper_manifest, client_id="ci"
        )
        assert status == 200
        assert warm["totals"]["ok"] == 16
        # >= 90% of the second pass is served from the persistent cache.
        assert warm["totals"]["cached"] >= 15
        assert _job_energies(warm) == _job_energies(cold)

    # Every answer is on disk in the one layout.
    store = tmp_path / "serve-cache"
    for job in cold["jobs"]:
        digest = job["key"].split(":", 1)[1]
        assert (store / digest[:2] / f"{digest}.json").is_file()


def test_batch_cli_hits_what_the_server_cached(
    paper_manifest, tmp_path, capsys
):
    store = tmp_path / "shared-cache"
    with ServerHarness(ServerConfig(cache_dir=store)) as harness:
        status, _, served = harness.post_json(
            "/v1/batch", paper_manifest, client_id="shared"
        )
    assert status == 200 and served["totals"]["cached"] == 0
    out = tmp_path / "batch.json"
    assert main(
        ["batch", str(PAPER_MANIFEST), "--cache-dir", str(store),
         "-o", str(out)]
    ) == 0
    capsys.readouterr()
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["totals"]["cached"] == report["totals"]["jobs"] == 16
    assert _job_energies(report) == _job_energies(served)


def test_served_energies_match_the_batch_cli(paper_manifest, tmp_path, capsys):
    with ServerHarness(ServerConfig(workers=1)) as harness:
        status, _, served = harness.post_json(
            "/v1/batch", paper_manifest, client_id="parity"
        )
        _, metrics = harness.get_json("/metrics")
    assert status == 200
    # One network build per job: the in-process solve reuses the one
    # the admission gate's analysis built.
    counters = metrics["counters"]
    assert counters["network.builds"] == counters["service.jobs"] == 16
    out = tmp_path / "batch.json"
    assert main(
        ["batch", str(PAPER_MANIFEST), "--no-cache", "-o", str(out)]
    ) == 0
    capsys.readouterr()
    cli_report = json.loads(out.read_text(encoding="utf-8"))
    assert _job_energies(served) == _job_energies(cli_report)
    assert len(_job_energies(served)) == 16


def test_a_pooled_server_reuses_its_workers_and_stops_them(paper_manifest):
    fields = (
        "job_id", "status", "objective", "mem_accesses", "reg_accesses",
        "registers_used", "address_count",
    )
    with ServerHarness(ServerConfig(workers=1)) as harness:
        _, _, inline = harness.post_json("/v1/batch", paper_manifest)
    fresh = tiny_manifest(
        jobs=[
            {"kind": "random", "variables": 6, "horizon": 8, "seed": seed}
            for seed in range(1, 5)
        ]
    )
    with ServerHarness(ServerConfig(workers=2)) as harness:
        status, _, pooled = harness.post_json("/v1/batch", paper_manifest)
        assert status == 200
        status, _, second = harness.post_json("/v1/batch", fresh)
        assert status == 200
    assert [[job[f] for f in fields] for job in pooled["jobs"]] == [
        [job[f] for f in fields] for job in inline["jobs"]
    ]
    # Both requests ran on the same two forked workers ...
    first_pids = {job["worker"] for job in pooled["jobs"]}
    second_pids = {job["worker"] for job in second["jobs"]}
    assert second["totals"]["cached"] == 0
    assert first_pids == second_pids and len(first_pids) == 2
    assert os.getpid() not in first_pids
    # ... which the server stopped after its drain.
    assert multiprocessing.active_children() == []
    assert not [pid for pid in first_pids if running(pid)]


# ---------------------------------------------------------------------------
# cold/warm voltage sweep: the warm-start acceptance bar
# ---------------------------------------------------------------------------


def _sweep_point(voltage: float) -> dict:
    return tiny_manifest(
        jobs=[
            {
                "kind": "kernel",
                "name": "fir",
                "taps": 8,
                "registers": 4,
                "voltage": voltage,
                "label": f"fir@{voltage}",
            }
        ]
    )


def test_voltage_sweep_is_warm_started_with_identical_energies(tmp_path):
    voltages = (5.0, 4.0, 3.3, 2.5, 2.0)
    served: dict[str, float] = {}
    with ServerHarness(ServerConfig(workers=1)) as harness:
        for voltage in voltages:
            status, _, report = harness.post_json(
                "/v1/batch", _sweep_point(voltage), client_id="sweep"
            )
            assert status == 200
            assert report["totals"]["cached"] == 0  # distinct keys
            served.update(_job_energies(report))
        status, metrics = harness.get_json("/metrics")
        counters = metrics["counters"]
        # Point 1 is a cold factorisation; points 2..5 re-solve
        # incrementally off the same network topology.
        assert counters.get("solver.warm_start.cold") == 1
        assert counters.get("solver.warm_start.incremental") == len(voltages) - 1
        status, _, text = harness.request("GET", "/metrics?format=text")
        assert b"solver_warm_start_incremental_total 4" in text

    # Cold reference: a fresh server (empty warm cache) per point.
    for voltage in voltages:
        with ServerHarness(ServerConfig(workers=1)) as cold_harness:
            status, _, report = cold_harness.post_json(
                "/v1/batch", _sweep_point(voltage), client_id="cold"
            )
            assert status == 200
            cold = _job_energies(report)
        label = f"fir@{voltage}"
        assert served[label] == cold[label]
    assert len(served) == len(voltages)


# ---------------------------------------------------------------------------
# burst shedding: the backpressure acceptance bar
# ---------------------------------------------------------------------------


def test_burst_sheds_explicitly_and_healthz_stays_responsive(monkeypatch):
    capacity = 4
    burst = 4 * capacity  # the acceptance bar: >= 4x queue capacity
    hold = threading.Event()
    config = ServerConfig(queue_capacity=capacity)
    with ServerHarness(config) as harness:

        def slow_solve(ticket):
            hold.wait(timeout=30)
            return 200, {"totals": {"jobs": ticket.jobs}, "jobs": []}

        monkeypatch.setattr(harness.server, "_solve_request", slow_solve)

        results: list[tuple[int, dict[str, str]]] = []
        lock = threading.Lock()
        start = threading.Barrier(burst)

        def client(index: int) -> None:
            start.wait(timeout=10)
            status, headers, _ = harness.request(
                "POST",
                "/v1/batch",
                body=json.dumps(tiny_manifest()).encode("utf-8"),
                headers={"X-Client-Id": f"burst-{index}"},
                timeout=120,
            )
            with lock:
                results.append((status, headers))

        threads = [
            threading.Thread(target=client, args=(index,))
            for index in range(burst)
        ]
        for thread in threads:
            thread.start()

        # Wait until every request has been answered or parked in the
        # queue, then prove the event loop is still responsive while
        # the dispatcher is wedged on the (held) solve.
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            with lock:
                answered = len(results)
            if answered >= burst - capacity - 1:
                break
            time.sleep(0.05)
        status, health = harness.get_json("/healthz")
        assert status == 200 and health["status"] == "ok"

        hold.set()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()

        # Zero silent drops: every request got an answer, and it is
        # either a success or an explicit 503.
        assert len(results) == burst
        shed = [item for item in results if item[0] == 503]
        served = [item for item in results if item[0] == 200]
        assert len(shed) + len(served) == burst
        # At most 1 in-flight + capacity queued requests can succeed.
        assert len(served) <= capacity + 1
        assert len(shed) >= burst - capacity - 1
        for status, headers in shed:
            assert int(headers["retry-after"]) >= 1

        # The shed counter reconciles with the client-visible 503s.
        status, metrics = harness.get_json("/metrics")
        assert metrics["counters"]["service.shed"] == len(shed)
        assert (
            metrics["counters"]["service.shed.queue_full"] == len(shed)
        )
        assert metrics["admission"]["shed_jobs"] == len(shed)


# ---------------------------------------------------------------------------
# graceful drain
# ---------------------------------------------------------------------------


def test_drain_finishes_inflight_work_and_sheds_new_arrivals(monkeypatch):
    release = threading.Event()
    with ServerHarness(ServerConfig(queue_capacity=8)) as harness:
        real_solve = harness.server._solve_request

        def gated_solve(ticket):
            release.wait(timeout=30)
            return real_solve(ticket)

        monkeypatch.setattr(harness.server, "_solve_request", gated_solve)

        inflight: list[int] = []

        def submit() -> None:
            status, _, report = harness.post_json(
                "/v1/batch", tiny_manifest(), client_id="inflight"
            )
            inflight.append(status)
            assert report["totals"]["ok"] == 1

        worker = threading.Thread(target=submit)
        worker.start()
        # Wait for the job to reach the (gated) solve.
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            if harness.server._inflight_jobs:
                break
            time.sleep(0.02)
        assert harness.server._inflight_jobs == 1

        drainer = threading.Thread(target=harness.drain)
        drainer.start()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            if harness.server.draining:
                break
            time.sleep(0.02)

        # New arrivals shed explicitly while the drain is in progress.
        status, health = harness.get_json("/healthz")
        assert health["status"] == "draining"
        status, headers, body = harness.request(
            "POST",
            "/v1/batch",
            body=json.dumps(tiny_manifest()).encode("utf-8"),
        )
        assert status == 503
        assert json.loads(body)["reason"] == "draining"
        assert "retry-after" in headers

        # The in-flight job still completes successfully.
        release.set()
        worker.join(timeout=30)
        drainer.join(timeout=30)
        assert not worker.is_alive() and not drainer.is_alive()
        assert inflight == [200]
