"""Admission-time lint gating over HTTP: the serving acceptance bars.

* a corrupted manifest POSTed to ``/v1/batch`` is rejected ``422`` with
  a SARIF body carrying RA6xx proof evidence, and **zero** flow solves
  happen for it;
* re-POSTing a clean manifest shows ``service.lint.cache_hit >= 1`` on
  ``/metrics`` (verdicts are cached by digest + schedule fingerprint);
* ``POST /v1/lint`` analyses without solving and answers 200, unless
  the manifest carries more jobs than the admission queue holds (413,
  nothing linted);
* ``--admission-lint never`` lints without rejecting, ``off`` disables
  the gate.
"""

from __future__ import annotations

from repro.service.server import ServerConfig

from .conftest import ServerHarness, tiny_manifest

CORRUPTED = {
    "schema": "repro.service/manifest/v1",
    "jobs": [
        {"kind": "figure", "name": "fig3", "registers": 0, "divisor": 2}
    ],
}

CLEAN = {
    "schema": "repro.service/manifest/v1",
    "jobs": [
        {"kind": "kernel", "name": "fir", "taps": 6, "seed": 3,
         "registers": 4}
    ],
}


def _counters(harness) -> dict:
    status, metrics = harness.get_json("/metrics")
    assert status == 200
    return metrics["counters"]


def test_corrupted_manifest_rejected_422_with_sarif_and_no_solve():
    with ServerHarness(ServerConfig()) as harness:
        status, _, body = harness.post_json("/v1/batch", CORRUPTED)
        assert status == 422
        assert "rejected" in body["error"]
        assert body["rejected_jobs"] == ["fig3"]
        sarif = body["sarif"]
        assert sarif["version"] == "2.1.0"
        assert len(sarif["runs"]) == 1
        results = sarif["runs"][0]["results"]
        rule_ids = {r["ruleId"] for r in results}
        assert "RA601" in rule_ids
        proof = next(r for r in results if r["ruleId"] == "RA601")
        evidence = proof["properties"]["evidence"]
        assert evidence["checked"] is True
        assert evidence["required"] > evidence["available"]

        counters = _counters(harness)
        assert counters.get("solver.flow_solve.calls", 0) == 0
        assert counters["service.lint.rejected_requests"] == 1
        status, metrics = harness.get_json("/metrics")
        assert metrics["lint"]["blocked"] >= 1


def test_repeated_clean_manifest_hits_the_lint_cache():
    with ServerHarness(ServerConfig()) as harness:
        status1, _, report1 = harness.post_json("/v1/batch", CLEAN)
        status2, _, report2 = harness.post_json("/v1/batch", CLEAN)
        assert status1 == status2 == 200
        assert report1["totals"]["ok"] == report2["totals"]["ok"] == 1
        assert report2["totals"]["cached"] == 1
        counters = _counters(harness)
        assert counters["service.lint.cache_hit"] >= 1


def test_lint_endpoint_analyses_without_solving():
    with ServerHarness(ServerConfig()) as harness:
        status, _, sarif = harness.post_json("/v1/lint", CORRUPTED)
        assert status == 200
        assert sarif["version"] == "2.1.0"
        run = sarif["runs"][0]
        assert run["properties"]["job"] == "fig3"
        assert run["properties"]["blocking"] is True
        assert any(r["ruleId"] == "RA601" for r in run["results"])
        counters = _counters(harness)
        assert counters.get("solver.flow_solve.calls", 0) == 0
        assert counters["service.lint.requests"] == 1


def test_lint_endpoint_refuses_more_jobs_than_the_queue_holds():
    with ServerHarness(ServerConfig(queue_capacity=4)) as harness:
        document = tiny_manifest(
            jobs=[{"kind": "random", "variables": 6, "horizon": 8,
                   "seed": 1, "count": 5}]
        )
        status, headers, body = harness.post_json("/v1/lint", document)
        assert status == 413
        assert "retry-after" not in headers
        assert "at most 4" in body["error"]
        counters = _counters(harness)
    assert counters.get("service.lint.checked", 0) == 0
    assert counters.get("network.builds", 0) == 0


def test_lint_endpoint_get_is_rejected():
    with ServerHarness(ServerConfig()) as harness:
        status, _, _ = harness.request("GET", "/v1/lint")
        assert status == 405


def test_admission_lint_never_reports_but_serves():
    with ServerHarness(ServerConfig(admission_lint="never")) as harness:
        status, _, report = harness.post_json("/v1/batch", CORRUPTED)
        # "never" still lints (verdicts cached and metered) but the
        # request proceeds; the solver then reports infeasibility.
        assert status == 200
        assert report["totals"]["rejected"] == 0
        assert report["totals"]["infeasible"] == 1
        counters = _counters(harness)
        assert counters["service.lint.checked"] >= 1
        assert "service.lint.rejected_requests" not in counters


def test_admission_lint_off_disables_the_gate():
    with ServerHarness(ServerConfig(admission_lint=None)) as harness:
        status, _, report = harness.post_json("/v1/batch", CORRUPTED)
        assert status == 200
        assert report["totals"]["infeasible"] == 1
        counters = _counters(harness)
        assert "service.lint.checked" not in counters


def test_clean_tiny_manifest_passes_the_gate():
    with ServerHarness(ServerConfig()) as harness:
        status, _, report = harness.post_json("/v1/batch", tiny_manifest())
        assert status == 200
        assert report["totals"]["ok"] == report["totals"]["jobs"]
