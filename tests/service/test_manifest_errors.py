"""A manifest job whose own parameters do not build is a client error.

On every surface: ``Manifest.build`` raises ``ServiceError`` naming the
job, ``POST /v1/batch`` answers 400 before admission (with or without
the lint gate), ``POST /v1/lint`` answers 400, and ``repro-alloc batch``
prints one ``error:`` line and exits 2.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.exceptions import ServiceError
from repro.service.manifest import parse_manifest
from repro.service.server import ServerConfig

from .conftest import ServerHarness, tiny_manifest

#: One job each whose parameters are wrong for the kind it names.
BAD_JOBS = {
    "unknown-kernel": {"kind": "kernel", "name": "nope"},
    "unknown-figure": {"kind": "figure", "name": "fig9"},
    "negative-registers": {
        "kind": "random", "variables": 6, "horizon": 8, "registers": -1,
    },
    "non-integer-registers": {
        "kind": "random", "variables": 6, "horizon": 8, "registers": "abc",
    },
    "negative-taps": {"kind": "kernel", "name": "fir", "taps": -3},
    "negative-voltage": {
        "kind": "kernel", "name": "fir", "taps": 4, "voltage": -1,
    },
    # Python's json reads (and writes) NaN and Infinity tokens.
    "nan-voltage": {
        "kind": "kernel", "name": "fir", "registers": 4, "voltage": float("nan"),
    },
    "infinite-voltage": {
        "kind": "kernel", "name": "fir", "registers": 4, "voltage": float("inf"),
    },
    "zero-divisor": {"kind": "kernel", "name": "fir", "taps": 4, "divisor": 0},
}

bad_jobs = pytest.mark.parametrize(
    "job", list(BAD_JOBS.values()), ids=list(BAD_JOBS)
)


@bad_jobs
def test_build_names_the_job_that_does_not_build(job):
    good = {"kind": "random", "variables": 6, "horizon": 8, "seed": 1}
    manifest = parse_manifest(tiny_manifest(jobs=[good, job]))
    with pytest.raises(ServiceError, match=r"^jobs\[1\]: "):
        manifest.build()


@pytest.mark.parametrize("divisor", [0, -2])
def test_a_divisor_below_one_is_rejected(divisor):
    manifest = parse_manifest(
        tiny_manifest(jobs=[{"kind": "figure", "name": "fig3"}], divisor=divisor)
    )
    with pytest.raises(ServiceError, match="divisor must be >= 1"):
        manifest.build()


@bad_jobs
@pytest.mark.parametrize("admission_lint", ["error", None])
def test_batch_answers_400_before_admission(job, admission_lint):
    config = ServerConfig(admission_lint=admission_lint)
    with ServerHarness(config) as harness:
        status, _, body = harness.post_json(
            "/v1/batch", tiny_manifest(jobs=[job])
        )
        admitted = harness.server.admission.stats()["admitted_jobs"]
    assert status == 400
    assert "jobs[0]" in body["error"]
    assert admitted == 0


@bad_jobs
def test_lint_answers_400(job):
    with ServerHarness(ServerConfig()) as harness:
        status, _, body = harness.post_json(
            "/v1/lint", tiny_manifest(jobs=[job])
        )
    assert status == 400
    assert "jobs[0]" in body["error"]


@bad_jobs
def test_batch_cli_exits_2_with_one_error_line(job, tmp_path, capsys):
    manifest = tmp_path / "bad.json"
    manifest.write_text(json.dumps(tiny_manifest(jobs=[job])))
    assert main(["batch", str(manifest), "--no-cache"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: jobs[0]: ")
    assert "Traceback" not in err
