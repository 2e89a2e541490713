"""Regenerate ``reference.json``, the answers of the default seed.

Usage, from the root of a checkout::

    PYTHONPATH=src python3 perfbench/make_reference.py

Solves the first ops of every workload at the reference seed through the
in-process ``repro-alloc`` entry point and writes their energies. Runs
compare their default-seed answers with this file, so regenerate it only
when a change is meant to alter answers.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import checks
import inputs
from workloads import ServeLoad

BATCH_OPS = 200
SERVE_REQUESTS = 800
DAG_OPS = 500


def _cli(argv: list[str]) -> dict:
    from repro.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"{argv} exited with {code}")
    return json.loads(out.getvalue())


def _batch(document: dict, scratch: Path) -> dict:
    path = scratch / "manifest.json"
    path.write_bytes(inputs.encode(document))
    report = _cli(["batch", str(path), "--format", "json"])
    problems = checks.job_problems(report, len(report["jobs"]))
    if problems:
        raise RuntimeError("; ".join(problems))
    return report


def _rounded(values: list[float]) -> list[float]:
    return [round(value, 9) for value in values]


def main() -> None:
    seed = checks.REFERENCE_SEED
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        scratch = Path(tmp)
        paper = _batch(checks.PAPER_MANIFEST, scratch)
        batch = [
            _rounded(checks.energies(_batch(inputs.batch_manifest(seed, i), scratch)))
            for i in range(BATCH_OPS)
        ]
        serve = {
            str(request.index): _rounded(
                checks.energies(_batch(json.loads(request.body), scratch))
            )
            for request in inputs.serve_schedule(seed, SERVE_REQUESTS, ServeLoad.RATE)
            if request.kind in ("fresh", "sweep")
        }
    dag = []
    for i in range(DAG_OPS):
        report = _cli(inputs.dag_argv(seed, i))
        dag.append(round(report["energy"]["total"], 9))
    reference = {
        "seed": seed,
        "paper": {
            job["job_id"]: job["objective"]
            for job in paper["jobs"]
            if job["job_id"] not in checks.PAPER_ENERGY
        },
        "batch": batch,
        "serve": serve,
        "dag": dag,
    }
    checks.REFERENCE.write_text(json.dumps(reference, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
