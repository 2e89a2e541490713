"""Answer checks, run outside the timed region.

* Default-seed energies are compared with ``reference.json``.
* The paper's worked examples are solved once per run and compared with
  their pinned energies and memory-access counts.
* On every seed, a seeded sample of solved jobs is re-derived from its
  manifest and cross-checked against the scipy LP of the same network.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")

#: The seed whose answers ``reference.json`` holds (the ``--seed`` default).
REFERENCE_SEED = 0

#: Relative tolerance of every energy comparison.
REL_TOL = 1e-6

#: The paper's worked examples, solved through the workload's own path.
PAPER_MANIFEST = {
    "schema": "repro.service/manifest/v1",
    "jobs": [
        {"kind": "figure", "name": "fig1", "registers": 2, "label": "fig1-R2"},
        {"kind": "figure", "name": "fig1", "registers": 3, "label": "fig1-R3"},
        {"kind": "figure", "name": "fig3", "registers": 1, "label": "fig3-R1"},
        {"kind": "figure", "name": "fig4", "registers": 1, "label": "fig4-R1"},
    ],
}

#: Pinned paper numbers: Fig. 1 energies at R = 2 and R = 3 (three
#: storage units overflow at the density-3 regions / everything fits), and
#: the four memory accesses of the Fig. 3b and Fig. 4c solutions at R = 1.
PAPER_ENERGY = {"fig1-R2": 21.0, "fig1-R3": 7.5}
PAPER_MEM_ACCESSES = {"fig3-R1": 4, "fig4-R1": 4}

#: Jobs per run cross-checked against the LP.
LP_SAMPLE = 4


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * (1.0 + abs(b))


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def job_problems(report: dict, expected_jobs: int) -> list[str]:
    """Why a batch report is not a full set of exact, solved jobs."""
    jobs = report.get("jobs", [])
    problems = [
        f"{job['job_id']}: {job['status']} via {job['solver']}"
        for job in jobs
        if job["status"] != "ok" or job["solver"] != "ssp" or not job.get("exact")
    ]
    if len(jobs) != expected_jobs:
        problems.append(f"{len(jobs)} jobs, expected {expected_jobs}")
    return problems


def energies(report: dict) -> list[float]:
    return [job["objective"] for job in report["jobs"]]


def compare(label: str, got: list[float], want: list[float]) -> list[str]:
    if len(got) != len(want) or not all(map(close, got, want)):
        return [f"{label}: energies {got} differ from the reference {want}"]
    return []


def paper_problems(report: dict, reference: dict) -> list[str]:
    """Compare a solved :data:`PAPER_MANIFEST` with the pinned numbers."""
    jobs = {job["job_id"]: job for job in report.get("jobs", [])}
    problems = job_problems(report, len(PAPER_MANIFEST["jobs"]))
    pinned = {**reference["paper"], **PAPER_ENERGY}
    for label, want in pinned.items():
        got = jobs.get(label, {}).get("objective")
        if got is None or not close(got, want):
            problems.append(f"paper {label}: energy {got}, pinned {want}")
    for label, want in PAPER_MEM_ACCESSES.items():
        got = jobs.get(label, {}).get("mem_accesses")
        if got != want:
            problems.append(f"paper {label}: {got} memory accesses, pinned {want}")
    return problems


def lp_sample(seed: int, candidates: list, size: int = LP_SAMPLE) -> list:
    """A seeded sample of ``(document, job label, objective)`` candidates."""
    rng = random.Random(f"{seed}:lp")
    return rng.sample(candidates, min(size, len(candidates)))


def lp_problems(document: dict, label: str, objective: float) -> list[str]:
    """Re-solve one manifest job as the section-4 LP and compare."""
    from repro.core.network_builder import build_network
    from repro.flow.lp_check import lp_min_cost
    from repro.service.manifest import parse_manifest

    built_jobs = {w.label: w for w in parse_manifest(document).build()}
    problem = built_jobs[label].problem
    built = build_network(problem)
    lp = problem.constant_energy() + lp_min_cost(
        built.network, built.source, built.sink, built.flow_value
    )
    if not close(objective, lp):
        return [f"{label}: energy {objective} but the LP optimum is {lp}"]
    return []
