"""CLI surface of the storage hierarchy: bank flags on demo/explore/
fuzz/batch."""

import json

from repro.cli import main
from repro.core import StorageSpec, allocate, allocate_block
from repro.service import SolveSummary, canonicalize, load_manifest
from repro.workloads.registry import kernel_block

#: The hierarchy ``--banks 2 --bank-period 2`` describes.
TWO_BANKS = StorageSpec.banked(2, 2)

#: The report fields a job's answer is compared on.
ANSWER = (
    "objective", "mem_accesses", "reg_accesses", "registers_used",
    "address_count",
)


def _answers_match(job: dict, summary: SolveSummary) -> None:
    assert job["status"] == "ok"
    assert job["key"] == summary.key
    for field in ANSWER:
        assert job[field] == getattr(summary, field), field


def test_demo_with_banks(capsys):
    code = main(
        ["demo", "--kernel", "fir", "--taps", "4", "-R", "4",
         "--banks", "2", "--bank-period", "2"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "registers used" in out


def test_demo_banks_give_the_banked_allocation(capsys):
    code = main(
        ["demo", "--kernel", "fir", "--taps", "4", "-R", "4",
         "--banks", "2", "--bank-period", "2"]
    )
    assert code == 0
    banked = allocate_block(
        kernel_block("fir", taps=4, seed=2024),
        register_count=4,
        storage=TWO_BANKS,
    )
    assert capsys.readouterr().out == banked.summary() + "\n"


def test_explore_banked_sweep(capsys):
    code = main(
        ["explore", "--kernel", "fir", "--taps", "4", "--banks", "2"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "storage space" in out
    assert "best point" in out


def test_explore_without_banks_keeps_classic_table(capsys):
    assert main(["explore", "--kernel", "fir", "--taps", "4"]) == 0
    out = capsys.readouterr().out
    assert "pareto frontier" in out


def test_fuzz_banked_family(capsys, tmp_path):
    report_path = tmp_path / "fuzz.json"
    code = main(
        ["fuzz", "--seed", "7", "--iters", "6", "--family", "banked",
         "--output", str(report_path)]
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["family"] == "banked"
    assert report["statuses"]["violation"] == 0


def test_batch_with_bank_flags(capsys, tmp_path):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({
        "schema": "repro.service/manifest/v1",
        "jobs": [{"kind": "figure", "name": "fig3", "registers": 2}],
    }))
    out_path = tmp_path / "report.json"
    code = main(
        ["batch", str(manifest), "--banks", "2", "--bank-period", "2",
         "--output", str(out_path)]
    )
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["totals"]["jobs"] == 1
    assert report["totals"]["failed"] == 0


def test_batch_multibank_manifest_certifies(tmp_path):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({
        "schema": "repro.service/manifest/v2",
        "jobs": [{"kind": "figure", "name": "fig3", "registers": 2,
                  "storage": {"banks": 2, "period": 2}}],
    }))
    out_path = tmp_path / "report.json"
    code = main(
        ["batch", str(manifest), "--lint", "error",
         "--certify-fraction", "1.0", "--output", str(out_path)]
    )
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["totals"]["certified"] == 1
    assert report["jobs"][0]["status"] == "ok"


def test_batch_banks_give_each_job_the_banked_answer(tmp_path, capsys):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({
        "schema": "repro.service/manifest/v1",
        "jobs": [
            {"kind": "figure", "name": "fig3", "registers": 2},
            {"kind": "random", "variables": 6, "horizon": 8, "seed": 1,
             "registers": 3},
        ],
    }))
    out_path = tmp_path / "report.json"
    code = main(
        ["batch", str(manifest), "--banks", "2", "--bank-period", "2",
         "--no-cache", "--output", str(out_path)]
    )
    assert code == 0
    jobs = json.loads(out_path.read_text())["jobs"]
    workloads = load_manifest(manifest).build()
    assert len(jobs) == len(workloads) == 2
    for job, workload in zip(jobs, workloads):
        problem = workload.problem.with_options(storage=TWO_BANKS)
        _answers_match(
            job,
            SolveSummary.from_allocation(
                allocate(problem), canonicalize(problem).key
            ),
        )


def test_batch_banks_leave_a_jobs_own_storage_alone(tmp_path, capsys):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({
        "schema": "repro.service/manifest/v2",
        "jobs": [{"kind": "figure", "name": "fig3", "registers": 2,
                  "storage": {"banks": 3, "period": 3}}],
    }))
    out_path = tmp_path / "report.json"
    code = main(
        ["batch", str(manifest), "--banks", "2", "--bank-period", "2",
         "--no-cache", "--output", str(out_path)]
    )
    assert code == 0
    [job] = json.loads(out_path.read_text())["jobs"]
    [workload] = load_manifest(manifest).build()
    assert len(workload.problem.storage.banks) == 3
    _answers_match(
        job,
        SolveSummary.from_allocation(
            allocate(workload.problem), canonicalize(workload.problem).key
        ),
    )
