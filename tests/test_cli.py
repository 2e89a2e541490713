"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


def test_demo(capsys):
    assert main(["demo", "--kernel", "dct", "-R", "3"]) == 0
    out = capsys.readouterr().out
    assert "dct4" in out
    assert "registers used" in out


def test_compare(capsys):
    assert main(["compare", "--kernel", "fir", "--taps", "5", "-R", "3"]) == 0
    out = capsys.readouterr().out
    assert "two-phase" in out
    assert "improvement over best baseline" in out


def test_table1(capsys):
    assert main(["table1", "-R", "16"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out
    assert "f/4" in out


def test_figures(capsys):
    assert main(["figures"]) == 0
    out = capsys.readouterr().out
    assert "figure 3" in out
    assert "figure 4" in out


def test_requires_command():
    with pytest.raises(SystemExit):
        main([])


def test_activity_model_option(capsys):
    assert main(
        ["compare", "--kernel", "dct", "-R", "3", "--model", "activity"]
    ) == 0


def test_chart(capsys):
    assert main(["chart", "--kernel", "dct", "-R", "3"]) == 0
    out = capsys.readouterr().out
    assert "step" in out
    assert "legend" in out


def test_diagnose_feasible(capsys):
    assert (
        main(["diagnose", "--kernel", "dct", "-R", "9", "--divisor", "1"])
        == 0
    )
    assert "feasible" in capsys.readouterr().out


def test_diagnose_infeasible_exit_code(capsys):
    code = main(
        ["diagnose", "--kernel", "fir", "--taps", "6", "-R", "2",
         "--divisor", "4"]
    )
    assert code == 1
    assert "needs R>=" in capsys.readouterr().out


def test_offsets(capsys):
    assert main(["offsets", "--kernel", "fir", "--taps", "5", "-R", "2"]) == 0
    out = capsys.readouterr().out
    assert "AR update cost" in out
    assert "MOA with 2 address registers" in out


def test_offsets_no_memory_traffic(capsys):
    assert main(["offsets", "--kernel", "dct", "-R", "16"]) == 0
    assert "no memory traffic" in capsys.readouterr().out


def test_explore(capsys):
    assert main(["explore", "--kernel", "dct"]) == 0
    out = capsys.readouterr().out
    assert "design space" in out
    assert "pareto frontier" in out


def test_profile_emits_json_run_report(capsys):
    assert main(["profile", "fir", "--taps", "5", "-R", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["schema"] == "repro.obs/run-report/v1"
    assert report["workload"] == "fir"
    assert "pipeline.allocate" in report["stages"]
    counters = report["trace"]["counters"]
    assert counters["ssp.dijkstra_pops"] > 0
    assert counters["ssp.augmenting_paths"] > 0
    assert counters["network.arcs_built"] > 0
    assert report["allocation"]["registers_used"] >= 1


def test_profile_defaults_to_quickstart_workload(capsys):
    assert main(["profile"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["workload"] == "fir"
    assert report["params"]["registers"] == 4


def test_profile_table_format(capsys):
    assert main(["profile", "dct", "-R", "3", "--format", "table"]) == 0
    out = capsys.readouterr().out
    assert "run report" in out
    assert "ssp.dijkstra_pops" in out


def test_profile_csv_to_file(tmp_path, capsys):
    target = tmp_path / "report.csv"
    assert main(
        ["profile", "fir", "--taps", "4", "-R", "2",
         "--format", "csv", "--output", str(target)]
    ) == 0
    assert "wrote csv run report" in capsys.readouterr().out
    lines = target.read_text().splitlines()
    assert lines[0] == "kind,name,value"
    assert any(line.startswith("counter,ssp.augmenting_paths,") for line in lines)


def test_profile_unwritable_output_is_a_clean_error(capsys):
    code = main(
        ["profile", "fir", "--taps", "4", "-R", "2",
         "--output", "/nonexistent-dir/report.json"]
    )
    assert code == 1
    assert "cannot write" in capsys.readouterr().err


def test_cli_docstring_mentions_all_commands():
    import repro.cli as cli

    for command in (
        "demo", "compare", "table1", "figures", "chart", "diagnose",
        "offsets", "explore", "profile", "fuzz", "dag", "batch", "serve",
    ):
        assert command in cli.__doc__


def test_fuzz_smoke(capsys):
    assert main(["fuzz", "--seed", "0", "--iters", "5"]) == 0
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["schema"] == "repro.verify/fuzz-report/v1"
    assert report["statuses"]["violation"] == 0
    assert report["failures"] == []
    assert "5 cases" in captured.err


def test_fuzz_to_file(tmp_path, capsys):
    target = tmp_path / "fuzz.json"
    assert main(
        ["fuzz", "--seed", "1", "--iters", "4", "--output", str(target)]
    ) == 0
    assert "wrote fuzz report" in capsys.readouterr().out
    report = json.loads(target.read_text())
    assert report["seed"] == 1
    assert report["iterations"] == 4


@pytest.mark.parametrize("family", ["classic", "banked", "dag"])
def test_fuzz_rejects_a_negative_iteration_count(family, capsys):
    assert main(["fuzz", "--iters", "-3", "--family", family]) == 2
    captured = capsys.readouterr()
    assert "error: fuzz iterations must be >= 0, got -3" in captured.err
    assert captured.out == ""


def test_fuzz_unwritable_output_is_a_clean_error(capsys):
    code = main(
        ["fuzz", "--iters", "1", "--output", "/nonexistent-dir/fuzz.json"]
    )
    assert code == 1
    assert "cannot write" in capsys.readouterr().err


def _batch_manifest(tmp_path, jobs=None):
    manifest = {
        "schema": "repro.service/manifest/v1",
        "defaults": {"seed": 2024},
        "jobs": jobs
        or [
            {"kind": "figure", "name": "fig3"},
            {"kind": "kernel", "name": "fir", "taps": 6, "registers": 3},
            {"kind": "random", "count": 3, "variables": 6, "horizon": 10,
             "seed": 4, "registers": 2},
        ],
    }
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    return str(path)


def test_batch_json_report(tmp_path, capsys):
    assert main(["batch", _batch_manifest(tmp_path)]) == 0
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["schema"] == "repro.service/batch-report/v1"
    assert report["totals"]["jobs"] == 5
    assert report["totals"]["ok"] == 5
    assert report["totals"]["by_solver"] == {"ssp": 5}
    assert all(job["exact"] for job in report["jobs"])
    assert "5 jobs, 5 ok" in captured.err


def test_batch_second_run_is_cache_served(tmp_path, capsys):
    manifest = _batch_manifest(tmp_path)
    cache_dir = str(tmp_path / "cache")
    assert main(["batch", manifest, "--cache-dir", cache_dir]) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(["batch", manifest, "--cache-dir", cache_dir]) == 0
    second = json.loads(capsys.readouterr().out)
    assert first["totals"]["cached"] == 0
    assert second["totals"]["cached"] == second["totals"]["jobs"]
    assert second["totals"]["cache"]["hit_rate"] >= 0.9
    # Byte-identical energies across runs.
    assert [j["objective"] for j in second["jobs"]] == [
        j["objective"] for j in first["jobs"]
    ]


def test_batch_text_format_to_file(tmp_path, capsys):
    target = tmp_path / "report.txt"
    assert main(
        ["batch", _batch_manifest(tmp_path), "--format", "text",
         "--output", str(target)]
    ) == 0
    assert "wrote batch report" in capsys.readouterr().out
    text = target.read_text()
    assert "batch report" in text and "fig3" in text


def test_batch_bad_manifest_is_a_clean_error(tmp_path, capsys):
    missing = str(tmp_path / "absent.json")
    assert main(["batch", missing]) == 2
    assert "cannot read manifest" in capsys.readouterr().err


def test_batch_solver_error_exits_nonzero(tmp_path, capsys, monkeypatch):
    from repro.flow.kernel import FlowKernel

    def broken_solve_many(self, sources, sinks, flow_values, labels=None):
        raise ArithmeticError("negative reduced cost on a tree arc")

    monkeypatch.setattr(FlowKernel, "solve_many", broken_solve_many)
    manifest = _batch_manifest(
        tmp_path,
        jobs=[{"kind": "random", "variables": 5, "horizon": 8, "seed": 1,
               "registers": 2}],
    )
    code = main(["batch", manifest, "--cache-dir", str(tmp_path / "c")])
    assert code == 1
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["totals"]["failed"] == 1
    assert report["jobs"][0]["error"].startswith("ArithmeticError: ")
    assert "1 failed" in captured.err
    assert not list((tmp_path / "c").rglob("*.json"))  # nothing cached


@pytest.mark.parametrize(
    "argv",
    [
        ["batch", "m.json", "--retries", "1"],
        ["batch", "m.json", "--inject-fault", "ssp"],
        ["batch", "m.json", "--chunksize", "4"],
        ["serve", "--retries", "1"],
        ["serve", "--chunksize", "4"],
        ["serve", "--lint", "error"],
        ["serve", "--shard-width", "2"],
    ],
)
def test_removed_solver_knobs_are_unknown_flags(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_serve_rejects_bad_tunables(capsys):
    # Validation failures surface as exit 2 + a message, no traceback,
    # and happen before any socket is bound.
    assert main(["serve", "--queue-capacity", "0"]) == 2
    assert "capacity" in capsys.readouterr().err
    assert main(["serve", "--workers", "0"]) == 2
    assert "workers" in capsys.readouterr().err


def test_batch_sarif_merges_one_run_per_job(tmp_path):
    manifest = _batch_manifest(tmp_path)
    target = tmp_path / "merged.sarif"
    assert main(["batch", manifest, "--sarif", str(target)]) == 0
    doc = json.loads(target.read_text(encoding="utf-8"))
    assert doc["version"] == "2.1.0"
    assert len(doc["runs"]) == 5  # one run per manifest job
    jobs = [run["properties"]["job"] for run in doc["runs"]]
    assert "fig3" in jobs and len(jobs) == len(set(jobs))
    assert all(run["properties"]["blocking"] is False for run in doc["runs"])


def test_batch_lint_gate_rejects_provably_bad_jobs(tmp_path, capsys):
    manifest = _batch_manifest(
        tmp_path,
        jobs=[
            {"kind": "kernel", "name": "fir", "taps": 6, "registers": 3},
            {"kind": "figure", "name": "fig3", "registers": 0, "divisor": 2},
        ],
    )
    target = tmp_path / "merged.sarif"
    code = main(
        ["batch", manifest, "--lint", "error", "--sarif", str(target),
         "-o", str(tmp_path / "report.json")]
    )
    assert code == 1
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["totals"]["rejected"] == 1
    statuses = {job["job_id"]: job["status"] for job in report["jobs"]}
    assert statuses["fig3"] == "rejected"
    doc = json.loads(target.read_text(encoding="utf-8"))
    blocked = [r for r in doc["runs"] if r["properties"]["blocking"]]
    assert len(blocked) == 1
    assert any(
        res["ruleId"] == "RA601" for res in blocked[0]["results"]
    )


def test_dag_json_report(capsys):
    assert main(["dag", "diamond", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["schema"] == "repro.dag/report/v1"
    assert report["graph"] == "diamond"
    assert report["tasks"] == 4
    assert all(b["job"]["status"] == "ok" for b in report["blocks"])
    assert all(b["job"]["certified"] for b in report["blocks"])
    assert len(report["frontier"]) >= 2


def test_dag_text_report(capsys):
    assert main(["dag", "fanin", "--cores", "3"]) == 0
    out = capsys.readouterr().out
    assert "fanin" in out
    assert "frontier" in out
    assert "per frame" in out


def test_dag_emits_replayable_manifest(tmp_path, capsys):
    out_dir = tmp_path / "dagjobs"
    assert main(
        ["dag", "diamond", "--format", "json",
         "--emit-manifest", str(out_dir)]
    ) == 0
    captured = capsys.readouterr()
    assert "wrote batch manifest" in captured.err
    manifest = out_dir / "diamond.manifest.json"
    assert manifest.exists()
    dag_report = json.loads(captured.out)

    # The emitted manifest replays through the ordinary batch command
    # and lands on the same objectives.
    assert main(["batch", str(manifest)]) == 0
    batch_report = json.loads(capsys.readouterr().out)
    assert batch_report["totals"]["ok"] == dag_report["tasks"]
    by_job = {j["job_id"]: j["objective"] for j in batch_report["jobs"]}
    for block in dag_report["blocks"]:
        assert by_job[block["job"]["job_id"]] == pytest.approx(
            block["job"]["objective"]
        )


def test_dag_output_to_file(tmp_path, capsys):
    target = tmp_path / "dag.json"
    assert main(
        ["dag", "diamond", "--format", "json", "-o", str(target)]
    ) == 0
    assert "wrote dag report" in capsys.readouterr().out
    assert json.loads(target.read_text())["schema"] == "repro.dag/report/v1"


def test_dag_infeasible_deadline_is_a_clean_error(capsys):
    code = main(["dag", "diamond", "--deadline", "1"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_dag_rejects_unknown_workload():
    with pytest.raises(SystemExit):
        main(["dag", "moebius"])


def test_lint_covers_dag_workloads(capsys):
    assert main(["lint", "diamond", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"front", "left", "right", "back"}
    for entry in report.values():
        assert entry["schema"] == "repro.lint/report/v1"
        assert "diagnostics" in entry


def test_profile_covers_dag_workloads(capsys):
    assert main(["profile", "fanin", "-R", "4"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["workload"] == "fanin"
    assert report["params"]["tasks"] == 5
    assert report["params"]["energy_per_frame"] > 0


def test_fuzz_dag_family(capsys):
    assert main(
        ["fuzz", "--family", "dag", "--seed", "5", "--iters", "2"]
    ) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["family"] == "dag"
    assert report["statuses"]["violation"] == 0
