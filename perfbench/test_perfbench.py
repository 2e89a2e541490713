"""Self-tests of the benchmark's own code.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
from pathlib import Path

import checks
import inputs
import metrics
import run


def test_same_seed_gives_identical_inputs():
    for index in (0, 1, 7, 40):
        first = inputs.encode(inputs.batch_manifest(3, index))
        assert first == inputs.encode(inputs.batch_manifest(3, index))
        assert inputs.dag_argv(3, index) == inputs.dag_argv(3, index)
    assert inputs.serve_schedule(3, 200, 20.0) == inputs.serve_schedule(3, 200, 20.0)


def test_longer_schedule_extends_shorter_one():
    assert inputs.serve_schedule(5, 300, 20.0)[:120] == inputs.serve_schedule(5, 120, 20.0)


def test_different_seeds_give_different_inputs():
    assert inputs.encode(inputs.batch_manifest(1, 0)) != inputs.encode(
        inputs.batch_manifest(2, 0)
    )
    # The graph seed alone changes no cost; the slack must differ too.
    slack = inputs.dag_argv(1, 0).index("--slack") + 1
    assert [inputs.dag_argv(1, i)[slack] for i in range(4)] != [
        inputs.dag_argv(2, i)[slack] for i in range(4)
    ]
    first = [r.body for r in inputs.serve_schedule(1, 100, 20.0)]
    second = [r.body for r in inputs.serve_schedule(2, 100, 20.0)]
    assert first != second


def test_dag_reference_holds_more_than_one_problem_per_graph():
    totals = checks.load_reference()["dag"]
    for graph in range(len(inputs.DAG_GRAPHS)):
        assert len(set(totals[graph :: len(inputs.DAG_GRAPHS)])) > 1


def test_batch_manifest_shape():
    document = inputs.batch_manifest(0, 5)
    jobs = document["jobs"]
    assert sum(job.get("count", 1) for job in jobs) == 8
    assert (jobs[1]["name"], jobs[1]["divisor"]) == inputs.KERNEL_ROTATION[5]
    assert any("storage" in job for job in jobs)


def test_serve_schedule_mix_and_repeats():
    schedule = inputs.serve_schedule(0, 400, 20.0)
    kinds = [r.kind for r in schedule]
    assert kinds.count("bad") == 20
    assert kinds.count("sweep") == 60
    by_index = {r.index: r for r in schedule}
    for request in schedule:
        assert request.due_s == request.index / 20.0
        if request.kind == "repeat":
            original = by_index[request.first]
            assert original.kind == "fresh" and original.body == request.body
            assert request.first <= request.index - 3
        if request.kind == "bad":
            assert request.expected_status == 422
    sweeps = [r.body for r in schedule if r.kind == "sweep"]
    assert len(set(sweeps)) == len(sweeps)


def test_metric_names_are_well_formed():
    names = list(run.SELF_TIME_METRICS)
    names += ["setup_s", "op_p50_ms", "op_p90_ms", "jobs_per_s", "peak_rss_mb"]
    names += [
        "network_builder.arcs",
        "executor.pool_overhead_ms",
        "lintgate.hit_ratio",
        "cache.hit_ratio",
        "server.overhead_ms",
        "flow.warm_incremental_ratio",
        "trace.overhead_pct",
    ]
    for name in names:
        assert metrics.NAME.fullmatch(name), name
    config = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text())
    declared = [m["name"] for m in config["end_to_end"] + config["per_layer"]]
    assert sorted(declared) == sorted(names)
    for name in declared:
        assert metrics.NAME.fullmatch(name), name


def test_percentile_needs_ten_samples_beyond_it():
    assert metrics.percentile(list(range(99)), 90) is None
    assert metrics.percentile(list(range(100)), 90) is not None
    assert metrics.percentile(list(range(999)), 99) is None
    assert metrics.percentile(list(range(1000)), 99) is not None
    assert metrics.percentile(list(range(19)), 50) is None
    assert metrics.percentile([1.0] * 20, 50) == 1.0


def test_percentile_interpolates():
    samples = [float(v) for v in range(1, 101)]
    assert metrics.percentile(samples, 50) == 50.5
    assert abs(metrics.percentile(samples, 90) - 90.1) < 1e-9


def test_result_line_rejects_bad_names():
    line = metrics.result_line(True, 3, 0, {"op_p50_ms": (1.5, "ms")})
    assert json.loads(line)["metrics"]["op_p50_ms"] == {"value": 1.5, "unit": "ms"}
    try:
        metrics.result_line(True, 3, 0, {"bad name": (1.0, "ms")})
    except ValueError:
        return
    raise AssertionError("a metric name with a space was accepted")
