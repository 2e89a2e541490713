"""Benchmark of the batch, pool, serve and dag paths of ``repro-alloc``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload batch-inline --seed 0 --seconds 16 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
loop with per-layer timing on every other op (or phase) and prints the
per-layer metrics. Either way the answers are checked, and the last line
of standard output is one JSON object::

    {"correct": true, "attempted": 130, "failed": 0, "metrics": {...}}

The program is run from the checkout's ``src`` directory; scratch files
go under ``.bench_build/`` and are removed at exit.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

WORKLOADS = ("batch-inline", "batch-pool", "serve-mixed", "dag")

#: Fresh-interpreter starts per run; ``setup_s`` is their median. They
#: are spread over the run (:meth:`run` of each workload), so a few slow
#: seconds of the host cannot slow them all.
COLD_STARTS = 12

#: ``repro.obs`` counters the per-layer metrics are computed from.
COUNTERS = (
    "network.arcs_built",
    "service.cache.hit",
    "service.cache.miss",
    "service.lint.cache_hit",
    "service.lint.cache_miss",
    "solver.warm_start.cold",
    "solver.warm_start.incremental",
    "solver.warm_start.replay",
)

#: Per-layer metric → layer in the tracer table; the value is the layer's
#: self time per traced op, in ms.
SELF_TIME_METRICS = {
    "manifest.build_ms": "manifest",
    "canonical.ms": "canonical",
    "lintgate.ms": "lintgate",
    "cache.get_ms": "cache.get",
    "admission.ms": "admission",
    "report.ms": "report",
    "network_builder.ms": "network_builder",
    "flow.solve_ms": "flow.solve",
    "warm_start.ms": "warm_start",
    "validate.ms": "validate",
    "extract.ms": "extract",
    "banking.ms": "banking",
    "certify.ms": "certify",
    "dag.partition_ms": "dag.partition",
    "dag.sweep_ms": "dag.sweep",
    "dag.dispatch_ms": "dag.dispatch",
    "dag.report_ms": "dag.report",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def make_workload(name: str, root: Path, workdir: Path, seed: int, tracer):
    from workloads import BatchLoop, DagLoop, ServeLoad

    if name == "batch-inline":
        return BatchLoop(workdir, seed, tracer, workers=1)
    if name == "batch-pool":
        return BatchLoop(workdir, seed, tracer, workers=2)
    if name == "dag":
        return DagLoop(workdir, seed, tracer)
    return ServeLoad(root, workdir, seed, tracer)


def cold_start(name: str, seed: int, root: Path, workdir: Path) -> tuple[float, float]:
    """Seconds from spawning a fresh interpreter to its ``ready`` line.

    Returns:
        ``(seconds, scale)``: the wall time and the host-speed factor
        (:mod:`calibrate`) from the samples just before and after it.
        Groups of nine starts spread over a minute had medians 27% apart
        in wall time and 7% apart once scaled: a start's imports slow
        down with the host as much as the snippet does.
    """
    from calibrate import REFERENCE_MS, sample_ms
    from serving import program_env

    before = sample_ms()
    with open(workdir / "coldstart.log", "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "coldstart.py"), name, str(seed), str(workdir)],
            cwd=root,
            env=program_env(root),
            stdout=subprocess.PIPE,
            stderr=log,
        )
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        proc.stdout.close()
        code = proc.wait(timeout=60)
    if line.strip() != b"ready" or code != 0:
        raise RuntimeError(f"cold start of {name} failed (exit {code})")
    return elapsed, 2 * REFERENCE_MS / (before + sample_ms())


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(loop, table, counters, pool_overhead_s, per_op, counter_ops) -> dict:
    """The per-layer metrics of a traced run, by name → (value, unit).

    Layer times are averaged over the *per_op* ops that ran traced;
    counter totals over the *counter_ops* ops they were read across.
    """
    from metrics import percentile

    metrics = {
        name: (_ratio(table.get(layer, {}).get("self_ms", 0.0), per_op), "ms")
        for name, layer in SELF_TIME_METRICS.items()
    }
    lint_hits = counters.get("service.lint.cache_hit", 0)
    lint_misses = counters.get("service.lint.cache_miss", 0)
    hits = counters.get("service.cache.hit", 0)
    misses = counters.get("service.cache.miss", 0)
    cold = counters.get("solver.warm_start.cold", 0)
    incremental = counters.get("solver.warm_start.incremental", 0)
    traced = [ms for ms, on in zip(loop.scaled_ms, loop.traced) if on]
    untraced = [ms for ms, on in zip(loop.scaled_ms, loop.traced) if not on]
    traced_p50 = percentile(traced, 50)
    untraced_p50 = percentile(untraced, 50)
    overhead = (
        (traced_p50 / untraced_p50 - 1.0) * 100.0
        if traced_p50 and untraced_p50
        else 0.0
    )
    metrics.update(
        {
            "network_builder.arcs": (
                _ratio(counters.get("network.arcs_built", 0), counter_ops), "count"
            ),
            "executor.pool_overhead_ms": (_median(pool_overhead_s) * 1e3, "ms"),
            "lintgate.hit_ratio": (_ratio(lint_hits, lint_hits + lint_misses), "ratio"),
            "cache.hit_ratio": (_ratio(hits, hits + misses), "ratio"),
            "server.overhead_ms": (_median(loop.server_overhead_ms), "ms"),
            "flow.warm_incremental_ratio": (
                _ratio(incremental, cold + incremental), "ratio"
            ),
            "trace.overhead_pct": (overhead, "%"),
        }
    )
    return metrics


def print_layer_table(name: str, table: dict, counters: dict, per_op: float) -> None:
    print(f"per-layer table: {name}, {per_op:g} traced ops")
    print(f"  {'layer':<16} {'calls':>7} {'busy_ms':>10} {'self_ms':>10} {'p50_call_ms':>12}")
    for layer, row in table.items():
        print(
            f"  {layer:<16} {row['calls']:>7} {row['total_ms']:>10.1f} "
            f"{row['self_ms']:>10.1f} {row['p50_call_ms']:>12.3f}"
        )
    read = ", ".join(f"{key}={counters.get(key, 0):g}" for key in COUNTERS)
    print(f"  repro.obs counters: {read}")


def measure(args: argparse.Namespace, root: Path, workdir: Path) -> int:
    import checks
    from metrics import percentile, result_line
    from tracer import LayerTracer

    tracer = LayerTracer() if args.trace else None
    workload = make_workload(args.workload, root, workdir, args.seed, tracer)
    setup: list[tuple[float, float]] = []

    def pause() -> None:
        setup.append(cold_start(args.workload, args.seed, root, workdir))

    try:
        loop = workload.run(args.seconds, None if args.trace else pause, COLD_STARTS)
        workload.check(checks.load_reference())
    finally:
        server_table = workload.close()
    ops = len(loop.latencies_ms)
    failed = min(len(loop.failures), ops)
    for key, problems in list(loop.failures.items())[:20]:
        print(f"FAIL {args.workload} {key}: {'; '.join(problems)}", file=sys.stderr)

    if args.trace:
        if args.workload == "serve-mixed":
            # Every request builds its manifest once; the server's
            # counters span the whole load.
            table, counters = server_table, workload.counters
            per_op = table.get("manifest", {}).get("calls", 0)
            counter_ops = ops
            pool_overhead_s: list[float] = []
        else:
            table, counters = tracer.table(), tracer.counters
            per_op = counter_ops = sum(loop.traced)
            pool_overhead_s = tracer.pool_overhead_s
        print_layer_table(args.workload, table, counters, per_op)
        metrics = layer_metrics(
            loop, table, counters, pool_overhead_s, per_op, counter_ops
        )
    else:
        scaled = loop.scaled_ms
        metrics = {
            "setup_s": (statistics.median([wall * scale for wall, scale in setup]), "s"),
            "op_p50_ms": (percentile(scaled, 50), "ms"),
            "op_p90_ms": (percentile(scaled, 90), "ms"),
            "jobs_per_s": (_ratio(loop.jobs_ok, loop.busy_s), "1/s"),
            "peak_rss_mb": (loop.peak_rss_mb, "MB"),
        }

        def tails(samples: list[float]) -> str:
            return " ".join(
                f"p{q} " + (f"{value:.2f}" if value is not None else "n/a")
                for q in (50, 90, 99)
                for value in [percentile(samples, q)]
            )

        print(
            f"{args.workload}: {ops} ops; reference-speed ms {tails(scaled)}; "
            f"wall ms {tails(loop.latencies_ms)}; "
            f"calibration at {1 / _median(loop.scales):.3f}x its reference time; "
            f"{metrics['jobs_per_s'][0]:.1f} jobs/s; "
            f"peak RSS {loop.peak_rss_mb:.1f} MB; "
            f"setup wall s {' '.join(f'{wall:.3f}' for wall, _ in setup)}; "
            + (
                f"generator late ms p50 {_median(loop.late_ms):.2f} "
                f"max {max(loop.late_ms):.2f}; "
                if loop.late_ms
                else ""
            )
            + f"fail_ratio {_ratio(failed, ops):.4f}; "
            f"shed_ratio {_ratio(loop.shed, ops):.4f}"
        )
    # A percentile without ten samples beyond it is left out.
    metrics = {name: m for name, m in metrics.items() if m[0] is not None}
    print(result_line(not loop.failures, ops, failed, metrics))
    return 1 if loop.failures else 0


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro").is_dir():
        print(f"error: no program sources under {root / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    workdir = root / ".bench_build" / f"perfbench-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
