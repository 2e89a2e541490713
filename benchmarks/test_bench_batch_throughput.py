"""E9 — batch serving throughput: 1 worker vs N over random blocks.

The ROADMAP's production-scale direction needs the batch service
(:mod:`repro.service`) to actually buy wall time from parallelism: this
bench times one batch of seeded random instances through the executor at
1 worker (in-process) and at N workers (process pool) and asserts the
pool run is faster wherever more than one CPU exists (single-core hosts
record both timings but cannot enforce a speedup).  It also
regression-checks the cache: replaying the same batch must be served
entirely from cache, far faster than solving.
"""

import os
import time
from functools import lru_cache

import pytest

from repro.analysis import format_table
from repro.core import AllocationProblem
from repro.service import BatchExecutor, ResultCache
from repro.workloads.random_blocks import random_lifetimes, spawn_rng

JOBS = 48
VARIABLES = 60
HORIZON = 24
WORKERS = min(4, os.cpu_count() or 1)
MULTICORE = WORKERS > 1


@lru_cache(maxsize=None)
def batch_problems() -> tuple[AllocationProblem, ...]:
    problems = []
    for case in range(JOBS):
        rng = spawn_rng(17, "throughput", case)
        lifetimes = random_lifetimes(rng, VARIABLES, HORIZON)
        problems.append(AllocationProblem(lifetimes, 6, HORIZON))
    return tuple(problems)


def run_batch(workers: int, cache: ResultCache | None):
    executor = BatchExecutor(workers=workers, cache=cache)
    start = time.perf_counter()
    results = executor.map_blocks(list(batch_problems()))
    return results, time.perf_counter() - start


@lru_cache(maxsize=None)
def timings():
    serial, t_serial = run_batch(1, None)
    pooled, t_pool = run_batch(WORKERS, None) if MULTICORE else (serial, None)
    cache = ResultCache()
    BatchExecutor(workers=1, cache=cache).map_blocks(list(batch_problems()))
    cached, t_cached = run_batch(1, cache)
    return {
        "serial": (serial, t_serial),
        "pool": (pooled, t_pool),
        "cached": (cached, t_cached),
    }


def test_multi_worker_beats_serial(show, bench_report):
    with bench_report(
        "batch_throughput",
        jobs=JOBS,
        variables=VARIABLES,
        horizon=HORIZON,
        workers=WORKERS,
        cpus=os.cpu_count(),
    ):
        runs = timings()
    serial, t_serial = runs["serial"]
    pooled, t_pool = runs["pool"]
    cached, t_cached = runs["cached"]
    rows = [("serial (1 worker)", 1, round(t_serial, 4))]
    if t_pool is not None:
        rows.append((f"pool ({WORKERS} workers)", WORKERS, round(t_pool, 4)))
    rows.append(("cache replay", 1, round(t_cached, 4)))
    show(
        format_table(
            ("configuration", "workers", "seconds"),
            rows,
            title=f"Batch throughput ({JOBS} random instances, "
            f"{os.cpu_count()} CPUs)",
        )
    )
    # Every configuration solves the whole batch, identically.
    assert all(r.ok for r in serial + pooled + cached)
    assert [r.objective for r in serial] == [r.objective for r in pooled]
    assert [r.objective for r in serial] == [r.objective for r in cached]
    # The cache replay skips solving entirely.
    assert all(r.cached for r in cached)
    assert t_cached < t_serial
    if not MULTICORE:
        pytest.skip("single-CPU host: cannot demonstrate a pool speedup")
    # Parallelism must buy wall time on a CPU-bound batch.
    assert t_pool < t_serial, (
        f"{WORKERS} workers ({t_pool:.3f}s) not faster than serial "
        f"({t_serial:.3f}s)"
    )


@pytest.mark.benchmark(group="batch-throughput")
@pytest.mark.parametrize(
    "workers", sorted({1, WORKERS})
)
def test_batch_wall_time(benchmark, workers):
    results = benchmark.pedantic(
        lambda: run_batch(workers, None)[0], rounds=2, iterations=1
    )
    assert all(r.ok for r in results)
