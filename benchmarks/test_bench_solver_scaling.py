"""E8 — solver scaling: "extending this problem to very large basic
blocks ... should be a viable future research direction" (section 7).

The paper argues viability from the polynomial complexity of network flow;
this bench measures wall time of construction + solve as the block grows
and checks the growth is polynomial (doubling the size must not blow up
the time super-polynomially).

Since the struct-of-arrays kernel landed the bench also carries two
regression gates (see DESIGN.md "Performance model" and EXPERIMENTS.md):

* ``bench.speedup_vs_seed`` — cumulative ``solver.build_network`` +
  ``solver.flow_solve`` span time across ``SIZES``, divided into the same
  stages measured on the seed's per-arc object kernel
  (``SEED_STAGE_SECONDS``).  Must clear ``REPRO_BENCH_MIN_SPEEDUP``
  (default 10).
* ``bench.sweep_*`` — a voltage sweep solved as one cold solve plus N-1
  ``recost_network`` + warm-started incremental re-solves must beat the
  same sweep as N independent cold solves (each side timed best of
  ``SWEEP_REPEATS``).

Both gauges land in the committed ``BENCH_solver_scaling.json`` when
``REPRO_BENCH_REPORT_DIR`` is set; the sweep's solver spans are nested
under a ``bench.warm_sweep`` span so the top-level ``solver.*`` stage
totals stay directly comparable with the seed report.
"""

import math
import os
import random
import time
from functools import lru_cache

import pytest

from repro.analysis import format_table
from repro.core import AllocationProblem, allocate
from repro.core.network_builder import build_network, recost_network
from repro.core.options import SolveOptions
from repro.core.solver import solve_built
from repro.energy import MemoryConfig, StaticEnergyModel
from repro.flow.warm_start import WarmStartCache
from repro.obs import trace as obs
from repro.workloads.random_blocks import random_lifetimes

SIZES = (50, 100, 200, 400, 800)

# Validation is measured elsewhere; the bench times the solver alone.
FAST = SolveOptions(validate=False)

# Cumulative span seconds over SIZES measured on the seed's per-arc object
# kernel (commit ad392ad's BENCH_solver_scaling.json).  The committed JSON
# is regenerated from the current kernel; these constants pin the baseline
# the speedup gate compares against.
SEED_STAGE_SECONDS = {
    "solver.build_network": 1.868,
    "solver.flow_solve": 4.215,
}

# A fine-grained DVFS ladder: incremental re-solve work is proportional
# to how far each cost perturbation moves the optimum, so the warm path
# wins when consecutive operating points are close (0.5 V steps) and
# loses that edge on coarse jumps like 3.3 V -> 1.2 V — see the
# crossover discussion in EXPERIMENTS.md E8.
SWEEP_SIZE = 400
SWEEP_VOLTAGES = (5.0, 4.5, 4.0, 3.5, 3.0)

# Timings per side of the sweep comparison; each side keeps its best.
SWEEP_REPEATS = 3


@lru_cache(maxsize=None)
def timings():
    rows = []
    for size in SIZES:
        rng = random.Random(size)
        horizon = max(10, size // 4)
        lifetimes = random_lifetimes(rng, count=size, horizon=horizon)
        registers = max(2, size // 20)
        problem = AllocationProblem(
            lifetimes, registers, horizon, energy_model=StaticEnergyModel()
        )
        start = time.perf_counter()
        allocation = allocate(problem, FAST)
        elapsed = time.perf_counter() - start
        built_arcs = allocation.flow.network.num_arcs
        rows.append((size, registers, built_arcs, elapsed))
    return rows


def _stage_totals(trace) -> dict[str, float]:
    """Sum root-span durations by name (children are not double-counted)."""
    totals: dict[str, float] = {}
    for root in trace.roots:
        totals[root.name] = totals.get(root.name, 0.0) + root.duration
    return totals


def _sweep_problems():
    rng = random.Random(SWEEP_SIZE)
    horizon = max(10, SWEEP_SIZE // 4)
    lifetimes = random_lifetimes(rng, count=SWEEP_SIZE, horizon=horizon)
    registers = max(2, SWEEP_SIZE // 20)
    model = StaticEnergyModel()
    return [
        AllocationProblem(
            lifetimes,
            registers,
            horizon,
            energy_model=model.with_voltages(voltage, 5.0),
            memory=MemoryConfig(voltage=voltage),
        )
        for voltage in SWEEP_VOLTAGES
    ]


def _warm_sweep(problems) -> list[float]:
    """One cold solve, then a recost and warm re-solve per later point."""
    cache = WarmStartCache()
    built = build_network(problems[0])
    energies = [solve_built(built, FAST.replace(warm_cache=cache)).objective]
    for problem in problems[1:]:
        built = recost_network(built, problem)
        energies.append(
            solve_built(built, FAST.replace(warm_cache=cache)).objective
        )
    return energies


def _cold_sweep(problems) -> list[float]:
    """One independent cold solve per point."""
    return [allocate(problem, FAST).objective for problem in problems]


@lru_cache(maxsize=None)
def sweep_timings():
    """Time the voltage sweep warm (1 cold + N-1 deltas) and cold (N solves).

    Each side is timed ``SWEEP_REPEATS`` times, interleaved with the
    other, and keeps its best time: a single timing per side let one
    slow second of a shared host decide the comparison.

    Returns ``(warm_s, cold_s, warm_energies, cold_energies)``.
    """
    problems = _sweep_problems()
    best = {_warm_sweep: math.inf, _cold_sweep: math.inf}
    energies = {}
    for _ in range(SWEEP_REPEATS):
        for sweep in best:
            start = time.perf_counter()
            energies[sweep] = sweep(problems)
            best[sweep] = min(best[sweep], time.perf_counter() - start)
    return (
        best[_warm_sweep],
        best[_cold_sweep],
        energies[_warm_sweep],
        energies[_cold_sweep],
    )


def test_scaling_is_polynomial(show, bench_report):
    min_speedup = float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", "10"))
    with bench_report("solver_scaling", sizes=list(SIZES)) as trace:
        rows = timings()
        totals = _stage_totals(trace)
        measured = sum(totals.get(stage, 0.0) for stage in SEED_STAGE_SECONDS)
        speedup = sum(SEED_STAGE_SECONDS.values()) / max(measured, 1e-9)
        obs.gauge("bench.speedup_vs_seed", round(speedup, 2))
        with obs.span("bench.warm_sweep"):
            warm_s, cold_s, warm_energies, cold_energies = sweep_timings()
        obs.gauge("bench.sweep_warm_s", round(warm_s, 4))
        obs.gauge("bench.sweep_cold_s", round(cold_s, 4))
        obs.gauge("bench.sweep_speedup", round(cold_s / max(warm_s, 1e-9), 2))
    show(
        format_table(
            ("variables", "registers", "arcs", "seconds"),
            [(s, r, a, round(t, 4)) for s, r, a, t in rows],
            title="Solver scaling (construction + solve)",
        )
    )
    show(
        f"speedup vs per-arc seed: {speedup:.1f}x "
        f"(build+flow {measured:.3f}s vs {sum(SEED_STAGE_SECONDS.values()):.3f}s)\n"
        f"voltage sweep ({len(SWEEP_VOLTAGES)} points, n={SWEEP_SIZE}): "
        f"warm {warm_s:.3f}s vs cold {cold_s:.3f}s"
    )
    # Crude polynomial check: time ratio between consecutive doublings
    # stays bounded (a cubic would give ~8x; allow slack for noise).
    for (s1, _, _, t1), (s2, _, _, t2) in zip(rows, rows[1:]):
        if t1 > 0.01:  # below that, timer noise dominates
            assert t2 / t1 < 16.0, f"{s1}->{s2} grew {t2 / t1:.1f}x"
    # The largest instance still solves in interactive time.
    assert rows[-1][3] < 60.0
    # The struct-of-arrays kernel must hold its lead over the seed's
    # per-arc kernel.  REPRO_BENCH_MIN_SPEEDUP loosens the floor on
    # throttled CI runners.
    assert speedup >= min_speedup, (
        f"kernel speedup {speedup:.1f}x below the {min_speedup:.1f}x floor"
    )


def test_warm_sweep_beats_cold_solves():
    warm_s, cold_s, warm_energies, cold_energies = sweep_timings()
    assert warm_energies == pytest.approx(cold_energies, abs=1e-6)
    assert warm_s < cold_s, (
        f"warm sweep {warm_s:.3f}s did not beat {cold_s:.3f}s cold"
    )


@pytest.mark.benchmark(group="solver-scaling")
@pytest.mark.parametrize("size", (100, 400))
def test_solve_time(benchmark, size):
    rng = random.Random(size)
    horizon = max(10, size // 4)
    lifetimes = random_lifetimes(rng, count=size, horizon=horizon)
    problem = AllocationProblem(
        lifetimes,
        max(2, size // 20),
        horizon,
        energy_model=StaticEnergyModel(),
    )
    allocation = benchmark.pedantic(
        lambda: allocate(problem, FAST), rounds=3, iterations=1
    )
    assert allocation.registers_used > 0
