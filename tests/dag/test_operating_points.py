"""Tests for the per-partition DVFS co-optimiser."""

import dataclasses

import pytest

from repro.core import problem as problem_module
from repro.core.problem import AllocationProblem
from repro.core.solver import allocate
from repro.core.storage import StorageSpec
from repro.dag import (
    DELAY_SLACK,
    OperatingPoint,
    default_ladder,
    partition_graph,
    plan_handoffs,
    sweep_operating_points,
)
from repro.dag import operating_points
from repro.dag.operating_points import task_problem
from repro.energy.models import ActivityEnergyModel, StaticEnergyModel
from repro.energy.voltage import NOMINAL_VOLTAGE, MemoryConfig, cmos_delay_factor
from repro.exceptions import DagError, InfeasibleFlowError
from repro.ir.task_graph import Task, TaskGraph
from repro.obs import trace as obs
from repro.scheduling.list_scheduler import list_schedule
from repro.workloads import fir_filter
from repro.workloads.registry import dag_workload


def single_task_plan():
    graph = TaskGraph("solo")
    graph.add_task(Task("only", fir_filter(4)))
    return partition_graph(graph, cores=1, slack=4.0)


def test_delay_slack_matches_the_lint_rule():
    # The sweep's feasibility check and lint RA403 must agree, or an
    # operating point the co-optimiser picks could be flagged by lint.
    from repro.lint.rules_energy import _DELAY_SLACK

    assert DELAY_SLACK == _DELAY_SLACK


def test_default_ladder_points_are_feasible_and_monotone():
    ladder = default_ladder()
    assert ladder[0].slowdown == 1.0
    assert ladder[0].voltage == NOMINAL_VOLTAGE
    voltages = [point.voltage for point in ladder]
    assert voltages == sorted(voltages, reverse=True)
    for point in ladder:
        assert point.feasible
        assert cmos_delay_factor(point.voltage) <= point.slowdown * (
            1.0 + DELAY_SLACK
        )


def test_sub_unity_slowdown_rejected():
    with pytest.raises(DagError):
        OperatingPoint(slowdown=0.5, voltage=5.0)


def test_infeasible_ladder_point_rejected():
    plan = single_task_plan()
    bad = OperatingPoint(slowdown=1.0, voltage=2.0)  # far too slow at 2 V
    assert not bad.feasible
    with pytest.raises(DagError):
        sweep_operating_points(plan, ladder=(bad,))


def test_empty_ladder_rejected():
    with pytest.raises(DagError):
        sweep_operating_points(single_task_plan(), ladder=())


def diamond_plan():
    return partition_graph(dag_workload("diamond"), cores=2, slack=2.5)


@pytest.mark.parametrize(
    "make_plan, model",
    [
        (single_task_plan, None),
        (diamond_plan, None),
        (single_task_plan, ActivityEnergyModel()),
        (diamond_plan, ActivityEnergyModel()),
    ],
    ids=["single-task", "diamond", "single-task-activity", "diamond-activity"],
)
def test_sweep_prices_the_ladder_in_one_lockstep_solve(
    monkeypatch, make_plan, model
):
    # One network build per task, a cost-only copy per further rung, and
    # one lockstep solve of every (task, rung): the kernel's searches are
    # bounded by the flow value, not multiplied by the rung count.  The
    # activity model is not separable, so its rungs take
    # recost_network's per-arc cost path.
    plan = make_plan()
    ladder = default_ladder()
    registers = 4
    priced: dict[int, float] = {}
    real_allocate_many = operating_points.allocate_many

    def spy(*args, **kwargs):
        for index, outcome in real_allocate_many(*args, **kwargs):
            priced[index] = outcome.result.total_energy
            yield index, outcome

    monkeypatch.setattr(operating_points, "allocate_many", spy)
    with obs.collect() as trace:
        selection = sweep_operating_points(
            plan, register_count=registers, ladder=ladder, energy_model=model
        )
    counters = trace.counters
    tasks = len(plan.graph)
    assert counters["network.builds"] == tasks
    assert counters["network.recosts"] == tasks * (len(ladder) - 1)
    assert counters["ssp.solves"] == tasks * len(ladder)
    assert counters["dag.dvfs_sweep.solves"] == tasks * len(ladder)
    assert counters["ssp.searches"] <= registers
    assert not [name for name in counters if name.startswith("solver.warm_start")]
    if model is not None:
        assert "network.fallback_cost_arcs" in counters
        assert "network.vectorized_cost_arcs" not in counters

    order = plan.graph.topological_order()
    assert sorted(priced) == list(range(tasks * len(ladder)))
    for index, energy in priced.items():
        task = order[index // len(ladder)]
        point = ladder[index % len(ladder)]
        alone = allocate(task_problem(plan, task.name, point, registers, model))
        assert energy == alone.total_energy
    for task in order:
        point = selection.assignment[plan.partition_of(task.name).id]
        alone = allocate(task_problem(plan, task.name, point, registers, model))
        assert selection.block_energies[task.name] == (
            alone.total_energy * task.rate
        )


def test_sweep_derives_each_later_rung_from_the_first(monkeypatch):
    # Lifetimes and splits are voltage-invariant: each task's are
    # derived once, at its first rung, and every later rung shares them.
    plan = partition_graph(dag_workload("fanin"), cores=2, slack=2.0)
    ladder = default_ladder()
    calls = {"extract_lifetimes": 0, "split_all": 0}
    for name in calls:
        real = getattr(problem_module, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(problem_module, name, counting)
    priced: list = []
    real_allocate_many = operating_points.allocate_many

    def spy(problems, *args, **kwargs):
        priced.extend(problems)
        return real_allocate_many(problems, *args, **kwargs)

    monkeypatch.setattr(operating_points, "allocate_many", spy)
    sweep_operating_points(plan, register_count=3, ladder=ladder)
    tasks = len(plan.graph)
    assert calls == {"extract_lifetimes": tasks, "split_all": tasks}

    monkeypatch.undo()
    order = plan.graph.topological_order()
    assert len(priced) == tasks * len(ladder)
    for index, problem in enumerate(priced):
        task = order[index // len(ladder)]
        rung = index % len(ladder)
        assert problem == task_problem(plan, task.name, ladder[rung], 3)
        first = priced[index - rung]
        if rung:
            assert problem.lifetimes is first.lifetimes
            assert problem.segments is first.segments


def test_with_options_shares_segments_only_for_cost_changes():
    # The ladder's derivation rule: a copy that only re-prices (energy
    # model, memory at the same access times) shares the derived
    # segments and density; any other change derives them again.
    schedule = list_schedule(fir_filter(4))
    base = AllocationProblem.from_schedule(
        schedule, 3, memory=MemoryConfig(divisor=2)
    )
    segments, density = base.segments, base.density
    repriced = base.with_options(
        energy_model=StaticEnergyModel().with_voltages(3.3, 3.3),
        memory=MemoryConfig(divisor=2, voltage=3.3),
    )
    assert repriced.segments is segments
    assert repriced.density is density
    lower = base.with_options(memory=MemoryConfig(divisor=2, voltage=2.5))
    assert lower.segments is segments

    unrestricted = AllocationProblem.from_schedule(schedule, 3)
    assert unrestricted.segments
    changes = [
        (base, {"memory": MemoryConfig(divisor=3)}),
        (base, {"split_at_reads": False}),
        (base, {"storage": StorageSpec.banked(2, 2)}),
        (base, {"energy_model": StaticEnergyModel(), "register_count": 4}),
        (unrestricted, {"horizon": unrestricted.horizon + 2}),
    ]
    for problem, change in changes:
        copy = problem.with_options(**change)
        assert copy.segments is not problem.segments, change
        assert copy.segments == dataclasses.replace(problem, **change).segments


def test_sweep_raises_the_first_failing_solve_in_task_rung_order(monkeypatch):
    # Outcomes may settle out of order; the error raised is still the one
    # of the first failing (task, rung), as when each was solved in turn.
    plan = partition_graph(dag_workload("diamond"), cores=2, slack=2.5)
    ladder = default_ladder()
    first, later = 1 * len(ladder) + 3, 2 * len(ladder)
    real_allocate_many = operating_points.allocate_many

    def faulty(*args, **kwargs):
        settled = list(real_allocate_many(*args, **kwargs))
        for index, outcome in reversed(settled):
            if index in (first, later):
                outcome = outcome._replace(
                    result=InfeasibleFlowError(f"solve {index}")
                )
            yield index, outcome

    monkeypatch.setattr(operating_points, "allocate_many", faulty)
    with pytest.raises(InfeasibleFlowError, match=f"^solve {first}$"):
        sweep_operating_points(plan, register_count=4, ladder=ladder)


def test_selection_meets_deadline_and_reconciles():
    plan = partition_graph(dag_workload("diamond"), cores=2)
    handoffs = plan_handoffs(plan)
    handoff_energy = sum(h.energy for h in handoffs)
    selection = sweep_operating_points(
        plan, register_count=4, handoff_energy=handoff_energy
    )
    assert selection.makespan <= plan.deadline
    assert selection.total_energy == pytest.approx(
        sum(selection.partition_energies.values()) + handoff_energy
    )
    assert sum(selection.block_energies.values()) == pytest.approx(
        sum(selection.partition_energies.values())
    )
    assert set(selection.assignment) == {p.id for p in plan.partitions}


def test_slack_buys_voltage_scaling():
    # With real deadline headroom the co-optimiser must find something
    # cheaper than running everything at nominal.
    plan = partition_graph(dag_workload("diamond"), cores=2, slack=1.5)
    selection = sweep_operating_points(plan, register_count=4)
    nominal = next(
        f for f in selection.frontier if f.label == "uniform:1x"
    )
    assert selection.total_energy < nominal.energy
    assert any(
        point.slowdown > 1.0 for point in selection.assignment.values()
    )


def test_tight_deadline_still_harvests_idle_slack():
    # deadline == nominal makespan: the critical path cannot slow down,
    # but a partition with idle time (off the critical path) still can —
    # free energy the greedy pass must not leave on the table.
    plan = partition_graph(dag_workload("diamond"), cores=2, slack=1.0)
    selection = sweep_operating_points(plan, register_count=4)
    assert selection.makespan <= plan.deadline
    critical = max(plan.partitions, key=lambda p: p.work)
    assert selection.assignment[critical.id].slowdown == 1.0


def test_frontier_is_non_dominated_and_sorted():
    plan = partition_graph(dag_workload("fanin"), cores=2)
    selection = sweep_operating_points(plan, register_count=4)
    frontier = selection.frontier
    assert len(frontier) >= 2  # at least nominal + one scaled point
    makespans = [f.makespan for f in frontier]
    assert makespans == sorted(makespans)
    for i, a in enumerate(frontier):
        for b in frontier[i + 1 :]:
            # later points trade makespan for energy, never dominate
            assert b.energy < a.energy
        assert a.meets_deadline == (a.makespan <= plan.deadline)
