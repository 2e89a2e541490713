"""Tests for deadline-constrained task-graph partitioning."""

import pytest

from repro.dag import partition_graph, plan_handoffs
from repro.energy import StaticEnergyModel
from repro.exceptions import DagError
from repro.ir.task_graph import Task, TaskGraph
from repro.workloads import fir_filter
from repro.workloads.registry import dag_workload


def single_task_graph() -> TaskGraph:
    graph = TaskGraph("solo")
    graph.add_task(Task("only", fir_filter(4)))
    return graph


def test_every_task_in_exactly_one_partition():
    plan = partition_graph(dag_workload("diamond"), cores=2)
    owners = [t for p in plan.partitions for t in p.tasks]
    assert sorted(owners) == sorted(t.name for t in plan.graph.tasks)


def test_partition_ids_follow_core_era_convention():
    plan = partition_graph(dag_workload("diamond"), cores=2)
    for partition in plan.partitions:
        assert partition.id == f"core{partition.core}/era{partition.era}"


def test_core_sequences_are_topological_subsequences():
    plan = partition_graph(dag_workload("fanin"), cores=3)
    order = plan.graph.topological_order()
    index = {task.name: i for i, task in enumerate(order)}
    by_core: dict[int, list[str]] = {}
    for partition in plan.partitions:
        by_core.setdefault(partition.core, []).extend(partition.tasks)
    for sequence in by_core.values():
        positions = [index[name] for name in sequence]
        assert positions == sorted(positions)


def test_nominal_makespan_matches_slowdown_free_simulation():
    plan = partition_graph(dag_workload("diamond"), cores=2)
    assert plan.makespan() == pytest.approx(plan.nominal_makespan)
    assert plan.nominal_makespan <= plan.deadline


def test_uniform_slowdown_scales_the_single_core_makespan():
    plan = partition_graph(single_task_graph(), cores=1)
    slowed = plan.makespan({p.id: 2.0 for p in plan.partitions})
    assert slowed == pytest.approx(2.0 * plan.nominal_makespan)


def test_deadline_below_nominal_is_rejected():
    plan = partition_graph(dag_workload("diamond"), cores=2)
    with pytest.raises(DagError):
        partition_graph(
            dag_workload("diamond"),
            cores=2,
            deadline=plan.nominal_makespan * 0.5,
        )


def test_bad_parameters_are_rejected():
    with pytest.raises(DagError):
        partition_graph(dag_workload("diamond"), cores=0)
    with pytest.raises(DagError):
        partition_graph(dag_workload("diamond"), slack=0.5)
    with pytest.raises(DagError):
        partition_graph(TaskGraph("empty"))


@pytest.mark.parametrize(
    "bound", [{"slack": float("nan")}, {"deadline": float("nan")}]
)
def test_nan_slack_or_deadline_is_rejected(bound):
    # NaN compares false against every bound, so without its own check
    # it would pass through and leave the selection a NaN deadline.
    with pytest.raises(DagError, match="nan"):
        partition_graph(dag_workload("diamond"), cores=2, **bound)


@pytest.mark.parametrize(
    "bound", [{"slack": float("inf")}, {"deadline": float("inf")}]
)
def test_infinite_slack_or_deadline_means_no_deadline(bound):
    plan = partition_graph(dag_workload("diamond"), cores=2, **bound)
    assert plan.deadline == float("inf")


def test_parallelism_survives_refinement():
    # The diamond's two middle tasks are independent; with 2 cores the
    # refinement pass must not serialise them just to kill the handoffs
    # (the makespan-no-increase rule).
    plan = partition_graph(dag_workload("diamond"), cores=2)
    cores_used = {p.core for p in plan.partitions}
    assert len(cores_used) == 2
    assert plan.nominal_makespan < sum(plan.runtimes.values())


def test_handoffs_cover_exactly_the_cut_edges():
    plan = partition_graph(dag_workload("diamond"), cores=2)
    handoffs = plan_handoffs(plan)
    assert tuple(h.edge for h in handoffs) == plan.cut_edges()
    for handoff in handoffs:
        assert handoff.from_partition != handoff.to_partition
        assert handoff.energy > 0
        assert handoff.variables


def test_handoff_energy_is_write_plus_rate_weighted_read():
    plan = partition_graph(dag_workload("diamond"), cores=2)
    model = StaticEnergyModel()
    for handoff in plan_handoffs(plan, energy_model=model):
        producer = plan.graph.task(handoff.edge[0])
        consumer = plan.graph.task(handoff.edge[1])
        expected = sum(
            model.mem_write(producer.block.variable(name)) * producer.rate
            + model.mem_read(producer.block.variable(name)) * consumer.rate
            for name in producer.block.live_out
        )
        assert handoff.energy == pytest.approx(expected)


def test_single_core_serialises_everything():
    plan = partition_graph(dag_workload("fanin"), cores=1)
    assert all(p.core == 0 for p in plan.partitions)
    assert plan.nominal_makespan == pytest.approx(sum(plan.runtimes.values()))


def test_partition_of_unknown_task_raises():
    plan = partition_graph(single_task_graph(), cores=1)
    with pytest.raises(DagError):
        plan.partition_of("ghost")
