"""Deadline-constrained task-graph partitioning.

Cuts a :class:`~repro.ir.task_graph.TaskGraph` into per-core/per-era
partitions: tasks on one core run sequentially, cores run in parallel, and
a core's sequence may be further split into *eras* — contiguous runs that
can later receive their own DVFS operating point.  Every edge whose
endpoints land in different partitions becomes a **memory handoff**: the
producer's live-out values must be written to the shared memory and read
back by the consumer, costed through the existing
:class:`~repro.energy.models.EnergyModel` (and, under a multi-bank
hierarchy, at the :class:`~repro.core.storage.StorageSpec` reference
supply).

Minimising handoff energy subject to a makespan deadline is NP-hard even
in restricted forms (Liu/Chen/Yang, PAPERS.md), so the cut is heuristic:

1. **Earliest-finish-time list scheduling** assigns tasks to cores in
   topological order, minimising the nominal makespan;
2. a **refinement pass** greedily relocates tasks across cores when that
   strictly lowers total handoff energy without pushing the nominal
   makespan past the deadline (moves that would break the
   topological-subsequence invariant of a core's queue are skipped);
3. **era splitting** cuts each core's sequence at zero-flow points — the
   extra partition boundaries cost nothing (no value crosses them on that
   core) and give the DVFS co-optimiser finer slack granularity for free.

The result is deterministic for a given graph: ties break on task name
and core index, never on dict iteration order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from repro.core.storage import StorageSpec
from repro.energy.models import (
    EnergyModel,
    StaticEnergyModel,
    reference_reg_voltage,
)
from repro.exceptions import DagError
from repro.ir.task_graph import TaskGraph
from repro.obs import trace as obs
from repro.scheduling.list_scheduler import list_schedule
from repro.scheduling.resources import ResourceSet
from repro.scheduling.schedule import Schedule

__all__ = [
    "HandoffCost",
    "Partition",
    "PartitionPlan",
    "partition_graph",
    "plan_handoffs",
]


@dataclass(frozen=True)
class Partition:
    """One per-core/per-era slice of the task graph.

    Attributes:
        id: Stable identifier, ``core<c>/era<e>``.
        core: Core index the partition executes on.
        era: Position of the partition within its core's sequence.
        tasks: Member task names, in execution (topological) order.
        work: Nominal control steps per frame (scheduled length x rate,
            summed over members) — the quantity DVFS slowdowns multiply.
    """

    id: str
    core: int
    era: int
    tasks: tuple[str, ...]
    work: float


@dataclass(frozen=True)
class HandoffCost:
    """Memory handoff charged for one cut edge.

    Attributes:
        edge: The severed ``(producer task, consumer task)`` edge.
        from_partition: Partition id of the producer.
        to_partition: Partition id of the consumer.
        variables: Live-out variable names that cross the cut.
        energy: Per-frame handoff energy: each crossing value is written
            once per producer run and read once per consumer run at the
            shared memory's operating point.
    """

    edge: tuple[str, str]
    from_partition: str
    to_partition: str
    variables: tuple[str, ...]
    energy: float


@dataclass
class PartitionPlan:
    """A partitioned task graph plus the timing facts later stages need.

    Attributes:
        graph: The partitioned task graph.
        partitions: All partitions, ordered by (core, era).
        deadline: Makespan bound (control steps per frame) the DVFS
            co-optimiser must respect.
        nominal_makespan: Makespan of the plan with every partition at
            full speed (slowdown 1).
        schedules: Task name → its list schedule (reused to build the
            per-block allocation problems, so timing and allocation see
            the same schedule).
        runtimes: Task name → nominal control steps per frame
            (scheduled length x rate).
    """

    graph: TaskGraph
    partitions: tuple[Partition, ...]
    deadline: float
    nominal_makespan: float
    schedules: dict[str, Schedule] = field(default_factory=dict)
    runtimes: dict[str, float] = field(default_factory=dict)

    def partition_of(self, task: str) -> Partition:
        """The partition containing *task*."""
        for partition in self.partitions:
            if task in partition.tasks:
                return partition
        raise DagError(f"task {task!r} is in no partition")

    def cut_edges(self) -> tuple[tuple[str, str], ...]:
        """Graph edges whose endpoints sit in different partitions."""
        owner = {
            task: partition.id
            for partition in self.partitions
            for task in partition.tasks
        }
        return tuple(
            (before, after)
            for before, after in sorted(self.graph.edges)
            if owner[before] != owner[after]
        )

    def makespan(self, slowdowns: Mapping[str, float] | None = None) -> float:
        """Frame makespan under per-partition clock *slowdowns*.

        Simulates the plan's execution semantics: each core runs its
        partitions era by era, tasks sequentially, and a task starts only
        once its core is free *and* all its predecessors (any core) have
        finished.  ``slowdowns`` maps partition id → clock divisor
        (missing partitions run at full speed).
        """
        factors = dict(slowdowns or {})
        owner = {
            task: partition
            for partition in self.partitions
            for task in partition.tasks
        }
        order = self.graph.topological_order()
        assert order is not None  # TaskGraph rejects cycles at construction
        finish: dict[str, float] = {}
        core_free: dict[int, float] = {}
        for task in order:
            partition = owner[task.name]
            factor = float(factors.get(partition.id, 1.0))
            ready = max(
                (finish[pred.name] for pred in self.graph.predecessors(task.name)),
                default=0.0,
            )
            start = max(ready, core_free.get(partition.core, 0.0))
            end = start + self.runtimes[task.name] * factor
            finish[task.name] = end
            core_free[partition.core] = end
        return max(finish.values(), default=0.0)


def _handoff_model(
    energy_model: EnergyModel | None, storage: StorageSpec | None
) -> EnergyModel:
    """The model handoff traffic is charged against.

    Cross-partition values travel through the *shared* memory: under a
    multi-bank hierarchy that is the spec's reference bank, so the model
    is rescaled to its supply exactly as the batch manifests do.
    """
    model = energy_model or StaticEnergyModel()
    if storage is not None:
        model = model.with_voltages(
            storage.reference.voltage, reference_reg_voltage(model)
        )
    return model


def _edge_handoff(
    graph: TaskGraph, edge: tuple[str, str], model: EnergyModel
) -> tuple[tuple[str, ...], float]:
    """Crossing variables and per-frame energy of one cut edge."""
    before, after = edge
    producer = graph.task(before)
    consumer = graph.task(after)
    variables = tuple(sorted(producer.block.live_out))
    energy = 0.0
    for name in variables:
        variable = producer.block.variable(name)
        energy += model.mem_write(variable) * producer.rate
        energy += model.mem_read(variable) * consumer.rate
    return variables, energy


def plan_handoffs(
    plan: PartitionPlan,
    energy_model: EnergyModel | None = None,
    storage: StorageSpec | None = None,
) -> list[HandoffCost]:
    """Cost every cut edge of *plan* as a memory handoff.

    Each severed edge charges one shared-memory write per producer run
    and one read per consumer run for every live-out value of the
    producer block; values staying inside a partition hand off through
    the core's own register file and are already paid for by the
    per-block flow solves.
    """
    model = _handoff_model(energy_model, storage)
    handoffs = []
    for edge in plan.cut_edges():
        variables, energy = _edge_handoff(plan.graph, edge, model)
        handoffs.append(
            HandoffCost(
                edge=edge,
                from_partition=plan.partition_of(edge[0]).id,
                to_partition=plan.partition_of(edge[1]).id,
                variables=variables,
                energy=energy,
            )
        )
    return handoffs


def _cut_cost(
    graph: TaskGraph,
    assignment: Mapping[str, int],
    model: EnergyModel,
) -> float:
    """Total handoff energy of a task → core assignment."""
    total = 0.0
    for edge in sorted(graph.edges):
        if assignment[edge[0]] != assignment[edge[1]]:
            total += _edge_handoff(graph, edge, model)[1]
    return total


def _core_makespan(
    graph: TaskGraph,
    runtimes: Mapping[str, float],
    sequences: Mapping[int, list[str]],
) -> float:
    """Nominal makespan of explicit per-core task sequences."""
    owner = {
        task: core for core, tasks in sequences.items() for task in tasks
    }
    order = graph.topological_order()
    assert order is not None
    finish: dict[str, float] = {}
    core_free: dict[int, float] = {}
    for task in order:
        core = owner[task.name]
        ready = max(
            (finish[pred.name] for pred in graph.predecessors(task.name)),
            default=0.0,
        )
        start = max(ready, core_free.get(core, 0.0))
        finish[task.name] = start + runtimes[task.name]
        core_free[core] = finish[task.name]
    return max(finish.values(), default=0.0)


def _refine_assignment(
    graph: TaskGraph,
    runtimes: Mapping[str, float],
    sequences: dict[int, list[str]],
    topo_index: Mapping[str, int],
    deadline: float,
    model: EnergyModel,
    rounds: int = 2,
) -> dict[int, list[str]]:
    """Greedy cut-cost reduction: relocate tasks across cores.

    For every cut edge (costliest first) try moving the producer to the
    consumer's core and vice versa; accept a move only when it strictly
    lowers total handoff energy, keeps every core queue a topological
    subsequence, and does not *increase* the nominal makespan (within
    the deadline).  The no-increase rule matters: makespan slack is the
    budget the DVFS stage converts into voltage scaling, and a refinement
    that serialised the graph to kill its last handoff would usually
    burn far more energy in lost slowdown opportunity than it saved.
    """
    assignment = {
        task: core for core, tasks in sequences.items() for task in tasks
    }
    bound = min(deadline, _core_makespan(graph, runtimes, sequences))
    for _ in range(rounds):
        improved = False
        cut = [
            (edge, _edge_handoff(graph, edge, model)[1])
            for edge in sorted(graph.edges)
            if assignment[edge[0]] != assignment[edge[1]]
        ]
        cut.sort(key=lambda item: (-item[1], item[0]))
        for (before, after), _cost in cut:
            for mover, target in (
                (before, assignment[after]),
                (after, assignment[before]),
            ):
                source = assignment[mover]
                if source == target:
                    continue
                trial = {
                    core: [t for t in tasks if t != mover]
                    for core, tasks in sequences.items()
                }
                queue = sorted(
                    trial[target] + [mover], key=lambda t: topo_index[t]
                )
                trial[target] = queue
                trial_assignment = dict(assignment)
                trial_assignment[mover] = target
                if _cut_cost(graph, trial_assignment, model) >= _cut_cost(
                    graph, assignment, model
                ):
                    continue
                if _core_makespan(graph, runtimes, trial) > bound:
                    continue
                sequences = trial
                assignment = trial_assignment
                improved = True
                break
        if not improved:
            break
    return sequences


def _split_eras(
    graph: TaskGraph, sequence: list[str]
) -> list[list[str]]:
    """Split a core sequence at zero-flow points.

    A split between positions ``i`` and ``i+1`` is free exactly when no
    graph edge runs from the prefix into the suffix *on this core* — no
    value would start crossing a partition boundary that stayed local
    before.  Splitting there costs no handoff energy but lets the DVFS
    pass pick a different operating point per era.
    """
    if not sequence:
        return []
    eras: list[list[str]] = [[sequence[0]]]
    members = set(sequence)
    for task in sequence[1:]:
        prefix = {t for era in eras for t in era}
        suffix = members - prefix
        crossing = any(
            before in prefix and after in suffix
            for before, after in graph.edges
        )
        if crossing:
            eras[-1].append(task)
        else:
            eras.append([task])
    return eras


def partition_graph(
    graph: TaskGraph,
    cores: int = 2,
    deadline: float | None = None,
    slack: float = 1.5,
    energy_model: EnergyModel | None = None,
    storage: StorageSpec | None = None,
    resources: ResourceSet | None = None,
) -> PartitionPlan:
    """Cut *graph* into per-core/per-era partitions under a deadline.

    Args:
        graph: The application's task flow graph.
        cores: Cores the partitions may occupy (``>= 1``).
        deadline: Makespan bound in control steps per frame.  ``None``
            derives one as ``nominal makespan x slack`` — the headroom
            the DVFS co-optimiser will spend on voltage scaling.
        slack: Deadline multiplier used when *deadline* is ``None``.
        energy_model: Model handoff traffic is costed against (default
            static).
        storage: Optional multi-bank hierarchy; handoffs are charged at
            its reference supply.
        resources: Datapath for the per-task list schedules.

    Returns:
        A :class:`PartitionPlan`.

    Raises:
        DagError: Non-positive core count, a slack below 1, a NaN slack
            or deadline, or a deadline below the nominal makespan the
            heuristic achieved.  An infinite deadline or slack is
            accepted: it means no deadline.
    """
    if cores < 1:
        raise DagError(f"core count must be >= 1, got {cores}")
    if math.isnan(slack) or slack < 1.0:
        raise DagError(f"deadline slack must be >= 1, got {slack}")
    if deadline is not None and math.isnan(deadline):
        raise DagError(f"deadline must be a number, got {deadline}")
    if len(graph) == 0:
        raise DagError(f"task graph {graph.name!r} has no tasks")
    with obs.span("dag.partition"):
        order = graph.topological_order()
        assert order is not None  # cycles rejected at add_edge time
        topo_index = {task.name: i for i, task in enumerate(order)}
        schedules = {
            task.name: list_schedule(task.block, resources) for task in order
        }
        runtimes = {
            task.name: float(schedules[task.name].length * task.rate)
            for task in order
        }
        # 1. earliest-finish-time list scheduling onto the cores
        sequences: dict[int, list[str]] = {c: [] for c in range(cores)}
        finish: dict[str, float] = {}
        core_free: dict[int, float] = {c: 0.0 for c in range(cores)}
        for task in order:
            ready = max(
                (finish[p.name] for p in graph.predecessors(task.name)),
                default=0.0,
            )
            core = min(
                range(cores),
                key=lambda c: (max(core_free[c], ready), c),
            )
            start = max(core_free[core], ready)
            finish[task.name] = start + runtimes[task.name]
            core_free[core] = finish[task.name]
            sequences[core].append(task.name)
        nominal = max(finish.values(), default=0.0)
        bound = deadline if deadline is not None else nominal * slack
        if bound < nominal:
            raise DagError(
                f"deadline {bound:g} is below the achievable nominal "
                f"makespan {nominal:g} on {cores} core(s)"
            )
        # 2. handoff-cost refinement within the deadline
        model = _handoff_model(energy_model, storage)
        sequences = _refine_assignment(
            graph, runtimes, sequences, topo_index, bound, model
        )
        nominal = _core_makespan(graph, runtimes, sequences)
        # 3. era splitting at zero-flow points
        partitions: list[Partition] = []
        for core in sorted(sequences):
            for era, members in enumerate(_split_eras(graph, sequences[core])):
                partitions.append(
                    Partition(
                        id=f"core{core}/era{era}",
                        core=core,
                        era=era,
                        tasks=tuple(members),
                        work=sum(runtimes[t] for t in members),
                    )
                )
        plan = PartitionPlan(
            graph=graph,
            partitions=tuple(partitions),
            deadline=float(bound),
            nominal_makespan=float(nominal),
            schedules=schedules,
            runtimes=runtimes,
        )
        obs.count("dag.partition.tasks", len(graph))
        obs.count("dag.partition.partitions", len(partitions))
        obs.count("dag.partition.cut_edges", len(plan.cut_edges()))
        return plan
