"""Per-partition DVFS co-optimisation.

Given a :class:`~repro.dag.partition.PartitionPlan`, this module assigns
each partition a ``(slowdown, voltage)`` **operating point**: slowing a
partition's clock by a divisor ``d`` lets its supply drop to the lowest
voltage still meeting the classic CMOS delay relation
``delay(V)/delay(V_nominal) <= d``, and every memory/register access
inside the partition then costs ``(V/V_nominal)^2`` of its nominal
energy.  The feasibility check is the same delay-slack relation the lint
rule RA403 enforces (:data:`DELAY_SLACK` is asserted equal to the lint
constant by the test battery, so the two cannot drift apart).

The co-optimiser prices every task's min-cost-flow allocation at every
candidate voltage.  Because only supply voltages change — the clock
divisor of the *storage* stays 1 — each rung is a cost-only
perturbation of an unchanged network topology, so the sweep builds
each task's problem and network once, at the first rung.  Every other
rung is that problem with only the energy model and the memory
replaced (:meth:`~repro.core.problem.AllocationProblem.with_options`
keeps the first rung's lifetimes and split segments, which do not
depend on the voltage) and a cost-only copy of its network
(:func:`~repro.core.network_builder.recost_network`).  All tasks ×
rungs are solved in one :func:`~repro.core.solver.allocate_many` call:
the whole ladder shares lockstep kernels and one multi-source search
per round.  Every rung is still extracted and its recomputed energy
checked against its flow objective; pricing a rung from its flow cost
alone would drop that check.  Each rung's problem equals
:func:`task_problem`'s, so its energy is the one a cold
:func:`~repro.core.solver.allocate` of that instance gives, which is
what the dispatch re-solves (from the schedule, through
:func:`task_problem`) and the report reconciles against.

Selection is greedy but exact per step: partitions are visited in
descending-work order and each takes the cheapest operating point whose
induced frame makespan still meets the deadline.  The full
energy-vs-makespan trade-off (all uniform ladder assignments plus the
selected mixed assignment, non-dominated points only) is returned as a
Pareto frontier for reporting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.core.network_builder import BuiltNetwork, build_network, recost_network
from repro.core.problem import AllocationProblem
from repro.core.solver import allocate_many
from repro.dag.partition import PartitionPlan
from repro.energy.models import (
    EnergyModel,
    StaticEnergyModel,
    reference_reg_voltage,
)
from repro.energy.voltage import (
    NOMINAL_VOLTAGE,
    MemoryConfig,
    cmos_delay_factor,
    max_divisor_supply,
)
from repro.exceptions import DagError
from repro.obs import trace as obs

__all__ = [
    "DELAY_SLACK",
    "DvfsSelection",
    "FrontierPoint",
    "OperatingPoint",
    "default_ladder",
    "sweep_operating_points",
]

#: Tolerated overshoot of the CMOS delay factor over the clock slowdown.
#: Mirrors the lint rule RA403 slack (``repro.lint.rules_energy``); a
#: parity test pins the two together.
DELAY_SLACK = 0.05


@dataclass(frozen=True)
class OperatingPoint:
    """One ``(slowdown, voltage)`` DVFS setting.

    Attributes:
        slowdown: Clock divisor relative to the nominal frequency
            (``1.0`` = full speed); multiplies every member task's
            runtime in the makespan model.
        voltage: Supply the partition's storage runs at.
    """

    slowdown: float
    voltage: float

    def __post_init__(self) -> None:
        if self.slowdown < 1.0:
            raise DagError(
                f"operating-point slowdown must be >= 1, got {self.slowdown}"
            )

    @property
    def feasible(self) -> bool:
        """Whether the point satisfies the RA403 delay-slack relation:
        ``cmos_delay_factor(V) <= slowdown * (1 + DELAY_SLACK)``."""
        factor = cmos_delay_factor(self.voltage)
        return factor <= self.slowdown * (1.0 + DELAY_SLACK)

    def to_dict(self) -> dict[str, float]:
        """JSON-ready ``{"slowdown", "voltage"}`` view."""
        return {"slowdown": self.slowdown, "voltage": self.voltage}


def default_ladder(
    slowdowns: Sequence[float] = (1.0, 1.5, 2.0, 3.0, 4.0),
) -> tuple[OperatingPoint, ...]:
    """The standard candidate ladder for *slowdowns*.

    Slowdown 1 pins the nominal supply; every other rung takes the
    lowest supply still meeting its divisor under the CMOS delay
    relation (:func:`~repro.energy.voltage.max_divisor_supply`), rounded
    to millivolts the way the banked-grid presets are.
    """
    points = []
    for slowdown in slowdowns:
        if slowdown == 1.0:
            voltage = NOMINAL_VOLTAGE
        else:
            voltage = round(max_divisor_supply(slowdown), 3)
        points.append(OperatingPoint(slowdown=float(slowdown), voltage=voltage))
    return tuple(points)


@dataclass(frozen=True)
class FrontierPoint:
    """One non-dominated energy-vs-makespan trade-off.

    Attributes:
        label: Human tag (``uniform:2x`` for a ladder-uniform
            assignment, ``selected`` for the greedy pick).
        makespan: Frame makespan under the assignment.
        energy: Per-frame energy: all per-block allocation energies at
            the assigned voltages plus cross-partition handoffs.
        assignment: Partition id → operating point.
        meets_deadline: Whether *makespan* is within the plan deadline.
    """

    label: str
    makespan: float
    energy: float
    assignment: Mapping[str, OperatingPoint]
    meets_deadline: bool


@dataclass(frozen=True)
class DvfsSelection:
    """Outcome of one DVFS co-optimisation sweep.

    Attributes:
        assignment: Partition id → chosen operating point.
        partition_energies: Partition id → per-frame allocation energy
            of its member blocks at the chosen point.
        block_energies: Task name → per-frame allocation energy at its
            partition's chosen point (rate-weighted).
        handoff_energy: Total cross-partition handoff energy (voltage
            independent: handoffs go through the shared memory at its
            reference supply).
        total_energy: ``sum(partition_energies) + handoff_energy``.
        makespan: Frame makespan under the chosen assignment.
        frontier: Non-dominated (makespan, energy) trade-offs, sorted by
            ascending makespan.
    """

    assignment: Mapping[str, OperatingPoint]
    partition_energies: Mapping[str, float]
    block_energies: Mapping[str, float]
    handoff_energy: float
    total_energy: float
    makespan: float
    frontier: tuple[FrontierPoint, ...]


def _point_model(base: EnergyModel, voltage: float) -> EnergyModel:
    """*base* rescaled to a partition supply of *voltage*.

    The register file tracks the core supply proportionally (a custom
    model's nominal register supply is resolved through
    :func:`~repro.energy.models.reference_reg_voltage`, so a nominal
    point leaves the model untouched).
    """
    reg = reference_reg_voltage(base) * voltage / NOMINAL_VOLTAGE
    return base.with_voltages(voltage, reg)


def task_problem(
    plan: PartitionPlan,
    task_name: str,
    point: OperatingPoint,
    register_count: int,
    energy_model: EnergyModel | None = None,
) -> AllocationProblem:
    """The allocation instance of one task at one operating point.

    Built from the plan's own list schedule so timing and allocation see
    the same horizon; the memory config carries the point's supply with
    divisor 1 — the slowdown stretches wall-clock time, not the
    storage/datapath clock ratio, so the lifetimes, segments and flow
    network topology are voltage-invariant and the sweep derives every
    further rung from the first rung's problem.
    """
    return AllocationProblem.from_schedule(
        plan.schedules[task_name],
        register_count,
        **_point_fields(energy_model or StaticEnergyModel(), point),
    )


def _point_fields(base: EnergyModel, point: OperatingPoint) -> dict:
    """The problem fields *point* sets: the rescaled energy model and a
    memory at the point's supply, divisor 1."""
    return {
        "energy_model": _point_model(base, point.voltage),
        "memory": MemoryConfig(voltage=point.voltage),
    }


def _non_dominated(points: list[FrontierPoint]) -> tuple[FrontierPoint, ...]:
    """Filter to Pareto-optimal (makespan, energy) points."""
    kept = []
    for candidate in points:
        dominated = any(
            other.makespan <= candidate.makespan
            and other.energy <= candidate.energy
            and (
                other.makespan < candidate.makespan
                or other.energy < candidate.energy
            )
            for other in points
            if other is not candidate
        )
        if not dominated:
            kept.append(candidate)
    deduped: list[FrontierPoint] = []
    for point in sorted(kept, key=lambda p: (p.makespan, p.energy, p.label)):
        if deduped and (
            deduped[-1].makespan == point.makespan
            and deduped[-1].energy == point.energy
        ):
            continue
        deduped.append(point)
    return tuple(deduped)


def sweep_operating_points(
    plan: PartitionPlan,
    register_count: int = 4,
    ladder: Sequence[OperatingPoint] | None = None,
    energy_model: EnergyModel | None = None,
    handoff_energy: float = 0.0,
) -> DvfsSelection:
    """Pick the cheapest feasible operating point per partition.

    Every task is allocated (min-cost flow) at every ladder voltage —
    one problem and network build per task, a derived problem and a
    cost-only network copy per further rung, and one lockstep solve of
    them all.  Partitions then greedily take, in descending-work order,
    the cheapest point that keeps the frame makespan within
    ``plan.deadline``; the returned selection also carries the Pareto
    frontier over all uniform ladder assignments plus the selected one.

    Args:
        plan: The partitioned task graph.
        register_count: Register-file size of every per-task solve.
        ladder: Candidate operating points (default
            :func:`default_ladder`); every rung must satisfy the RA403
            delay-slack relation.
        energy_model: Base (nominal-voltage) energy model.
        handoff_energy: Total cross-partition handoff energy to fold
            into frontier/total energies (compute it with
            :func:`~repro.dag.partition.plan_handoffs`; voltage
            independent, so it is a constant offset).

    Returns:
        A :class:`DvfsSelection`.

    Raises:
        DagError: Empty or RA403-infeasible ladder, or no assignment
            meets the deadline (cannot happen when the ladder contains a
            nominal point, since the plan's nominal makespan is already
            within its deadline).
        Exception: The error of the first (task, rung) solve, in
            topological task order and ladder order, that fails.
    """
    points = tuple(ladder) if ladder is not None else default_ladder()
    if not points:
        raise DagError("operating-point ladder is empty")
    for point in points:
        if not point.feasible:
            raise DagError(
                f"operating point {point.slowdown:g}x @ {point.voltage:g}V "
                f"violates the CMOS delay-slack relation (RA403): "
                f"delay factor {cmos_delay_factor(point.voltage):.3f} > "
                f"{point.slowdown:g} * (1 + {DELAY_SLACK})"
            )
    base = energy_model or StaticEnergyModel()
    with obs.span("dag.dvfs_sweep"):
        order = plan.graph.topological_order()
        assert order is not None
        # Every (task, rung) instance, in that order.  Each task's first
        # rung is built from its schedule; every further rung is that
        # problem at another point, sharing its lifetimes and segments,
        # with a cost-only copy of its network.
        problems: list[AllocationProblem] = []
        networks: list[BuiltNetwork] = []
        for task in order:
            first = task_problem(plan, task.name, points[0], register_count, base)
            built = build_network(first)
            problems.append(first)
            networks.append(built)
            for point in points[1:]:
                problem = first.with_options(**_point_fields(base, point))
                problems.append(problem)
                networks.append(recost_network(built, problem))
        # One lockstep solve of the whole ladder; the first failure in
        # (task, rung) order is the one raised.
        energies: list[float | Exception] = [0.0] * len(problems)
        for index, outcome in allocate_many(problems, networks=networks):
            result = outcome.result
            energies[index] = (
                result if isinstance(result, Exception) else result.total_energy
            )
        task_energy: dict[tuple[str, float], float] = {}
        for index, energy in enumerate(energies):
            if isinstance(energy, Exception):
                raise energy
            task = order[index // len(points)]
            point = points[index % len(points)]
            # per-frame allocation energy of every task at every rung
            task_energy[(task.name, point.voltage)] = energy * task.rate
        obs.count("dag.dvfs_sweep.solves", len(problems))
        obs.count("dag.dvfs_sweep.points", len(points))

        def partition_energy(pid: str, point: OperatingPoint) -> float:
            partition = next(p for p in plan.partitions if p.id == pid)
            return sum(
                task_energy[(name, point.voltage)] for name in partition.tasks
            )

        # greedy selection: cheapest feasible point, heaviest partition first
        nominal = min(points, key=lambda p: p.slowdown)
        assignment: dict[str, OperatingPoint] = {
            p.id: nominal for p in plan.partitions
        }
        if plan.makespan({pid: pt.slowdown for pid, pt in assignment.items()}) > (
            plan.deadline
        ):
            raise DagError(
                f"no ladder point meets the deadline {plan.deadline:g}: even "
                f"the fastest assignment exceeds it"
            )
        for partition in sorted(
            plan.partitions, key=lambda p: (-p.work, p.id)
        ):
            best = assignment[partition.id]
            best_energy = partition_energy(partition.id, best)
            for point in points:
                trial = dict(assignment)
                trial[partition.id] = point
                makespan = plan.makespan(
                    {pid: pt.slowdown for pid, pt in trial.items()}
                )
                if makespan > plan.deadline:
                    continue
                energy = partition_energy(partition.id, point)
                if energy < best_energy or (
                    energy == best_energy and point.slowdown < best.slowdown
                ):
                    best, best_energy = point, energy
            assignment[partition.id] = best

        def evaluate(
            label: str, candidate: Mapping[str, OperatingPoint]
        ) -> FrontierPoint:
            makespan = plan.makespan(
                {pid: pt.slowdown for pid, pt in candidate.items()}
            )
            energy = (
                sum(
                    partition_energy(pid, point)
                    for pid, point in candidate.items()
                )
                + handoff_energy
            )
            return FrontierPoint(
                label=label,
                makespan=makespan,
                energy=energy,
                assignment=dict(candidate),
                meets_deadline=makespan <= plan.deadline,
            )

        candidates = [
            evaluate(
                f"uniform:{point.slowdown:g}x",
                {p.id: point for p in plan.partitions},
            )
            for point in points
        ]
        selected = evaluate("selected", assignment)
        frontier = _non_dominated(candidates + [selected])
        partition_energies = {
            pid: partition_energy(pid, point)
            for pid, point in assignment.items()
        }
        block_energies = {
            task.name: task_energy[
                (task.name, assignment[plan.partition_of(task.name).id].voltage)
            ]
            for task in order
        }
        return DvfsSelection(
            assignment=dict(assignment),
            partition_energies=partition_energies,
            block_energies=block_energies,
            handoff_energy=handoff_energy,
            total_energy=sum(partition_energies.values()) + handoff_energy,
            makespan=selected.makespan,
            frontier=frontier,
        )
