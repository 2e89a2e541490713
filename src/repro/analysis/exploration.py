"""Design-space exploration.

The paper's methodology is a designer's loop: pick a register-file size
and a memory operating point, allocate, look at the energy, repeat.  This
module automates the loop over a grid of register counts and memory
configurations, collects the per-point metrics, marks infeasible points,
and extracts the Pareto frontier over (storage cost, energy) — storage
cost being the number of locations, the "no increase in cost" axis the
paper's introduction emphasises.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Mapping

from repro.analysis.metrics import SolutionMetrics, metrics_of
from repro.analysis.tables import format_table
from repro.core.network_builder import BuiltNetwork, build_network, recost_network
from repro.core.options import SolveOptions
from repro.core.problem import AllocationProblem
from repro.core.solver import allocate, solve_built
from repro.core.storage import StorageSpec
from repro.energy.models import (
    EnergyModel,
    StaticEnergyModel,
    reference_reg_voltage,
)
from repro.energy.voltage import MemoryConfig
from repro.exceptions import GraphError, InfeasibleFlowError
from repro.flow.warm_start import WarmStartCache
from repro.lifetimes.intervals import Lifetime
from repro.obs import trace as obs

__all__ = [
    "DesignPoint",
    "ExplorationResult",
    "explore_design_space",
    "StoragePoint",
    "StorageExplorationResult",
    "explore_storage_space",
    "banked_grid",
]


@dataclass(frozen=True)
class DesignPoint:
    """One evaluated configuration.

    Attributes:
        register_count: Register-file size of the point.
        memory: Memory operating point.
        metrics: Solution metrics, or ``None`` when infeasible.
    """

    register_count: int
    memory: MemoryConfig
    metrics: SolutionMetrics | None

    @property
    def feasible(self) -> bool:
        return self.metrics is not None

    @property
    def energy(self) -> float:
        if self.metrics is None:
            raise InfeasibleFlowError(
                f"design point R={self.register_count}, "
                f"f/{self.memory.divisor} is infeasible"
            )
        return self.metrics.energy

    def label(self) -> str:
        return f"R={self.register_count}, f/{self.memory.divisor}"


@dataclass
class ExplorationResult:
    """All evaluated points plus derived views."""

    points: list[DesignPoint]

    def feasible_points(self) -> list[DesignPoint]:
        return [p for p in self.points if p.feasible]

    def best(self) -> DesignPoint:
        """The lowest-energy feasible point."""
        feasible = self.feasible_points()
        if not feasible:
            raise InfeasibleFlowError("no feasible design point")
        return min(feasible, key=lambda p: p.energy)

    def pareto_frontier(self) -> list[DesignPoint]:
        """Points not dominated in (storage locations, energy)."""
        feasible = self.feasible_points()
        frontier = []
        for p in feasible:
            assert p.metrics is not None
            dominated = any(
                q is not p
                and q.metrics is not None
                and q.metrics.storage_locations
                <= p.metrics.storage_locations
                and q.energy <= p.energy
                and (
                    q.metrics.storage_locations
                    < p.metrics.storage_locations
                    or q.energy < p.energy
                )
                for q in feasible
            )
            if not dominated:
                frontier.append(p)
        frontier.sort(
            key=lambda p: (p.metrics.storage_locations, p.energy)  # type: ignore[union-attr]
        )
        return frontier

    def format(self) -> str:
        rows = []
        for p in self.points:
            if p.metrics is None:
                rows.append(
                    (p.register_count, f"f/{p.memory.divisor}",
                     p.memory.voltage, "-", "-", "-")
                )
            else:
                rows.append(
                    (
                        p.register_count,
                        f"f/{p.memory.divisor}",
                        p.memory.voltage,
                        p.metrics.energy,
                        p.metrics.mem_accesses,
                        p.metrics.storage_locations,
                    )
                )
        return format_table(
            ("R", "memory", "supply V", "energy", "mem acc", "locations"),
            rows,
            title="design space ('-' = infeasible)",
        )


def explore_design_space(
    lifetimes: Mapping[str, Lifetime],
    horizon: int,
    register_counts: Iterable[int],
    memory_configs: Iterable[MemoryConfig],
    energy_model: EnergyModel | None = None,
    **problem_options,
) -> ExplorationResult:
    """Evaluate every (register count x memory config) grid point.

    The energy model's memory voltage is rescaled per point to the
    config's supply (register file stays at its own voltage).

    The sweep exploits that changing the memory operating point is a
    *cost-only* perturbation when the access times stay put: per
    register count the flow network is built once and every further
    point solves a cost-only copy of it
    (:func:`~repro.core.network_builder.recost_network`), and the
    sweep's :class:`~repro.flow.warm_start.WarmStartCache` turns such a
    re-solve into an incremental re-optimisation whose work is
    proportional to the perturbation, not the instance.  A point whose
    topology moved is built and solved afresh.
    """
    base_model = energy_model or StaticEnergyModel()
    points: list[DesignPoint] = []
    options = SolveOptions(warm_cache=WarmStartCache())
    built_by_registers: dict[int, BuiltNetwork] = {}
    for memory in memory_configs:
        model = base_model.with_voltages(
            memory.voltage, reference_reg_voltage(base_model)
        )
        for registers in register_counts:
            problem = AllocationProblem(
                lifetimes=lifetimes,
                register_count=registers,
                horizon=horizon,
                energy_model=model,
                memory=memory,
                **problem_options,
            )
            try:
                built = built_by_registers.get(registers)
                if built is not None:
                    try:
                        built = recost_network(built, problem)
                    except GraphError:
                        built = None  # topology moved: rebuild below
                if built is None:
                    with obs.span("solver.build_network"):
                        built = build_network(problem)
                built_by_registers[registers] = built
                metrics = metrics_of(solve_built(built, options), name="flow")
            except InfeasibleFlowError:
                metrics = None
            points.append(DesignPoint(registers, memory, metrics))
    return ExplorationResult(points)


@dataclass(frozen=True)
class StoragePoint:
    """One evaluated (register count x storage hierarchy) point.

    Attributes:
        register_count: Register-file size of the point.
        spec: The storage hierarchy the point was solved against.
        metrics: Solution metrics, or ``None`` when infeasible.  The
            metrics' energy is the allocation's *total* energy —
            reference objective plus the banking pass's per-bank deltas.
    """

    register_count: int
    spec: StorageSpec
    metrics: SolutionMetrics | None

    @property
    def feasible(self) -> bool:
        return self.metrics is not None

    @property
    def energy(self) -> float:
        if self.metrics is None:
            raise InfeasibleFlowError(
                f"storage point {self.label()} is infeasible"
            )
        return self.metrics.energy

    def label(self) -> str:
        banks = self.spec.banks
        ref = self.spec.reference
        ports = ref.ports if ref.ports is not None else "-"
        cap = ref.capacity if ref.capacity is not None else "-"
        return (
            f"R={self.register_count}, {len(banks)}x f/{ref.divisor} "
            f"(ports {ports}, cap {cap})"
        )


@dataclass
class StorageExplorationResult:
    """All evaluated storage points plus derived views."""

    points: list[StoragePoint]

    def feasible_points(self) -> list[StoragePoint]:
        return [p for p in self.points if p.feasible]

    def best(self) -> StoragePoint:
        """The lowest-total-energy feasible point."""
        feasible = self.feasible_points()
        if not feasible:
            raise InfeasibleFlowError("no feasible storage point")
        return min(feasible, key=lambda p: p.energy)

    def format(self) -> str:
        rows = []
        for p in self.points:
            ref = p.spec.reference
            shape = (
                f"{len(p.spec.banks)}x f/{ref.divisor}"
                f"{'' if ref.ports is None else f' p{ref.ports}'}"
                f"{'' if ref.capacity is None else f' c{ref.capacity}'}"
            )
            if p.metrics is None:
                rows.append((p.register_count, shape, "-", "-", "-"))
            else:
                rows.append(
                    (
                        p.register_count,
                        shape,
                        p.metrics.energy,
                        p.metrics.mem_accesses,
                        p.metrics.storage_locations,
                    )
                )
        return format_table(
            ("R", "banks", "energy", "mem acc", "locations"),
            rows,
            title="storage space ('-' = infeasible)",
        )


def banked_grid(
    bank_counts: Iterable[int],
    periods: Iterable[int],
    port_widths: Iterable[int | None] = (None,),
    capacity: int | None = None,
    stagger: bool = True,
) -> list[StorageSpec]:
    """The bank-count x access-period x port-width sweep grid.

    A convenience producer for :func:`explore_storage_space`; each cell
    is :meth:`StorageSpec.banked` with the shared *capacity*/*stagger*.
    """
    return [
        StorageSpec.banked(
            banks, period, ports=ports, capacity=capacity, stagger=stagger
        )
        for banks in bank_counts
        for period in periods
        for ports in port_widths
    ]


def explore_storage_space(
    lifetimes: Mapping[str, Lifetime],
    horizon: int,
    register_counts: Iterable[int],
    storage_specs: Iterable[StorageSpec],
    energy_model: EnergyModel | None = None,
    **problem_options,
) -> StorageExplorationResult:
    """Evaluate every (register count x storage hierarchy) grid point.

    The multi-bank analogue of :func:`explore_design_space`: each point
    solves the union flow network and runs the bank-placement second
    pass, recording the allocation's *total* energy (reference objective
    plus bank deltas).  The energy model's memory voltage is rescaled
    per point to the spec's reference supply.

    One :class:`~repro.flow.warm_start.WarmStartCache` is shared across
    the whole grid — including the banking pass's pin-and-resolve
    rounds.  Specs that differ only in voltages, capacities or port
    widths build identical-topology networks (see
    :meth:`StorageSpec.access_topology`), so a re-solve after the first
    per topology can re-optimise incrementally.
    """
    base_model = energy_model or StaticEnergyModel()
    options = SolveOptions(warm_cache=WarmStartCache())
    points: list[StoragePoint] = []
    for spec in storage_specs:
        model = base_model.with_voltages(
            spec.reference.voltage, reference_reg_voltage(base_model)
        )
        for registers in register_counts:
            problem = AllocationProblem(
                lifetimes=lifetimes,
                register_count=registers,
                horizon=horizon,
                energy_model=model,
                storage=spec,
                **problem_options,
            )
            try:
                allocation = allocate(problem, options)
                metrics = metrics_of(allocation, name="flow")
                if allocation.total_energy != allocation.objective:
                    metrics = replace(
                        metrics, energy=allocation.total_energy
                    )
            except InfeasibleFlowError:
                metrics = None
            points.append(StoragePoint(registers, spec, metrics))
    return StorageExplorationResult(points)
