"""Memory-hierarchy partition: on-chip scratchpad vs off-chip memory.

The paper's conclusion: "Significantly larger savings in energy are
expected when this network flow technique is applied to offchip memory,
where energy dissipation of memory accesses is several orders of magnitude
higher."  This module applies exactly the paper's machinery one level
down: after the register/memory allocation, the memory-resident values are
partitioned between a *capacity-limited on-chip scratchpad* and off-chip
memory — as a third minimum-cost flow whose fixed flow value is the
scratchpad capacity and whose interval arcs carry each variable's energy
saving (accesses x (off-chip − on-chip cost)) as a negative cost.

The same interval-flow kernel used for register allocation
(:func:`~repro.core.chain_flow.optimal_interval_chains`) solves this
optimally: the scratch chains are the scratchpad's locations, everything
off-path stays off chip.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.allocation import Allocation, memory_intervals
from repro.core.banking import variable_traffic
from repro.core.chain_flow import optimal_interval_chains
from repro.energy.models import EnergyModel
from repro.exceptions import AllocationError
from repro.lifetimes.intervals import Lifetime

__all__ = ["HierarchyResult", "partition_memory_hierarchy"]


@dataclass
class HierarchyResult:
    """Scratchpad/off-chip split of the memory-resident variables.

    Attributes:
        scratch: Variable name → scratchpad location index.
        offchip: Variable names left in off-chip memory.
        scratch_capacity: Locations the scratchpad offers.
        onchip_energy / offchip_energy: Memory energy of each side under
            the respective model.
        baseline_energy: Memory energy if everything stayed off chip.
    """

    scratch: dict[str, int]
    offchip: tuple[str, ...]
    scratch_capacity: int
    onchip_energy: float
    offchip_energy: float
    baseline_energy: float

    @property
    def total_energy(self) -> float:
        """Memory energy of the partitioned hierarchy."""
        return self.onchip_energy + self.offchip_energy

    @property
    def saving_factor(self) -> float:
        """Baseline (all off-chip) energy over the partitioned energy."""
        if self.total_energy <= 0:
            return float("inf")
        return self.baseline_energy / self.total_energy


def partition_memory_hierarchy(
    allocation: Allocation,
    scratch_capacity: int,
    onchip_model: EnergyModel,
    offchip_model: EnergyModel,
) -> HierarchyResult:
    """Split the memory-resident variables across the hierarchy.

    Args:
        allocation: The solved register/memory allocation.
        scratch_capacity: On-chip scratchpad locations available.
        onchip_model: Energy model pricing scratchpad accesses
            (``mem_read``/``mem_write``).
        offchip_model: Energy model pricing off-chip accesses.

    Returns:
        The optimal :class:`HierarchyResult` (maximum energy saving given
        the capacity, via minimum-cost flow).
    """
    if scratch_capacity < 0:
        raise AllocationError(
            f"scratch capacity must be >= 0, got {scratch_capacity}"
        )
    problem = allocation.problem
    intervals = memory_intervals(problem, allocation.residency)
    lifetimes = [
        Lifetime(
            variable=problem.lifetimes[name].variable,
            write_time=start,
            read_times=(end,),
            live_out=problem.lifetimes[name].live_out,
        )
        for name, (start, end) in intervals.items()
    ]
    traffic = {
        lt.name: variable_traffic(problem, allocation.residency, lt.name)
        for lt in lifetimes
    }

    def memory_energy(model: EnergyModel, name: str) -> float:
        moves = traffic[name]
        variable = problem.lifetimes[name].variable
        write, read = model.mem_write(variable), model.mem_read(variable)
        return moves.writes * write + moves.reads * read

    baseline = sum(memory_energy(offchip_model, lt.name) for lt in lifetimes)

    def saving(lt: Lifetime) -> float:
        return memory_energy(offchip_model, lt.name) - memory_energy(
            onchip_model, lt.name
        )

    assignment = optimal_interval_chains(
        lifetimes,
        horizon=problem.horizon,
        pair_cost=lambda prev, nxt: 0.0,
        chain_count=scratch_capacity,
        style="all_pairs",
        force_all=False,
        interval_cost=lambda lt: -saving(lt),
    )
    scratch = {
        lt.name: index
        for index, chain in enumerate(assignment.chains)
        for lt in chain
    }
    offchip = tuple(
        sorted(lt.name for lt in lifetimes if lt.name not in scratch)
    )
    onchip_energy = sum(
        memory_energy(onchip_model, name) for name in scratch
    )
    offchip_energy = sum(
        memory_energy(offchip_model, name) for name in offchip
    )
    return HierarchyResult(
        scratch=scratch,
        offchip=offchip,
        scratch_capacity=scratch_capacity,
        onchip_energy=onchip_energy,
        offchip_energy=offchip_energy,
        baseline_energy=baseline,
    )
