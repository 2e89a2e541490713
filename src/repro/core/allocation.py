"""Allocation results: flow decomposition, residency, addresses, metrics.

Turns a solved flow into the artefacts a downstream code generator needs:

* *register chains* — each unit of flow decomposes into one ``s -> t`` path,
  i.e. the time-ordered sequence of variable segments sharing one physical
  register;
* a residency map (segment → register index, or memory);
* memory address assignment (left-edge over memory-resident intervals, so
  the address count equals the memory lifetime density — the minimum);
* an :class:`~repro.energy.report.EnergyReport` recomputed independently
  from the extracted allocation, which the tests check against the flow
  objective.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Container

import numpy as np

from repro.core.network_builder import BuiltNetwork
from repro.core.problem import AllocationProblem
from repro.energy.report import EnergyReport
from repro.exceptions import AllocationError
from repro.flow.graph import FlowResult
from repro.lifetimes.intervals import Segment

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a cycle
    from repro.core.banking import BankAssignment

__all__ = [
    "Allocation",
    "AllocationResult",
    "chain_positions",
    "decompose_chains",
    "compute_report",
    "assign_addresses",
    "flat_segments",
    "memory_hulls",
    "memory_intervals",
]


@dataclass
class Allocation:
    """A complete solution of Problem 1.

    Attributes:
        problem: The solved instance.
        flow: The optimal flow.
        chains: Register chains — ``chains[i]`` is the time-ordered list of
            segments register ``i`` holds.
        residency: Segment key → register index (segments absent from the
            map are memory resident).
        memory_addresses: Variable name → memory address for every variable
            with memory residency.
        report: Independent energy/access accounting of the solution.
        objective: Absolute storage energy — the flow cost plus the
            constant term the paper drops during optimisation.  With a
            multi-bank hierarchy this is the energy at the *reference*
            bank's operating point; see :attr:`total_energy`.
        unused_registers: Flow units routed through the bypass (registers
            the optimum leaves empty).
        banking: Bank placement of the memory-resident variables when the
            instance carries a multi-level
            :class:`~repro.core.storage.StorageSpec` (``None`` for the
            classic two-level model).
    """

    problem: AllocationProblem
    flow: FlowResult
    chains: list[list[Segment]]
    residency: dict[tuple[str, int], int]
    memory_addresses: dict[str, int]
    report: EnergyReport
    objective: float
    unused_registers: int = 0
    banking: "BankAssignment | None" = None

    @property
    def total_energy(self) -> float:
        """Absolute energy including per-bank deltas.

        Equals :attr:`objective` for two-level instances and for
        hierarchies whose banks all sit at the reference operating
        point."""
        if self.banking is None:
            return self.objective
        return self.objective + self.banking.delta_energy

    @property
    def address_count(self) -> int:
        """Number of distinct memory addresses used."""
        if not self.memory_addresses:
            return 0
        return max(self.memory_addresses.values()) + 1

    @property
    def registers_used(self) -> int:
        """Registers actually holding values (non-bypass chains)."""
        return len(self.chains)

    @property
    def storage_locations(self) -> int:
        """Registers used + memory addresses used (figure 4 metric)."""
        return self.registers_used + self.address_count

    def register_of(self, name: str, index: int = 0) -> int | None:
        """Register holding segment *index* of variable *name*, if any."""
        return self.residency.get((name, index))

    def in_register(self, name: str) -> bool:
        """True if *every* segment of the variable is register resident."""
        segments = self.problem.segments[name]
        return all(seg.key in self.residency for seg in segments)

    def register_variables(self) -> list[str]:
        """Variables fully register resident, in definition order."""
        return [
            name for name in self.problem.lifetimes if self.in_register(name)
        ]

    def memory_variables(self) -> list[str]:
        """Variables with at least one memory-resident segment."""
        return sorted(self.memory_addresses)

    def format(self) -> str:
        """Multi-line human-readable summary."""
        lines = [
            f"registers used : {self.registers_used} of "
            f"{self.problem.register_count}",
            f"memory address : {self.address_count}",
            f"objective      : {self.objective:.3f}",
        ]
        for reg, chain in enumerate(self.chains):
            steps = " -> ".join(
                f"{seg.name}[{seg.start},{seg.end}]" for seg in chain
            )
            lines.append(f"  R{reg}: {steps}")
        for name, address in sorted(self.memory_addresses.items()):
            lines.append(f"  M{address}: {name}")
        lines.append(self.report.format())
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.format()


#: Public alias of :class:`Allocation` — the stable name the package-level
#: API (``repro.allocate``) documents as its return type.
AllocationResult = Allocation


def decompose_chains(
    built: BuiltNetwork, flow: FlowResult
) -> tuple[list[list[Segment]], int]:
    """Split the flow into register chains plus the bypass unit count.

    Every flow unit follows a simple ``s -> t`` path (the network is acyclic
    and interior arcs have capacity 1); the segments visited along one path
    are the variables one register holds over time.  See
    :func:`chain_positions` for the walk and the malformed flows it
    rejects.
    """
    positions, bypass_units = chain_positions(built, flow)
    flat = flat_segments(built.problem)
    return [[flat[i] for i in chain] for chain in positions], bypass_units


def flat_segments(problem: AllocationProblem) -> list[Segment]:
    """*problem*'s segments in flattened position order — the order the
    network builder numbers them in."""
    return [seg for segs in problem.segments.values() for seg in segs]


def chain_positions(
    built: BuiltNetwork, flow: FlowResult
) -> tuple[list[list[int]], int]:
    """Register chains as flattened segment positions, plus bypass units.

    Walks a successor array over the flow-carrying arcs under the node
    numbering :func:`~repro.core.network_builder.build_network` fixes
    (``s = 0, t = 1, w_i = 2 + 2i, r_i = 3 + 2i``).  A ``w_i`` node's one
    out-arc is segment ``i``'s arc and an interior arc has capacity 1,
    so each interior node passes at most one unit on: its successor is
    the head of its one flow-carrying out-arc.  Chains start at the
    source's flow-carrying out-arcs in arc-id order, the order a greedy
    path decomposition takes them in, so the chains are the same.
    Bypass units are the flow on the bypass arc.

    Raises:
        AllocationError: ``invalid allocation flow: ...`` when the flow
            cannot be one unit per register: two flow-carrying out-arcs
            at an interior node, more than one unit on an arc other than
            the bypass, a walk that stalls, or units no walk reaches.
    """
    network = built.network
    flows = flow.vector
    m = network.num_arcs
    if len(flows) != m:
        raise _invalid_flow(f"{len(flows)} flow entries for {m} arcs")
    bypass = built.roles.bypass_arc
    carrying = np.flatnonzero(flows)
    units = flows[carrying]
    wrong = (units != 1) & ((carrying != bypass) | (units < 0))
    if wrong.any():
        arc = int(carrying[np.argmax(wrong)])
        raise _invalid_flow(
            f"{flow.flows[arc]} units on {network.arc(arc)}; an arc other "
            "than the bypass carries 0 or 1"
        )
    bypass_units = 0
    if carrying.size and carrying[-1] == bypass:
        # The builder adds the bypass last, so it closes the list.
        bypass_units = int(units[-1])
        carrying = carrying[:-1]
    arrays = network.arrays()
    tails = arrays.tails[carrying]
    heads = arrays.heads[carrying]
    from_source = tails == 0
    interior = tails[~from_source]
    if interior.size:
        fan_out = np.bincount(interior)
        if fan_out.max() > 1:
            raise _invalid_flow(
                f"{network.node(int(fan_out.argmax()))!r} has "
                f"{fan_out.max()} flow-carrying out-arcs"
            )
    following = [-1] * network.num_nodes
    for tail, head in zip(interior.tolist(), heads[~from_source].tolist()):
        following[tail] = head
    # Each hop consumes its node's successor, so no walk revisits a
    # node and the walks take at most the 2k interior hops between them.
    chains: list[list[int]] = []
    hops = 0
    for node in heads[from_source].tolist():
        chain: list[int] = []
        while node != 1:
            after = following[node]
            if after < 0:
                raise _invalid_flow(
                    f"a register chain stalls at {network.node(node)!r}; "
                    "the flow violates conservation"
                )
            following[node] = -1
            hops += 1
            if not node & 1:  # w_i: the hop is segment i's arc
                chain.append((node - 2) >> 1)
            node = after
        chains.append(chain)
    if hops != interior.size:
        raise _invalid_flow(
            f"flow on {interior.size - hops} arc(s) lies on no "
            "source-sink chain"
        )
    return chains, bypass_units


def _invalid_flow(detail: str) -> AllocationError:
    return AllocationError(f"invalid allocation flow: {detail}")


def compute_report(
    problem: AllocationProblem, chains: list[list[Segment]]
) -> EnergyReport:
    """Recompute access counts and energy from the extracted chains.

    This is an accounting of the *allocation*, not of the flow objective;
    equality of the two (up to the constant term) is a correctness
    invariant the test suite enforces.
    """
    model = problem.energy_model
    report = EnergyReport()
    registered = {seg.key for chain in chains for seg in chain}

    for name, segments in problem.segments.items():
        variable = problem.lifetimes[name].variable
        if segments[0].key not in registered:
            report.add_mem_write(model.mem_write(variable))
        for seg in segments:
            count = len(seg.reads)
            if not count:
                continue
            if (name, seg.index) in registered:
                report.add_reg_read(count * model.reg_read(variable), count)
            else:
                report.add_mem_read(count * model.mem_read(variable), count)

    for chain in chains:
        previous: Segment | None = None
        for seg in chain:
            if (
                previous is None
                or previous.name != seg.name
                or previous.index + 1 != seg.index
            ):
                # A new value enters the register: the one it held
                # before spills if it is still live, and a segment
                # starting at an access cut reloads from memory.
                if previous is not None and not previous.is_last:
                    report.add_mem_write(model.mem_write(previous.variable))
                report.add_reg_write(
                    model.reg_write(
                        seg.variable,
                        previous.variable if previous is not None else None,
                    )
                )
                if not seg.is_first and seg.starts_at_access_cut:
                    report.add_mem_read(model.mem_read(seg.variable))
            previous = seg
        if previous is not None and not previous.is_last:
            report.add_mem_write(model.mem_write(previous.variable))
    return report


def memory_intervals(
    problem: AllocationProblem,
    residency: dict[tuple[str, int], int],
) -> dict[str, tuple[int, int]]:
    """Memory occupancy window (hull) per memory-resident variable."""
    held = {
        position
        for position, seg in enumerate(flat_segments(problem))
        if seg.key in residency
    }
    return memory_hulls(problem, held)


def memory_hulls(
    problem: AllocationProblem, held: Container[int]
) -> dict[str, tuple[int, int]]:
    """:func:`memory_intervals` with the register-resident segments given
    as the flattened positions in *held*."""
    intervals: dict[str, tuple[int, int]] = {}
    position = 0
    for name, segments in problem.segments.items():
        # A variable's segments are time-ordered, so the hull runs from
        # the first outside segment's start to the last one's end.
        first: Segment | None = None
        for seg in segments:
            if position not in held:
                if first is None:
                    first = seg
                last = seg
            position += 1
        if first is not None:
            intervals[name] = (first.start, last.end)
    return intervals


def assign_addresses(
    intervals: dict[str, tuple[int, int]],
) -> dict[str, int]:
    """Left-edge address assignment over memory intervals.

    Occupancy windows are open (the shared ``(start, end)`` convention), so
    an address freed by a read at step ``k`` is rewritable at step ``k``.
    Uses the minimum possible number of addresses (the interval-graph
    colouring optimum).
    """
    order = sorted(intervals.items(), key=lambda item: (item[1], item[0]))
    address_free_at: list[int] = []  # address -> end of last interval
    out: dict[str, int] = {}
    for name, (start, end) in order:
        for address, free_at in enumerate(address_free_at):
            if free_at <= start:
                address_free_at[address] = end
                out[name] = address
                break
        else:
            out[name] = len(address_free_at)
            address_free_at.append(end)
    return out
