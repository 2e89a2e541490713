"""Port-constrained allocation (paper section 7).

"The number of memory or register file ports is determined from the
solution of our network flow problem, however it could be also specified
as a constraint in our problem.  For a fixed number of memory or register
file ports the technique described in section 5.2 which sets certain arc
flows to 1 can be used."

This module implements exactly that: an iterative legalizer that solves
the unconstrained flow, inspects the per-step memory access schedule, and
— wherever a step needs more simultaneous memory accesses than the module
has ports — pins the heaviest contributing variable's segments into the
register file (flow lower bounds of 1, via
:attr:`AllocationProblem.forced_segments`) and re-solves.  Each round
strictly grows the pinned set, so the loop terminates; if the pins ever
exceed the register supply the instance is genuinely infeasible at that
port count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.ports import port_usage, required_ports
from repro.core.allocation import Allocation
from repro.core.banking import variable_traffic
from repro.core.options import SolveOptions
from repro.core.problem import AllocationProblem
from repro.core.solver import allocate
from repro.exceptions import AllocationError, InfeasibleFlowError

__all__ = ["PortConstrainedResult", "allocate_with_port_limit"]


@dataclass
class PortConstrainedResult:
    """Outcome of the port legalization loop.

    Attributes:
        allocation: The final, port-legal allocation.
        pinned: Segment keys forced into the register file by the loop.
        rounds: Solve iterations performed (1 = already legal).
        energy_overhead: Energy of the final solution minus the
            unconstrained optimum (the price of the port limit).
    """

    allocation: Allocation
    pinned: frozenset[tuple[str, int]]
    rounds: int
    energy_overhead: float = field(default=0.0)

    @property
    def mem_ports_used(self) -> int:
        return required_ports(self.allocation).mem_rw_ports


def _access_step(step: int, problem: AllocationProblem) -> int:
    """First memory access step at or after *step* (``x + 1`` if none)."""
    access = problem.access_times
    if access is None:
        return step
    later = [m for m in access if m >= step]
    return min(later) if later else problem.horizon + 1


def _contributors(allocation: Allocation, step: int) -> list[str]:
    """Variables with memory accesses at *step*, in pinning order.

    Variables with memory reads or an initial write there come first,
    heaviest first.  Variables whose only accesses there are spill
    writes or reload reads follow, heaviest first, as the last resort.
    """
    problem = allocation.problem
    registered = set(allocation.residency)
    counts: dict[str, int] = {}
    boundary: dict[str, int] = {}
    for name, segments in problem.segments.items():
        hits = 0
        for seg in segments:
            if seg.key in registered:
                continue
            hits += sum(1 for read in seg.reads if read == step)
        if segments[0].key not in registered:
            write_step = _access_step(problem.lifetimes[name].write_time, problem)
            if write_step == step:
                hits += 1
        if hits:
            counts[name] = hits
            continue
        traffic = variable_traffic(problem, allocation.residency, name)
        events = traffic.reload_steps.count(step) + sum(
            1 for spill in traffic.spill_steps
            if _access_step(spill, problem) == step
        )
        if events:
            boundary[name] = events
    return sorted(counts, key=lambda name: (-counts[name], name)) + sorted(
        boundary, key=lambda name: (-boundary[name], name)
    )


def allocate_with_port_limit(
    problem: AllocationProblem,
    max_mem_ports: int,
    max_rounds: int = 64,
    options: SolveOptions | None = None,
) -> PortConstrainedResult:
    """Solve *problem* such that no step needs more than *max_mem_ports*
    simultaneous memory accesses.

    Args:
        problem: The base instance (its existing ``forced_segments`` are
            kept and extended).
        max_mem_ports: Memory port budget (shared read/write ports).
        max_rounds: Safety bound on legalization iterations.
        options: Solve-shaping switches applied to every inner solve
            (see :class:`~repro.core.options.SolveOptions`).

    Returns:
        A :class:`PortConstrainedResult`.

    Raises:
        InfeasibleFlowError: If pinning exceeds the register supply — the
            port budget is unachievable with this register file.
        AllocationError: If the loop fails to converge within
            *max_rounds* (indicates a bug or a degenerate instance).
    """
    if max_mem_ports < 1:
        raise AllocationError(
            f"memory port budget must be >= 1, got {max_mem_ports}"
        )
    options = options or SolveOptions()
    baseline = allocate(problem, options)
    current = baseline
    pinned: set[tuple[str, int]] = set(problem.forced_segments)
    for round_index in range(1, max_rounds + 1):
        usage = port_usage(current)
        offenders = [
            step
            for step in range(1, problem.horizon + 1)
            if usage.mem_accesses_at(step) > max_mem_ports
        ]
        if not offenders:
            return PortConstrainedResult(
                allocation=current,
                pinned=frozenset(pinned - problem.forced_segments),
                rounds=round_index,
                energy_overhead=current.objective - baseline.objective,
            )
        worst = max(offenders, key=usage.mem_accesses_at)
        # Try contributors heaviest-first; a pin can be individually
        # infeasible (a forced segment the graph cannot reach), in which
        # case fall through to the next candidate.
        progressed = False
        for name in _contributors(current, worst):
            keys = [seg.key for seg in problem.segments[name]]
            if set(keys) <= pinned:
                continue
            attempt = pinned | set(keys)
            try:
                current = allocate(
                    problem.with_options(forced_segments=frozenset(attempt)),
                    options,
                )
            except InfeasibleFlowError:
                continue
            pinned = attempt
            progressed = True
            break
        if not progressed:
            raise InfeasibleFlowError(
                f"cannot reduce memory traffic at step {worst} below "
                f"{usage.mem_accesses_at(worst)} accesses with "
                f"{max_mem_ports} ports"
            )
    raise AllocationError(
        f"port legalization did not converge in {max_rounds} rounds"
    )
