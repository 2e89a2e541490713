"""End-to-end allocation pipeline.

The paper's methodology (section 5) runs: schedule the block, extract
lifetimes, solve the simultaneous partition/allocation flow, then solve the
second flow pass that reallocates memory with an activity model.  This
module packages those stages behind two convenience entry points:

* :func:`allocate_block` — from an unscheduled basic block;
* :func:`allocate_schedule` — from an existing schedule (Problem 1's
  actual starting point).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.memory_realloc import MemoryLayout, reallocate_memory
from repro.core.options import SolveOptions
from repro.core.problem import AllocationProblem
from repro.core.solver import allocate
from repro.core.allocation import Allocation
from repro.energy.models import EnergyModel, StaticEnergyModel
from repro.energy.voltage import MemoryConfig
from repro.ir.basic_block import BasicBlock
from repro.obs import trace as obs
from repro.scheduling.list_scheduler import list_schedule
from repro.scheduling.resources import ResourceSet
from repro.scheduling.schedule import Schedule

__all__ = ["PipelineResult", "allocate_block", "allocate_schedule"]


@dataclass
class PipelineResult:
    """Everything the pipeline produced for one basic block.

    Attributes:
        schedule: The schedule the lifetimes came from.
        problem: The constructed Problem 1 instance.
        allocation: The optimal allocation (first flow pass).
        memory_layout: The activity-optimised memory layout (second flow
            pass); ``None`` when the solution leaves memory empty.
    """

    schedule: Schedule
    problem: AllocationProblem
    allocation: Allocation
    memory_layout: MemoryLayout | None

    @property
    def total_energy(self) -> float:
        """Absolute storage energy of the solution (eq. 1/2 objective),
        including per-bank deltas when a storage hierarchy is in play."""
        return self.allocation.total_energy

    def summary(self) -> str:
        """Compact multi-line report for examples and CLI output."""
        lines = [
            f"block {self.schedule.block.name!r}: "
            f"{len(self.problem.lifetimes)} variables over "
            f"{self.problem.horizon} steps "
            f"(max density {self.problem.max_density})",
            self.allocation.format(),
        ]
        if self.memory_layout is not None and self.memory_layout.addresses:
            lines.append(
                f"memory layout ({self.memory_layout.address_count} "
                f"addresses, switching "
                f"{self.memory_layout.switching_energy:.3f}):"
            )
            for name, address in sorted(self.memory_layout.addresses.items()):
                lines.append(f"  @{address}: {name}")
        return "\n".join(lines)


def allocate_schedule(
    schedule: Schedule,
    register_count: int,
    energy_model: EnergyModel | None = None,
    memory: MemoryConfig | None = None,
    reallocate: bool = True,
    options: SolveOptions | None = None,
    **problem_options,
) -> PipelineResult:
    """Run the allocation pipeline on a scheduled block.

    Args:
        schedule: A validated schedule (Problem 1's given input).
        register_count: Register file size ``R``.
        energy_model: Defaults to the static model at nominal voltage.
        memory: Memory operating point; defaults to full-speed memory.
        reallocate: Run the second (memory reallocation) flow pass.
        options: Solve-shaping switches (see
            :class:`~repro.core.options.SolveOptions`); the
            ``options.lint`` gate runs here rather than in the solver so
            the RA1xx schedule rules see the schedule.
        **problem_options: Forwarded to :class:`AllocationProblem`
            (``graph_style``, ``split_at_reads``,
            ``allow_unused_registers``, ``storage``).

    Returns:
        The :class:`PipelineResult`.

    Raises:
        LintGateError: If the lint gate is armed and the static analysis
            finds defects at or above the requested severity.
    """
    options = options or SolveOptions()
    with obs.span("pipeline.build_problem"):
        problem = AllocationProblem.from_schedule(
            schedule,
            register_count=register_count,
            energy_model=energy_model or StaticEnergyModel(),
            memory=memory or MemoryConfig(),
            **problem_options,
        )
    if options.lint is not None:
        from repro.lint import gate_problem

        gate_problem(problem, schedule=schedule, fail_on=options.lint)
    with obs.span("pipeline.allocate"):
        # The gate already ran with schedule context; don't re-arm it.
        allocation = allocate(problem, options.replace(lint=None))
    layout = None
    if reallocate and allocation.memory_addresses:
        with obs.span("pipeline.reallocate"):
            layout = reallocate_memory(allocation)
    return PipelineResult(schedule, problem, allocation, layout)


def allocate_block(
    block: BasicBlock,
    register_count: int,
    resources: ResourceSet | None = None,
    energy_model: EnergyModel | None = None,
    memory: MemoryConfig | None = None,
    reallocate: bool = True,
    options: SolveOptions | None = None,
    **problem_options,
) -> PipelineResult:
    """Schedule *block* (list scheduling) and run the allocation pipeline."""
    with obs.span("pipeline.schedule"):
        schedule = list_schedule(block, resources)
    return allocate_schedule(
        schedule,
        register_count=register_count,
        energy_model=energy_model,
        memory=memory,
        reallocate=reallocate,
        options=options,
        **problem_options,
    )
