"""The paper's core contribution: simultaneous low-energy memory
partitioning and register allocation by minimum-cost network flow."""

from repro.core.allocation import (
    Allocation,
    AllocationResult,
    assign_addresses,
    compute_report,
    memory_intervals,
)
from repro.core.banking import (
    BankAssignment,
    BankPlacement,
    solve_with_banking,
    variable_legal_banks,
    variable_traffic,
)
from repro.core.chain_flow import ChainAssignment, optimal_interval_chains
from repro.core.diagnostics import (
    FeasibilityReport,
    diagnose,
    minimum_feasible_registers,
)
from repro.core.hierarchy import HierarchyResult, partition_memory_hierarchy
from repro.core.memory_realloc import MemoryLayout, reallocate_memory
from repro.core.ports import PortConstrainedResult, allocate_with_port_limit
from repro.core.task_pipeline import TaskGraphResult, allocate_task_graph
from repro.core.network_builder import (
    SINK,
    SOURCE,
    BuiltNetwork,
    build_network,
)
from repro.core.pipeline import (
    PipelineResult,
    allocate_block,
    allocate_schedule,
)
from repro.core.options import SolveOptions
from repro.core.problem import AllocationProblem, GraphStyle
from repro.core.solver import allocate, allocate_flow, allocate_many, solve_built
from repro.core.storage import (
    BankStructure,
    StorageLevel,
    StorageSpec,
    bank_structures,
)

__all__ = [
    "Allocation",
    "AllocationProblem",
    "AllocationResult",
    "BankAssignment",
    "BankPlacement",
    "BankStructure",
    "BuiltNetwork",
    "ChainAssignment",
    "FeasibilityReport",
    "GraphStyle",
    "HierarchyResult",
    "MemoryLayout",
    "PipelineResult",
    "PortConstrainedResult",
    "SINK",
    "SOURCE",
    "SolveOptions",
    "StorageLevel",
    "StorageSpec",
    "TaskGraphResult",
    "allocate",
    "allocate_block",
    "allocate_flow",
    "allocate_many",
    "allocate_schedule",
    "allocate_task_graph",
    "allocate_with_port_limit",
    "assign_addresses",
    "bank_structures",
    "build_network",
    "compute_report",
    "diagnose",
    "memory_intervals",
    "minimum_feasible_registers",
    "optimal_interval_chains",
    "partition_memory_hierarchy",
    "reallocate_memory",
    "solve_built",
    "solve_with_banking",
    "variable_legal_banks",
    "variable_traffic",
]
