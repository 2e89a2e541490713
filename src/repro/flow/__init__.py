"""Minimum-cost network flow substrate.

Implements, from scratch, everything the allocation core needs from network
flow theory (paper section 4): a struct-of-arrays network container, a
vectorized successive-shortest-path kernel, a warm-start cache for
cost-only re-solves, the lower-bound transformation used by split
lifetimes, and solution validators.  The kernel is the only solver; the
section-4 LP (:mod:`repro.flow.lp_check`) and the optimality certificate
(:mod:`repro.verify.certificates`) check it.
"""

from repro.flow.decompose import decompose_into_paths
from repro.flow.graph import Arc, ArcArrays, FlowNetwork, FlowResult
from repro.flow.kernel import FlowKernel, KernelStats, ResidualCSR
from repro.flow.lower_bounds import solve, solve_with_lower_bounds
from repro.flow.ssp import solve_min_cost_flow
from repro.flow.warm_start import WarmStartCache, solve_warm, topology_key
from repro.flow.validate import FlowValidationError, check_flow, flow_cost

__all__ = [
    "Arc",
    "ArcArrays",
    "FlowKernel",
    "FlowNetwork",
    "FlowResult",
    "FlowValidationError",
    "KernelStats",
    "ResidualCSR",
    "WarmStartCache",
    "check_flow",
    "decompose_into_paths",
    "flow_cost",
    "solve",
    "solve_min_cost_flow",
    "solve_warm",
    "solve_with_lower_bounds",
    "topology_key",
]
