"""The allocator: solve Problem 1 by minimum-cost network flow.

``allocate(problem)`` is the package's central entry point: it builds the
flow network, solves the (possibly lower-bounded) minimum-cost flow at flow
value ``R``, decomposes the solution into register chains, assigns memory
addresses, and returns a fully accounted :class:`Allocation`.

Instances carrying a multi-level :class:`~repro.core.storage.StorageSpec`
additionally run the bank-placement second pass
(:mod:`repro.core.banking`) and return with :attr:`Allocation.banking`
populated.

Solve-shaping switches (validation, certification, lint gating, warm
starts, storage hierarchy) travel in one frozen
:class:`~repro.core.options.SolveOptions` bundle shared by every
``allocate*`` entry point.
"""

from __future__ import annotations

from repro.core.allocation import (
    Allocation,
    assign_addresses,
    compute_report,
    decompose_chains,
    memory_intervals,
)
from repro.core.network_builder import BuiltNetwork, build_network
from repro.core.options import SolveOptions
from repro.core.problem import AllocationProblem
from repro.exceptions import AllocationError, InfeasibleFlowError
from repro.flow.lower_bounds import solve as flow_solve
from repro.flow.validate import check_flow
from repro.obs import trace as obs

__all__ = ["allocate", "allocate_flow", "extract_allocation", "solve_built"]

#: Absolute tolerance when cross-checking the recomputed energy against the
#: flow objective.
_ENERGY_TOLERANCE = 1e-6


def allocate(
    problem: AllocationProblem,
    options: SolveOptions | None = None,
    *,
    network: BuiltNetwork | None = None,
) -> Allocation:
    """Solve *problem* and return the optimal :class:`Allocation`.

    Args:
        problem: The instance to solve.
        options: Solve-shaping switches (see
            :class:`~repro.core.options.SolveOptions`); ``None`` uses the
            defaults.  ``options.storage`` applies a hierarchy to
            problems that do not already carry one.
        network: The flow network of *problem*, when the caller already
            built it (the admission lint gate does); it is solved
            instead of a fresh build.  Instances with a storage
            hierarchy build their own per banking round and ignore it.

    Raises:
        LintGateError: If the lint gate is armed and the static analysis
            finds defects at or above the requested severity.
        InfeasibleFlowError: If the register count cannot be realised — in
            practice only when forced (restricted-access) segments demand
            more simultaneous registers than available, or when bank
            overflow pins exhaust the register file.
        AllocationError: If internal invariants are violated (a bug).
        ValueError: If *network* was built for another problem object.
    """
    options = options or SolveOptions()
    if options.storage is not None and problem.storage is None:
        problem = problem.with_options(storage=options.storage)
    if network is not None and network.problem is not problem:
        raise ValueError("network was built for a different problem")
    if options.lint is not None:
        # Lazy import: repro.lint depends on repro.core.problem and the
        # network builder only, so this cannot cycle at import time.
        from repro.lint import gate_problem

        gate_problem(problem, fail_on=options.lint)
    if problem.storage is not None:
        # Lazy import: repro.core.banking imports this module back.
        from repro.core.banking import solve_with_banking

        return solve_with_banking(problem, options)
    if network is not None:
        return solve_built(network, options)
    return allocate_flow(problem, options)


def allocate_flow(
    problem: AllocationProblem, options: SolveOptions | None = None
) -> Allocation:
    """Build and solve the union flow network, without lint gating or
    bank placement (the banking pass calls this per pin round)."""
    options = options or SolveOptions()
    with obs.span("solver.build_network"):
        built = build_network(problem)
    return solve_built(built, options)


def solve_built(
    built: BuiltNetwork, options: SolveOptions | None = None
) -> Allocation:
    """Solve an already-constructed network (used by ablation benches
    and warm-started sweeps).

    Args:
        built: The constructed network.
        options: Solve-shaping switches; ``None`` uses the defaults.
    """
    options = options or SolveOptions()
    problem = built.problem
    with obs.span("solver.flow_solve"):
        # Counter twin of the span: spans carry wall time only, and the
        # admission-gate tests assert "zero solves" off this number.
        obs.count("solver.flow_solve.calls")
        try:
            flow = flow_solve(
                built.network,
                built.source,
                built.sink,
                built.flow_value,
                warm_cache=options.warm_cache,
            )
        except InfeasibleFlowError as exc:
            # Attach the instance so catchers (e.g. the CLI) can run
            # repro.core.diagnostics.diagnose without re-deriving it.
            exc.problem = problem
            raise
    if options.validate:
        with obs.span("solver.validate"):
            check_flow(flow, built.source, built.sink, built.flow_value)
    if options.certify:
        # Lazy import: repro.verify.certificates depends only on
        # repro.flow, so this cannot cycle back into the core package.
        from repro.verify.certificates import certify_flow

        with obs.span("solver.certify"):
            certify_flow(flow)

    return extract_allocation(built, flow, validate=options.validate)


def extract_allocation(
    built: BuiltNetwork, flow, validate: bool = True
) -> Allocation:
    """Turn a solved flow over *built* into a full :class:`Allocation`.

    Decomposes the flow into register chains, derives segment residency,
    assigns memory addresses and re-accounts the energy independently of
    the flow objective.  Exposed separately from :func:`solve_built` so
    a flow from any solver over the same network shares one extraction
    and one energy-accounting cross-check with the production path.

    Args:
        built: The constructed network the flow was solved on.
        flow: A feasible minimum-cost :class:`~repro.flow.graph.FlowResult`
            over ``built.network``.
        validate: Cross-check the recomputed energy against the flow
            objective.

    Raises:
        AllocationError: If the energy accounting disagrees with the flow
            objective (a bug in either path).
    """
    problem = built.problem
    with obs.span("solver.extract"):
        chains, bypass_units = decompose_chains(built, flow)
        residency: dict[tuple[str, int], int] = {}
        for register, chain in enumerate(chains):
            for seg in chain:
                residency[seg.key] = register

        report = compute_report(problem, chains)
        intervals = memory_intervals(problem, residency)
        addresses = assign_addresses(intervals)
        objective = problem.constant_energy() + flow.cost

    if validate:
        recomputed = report.total_energy
        if abs(recomputed - objective) > _ENERGY_TOLERANCE * (
            1.0 + abs(objective)
        ):
            raise AllocationError(
                f"energy accounting mismatch: flow objective {objective:.6f}"
                f" vs recomputed {recomputed:.6f}"
            )

    return Allocation(
        problem=problem,
        flow=flow,
        chains=chains,
        residency=residency,
        memory_addresses=addresses,
        report=report,
        objective=objective,
        unused_registers=bypass_units,
    )
