"""The allocator: solve Problem 1 by minimum-cost network flow.

``allocate(problem)`` is the package's central entry point: it builds the
flow network, solves the (possibly lower-bounded) minimum-cost flow at flow
value ``R``, decomposes the solution into register chains, assigns memory
addresses, and returns a fully accounted :class:`Allocation`.

``allocate_many(problems)`` does the same for a batch.  Plain problems
(no storage hierarchy, no warm-start cache) are packed, in order, into
groups of at most :data:`GROUP_ARCS` network arcs, and each group's flows
are solved in one lockstep kernel
(:func:`repro.flow.lower_bounds.solve_many`); every problem still gets
its own flow check, certificate and extraction, and the same answer
``allocate`` gives it.  Outcomes are yielded group by group as they
settle, so memory is bounded by one group, not by the batch.
``allocate`` is the one-problem case.

Instances carrying a multi-level :class:`~repro.core.storage.StorageSpec`
additionally run the bank-placement second pass
(:mod:`repro.core.banking`) and return with :attr:`Allocation.banking`
populated.

Solve-shaping switches (validation, certification, lint gating, warm
starts) travel in one frozen :class:`~repro.core.options.SolveOptions`
bundle shared by every ``allocate*`` entry point; a storage hierarchy
is part of the problem itself.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

from repro.core.allocation import (
    Allocation,
    assign_addresses,
    chain_positions,
    compute_report,
    flat_segments,
    memory_hulls,
)
from repro.core.network_builder import BuiltNetwork, build_network
from repro.core.options import SolveOptions
from repro.core.problem import AllocationProblem
from repro.exceptions import AllocationError, InfeasibleFlowError
from repro.flow.lower_bounds import solve as flow_solve
from repro.flow.lower_bounds import solve_many as flow_solve_many
from repro.flow.validate import check_flow
from repro.obs import trace as obs

__all__ = [
    "GROUP_ARCS",
    "Outcome",
    "allocate",
    "allocate_flow",
    "allocate_many",
    "extract_allocation",
    "solve_built",
]

#: Absolute tolerance when cross-checking the recomputed energy against the
#: flow objective.
_ENERGY_TOLERANCE = 1e-6

#: Network arcs of one lockstep group in :func:`allocate_many`: plain
#: problems are packed in order until the next would exceed it; a larger
#: problem solves alone.
GROUP_ARCS = 1 << 14


class Outcome(NamedTuple):
    """One problem's result from :func:`allocate_many`.

    Attributes:
        result: The optimal :class:`Allocation`, or the exception
            :func:`allocate` raises for the problem.
        wall_time_s: The problem's own build, check and extraction time
            plus an equal share of its lockstep group's solve, so the
            outcomes' times sum to the call's work.
    """

    result: Allocation | Exception
    wall_time_s: float


@dataclass
class _Member:
    """A plain problem waiting for its lockstep group."""

    index: int
    built: BuiltNetwork
    options: SolveOptions
    seconds: float


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
            defaults.
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
    ((_, outcome),) = allocate_many([problem], options, networks=[network])
    if isinstance(outcome.result, Exception):
        raise outcome.result
    return outcome.result


def allocate_many(
    problems: Sequence[AllocationProblem],
    options: SolveOptions | Sequence[SolveOptions] | None = None,
    *,
    networks: Sequence[BuiltNetwork | None] | None = None,
) -> Iterator[tuple[int, Outcome]]:
    """Solve every problem, sharing lockstep kernels where they can.

    Problems with a storage hierarchy or a warm-start cache solve one at
    a time, as :func:`allocate` solves them.  The others are packed, in
    order, into groups of at most :data:`GROUP_ARCS` network arcs whose
    flows are solved together; each problem's answer is the one it gets
    alone.  If a group solve fails for any reason other than a
    problem's own infeasibility, each of its problems is solved again
    alone, so a fault fails only the problem it belongs to.

    Outcomes are yielded as they settle, so a caller that reduces each
    one before taking the next holds at most one group's networks and
    flows at a time, however many problems it passes.

    Args:
        problems: The instances.
        options: One :class:`~repro.core.options.SolveOptions` for all,
            or one per problem; ``None`` uses the defaults.
        networks: Per problem, its already-built flow network or
            ``None`` (see :func:`allocate`).

    Yields:
        ``(index, outcome)`` once per problem, where *index* is the
        problem's position in *problems*; a problem's error is its
        outcome's ``result``, never raised.  A plain problem settles
        with its group, so the indices are not always in order.
    """
    count = len(problems)
    if options is None or isinstance(options, SolveOptions):
        per_problem = [options or SolveOptions()] * count
    else:
        per_problem = list(options)
    prebuilt = list(networks) if networks is not None else [None] * count
    group: list[_Member] = []
    group_arcs = 0
    for index, (problem, opts, network) in enumerate(
        zip(problems, per_problem, prebuilt)
    ):
        start = time.perf_counter()
        result: Allocation | Exception | None = None
        try:
            problem = _admit(problem, opts, network)
            if problem.storage is not None or opts.warm_cache is not None:
                result = _solve_alone(problem, opts, network)
            elif network is None:
                with obs.span("solver.build_network"):
                    network = build_network(problem)
        except Exception as exc:  # noqa: BLE001 - a problem's own error
            result = exc
        seconds = time.perf_counter() - start
        if result is not None:
            yield index, Outcome(result, seconds)
            continue
        arcs = network.network.num_arcs
        if group and group_arcs + arcs > GROUP_ARCS:
            yield from _solve_group(group)
            group, group_arcs = [], 0
        group.append(_Member(index, network, opts, seconds))
        group_arcs += arcs
    if group:
        yield from _solve_group(group)


def _admit(
    problem: AllocationProblem,
    options: SolveOptions,
    network: BuiltNetwork | None,
) -> AllocationProblem:
    """The problem to solve, after the network guard and the lint
    gate."""
    if network is not None and network.problem is not problem:
        raise ValueError("network was built for a different problem")
    if options.lint is not None:
        # Lazy import: repro.lint depends on repro.core.problem and the
        # network builder only, so this cannot cycle at import time.
        from repro.lint import gate_problem

        gate_problem(problem, fail_on=options.lint)
    return problem


def _solve_alone(
    problem: AllocationProblem,
    options: SolveOptions,
    network: BuiltNetwork | None,
) -> Allocation | Exception:
    """One problem outside any lockstep group; its error is returned."""
    try:
        if problem.storage is not None:
            # Lazy import: repro.core.banking imports this module back.
            from repro.core.banking import solve_with_banking

            return solve_with_banking(problem, options)
        if network is not None:
            return solve_built(network, options)
        return allocate_flow(problem, options)
    except Exception as exc:  # noqa: BLE001 - a problem's own error
        return exc


def _solve_group(members: list[_Member]) -> Iterator[tuple[int, Outcome]]:
    """Solve one group's flows together, then finish and yield each
    problem in turn."""
    start = time.perf_counter()
    flows: list | None
    try:
        with obs.span("solver.flow_solve"):
            obs.count("solver.flow_solve.calls", len(members))
            flows = flow_solve_many(
                [
                    (
                        member.built.network,
                        member.built.source,
                        member.built.sink,
                        member.built.flow_value,
                    )
                    for member in members
                ]
            )
    except Exception as exc:  # noqa: BLE001 - a fault in the group solve
        # Solving a lone problem again would only repeat its fault;
        # a larger group is solved apart so the fault fails only the
        # problem it belongs to.
        flows = [exc] if len(members) == 1 else None
    share = (time.perf_counter() - start) / len(members)
    for position, member in enumerate(members):
        begin = time.perf_counter()
        built = member.built
        if flows is None:
            result = _solve_alone(built.problem, member.options, built)
        else:
            # Dropped as it is settled, so finished flows do not pile up.
            flow, flows[position] = flows[position], None
            if isinstance(flow, Exception):
                result = flow
                if isinstance(result, InfeasibleFlowError):
                    result.problem = built.problem
            else:
                try:
                    result = _finish(built, flow, member.options)
                except Exception as exc:  # noqa: BLE001 - its own error
                    result = exc
        yield member.index, Outcome(
            result, member.seconds + share + time.perf_counter() - begin
        )


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
            exc.problem = built.problem
            raise
    return _finish(built, flow, options)


def _finish(built: BuiltNetwork, flow, options: SolveOptions) -> Allocation:
    """Check a solved flow as *options* ask, then extract the allocation."""
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
        positions, bypass_units = chain_positions(built, flow)
        flat = flat_segments(problem)
        chains = [[flat[i] for i in chain] for chain in positions]
        residency = {
            seg.key: register
            for register, chain in enumerate(chains)
            for seg in chain
        }
        report = compute_report(problem, chains)
        held = {position for chain in positions for position in chain}
        addresses = assign_addresses(memory_hulls(problem, held))
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
