"""Successive-shortest-path minimum-cost flow solver (vectorized).

This is the primary solver used by the allocator.  It drives the
struct-of-arrays kernel in :mod:`repro.flow.kernel`:

1. On acyclic networks (every allocation network) the kernel derives
   *exact* initial potentials in one Kahn-layered sweep, despite
   negative arc costs; otherwise a frontier label-correcting pass that
   tolerates negative reduced costs plays the same role.
2. Each pass then computes shortest paths over reduced costs (scipy
   Dijkstra when available, the label-correcting fallback otherwise),
   the shortest source→sink path is augmented, and the capped
   distances are folded into the potentials (THEORY.md §7), until the
   requested flow value has been shipped.

:func:`solve_min_cost_flows` solves many independent instances in one
kernel: their residual networks sit side by side in one block-diagonal
layout and every pass serves all unfinished instances with one
multi-source search.  Each instance gets exactly the flow it gets alone;
:func:`solve_min_cost_flow` is the one-instance case.

Array invariants: the solver reads the network through
:meth:`~repro.flow.graph.FlowNetwork.arrays` (``int64`` endpoint/bound
columns, ``float64`` costs, indexed by arc id) and the kernel's residual
layout (``rid 2i`` forward / ``2i + 1`` backward, ``rid ^ 1`` partner,
CSR adjacency sorted by tail), and each result carries the kernel's
``int64`` flow vector as it is.  No :class:`~repro.flow.graph.Arc`
object or node name is materialised on this path.

With integer capacities the algorithm returns an integral flow, matching
the integrality guarantee the paper relies on (section 4).  Costs may be
arbitrary floats; relaxations use the shared :data:`repro.flow.tolerances.EPS`
slack.  The solver requires the network to contain no directed cycle of
negative total cost among its *forward* arcs (guaranteed for DAGs); under
that precondition each intermediate flow is optimal for its value, so the
final flow is a true minimum-cost flow.  It is the only solver in the
package: :func:`repro.verify.differential.cross_check` checks its flows
with the optimality certificate and its objective with the section-4 LP.
"""

from __future__ import annotations

from typing import Hashable, Sequence

import numpy as np

from repro.exceptions import GraphError, InfeasibleFlowError
from repro.flow.graph import FlowNetwork, FlowResult
from repro.flow.kernel import FlowKernel, KernelStats
from repro.obs import trace as obs

__all__ = ["solve_min_cost_flow", "solve_min_cost_flows"]

#: One instance of a fixed-value problem: (network, source, sink, value).
Instance = tuple[FlowNetwork, Hashable, Hashable, int]


def solve_min_cost_flow(
    network: FlowNetwork,
    source: Hashable,
    sink: Hashable,
    flow_value: int,
) -> FlowResult:
    """Ship exactly *flow_value* units from *source* to *sink* at minimum cost.

    Args:
        network: Network with integer capacities and real costs.  Arcs must
            not carry lower bounds (use
            :func:`repro.flow.lower_bounds.solve_with_lower_bounds` for
            those).
        source: Source node.
        sink: Sink node.
        flow_value: Exact amount of flow to ship (``>= 0``).

    Returns:
        A :class:`FlowResult` with integral arc flows.

    Raises:
        InfeasibleFlowError: If less than *flow_value* units fit through the
            network.
        GraphError: On lower-bounded arcs, unknown endpoints, or a
            negative-cost directed cycle.
    """
    (result,) = solve_min_cost_flows([(network, source, sink, flow_value)])
    if isinstance(result, InfeasibleFlowError):
        raise result
    return result


def solve_min_cost_flows(
    instances: Sequence[Instance],
) -> list[FlowResult | InfeasibleFlowError]:
    """Solve independent instances in lockstep, each as if alone.

    Args:
        instances: ``(network, source, sink, flow_value)`` tuples, with
            the same contract as :func:`solve_min_cost_flow`.

    Returns:
        Per instance, in order, its :class:`FlowResult` or the
        :class:`InfeasibleFlowError` it raises alone.

    Raises:
        GraphError: On lower-bounded arcs, unknown endpoints, or a
            negative-cost directed cycle in any instance.
    """
    results: list[FlowResult | InfeasibleFlowError | None] = [None] * len(
        instances
    )
    todo: list[int] = []
    for position, (network, source, sink, flow_value) in enumerate(instances):
        if flow_value < 0:
            raise GraphError(
                f"flow value must be non-negative, got {flow_value}"
            )
        if not network.has_node(source) or not network.has_node(sink):
            raise GraphError("source or sink is not a node of the network")
        if network.has_lower_bounds():
            raise GraphError(
                "network has lower-bounded arcs; use solve_with_lower_bounds()"
            )
        if flow_value == 0 or source == sink:
            results[position] = FlowResult(
                network, np.zeros(network.num_arcs, dtype=np.int64), 0
            )
        else:
            todo.append(position)
    if todo:
        chosen = [instances[position] for position in todo]
        kernel = FlowKernel.stacked([network for network, *_ in chosen])
        solved = kernel.solve_many(
            [network.node_index(source) for network, source, _, _ in chosen],
            [network.node_index(sink) for network, _, sink, _ in chosen],
            [flow_value for *_, flow_value in chosen],
            [(source, sink) for _, source, sink, _ in chosen],
        )
        obs.count("ssp.searches", kernel.searches)
        del kernel  # its residual state is no longer needed
        for position, outcome in zip(todo, solved):
            if isinstance(outcome, InfeasibleFlowError):
                results[position] = outcome
                continue
            flows, _, stats = outcome
            count_kernel_work(stats)
            network, _, _, flow_value = instances[position]
            results[position] = FlowResult(network, flows, flow_value)
    return results  # type: ignore[return-value]


def count_kernel_work(stats: KernelStats) -> None:
    """Report one instance's from-scratch kernel solve on the ``ssp.*``
    counters.

    Shared by :func:`solve_min_cost_flows` and the cold path of
    :func:`repro.flow.warm_start.solve_warm`, so a solve's kernel work
    is counted the same with or without a warm-start cache.  The
    ``ssp.searches`` counter belongs to the kernel, not the instance,
    and is counted by the callers.
    """
    obs.count("ssp.solves")
    obs.count("ssp.dijkstra_pops", stats.pops)
    obs.count("ssp.dijkstra_relaxations", stats.relaxations)
    obs.count("ssp.relax_rounds", stats.rounds)
    obs.count("ssp.augmenting_paths", stats.paths)
    obs.count("ssp.potential_updates", stats.potential_updates)
