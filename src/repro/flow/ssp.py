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

Array invariants: the solver reads the network through
:meth:`~repro.flow.graph.FlowNetwork.arrays` (``int64`` endpoint/bound
columns, ``float64`` costs, indexed by arc id) and the kernel's residual
layout (``rid 2i`` forward / ``2i + 1`` backward, ``rid ^ 1`` partner,
CSR adjacency sorted by tail).  No :class:`~repro.flow.graph.Arc` object
is materialised on this path.

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

from typing import Hashable

from repro.exceptions import GraphError
from repro.flow.graph import FlowNetwork, FlowResult
from repro.flow.kernel import FlowKernel, KernelStats
from repro.obs import trace as obs

__all__ = ["solve_min_cost_flow"]


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
    if flow_value < 0:
        raise GraphError(f"flow value must be non-negative, got {flow_value}")
    if not network.has_node(source) or not network.has_node(sink):
        raise GraphError("source or sink is not a node of the network")
    if network.has_lower_bounds():
        raise GraphError(
            "network has lower-bounded arcs; use solve_with_lower_bounds()"
        )
    s = network.node_index(source)
    t = network.node_index(sink)
    if flow_value == 0 or s == t:
        return FlowResult(network, [0] * network.num_arcs, 0)
    kernel = FlowKernel(network)
    flows, _, stats = kernel.solve(
        s, t, flow_value, labels=(source, sink)
    )
    count_kernel_work(stats)
    return FlowResult(network, flows.tolist(), flow_value)


def count_kernel_work(stats: KernelStats) -> None:
    """Report one from-scratch kernel solve on the ``ssp.*`` counters.

    Shared by :func:`solve_min_cost_flow` and the cold path of
    :func:`repro.flow.warm_start.solve_warm`, so a solve's kernel work
    is counted the same with or without a warm-start cache.
    """
    obs.count("ssp.solves")
    obs.count("ssp.dijkstra_pops", stats.pops)
    obs.count("ssp.dijkstra_relaxations", stats.relaxations)
    obs.count("ssp.relax_rounds", stats.rounds)
    obs.count("ssp.augmenting_paths", stats.paths)
    obs.count("ssp.potential_updates", stats.potential_updates)

