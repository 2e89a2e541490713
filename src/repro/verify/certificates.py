"""Optimality certificates for fixed-value minimum-cost flows.

A feasible flow of fixed value is minimum-cost **iff** its residual
network contains no negative-cost directed cycle (Klein's optimality
condition).  The classic constructive witness is a vector of *node
potentials* ``pi`` under which every residual arc has non-negative
reduced cost ``c + pi(tail) - pi(head)`` — equivalently, the
complementary-slackness conditions of the section-4 LP hold:

* an arc with residual capacity left (``flow < capacity``) must have
  reduced cost ``>= 0`` (otherwise pushing more flow would be cheaper);
* an arc with retractable flow (``flow > lower``) must have reduced cost
  ``<= 0`` (otherwise pushing the flow back would be cheaper).

:func:`compute_potentials` *constructs* the witness by running
Bellman-Ford over the residual network from a virtual super source; a
relaxation surviving ``n`` passes exposes a negative residual cycle,
which is recovered and reported — the flow is provably suboptimal.
:func:`check_certificate` then *verifies* the witness by pure
arithmetic over all arcs at once: no search, no trust in the
construction.  Together they let any caller (tests, the fuzz harness,
the ``certify`` switch of :func:`repro.core.solver.allocate`) turn "the
solver said so" into a machine-checked proof of optimality.

Both read the network's arrays (:meth:`FlowNetwork.arrays`) and the
flow vector: the residual-arc list is built from their columns in
arc-id order, each arc's forward image before its backward one, and the
Bellman-Ford relaxation over it stays a plain Python loop — it is the
independent check, not a kernel.  Node names are built for the
potentials mapping, and an :class:`Arc` only to word an error.

Everything here depends only on :mod:`repro.flow`, so the solver core
can import it lazily without cycles.
"""

from __future__ import annotations

from typing import Hashable, Sequence

import numpy as np

from repro.exceptions import ReproError
from repro.flow.graph import Arc, FlowNetwork, FlowResult

__all__ = [
    "CertificateError",
    "compute_potentials",
    "check_certificate",
    "certify_optimal",
    "certify_flow",
]

#: Absolute slack allowed on reduced costs (floating-point drift along a
#: path accumulates a few ULPs per hop; allocation networks are small).
DEFAULT_TOLERANCE = 1e-6


class CertificateError(ReproError):
    """A flow failed certification: it is provably not minimum-cost
    (negative residual cycle found) or the offered potentials do not
    satisfy complementary slackness."""


def _residual_arcs(
    network: FlowNetwork, flows: Sequence[int]
) -> list[tuple[int, int, float, int, bool]]:
    """Residual arcs ``(tail, head, cost, arc_id, forward)``, with the
    endpoints as dense node indices.

    A forward residual arc exists while the original arc has capacity
    left; a backward residual arc (negated cost) exists while flow can be
    pushed back down to the arc's lower bound.  The list runs in arc-id
    order, each arc's forward image before its backward one.
    """
    arrays = network.arrays()
    f = np.asarray(flows)
    # Slot 2a is arc a's forward image, slot 2a + 1 its backward one.
    slots = np.flatnonzero(
        np.column_stack([f < arrays.capacities, f > arrays.lowers])
    )
    ids = slots >> 1
    forward = (slots & 1) == 0
    tails = arrays.tails[ids]
    heads = arrays.heads[ids]
    costs = arrays.costs[ids]
    return list(
        zip(
            np.where(forward, tails, heads).tolist(),
            np.where(forward, heads, tails).tolist(),
            np.where(forward, costs, -costs).tolist(),
            ids.tolist(),
            forward.tolist(),
        )
    )


def compute_potentials(
    network: FlowNetwork,
    flows: Sequence[int],
    tolerance: float = DEFAULT_TOLERANCE,
) -> dict[Hashable, float]:
    """Construct certifying node potentials for *flows*, or prove none exist.

    Runs Bellman-Ford on the residual network with every node seeded at
    distance zero (a virtual super source).  The resulting distances are
    valid potentials exactly when no negative residual cycle exists.

    Args:
        network: The network the flow lives on.
        flows: Integer flow per arc, indexed by ``arc.index``.
        tolerance: Absolute slack before a relaxation counts as real.

    Returns:
        Node → potential mapping satisfying complementary slackness.

    Raises:
        CertificateError: If the residual network contains a
            negative-cost cycle — i.e. the flow is provably suboptimal
            for its value.  The message names the cycle's arcs and its
            total cost.
    """
    n = network.num_nodes
    residual = _residual_arcs(network, flows)
    dist = [0.0] * n
    pred: list[tuple[int, int, bool] | None] = [None] * n
    last_relaxed = -1
    for _ in range(n):
        last_relaxed = -1
        for u, v, cost, arc_id, forward in residual:
            if dist[u] + cost < dist[v] - tolerance:
                dist[v] = dist[u] + cost
                pred[v] = (u, arc_id, forward)
                last_relaxed = v
        if last_relaxed == -1:
            return dict(zip(network.nodes, dist))
    # A relaxation on the n-th pass: walk predecessors into the cycle.
    node = last_relaxed
    for _ in range(n):
        entry = pred[node]
        assert entry is not None
        node = entry[0]
    cycle: list[tuple[Arc, bool]] = []
    current = node
    while True:
        entry = pred[current]
        assert entry is not None
        prev, arc_id, forward = entry
        cycle.append((network.arc(arc_id), forward))
        current = prev
        if current == node:
            break
    cycle.reverse()
    total = sum(arc.cost if forward else -arc.cost for arc, forward in cycle)
    steps = ", ".join(
        f"{arc.tail}->{arc.head}" if forward else f"{arc.head}<-{arc.tail}"
        for arc, forward in cycle
    )
    raise CertificateError(
        f"flow is not optimal: residual cycle of cost {total:.6g} "
        f"({steps})"
    )


def check_certificate(
    network: FlowNetwork,
    flows: Sequence[int],
    potentials: dict[Hashable, float],
    tolerance: float = DEFAULT_TOLERANCE,
) -> None:
    """Verify complementary slackness of *potentials* by pure arithmetic.

    For every arc ``u -> v`` with cost ``c`` and reduced cost
    ``rc = c + pi(u) - pi(v)``:

    * ``flow < capacity`` requires ``rc >= -tolerance``;
    * ``flow > lower`` requires ``rc <= tolerance``.

    Both conditions are checked for all arcs at once on the network's
    arrays; the lowest violating arc id is reported.

    Args:
        network: The network the flow lives on.
        flows: Integer flow per arc, indexed by ``arc.index``.
        potentials: Candidate witness (every network node must appear).
        tolerance: Absolute slack allowed per condition.

    Raises:
        CertificateError: Naming the first violated condition, or a node
            missing from the witness.
    """
    nodes = network.nodes
    for node in nodes:
        if node not in potentials:
            raise CertificateError(f"certificate misses node {node!r}")
    arrays = network.arrays()
    pi = np.array([potentials[node] for node in nodes], dtype=np.float64)
    f = np.asarray(flows)
    reduced = arrays.costs + pi[arrays.tails] - pi[arrays.heads]
    too_low = (f < arrays.capacities) & (reduced < -tolerance)
    too_high = (f > arrays.lowers) & (reduced > tolerance)
    violated = np.flatnonzero(too_low | too_high)
    if not violated.size:
        return
    index = int(violated[0])
    arc, flow, rc = network.arc(index), flows[index], float(reduced[index])
    if too_low[index]:
        raise CertificateError(
            f"slackness violated on {arc}: flow {flow} below capacity but "
            f"reduced cost {rc:.6g} < 0 (cheaper flow exists)"
        )
    raise CertificateError(
        f"slackness violated on {arc}: flow {flow} above lower bound "
        f"but reduced cost {rc:.6g} > 0 (retracting is cheaper)"
    )


def certify_optimal(
    network: FlowNetwork,
    flows: Sequence[int],
    tolerance: float = DEFAULT_TOLERANCE,
) -> dict[Hashable, float]:
    """Construct **and** verify an optimality certificate for *flows*.

    Args:
        network: The network the flow lives on (lower bounds allowed).
        flows: Integer flow per arc, indexed by ``arc.index``.
        tolerance: Absolute reduced-cost slack.

    Returns:
        The verified potentials — a reusable witness that the flow is
        minimum-cost among all feasible flows of the same value.

    Raises:
        CertificateError: If the flow is provably suboptimal.
    """
    potentials = compute_potentials(network, flows, tolerance)
    check_certificate(network, flows, potentials, tolerance)
    return potentials


def certify_flow(
    result: FlowResult, tolerance: float = DEFAULT_TOLERANCE
) -> dict[Hashable, float]:
    """Convenience wrapper: certify a solver's :class:`FlowResult`."""
    return certify_optimal(result.network, result.vector, tolerance)
