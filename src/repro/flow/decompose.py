"""Path decomposition of acyclic flows.

Any feasible ``s -> t`` flow on a DAG decomposes into ``value`` simple
paths; in the interval-chaining flows of :mod:`repro.core.chain_flow`
(memory reallocation, bank placement, the hierarchy split and the
Chang-Pedram baseline) each path is one chain.  The decomposition walks
greedily in arc-construction order, which makes results deterministic.
The
allocator walks its own networks' register chains over the flow arrays
instead (:func:`repro.core.allocation.chain_positions`), and the tests
check that walk against this one.
"""

from __future__ import annotations

from typing import Hashable

from repro.exceptions import GraphError
from repro.flow.graph import Arc, FlowNetwork, FlowResult

__all__ = ["decompose_into_paths"]


def decompose_into_paths(
    result: FlowResult,
    source: Hashable,
    sink: Hashable,
) -> list[list[Arc]]:
    """Split *result* into arc paths from *source* to *sink*.

    Returns:
        One list of arcs per flow unit, each tracing ``source -> sink``.

    Raises:
        GraphError: If the flow cannot be decomposed (cyclic flow or
            conservation violation — both indicate an invalid input).
    """
    network: FlowNetwork = result.network
    remaining = list(result.flows)
    # Materialise only the arcs that carry flow (the decomposition never
    # looks at the rest — on large instances that is almost all of them).
    positive = [i for i, f in enumerate(remaining) if f > 0]
    out_arcs: dict[Hashable, list[Arc]] = {}
    for index in positive:
        arc = network.arc(index)
        out_arcs.setdefault(arc.tail, []).append(arc)

    def next_arc(node: Hashable) -> Arc | None:
        for arc in out_arcs.get(node, ()):
            if remaining[arc.index] > 0:
                return arc
        return None

    paths: list[list[Arc]] = []
    guard = network.num_arcs + 2
    while True:
        first = next_arc(source)
        if first is None:
            break
        path: list[Arc] = []
        node = source
        hops = 0
        while node != sink:
            arc = next_arc(node)
            if arc is None:
                raise GraphError(
                    f"path decomposition stuck at {node!r}; "
                    "flow violates conservation"
                )
            remaining[arc.index] -= 1
            path.append(arc)
            node = arc.head
            hops += 1
            if hops > guard:
                raise GraphError("path decomposition found a cycle")
        paths.append(path)
    if any(remaining[index] for index in positive):
        raise GraphError(
            "flow units remain after decomposition; "
            "flow is cyclic or not source-sink"
        )
    return paths
