"""networkx as the independent reference of the flow tests.

Two helpers over a :class:`~repro.flow.graph.FlowNetwork`, both built
from its arcs alone (lower bounds are ignored, as no test here needs
them):

* :func:`networkx_max_flow` — the maximum source→sink flow value, used
  to size a feasible fixed flow value;
* :func:`networkx_min_cost` — the optimal cost of shipping a fixed value,
  the answer the flow kernel must match.
"""

from __future__ import annotations

from typing import Hashable

import networkx as nx

from repro.flow import FlowNetwork

__all__ = ["networkx_max_flow", "networkx_min_cost"]


def networkx_max_flow(
    net: FlowNetwork, source: Hashable, sink: Hashable
) -> int:
    """Maximum flow value from *source* to *sink*, costs ignored.

    A ``DiGraph`` holds one edge per node pair, so parallel arcs are
    merged with their capacities summed.
    """
    graph = nx.DiGraph()
    graph.add_nodes_from(net.nodes)
    for arc in net.arcs:
        if graph.has_edge(arc.tail, arc.head):
            graph[arc.tail][arc.head]["capacity"] += arc.capacity
        else:
            graph.add_edge(arc.tail, arc.head, capacity=arc.capacity)
    return int(nx.maximum_flow_value(graph, source, sink))


def networkx_min_cost(
    net: FlowNetwork, source: Hashable, sink: Hashable, value: int
) -> float:
    """Minimum cost of shipping *value* units from *source* to *sink*."""
    graph = nx.MultiDiGraph()
    for node in net.nodes:
        graph.add_node(node, demand=0)
    graph.nodes[source]["demand"] = -value
    graph.nodes[sink]["demand"] = value
    for arc in net.arcs:
        graph.add_edge(
            arc.tail, arc.head, capacity=arc.capacity, weight=arc.cost
        )
    flow_dict = nx.min_cost_flow(graph)
    # nx.cost_of_flow does not understand MultiDiGraph flow dicts.
    total = 0.0
    for u, inner in flow_dict.items():
        for v, keyed in inner.items():
            for key, flow in keyed.items():
                total += flow * graph[u][v][key]["weight"]
    return total
