"""Validation utilities for flow solutions.

Every solver result can be checked against the mathematical-programming
formulation of section 4: conservation at interior nodes, bound compliance
on every arc, and the exact source/sink balance.  The allocator runs these
checks on every solve by default and the test suite applies them to every
solution it produces.

The checks read the network's struct-of-arrays view
(:meth:`~repro.flow.graph.FlowNetwork.arrays`) and the result's flow
vector (:attr:`~repro.flow.graph.FlowResult.vector`): integrality comes
from the vector's dtype, the bounds are two vector compares, and
conservation is one node-balance vector.  An
:class:`~repro.flow.graph.Arc` or a node name is built only to word the
error for the first violation found, which is the same violation, with
the same message, an arc-by-arc walk would report.
"""

from __future__ import annotations

from typing import Hashable, NoReturn

import numpy as np

from repro.exceptions import ReproError
from repro.flow.graph import FlowNetwork, FlowResult

__all__ = [
    "FlowValidationError",
    "check_flow",
    "flow_cost",
    "net_inflow",
    "node_balances",
]


class FlowValidationError(ReproError):
    """A flow violates conservation, bounds, or the required value."""


def node_balances(result: FlowResult) -> dict[Hashable, int]:
    """Net flow into each node of *result* (negative = net shipper).

    The single place the conservation arithmetic lives: :func:`check_flow`
    and the lower-bound reduction's value check read the same vector
    (:func:`net_inflow`), and the :mod:`repro.verify` oracles consume it
    via ``check_flow``, so the sign convention cannot drift between the
    solver-side validator and the independent verifier.
    """
    network = result.network
    balance = net_inflow(network, result.vector)
    return dict(zip(network.nodes, balance.tolist()))


def net_inflow(network: FlowNetwork, flows: np.ndarray) -> np.ndarray:
    """:func:`node_balances` as a vector indexed by dense node index."""
    if flows.dtype.kind in "biu":
        flows = flows.astype(np.int64, copy=False)
    arrays = network.arrays()
    balance = np.zeros(network.num_nodes, dtype=flows.dtype)
    np.add.at(balance, arrays.heads, flows)
    np.subtract.at(balance, arrays.tails, flows)
    return balance


def check_flow(
    result: FlowResult,
    source: Hashable,
    sink: Hashable,
    flow_value: int | None = None,
) -> None:
    """Validate *result* against the network it was solved on.

    Checks, in order: the flow vector's length, integrality and arc
    bounds (the lowest offending arc id is named), then conservation
    (the first unbalanced node in insertion order is named; the source
    and sink have their own messages).

    Args:
        result: Solver output to validate.
        source: Source node of the problem.
        sink: Sink node of the problem.
        flow_value: Expected flow value; defaults to ``result.value``.

    Raises:
        FlowValidationError: Describing the first violated constraint.
    """
    network = result.network
    expected = result.value if flow_value is None else flow_value
    vector = result.vector
    if len(vector) != network.num_arcs:
        raise FlowValidationError(
            f"flow vector has {len(vector)} entries for "
            f"{network.num_arcs} arcs"
        )
    flows = _bounded_flow_vector(network, result)
    balance = net_inflow(network, flows)
    suspects = set(np.flatnonzero(balance).tolist())
    terminals = [
        network.node_index(terminal) if network.has_node(terminal) else -1
        for terminal in (source, sink)
    ]
    suspects.update(terminals)
    suspects.discard(-1)
    source_index, sink_index = terminals
    for index in sorted(suspects):
        net = int(balance[index])
        if index == source_index:
            if net != -expected:
                raise FlowValidationError(
                    f"source ships {-net} units, expected {expected}"
                )
        elif index == sink_index:
            if net != expected:
                raise FlowValidationError(
                    f"sink receives {net} units, expected {expected}"
                )
        elif net != 0:
            raise FlowValidationError(
                f"conservation violated at {network.node(index)!r}: "
                f"imbalance {net}"
            )


def _bounded_flow_vector(
    network: FlowNetwork, result: FlowResult
) -> np.ndarray:
    """*result*'s flows as an ``int64`` vector, once every entry is an
    integer within its arc's bounds; raises on the lowest arc id that is
    not."""
    arrays = network.arrays()
    vector = result.vector
    if vector.dtype.kind in "biu":
        outside = (vector < arrays.lowers) | (vector > arrays.capacities)
        if outside.any():
            index = int(np.argmax(outside))
            _raise_out_of_bounds(network, index, result.flows[index])
        return vector.astype(np.int64, copy=False)
    # Some entry is not an integer (or does not fit int64): walk the
    # arcs in id order so integrality and bounds interleave exactly as
    # an arc-by-arc check would.
    flows = result.flows
    lowers = arrays.lowers.tolist()
    capacities = arrays.capacities.tolist()
    for index, f in enumerate(flows):
        if not isinstance(f, (int, np.integer)):
            raise FlowValidationError(
                f"non-integral flow {f!r} on {network.arc(index)}"
            )
        if f < lowers[index] or f > capacities[index]:
            _raise_out_of_bounds(network, index, f)
    return np.asarray(flows, dtype=np.int64)


def _raise_out_of_bounds(
    network: FlowNetwork, index: int, f: int
) -> NoReturn:
    arc = network.arc(index)
    raise FlowValidationError(
        f"flow {f} outside bounds [{arc.lower}, {arc.capacity}] on {arc}"
    )


def flow_cost(result: FlowResult) -> float:
    """Recompute the total cost of *result* from scratch."""
    return sum(
        arc.cost * result.flows[arc.index]
        for arc in result.network.arcs
        if result.flows[arc.index]
    )
