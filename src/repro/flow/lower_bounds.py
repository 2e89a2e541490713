"""Minimum-cost flow with arc lower bounds.

The split-lifetime extension (paper section 5.2) forces certain variable
segments into the register file by placing a lower bound of 1 on their flow
arcs.  This module reduces the lower-bounded fixed-value problem to a plain
minimum-cost flow via the standard excess/deficit transformation:

* every arc ``u -> v`` with lower bound ``l`` pre-ships ``l`` units, leaving
  residual capacity ``capacity - l`` and creating an excess of ``l`` at ``v``
  and a deficit of ``l`` at ``u``;
* the fixed source→sink value ``F`` is modelled as a virtual ``t -> s`` arc
  with ``lower == capacity == F``, i.e. pure excess at ``s`` and deficit at
  ``t``;
* a super-source feeds all excesses and a super-sink drains all deficits;
  shipping the total excess through the transformed network at minimum cost
  yields (after adding the lower bounds back) a minimum-cost feasible flow of
  the original problem.

Because the transformation only *removes* the ``t -> s`` arc (its residual
capacity is zero) and adds arcs incident to the fresh super terminals, an
acyclic input network stays acyclic, so the successive-shortest-path solver
remains exact despite negative arc costs.

The transformation is exposed as :func:`transform_lower_bounds` so that
a caller can inspect the transformed instance or solve it on its own and
map the answer back with :meth:`LowerBoundTransform.recover`.
:func:`solve_many` does that for many instances at once: it transforms
each lower-bounded one, solves all of them in one lockstep kernel
(:func:`~repro.flow.ssp.solve_min_cost_flows`) and recovers each flow.
A cold :func:`solve` is its one-instance case; only a solve with a
warm-start cache takes its own path.

Both directions run on the networks' arrays
(:meth:`~repro.flow.graph.FlowNetwork.arrays`) and flow vectors: the
original nodes enter the transformed network as one block named by
:meth:`~repro.flow.graph.FlowNetwork.node` (so nothing is named unless
someone asks) and the original arcs in one bulk append, keeping ids
``0..m-1``; excess is summed over the lower-bounded arcs only; and
recovery is ``inner.vector[:m] + lowers``, checked against the source
and sink entries of :func:`~repro.flow.validate.net_inflow`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Hashable, Sequence

import numpy as np

from repro.exceptions import InfeasibleFlowError
from repro.flow.graph import FlowNetwork, FlowResult
from repro.flow.ssp import Instance, solve_min_cost_flows
from repro.flow.validate import net_inflow
from repro.flow.warm_start import WarmStartCache, solve_warm

__all__ = [
    "LowerBoundTransform",
    "transform_lower_bounds",
    "solve_with_lower_bounds",
    "solve",
    "solve_many",
]

_SUPER_SOURCE = ("__repro_super__", "source")
_SUPER_SINK = ("__repro_super__", "sink")


@dataclass(frozen=True)
class LowerBoundTransform:
    """The excess/deficit reduction of one lower-bounded instance.

    Attributes:
        original: The lower-bounded input network.
        source / sink: Terminals of the original fixed-value problem.
        flow_value: The fixed source→sink value of the original problem.
        network: The transformed network (no lower bounds; original arcs
            carry their original index in ``data``).
        super_source / super_sink: Terminals of the transformed problem.
        demand: Flow value the transformed problem must ship (the total
            excess); shipping less means the original bounds are
            infeasible.
    """

    original: FlowNetwork
    source: Hashable
    sink: Hashable
    flow_value: int
    network: FlowNetwork
    super_source: Hashable
    super_sink: Hashable
    demand: int

    def recover(self, inner: FlowResult) -> FlowResult:
        """Map a solution of the transformed problem back to the original.

        Args:
            inner: A flow of :attr:`demand` units on :attr:`network`.

        Returns:
            A :class:`FlowResult` over :attr:`original` with the lower
            bounds added back in.

        Raises:
            InfeasibleFlowError: If the recovered flow does not ship
                :attr:`flow_value` units (the bounds are unsatisfiable).
        """
        original = self.original
        flows = (
            np.asarray(inner.vector[: original.num_arcs], dtype=np.int64)
            + original.arrays().lowers
        )
        result = FlowResult(original, flows, self.flow_value)
        _check_value(result, self.source, self.sink, self.flow_value)
        return result


def transform_lower_bounds(
    network: FlowNetwork,
    source: Hashable,
    sink: Hashable,
    flow_value: int,
) -> LowerBoundTransform:
    """Build the excess/deficit reduction of a lower-bounded instance.

    Args:
        network: Network whose arcs may carry lower bounds.
        source: Source node of the fixed-value problem.
        sink: Sink node of the fixed-value problem.
        flow_value: Exact source→sink flow value.

    Returns:
        The :class:`LowerBoundTransform` describing the equivalent
        plain minimum-cost flow problem.
    """
    arrays = network.arrays()
    n = network.num_nodes
    m = network.num_arcs
    index_of = partial(_index_in, network)
    transformed = FlowNetwork()
    transformed.add_node_block(n, network.node, index_of)
    transformed.add_node(_SUPER_SOURCE)
    transformed.add_node(_SUPER_SINK)
    super_source = transformed.node_index(_SUPER_SOURCE)
    super_sink = transformed.node_index(_SUPER_SINK)

    bounded = np.flatnonzero(arrays.lowers)
    heads = arrays.heads[bounded]
    tails = arrays.tails[bounded]
    lowers = arrays.lowers[bounded]
    balance = np.zeros(n, dtype=np.int64)
    np.add.at(balance, heads, lowers)
    np.subtract.at(balance, tails, lowers)
    # Nodes in the order the bounded arcs first touch them (each arc's
    # head before its tail); the super arcs follow this order, which
    # feeds the kernel's tie-breaking.
    touched = np.column_stack([heads, tails]).ravel()
    touched = touched[np.sort(np.unique(touched, return_index=True)[1])]
    excess: dict[int | tuple[Hashable], int] = dict(
        zip(touched.tolist(), balance[touched].tolist())
    )
    # Virtual t -> s arc carrying exactly flow_value units.  A terminal
    # absent from *network* is keyed by its name, boxed in a 1-tuple.
    for terminal, units in ((source, flow_value), (sink, -flow_value)):
        index = index_of(terminal)
        key = (terminal,) if index is None else index
        excess[key] = excess.get(key, 0) + units

    super_arcs: list[tuple[int, int, int]] = []  # (tail, head, capacity)
    for key, value in excess.items():
        if not value:
            continue
        if isinstance(key, tuple):
            # Registered here, as the first arc touching it would have.
            index = transformed.node_index(transformed.add_node(key[0]))
        else:
            index = key
        if value > 0:
            super_arcs.append((super_source, index, value))
        else:
            super_arcs.append((index, super_sink, -value))
    extra = np.array(super_arcs, dtype=np.int64).reshape(-1, 3)
    # One append: the original arcs keep their ids 0..m-1 and carry
    # them as payload, and the super arcs follow.
    transformed.add_arcs_indexed(
        np.concatenate([arrays.tails, extra[:, 0]]),
        np.concatenate([arrays.heads, extra[:, 1]]),
        np.concatenate([arrays.capacities - arrays.lowers, extra[:, 2]]),
        np.concatenate([arrays.costs, np.zeros(len(extra))]),
        data_factory=partial(_original_id, m),
    )
    return LowerBoundTransform(
        original=network,
        source=source,
        sink=sink,
        flow_value=flow_value,
        network=transformed,
        super_source=_SUPER_SOURCE,
        super_sink=_SUPER_SINK,
        demand=sum(value for value in excess.values() if value > 0),
    )


def solve_with_lower_bounds(
    network: FlowNetwork,
    source: Hashable,
    sink: Hashable,
    flow_value: int,
    warm_cache: WarmStartCache | None = None,
) -> FlowResult:
    """Minimum-cost flow of exactly *flow_value* units honouring lower bounds.

    Args:
        network: Network whose arcs may carry lower bounds.
        source: Source node.
        sink: Sink node.
        flow_value: Exact source→sink flow value.
        warm_cache: Optional :class:`~repro.flow.warm_start.WarmStartCache`
            consulted for replay/incremental re-solves.  A lower-bounded
            instance is cached under its *transformed* network's topology
            key: a cost-only perturbation of the original induces a
            cost-only perturbation of the transform (the fresh super
            arcs always cost zero), so warm starts stay sound.

    Returns:
        A :class:`FlowResult` over the *original* network (lower bounds
        already added back into the reported flows).

    Raises:
        InfeasibleFlowError: If no feasible flow meets the bounds and value.
    """
    if warm_cache is None:
        (result,) = solve_many([(network, source, sink, flow_value)])
        if isinstance(result, InfeasibleFlowError):
            raise result
        return result
    if not network.has_lower_bounds():
        return solve_warm(network, source, sink, flow_value, warm_cache)
    transform = transform_lower_bounds(network, source, sink, flow_value)
    inner = solve_warm(
        transform.network,
        transform.super_source,
        transform.super_sink,
        transform.demand,
        warm_cache,
    )
    return transform.recover(inner)


def _original_id(m: int, offset: int) -> int | None:
    """Payload of transformed arc *offset*: its original id, if any."""
    return offset if offset < m else None


def _index_in(network: FlowNetwork, node: Hashable) -> int | None:
    """*network*'s dense index of *node*, ``None`` for an absent one."""
    return network.node_index(node) if network.has_node(node) else None


def _check_value(
    result: FlowResult, source: Hashable, sink: Hashable, flow_value: int
) -> None:
    """Sanity-check the recovered flow actually ships *flow_value* units."""
    network = result.network
    balance = net_inflow(network, result.vector)
    net_out = -int(balance[network.node_index(source)])
    net_in = int(balance[network.node_index(sink)])
    if net_out != flow_value or net_in != flow_value:
        raise InfeasibleFlowError(
            f"recovered flow ships {net_out}/{net_in} units, "
            f"expected {flow_value} (bounds make the problem infeasible)"
        )


def solve(
    network: FlowNetwork,
    source: Hashable,
    sink: Hashable,
    flow_value: int,
    warm_cache: WarmStartCache | None = None,
) -> FlowResult:
    """Dispatch to the plain or lower-bounded solver as appropriate.

    This is the entry point the allocator uses: it transparently supports
    networks with and without lower bounds, and threads an optional
    warm-start cache down to the kernel.
    """
    return solve_with_lower_bounds(
        network, source, sink, flow_value, warm_cache=warm_cache
    )


def solve_many(
    instances: Sequence[Instance],
) -> list[FlowResult | InfeasibleFlowError]:
    """:func:`solve` for many independent instances, in one kernel.

    Lower-bounded networks are transformed, the plain problems are
    solved in lockstep and each transformed flow is recovered.  Every
    instance gets the flow it gets when solved alone; a cold
    :func:`solve` is the one-instance case.

    Args:
        instances: ``(network, source, sink, flow_value)`` tuples.

    Returns:
        Per instance, in order, its :class:`FlowResult` over the original
        network or the :class:`InfeasibleFlowError` it raises alone.

    Raises:
        GraphError: On malformed input or a negative-cost cycle in any
            instance.
    """
    transforms: list[LowerBoundTransform | None] = []
    plain: list[Instance] = []
    for network, source, sink, flow_value in instances:
        if not network.has_lower_bounds():
            transforms.append(None)
            plain.append((network, source, sink, flow_value))
            continue
        transform = transform_lower_bounds(network, source, sink, flow_value)
        transforms.append(transform)
        plain.append(
            (
                transform.network,
                transform.super_source,
                transform.super_sink,
                transform.demand,
            )
        )
    results: list[FlowResult | InfeasibleFlowError] = []
    for transform, inner in zip(transforms, solve_min_cost_flows(plain)):
        if transform is None or isinstance(inner, InfeasibleFlowError):
            results.append(inner)
            continue
        try:
            results.append(transform.recover(inner))
        except InfeasibleFlowError as exc:
            results.append(exc)
    return results
