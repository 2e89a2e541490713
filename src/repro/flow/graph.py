"""Directed flow-network data structure (struct-of-arrays layout).

This module defines :class:`FlowNetwork`, the substrate every solver in
:mod:`repro.flow` operates on.  Arcs carry an integer capacity, an integer
lower bound and a real-valued cost, matching the minimum-cost network flow
formulation in section 4 of the paper (plus the lower bounds needed by the
split-lifetime extension in section 5.2).

Storage layout (see DESIGN.md, "Performance model"):

* arcs live in parallel per-field sequences — tail index, head index,
  capacity, lower bound, cost, payload — not in per-arc objects;
* :meth:`FlowNetwork.arrays` exposes them as cached numpy arrays
  (``tails``/``heads``/``capacities``/``lowers`` as ``int64``, ``costs``
  as ``float64``), all indexed by arc id, which is what the vectorized
  kernel (:mod:`repro.flow.kernel`) and the bulk builder consume;
* the classic object API (:attr:`FlowNetwork.arcs`,
  :meth:`FlowNetwork.arcs_from`, ...) is a thin compatibility facade:
  :class:`Arc` dataclasses are materialised lazily and cached.  Its
  users are off the plain solve path or touch few arcs: the generic
  path decomposition (positive-flow arcs only; the interval-chaining
  flows of :mod:`repro.core.chain_flow` and the tests call it), the prover's
  independent re-check of a proof it found, the dot export, the LP
  cross-check, the verify oracles and
  :func:`~repro.flow.validate.flow_cost`.  Everything a solve or an
  admission lint runs on the whole network or flow — the kernel,
  validation, the lower-bound reduction, the optimality certificate,
  the register-chain extraction, the network lint rules and the
  prover's discovery path — reads :meth:`FlowNetwork.arrays` and builds
  an :class:`Arc` only to word an error or a finding, so a plain solve
  builds none.

Nodes are arbitrary hashable identifiers supplied by the caller; internally
each node receives a dense integer index (``node_index``) and the arrays
store those indices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable, Iterator, NamedTuple, Sequence

import numpy as np

from repro.exceptions import GraphError

__all__ = ["Arc", "ArcArrays", "FlowNetwork", "FlowResult"]


@dataclass(frozen=True)
class Arc:
    """A directed arc ``tail -> head`` in a :class:`FlowNetwork`.

    Attributes:
        index: Dense identifier of the arc inside its network; flows returned
            by solvers are indexed by this value.
        tail: Node the arc leaves.
        head: Node the arc enters.
        capacity: Upper bound on flow (integer, ``>= lower``).
        lower: Lower bound on flow (integer, ``>= 0``).
        cost: Cost per unit of flow; may be negative (the allocation
            formulation uses negative costs to encode energy *savings*).
        data: Opaque caller payload (the allocator stores what the arc means,
            e.g. which variable segment or handoff it models).
    """

    index: int
    tail: Hashable
    head: Hashable
    capacity: int
    lower: int
    cost: float
    data: Any = None

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        bound = f"[{self.lower},{self.capacity}]"
        return f"{self.tail}->{self.head} {bound} @ {self.cost:g}"


class ArcArrays(NamedTuple):
    """The flat struct-of-arrays view of a network's arcs.

    All five arrays are indexed by arc id (``Arc.index``); ``tails`` and
    ``heads`` hold dense *node indices* (``FlowNetwork.node_index``), not
    node keys.  Treat the arrays as read-only — they are cached on the
    network and shared between callers.
    """

    tails: np.ndarray  #: int64[m] — tail node index per arc
    heads: np.ndarray  #: int64[m] — head node index per arc
    capacities: np.ndarray  #: int64[m] — upper bounds
    lowers: np.ndarray  #: int64[m] — lower bounds
    costs: np.ndarray  #: float64[m] — per-unit costs


class FlowNetwork:
    """A directed graph with arc capacities, lower bounds and costs.

    The class is a plain container: it validates construction-time invariants
    (non-negative integer bounds, known endpoints) and provides adjacency
    queries, but all optimisation lives in the solver modules.  Arcs are
    stored column-wise (struct of arrays); :class:`Arc` objects are built on
    demand for the compatibility API.
    """

    def __init__(self) -> None:
        self._node_index: dict[Hashable, int] = {}
        self._nodes: list[Hashable] = []
        # Parallel per-arc columns, indexed by arc id.
        self._tails: list[int] = []
        self._heads: list[int] = []
        self._caps: list[int] = []
        self._lowers: list[int] = []
        self._costs: list[float] = []
        self._data: list[Any] = []
        # Lazy payload blocks: (start, stop, factory) triples covering
        # bulk-appended ranges whose payloads are built on first access
        # (solvers touch payloads of a handful of arcs, not all of them).
        self._data_factories: list[tuple[int, int, Any]] = []
        self._has_lower = False
        # Lazily built caches, all invalidated by mutation.
        self._np: ArcArrays | None = None
        self._arc_cache: list[Arc | None] = []
        self._arc_tuple: tuple[Arc, ...] | None = None
        self._out_ids: dict[Hashable, list[int]] | None = None
        self._in_ids: dict[Hashable, list[int]] | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, node: Hashable) -> Hashable:
        """Register *node* (idempotent) and return it."""
        if node not in self._node_index:
            self._node_index[node] = len(self._nodes)
            self._nodes.append(node)
            if self._out_ids is not None:
                self._out_ids[node] = []
            if self._in_ids is not None:
                self._in_ids[node] = []
        return node

    def add_arc(
        self,
        tail: Hashable,
        head: Hashable,
        capacity: int,
        cost: float = 0.0,
        lower: int = 0,
        data: Any = None,
    ) -> Arc:
        """Add an arc and return it.

        Endpoints are auto-registered.  Raises :class:`GraphError` on
        self-loops or inconsistent bounds; parallel arcs are permitted.
        """
        if tail == head:
            raise GraphError(f"self-loop arcs are not supported: {tail!r}")
        if not isinstance(capacity, int) or not isinstance(lower, int):
            raise GraphError("capacity and lower bound must be integers")
        if lower < 0:
            raise GraphError(f"negative lower bound {lower} on {tail!r}->{head!r}")
        if capacity < lower:
            raise GraphError(
                f"capacity {capacity} below lower bound {lower} "
                f"on {tail!r}->{head!r}"
            )
        self.add_node(tail)
        self.add_node(head)
        index = len(self._tails)
        self._tails.append(self._node_index[tail])
        self._heads.append(self._node_index[head])
        self._caps.append(capacity)
        self._lowers.append(lower)
        self._costs.append(float(cost))
        self._data.append(data)
        self._has_lower = self._has_lower or lower > 0
        self._invalidate_appended(1)
        if self._out_ids is not None:
            self._out_ids[tail].append(index)
        if self._in_ids is not None:
            self._in_ids[head].append(index)
        return self.arc(index)

    def add_arcs_indexed(
        self,
        tails: np.ndarray,
        heads: np.ndarray,
        capacities: np.ndarray,
        costs: np.ndarray,
        lowers: np.ndarray | None = None,
        data: Sequence[Any] | None = None,
        data_factory: Any = None,
    ) -> int:
        """Bulk-append arcs given dense *node index* arrays; return the
        arc id of the first appended arc.

        This is the vectorized construction path used by
        :func:`repro.core.network_builder.build_network`: all endpoints
        must already be registered (their indices are the coordinates),
        and the per-field arrays are validated wholesale instead of
        per arc.  ``data`` may be ``None`` (all payloads ``None``) or a
        sequence of per-arc payloads; alternatively ``data_factory`` is a
        callable mapping the offset *within this batch* to the payload,
        invoked lazily on first access — the cheap choice for large
        batches whose payloads are rarely read.
        """
        if data is not None and data_factory is not None:
            raise GraphError("pass data or data_factory, not both")
        tails = np.asarray(tails, dtype=np.int64)
        heads = np.asarray(heads, dtype=np.int64)
        capacities = np.asarray(capacities, dtype=np.int64)
        costs = np.asarray(costs, dtype=np.float64)
        k = tails.shape[0]
        if lowers is None:
            lowers = np.zeros(k, dtype=np.int64)
        else:
            lowers = np.asarray(lowers, dtype=np.int64)
        shapes = {a.shape for a in (tails, heads, capacities, costs, lowers)}
        if shapes != {(k,)}:
            raise GraphError("add_arcs_indexed arrays must share one length")
        if data is not None and len(data) != k:
            raise GraphError("add_arcs_indexed data length mismatch")
        n = len(self._nodes)
        if k and (
            tails.min() < 0
            or heads.min() < 0
            or tails.max() >= n
            or heads.max() >= n
        ):
            raise GraphError("add_arcs_indexed endpoint index out of range")
        if np.any(tails == heads):
            where = int(np.argmax(tails == heads))
            raise GraphError(
                f"self-loop arcs are not supported: "
                f"{self._nodes[int(tails[where])]!r}"
            )
        if k and lowers.min() < 0:
            raise GraphError("negative lower bound in bulk arc batch")
        if np.any(capacities < lowers):
            raise GraphError("capacity below lower bound in bulk arc batch")
        start = len(self._tails)
        self._tails.extend(tails.tolist())
        self._heads.extend(heads.tolist())
        self._caps.extend(capacities.tolist())
        self._lowers.extend(lowers.tolist())
        self._costs.extend(costs.tolist())
        if data is None:
            self._data.extend([None] * k)
            if data_factory is not None and k:
                self._data_factories.append((start, start + k, data_factory))
        else:
            self._data.extend(data)
        if k:
            self._has_lower = self._has_lower or bool(lowers.max() > 0)
        self._invalidate_appended(k)
        if self._out_ids is not None or self._in_ids is not None:
            # Cheap to keep adjacency hot rather than rebuild it later.
            for offset, (ti, hi) in enumerate(
                zip(tails.tolist(), heads.tolist())
            ):
                if self._out_ids is not None:
                    self._out_ids[self._nodes[ti]].append(start + offset)
                if self._in_ids is not None:
                    self._in_ids[self._nodes[hi]].append(start + offset)
        return start

    def with_costs(self, costs: np.ndarray) -> FlowNetwork:
        """A copy of this network with every arc cost replaced.

        This is the re-cost hook of cost-only sweeps: the copy keeps the
        node ids, arc ids, capacities, lower bounds and payloads, so a
        warm-start cache keys it to the same topology, and its
        :meth:`arrays` view shares this network's topology columns
        (read-only, like every array view).  This network is left
        untouched, so whoever still holds it keeps its costs.
        """
        costs = np.array(costs, dtype=np.float64)
        if costs.shape != (len(self._costs),):
            raise GraphError(
                f"with_costs expects {len(self._costs)} costs, "
                f"got shape {costs.shape}"
            )
        copy = FlowNetwork()
        copy._node_index = dict(self._node_index)
        copy._nodes = list(self._nodes)
        copy._tails = list(self._tails)
        copy._heads = list(self._heads)
        copy._caps = list(self._caps)
        copy._lowers = list(self._lowers)
        copy._costs = costs.tolist()
        # Lazy payloads do not depend on costs, so the copy may build
        # them from the same factories.
        copy._data = list(self._data)
        copy._data_factories = list(self._data_factories)
        copy._has_lower = self._has_lower
        copy._np = self.arrays()._replace(costs=costs)
        return copy

    def _invalidate_appended(self, appended: int) -> None:
        """Refresh caches after *appended* arcs were added at the end.

        Appends never change existing arcs, so cached :class:`Arc`
        facades stay valid; only the array view and the all-arcs tuple
        are rebuilt lazily.
        """
        self._np = None
        self._arc_tuple = None
        if self._arc_cache:
            self._arc_cache.extend([None] * appended)

    # ------------------------------------------------------------------
    # flat-array access (the solver fast path)
    # ------------------------------------------------------------------
    def arrays(self) -> ArcArrays:
        """The cached struct-of-arrays view of all arcs.

        Returns an :class:`ArcArrays` named tuple of numpy arrays indexed
        by arc id; see the class docs for dtypes.  The arrays are cached
        until the next mutation — callers must not write to them.
        """
        if self._np is None:
            self._np = ArcArrays(
                tails=np.asarray(self._tails, dtype=np.int64),
                heads=np.asarray(self._heads, dtype=np.int64),
                capacities=np.asarray(self._caps, dtype=np.int64),
                lowers=np.asarray(self._lowers, dtype=np.int64),
                costs=np.asarray(self._costs, dtype=np.float64),
            )
        return self._np

    def arc(self, index: int) -> Arc:
        """Materialise (and cache) the :class:`Arc` facade of one arc id."""
        if not self._arc_cache:
            self._arc_cache = [None] * len(self._tails)
        cached = self._arc_cache[index]
        if cached is None:
            cached = Arc(
                index,
                self._nodes[self._tails[index]],
                self._nodes[self._heads[index]],
                self._caps[index],
                self._lowers[index],
                self._costs[index],
                self._payload(index),
            )
            self._arc_cache[index] = cached
        return cached

    def _payload(self, index: int) -> Any:
        """Arc payload, materialising it from a lazy block if needed."""
        value = self._data[index]
        if value is None and self._data_factories:
            for start, stop, factory in self._data_factories:
                if start <= index < stop:
                    value = factory(index - start)
                    self._data[index] = value
                    break
        return value

    def arc_data(self, index: int) -> Any:
        """The opaque payload of arc *index* without materialising it."""
        return self._payload(index)

    # ------------------------------------------------------------------
    # queries (compatibility facade)
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> tuple[Hashable, ...]:
        """All nodes in insertion order."""
        return tuple(self._nodes)

    @property
    def arcs(self) -> tuple[Arc, ...]:
        """All arcs in insertion order (``arc.index`` positions).

        Materialises every :class:`Arc` facade on first use; hot solver
        paths should prefer :meth:`arrays`.
        """
        if self._arc_tuple is None:
            self._arc_tuple = tuple(
                self.arc(i) for i in range(len(self._tails))
            )
        return self._arc_tuple

    @property
    def num_nodes(self) -> int:
        """Number of registered nodes."""
        return len(self._nodes)

    @property
    def num_arcs(self) -> int:
        """Number of arcs."""
        return len(self._tails)

    def has_node(self, node: Hashable) -> bool:
        """Whether *node* has been registered."""
        return node in self._node_index

    def node_index(self, node: Hashable) -> int:
        """Dense integer index of *node* (raises ``KeyError`` if unknown)."""
        return self._node_index[node]

    def _adjacency(self) -> None:
        """Build the out/in arc-id maps (one linear pass, then cached)."""
        out: dict[Hashable, list[int]] = {node: [] for node in self._nodes}
        into: dict[Hashable, list[int]] = {node: [] for node in self._nodes}
        nodes = self._nodes
        for index, (ti, hi) in enumerate(zip(self._tails, self._heads)):
            out[nodes[ti]].append(index)
            into[nodes[hi]].append(index)
        self._out_ids = out
        self._in_ids = into

    def arcs_from(self, node: Hashable) -> tuple[Arc, ...]:
        """Arcs leaving *node*."""
        if self._out_ids is None:
            self._adjacency()
        assert self._out_ids is not None
        return tuple(self.arc(i) for i in self._out_ids[node])

    def arcs_into(self, node: Hashable) -> tuple[Arc, ...]:
        """Arcs entering *node*."""
        if self._in_ids is None:
            self._adjacency()
        assert self._in_ids is not None
        return tuple(self.arc(i) for i in self._in_ids[node])

    def has_lower_bounds(self) -> bool:
        """True if any arc carries a non-zero lower bound."""
        return self._has_lower

    def __iter__(self) -> Iterator[Arc]:
        return iter(self.arcs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FlowNetwork(nodes={self.num_nodes}, arcs={self.num_arcs})"


@dataclass
class FlowResult:
    """Solution of a minimum-cost flow problem.

    Attributes:
        network: The network the problem was solved on.
        flows: Integer flow per arc, indexed by ``arc.index``.
        value: Total flow shipped from source to sink.
        cost: Total cost ``sum(arc.cost * flow[arc])``.
    """

    network: FlowNetwork
    flows: list[int]
    value: int
    cost: float = field(default=0.0)

    def __post_init__(self) -> None:
        costs = self.network.arrays().costs
        flows = np.asarray(self.flows, dtype=np.float64)
        self.cost = float(costs @ flows) if flows.size else 0.0

    def flow(self, arc: Arc) -> int:
        """Flow carried by *arc*."""
        return self.flows[arc.index]

    def saturated_arcs(self) -> list[Arc]:
        """Arcs carrying positive flow."""
        return [
            self.network.arc(i) for i, f in enumerate(self.flows) if f > 0
        ]

    def outflow(self, node: Hashable) -> int:
        """Total flow leaving *node*."""
        return sum(self.flows[a.index] for a in self.network.arcs_from(node))

    def inflow(self, node: Hashable) -> int:
        """Total flow entering *node*."""
        return sum(self.flows[a.index] for a in self.network.arcs_into(node))

