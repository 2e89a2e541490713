"""Directed flow-network data structure (struct-of-arrays layout).

This module defines :class:`FlowNetwork`, the substrate every solver in
:mod:`repro.flow` operates on.  Arcs carry an integer capacity, an integer
lower bound and a real-valued cost, matching the minimum-cost network flow
formulation in section 4 of the paper (plus the lower bounds needed by the
split-lifetime extension in section 5.2).

Storage layout (see DESIGN.md, "Performance model"):

* arcs live in five numpy columns — ``tails``/``heads``/``capacities``/
  ``lowers`` as ``int64`` (endpoints are dense node indices) and
  ``costs`` as ``float64`` — indexed by arc id, not in per-arc objects.
  :meth:`FlowNetwork.add_arc` grows them in amortised steps and
  :meth:`FlowNetwork.add_arcs_indexed` copies a batch in at once;
  :meth:`FlowNetwork.arrays` hands out read-only views of them, which is
  what the vectorized kernel (:mod:`repro.flow.kernel`) and every
  whole-network reader consume.  A cost-only copy
  (:meth:`FlowNetwork.with_costs`) shares the topology columns,
  copy-on-write;
* payloads are sparse: an arc added with one keeps it in a dict, and a
  bulk batch may name a factory that builds an arc's payload on first
  access;
* a node is registered by name (:meth:`FlowNetwork.add_node`) or as part
  of a block (:meth:`FlowNetwork.add_node_block`) whose names are derived
  only when someone asks for them (:meth:`FlowNetwork.node`,
  :attr:`FlowNetwork.nodes`, an :class:`Arc`, a name lookup);
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
  an :class:`Arc` (or a node name) only to word an error or a finding,
  so a plain solve builds none.

A :class:`FlowResult` carries the solver's ``int64`` flow vector
(:attr:`FlowResult.vector`); its :attr:`~FlowResult.flows` list of
Python ints is built on first access and from then on is the flow the
checkers read.

Nodes are arbitrary hashable identifiers supplied by the caller; internally
each node receives a dense integer index (``node_index``) and the arrays
store those indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterator, NamedTuple, Sequence

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
    node keys.  They are read-only views of the network's own columns,
    shared between callers; writing to one raises.
    """

    tails: np.ndarray  #: int64[m] — tail node index per arc
    heads: np.ndarray  #: int64[m] — head node index per arc
    capacities: np.ndarray  #: int64[m] — upper bounds
    lowers: np.ndarray  #: int64[m] — lower bounds
    costs: np.ndarray  #: float64[m] — per-unit costs


class _Unnamed:
    """Placeholder of a block node whose name nobody has asked for yet;
    it pickles as the module's one instance."""

    def __reduce__(self) -> str:
        return "_UNNAMED"


_UNNAMED = _Unnamed()

#: A node block's name of the node at an offset, and the offset of a
#: name (``None`` when the block holds no node of that name).
_NameOf = Callable[[int], Hashable]
_IndexOf = Callable[[Hashable], "int | None"]


class FlowNetwork:
    """A directed graph with arc capacities, lower bounds and costs.

    The class is a plain container: it validates construction-time invariants
    (non-negative integer bounds, known endpoints) and provides adjacency
    queries, but all optimisation lives in the solver modules.  Arcs are
    stored column-wise (struct of arrays); :class:`Arc` objects and block
    node names are built on demand for the compatibility API.
    """

    def __init__(self) -> None:
        # Names registered one by one; block nodes are found through
        # their block's lookup instead.
        self._node_index: dict[Hashable, int] = {}
        self._nodes: list[Hashable] = []
        self._blocks: list[tuple[int, int, _NameOf, _IndexOf]] = []
        # Arc columns, indexed by arc id; entries past ``_num_arcs`` are
        # spare room for appends.
        self._num_arcs = 0
        self._tails = np.zeros(0, dtype=np.int64)
        self._heads = np.zeros(0, dtype=np.int64)
        self._caps = np.zeros(0, dtype=np.int64)
        self._lowers = np.zeros(0, dtype=np.int64)
        self._costs = np.zeros(0, dtype=np.float64)
        # Sparse payloads, plus (start, stop, factory) triples covering
        # bulk-appended ranges whose payloads are built on first access
        # (solvers touch payloads of a handful of arcs, not all of them).
        self._data: dict[int, Any] = {}
        self._data_factories: list[tuple[int, int, Any]] = []
        self._has_lower = False
        # Lazily built caches.  Appends never change an existing arc, so
        # only the array views, the all-arcs tuple and adjacency refresh.
        self._np: ArcArrays | None = None
        self._arc_cache: dict[int, Arc] = {}
        self._arc_tuple: tuple[Arc, ...] | None = None
        self._out_ids: list[list[int]] | None = None
        self._in_ids: list[list[int]] | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, node: Hashable) -> Hashable:
        """Register *node* (idempotent) and return it."""
        self._register(node)
        return node

    def _register(self, node: Hashable) -> int:
        """The dense index of *node*, registering it first if it is new."""
        index = self._node_index.get(node)
        if index is None:
            index = self._in_block(node)
            if index is None:
                index = self._node_index[node] = len(self._nodes)
                self._nodes.append(node)
                if self._out_ids is not None and self._in_ids is not None:
                    self._out_ids.append([])
                    self._in_ids.append([])
        return index

    def add_node_block(
        self, count: int, name_of: _NameOf, index_of: _IndexOf
    ) -> int:
        """Register *count* nodes at once; return the first one's index.

        The block's names are not built here: ``name_of(offset)`` gives
        the name of the node at index ``start + offset`` when someone
        asks for it, and ``index_of(name)`` maps a name back to its
        offset, or to ``None`` when the block holds no such node (it
        should reject names of another shape without building any).
        The names must be distinct and new to this network.
        """
        start = len(self._nodes)
        self._nodes.extend([_UNNAMED] * count)
        self._blocks.append((start, start + count, name_of, index_of))
        if self._out_ids is not None and self._in_ids is not None:
            self._out_ids.extend([] for _ in range(count))
            self._in_ids.extend([] for _ in range(count))
        return start

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
        ti = self._register(tail)
        hi = self._register(head)
        index = self._num_arcs
        if index == len(self._tails):
            self._reserve(1)
        self._tails[index] = ti
        self._heads[index] = hi
        self._caps[index] = capacity
        self._lowers[index] = lower
        self._costs[index] = cost = float(cost)
        if data is not None:
            self._data[index] = data
        self._has_lower = self._has_lower or lower > 0
        self._appended(index, 1)
        arc = Arc(
            index, self.node(ti), self.node(hi), capacity, lower, cost, data
        )
        self._arc_cache[index] = arc
        return arc

    def add_arcs_indexed(
        self,
        tails: np.ndarray,
        heads: np.ndarray,
        capacities: np.ndarray,
        costs: np.ndarray,
        lowers: np.ndarray | None = None,
        data_factory: Callable[[int], Any] | None = None,
    ) -> int:
        """Bulk-append arcs given dense *node index* arrays; return the
        arc id of the first appended arc.

        This is the vectorized construction path used by
        :func:`repro.core.network_builder.build_network`: all endpoints
        must already be registered (their indices are the coordinates),
        and the per-field arrays are validated wholesale instead of
        per arc — endpoints and bounds must hold integers, as
        :meth:`add_arc` requires.  ``data_factory``, if given, maps the
        offset *within this batch* to that arc's payload; it is invoked
        lazily, on first access, since solvers read the payloads of few
        arcs.  Without it every payload is ``None``.
        """
        tails = _integer_column(tails, "endpoint indices")
        heads = _integer_column(heads, "endpoint indices")
        capacities = _integer_column(capacities, "capacity and lower bound")
        costs = np.asarray(costs, dtype=np.float64)
        k = tails.shape[0]
        if lowers is None:
            lowers = np.zeros(k, dtype=np.int64)
        else:
            lowers = _integer_column(lowers, "capacity and lower bound")
        shapes = {a.shape for a in (tails, heads, capacities, costs, lowers)}
        if shapes != {(k,)}:
            raise GraphError("add_arcs_indexed arrays must share one length")
        n = len(self._nodes)
        if k and (
            tails.min() < 0
            or heads.min() < 0
            or tails.max() >= n
            or heads.max() >= n
        ):
            raise GraphError("add_arcs_indexed endpoint index out of range")
        loops = tails == heads
        if loops.any():
            raise GraphError(
                f"self-loop arcs are not supported: "
                f"{self.node(int(tails[int(np.argmax(loops))]))!r}"
            )
        if k and lowers.min() < 0:
            raise GraphError("negative lower bound in bulk arc batch")
        if np.any(capacities < lowers):
            raise GraphError("capacity below lower bound in bulk arc batch")
        start = self._num_arcs
        self._reserve(k)
        stop = start + k
        self._tails[start:stop] = tails
        self._heads[start:stop] = heads
        self._caps[start:stop] = capacities
        self._lowers[start:stop] = lowers
        self._costs[start:stop] = costs
        if data_factory is not None and k:
            self._data_factories.append((start, stop, data_factory))
        if k:
            self._has_lower = self._has_lower or bool(lowers.max() > 0)
        self._appended(start, k)
        return start

    def with_costs(self, costs: np.ndarray) -> FlowNetwork:
        """A copy of this network with every arc cost replaced.

        This is the re-cost hook of cost-only sweeps: the copy keeps the
        node ids, arc ids, capacities, lower bounds and payloads, so a
        warm-start cache keys it to the same topology.  It shares this
        network's topology columns, copy-on-write: an arc appended to
        either network afterwards does not show in the other.  This
        network is left untouched, so whoever still holds it keeps its
        costs.
        """
        m = self._num_arcs
        costs = np.array(costs, dtype=np.float64)
        if costs.shape != (m,):
            raise GraphError(
                f"with_costs expects {m} costs, got shape {costs.shape}"
            )
        copy = FlowNetwork()
        copy._node_index = dict(self._node_index)
        copy._nodes = list(self._nodes)
        copy._blocks = list(self._blocks)
        # Exactly-sized views: the copy's first append outgrows them and
        # moves to columns of its own, and this network's appends land
        # past their end.
        copy._num_arcs = m
        copy._tails = self._tails[:m]
        copy._heads = self._heads[:m]
        copy._caps = self._caps[:m]
        copy._lowers = self._lowers[:m]
        copy._costs = costs
        # Lazy payloads do not depend on costs, so the copy may build
        # them from the same factories.
        copy._data = dict(self._data)
        copy._data_factories = list(self._data_factories)
        copy._has_lower = self._has_lower
        return copy

    def _reserve(self, extra: int) -> None:
        """Make room for *extra* more arcs, growing every column in
        amortised (doubling) steps."""
        needed = self._num_arcs + extra
        size = len(self._tails)
        if needed <= size:
            return
        size = max(needed, 2 * size)
        m = self._num_arcs
        for name in ("_tails", "_heads", "_caps", "_lowers", "_costs"):
            old = getattr(self, name)
            column = np.empty(size, dtype=old.dtype)
            column[:m] = old[:m]
            setattr(self, name, column)

    def _appended(self, start: int, count: int) -> None:
        """Account for the *count* arcs just written from *start* on."""
        stop = self._num_arcs = start + count
        self._np = None
        self._arc_tuple = None
        if self._out_ids is not None and self._in_ids is not None:
            # Cheap to keep adjacency hot rather than rebuild it later.
            for index, ti, hi in zip(
                range(start, stop),
                self._tails[start:stop].tolist(),
                self._heads[start:stop].tolist(),
            ):
                self._out_ids[ti].append(index)
                self._in_ids[hi].append(index)

    # ------------------------------------------------------------------
    # flat-array access (the solver fast path)
    # ------------------------------------------------------------------
    def arrays(self) -> ArcArrays:
        """Read-only views of the arc columns, as an :class:`ArcArrays`.

        The views share the network's storage (no copy, no conversion)
        and stay valid after later appends, which they do not show; see
        the class docs for dtypes.
        """
        if self._np is None:
            m = self._num_arcs
            views = []
            for column in (
                self._tails, self._heads, self._caps, self._lowers, self._costs
            ):
                view = column[:m]
                view.flags.writeable = False
                views.append(view)
            self._np = ArcArrays(*views)
        return self._np

    def arc(self, index: int) -> Arc:
        """Materialise (and cache) the :class:`Arc` facade of one arc id."""
        cached = self._arc_cache.get(index)
        if cached is None:
            arrays = self.arrays()
            cached = Arc(
                index,
                self.node(int(arrays.tails[index])),
                self.node(int(arrays.heads[index])),
                int(arrays.capacities[index]),
                int(arrays.lowers[index]),
                float(arrays.costs[index]),
                self._payload(index),
            )
            self._arc_cache[index] = cached
        return cached

    def _payload(self, index: int) -> Any:
        """Arc payload, materialising it from a lazy block if needed."""
        value = self._data.get(index)
        if value is None:
            for start, stop, factory in self._data_factories:
                if start <= index < stop:
                    value = factory(index - start)
                    if value is not None:
                        self._data[index] = value
                    break
        return value

    def arc_data(self, index: int) -> Any:
        """The opaque payload of arc *index* without materialising it."""
        return self._payload(index)

    # ------------------------------------------------------------------
    # queries (compatibility facade)
    # ------------------------------------------------------------------
    def node(self, index: int) -> Hashable:
        """The name of the node with dense index *index*.

        A block node's name is derived on this first request and kept.
        Raises ``IndexError`` for an index out of range.
        """
        name = self._nodes[index]
        if name is _UNNAMED:
            index = range(len(self._nodes))[index]
            for start, stop, name_of, _ in self._blocks:
                if start <= index < stop:
                    name = self._nodes[index] = name_of(index - start)
                    break
        return name

    @property
    def nodes(self) -> tuple[Hashable, ...]:
        """All nodes in insertion order."""
        return tuple(map(self.node, range(len(self._nodes))))

    @property
    def arcs(self) -> tuple[Arc, ...]:
        """All arcs in insertion order (``arc.index`` positions).

        Materialises every :class:`Arc` facade on first use; hot solver
        paths should prefer :meth:`arrays`.
        """
        if self._arc_tuple is None:
            self._arc_tuple = tuple(
                self.arc(i) for i in range(self._num_arcs)
            )
        return self._arc_tuple

    @property
    def num_nodes(self) -> int:
        """Number of registered nodes."""
        return len(self._nodes)

    @property
    def num_arcs(self) -> int:
        """Number of arcs."""
        return self._num_arcs

    def _in_block(self, node: Hashable) -> int | None:
        """Dense index of block node *node*, or ``None`` if no block
        holds it."""
        for start, _, _, index_of in self._blocks:
            offset = index_of(node)
            if offset is not None:
                return start + offset
        return None

    def has_node(self, node: Hashable) -> bool:
        """Whether *node* has been registered."""
        return node in self._node_index or self._in_block(node) is not None

    def node_index(self, node: Hashable) -> int:
        """Dense integer index of *node* (raises ``KeyError`` if unknown)."""
        index = self._node_index.get(node)
        if index is None:
            index = self._in_block(node)
            if index is None:
                raise KeyError(node)
        return index

    def _adjacency(self) -> tuple[list[list[int]], list[list[int]]]:
        """The out/in arc-id lists per node index (one linear pass,
        then cached)."""
        if self._out_ids is None or self._in_ids is None:
            n = len(self._nodes)
            out: list[list[int]] = [[] for _ in range(n)]
            into: list[list[int]] = [[] for _ in range(n)]
            arrays = self.arrays()
            for index, (ti, hi) in enumerate(
                zip(arrays.tails.tolist(), arrays.heads.tolist())
            ):
                out[ti].append(index)
                into[hi].append(index)
            self._out_ids = out
            self._in_ids = into
        return self._out_ids, self._in_ids

    def arcs_from(self, node: Hashable) -> tuple[Arc, ...]:
        """Arcs leaving *node*."""
        index = self.node_index(node)
        return tuple(self.arc(i) for i in self._adjacency()[0][index])

    def arcs_into(self, node: Hashable) -> tuple[Arc, ...]:
        """Arcs entering *node*."""
        index = self.node_index(node)
        return tuple(self.arc(i) for i in self._adjacency()[1][index])

    def has_lower_bounds(self) -> bool:
        """True if any arc carries a non-zero lower bound."""
        return self._has_lower

    def __iter__(self) -> Iterator[Arc]:
        return iter(self.arcs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FlowNetwork(nodes={self.num_nodes}, arcs={self.num_arcs})"


def _integer_column(values: Any, what: str) -> np.ndarray:
    """*values* as an ``int64`` column; raises :class:`GraphError` when
    they are not integers (an empty batch passes whatever its dtype)."""
    column = np.asarray(values)
    if column.size and column.dtype.kind not in "biu":
        raise GraphError(f"{what} must be integers")
    return column.astype(np.int64, copy=False)


class FlowResult:
    """Solution of a minimum-cost flow problem.

    Attributes:
        network: The network the problem was solved on.
        flows: Integer flow per arc, indexed by ``arc.index``, as a list
            of Python ints.  A solver's result builds it from
            :attr:`vector` on first access; from then on the list is the
            flow, so editing it in place or assigning a new list changes
            what :attr:`vector` and the checkers read.
        value: Total flow shipped from source to sink.
        cost: Total cost ``sum(arc.cost * flow[arc])``.
    """

    def __init__(
        self,
        network: FlowNetwork,
        flows: Sequence[int] | np.ndarray,
        value: int,
    ) -> None:
        self.network = network
        self.value = value
        if isinstance(flows, np.ndarray):
            self._vector: np.ndarray | None = flows
            self._flows: Sequence[int] | None = None
            weights = flows.astype(np.float64)
        else:
            self._vector = None
            self._flows = flows
            weights = np.asarray(flows, dtype=np.float64)
        costs = network.arrays().costs
        self.cost = float(costs @ weights) if weights.size else 0.0

    @property
    def flows(self) -> list[int]:
        """The per-arc flows as a list (see the class docs)."""
        if self._flows is None:
            assert self._vector is not None
            self._flows = self._vector.tolist()
            self._vector = None
        return self._flows  # type: ignore[return-value]

    @flows.setter
    def flows(self, flows: Sequence[int]) -> None:
        self._flows = flows
        self._vector = None

    @property
    def vector(self) -> np.ndarray:
        """The per-arc flows as a numpy array: the solver's ``int64``
        vector until :attr:`flows` is read or set, then a fresh array of
        that list on every read (whose dtype says whether every entry is
        an integer)."""
        if self._flows is not None:
            return np.asarray(self._flows)
        assert self._vector is not None
        return self._vector

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

    def __repr__(self) -> str:
        return (
            f"FlowResult(network={self.network!r}, flows={self.flows!r}, "
            f"value={self.value!r}, cost={self.cost!r})"
        )
