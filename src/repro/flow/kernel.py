"""Vectorized minimum-cost-flow kernel over flat residual arrays.

This is the numeric engine behind :func:`repro.flow.ssp.solve_min_cost_flows`
and :mod:`repro.flow.warm_start`.  It operates exclusively on the
struct-of-arrays view of a :class:`~repro.flow.graph.FlowNetwork`
(:meth:`~repro.flow.graph.FlowNetwork.arrays`) and never materialises an
:class:`~repro.flow.graph.Arc`.

Residual layout (DESIGN.md, "Performance model"):

* residual arc ``2*i`` is the forward image of original arc ``i`` and
  ``2*i + 1`` its backward image; ``rid ^ 1`` is always the partner;
* adjacency is CSR-style: ``csr.order`` holds the residual arc ids
  stably sorted by tail and ``csr.indptr[u] : csr.indptr[u + 1]`` slices
  the out-arcs of node ``u``.  The CSR pair depends on topology only, so
  warm starts reuse it across cost perturbations;
* every residual column is stored in that CSR order only: position ``p``
  of ``res_tail``/``res_head`` (dense node indices, ``int32``),
  ``res_cost`` (``+cost``/``-cost``) and ``res_cap`` (forward starts at
  ``capacity``, backward at the current flow) describes residual arc
  ``csr.order[p]``, and a partner table maps each position to its
  reverse arc's position.

One kernel holds ``k >= 1`` independent instances side by side
(:meth:`FlowKernel.stacked`): instance ``i`` owns the nodes from
``noff[i]`` and the arcs from ``aoff[i]``, so the residual graph is
block-diagonal and one CSR, one persistent ``scipy.sparse.csr_array``
and one set of columns serve them all.  :meth:`FlowKernel.solve_many`
runs successive shortest paths on every instance in lockstep; a single
solve is the ``k = 1`` case of the same loop.  Initial potentials come
from one Kahn-layered sweep (:func:`dag_distances`, shared with lint
rule RA604) seeded at every source: the blocks are disconnected, so each
node gets its own instance's distance (a cyclic union is split into
single solves, which start from zeros).  Each round then

* stages ``cost + pot[tail] - pot[head]`` (plus an additive saturation
  blocker, ``inf`` on zero-capacity arcs) for the unfinished instances;
* runs one multi-source ``scipy.sparse.csgraph.dijkstra`` from their
  sources with ``min_only=True`` — every node's nearest source is its
  own instance's, so one O(N) call yields each instance's own
  shortest-path tree;
* recovers every instance's path arcs in one vector step: for each path
  hop the first active, tight arc of the tail's CSR slice into the head;
* pushes each instance's bottleneck and folds its distances, capped at
  its own ``dist[sink]``, into its potentials (THEORY.md §7).

An instance whose sink becomes unreachable leaves the lockstep with its
own :class:`~repro.exceptions.InfeasibleFlowError`; the others carry on.
No instance's flow, potentials, counters or error depend on which
instances share its kernel.  When an instance's reduced costs go
negative, or scipy is absent, a frontier label-correcting scheme
(vectorized Bellman-Ford with a work list, ``np.minimum.at`` scatter)
searches from those instances' sources at once — potential quality
affects the number of rounds, never the distances.  A round count
exceeding ``2n + 4`` there exposes a negative-cost residual cycle,
mirroring the classic Bellman-Ford argument.  Work is reported through
one :class:`KernelStats` per instance into the ``ssp.*`` counters, and
:attr:`FlowKernel.searches` counts the multi-source searches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.exceptions import GraphError, InfeasibleFlowError
from repro.flow.graph import FlowNetwork
from repro.flow.tolerances import EPS

try:  # pragma: no cover - exercised via both branches in CI images
    from scipy.sparse import csr_array as _csr_array
    from scipy.sparse.csgraph import dijkstra as _scipy_dijkstra
except ImportError:  # scipy is optional: SPFA covers every call
    _csr_array = None
    _scipy_dijkstra = None

__all__ = [
    "FlowKernel",
    "KernelStats",
    "ResidualCSR",
    "csr_indptr",
    "csr_slices",
    "dag_distances",
]

_INF = float("inf")


def csr_slices(
    indptr: np.ndarray, frontier: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated CSR slices of the *frontier* nodes.

    Returns ``(pos, degs)``: ``pos`` lists the positions
    ``indptr[u] : indptr[u + 1]`` of every node ``u`` of *frontier*, in
    frontier order, into the tail-grouped arc arrays, and ``degs[j]``
    counts those of ``frontier[j]`` — so ``np.repeat(frontier, degs)``
    is the tail of each position.  One ragged gather, no Python loop.
    """
    starts = indptr[frontier]
    degs = indptr[frontier + 1] - starts
    run_starts = np.cumsum(degs) - degs
    pos = np.repeat(starts - run_starts, degs) + np.arange(int(degs.sum()))
    return pos, degs


def csr_indptr(n: int, tails: np.ndarray) -> np.ndarray:
    """``int64[n + 1]`` slice bounds of tail-grouped arcs over *n* nodes."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(tails, minlength=n), out=indptr[1:])
    return indptr


def dag_distances(
    n: int,
    tails: np.ndarray,
    heads: np.ndarray,
    costs: np.ndarray,
    source: int | np.ndarray,
) -> np.ndarray | None:
    """Exact shortest distances from *source* when the arcs form a DAG.

    One Kahn-layered relaxation sweep touches every arc exactly once
    (negative costs included: a node's distance is final before its
    out-arcs are relaxed).  The arcs must be grouped by tail — the
    positions of each node's out-arcs contiguous and in ascending node
    order, as a (stable) sort by *tails* leaves them.  Returns ``None``
    when the arcs contain a cycle.  Unreachable nodes get ``inf``,
    matching the "known unreachable" potential convention of the
    kernel; a non-finite sum is never relaxed.

    *source* may be an array of sources, all at distance zero: on
    disconnected blocks each node then gets the distance from the
    source of its own block, layer for layer what a sweep of that block
    alone computes.

    The kernel seeds cold-start potentials with it and lint rule RA604
    bounds the cheapest source-to-sink chain with it.
    """
    indptr = csr_indptr(n, tails)
    # Native-width heads: every layer indexes with them.
    heads = np.asarray(heads, dtype=np.intp)
    indeg = np.bincount(heads, minlength=n)
    dist = np.full(n, _INF)
    dist[source] = 0.0
    frontier = np.nonzero(indeg == 0)[0]
    while frontier.size:
        pos, degs = csr_slices(indptr, frontier)
        if not pos.size:
            break
        vv = heads[pos]
        nd = dist[np.repeat(frontier, degs)] + costs[pos]
        reached = np.isfinite(nd)
        np.minimum.at(dist, vv[reached], nd[reached])
        np.subtract.at(indeg, vv, 1)
        frontier = np.unique(vv[indeg[vv] == 0])
    if (indeg > 0).any():
        return None
    return dist


def _segment_sum(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Sum of ``values[bounds[j]:bounds[j + 1]]`` per segment (0 if empty)."""
    total = np.zeros(values.size + 1, dtype=np.int64)
    np.cumsum(values, out=total[1:])
    return total[bounds[1:]] - total[bounds[:-1]]


def _runs(members: np.ndarray) -> list[tuple[int, int]]:
    """Maximal ``[first, stop)`` ranges of consecutive sorted *members*."""
    cuts = np.flatnonzero(np.diff(members) != 1) + 1
    firsts = members[np.concatenate(([0], cuts))]
    lasts = members[np.concatenate((cuts - 1, [members.size - 1]))]
    return list(zip(firsts.tolist(), (lasts + 1).tolist()))


@dataclass(frozen=True)
class ResidualCSR:
    """Topology-only CSR adjacency of a residual network.

    Attributes:
        order: ``int32[2m]`` residual arc ids stably sorted by tail node.
        indptr: ``int32[n + 1]`` slice bounds: the out-arcs of node ``u``
            are ``order[indptr[u] : indptr[u + 1]]``.

    Depends only on ``tails``/``heads`` (never on capacities or costs),
    so a warm-start cache may pin it across cost-only re-solves.
    """

    order: np.ndarray
    indptr: np.ndarray


@dataclass
class KernelStats:
    """Work counters of one instance's solve (fed into ``repro.obs``).

    Attributes:
        pops: Nodes settled across all shortest-path searches (the
            label-correcting fallback counts frontier expansions).
        relaxations: Arcs staged for a search (label-correcting:
            successful distance improvements).
        rounds: Shortest-path searches (label-correcting: its rounds).
        paths: Augmenting paths pushed.
        potential_updates: Node-potential entries rewritten.
        cancellations: Negative residual cycles cancelled (incremental
            re-solve only).
        bf_passes: Bellman-Ford passes run by the incremental re-solve.
    """

    pops: int = 0
    relaxations: int = 0
    rounds: int = 0
    paths: int = 0
    potential_updates: int = 0
    cancellations: int = 0
    bf_passes: int = 0


class FlowKernel:
    """Mutable flat residual state of ``k >= 1`` independent networks.

    ``FlowKernel(network)`` holds one network; :meth:`stacked` lays
    several out block-diagonally.  Lower bounds are not handled here;
    callers transform them away first (:mod:`repro.flow.lower_bounds`).
    Construction is O(m log m) for the CSR sort unless a cached
    :class:`ResidualCSR` is supplied.

    Attributes:
        networks: The instances, in block order.
        noff / aoff: ``int64[k + 1]`` node and arc offsets of the blocks.
        searches: Multi-source shortest-path searches run so far.
    """

    def __init__(
        self, network: FlowNetwork, csr: ResidualCSR | None = None
    ) -> None:
        self._lay_out((network,), csr)

    @classmethod
    def stacked(cls, networks: Sequence[FlowNetwork]) -> "FlowKernel":
        """One kernel over *networks*, block-diagonally (``k >= 1``)."""
        kernel = cls.__new__(cls)
        kernel._lay_out(tuple(networks), None)
        return kernel

    def _lay_out(
        self, networks: tuple[FlowNetwork, ...], csr: ResidualCSR | None
    ) -> None:
        k = len(networks)
        node_counts = [network.num_nodes for network in networks]
        arc_counts = [network.num_arcs for network in networks]
        noff = np.zeros(k + 1, dtype=np.int64)
        np.cumsum(node_counts, out=noff[1:])
        aoff = np.zeros(k + 1, dtype=np.int64)
        np.cumsum(arc_counts, out=aoff[1:])
        n, m = int(noff[-1]), int(aoff[-1])
        self.networks = networks
        self.noff = noff
        self.aoff = aoff
        self.num_nodes = n
        self.num_arcs = m
        self.searches = 0
        idx = np.int32 if max(n, 2 * m) < 2**31 - 1 else np.int64
        blocks = [
            (network.arrays(), int(noff[i]), 2 * int(aoff[i]), 2 * int(aoff[i + 1]))
            for i, network in enumerate(networks)
        ]

        def by_arc_id(forward, backward, dtype) -> np.ndarray:
            """One residual column in arc-id order: the forward image of
            arc ``a`` at ``2a``, the backward one at ``2a + 1``."""
            column = np.empty(2 * m, dtype=dtype)
            for arrays, shift, lo, hi in blocks:
                column[lo:hi:2] = forward(arrays, shift)
                column[lo + 1:hi:2] = backward(arrays, shift)
            return column

        # Each column is built in arc-id order, gathered once into CSR
        # order and dropped, so construction holds one temporary at a time.
        rid_tail = by_arc_id(
            lambda a, shift: a.tails + shift,
            lambda a, shift: a.heads + shift,
            idx,
        )
        if csr is None:
            # Narrow keys let numpy's stable sort pick radix, which is
            # several times faster than comparison sorting here.
            keys = rid_tail.astype(np.int16) if n < 2**15 else rid_tail
            csr = ResidualCSR(
                order=np.argsort(keys, kind="stable").astype(idx),
                indptr=csr_indptr(n, rid_tail).astype(idx),
            )
            del keys
        self.csr = csr
        order = csr.order
        self.res_tail = rid_tail[order]
        del rid_tail
        self.res_head = by_arc_id(
            lambda a, shift: a.heads + shift,
            lambda a, shift: a.tails + shift,
            idx,
        )[order]
        self.res_cost = by_arc_id(
            lambda a, shift: a.costs, lambda a, shift: -a.costs, np.float64
        )[order]
        self.res_cap = by_arc_id(
            lambda a, shift: a.capacities, lambda a, shift: 0, np.int64
        )[order]
        rank = np.empty(2 * m, dtype=idx)
        rank[order] = np.arange(2 * m, dtype=idx)
        self._partner = rank[order ^ 1]
        del rank
        # Additive blocker: 0.0 on active arcs, inf on saturated ones.
        # Adding it to a weight vector masks inactive arcs in one pass.
        self._block = np.where(self.res_cap > 0, 0.0, _INF)
        if _csr_array is not None:
            # One persistent scipy graph sharing ``res_head`` and the
            # CSR bounds; its data buffer is rewritten with fresh
            # reduced costs before every search.
            self._graph = _csr_array(
                (np.zeros(2 * m), self.res_head, csr.indptr), shape=(n, n)
            )
            self._weights = self._graph.data
            self._scratch = np.empty(2 * m)

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------
    def load_flows(self, flows: np.ndarray) -> None:
        """Install a feasible flow as the residual state (``k == 1``).

        ``flows`` is per original arc; forward residual capacity becomes
        ``capacity - flow`` and backward capacity ``flow``.  Used by the
        warm-start path to resume from a previously optimal flow.
        """
        flows = np.asarray(flows, dtype=np.int64)
        (network,) = self.networks
        caps = network.arrays().capacities
        if flows.shape != caps.shape:
            raise GraphError("flow vector length mismatch")
        if flows.min(initial=0) < 0 or np.any(flows > caps):
            raise GraphError("flow vector violates capacities")
        rid_cap = np.empty(2 * self.num_arcs, dtype=np.int64)
        rid_cap[0::2] = caps - flows
        rid_cap[1::2] = flows
        self.res_cap[:] = rid_cap[self.csr.order]
        self._block = np.where(self.res_cap > 0, 0.0, _INF)

    def _push(
        self, pos: np.ndarray, amount: int | np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Push *amount* units through the arcs at positions *pos*.

        *amount* is one value or one per position.  Keeps the blocker in
        sync and returns, per position, whether its partner arc was
        activated and whether the arc itself saturated.
        """
        partners = self._partner[pos]
        activated = self.res_cap[partners] == 0
        self.res_cap[pos] -= amount
        self.res_cap[partners] += amount
        saturated = self.res_cap[pos] == 0
        self._block[pos] = np.where(saturated, _INF, 0.0)
        self._block[partners] = 0.0
        return activated, saturated

    def flows(self) -> np.ndarray:
        """Current per-arc flow (the backward residual capacities)."""
        rid_cap = np.empty(2 * self.num_arcs, dtype=np.int64)
        rid_cap[self.csr.order] = self.res_cap
        return rid_cap[1::2].copy()

    # ------------------------------------------------------------------
    # successive shortest paths, k instances in lockstep
    # ------------------------------------------------------------------
    def solve(
        self,
        source: int,
        sink: int,
        flow_value: int,
        labels: tuple[Any, Any] | None = None,
    ) -> tuple[np.ndarray, np.ndarray, KernelStats]:
        """Ship exactly *flow_value* units at minimum cost (``k == 1``).

        The one-instance case of :meth:`solve_many`.

        Returns:
            ``(flows, potential, stats)`` — per-arc flows, the final
            (feasible) potentials and the work counters.

        Raises:
            InfeasibleFlowError: If the network cannot carry *flow_value*
                units from source to sink.
            GraphError: On a negative-cost residual cycle.
        """
        (outcome,) = self.solve_many(
            [source], [sink], [flow_value], None if labels is None else [labels]
        )
        if isinstance(outcome, InfeasibleFlowError):
            raise outcome
        return outcome

    def solve_many(
        self,
        sources: Sequence[int],
        sinks: Sequence[int],
        flow_values: Sequence[int],
        labels: Sequence[tuple[Any, Any]] | None = None,
    ) -> list[tuple[np.ndarray, np.ndarray, KernelStats] | InfeasibleFlowError]:
        """Successive shortest paths on every instance, in lockstep.

        Runs from the current residual state, with potentials from one
        :func:`dag_distances` sweep seeded at every source (zeros for a
        lone cyclic instance; a cyclic union is solved instance by
        instance instead).

        Args:
            sources / sinks: Dense node index of each instance's source
                and sink, within its own network (distinct per instance).
            flow_values: Units each instance ships (``> 0``).
            labels: Original source/sink keys per instance, for error
                messages.

        Returns:
            Per instance, in block order: ``(flows, potential, stats)``
            — its per-arc flows, final (feasible) potentials (views into
            arrays of the whole union) and work counters — or the
            :class:`InfeasibleFlowError` saying how many units fit.

        Raises:
            GraphError: On a negative-cost residual cycle or a lost
                predecessor arc, in any instance.
        """
        k = len(self.networks)
        if labels is None:
            labels = list(zip(sources, sinks))
        noff = self.noff
        live = self.res_cap > 0
        src = noff[:-1] + np.asarray(sources, dtype=np.int64)
        potential = dag_distances(
            self.num_nodes,
            self.res_tail[live],
            self.res_head[live],
            self.res_cost[live],
            src,
        )
        if potential is None:
            if k > 1:
                return self._solve_apart(sources, sinks, flow_values, labels)
            # A cycle among active arcs: start from zeros and let the
            # label-correcting pass take over (it detects negative
            # cycles).
            potential = np.zeros(self.num_nodes)
        run = _Lockstep(
            self,
            src,
            noff[:-1] + np.asarray(sinks, dtype=np.int64),
            np.asarray(flow_values, dtype=np.int64),
            potential,
            _segment_sum(live, 2 * self.aoff),
        )
        run.ship()
        flows = self.flows()
        outcomes: list[
            tuple[np.ndarray, np.ndarray, KernelStats] | InfeasibleFlowError
        ] = []
        for i in range(k):
            if run.shipped[i] < run.want[i]:
                outcomes.append(
                    _shortfall(int(run.shipped[i]), int(run.want[i]), labels[i])
                )
                continue
            outcomes.append(
                (
                    flows[self.aoff[i]:self.aoff[i + 1]],
                    potential[noff[i]:noff[i + 1]],
                    run.stats(i),
                )
            )
        return outcomes

    def _solve_apart(self, sources, sinks, flow_values, labels):
        """:meth:`solve_many` one instance at a time (cyclic unions)."""
        outcomes = []
        for index, network in enumerate(self.networks):
            alone = FlowKernel(network)
            outcomes += alone.solve_many(
                [sources[index]],
                [sinks[index]],
                [flow_values[index]],
                [labels[index]],
            )
            self.searches += alone.searches
        return outcomes

    # ------------------------------------------------------------------
    # incremental re-solve (warm start, cost-only perturbations)
    # ------------------------------------------------------------------
    def reoptimize(
        self, potential: np.ndarray, stats: KernelStats | None = None
    ) -> tuple[np.ndarray, np.ndarray, KernelStats]:
        """Re-optimise the *current* residual flow after a cost change.

        The loaded flow (see :meth:`load_flows`) stays feasible under any
        cost-only perturbation — capacities, lower bounds and the shipped
        value are untouched — so by Klein's optimality condition it is
        optimal again as soon as its residual network has no negative
        cycle.  This cancels negative reduced-cost cycles (vectorized
        Bellman-Ford sweeps seeded at zero, i.e. a virtual super-source)
        until the converged pass itself *is* the optimality proof.
        Single-instance (``k == 1``).

        Args:
            potential: Previous potentials; non-finite entries are
                treated as zero.  Near-valid potentials make most arcs'
                reduced costs non-negative, so sweeps converge in a few
                passes proportional to the perturbation's reach.
            stats: Optional counters to update in place.

        Returns:
            ``(flows, potential, stats)`` — the re-optimised per-arc
            flows and refreshed potentials: the converged Bellman-Ford
            distances ``d`` satisfy ``d[v] <= d[u] + rc(u, v)`` on every
            active residual arc, so ``potential + d`` certifies the new
            optimum (THEORY.md §7) and seeds the next re-solve.

        Raises:
            GraphError: If cancellation fails to converge (only possible
                on inputs whose costs admit no optimum, e.g. a negative
                cycle of infinite capacity — impossible here since all
                capacities are finite).
        """
        n = self.num_nodes
        stats = stats if stats is not None else KernelStats()
        pot = np.where(np.isfinite(potential), potential, 0.0)
        max_cancels = 2 * self.num_arcs + 8
        # Costs and potentials never change inside a re-solve, only the
        # capacity pattern does — so the reduced costs are computed once
        # and shared by every round below.
        w = self.res_cost + pot[self.res_tail] - pot[self.res_head]
        neg_cost = w < -EPS
        indptr = self.csr.indptr
        fmask = np.zeros(n, dtype=bool)
        while True:  # one round per batch of cancelled cycles
            dist = np.zeros(n)
            # Predecessor arc (CSR position) per node, -1 where absent.
            pred = np.full(n, -1, dtype=np.int64)
            # Seeding every node at distance zero (a virtual super-source)
            # means only strictly negative active arcs can improve first;
            # later passes only need the out-arcs of nodes whose distance
            # just dropped, exactly like the label-correcting fallback.
            neg = np.nonzero(neg_cost & (self.res_cap > 0))[0]
            stats.bf_passes += 1
            stats.relaxations += int(neg.size)
            if neg.size == 0:
                return self.flows(), pot + dist, stats
            v = self.res_head[neg]
            nd = w[neg]
            np.minimum.at(dist, v, nd)
            win = nd <= dist[v]
            winners = v[win]
            pred[winners] = neg[win]
            fmask[winners] = True
            frontier = np.nonzero(fmask)[0]
            fmask[frontier] = False
            converged = False
            cancelled = False
            for sweep in range(n + 2):
                # A cycle in the predecessor graph is always a negative
                # reduced-cost cycle (each pred arc was a strict
                # improvement when assigned, so the cycle's weights sum
                # below zero).  Checking the pred graph every few passes
                # finds cycles in ~cycle-length passes instead of burning
                # an ``n + 1``-pass detection budget per cancellation.
                if not frontier.size or sweep % 4 == 3:
                    cycles = self._pred_cycles(pred)
                    if cycles:
                        # Node-disjoint cycles use distinct pred arcs,
                        # and a push only *raises* the partner arcs'
                        # capacity, so every cycle found can be cancelled
                        # in one go.
                        for pos in cycles:
                            bottleneck = int(self.res_cap[pos].min())
                            self._push(pos, bottleneck)
                            stats.cancellations += 1
                        cancelled = True
                        break
                if not frontier.size:
                    converged = True
                    break
                stats.bf_passes += 1
                pos, degs = csr_slices(indptr, frontier)
                if not pos.size:
                    converged = True
                    break
                u = np.repeat(frontier, degs)
                live = self.res_cap[pos] > 0
                pos = pos[live]
                u = u[live]
                v = self.res_head[pos]
                nd = dist[u] + w[pos]
                better = nd < dist[v] - EPS
                stats.relaxations += int(pos.size)
                v2 = v[better]
                nd2 = nd[better]
                p2 = pos[better]
                np.minimum.at(dist, v2, nd2)
                win = nd2 <= dist[v2]
                winners = v2[win]
                pred[winners] = p2[win]
                fmask[winners] = True
                frontier = np.nonzero(fmask)[0]
                fmask[frontier] = False
            if converged:
                return self.flows(), pot + dist, stats
            if not cancelled or stats.cancellations > max_cancels:
                raise GraphError(
                    "incremental re-solve failed to converge "
                    "(cycle cancellation bound exceeded)"
                )

    def _pred_cycles(self, pred: np.ndarray) -> list[np.ndarray]:
        """Extract the node-disjoint cycles of a predecessor-arc forest.

        ``pred[v]`` is the CSR position of the residual arc currently
        entering *v* (or ``-1``).  Every node has at most one such arc,
        so the "follow your predecessor's tail" graph is functional:
        iteratively peeling nodes that nobody points at (or whose
        successor was peeled) leaves exactly the nodes lying on cycles,
        and each surviving cycle's arcs are the ``pred`` entries of its
        nodes.
        """
        n = self.num_nodes
        alive = pred >= 0
        if not alive.any():
            return []
        succ = np.where(alive, self.res_tail[np.where(alive, pred, 0)], 0)
        while True:
            ok = alive & alive[succ]
            indeg = np.bincount(succ[ok], minlength=n)
            new_alive = ok & (indeg > 0)
            if new_alive.sum() == alive.sum():
                break
            alive = new_alive
            if not alive.any():
                return []
        cycles: list[np.ndarray] = []
        seen = np.zeros(n, dtype=bool)
        for start in np.nonzero(alive)[0]:
            vtx = int(start)
            if seen[vtx]:
                continue
            arcs: list[int] = []
            while not seen[vtx]:
                seen[vtx] = True
                arcs.append(int(pred[vtx]))
                vtx = int(succ[vtx])
            cycles.append(np.asarray(arcs, dtype=np.int64))
        return cycles


def _shortfall(
    shipped: int, flow_value: int, labels: tuple[Any, Any]
) -> InfeasibleFlowError:
    """The error of an instance whose sink became unreachable."""
    src_label, dst_label = labels
    if shipped == 0:
        return InfeasibleFlowError(
            f"sink {dst_label!r} unreachable from source {src_label!r}"
        )
    return InfeasibleFlowError(
        f"only {shipped} of {flow_value} flow units fit "
        f"from {src_label!r} to {dst_label!r}"
    )


class _Lockstep:
    """The per-round state of one :meth:`FlowKernel.solve_many` call.

    Every array here is indexed by instance (``k`` entries) except
    ``potential`` (union nodes); the kernel's columns hold the rest.
    """

    def __init__(
        self,
        kernel: FlowKernel,
        sources: np.ndarray,
        sinks: np.ndarray,
        want: np.ndarray,
        potential: np.ndarray,
        active_arcs: np.ndarray,
    ) -> None:
        k = len(kernel.networks)
        self.kernel = kernel
        self.sources = sources
        self.sinks = sinks
        self.want = want
        self.potential = potential
        self.active_arcs = active_arcs
        self.shipped = np.zeros(k, dtype=np.int64)
        self.node_counts = np.diff(kernel.noff)
        # Potentials free of ``inf`` (known-unreachable) entries, and
        # potentials proven to leave every reduced cost non-negative
        # (folding capped Dijkstra distances preserves this, THEORY.md
        # §7, so the scan is skipped from then on).
        self.finite = _segment_sum(~np.isfinite(potential), kernel.noff) == 0
        self.vetted = np.zeros(k, dtype=bool)
        self.pops = np.zeros(k, dtype=np.int64)
        self.relaxations = np.zeros(k, dtype=np.int64)
        self.rounds = np.zeros(k, dtype=np.int64)
        self.paths = np.zeros(k, dtype=np.int64)
        self.potential_updates = np.zeros(k, dtype=np.int64)

    def stats(self, i: int) -> KernelStats:
        """Instance *i*'s work counters."""
        return KernelStats(
            pops=int(self.pops[i]),
            relaxations=int(self.relaxations[i]),
            rounds=int(self.rounds[i]),
            paths=int(self.paths[i]),
            potential_updates=int(self.potential_updates[i]),
        )

    def ship(self) -> None:
        """Augment every instance until it ships its value or runs dry."""
        members = np.flatnonzero(self.want > 0)
        runs = _runs(members) if members.size else []
        while members.size:
            dist, labelled, pred_node, pred_arc = self._search(members, runs)
            sink_dist = dist[self.sinks[members]]
            # A sink out of reach ends that instance (shortfall).
            reached = np.isfinite(sink_dist)
            augment = members[reached]
            if augment.size:
                on_tree = augment[~labelled[augment]]
                by_label = augment[labelled[augment]]
                arcs, counts = self._tree_arcs(on_tree, pred_node, dist)
                walked = [self._walk(i, pred_arc) for i in by_label.tolist()]
                self._augment(
                    np.concatenate((on_tree, by_label)),
                    np.concatenate(
                        [arcs] + [np.asarray(p, dtype=np.int64) for p in walked]
                    ),
                    np.asarray(counts + [len(p) for p in walked]),
                )
                cap = np.full(len(self.kernel.networks), _INF)
                tree = reached & ~labelled[members]
                cap[members[tree]] = sink_dist[tree]
                self._fold(runs, dist, cap, ~labelled)
            done = ~reached | (self.shipped[members] >= self.want[members])
            if done.any():
                members = members[~done]
                runs = _runs(members) if members.size else []

    # -- one round ------------------------------------------------------
    def _search(self, members, runs):
        """Shortest distances from every member's source, one search per
        method: ``(dist, labelled, pred_node, pred_arc)``.

        Members whose reduced costs are all non-negative go to one
        multi-source Dijkstra (``pred_node`` holds tree parents); the
        rest (``labelled``, a per-instance mask) to one label-correcting
        pass (``pred_arc`` holds CSR positions).  Both fill ``dist`` on
        their own blocks only.
        """
        kernel = self.kernel
        k = len(kernel.networks)
        labelled = np.zeros(k, dtype=bool)
        if _scipy_dijkstra is None:
            labelled[members] = True
        else:
            self._stage(runs)
            check = members[~(self.vetted[members] & self.finite[members])]
            if check.size:
                low = self._weight_mins(runs)[check] < -EPS
                labelled[check[low]] = True
                passed = check[~low]
                self.vetted[passed[self.finite[passed]]] = True
        dijkstra = members[~labelled[members]]
        spfa = members[labelled[members]]
        dist = pred_node = pred_arc = None
        if dijkstra.size:
            weights = kernel._weights
            for i0, i1 in runs:
                lo, hi = 2 * kernel.aoff[i0], 2 * kernel.aoff[i1]
                np.maximum(weights[lo:hi], 0.0, out=weights[lo:hi])
            self._count_staged(dijkstra)
            dist, pred_node, _ = _scipy_dijkstra(
                kernel._graph,
                indices=self.sources[dijkstra],
                min_only=True,
                return_predecessors=True,
            )
            kernel.searches += 1
            self.rounds[dijkstra] += 1
        if spfa.size:
            spfa_dist, pred_arc = self._label_correcting(spfa)
            kernel.searches += 1
            dist = (
                spfa_dist if dist is None else np.minimum(dist, spfa_dist)
            )
        return dist, labelled, pred_node, pred_arc

    def _stage(self, runs) -> None:
        """Write the reduced costs of the *runs*' arcs into the graph.

        ``cost + pot[tail] - pot[head] + blocker``; an arc touching a
        known-unreachable (``inf``) node is masked with ``inf`` too.
        """
        kernel = self.kernel
        pot = self.potential
        for i0, i1 in runs:
            lo, hi = 2 * kernel.aoff[i0], 2 * kernel.aoff[i1]
            w = kernel._weights[lo:hi]
            pot_head = kernel._scratch[lo:hi]
            np.take(pot, kernel.res_tail[lo:hi], out=w, mode="clip")
            np.take(pot, kernel.res_head[lo:hi], out=pot_head, mode="clip")
            if self.finite[i0:i1].all():
                np.add(kernel.res_cost[lo:hi], w, out=w)
                np.subtract(w, pot_head, out=w)
                np.add(w, kernel._block[lo:hi], out=w)
                continue
            with np.errstate(invalid="ignore"):
                np.add(kernel.res_cost[lo:hi], w, out=w)
                np.subtract(w, pot_head, out=w)
                np.add(w, kernel._block[lo:hi], out=w)
            w[~np.isfinite(w)] = _INF

    def _weight_mins(self, runs) -> np.ndarray:
        """Smallest staged weight per instance (``inf`` outside *runs*)."""
        kernel = self.kernel
        mins = np.full(len(kernel.networks), _INF)
        for i0, i1 in runs:
            bounds = 2 * kernel.aoff[i0:i1 + 1]
            starts = bounds[:-1] - bounds[0]
            full = bounds[1:] > bounds[:-1]
            if full.any():
                mins[i0:i1][full] = np.minimum.reduceat(
                    kernel._weights[bounds[0]:bounds[-1]], starts[full]
                )
        return mins

    def _count_staged(self, members: np.ndarray) -> None:
        """Credit each member with the arcs its search may relax."""
        kernel = self.kernel
        finite = self.finite[members]
        self.relaxations[members[finite]] += self.active_arcs[members[finite]]
        for i in members[~finite].tolist():
            lo, hi = 2 * kernel.aoff[i], 2 * kernel.aoff[i + 1]
            self.relaxations[i] += int(
                np.count_nonzero(np.isfinite(kernel._weights[lo:hi]))
            )

    def _label_correcting(
        self, members: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized label-correcting search from the members' sources.

        Handles negative reduced costs.  Returns ``(dist, pred)`` —
        uncapped distances (``inf`` where unreachable or outside the
        members' blocks) and the predecessor arc's CSR position per node
        (``-1`` where absent).

        Raises:
            GraphError: When a member's rounds exceed ``2n + 4`` for its
                ``n`` nodes, which (by the Bellman-Ford argument, with
                slack for the ``EPS`` relaxation margin) proves a
                negative-cost residual cycle.
        """
        kernel = self.kernel
        k = len(kernel.networks)
        noff = kernel.noff
        indptr = kernel.csr.indptr
        potential = self.potential
        dist = np.full(kernel.num_nodes, _INF)
        pred = np.full(kernel.num_nodes, -1, dtype=np.int64)
        frontier = np.sort(self.sources[members])
        dist[frontier] = 0.0
        max_rounds = 2 * self.node_counts + 4
        spent = np.zeros(k, dtype=np.int64)
        while frontier.size:
            owner = np.searchsorted(noff, frontier, side="right") - 1
            present = np.unique(owner)
            spent[present] += 1
            self.rounds[present] += 1
            if (spent[present] > max_rounds[present]).any():
                raise GraphError("network contains a negative-cost cycle")
            self.pops += np.bincount(owner, minlength=k)
            pos, degs = csr_slices(indptr, frontier)
            if not pos.size:
                break
            u = np.repeat(frontier, degs)
            live = kernel.res_cap[pos] > 0
            pos = pos[live]
            u = u[live]
            v = kernel.res_head[pos]
            pot_v = potential[v]
            known = np.isfinite(pot_v)
            if not known.all():
                pos = pos[known]
                u = u[known]
                v = v[known]
                pot_v = pot_v[known]
            reduced = kernel.res_cost[pos] + potential[u] - pot_v
            nd = dist[u] + reduced
            better = nd < dist[v] - EPS
            if not better.any():
                break
            v2 = v[better]
            nd2 = nd[better]
            p2 = pos[better]
            self.relaxations += np.bincount(
                np.searchsorted(noff, v2, side="right") - 1, minlength=k
            )
            np.minimum.at(dist, v2, nd2)
            win = nd2 <= dist[v2]
            winners = v2[win]
            pred[winners] = p2[win]
            frontier = np.unique(winners)
        return dist, pred

    def _tree_arcs(
        self, members: np.ndarray, pred_node: np.ndarray, dist: np.ndarray
    ) -> tuple[np.ndarray, list[int]]:
        """CSR positions of each member's sink path in the Dijkstra tree.

        The tree gives nodes; the arc into each path node is the first
        active arc of its parent's CSR slice whose reduced cost is tight,
        picked for every hop of every member in one vector step.
        Returns the positions (member-major, sink first) and the hop
        count per member.

        Raises:
            GraphError: If some hop has no such arc.
        """
        if not members.size:
            return np.zeros(0, dtype=np.int64), []
        kernel = self.kernel
        parent = pred_node.item
        tails: list[int] = []
        heads: list[int] = []
        counts: list[int] = []
        for source, sink in zip(
            self.sources[members].tolist(), self.sinks[members].tolist()
        ):
            v = sink
            start = len(tails)
            while v != source:
                u = parent(v)
                tails.append(u)
                heads.append(v)
                v = u
            counts.append(len(tails) - start)
        tail = np.asarray(tails, dtype=np.int64)
        head = np.asarray(heads, dtype=np.int64)
        pos, degs = csr_slices(kernel.csr.indptr, tail)
        hop = np.repeat(np.arange(tail.size), degs)
        gap = (dist[head] - dist[tail])[hop]
        tight = np.flatnonzero(
            (kernel.res_head[pos] == head[hop])
            & (kernel.res_cap[pos] > 0)
            & (np.abs(kernel._weights[pos] - gap) <= EPS)
        )
        first = np.ones(tight.size, dtype=bool)
        first[1:] = hop[tight[1:]] != hop[tight[:-1]]
        chosen = tight[first]
        if chosen.size != tail.size:
            raise GraphError("Dijkstra predecessor arc lost")
        return pos[chosen], counts

    def _walk(self, i: int, pred_arc: np.ndarray) -> list[int]:
        """CSR positions of member *i*'s sink path (label-correcting)."""
        source = int(self.sources[i])
        tail = self.kernel.res_tail.item
        arc_into = pred_arc.item
        v = int(self.sinks[i])
        path: list[int] = []
        while v != source:
            p = arc_into(v)
            path.append(p)
            v = tail(p)
        return path

    def _augment(
        self, members: np.ndarray, arcs: np.ndarray, counts: np.ndarray
    ) -> None:
        """Push each member's bottleneck along its path.

        *arcs* holds the members' paths back to back (CSR positions),
        *counts* their lengths (each at least one arc).
        """
        starts = np.cumsum(counts) - counts
        bottleneck = np.minimum(
            np.minimum.reduceat(self.kernel.res_cap[arcs], starts),
            self.want[members] - self.shipped[members],
        )
        activated, saturated = self.kernel._push(
            arcs, np.repeat(bottleneck, counts)
        )
        self.active_arcs[members] += np.add.reduceat(
            activated.astype(np.int64) - saturated, starts
        )
        self.shipped[members] += bottleneck
        self.paths[members] += 1

    def _fold(
        self, runs, dist: np.ndarray, cap: np.ndarray, tree: np.ndarray
    ) -> None:
        """Fold the round's distances into the potentials.

        Each instance's distances are capped at *cap* (its own sink
        distance after a Dijkstra search, ``inf`` after a
        label-correcting one) so active reduced costs stay non-negative
        (THEORY.md §7); nodes left unreached become ``inf``.  The nodes
        a Dijkstra search settled are counted for the instances in
        *tree* (a per-instance mask).
        """
        kernel = self.kernel
        for i0, i1 in runs:
            lo, hi = kernel.noff[i0], kernel.noff[i1]
            bounds = kernel.noff[i0:i1 + 1] - lo
            raw = dist[lo:hi]
            settled = _segment_sum(np.isfinite(raw), bounds)
            self.pops[i0:i1] += np.where(tree[i0:i1], settled, 0)
            d = np.minimum(raw, np.repeat(cap[i0:i1], self.node_counts[i0:i1]))
            pot = self.potential[lo:hi]
            known = np.isfinite(pot)
            reached = np.isfinite(d)
            update = reached & known
            pot[update] += d[update]
            self.potential_updates[i0:i1] += _segment_sum(update, bounds)
            lost = known & ~reached
            if lost.any():
                pot[lost] = _INF
                self.finite[i0:i1] &= _segment_sum(lost, bounds) == 0
