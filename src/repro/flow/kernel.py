"""Vectorized minimum-cost-flow kernel over flat residual arrays.

This is the numeric engine behind :func:`repro.flow.ssp.solve_min_cost_flow`
and :mod:`repro.flow.warm_start`.  It operates exclusively on the
struct-of-arrays view of a :class:`~repro.flow.graph.FlowNetwork`
(:meth:`~repro.flow.graph.FlowNetwork.arrays`) and never materialises an
:class:`~repro.flow.graph.Arc`.

Residual layout (DESIGN.md, "Performance model"):

* residual arc ``2*i`` is the forward image of original arc ``i`` and
  ``2*i + 1`` its backward image; ``rid ^ 1`` is always the partner;
* ``res_tail``/``res_head`` (``int64[2m]``) are dense node indices,
  ``res_cost`` (``float64[2m]``) carries ``+cost``/``-cost`` and
  ``res_cap`` (``int64[2m]``) the residual capacities (forward starts at
  ``capacity``, backward at the current flow);
* adjacency is CSR-style: ``csr_order`` holds the residual arc ids
  stably sorted by tail and ``csr_indptr[u] : csr_indptr[u + 1]`` slices
  the out-arcs of node ``u``.  The CSR pair depends on topology only, so
  warm starts reuse it across cost perturbations.

Shortest paths dispatch on the sign of the reduced costs.  The fast path
stages ``cost + pot[tail] - pot[head]`` (plus an additive saturation
blocker, ``inf`` on zero-capacity arcs) into a persistent
``scipy.sparse.csr_array`` sharing the CSR layout above and runs
``scipy.sparse.csgraph.dijkstra`` with an adaptive distance ``limit``
(2x the historic sink distance, escalating to unbounded if the sink is
not reached); distances are capped at ``dist[sink]`` before the
potential fold, which THEORY.md §7 shows preserves non-negative reduced
costs.  When reduced costs go negative (stale warm-start potentials) or
scipy is absent, a frontier label-correcting scheme (vectorized
Bellman-Ford with a work list, ``np.minimum.at`` scatter) takes over —
potential quality affects the number of rounds, never the distances.  A
round count exceeding ``2n`` there exposes a negative-cost residual
cycle, mirroring the classic Bellman-Ford argument.  Cold starts on
acyclic residuals skip the question entirely: one Kahn-layered sweep
(:func:`dag_distances`, shared with lint rule RA604) yields exact
initial potentials.  Work is reported through
:class:`KernelStats` into the ``ssp.*`` counters (``dijkstra_pops``,
``dijkstra_relaxations``, ``relax_rounds``, ``augmenting_paths``,
``potential_updates``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

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
    source: int,
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

    The kernel seeds cold-start potentials with it and lint rule RA604
    bounds the cheapest source-to-sink chain with it.
    """
    indptr = csr_indptr(n, tails)
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


@dataclass(frozen=True)
class ResidualCSR:
    """Topology-only CSR adjacency of a residual network.

    Attributes:
        order: ``int64[2m]`` residual arc ids stably sorted by tail node.
        indptr: ``int64[n + 1]`` slice bounds: the out-arcs of node ``u``
            are ``order[indptr[u] : indptr[u + 1]]``.

    Depends only on ``tails``/``heads`` (never on capacities or costs),
    so a warm-start cache may pin it across cost-only re-solves.
    """

    order: np.ndarray
    indptr: np.ndarray


@dataclass
class KernelStats:
    """Work counters of one kernel invocation (fed into ``repro.obs``).

    Attributes:
        pops: Frontier node expansions across all shortest-path rounds
            (the vectorized analogue of Dijkstra heap pops).
        relaxations: Successful distance improvements.
        rounds: Label-correcting rounds run.
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
    """Mutable flat residual network with vectorized solve primitives.

    Lower bounds are not handled here; callers transform them away first
    (:mod:`repro.flow.lower_bounds`).  Construction is O(m log m) for the
    CSR sort unless a cached :class:`ResidualCSR` is supplied.
    """

    def __init__(
        self, network: FlowNetwork, csr: ResidualCSR | None = None
    ) -> None:
        arrays = network.arrays()
        n = network.num_nodes
        m = network.num_arcs
        self.network = network
        self.num_nodes = n
        self.num_arcs = m
        res_tail = np.empty(2 * m, dtype=np.int64)
        res_head = np.empty(2 * m, dtype=np.int64)
        res_cost = np.empty(2 * m, dtype=np.float64)
        res_cap = np.empty(2 * m, dtype=np.int64)
        res_tail[0::2] = arrays.tails
        res_tail[1::2] = arrays.heads
        res_head[0::2] = arrays.heads
        res_head[1::2] = arrays.tails
        res_cost[0::2] = arrays.costs
        res_cost[1::2] = -arrays.costs
        res_cap[0::2] = arrays.capacities
        res_cap[1::2] = 0
        self.res_tail = res_tail
        self.res_head = res_head
        self.res_cost = res_cost
        self.res_cap = res_cap
        self._active = int(np.count_nonzero(res_cap))
        if csr is None:
            indptr = csr_indptr(n, res_tail)
            # Narrow keys let numpy's stable sort pick radix, which is
            # several times faster than comparison sorting here.
            keys = res_tail.astype(np.int16) if n < 2**15 else res_tail
            order = np.argsort(keys, kind="stable").astype(np.int64)
            csr = ResidualCSR(order=order, indptr=indptr)
        self.csr = csr
        # Order-space (CSR-sorted) companions used by the Dijkstra fast
        # path.  Tails/heads/costs are static per kernel; capacities are
        # kept in sync with ``res_cap`` through ``_push`` (the ``_rank``
        # inverse permutation maps residual arc ids to order positions).
        order = csr.order
        self._rank = np.empty_like(order)
        self._rank[order] = np.arange(order.size)
        self._o_tail = res_tail[order]
        self._o_head = res_head[order]
        self._o_cost = res_cost[order]
        self._o_cap = res_cap[order]
        # Additive blocker: 0.0 on active arcs, inf on saturated ones.
        # Adding it to a weight vector masks inactive arcs in one pass.
        self._o_block = np.where(self._o_cap > 0, 0.0, _INF)
        if _csr_array is not None:
            idx_dtype = np.int32 if n < 2**31 - 1 else np.int64
            # One persistent scipy graph whose data buffer is rewritten
            # with fresh reduced costs before every Dijkstra call; the
            # int32 index arrays skip scipy's per-call downcast copy.
            self._gdata = np.zeros(2 * m)
            self._graph = _csr_array(
                (
                    self._gdata,
                    self._o_head.astype(idx_dtype),
                    csr.indptr.astype(idx_dtype),
                ),
                shape=(n, n),
            )
            self._gdata = self._graph.data
            self._pot_tail = np.empty(2 * m)
            self._pot_head = np.empty(2 * m)
        # Adaptive Dijkstra search limit (see _dijkstra): distances past
        # the sink never matter, so searches stop early once a typical
        # sink distance is known; a miss falls back to an unlimited run.
        self._limit_guess = _INF
        self._max_sink_dist = 0.0
        self._recent_sink: list[float] = []
        # Identity of the last potential vector proven non-negative on
        # every active arc (folding Dijkstra distances preserves this).
        self._vetted_potential: np.ndarray | None = None

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------
    def load_flows(self, flows: np.ndarray) -> None:
        """Install a feasible flow as the residual state.

        ``flows`` is per original arc; forward residual capacity becomes
        ``capacity - flow`` and backward capacity ``flow``.  Used by the
        warm-start path to resume from a previously optimal flow.
        """
        flows = np.asarray(flows, dtype=np.int64)
        caps = self.network.arrays().capacities
        if flows.shape != caps.shape:
            raise GraphError("flow vector length mismatch")
        if flows.min(initial=0) < 0 or np.any(flows > caps):
            raise GraphError("flow vector violates capacities")
        self.res_cap[0::2] = caps - flows
        self.res_cap[1::2] = flows
        self._o_cap[:] = self.res_cap[self.csr.order]
        self._o_block = np.where(self._o_cap > 0, 0.0, _INF)
        self._active = int(np.count_nonzero(self.res_cap))

    def _push(self, rids: np.ndarray, amount: int) -> None:
        """Push *amount* units through residual arcs *rids* (in order).

        Updates the rid-space capacities plus their order-space mirror
        and blocker (so the Dijkstra fast path never has to re-gather)
        and the active arc tally.
        """
        partners = rids ^ 1
        activated = int(np.count_nonzero(self.res_cap[partners] == 0))
        self.res_cap[rids] -= amount
        self.res_cap[partners] += amount
        self._active += activated - int(
            np.count_nonzero(self.res_cap[rids] == 0)
        )
        pos = self._rank[rids]
        ppos = self._rank[partners]
        self._o_cap[pos] -= amount
        self._o_cap[ppos] += amount
        self._o_block[pos] = np.where(self._o_cap[pos] > 0, 0.0, _INF)
        self._o_block[ppos] = 0.0

    def flows(self) -> np.ndarray:
        """Current per-arc flow (the backward residual capacities)."""
        return self.res_cap[1::2].copy()

    # ------------------------------------------------------------------
    # shortest paths (vectorized label-correcting)
    # ------------------------------------------------------------------
    def shortest_paths(
        self,
        source: int,
        sink: int,
        potential: np.ndarray,
        stats: KernelStats,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exact shortest distances from *source* on reduced costs.

        Dispatches to C-speed Dijkstra (:mod:`scipy.sparse.csgraph`)
        whenever every active reduced cost is non-negative — the common
        case once potentials are valid — and to the vectorized
        label-correcting fallback otherwise (stale warm-start
        potentials, negative costs before initialisation, or a scipy-less
        environment).  Both produce identical distances.

        Args:
            source: Dense source node index.
            sink: Dense sink node index (lets the fast path stop early
                and recover predecessor arcs along the sink path only).
            potential: ``float64[n]`` node potentials; entries may be
                stale (warm start) or ``inf`` (known-unreachable).
                Negative reduced costs are handled, not clamped.
            stats: Work counters, updated in place.

        Returns:
            ``(dist, pred)`` — reduced-cost distances and the
            predecessor residual arc id per node (``-1`` where absent).
            The Dijkstra fast path caps distances at ``dist[sink]`` —
            still a valid potential update (THEORY.md §7) — and fills
            ``pred`` only along the ``source -> sink`` path; the
            fallback returns uncapped distances (``inf`` where
            unreachable) and a full predecessor tree.

        Raises:
            GraphError: When label-correcting rounds exceed ``2n + 4``,
                which (by the Bellman-Ford argument, with slack for the
                ``EPS`` relaxation margin) proves a negative-cost
                residual cycle.
        """
        if _scipy_dijkstra is None:
            return self._spfa(source, potential, stats)
        finite = np.isfinite(potential)
        w = self._gdata
        if finite.all():
            np.take(potential, self._o_tail, out=self._pot_tail)
            np.take(potential, self._o_head, out=self._pot_head)
            np.add(self._o_cost, self._pot_tail, out=w)
            np.subtract(w, self._pot_head, out=w)
            np.add(w, self._o_block, out=w)
            # A vector already vetted here and folded only with Dijkstra
            # distances stays non-negative (THEORY.md §7): skip the scan.
            if self._vetted_potential is not potential:
                wmin = float(w.min()) if w.size else _INF
                if wmin < -EPS:
                    return self._spfa(source, potential, stats)
                self._vetted_potential = potential
            np.maximum(w, 0.0, out=w)
            stats.relaxations += self._active
            return self._dijkstra(source, sink, stats)
        # Some nodes are known-unreachable (infinite potential): mask
        # every arc touching them out of the graph entirely.
        valid = self._o_cap > 0
        valid &= finite[self._o_tail]
        valid &= finite[self._o_head]
        pot_t = potential[self._o_tail]
        pot_h = potential[self._o_head]
        w.fill(_INF)
        np.add(self._o_cost, pot_t, out=w, where=valid)
        np.subtract(w, pot_h, out=w, where=valid)
        if valid.any() and float(w[valid].min()) < -EPS:
            return self._spfa(source, potential, stats)
        np.maximum(w, 0.0, out=w)
        stats.relaxations += int(valid.sum())
        return self._dijkstra(source, sink, stats)

    def _dijkstra(
        self, source: int, sink: int, stats: KernelStats
    ) -> tuple[np.ndarray, np.ndarray]:
        """Dijkstra over the persistent CSR graph (weights pre-staged).

        The caller has already written the clamped reduced costs into
        the shared ``self._graph`` data buffer, with ``inf`` marking
        inactive arcs — scipy never relaxes through an infinite weight,
        and duplicate ``(u, v)`` entries act as parallel edges, so the
        fixed structure survives every augmentation.

        Two sink-directed optimisations, both distance-preserving:

        * the search runs under an adaptive ``limit`` (a multiple of the
          largest sink distance seen); if the sink is not reached within
          it, one unlimited retry settles reachability;
        * returned distances are capped at ``dist[sink]`` — nodes the
          limited search never finalised are exactly the ones whose true
          distance is ``>= dist[sink]``, so the cap keeps every active
          reduced cost non-negative after the potential fold (THEORY.md
          §7) while letting later searches stop early too.
        """
        n = self.num_nodes
        # Escalating search limits: the tight guess (recent sink
        # distances) almost always holds; a miss climbs to the largest
        # distance ever seen, then to an unbounded search.
        ladder = [self._limit_guess]
        if np.isfinite(self._limit_guess):
            historic = 2.0 * self._max_sink_dist + 1.0
            if historic > self._limit_guess:
                ladder.append(historic)
            ladder.append(_INF)
        for limit in ladder:
            dist, pred_nodes = _scipy_dijkstra(
                self._graph,
                indices=source,
                return_predecessors=True,
                limit=limit,
            )
            if np.isfinite(dist[sink]):
                break
        stats.rounds += 1
        stats.pops += int(np.isfinite(dist).sum())
        pred = np.full(n, -1, dtype=np.int64)
        d_sink = float(dist[sink])
        if np.isfinite(d_sink):
            # Recover predecessor *arc ids* along the sink path only (the
            # augmentation walk touches nothing else): within u's CSR
            # slice the tree arc into v is active and tight.
            w = self._gdata
            indptr = self.csr.indptr
            v = sink
            while v != source:
                u = int(pred_nodes[v])
                lo, hi = int(indptr[u]), int(indptr[u + 1])
                cand = np.nonzero(
                    (self._o_head[lo:hi] == v)
                    & (self._o_cap[lo:hi] > 0)
                    & (np.abs(w[lo:hi] - (dist[v] - dist[u])) <= EPS)
                )[0]
                assert cand.size, "Dijkstra predecessor arc lost"
                pred[v] = int(self.csr.order[lo + int(cand[0])])
                v = u
            np.minimum(dist, d_sink, out=dist)
            self._max_sink_dist = max(self._max_sink_dist, d_sink)
            recent = self._recent_sink
            recent.append(d_sink)
            if len(recent) > 3:
                del recent[0]
            self._limit_guess = min(
                2.0 * self._max_sink_dist, 4.0 * max(recent)
            ) + 1.0
        return dist, pred

    def _spfa(
        self, source: int, potential: np.ndarray, stats: KernelStats
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized label-correcting fallback (handles negative costs)."""
        n = self.num_nodes
        order = self.csr.order
        indptr = self.csr.indptr
        dist = np.full(n, _INF)
        dist[source] = 0.0
        pred = np.full(n, -1, dtype=np.int64)
        frontier = np.array([source], dtype=np.int64)
        max_rounds = 2 * n + 4
        rounds = 0
        while frontier.size:
            rounds += 1
            stats.rounds += 1
            if rounds > max_rounds:
                raise GraphError("network contains a negative-cost cycle")
            stats.pops += int(frontier.size)
            pos, degs = csr_slices(indptr, frontier)
            if not pos.size:
                break
            rids = order[pos]
            u = np.repeat(frontier, degs)
            live = self.res_cap[rids] > 0
            rids = rids[live]
            u = u[live]
            v = self.res_head[rids]
            pot_v = potential[v]
            known = np.isfinite(pot_v)
            if not known.all():
                rids = rids[known]
                u = u[known]
                v = v[known]
                pot_v = pot_v[known]
            reduced = self.res_cost[rids] + potential[u] - pot_v
            nd = dist[u] + reduced
            better = nd < dist[v] - EPS
            if not better.any():
                break
            v2 = v[better]
            nd2 = nd[better]
            r2 = rids[better]
            stats.relaxations += int(v2.size)
            np.minimum.at(dist, v2, nd2)
            win = nd2 <= dist[v2]
            winners = v2[win]
            pred[winners] = r2[win]
            frontier = np.unique(winners)
        return dist, pred

    # ------------------------------------------------------------------
    # successive shortest paths
    # ------------------------------------------------------------------
    def solve(
        self,
        source: int,
        sink: int,
        flow_value: int,
        potential: np.ndarray | None = None,
        labels: tuple[Any, Any] | None = None,
    ) -> tuple[np.ndarray, np.ndarray, KernelStats]:
        """Ship exactly *flow_value* units at minimum cost.

        Runs successive shortest paths from the current residual state.
        With ``potential=None`` (cold start) potentials are initialised
        by the one-sweep DAG relaxation of :func:`dag_distances` over
        the active arcs (zeros when the residual is cyclic); a warm
        ``potential`` vector merely changes how much work the searches
        do (THEORY.md §7 — correctness never depends on potential
        quality).

        Args:
            source: Dense source node index.
            sink: Dense sink node index.
            flow_value: Units to ship (``> 0``).
            potential: Optional warm-start potentials (copied).
            labels: Original source/sink keys for error messages.

        Returns:
            ``(flows, potential, stats)`` — per-arc flows, the final
            (feasible) potentials and the work counters.

        Raises:
            InfeasibleFlowError: If the network cannot carry *flow_value*
                units from source to sink.
            GraphError: On a negative-cost residual cycle.
        """
        n = self.num_nodes
        if potential is None:
            # The order-space views are already tail-sorted, so
            # compressing them by the active mask groups arcs by tail
            # with no sort.
            mask = self._o_cap > 0
            initial = dag_distances(
                n,
                self._o_tail[mask],
                self._o_head[mask],
                self._o_cost[mask],
                source,
            )
            # A cycle among active arcs: start from zeros and let the
            # label-correcting pass take over (it detects negative
            # cycles).
            potential = np.zeros(n) if initial is None else initial
        else:
            potential = np.asarray(potential, dtype=np.float64).copy()
        src_label, dst_label = labels if labels is not None else (source, sink)
        stats = KernelStats()
        shipped = 0
        while shipped < flow_value:
            dist, pred = self.shortest_paths(source, sink, potential, stats)
            if not np.isfinite(dist[sink]):
                if shipped == 0:
                    raise InfeasibleFlowError(
                        f"sink {dst_label!r} unreachable from "
                        f"source {src_label!r}"
                    )
                raise InfeasibleFlowError(
                    f"only {shipped} of {flow_value} flow units fit "
                    f"from {src_label!r} to {dst_label!r}"
                )
            # Bottleneck along the predecessor path (short python walk).
            path: list[int] = []
            v = sink
            bottleneck = flow_value - shipped
            while v != source:
                rid = int(pred[v])
                path.append(rid)
                cap = int(self.res_cap[rid])
                if cap < bottleneck:
                    bottleneck = cap
                v = int(self.res_tail[rid])
            rids = np.asarray(path, dtype=np.int64)
            self._push(rids, bottleneck)
            shipped += bottleneck
            stats.paths += 1
            # Fold the exact distances into the potentials: reduced costs
            # become non-negative again for the next round.
            reached = np.isfinite(dist)
            finite_pot = np.isfinite(potential)
            update = reached & finite_pot
            potential[update] += dist[update]
            stats.potential_updates += int(update.sum())
            potential[finite_pot & ~reached] = _INF
        return self.flows(), potential, stats

    # ------------------------------------------------------------------
    # incremental re-solve (warm start, cost-only perturbations)
    # ------------------------------------------------------------------
    def reoptimize(
        self, potential: np.ndarray, stats: KernelStats | None = None
    ) -> tuple[np.ndarray, KernelStats]:
        """Re-optimise the *current* residual flow after a cost change.

        The loaded flow (see :meth:`load_flows`) stays feasible under any
        cost-only perturbation — capacities, lower bounds and the shipped
        value are untouched — so by Klein's optimality condition it is
        optimal again as soon as its residual network has no negative
        cycle.  This cancels negative reduced-cost cycles (vectorized
        Bellman-Ford sweeps seeded at zero, i.e. a virtual super-source)
        until the converged pass itself *is* the optimality proof.

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
        # capacity pattern does — so the order-space reduced costs are
        # computed once and shared by every round below.
        w = self._o_cost + pot[self._o_tail] - pot[self._o_head]
        neg_cost = w < -EPS
        indptr = self.csr.indptr
        order = self.csr.order
        fmask = np.zeros(n, dtype=bool)
        while True:  # one round per batch of cancelled cycles
            dist = np.zeros(n)
            pred = np.full(n, -1, dtype=np.int64)
            # Seeding every node at distance zero (a virtual super-source)
            # means only strictly negative active arcs can improve first;
            # later passes only need the out-arcs of nodes whose distance
            # just dropped, exactly like the label-correcting fallback.
            neg = np.nonzero(neg_cost & (self._o_cap > 0))[0]
            stats.bf_passes += 1
            stats.relaxations += int(neg.size)
            if neg.size == 0:
                return self.flows(), pot + dist, stats
            v = self._o_head[neg]
            nd = w[neg]
            np.minimum.at(dist, v, nd)
            win = nd <= dist[v]
            winners = v[win]
            pred[winners] = order[neg[win]]
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
                        for rids in cycles:
                            bottleneck = int(self.res_cap[rids].min())
                            self._push(rids, bottleneck)
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
                live = self._o_cap[pos] > 0
                pos = pos[live]
                u = u[live]
                v = self._o_head[pos]
                nd = dist[u] + w[pos]
                better = nd < dist[v] - EPS
                stats.relaxations += int(pos.size)
                v2 = v[better]
                nd2 = nd[better]
                p2 = pos[better]
                np.minimum.at(dist, v2, nd2)
                win = nd2 <= dist[v2]
                winners = v2[win]
                pred[winners] = order[p2[win]]
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

        ``pred[v]`` is the residual arc id currently entering *v* (or
        ``-1``).  Every node has at most one such arc, so the "follow your
        predecessor's tail" graph is functional: iteratively peeling
        nodes that nobody points at (or whose successor was peeled)
        leaves exactly the nodes lying on cycles, and each surviving
        cycle's arcs are the ``pred`` entries of its nodes.
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
            rids: list[int] = []
            while not seen[vtx]:
                seen[vtx] = True
                rids.append(int(pred[vtx]))
                vtx = int(succ[vtx])
            cycles.append(np.asarray(rids, dtype=np.int64))
        return cycles
