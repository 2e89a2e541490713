"""Network flow graph construction (paper section 5.1 / 5.2), vectorized.

Builds the minimum-cost flow network from the split lifetimes of an
:class:`~repro.core.problem.AllocationProblem`:

* one ``w_i(v) -> r_i(v)`` arc per segment (capacity 1; lower bound 1 when
  the segment is forced register-resident);
* intra-variable arcs ``r_i(v) -> w_{i+1}(v)`` between consecutive
  segments;
* handoff arcs between segments of different variables, from the source
  ``s`` (a pseudo-read at time 0), and to the sink ``t`` (a pseudo-write at
  time ``x + 1``).

Two handoff rules are provided.  The paper's rule (``"adjacent"``) allows a
register to idle between a read at step ``b`` and a write at step ``a``
only when no *maximum-density* half-point lies in the idle window
``(b, a)``; on figure 1 this reduces exactly to "complete bipartite graphs
between adjacent regions of maximum lifetime density" and it keeps every
register busy across density peaks, which is what bounds the number of
memory locations.  The prior-art rule (``"all_pairs"``, Chang-Pedram [8])
connects every time-compatible pair.

Implementation note: the idle-window test compresses to an *era* index —
``era(k)`` counts the maximum-density half-points before step ``k``; a
handoff is adjacent-legal iff its endpoints share an era.  Events are
bucketed by era, so construction is linear in the number of legal arcs.

Restricted memory access times add two legality constraints (section 5.2
semantics): a value leaving the register file mid-lifetime must spill at a
memory access step, so handoffs *out of a non-final segment* require the
segment to end on an access step; the matching reload cost for entering at
an access cut is handled by :mod:`repro.core.costs`.

Array invariants (see DESIGN.md, "Performance model")
-----------------------------------------------------

Construction is array-first: segments are flattened once into parallel
numpy columns (``starts``, ``ends``, variable ids, spill legality, era
indices), arc endpoints are *computed* as dense node indices and appended
in bulk via :meth:`~repro.flow.graph.FlowNetwork.add_arcs_indexed`.  The
node numbering is fixed by registration order::

    s = 0,  t = 1,  w_i = 2 + 2*i,  r_i = 3 + 2*i

for flattened segment position ``i``, and the arc order is exactly the
historical per-object emission order (segment arcs, intra arcs, ``s``
arcs, then per source segment its sink arc followed by its handoffs in
segment order, bypass last) — golden allocations, lint walks and paper
example tests observe identical networks.  Handoff pairs are enumerated
per era bucket with 2-D broadcast masks and merged into the legacy
interleaving by a single ``lexsort``; for separable energy models the arc
costs come from :func:`repro.core.costs.separable_cost_terms` vector
tables (per-pair Python calls remain as fallback for pair-coupled
models).  :class:`ArcRoles` records which flattened segment produced
every arc so :func:`recost_network` can derive a cost-only copy of an
existing network in O(arcs) array work — the path of voltage and
energy-table sweeps — without re-deriving any topology.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Hashable, Sequence

import numpy as np

from repro.core.costs import (
    handoff_cost,
    segment_cost,
    separable_cost_terms,
)
from repro.core.problem import AllocationProblem
from repro.core.storage import BankStructure, bank_structures
from repro.exceptions import GraphError
from repro.flow.graph import Arc, FlowNetwork
from repro.lifetimes.intervals import Segment
from repro.obs import trace as obs

__all__ = [
    "SOURCE",
    "SINK",
    "ArcRoles",
    "BuiltNetwork",
    "build_network",
    "recost_network",
]

SOURCE: Hashable = "s"
SINK: Hashable = "t"


class _SegmentNodes:
    """The names of the builder's ``w``/``r`` node block, on demand.

    Block offset ``2i`` is ``("w", v, j)`` and ``2i + 1`` is
    ``("r", v, j)`` for flattened segment ``i``, segment ``j`` of
    variable ``v``.  Nothing is named at build time; the reverse lookup
    builds its key map on its first call with a ``w``/``r`` name.
    """

    def __init__(self, segments: Sequence[Segment]) -> None:
        self._segments = segments
        self._positions: dict[tuple[str, int], int] | None = None

    def name(self, offset: int) -> tuple[str, str, int]:
        """The name of the node at block offset *offset*."""
        seg = self._segments[offset >> 1]
        return ("r" if offset & 1 else "w", seg.name, seg.index)

    def offset(self, node: Hashable) -> int | None:
        """The block offset of *node*, or ``None`` if it names none."""
        if not (
            isinstance(node, tuple)
            and len(node) == 3
            and node[0] in ("w", "r")
        ):
            return None
        if self._positions is None:
            self._positions = {
                seg.key: i for i, seg in enumerate(self._segments)
            }
        position = self._positions.get(node[1:])
        if position is None:
            return None
        return 2 * position + (node[0] == "r")


@dataclass(frozen=True)
class ArcRoles:
    """Arc-id bookkeeping produced by :func:`build_network`.

    Records, in arc-id order, which flattened segment positions each arc
    connects, so the cost column can be recomputed wholesale without
    walking arc payloads:

    Attributes:
        num_segments: Count ``k`` of flattened segments; segment arcs are
            exactly arc ids ``[0, k)``, position-aligned.
        intra_pairs: ``int64[p]`` — earlier-segment position of each intra
            arc (the later segment is always position ``+1``); intra arcs
            are arc ids ``[k, k + p)``.
        handoff_src: ``int64[h]`` — source segment position per handoff
            arc, ``-1`` for arcs leaving the flow source ``s``.
        handoff_dst: ``int64[h]`` — target segment position per handoff
            arc, ``-1`` for arcs entering the sink ``t``; handoff arcs are
            arc ids ``[k + p, k + p + h)``.
        bypass_arc: Arc id of the ``s -> t`` bypass, or ``-1`` if absent.
    """

    num_segments: int
    intra_pairs: np.ndarray
    handoff_src: np.ndarray
    handoff_dst: np.ndarray
    bypass_arc: int


@dataclass
class BuiltNetwork:
    """The flow network of one allocation instance plus its bookkeeping.

    Attributes:
        problem: The instance the network encodes.
        network: The flow network (arc ``data`` fields describe arc roles:
            ``("segment", seg)``, ``("intra", a, b)``,
            ``("handoff", src|None, dst|None)`` with ``None`` meaning
            ``s``/``t``, and ``("bypass",)``).
        source / sink: Flow terminals.
        roles: Arc-id role arrays used by :func:`recost_network`, the
            chain extraction, the network lint rules and the prover.
        banks: Per-bank era chains when the instance carries a
            multi-bank :class:`~repro.core.storage.StorageSpec` — the
            parallel per-level handoff structure (one era-chain per
            bank, per-bank time-slot boundaries) consumed by the banking
            pass, the multi-bank lint rules and the verification
            oracles.  ``None`` for classic two-level instances.
    """

    problem: AllocationProblem
    network: FlowNetwork
    source: Hashable
    sink: Hashable
    roles: ArcRoles
    banks: tuple[BankStructure, ...] | None = None

    @property
    def flow_value(self) -> int:
        """The fixed flow: the register count ``R``."""
        return self.problem.register_count

    @property
    def segment_arcs(self) -> dict[tuple[str, int], Arc]:
        """Segment key → its ``w -> r`` arc, materialised on each access.

        Segment arcs are arc ids ``[0, k)`` in flattened segment order;
        the solver and the lint rules read them from the arrays, so
        nothing on those paths builds this map.
        """
        segments = [
            seg for segs in self.problem.segments.values() for seg in segs
        ]
        return {
            seg.key: self.network.arc(i) for i, seg in enumerate(segments)
        }


def build_network(problem: AllocationProblem) -> BuiltNetwork:
    """Construct the flow network for *problem*."""
    model = problem.energy_model
    segments = [seg for segs in problem.segments.values() for seg in segs]
    if problem.forced_segments:
        unknown = problem.forced_segments - {seg.key for seg in segments}
        if unknown:
            raise GraphError(
                f"forced_segments reference unknown segments: "
                f"{sorted(unknown)}"
            )
    k = len(segments)
    network = FlowNetwork()
    network.add_node(SOURCE)
    network.add_node(SINK)
    names = _SegmentNodes(segments)
    network.add_node_block(2 * k, names.name, names.offset)
    # Node numbering is now fixed: s=0, t=1, w_i=2+2i, r_i=3+2i.
    w_idx = 2 + 2 * np.arange(k, dtype=np.int64)
    r_idx = w_idx + 1

    starts = np.fromiter((seg.start for seg in segments), np.int64, k)
    ends = np.fromiter((seg.end for seg in segments), np.int64, k)
    # The flattened order keeps each variable's segments contiguous.
    var_ids = np.repeat(
        np.arange(len(problem.segments), dtype=np.int64),
        [len(segs) for segs in problem.segments.values()],
    )
    terms = separable_cost_terms(model, segments)

    # Segment arcs (arc ids [0, k), aligned with flattened positions).
    seg_lowers = np.fromiter(map(problem.is_forced, segments), np.int64, k)
    if terms is not None:
        seg_costs = terms.segment
    else:
        seg_costs = np.array(
            [segment_cost(model, seg) for seg in segments], dtype=np.float64
        )

    # Intra-variable arcs between consecutive segments of one variable.
    # They cost :func:`~repro.core.costs.intra_cost`, zero for every model
    # under the uniform decomposition.
    intra_pairs = np.flatnonzero(var_ids[:-1] == var_ids[1:])
    intra_costs = np.zeros(len(intra_pairs))

    handoff_src, handoff_dst = _handoff_pairs(
        problem, starts, ends, var_ids, segments
    )
    h_tails = np.where(handoff_src >= 0, r_idx[handoff_src], 0)
    h_heads = np.where(handoff_dst >= 0, w_idx[handoff_dst], 1)
    if terms is not None:
        h_costs = np.where(
            handoff_src >= 0, terms.exit[handoff_src], 0.0
        ) + np.where(handoff_dst >= 0, terms.enter[handoff_dst], 0.0)
        obs.count("network.vectorized_cost_arcs", k + len(handoff_src))
    else:
        h_costs = np.array(
            [
                handoff_cost(
                    model,
                    segments[s] if s >= 0 else None,
                    segments[d] if d >= 0 else None,
                )
                for s, d in zip(handoff_src.tolist(), handoff_dst.tolist())
            ],
            dtype=np.float64,
        )
        obs.count("network.fallback_cost_arcs", k + len(handoff_src))

    # One bulk append in arc-id order: segment, intra and handoff arcs,
    # then the s -> t bypass.
    bypass = int(problem.allow_unused_registers and problem.register_count > 0)
    m = k + len(intra_pairs) + len(handoff_src)
    bypass_arc = m if bypass else -1
    roles = ArcRoles(k, intra_pairs, handoff_src, handoff_dst, bypass_arc)
    capacities = np.ones(m + bypass, dtype=np.int64)
    capacities[m:] = problem.register_count
    lowers = np.zeros(m + bypass, dtype=np.int64)
    lowers[:k] = seg_lowers
    network.add_arcs_indexed(
        np.concatenate(
            [w_idx, r_idx[intra_pairs], h_tails, np.zeros(bypass, np.int64)]
        ),
        np.concatenate(
            [r_idx, w_idx[intra_pairs + 1], h_heads, np.ones(bypass, np.int64)]
        ),
        capacities,
        np.concatenate([seg_costs, intra_costs, h_costs, np.zeros(bypass)]),
        lowers=lowers,
        # Payloads are built lazily: only the few flow-carrying arcs
        # are ever inspected.
        data_factory=partial(_arc_payload, roles, segments),
    )
    banks: tuple[BankStructure, ...] | None = None
    if problem.storage is not None and not problem.storage.is_degenerate:
        # Parallel per-level structure: one era chain per bank.  The
        # first-pass network itself stays the union model (degenerate
        # specs build byte-identical networks); the banking pass and the
        # multi-bank verifiers consume these chains.
        banks = bank_structures(problem.storage, problem.horizon)
        obs.count("network.bank_levels", len(banks))
    obs.count("network.builds")
    obs.count("network.nodes_built", network.num_nodes)
    obs.count("network.arcs_built", network.num_arcs)
    if obs.enabled():
        obs.gauge("network.density_regions", len(problem.density_regions))
    return BuiltNetwork(problem, network, SOURCE, SINK, roles, banks)


def _arc_payload(
    roles: ArcRoles, segments: Sequence[Segment], arc: int
) -> tuple:
    """The payload of arc *arc* of a built network, from its roles."""
    k = roles.num_segments
    if arc < k:
        return ("segment", segments[arc])
    arc -= k
    if arc < len(roles.intra_pairs):
        i = int(roles.intra_pairs[arc])
        return ("intra", segments[i], segments[i + 1])
    arc -= len(roles.intra_pairs)
    if arc < len(roles.handoff_src):
        s = int(roles.handoff_src[arc])
        d = int(roles.handoff_dst[arc])
        return (
            "handoff",
            segments[s] if s >= 0 else None,
            segments[d] if d >= 0 else None,
        )
    return ("bypass",)


def _handoff_pairs(
    problem: AllocationProblem,
    starts: np.ndarray,
    ends: np.ndarray,
    var_ids: np.ndarray,
    segments: list[Segment],
) -> tuple[np.ndarray, np.ndarray]:
    """Enumerate handoff arcs as (src, dst) flattened-position arrays.

    ``-1`` stands for the flow source (in ``src``) or the sink (in
    ``dst``).  The returned order reproduces the per-object emission
    order: first every ``s -> dst`` arc in segment order, then for each
    eligible source segment its sink arc followed by its segment-order
    handoffs — restored from the era-bucketed enumeration by one stable
    ``lexsort`` on (source position, sink-before-handoff, target
    position).
    """
    k = len(segments)
    access = problem.access_times
    end_time = problem.horizon + 1

    if access is None:
        spill_ok = np.ones(k, dtype=bool)
    else:
        is_last = np.array([seg.is_last for seg in segments], dtype=bool)
        spill_ok = is_last | np.isin(
            ends, np.fromiter(access, dtype=np.int64)
        )

    adjacent = problem.graph_style == "adjacent"
    if adjacent:
        era = np.asarray(_era_index(problem), dtype=np.int64)
        era_start = era[starts]
        era_end = era[ends]
        s_dsts = np.nonzero(era_start == era[0])[0]
        sink_srcs = np.nonzero(spill_ok & (era_end == era[end_time]))[0]
    else:
        s_dsts = np.nonzero(starts >= 0)[0]
        sink_srcs = np.nonzero(spill_ok & (ends <= end_time))[0]

    pair_src: list[np.ndarray] = []
    pair_dst: list[np.ndarray] = []
    src_pool = np.nonzero(spill_ok)[0]
    if adjacent:
        buckets = np.intersect1d(
            np.unique(era_end[src_pool]), np.unique(era_start)
        )
        groups = [
            (
                src_pool[era_end[src_pool] == e],
                np.nonzero(era_start == e)[0],
            )
            for e in buckets.tolist()
        ]
    else:
        groups = [(src_pool, np.arange(k, dtype=np.int64))] if k else []
    for srcs_e, dsts_e in groups:
        legal = (ends[srcs_e][:, None] <= starts[dsts_e][None, :]) & (
            var_ids[srcs_e][:, None] != var_ids[dsts_e][None, :]
        )
        si, di = np.nonzero(legal)
        pair_src.append(srcs_e[si])
        pair_dst.append(dsts_e[di])
    hs = (
        np.concatenate(pair_src) if pair_src else np.zeros(0, dtype=np.int64)
    )
    hd = (
        np.concatenate(pair_dst) if pair_dst else np.zeros(0, dtype=np.int64)
    )

    # Merge sink arcs and handoffs into per-source emission order: the
    # sink arc of a source precedes its handoffs (kind 0 < 1), handoff
    # targets ascend in segment order.
    all_src = np.concatenate([hs, sink_srcs])
    all_dst = np.concatenate([hd, np.full(len(sink_srcs), -1, np.int64)])
    kind = np.concatenate(
        [np.ones(len(hs), np.int64), np.zeros(len(sink_srcs), np.int64)]
    )
    order = np.lexsort((all_dst, kind, all_src))
    handoff_src = np.concatenate([np.full(len(s_dsts), -1, np.int64), all_src[order]])
    handoff_dst = np.concatenate([s_dsts, all_dst[order]])
    return handoff_src, handoff_dst


def recost_network(built: BuiltNetwork, problem: AllocationProblem) -> BuiltNetwork:
    """The network of *problem*, derived from *built* by re-costing a copy.

    The fast path of cost-only sweeps: a cost-only perturbation (energy
    parameters, memory voltage) keeps the topology — node ids, arc ids,
    capacities, lower bounds — bit-identical, so only the cost column is
    recomputed from the :class:`ArcRoles` arrays, into a copy of the
    network (:meth:`~repro.flow.graph.FlowNetwork.with_costs`).  The
    costs equal those :func:`build_network` gives *problem*.  *built* is
    left untouched, so a network already handed to a solve or a batch
    keeps its costs.  Raises :class:`GraphError` when *problem* does not
    share *built*'s topology (different segments, register count, graph
    style, access times or forced set) — callers should rebuild instead.
    """
    roles = built.roles
    old = built.problem
    segments = [seg for segs in problem.segments.values() for seg in segs]
    old_segments = [seg for segs in old.segments.values() for seg in segs]
    new_topology = (
        problem.storage.access_topology() if problem.storage else None
    )
    old_topology = old.storage.access_topology() if old.storage else None
    if (
        segments != old_segments
        or problem.register_count != old.register_count
        or problem.graph_style != old.graph_style
        or problem.access_times != old.access_times
        or problem.forced_segments != old.forced_segments
        or problem.allow_unused_registers != old.allow_unused_registers
        or problem.horizon != old.horizon
        # Bank voltages/capacities/ports are cost- or second-pass-only;
        # only the access topology shapes the union network and the
        # banking-forced lower bounds.
        or new_topology != old_topology
    ):
        raise GraphError(
            "recost_network requires an identical topology "
            "(cost-only perturbation); rebuild the network instead"
        )
    model = problem.energy_model
    costs = np.zeros(built.network.num_arcs, dtype=np.float64)
    k = roles.num_segments
    p = len(roles.intra_pairs)
    terms = separable_cost_terms(model, segments)
    if terms is not None:
        costs[:k] = terms.segment
        hs = roles.handoff_src
        hd = roles.handoff_dst
        costs[k + p : k + p + len(hs)] = np.where(
            hs >= 0, terms.exit[hs], 0.0
        ) + np.where(hd >= 0, terms.enter[hd], 0.0)
    else:
        costs[:k] = [segment_cost(model, seg) for seg in segments]
        costs[k + p : k + p + len(roles.handoff_src)] = [
            handoff_cost(
                model,
                segments[s] if s >= 0 else None,
                segments[d] if d >= 0 else None,
            )
            for s, d in zip(
                roles.handoff_src.tolist(), roles.handoff_dst.tolist()
            )
        ]
    # Intra and bypass arcs cost zero, as in build_network, and stay at
    # their zero initialisation.
    obs.count("network.recosts")
    return BuiltNetwork(
        problem,
        built.network.with_costs(costs),
        built.source,
        built.sink,
        roles,
        built.banks,
    )


def _era_index(problem: AllocationProblem) -> list[int]:
    """``era[k]`` = number of maximum-density half-points before step ``k``.

    A register may idle from a read at step ``b`` to a write at step ``a``
    iff no maximum-density half-point lies in ``[b + 0.5, a - 0.5]``, i.e.
    iff ``era[b] == era[a]``.  Indexed for ``k = 0 .. horizon + 1``.
    """
    density = problem.density
    peak = problem.max_density
    era = [0] * (problem.horizon + 2)
    count = 0
    for k in range(problem.horizon + 1):
        era[k] = count
        if peak > 0 and density[k] == peak:
            count += 1
    era[problem.horizon + 1] = count
    return era
