"""RA5xx — flow-network structure rules.

The constructed network *is* the formulation: an arc with inverted
bounds, a handoff that crosses a maximum-density region (illegal under
the paper's section-5.1 graph), a segment node unreachable from the
source, or a source cut too small for the flow value all mean the
solver is optimising the wrong (or an infeasible) problem.  The
adjacency check re-derives the era index from the density profile
independently of the builder, in the same spirit as the post-solve
oracles of :mod:`repro.verify`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.lint.context import Finding, LintContext
from repro.lint.diagnostics import Location, Severity
from repro.lint.prove import reachable
from repro.lint.registry import rule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.network_builder import BuiltNetwork
    from repro.lifetimes.intervals import Segment

__all__: list[str] = []


def _era_index(density: list[int], horizon: int) -> list[int]:
    """Independent re-derivation of the builder's era compression.

    ``era[k]`` counts the maximum-density half-points strictly before
    step ``k``; a handoff from a read at ``b`` to a write at ``a`` is
    adjacent-legal iff ``era[b] == era[a]``.
    """
    peak = max(density, default=0)
    era = [0] * (horizon + 2)
    count = 0
    for k in range(horizon + 1):
        era[k] = count
        if peak > 0 and k < len(density) and density[k] == peak:
            count += 1
    era[horizon + 1] = count
    return era


def _arc_label(arc) -> str:
    return f"{arc.tail}->{arc.head}"


def _flat_segments(built: "BuiltNetwork") -> list["Segment"]:
    """Segments in the builder's flattened order (position ``i`` owns
    segment arc ``i``)."""
    return [seg for segs in built.problem.segments.values() for seg in segs]


def _segment_name(segment: "Segment") -> str:
    return f"{segment.name}#{segment.index}"


@rule(
    "RA500",
    "network-construction-failed",
    Severity.ERROR,
    "The flow network could not be constructed from the instance.",
    hint="fix the underlying lifetime/pin defects reported by the other "
    "rules; the builder rejects what the solver would crash on",
)
def check_construction(ctx: LintContext) -> Iterator[Finding]:
    """RA500: flag instances whose flow network fails to build."""
    if ctx.built is None and ctx.network_error is not None:
        yield Finding(f"network construction failed: {ctx.network_error}")


@rule(
    "RA501",
    "arc-bounds-inverted",
    Severity.ERROR,
    "A network arc carries inconsistent flow bounds (lower > upper, a "
    "negative lower bound, or non-integer bounds).",
    hint="arc bounds come from segment forcing; inverted bounds mean "
    "the network was mutated or built outside FlowNetwork.add_arc",
)
def check_arc_bounds(ctx: LintContext) -> Iterator[Finding]:
    """RA501: flag arcs with negative or inverted bounds.

    Integrality needs no per-arc check: the bound columns of
    :meth:`~repro.flow.graph.FlowNetwork.arrays` are ``int64``.
    """
    if ctx.built is None:
        return
    network = ctx.built.network
    arrays = network.arrays()
    negative = arrays.lowers < 0
    inverted = arrays.capacities < arrays.lowers
    for index in np.nonzero(negative | inverted)[0].tolist():
        arc = network.arc(index)
        problems = []
        if negative[index]:
            problems.append(f"negative lower bound {arc.lower}")
        if inverted[index]:
            problems.append(
                f"lower {arc.lower} exceeds capacity {arc.capacity}"
            )
        for defect in problems:
            yield Finding(
                f"arc {_arc_label(arc)} has {defect}",
                Location(detail=_arc_label(arc)),
            )


@rule(
    "RA502",
    "non-adjacent-handoff",
    Severity.ERROR,
    "Under the paper's adjacent graph style, a handoff arc idles a "
    "register across a maximum-density point (section 5.1 forbids it).",
    hint="adjacent handoffs must connect segments within the same "
    "window between regions of maximum lifetime density",
)
def check_adjacent_handoffs(ctx: LintContext) -> Iterator[Finding]:
    """RA502: flag adjacent-style handoffs crossing a density region.

    Handoff endpoints come from the builder's role arrays
    (``handoff_src``/``handoff_dst``, ``-1`` for ``s``/``t``) and the
    segments' own start/end times, so no arc payload is materialised.
    """
    problem = ctx.problem
    built = ctx.built
    if problem.graph_style != "adjacent" or built is None:
        return
    density = ctx.density
    if density is None:
        return
    era = np.asarray(_era_index(density, problem.horizon), dtype=np.int64)
    boundary = problem.horizon + 1
    segments = _flat_segments(built)
    src = built.roles.handoff_src
    dst = built.roles.handoff_dst
    # Position -1 (the source s, the sink t) picks the trailing entry:
    # s reads at step 0 and t writes at the boundary.
    ends = [seg.end for seg in segments] + [0]
    starts = [seg.start for seg in segments] + [boundary]
    read = np.array(ends, dtype=np.int64)[src]
    write = np.array(starts, dtype=np.int64)[dst]
    # Out-of-range segment times are RA2xx's to report.
    in_range = (read >= 0) & (read <= boundary)
    in_range &= (write >= 0) & (write <= boundary)
    crossing = np.zeros(len(src), dtype=bool)
    crossing[in_range] = era[read[in_range]] != era[write[in_range]]
    for i in np.nonzero(crossing)[0].tolist():
        s, d = int(src[i]), int(dst[i])
        src_name = _segment_name(segments[s]) if s >= 0 else "s"
        dst_name = _segment_name(segments[d]) if d >= 0 else "t"
        read_time, write_time = int(read[i]), int(write[i])
        yield Finding(
            f"handoff {src_name} -> {dst_name} idles a register from "
            f"step {read_time} to step {write_time} across a "
            f"maximum-density point",
            Location(step=read_time, detail=f"{src_name} -> {dst_name}"),
        )


@rule(
    "RA503",
    "segment-unreachable-from-source",
    Severity.WARNING,
    "A segment's write node cannot be reached from the source: the "
    "segment can never be register-resident.",
    hint="if the segment is forced, the instance is infeasible; "
    "otherwise it silently degenerates to memory residency",
)
def check_reachability(ctx: LintContext) -> Iterator[Finding]:
    """RA503: flag segment arcs unreachable from the source node.

    The builder numbers the segment arcs ``[0, k)`` in flattened segment
    order, so their write nodes are the first ``k`` tails.  The walk
    follows every arc; when all capacities are positive that is the
    context's shared forward walk.
    """
    if ctx.built is None:
        return
    built = ctx.built
    network = built.network
    arrays = network.arrays()
    if (arrays.capacities > 0).all():
        reached = ctx.source_reach
    else:
        reached = reachable(
            network.num_nodes,
            arrays.tails,
            arrays.heads,
            start=network.node_index(built.source),
        )
    segments = _flat_segments(built)
    k = len(segments)
    unreached = np.nonzero(~reached[arrays.tails[:k]])[0].tolist()
    for name, index in sorted(segments[i].key for i in unreached):
        yield Finding(
            f"write node of segment {name}#{index} is unreachable "
            f"from the source",
            Location(variable=name, segment=index),
        )


@rule(
    "RA504",
    "insufficient-source-capacity",
    Severity.ERROR,
    "The total capacity leaving the source is below the required flow "
    "value R; the instance cannot ship R units.",
    hint="enable allow_unused_registers (the zero-cost bypass) or lower "
    "the register count to the shippable flow",
)
def check_source_capacity(ctx: LintContext) -> Iterator[Finding]:
    """RA504: flag source capacity below the required flow value."""
    if ctx.built is None:
        return
    built = ctx.built
    network = built.network
    arrays = network.arrays()
    source = network.node_index(built.source)
    capacity = int(arrays.capacities[arrays.tails == source].sum())
    if capacity < built.flow_value:
        yield Finding(
            f"source cut capacity {capacity} is below the flow value "
            f"R = {built.flow_value}",
            Location(detail=f"capacity {capacity} < R {built.flow_value}"),
        )


@rule(
    "RA505",
    "bank-structure-inconsistent",
    Severity.ERROR,
    "The per-bank era chains attached to the built network disagree "
    "with the instance's storage hierarchy (missing, stale, or "
    "miscounted against the banks' access steps).",
    hint="BuiltNetwork.banks must be derived from the same StorageSpec "
    "the problem carries; a mismatch means the banking pass and the "
    "verifiers would reason about different hardware",
)
def check_bank_structures(ctx: LintContext) -> Iterator[Finding]:
    """RA505: re-derive and diff the per-bank era chains."""
    if ctx.built is None:
        return
    built = ctx.built
    storage = ctx.problem.storage
    multibank = storage is not None and not storage.is_degenerate
    if built.banks is None:
        if multibank:
            yield Finding(
                "instance carries a multi-bank storage hierarchy but the "
                "built network has no per-bank era chains",
                Location(detail="banks is None"),
            )
        return
    if not multibank:
        yield Finding(
            "built network carries per-bank era chains but the instance "
            "has no multi-bank storage hierarchy",
            Location(detail=f"{len(built.banks)} bank chains"),
        )
        return
    horizon = ctx.problem.horizon
    expected_times = storage.bank_access_times(horizon)
    if len(built.banks) != len(expected_times):
        yield Finding(
            f"built network has {len(built.banks)} bank chains but the "
            f"storage hierarchy declares {len(expected_times)} banks",
            Location(detail=f"{len(built.banks)} != {len(expected_times)}"),
        )
        return
    for position, bank in enumerate(built.banks):
        where = Location(detail=f"bank {position}")
        if bank.index != position:
            yield Finding(
                f"bank chain at position {position} carries index "
                f"{bank.index}",
                where,
            )
        times = expected_times[position]
        if times is None:
            if bank.access_steps is not None or bank.era is not None:
                yield Finding(
                    f"bank {position} is unrestricted but its chain "
                    f"carries access steps or an era array",
                    where,
                )
            continue
        steps = tuple(sorted(times))
        if bank.access_steps != steps:
            yield Finding(
                f"bank {position} access steps {list(bank.access_steps or ())} "
                f"disagree with the hierarchy's {list(steps)}",
                where,
            )
            continue
        # Independent era recount: era[k] must equal the number of
        # access steps <= k, for every step 0 .. horizon + 1.
        era = bank.era or ()
        if len(era) != horizon + 2:
            yield Finding(
                f"bank {position} era array has length {len(era)}, "
                f"expected {horizon + 2}",
                where,
            )
            continue
        for k in range(horizon + 2):
            expected = sum(1 for s in steps if s <= k)
            if era[k] != expected:
                yield Finding(
                    f"bank {position} era[{k}] = {era[k]} but "
                    f"{expected} access steps are <= {k}",
                    Location(step=k, detail=f"bank {position}"),
                )
                break
