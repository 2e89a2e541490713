"""Arc-facade reference bodies of the array-based network lint rules.

RA501–RA504 and RA604 read :meth:`~repro.flow.graph.FlowNetwork.arrays`
and the builder's :class:`~repro.core.network_builder.ArcRoles`.  The
functions here are the per-object versions they replaced: each walks
:class:`~repro.flow.graph.Arc` facades (and their payloads), so the
tests can require identical findings from both on the same
:class:`~repro.lint.context.LintContext`.

:func:`plant` writes a defect into a network's columns, past
:class:`~repro.flow.graph.FlowNetwork`'s construction checks, and drops
every cache, so the arrays and the facades both see it.
"""

from __future__ import annotations

import math
from typing import Hashable, Iterator

from repro.lint.context import Finding, LintContext
from repro.lint.diagnostics import Location, Severity
from repro.lint.rules_network import _arc_label, _era_index

__all__ = [
    "ORACLES",
    "check_arc_bounds",
    "check_adjacent_handoffs",
    "check_cost_intervals",
    "check_reachability",
    "check_source_capacity",
    "plant",
]


def plant(network, index: int, **columns) -> None:
    """Overwrite arc *index*'s ``tail``/``head``/``lower``/``capacity``.

    Endpoints are node keys (they must already be registered).  Each
    edited column is replaced by an edited copy, so no other network
    sharing it (a cost-only copy) sees the defect, and every cached
    view — arrays, facades, adjacency — is dropped, so no reader can
    see the arc as it was.
    """
    attributes = {
        "tail": "_tails",
        "head": "_heads",
        "lower": "_lowers",
        "capacity": "_caps",
    }
    for name, value in columns.items():
        if name in ("tail", "head"):
            value = network.node_index(value)
        column = getattr(network, attributes[name]).copy()
        column[index] = value
        setattr(network, attributes[name], column)
    network._np = None
    network._arc_cache = {}
    network._arc_tuple = None
    network._out_ids = None
    network._in_ids = None


def check_arc_bounds(ctx: LintContext) -> Iterator[Finding]:
    """RA501 over facades."""
    if ctx.built is None:
        return
    for arc in ctx.built.network.arcs:
        problems = []
        if not isinstance(arc.capacity, int) or not isinstance(arc.lower, int):
            problems.append("non-integer bounds")
        else:
            if arc.lower < 0:
                problems.append(f"negative lower bound {arc.lower}")
            if arc.capacity < arc.lower:
                problems.append(
                    f"lower {arc.lower} exceeds capacity {arc.capacity}"
                )
        for defect in problems:
            yield Finding(
                f"arc {_arc_label(arc)} has {defect}",
                Location(detail=_arc_label(arc)),
            )


def check_adjacent_handoffs(ctx: LintContext) -> Iterator[Finding]:
    """RA502 over facades and their handoff payloads."""
    problem = ctx.problem
    if problem.graph_style != "adjacent" or ctx.built is None:
        return
    density = ctx.density
    if density is None:
        return
    era = _era_index(density, problem.horizon)
    boundary = problem.horizon + 1
    for arc in ctx.built.network.arcs:
        data = arc.data
        if not (isinstance(data, tuple) and data and data[0] == "handoff"):
            continue
        src, dst = data[1], data[2]
        read_time = src.end if src is not None else 0
        write_time = dst.start if dst is not None else boundary
        if not (0 <= read_time <= boundary and 0 <= write_time <= boundary):
            continue
        if era[read_time] != era[write_time]:
            src_name = f"{src.name}#{src.index}" if src is not None else "s"
            dst_name = f"{dst.name}#{dst.index}" if dst is not None else "t"
            yield Finding(
                f"handoff {src_name} -> {dst_name} idles a register from "
                f"step {read_time} to step {write_time} across a "
                f"maximum-density point",
                Location(
                    step=read_time, detail=f"{src_name} -> {dst_name}"
                ),
            )


def check_reachability(ctx: LintContext) -> Iterator[Finding]:
    """RA503 over facades: a dict BFS and the ``segment_arcs`` map."""
    if ctx.built is None:
        return
    built = ctx.built
    network = built.network
    seen = {built.source}
    stack = [built.source]
    while stack:
        for arc in network.arcs_from(stack.pop()):
            if arc.head not in seen:
                seen.add(arc.head)
                stack.append(arc.head)
    for key, arc in sorted(built.segment_arcs.items()):
        if arc.tail not in seen:
            name, index = key
            yield Finding(
                f"write node of segment {name}#{index} is unreachable "
                f"from the source",
                Location(variable=name, segment=index),
            )


def check_source_capacity(ctx: LintContext) -> Iterator[Finding]:
    """RA504 over the source's facades."""
    if ctx.built is None:
        return
    built = ctx.built
    capacity = sum(
        arc.capacity for arc in built.network.arcs_from(built.source)
    )
    if capacity < built.flow_value:
        yield Finding(
            f"source cut capacity {capacity} is below the flow value "
            f"R = {built.flow_value}",
            Location(detail=f"capacity {capacity} < R {built.flow_value}"),
        )


def _hull(values: list[float]) -> list[float] | None:
    """Left-to-right ``[lo, hi]`` scan; a NaN poisons it to ``±inf``."""
    lo = math.inf
    hi = -math.inf
    seen = False
    for value in values:
        seen = True
        if math.isnan(value):
            return [-math.inf, math.inf]
        lo = min(lo, value)
        hi = max(hi, value)
    return [lo, hi] if seen else None


def check_cost_intervals(ctx: LintContext) -> Iterator[Finding]:
    """RA604 over facade costs, with a Python topological relaxation."""
    built = ctx.built
    if built is None:
        return
    arcs = built.network.arcs
    k = built.roles.num_segments
    p = len(built.roles.intra_pairs)
    h = len(built.roles.handoff_src)
    groups = {
        "segment": arcs[:k],
        "intra": arcs[k : k + p],
        "handoff": arcs[k + p : k + p + h],
    }
    intervals = {
        role: _hull([arc.cost for arc in group])
        for role, group in groups.items()
    }
    evidence = {
        "intervals": {
            role: interval
            for role, interval in intervals.items()
            if interval is not None
        }
    }
    bad = [
        role
        for role, interval in intervals.items()
        if interval is not None
        and not (math.isfinite(interval[0]) and math.isfinite(interval[1]))
    ]
    if bad:
        yield Finding(
            f"non-finite arc costs in role(s) {', '.join(sorted(bad))}; "
            f"the solver's optimum is meaningless",
            Location(detail=f"roles {', '.join(sorted(bad))}"),
            severity=Severity.ERROR,
            evidence=evidence,
        )
        return
    try:
        constant = float(ctx.problem.constant_energy())
    except Exception:
        return
    if not math.isfinite(constant):
        yield Finding(
            f"constant energy term is {constant}; every objective value "
            f"is poisoned",
            severity=Severity.ERROR,
            evidence=evidence,
        )
        return
    shortest = _shortest_path_cost(built)
    if shortest is None:
        return
    witness_energy = constant + min(0.0, shortest)
    tolerance = float(ctx.option("RA604", "tolerance", 1e-9))
    if witness_energy < -tolerance:
        evidence["constant_energy"] = constant
        evidence["shortest_path_cost"] = shortest
        evidence["witness_energy"] = witness_energy
        yield Finding(
            f"the cheapest register chain is credited {shortest:g} "
            f"against a total memory-resident energy of {constant:g}; "
            f"an allocation registering that one chain would have total "
            f"energy {witness_energy:g} < 0",
            Location(detail=f"witness energy {witness_energy:g}"),
            evidence=evidence,
        )


def _topological_order(network) -> list[Hashable] | None:
    """Kahn order over every arc (a stack of ready nodes), or ``None``."""
    indegree = {node: 0 for node in network.nodes}
    for arc in network.arcs:
        indegree[arc.head] += 1
    ready = [node for node in network.nodes if indegree[node] == 0]
    order = []
    while ready:
        node = ready.pop()
        order.append(node)
        for arc in network.arcs_from(node):
            indegree[arc.head] -= 1
            if indegree[arc.head] == 0:
                ready.append(arc.head)
    return order if len(order) == network.num_nodes else None


def _shortest_path_cost(built) -> float | None:
    """Cheapest s-to-t cost over positive-capacity facades."""
    network = built.network
    order = _topological_order(network)
    if order is None:
        return None
    dist = {node: math.inf for node in network.nodes}
    dist[built.source] = 0.0
    for node in order:
        d = dist[node]
        if not math.isfinite(d):
            continue
        for arc in network.arcs_from(node):
            if arc.capacity <= 0:
                continue
            nd = d + arc.cost
            if nd < dist[arc.head]:
                dist[arc.head] = nd
    d = dist[built.sink]
    return d if math.isfinite(d) else None


#: Rule code → its facade reference body.
ORACLES = {
    "RA501": check_arc_bounds,
    "RA502": check_adjacent_handoffs,
    "RA503": check_reachability,
    "RA504": check_source_capacity,
    "RA604": check_cost_intervals,
}
