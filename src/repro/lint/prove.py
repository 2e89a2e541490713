"""Solver-free infeasibility proofs over the allocation flow network.

Every allocation network is a DAG whose arcs point forward in time: node
times are ``0`` for the source ``s``, ``seg.start`` for a write node,
``seg.end`` for a read node and ``horizon + 1`` for the sink ``t``.  For
any half-point ``k`` (``0 .. horizon``) the node set
``{v : time(v) <= k}`` therefore contains ``s``, excludes ``t``, and has
*no* incoming arcs — it is an ``s``-``t`` cut crossed only left to
right.  Two exact consequences, each checkable without solving a flow:

* the fixed flow value ``R`` must fit through every cut, so
  ``cut_capacity(k) < R`` proves infeasibility (max-flow/min-cut upper
  bound); and
* every crossing arc must carry at least its lower bound, so
  ``forced_flow(k) > R`` proves infeasibility — the network-flow form of
  the section 5.2 forced-density argument (restricted memory access
  times pin segments into the register file, a Hall-style counting
  obstruction).

A third proof needs no counting at all: a forced segment whose write
node is unreachable from ``s`` (or whose read node cannot reach ``t``)
can never receive its mandatory unit of flow.

All three are *sound but not complete*: a certificate implies the solver
must report :class:`~repro.exceptions.InfeasibleFlowError`, but an
instance may be infeasible for subtler reasons with no certificate here.
The fuzz harness (:mod:`repro.verify.fuzz`) enforces the soundness
direction against the real solver on every generated instance.

Certificates are JSON-ready (they ride on RA6xx diagnostics as
``evidence``) and carry enough data for :func:`check_certificate` to
re-verify them through an independent per-object derivation — the
vectorized profile that *found* the proof is never trusted to *confirm*
it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.flow.kernel import csr_indptr, csr_slices
from repro.obs import trace as obs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.network_builder import BuiltNetwork
    from repro.core.problem import AllocationProblem

__all__ = [
    "InfeasibilityCertificate",
    "node_times",
    "cut_capacity_profile",
    "forced_flow_profile",
    "reachable",
    "certificates_from",
    "find_certificates",
    "prove_infeasible",
    "check_certificate",
]


@dataclass(frozen=True)
class InfeasibilityCertificate:
    """A machine-checkable proof that an instance has no feasible flow.

    Attributes:
        kind: Proof family — ``"forced-pressure"`` (cut lower bounds
            exceed ``R``), ``"cut-capacity"`` (cut capacity below ``R``),
            ``"unreachable-forced-segment"`` (a mandatory arc is
            disconnected from a terminal) or ``"bank-capacity"`` (the
            lifetime density exceeds the register file plus every bank
            capacity under a fully-capped storage hierarchy).
        half_point: The cut position ``k`` (the cut separates times
            ``<= k`` from ``> k``); ``None`` for reachability proofs.
        required: Flow the network must carry across the obstruction
            (``R`` for capacity cuts, the forced crossing flow for
            pressure cuts, ``1`` for reachability).
        available: Flow the obstruction admits (cut capacity, ``R``, or
            ``0``).
        detail: Human-readable one-line statement of the proof.
        witness: Sorted names/keys substantiating the proof — the forced
            variables alive at the cut, or the disconnected segment key.
    """

    kind: str
    half_point: int | None
    required: int
    available: int
    detail: str
    witness: tuple[str, ...] = field(default=())

    def to_dict(self) -> dict:
        """JSON-ready view (diagnostic ``evidence`` payload)."""
        return {
            "certificate": self.kind,
            "half_point": self.half_point,
            "required": self.required,
            "available": self.available,
            "detail": self.detail,
            "witness": list(self.witness),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "InfeasibilityCertificate":
        """Rebuild a certificate serialised by :meth:`to_dict`."""
        return cls(
            kind=str(data["certificate"]),
            half_point=data.get("half_point"),
            required=int(data["required"]),
            available=int(data["available"]),
            detail=str(data.get("detail", "")),
            witness=tuple(data.get("witness", ())),
        )

    def check(self, problem: "AllocationProblem") -> bool:
        """Re-verify this proof against *problem* (independent path)."""
        return check_certificate(problem, self)


# ----------------------------------------------------------------------
# time-cut profiles (vectorized discovery path)
# ----------------------------------------------------------------------
def node_times(built: "BuiltNetwork") -> np.ndarray | None:
    """Per-node time map of *built* (``None`` for foreign networks).

    Indexed by dense node id under the fixed numbering ``s=0, t=1,
    w_i=2+2i, r_i=3+2i``: the source sits at time ``0``, the sink at
    ``horizon + 1``, a write node at its segment's start and a read node
    at its segment's end.  Returns ``None`` when the network does not
    follow that numbering for the problem's segments.
    """
    problem = built.problem
    segments = [seg for segs in problem.segments.values() for seg in segs]
    k = built.roles.num_segments
    if len(segments) != k or built.network.num_nodes != 2 + 2 * k:
        return None
    times = np.empty(2 + 2 * k, dtype=np.int64)
    times[0] = 0
    times[1] = problem.horizon + 1
    if k:
        times[2::2] = [seg.start for seg in segments]
        times[3::2] = [seg.end for seg in segments]
    return times


def _cut_profile(built: "BuiltNetwork", column: str) -> np.ndarray | None:
    """Sum an arc *column* over every time cut with one diff-array pass.

    ``profile[k]`` = Σ column over arcs crossing the half-point cut at
    ``k``, for ``k = 0 .. horizon``.  Returns ``None`` when any arc runs
    backward in time — the cuts are then not one-directional and neither
    bound below is sound, so callers must prove nothing.
    """
    times = node_times(built)
    if times is None:
        return None
    arrays = built.network.arrays()
    t0 = times[arrays.tails]
    t1 = times[arrays.heads]
    horizon = built.problem.horizon
    if t0.size and (
        int((t1 - t0).min()) < 0
        or int(t0.min()) < 0
        or int(t1.max()) > horizon + 1
    ):
        # Backward arcs void the one-directional cut argument; out-of-
        # range times would corrupt the diff array.  Prove nothing.
        obs.count("lint.prove.nonforward_networks")
        return None
    diff = np.zeros(horizon + 2, dtype=np.int64)
    values = getattr(arrays, column)
    crossing = t1 > t0  # an arc spans every half-point k in [t0, t1)
    np.add.at(diff, t0[crossing], values[crossing])
    np.subtract.at(diff, t1[crossing], values[crossing])
    return np.cumsum(diff)[: horizon + 1]


def cut_capacity_profile(built: "BuiltNetwork") -> np.ndarray | None:
    """Max-flow upper bound per half-point cut (min over it bounds R)."""
    return _cut_profile(built, "capacities")


def forced_flow_profile(built: "BuiltNetwork") -> np.ndarray | None:
    """Mandatory flow per half-point cut (sum of crossing lower bounds)."""
    return _cut_profile(built, "lowers")


# ----------------------------------------------------------------------
# proof discovery
# ----------------------------------------------------------------------
def find_certificates(
    problem: "AllocationProblem",
) -> tuple[InfeasibilityCertificate, ...]:
    """Every infeasibility proof the prover can establish for *problem*.

    Returns at most one certificate per proof family (the worst cut of
    each kind, plus the first disconnected forced segment) — an empty
    tuple means "no proof", **not** "feasible".  Never solves a flow;
    derivation failures (malformed lifetimes, graph errors) also yield
    an empty tuple, since nothing can be proven about an instance whose
    network cannot even be constructed.
    """
    from repro.core.network_builder import build_network

    try:
        built = build_network(problem)
    except Exception:
        return ()
    return certificates_from(built)


def certificates_from(
    built: "BuiltNetwork",
    source_reach: np.ndarray | None = None,
) -> tuple[InfeasibilityCertificate, ...]:
    """:func:`find_certificates` over an already-constructed network.

    A lint run calls this once, on the
    :class:`~repro.lint.context.LintContext`'s cached network
    (:attr:`~repro.lint.context.LintContext.certificates`); the RA601,
    RA603 and RA605 rules share the result.  *source_reach* is the
    forward reachability from the source over positive-capacity arcs,
    when the caller already walked it (computed here otherwise).
    """
    with obs.span("lint.prove"):
        problem = built.problem
        certificates: list[InfeasibilityCertificate] = []
        R = problem.register_count

        forced = forced_flow_profile(built)
        if forced is not None and forced.size and int(forced.max()) > R:
            k = int(forced.argmax())
            required = int(forced[k])
            witness = tuple(
                sorted(
                    {
                        seg.name
                        for segs in problem.segments.values()
                        for seg in segs
                        if problem.is_forced(seg)
                        and seg.start <= k < seg.end
                    }
                )
            )
            certificates.append(
                InfeasibilityCertificate(
                    kind="forced-pressure",
                    half_point=k,
                    required=required,
                    available=R,
                    detail=(
                        f"{required} forced segments cross the time cut at "
                        f"half-point {k} + 0.5 but only R={R} register "
                        f"arcs exist"
                    ),
                    witness=witness,
                )
            )

        capacity = cut_capacity_profile(built)
        if capacity is not None and capacity.size and int(capacity.min()) < R:
            k = int(capacity.argmin())
            available = int(capacity[k])
            certificates.append(
                InfeasibilityCertificate(
                    kind="cut-capacity",
                    half_point=k,
                    required=R,
                    available=available,
                    detail=(
                        f"the time cut at half-point {k} + 0.5 admits at "
                        f"most {available} units but the register file "
                        f"must ship exactly R={R}"
                    ),
                )
            )

        certificates.extend(_reachability_certificates(built, source_reach))
        certificates.extend(_bank_capacity_certificates(problem))
        obs.count("lint.prove.calls")
        if certificates:
            obs.count("lint.prove.certificates", len(certificates))
    return tuple(certificates)


def _reachability_certificates(
    built: "BuiltNetwork", from_s: np.ndarray | None
) -> list[InfeasibilityCertificate]:
    """Forced segments disconnected from a terminal (array BFS)."""
    roles = built.roles
    network = built.network
    arrays = network.arrays()
    positive = arrays.capacities > 0
    n = network.num_nodes
    if from_s is None:
        from_s = reachable(
            n,
            arrays.tails[positive],
            arrays.heads[positive],
            start=network.node_index(built.source),
        )
    to_t = reachable(
        n,
        arrays.heads[positive],
        arrays.tails[positive],
        start=network.node_index(built.sink),
    )
    problem = built.problem
    segments = [seg for segs in problem.segments.values() for seg in segs]
    out: list[InfeasibilityCertificate] = []
    for i, seg in enumerate(segments):
        if not problem.is_forced(seg):
            continue
        w, r = 2 + 2 * i, 3 + 2 * i
        if from_s[w] and to_t[r]:
            continue
        side = "source s" if not from_s[w] else "sink t"
        out.append(
            InfeasibilityCertificate(
                kind="unreachable-forced-segment",
                half_point=None,
                required=1,
                available=0,
                detail=(
                    f"segment {seg.name}#{seg.index} is forced "
                    f"register-resident but disconnected from the {side}; "
                    f"its mandatory unit of flow cannot be routed"
                ),
                witness=(f"{seg.name}#{seg.index}",),
            )
        )
        break  # one witness suffices; keep the proof minimal
    return out


def _bank_capacity_certificates(
    problem: "AllocationProblem",
) -> list[InfeasibilityCertificate]:
    """Storage-hierarchy counting proof: density vs R + Σ bank capacity.

    Every value live at half-point ``k + 0.5`` occupies a register (at
    most ``R``) or one location of some bank (at most the sum of the
    finite bank capacities).  When every bank is capped and the lifetime
    density exceeds that total, no placement exists.  Skipped entirely
    while any bank is uncapped — an unbounded bank absorbs everything.
    """
    from repro.lifetimes.intervals import density_profile

    storage = problem.storage
    if storage is None:
        return []
    capacities = [level.capacity for level in storage.banks]
    if any(capacity is None for capacity in capacities):
        return []
    available = problem.register_count + sum(capacities)
    profile = density_profile(
        problem.lifetimes.values(), problem.horizon
    )
    peak = max(profile, default=0)
    if peak <= available:
        return []
    k = profile.index(peak)
    witness = tuple(
        sorted(
            name
            for name, lifetime in problem.lifetimes.items()
            if lifetime.alive_at(k)
        )
    )
    return [
        InfeasibilityCertificate(
            kind="bank-capacity",
            half_point=k,
            required=peak,
            available=available,
            detail=(
                f"{peak} values are live at half-point {k} + 0.5 but "
                f"R={problem.register_count} registers plus "
                f"{sum(capacities)} bank locations hold only {available}"
            ),
            witness=witness,
        )
    ]


def reachable(
    n: int, tails: np.ndarray, heads: np.ndarray, start: int
) -> np.ndarray:
    """Boolean reachability from node *start* following ``tails -> heads``.

    The one walk over a network's arc arrays: a lint run walks forward
    from the source over positive-capacity arcs once
    (:attr:`~repro.lint.context.LintContext.source_reach`, shared by the
    prover and rule RA503) and, with the arcs reversed, toward the sink
    once; RA503 walks every arc itself only when some arc has zero
    capacity.  One stable sort groups the arcs by tail, then each BFS
    layer expands its frontier's CSR slices
    (:func:`~repro.flow.kernel.csr_slices`), so a layer touches only the
    out-arcs of its own nodes.  Returns a mask indexed by dense
    node id, of length *n*.
    """
    order = np.argsort(tails, kind="stable")
    indptr = csr_indptr(n, tails)
    grouped_heads = heads[order]
    seen = np.zeros(n, dtype=bool)
    seen[start] = True
    frontier = np.array([start], dtype=np.int64)
    while frontier.size:
        pos, _ = csr_slices(indptr, frontier)
        nxt = np.unique(grouped_heads[pos])
        nxt = nxt[~seen[nxt]]
        seen[nxt] = True
        frontier = nxt
    return seen


def prove_infeasible(
    problem: "AllocationProblem",
) -> InfeasibilityCertificate | None:
    """The strongest available proof that *problem* is infeasible.

    ``None`` means "no proof found" — the instance may still be
    infeasible; only the solver can certify feasibility.
    """
    certificates = find_certificates(problem)
    return certificates[0] if certificates else None


# ----------------------------------------------------------------------
# independent re-verification
# ----------------------------------------------------------------------
def check_certificate(
    problem: "AllocationProblem", certificate: InfeasibilityCertificate
) -> bool:
    """Re-verify *certificate* against *problem* without the prover.

    Each proof family is re-derived through a deliberately different
    code path from the diff-array profiles that discovered it:
    forced-pressure through
    :func:`repro.core.diagnostics.forced_density_profile`, cut capacity
    through a per-object arc walk, reachability through a dict-based
    BFS over arc facades.  A ``False`` return means the certificate does
    not hold — a prover bug, or evidence detached from its instance.
    """
    try:
        if certificate.kind == "forced-pressure":
            return _check_forced_pressure(problem, certificate)
        if certificate.kind == "cut-capacity":
            return _check_cut_capacity(problem, certificate)
        if certificate.kind == "unreachable-forced-segment":
            return _check_unreachable(problem, certificate)
        if certificate.kind == "bank-capacity":
            return _check_bank_capacity(problem, certificate)
    except Exception:
        return False
    return False


def _check_forced_pressure(
    problem: "AllocationProblem", certificate: InfeasibilityCertificate
) -> bool:
    from repro.core.diagnostics import forced_density_profile

    k = certificate.half_point
    if k is None:
        return False
    forced = forced_density_profile(problem)
    if not 0 <= k < len(forced.profile):
        return False
    return (
        forced.profile[k] == certificate.required
        and certificate.available == problem.register_count
        and certificate.required > certificate.available
    )


def _check_cut_capacity(
    problem: "AllocationProblem", certificate: InfeasibilityCertificate
) -> bool:
    from repro.core.network_builder import build_network

    k = certificate.half_point
    if k is None or not 0 <= k <= problem.horizon:
        return False
    built = build_network(problem)
    times = _object_node_times(built)
    if times is None:
        return False
    total = 0
    for arc in built.network.arcs:
        t0, t1 = times[arc.tail], times[arc.head]
        if t1 < t0:
            return False  # not a one-directional cut; proof void
        if t0 <= k < t1:
            total += arc.capacity
    return (
        total == certificate.available
        and certificate.required == problem.register_count
        and certificate.available < certificate.required
    )


def _check_unreachable(
    problem: "AllocationProblem", certificate: InfeasibilityCertificate
) -> bool:
    from repro.core.network_builder import build_network

    if len(certificate.witness) != 1:
        return False
    name, _, index_text = certificate.witness[0].partition("#")
    built = build_network(problem)
    segments = [seg for segs in problem.segments.values() for seg in segs]
    target = next(
        (
            seg
            for seg in segments
            if seg.name == name and str(seg.index) == index_text
        ),
        None,
    )
    if target is None or not problem.is_forced(target):
        return False
    network = built.network
    w = ("w", target.name, target.index)
    r = ("r", target.name, target.index)
    # Dict-based BFS over arc facades (independent of the array BFS).
    def bfs(start, step):
        seen = {start}
        queue = [start]
        while queue:
            node = queue.pop()
            for nxt in step(node):
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return seen

    forward = bfs(
        built.source,
        lambda u: (a.head for a in network.arcs_from(u) if a.capacity > 0),
    )
    backward = bfs(
        built.sink,
        lambda u: (a.tail for a in network.arcs_into(u) if a.capacity > 0),
    )
    return w not in forward or r not in backward


def _check_bank_capacity(
    problem: "AllocationProblem", certificate: InfeasibilityCertificate
) -> bool:
    storage = problem.storage
    if storage is None:
        return False
    capacities = [level.capacity for level in storage.banks]
    if any(capacity is None for capacity in capacities):
        return False
    k = certificate.half_point
    if k is None or not 0 <= k < problem.horizon:
        return False
    # Per-lifetime membership test, independent of the diff-array
    # profile that discovered the proof.
    live = sorted(
        name
        for name, lifetime in problem.lifetimes.items()
        if lifetime.alive_at(k)
    )
    return (
        certificate.required == len(live)
        and certificate.available
        == problem.register_count + sum(capacities)
        and certificate.required > certificate.available
        and tuple(live) == certificate.witness
    )
