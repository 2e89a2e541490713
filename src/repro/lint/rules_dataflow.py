"""RA6xx — dataflow-analysis and feasibility-proof rules.

Where the RA1xx-RA5xx families check declared structure, this family
*re-derives* facts and proves obstructions:

* RA601/RA603/RA605 report the certificates of the solver-free prover
  (:mod:`repro.lint.prove`), which runs once per lint run over the
  instance's flow network (:attr:`LintContext.certificates`): time-cut
  counting (RA601), terminal reachability (RA603) and the
  storage-hierarchy counting proof (RA605: every bank is
  capacity-limited and the lifetime density exceeds the register file
  plus the summed bank capacities).  Each certificate rides on its
  diagnostic as machine-checkable ``evidence`` and is re-verified
  through an independent derivation before it is reported; a
  certificate that fails its own check is reported as a prover bug
  instead of a proof.
* RA602 re-derives every lifetime from the schedule's reads and writes
  (:mod:`repro.lint.dataflow`) and diffs the derived lifetimes against
  the declared ones, variable by variable.
* RA604 runs an interval/sign analysis over the network's arc costs:
  non-finite costs poison the solver's optimum silently, and an
  optimistic energy bound below zero means some allocation would be
  credited net-negative energy — both symptoms of a broken cost model
  that the RA4xx per-access checks cannot see (they never look at
  composed arc costs).
"""

from __future__ import annotations

import math
from typing import Callable, Iterator

import numpy as np

from repro.flow.kernel import dag_distances
from repro.lint.context import Finding, LintContext
from repro.lint.dataflow import Interval, liveness
from repro.lint.diagnostics import Location, Severity
from repro.lint.prove import InfeasibilityCertificate, check_certificate
from repro.lint.registry import rule

__all__: list[str] = []


def _proof_findings(
    ctx: LintContext,
    kinds: tuple[str, ...],
    locate: Callable[[InfeasibilityCertificate], Location],
    wording: str,
) -> Iterator[Finding]:
    """Report the context's certificates of *kinds*, each re-checked.

    Every certificate is re-verified through :func:`check_certificate`
    before it is reported as a proof; one that fails its own check is
    reported as a prover bug instead (*wording* names it, with
    ``{kind}`` standing for the certificate kind).
    """
    for certificate in ctx.certificates:
        if certificate.kind not in kinds:
            continue
        evidence = certificate.to_dict()
        evidence["checked"] = check_certificate(ctx.problem, certificate)
        if evidence["checked"]:
            yield Finding(
                certificate.detail, locate(certificate), evidence=evidence
            )
            continue
        yield Finding(
            f"prover emitted {wording.format(kind=certificate.kind)} that "
            f"fails independent re-verification: {certificate.detail}",
            locate(certificate),
            hint="this is a prover bug, not an instance defect; "
            "report it with the evidence payload",
            evidence=evidence,
        )


def _cut_location(certificate: InfeasibilityCertificate) -> Location:
    return Location(step=certificate.half_point, detail=certificate.kind)


def _segment_location(certificate: InfeasibilityCertificate) -> Location:
    variable = segment = None
    if certificate.witness:
        variable, _, index_text = certificate.witness[0].partition("#")
        segment = int(index_text) if index_text.isdigit() else None
    return Location(variable=variable, segment=segment)


@rule(
    "RA601",
    "pressure-exceeds-registers-proof",
    Severity.ERROR,
    "A time-cut counting argument proves the register file cannot hold "
    "the instance: the solver is guaranteed to report infeasibility.",
    hint="raise the register count, relax the memory access period, or "
    "unpin forced segments; the attached certificate names the "
    "obstructing half-point",
)
def check_pressure_proofs(ctx: LintContext) -> Iterator[Finding]:
    """RA601: report cut-counting infeasibility proofs with evidence."""
    yield from _proof_findings(
        ctx,
        ("forced-pressure", "cut-capacity"),
        _cut_location,
        "a {kind} certificate",
    )


@rule(
    "RA602",
    "schedule-lifetime-disagreement",
    Severity.ERROR,
    "The lifetimes re-derived from the schedule's reads and writes "
    "disagree with the instance's declared lifetimes.",
    hint="the declared lifetimes were not extracted from this schedule "
    "(or were edited afterwards); re-run extract_lifetimes on the "
    "schedule being solved",
)
def check_schedule_agreement(ctx: LintContext) -> Iterator[Finding]:
    """RA602: diff schedule-derived lifetimes against declared ones."""
    if ctx.schedule is None:
        return
    try:
        derived = liveness(ctx.schedule).lifetimes()
    except Exception as exc:
        yield Finding(
            f"liveness re-derivation failed: {type(exc).__name__}: {exc}",
            hint="the schedule is not analysable; the RA1xx findings "
            "explain the structural defect",
        )
        return
    declared = {
        name: (lifetime.write_time, tuple(lifetime.read_times))
        for name, lifetime in ctx.problem.lifetimes.items()
    }
    for name in sorted(set(declared) - set(derived)):
        yield Finding(
            f"variable {name!r} has a declared lifetime but the schedule "
            f"never defines it",
            Location(variable=name),
            evidence={"variable": name, "derived": None,
                      "declared": _lifetime_dict(declared[name])},
        )
    for name in sorted(set(derived) - set(declared)):
        yield Finding(
            f"the schedule defines variable {name!r} but the instance "
            f"declares no lifetime for it",
            Location(variable=name),
            evidence={"variable": name,
                      "derived": _lifetime_dict(derived[name]),
                      "declared": None},
        )
    for name in sorted(set(derived) & set(declared)):
        if derived[name] == declared[name]:
            continue
        d_write, d_reads = derived[name]
        c_write, c_reads = declared[name]
        parts = []
        if d_write != c_write:
            parts.append(f"write {c_write} (schedule says {d_write})")
        if d_reads != c_reads:
            parts.append(
                f"reads {list(c_reads)} (schedule says {list(d_reads)})"
            )
        yield Finding(
            f"variable {name!r}: declared {', '.join(parts)}",
            Location(variable=name, step=d_write),
            evidence={
                "variable": name,
                "derived": _lifetime_dict(derived[name]),
                "declared": _lifetime_dict(declared[name]),
            },
        )


def _lifetime_dict(pair: tuple[int, tuple[int, ...]]) -> dict:
    write, reads = pair
    return {"write": write, "reads": list(reads)}


@rule(
    "RA603",
    "unreachable-handoff-proof",
    Severity.ERROR,
    "A forced segment is disconnected from a flow terminal: no handoff "
    "chain can route its mandatory unit of register flow.",
    hint="the restricted access times leave no legal spill/reload chain "
    "around the segment; widen the access period or unpin it",
)
def check_reachability_proofs(ctx: LintContext) -> Iterator[Finding]:
    """RA603: report terminal-reachability infeasibility proofs."""
    yield from _proof_findings(
        ctx,
        ("unreachable-forced-segment",),
        _segment_location,
        "an unreachability certificate",
    )


@rule(
    "RA605",
    "bank-capacity-proof",
    Severity.ERROR,
    "A counting argument over the storage hierarchy proves the instance "
    "cannot be placed: more values are simultaneously live than the "
    "register file plus every bank capacity can hold.",
    hint="raise the register count, enlarge a bank, or add a bank; the "
    "attached certificate names the obstructing half-point and the "
    "live values crossing it",
)
def check_bank_capacity_proofs(ctx: LintContext) -> Iterator[Finding]:
    """RA605: report storage-hierarchy capacity proofs with evidence."""
    yield from _proof_findings(
        ctx, ("bank-capacity",), _cut_location, "a bank-capacity certificate"
    )


@rule(
    "RA604",
    "energy-cost-interval",
    Severity.WARNING,
    "Interval analysis over the network's composed arc costs found "
    "non-finite costs or a net-negative optimistic energy bound.",
    hint="composed arc costs are energy differences and must stay "
    "finite; a below-zero optimistic total means the model credits "
    "more energy than the instance can spend",
    options={
        "tolerance": "float (default 1e-9): absolute slack before the "
        "optimistic energy bound counts as negative",
    },
)
def check_cost_intervals(ctx: LintContext) -> Iterator[Finding]:
    """RA604: sign/interval analysis of the composed arc costs."""
    built = ctx.built
    if built is None:
        return
    arrays = built.network.arrays()
    costs = arrays.costs
    k = built.roles.num_segments
    p = len(built.roles.intra_pairs)
    h = len(built.roles.handoff_src)
    groups = {
        "segment": costs[:k],
        "intra": costs[k : k + p],
        "handoff": costs[k + p : k + p + h],
    }
    intervals = {
        role: Interval.hull(values) for role, values in groups.items()
    }
    evidence = {
        "intervals": {
            role: interval.to_list()
            for role, interval in intervals.items()
            if interval is not None
        }
    }
    bad = [
        role
        for role, interval in intervals.items()
        if interval is not None and not interval.finite
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
        return  # RA402 reports the evaluation failure
    if not math.isfinite(constant):
        yield Finding(
            f"constant energy term is {constant}; every objective value "
            f"is poisoned",
            severity=Severity.ERROR,
            evidence=evidence,
        )
        return
    # One-path witness: routing a single unit down the cheapest s-to-t
    # path (the remaining R-1 units idle through the bypass) yields the
    # objective constant + path cost.  Below zero, the model credits a
    # single register-resident chain with more energy than the whole
    # program spends memory-resident — a broken cost table, since total
    # energy is physically non-negative.
    shortest = _shortest_path_cost(built)
    if shortest is None:
        return  # not a forward DAG; nothing sound to bound
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


def _shortest_path_cost(built) -> float | None:
    """Cheapest s-to-t path cost over the positive-capacity arcs.

    One Kahn-layered sweep (:func:`~repro.flow.kernel.dag_distances`,
    the kernel's cold-start relaxation) over the arcs stably sorted by
    tail; negative costs are fine on a DAG.  Returns ``None`` when those
    arcs contain a cycle or the sink is unreachable (other rules report
    those).
    """
    network = built.network
    arrays = network.arrays()
    positive = np.nonzero(arrays.capacities > 0)[0]
    grouped = positive[np.argsort(arrays.tails[positive], kind="stable")]
    dist = dag_distances(
        network.num_nodes,
        arrays.tails[grouped],
        arrays.heads[grouped],
        arrays.costs[grouped],
        network.node_index(built.source),
    )
    if dist is None:
        return None
    d = float(dist[network.node_index(built.sink)])
    return d if math.isfinite(d) else None
