"""Seeded, coverage-minded fuzz harness over the allocation pipeline.

One fuzz *case* is a randomly drawn Problem 1 instance — lifetime set,
register count ``R``, memory access divisor ``c``, split density knobs —
run through the full oracle battery (:mod:`repro.verify.oracles`), the
solver cross-check (certificate plus LP) and, on unrestricted memory, the
baseline dominance check (:mod:`repro.verify.differential`).  The generator
deliberately oversamples the paper's edge cases: ``R = 0``, ``R >=
|vars|``, minimal-length lifetimes (read immediately after write) and
every access period ``c`` in {1, 2, 3, 5}.

Reproducibility is byte-for-byte: each case derives its own
:class:`random.Random` from ``(seed, index)`` via
:func:`repro.workloads.random_blocks.spawn_rng`, so case 2317 of seed 9
can be replayed alone without re-running cases 0..2316.

Failures are greedily *shrunk*: the minimizer repeatedly drops variables
and lowers ``R``/``horizon`` while the failure persists, and the minimal
reproducer is embedded in the report as a
:func:`repro.workloads.serialize.problem_to_dict` instance so it can be
replayed from the JSON alone (see EXPERIMENTS.md).  The report follows
the versioned-schema conventions of :mod:`repro.obs.profile` under the
id ``repro.verify/fuzz-report/v1``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Any

from repro.core.options import SolveOptions
from repro.core.problem import AllocationProblem
from repro.core.solver import allocate
from repro.core.storage import StorageSpec
from repro.energy.voltage import MemoryConfig
from repro.exceptions import AllocationError, InfeasibleFlowError, ReproError
from repro.core.network_builder import SINK, SOURCE, build_network
from repro.lint.prove import check_certificate, prove_infeasible
from repro.verify.differential import baseline_dominance, cross_check
from repro.verify.oracles import Violation, check_allocation
from repro.workloads.random_blocks import random_lifetimes, spawn_rng
from repro.workloads.serialize import problem_to_dict

__all__ = [
    "SCHEMA",
    "FuzzCase",
    "CaseResult",
    "draw_case",
    "draw_bank_case",
    "run_case",
    "run_problem",
    "shrink_case",
    "run_fuzz",
    "render_report",
]

#: Versioned schema id stamped on every fuzz report.
SCHEMA = "repro.verify/fuzz-report/v1"

#: Memory access divisors the generator draws from (paper section 5.2
#: studies c = 2; c = 1 is unrestricted memory, the dominance regime).
#: Unrestricted and c = 2 are weighted up because large divisors at low R
#: are mostly infeasible, which exercises only the agreement-on-
#: infeasibility path.
_DIVISORS = (1, 1, 2, 2, 3, 5)

#: Multi-bank axes the bank-conflict family sweeps.  Two staggered
#: period-2 banks are the canonical conflict shape (the union of access
#: steps is everything while each bank sees every other step), so they
#: are weighted up; single-bank draws keep the degenerate path honest.
_BANK_COUNTS = (1, 2, 2, 2, 3)
_BANK_PERIODS = (1, 2, 2, 3)
_BANK_PORTS = (None, None, 1, 2)
_BANK_CAPACITIES = (None, None, 1, 2, 3)


@dataclass(frozen=True)
class FuzzCase:
    """The drawn parameters of one fuzz iteration (pure data).

    Attributes:
        index: Case number within the run.
        count: Number of variables.
        horizon: Block length in control steps.
        register_count: Register file size ``R``.
        divisor: Memory access period ``c``.
        multi_read_fraction: Split-lifetime density knob.
        live_out_fraction: Fraction of variables live past the block.
        degenerate: Which edge-case family this case targets, or ``""``.
        bank_count: Memory banks in the storage hierarchy (0 = no
            hierarchy; the classic two-level model).
        bank_period: Shared per-bank access period (bank cases only).
        bank_ports: Per-bank port width, or ``None`` for unlimited.
        bank_capacity: Per-bank capacity, or ``None`` for unbounded.
        bank_stagger: Whether bank offsets interleave across the period.
    """

    index: int
    count: int
    horizon: int
    register_count: int
    divisor: int
    multi_read_fraction: float
    live_out_fraction: float
    degenerate: str = ""
    bank_count: int = 0
    bank_period: int = 0
    bank_ports: int | None = None
    bank_capacity: int | None = None
    bank_stagger: bool = True

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready view of the drawn parameters."""
        return {
            "index": self.index,
            "count": self.count,
            "horizon": self.horizon,
            "register_count": self.register_count,
            "divisor": self.divisor,
            "multi_read_fraction": self.multi_read_fraction,
            "live_out_fraction": self.live_out_fraction,
            "degenerate": self.degenerate,
            "bank_count": self.bank_count,
            "bank_period": self.bank_period,
            "bank_ports": self.bank_ports,
            "bank_capacity": self.bank_capacity,
            "bank_stagger": self.bank_stagger,
        }

    def storage_spec(self) -> StorageSpec | None:
        """The storage hierarchy this case describes, if any."""
        if self.bank_count <= 0:
            return None
        return StorageSpec.banked(
            self.bank_count,
            self.bank_period,
            ports=self.bank_ports,
            capacity=self.bank_capacity,
            stagger=self.bank_stagger,
        )


@dataclass
class CaseResult:
    """Outcome of one fuzz case.

    Attributes:
        case: The parameters the case was drawn with.
        status: ``"ok"``, ``"infeasible"`` or ``"violation"``.
        violations: Oracle/differential violations (empty unless
            ``status == "violation"``).
        problem: The failing instance (kept only on violation, for the
            shrinker and the report).
    """

    case: FuzzCase
    status: str
    violations: list[Violation] = field(default_factory=list)
    problem: AllocationProblem | None = None


def draw_case(rng: random.Random, index: int) -> FuzzCase:
    """Draw the parameters of fuzz case *index* from *rng*.

    Cycles the degenerate families every few iterations so even short
    runs cover ``R = 0``, ``R >= |vars|``, minimal-length lifetimes and
    split-heavy blocks; the remaining iterations draw freely.
    """
    degenerate = ("", "zero-registers", "", "surplus-registers",
                  "", "minimal-lifetimes", "", "split-heavy")[index % 8]
    count = rng.randint(2, 14)
    horizon = rng.randint(4, 16)
    multi_read = rng.uniform(0.1, 0.5)
    live_out = rng.uniform(0.0, 0.3)
    if degenerate == "zero-registers":
        register_count = 0
    elif degenerate == "surplus-registers":
        register_count = count + rng.randint(0, 3)
    else:
        register_count = rng.randint(1, max(1, count - 1))
    if degenerate == "minimal-lifetimes":
        horizon = rng.randint(2, 4)
        multi_read = 0.0
    if degenerate == "split-heavy":
        multi_read = 0.9
    return FuzzCase(
        index=index,
        count=count,
        horizon=horizon,
        register_count=register_count,
        divisor=rng.choice(_DIVISORS),
        multi_read_fraction=multi_read,
        live_out_fraction=live_out,
        degenerate=degenerate,
    )


def draw_bank_case(rng: random.Random, index: int) -> FuzzCase:
    """Draw one bank-conflict case: bank count x port width x period.

    The lifetime-shape axes mirror :func:`draw_case`; on top of them
    every case carries a multi-bank :class:`StorageSpec`.  Staggered
    period-2 pairs — the canonical conflict shape, where the union of
    access steps constrains nothing while every single bank rejects
    cross-phase reads — are weighted up, and capacity/port limits are
    drawn independently so capacity-pinning, port legalization and bank
    fragmentation all get exercised against the multi-bank oracles.
    """
    count = rng.randint(2, 12)
    horizon = rng.randint(4, 14)
    return FuzzCase(
        index=index,
        count=count,
        horizon=horizon,
        register_count=rng.randint(1, max(2, count)),
        divisor=1,  # overridden by the hierarchy's reference bank
        multi_read_fraction=rng.uniform(0.1, 0.6),
        live_out_fraction=rng.uniform(0.0, 0.3),
        degenerate="banked",
        bank_count=rng.choice(_BANK_COUNTS),
        bank_period=rng.choice(_BANK_PERIODS),
        bank_ports=rng.choice(_BANK_PORTS),
        bank_capacity=rng.choice(_BANK_CAPACITIES),
        bank_stagger=rng.random() < 0.8,
    )


def build_problem(case: FuzzCase, rng: random.Random) -> AllocationProblem:
    """Materialise the :class:`AllocationProblem` a case describes."""
    lifetimes = random_lifetimes(
        rng,
        count=case.count,
        horizon=case.horizon,
        multi_read_fraction=case.multi_read_fraction,
        live_out_fraction=case.live_out_fraction,
    )
    return AllocationProblem(
        lifetimes,
        register_count=case.register_count,
        horizon=case.horizon + 1,
        memory=MemoryConfig(divisor=case.divisor),
        storage=case.storage_spec(),
    )


def run_problem(problem: AllocationProblem) -> tuple[str, list[Violation]]:
    """Run the full verification battery on one instance.

    Returns:
        ``(status, violations)`` where status is ``"ok"``,
        ``"infeasible"`` (the LP must agree on infeasibility; without
        scipy the kernel's verdict stands unconfirmed) or
        ``"violation"``.

    Besides the oracle battery and the solver differential, the case is
    run through the solver-free prover (:mod:`repro.lint.prove`): an
    RA6xx infeasibility certificate on an instance the solver then
    solves is a soundness bug (oracle ``"prover"``), and every
    certificate on a genuinely infeasible instance must survive its own
    independent re-check.  The prover is deliberately incomplete, so
    *absence* of a certificate proves nothing and is never flagged.
    """
    violations: list[Violation] = []
    try:
        certificate = prove_infeasible(problem)
    except ReproError:
        certificate = None  # unbuildable networks are the lint's beat
    try:
        # certify=True: every solve also constructs and verifies an
        # optimality certificate (node potentials + complementary
        # slackness) — for multi-bank instances this covers every
        # pin-and-resolve round of the banking pass.
        allocation = allocate(problem, SolveOptions(certify=True))
    except AllocationError as exc:
        # The banking legalizer's stall guard: the pinned set grows
        # monotonically, so non-convergence is a legalizer bug, never a
        # property of the instance.
        violations.append(
            Violation(
                oracle="banking",
                message=f"banking pass failed to legalise: {exc}",
            )
        )
        return "violation", violations
    except InfeasibleFlowError as exc:
        if certificate is not None and not check_certificate(
            problem, certificate
        ):
            violations.append(
                Violation(
                    oracle="prover",
                    message=f"{certificate.kind} certificate failed its "
                    f"independent re-check: {certificate.detail}",
                )
            )
            return "violation", violations
        # Restricted memory can make the bounds unsatisfiable; the LP
        # must agree that it is.  Under a storage hierarchy the
        # infeasible network may be a *pinned* re-solve from inside the
        # banking loop, not the base union network — the solver
        # attaches the exact instance it gave up on.
        built = build_network(getattr(exc, "problem", None) or problem)
        outcome = cross_check(
            built.network, SOURCE, SINK, problem.register_count
        )
        if outcome.costs:
            violations.append(
                Violation(
                    oracle="differential",
                    message="primary solver reported infeasible but "
                    + outcome.message
                    if outcome.message
                    else "primary solver reported infeasible yet "
                    f"{sorted(outcome.costs)} found solutions",
                )
            )
            return "violation", violations
        return "infeasible", violations

    if certificate is not None:
        violations.append(
            Violation(
                oracle="prover",
                message=f"prover claimed infeasibility "
                f"({certificate.kind}: {certificate.detail}) but the "
                f"solver found a solution",
            )
        )
    violations.extend(check_allocation(allocation))
    outcome = cross_check(
        allocation.flow.network, SOURCE, SINK, problem.register_count
    )
    if not outcome.agreed:
        violations.append(
            Violation(oracle="differential", message=outcome.message)
        )
    if not problem.memory.restricted and problem.storage is None:
        # Bank deltas reprice memory residency away from the reference
        # objective, so the two-level dominance argument does not apply.
        dominance = baseline_dominance(allocation)
        if not dominance.dominated:
            violations.append(
                Violation(oracle="dominance", message=dominance.message)
            )
    return ("violation" if violations else "ok"), violations


def run_case(seed: int, case: FuzzCase) -> CaseResult:
    """Replay fuzz case *case* of run *seed* (independently of the run).

    The per-case RNG is derived from ``(seed, case.index)``, so any case
    from a report can be reproduced without re-running its predecessors.
    """
    rng = spawn_rng(seed, "fuzz-case", case.index)
    try:
        problem = build_problem(case, rng)
    except ReproError as exc:
        return CaseResult(
            case,
            "violation",
            [Violation(oracle="generator", message=str(exc))],
        )
    status, violations = run_problem(problem)
    return CaseResult(
        case,
        status,
        violations,
        problem=problem if status == "violation" else None,
    )


def _still_fails(problem: AllocationProblem) -> bool:
    """Whether the verification battery still flags *problem*."""
    try:
        status, _ = run_problem(problem)
    except ReproError:
        # A crash during shrinking is still a failure worth keeping.
        return True
    return status == "violation"


def shrink_case(
    problem: AllocationProblem, max_rounds: int = 8
) -> AllocationProblem:
    """Greedily minimise a failing instance while it keeps failing.

    Four reduction moves, applied to a fixed point (or *max_rounds*):
    drop one variable, drop one register, simplify the storage
    hierarchy (drop it whole, else shed the last bank), shorten the
    horizon to the latest lifetime end.  Every candidate is re-verified
    with the same battery; only candidates that still fail are kept.
    The storage hierarchy (and any pins) ride along through every move,
    so a bank-conflict failure shrinks *as* a bank-conflict failure.
    """
    current = problem
    for _ in range(max_rounds):
        shrunk = False
        for name in sorted(current.lifetimes):
            remaining = {
                k: v for k, v in current.lifetimes.items() if k != name
            }
            if not remaining:
                continue
            candidate = AllocationProblem(
                remaining,
                register_count=min(
                    current.register_count, len(remaining)
                ),
                horizon=current.horizon,
                energy_model=current.energy_model,
                memory=current.memory,
                graph_style=current.graph_style,
                split_at_reads=current.split_at_reads,
                allow_unused_registers=current.allow_unused_registers,
                forced_segments=frozenset(
                    key
                    for key in current.forced_segments
                    if key[0] in remaining
                ),
                storage=current.storage,
            )
            if _still_fails(candidate):
                current = candidate
                shrunk = True
        if current.register_count > 0:
            candidate = current.with_options(
                register_count=current.register_count - 1
            )
            if _still_fails(candidate):
                current = candidate
                shrunk = True
        if current.storage is not None:
            # Strongest storage shrink first: drop the hierarchy whole
            # (memory keeps the reference operating point); otherwise
            # try shedding one bank at a time.
            candidate = current.with_options(storage=None)
            if _still_fails(candidate):
                current = candidate
                shrunk = True
            elif len(current.storage.banks) > 1:
                smaller = current.storage.with_levels(
                    levels=current.storage.levels[:-1]
                )
                candidate = current.with_options(storage=smaller)
                if _still_fails(candidate):
                    current = candidate
                    shrunk = True
        tail = max(
            (l.end for l in current.lifetimes.values()), default=0
        )
        if tail < current.horizon:
            candidate = current.with_options(horizon=tail)
            if _still_fails(candidate):
                current = candidate
                shrunk = True
        if not shrunk:
            break
    return current


def run_fuzz(
    seed: int,
    iters: int,
    shrink: bool = True,
    family: str = "classic",
) -> dict[str, Any]:
    """Run *iters* fuzz cases from *seed*; return the fuzz report.

    Args:
        seed: Master seed; every case derives its own stable sub-seed.
        iters: Number of cases to run.
        shrink: Greedily minimise failing instances before reporting.
        family: ``"classic"`` (two-level draws, :func:`draw_case`),
            ``"banked"`` (multi-bank draws, :func:`draw_bank_case`) or
            ``"dag"`` (whole task-graph runs through the
            :mod:`repro.dag` pipeline, checked by the report
            reconciliation oracle; no shrinking — the reproducer is the
            ``(workload, seed, cores, registers)`` tuple itself).

    Returns:
        A ``repro.verify/fuzz-report/v1`` dict: coverage counters,
        per-status totals and one entry per failure with the (minimised)
        reproducer instance inline.

    Raises:
        ValueError: On a negative *iters* or an unknown *family*.
    """
    if iters < 0:
        raise ValueError(f"fuzz iterations must be >= 0, got {iters}")
    if family == "dag":
        return _run_dag_fuzz(seed, iters)
    if family not in ("classic", "banked"):
        raise ValueError(f"unknown fuzz family {family!r}")
    draw = draw_bank_case if family == "banked" else draw_case
    plan_rng = spawn_rng(seed, "fuzz-plan")
    statuses = {"ok": 0, "infeasible": 0, "violation": 0}
    coverage: dict[str, dict[str, int]] = {
        "divisor": {},
        "degenerate": {},
        "register_count": {},
    }
    if family == "banked":
        coverage.update(
            {"bank_count": {}, "bank_period": {}, "bank_ports": {}}
        )
    failures: list[dict[str, Any]] = []
    for index in range(iters):
        case = draw(plan_rng, index)
        result = run_case(seed, case)
        statuses[result.status] += 1
        axes = [
            ("divisor", case.divisor),
            ("degenerate", case.degenerate or "none"),
            ("register_count", case.register_count),
        ]
        if family == "banked":
            axes += [
                ("bank_count", case.bank_count),
                ("bank_period", case.bank_period),
                ("bank_ports", case.bank_ports),
            ]
        for axis, value in axes:
            bucket = coverage[axis]
            bucket[str(value)] = bucket.get(str(value), 0) + 1
        if result.status != "violation":
            continue
        entry: dict[str, Any] = {
            "case": case.to_dict(),
            "seed": seed,
            "violations": [
                {"oracle": v.oracle, "message": v.message}
                for v in result.violations
            ],
        }
        if result.problem is not None:
            reproducer = (
                shrink_case(result.problem)
                if shrink
                else result.problem
            )
            entry["minimized"] = problem_to_dict(reproducer)
            entry["minimized_size"] = {
                "variables": len(reproducer.lifetimes),
                "register_count": reproducer.register_count,
                "horizon": reproducer.horizon,
            }
        failures.append(entry)
    return {
        "schema": SCHEMA,
        "seed": seed,
        "family": family,
        "iterations": iters,
        "statuses": statuses,
        "coverage": coverage,
        "failures": failures,
    }


def _run_dag_fuzz(seed: int, iters: int) -> dict[str, Any]:
    """The ``dag`` fuzz family: end-to-end task-graph pipeline runs.

    Each case draws a registered DAG workload (fresh block seed), a core
    count, a register-file size and a deadline slack, runs the full
    partition → DVFS sweep → batch dispatch → report pipeline with
    certificates on every solve, and checks the result with
    :func:`repro.verify.oracles.oracle_dag_reconciliation`.  Cases are
    tiny (the reproducer is the drawn parameter tuple), so there is no
    shrinking stage.
    """
    # Local import: repro.dag pulls in the batch service, which imports
    # back into repro.verify for certificates — a module-level import
    # here would cycle.
    from repro.dag import (
        build_dag_report,
        build_jobs,
        default_ladder,
        dispatch_blocks,
        partition_graph,
        plan_handoffs,
        sweep_operating_points,
    )
    from repro.exceptions import DagError
    from repro.verify.oracles import OracleViolation, oracle_dag_reconciliation
    from repro.workloads.registry import DAG_NAMES, dag_workload

    plan_rng = spawn_rng(seed, "fuzz-dag")
    ladder = default_ladder((1.0, 2.0, 4.0))
    statuses = {"ok": 0, "infeasible": 0, "violation": 0}
    coverage: dict[str, dict[str, int]] = {
        "workload": {},
        "cores": {},
        "register_count": {},
    }
    failures: list[dict[str, Any]] = []
    for index in range(iters):
        case = {
            "workload": plan_rng.choice(DAG_NAMES),
            "graph_seed": plan_rng.randrange(1 << 16),
            "cores": plan_rng.randint(1, 3),
            "registers": plan_rng.randint(2, 6),
            "slack": plan_rng.choice((1.0, 1.5, 2.5, 4.0)),
        }
        for axis in ("workload", "cores", "register_count"):
            value = case["registers" if axis == "register_count" else axis]
            coverage[axis][str(value)] = coverage[axis].get(str(value), 0) + 1
        try:
            graph = dag_workload(case["workload"], seed=case["graph_seed"])
            plan = partition_graph(
                graph, cores=case["cores"], slack=case["slack"]
            )
            handoffs = plan_handoffs(plan)
            selection = sweep_operating_points(
                plan,
                register_count=case["registers"],
                ladder=ladder,
                handoff_energy=sum(h.energy for h in handoffs),
            )
            jobs = build_jobs(
                plan, selection, register_count=case["registers"]
            )
            results = dispatch_blocks(jobs, certify_fraction=1.0)
            report = build_dag_report(
                plan,
                selection,
                handoffs,
                results,
                register_count=case["registers"],
            )
            oracle_dag_reconciliation(report, require_certified=True)
        except (InfeasibleFlowError, DagError):
            statuses["infeasible"] += 1
        except OracleViolation as exc:
            statuses["violation"] += 1
            failures.append(
                {
                    "case": case,
                    "seed": seed,
                    "violations": [
                        {"oracle": exc.oracle, "message": str(exc)}
                    ],
                }
            )
        else:
            statuses["ok"] += 1
    return {
        "schema": SCHEMA,
        "seed": seed,
        "family": "dag",
        "iterations": iters,
        "statuses": statuses,
        "coverage": coverage,
        "failures": failures,
    }


def render_report(report: dict[str, Any], indent: int = 2) -> str:
    """Serialise a fuzz report with the shared obs JSON conventions."""
    return json.dumps(report, indent=indent, sort_keys=True) + "\n"
