"""Invariant oracles over solved allocation instances.

Every oracle takes a solved :class:`~repro.core.allocation.Allocation`
(or, for the code-generation oracle, a full
:class:`~repro.core.pipeline.PipelineResult`) and re-derives one paper
invariant *independently* of the code that produced the solution:

* ``flow_conservation`` — bounds, conservation and source/sink balance of
  the flow vector (section 4 constraints);
* ``total_flow`` — the shipped value equals the register count ``R``
  (eq. 5) and the chains plus bypass units account for every unit;
* ``split_lower_bounds`` — section 5.2's must-be-register rule,
  re-derived from scratch: a segment may sit in memory only if the value
  can reach memory by the segment start and every served read is a
  memory-access step; the network's arc lower bounds and the solution's
  residency must both agree with the re-derivation;
* ``bank_assignment`` — under a multi-level storage hierarchy, the
  banking pass's placements are complete, bank-legal, within per-bank
  capacity and port cuts, and the delta-energy roll-up re-derives from
  the level parameters;
* ``optimality_certificate`` — constructs and verifies node potentials
  proving the flow minimum-cost (see :mod:`repro.verify.certificates`);
* ``energy_agreement`` — the flow objective (plus the constant
  all-in-memory term) equals the energy recomputed from the extracted
  chains by independent accounting;
* ``codegen_agreement`` — the lowered program's memory traffic reconciles
  exactly with the allocation report, and simulated execution matches the
  reference dataflow evaluation on random inputs;
* ``dag_reconciliation`` — a ``repro.dag/report/v1`` document is
  internally consistent: per-block energies roll up to partition and
  report totals, batch-executor objectives agree with the sweep's
  energies, the makespan meets the deadline and the frontier's
  feasibility flags are truthful.

Oracles raise :class:`OracleViolation`; :func:`check_allocation` runs a
battery and returns the violations as data (the fuzz harness consumes
them, tests usually assert the list is empty).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro.core.allocation import Allocation, compute_report
from repro.core.network_builder import SINK, SOURCE
from repro.exceptions import ReproError
from repro.flow.validate import FlowValidationError, check_flow, flow_cost
from repro.verify.certificates import CertificateError, certify_flow

__all__ = [
    "OracleViolation",
    "Violation",
    "ALLOCATION_ORACLES",
    "check_allocation",
    "oracle_flow_conservation",
    "oracle_total_flow",
    "oracle_split_lower_bounds",
    "oracle_bank_assignment",
    "oracle_optimality_certificate",
    "oracle_energy_agreement",
    "oracle_codegen_agreement",
    "oracle_dag_reconciliation",
]

#: Relative tolerance for energy comparisons.
_ENERGY_TOL = 1e-6

#: Sentinel distinguishing "use the problem's union access set" from an
#: explicit ``None`` (= unrestricted) bank access set.
UNSET_ACCESS = object()


class OracleViolation(ReproError):
    """A solved instance broke one of the verification invariants.

    Attributes:
        oracle: Name of the violated oracle.
    """

    def __init__(self, oracle: str, message: str) -> None:
        super().__init__(f"[{oracle}] {message}")
        self.oracle = oracle


@dataclass(frozen=True)
class Violation:
    """One recorded oracle violation (pure data, JSON-friendly).

    Attributes:
        oracle: Name of the violated oracle.
        message: Human-readable description of the broken invariant.
    """

    oracle: str
    message: str


def oracle_flow_conservation(allocation: Allocation) -> None:
    """Flow bounds, conservation and terminal balance (section 4).

    Delegates to :func:`repro.flow.validate.check_flow` (which itself
    sits on the shared :func:`~repro.flow.validate.net_inflow`
    arithmetic) rather than re-implementing conservation here — one
    balance computation, two consumers.
    """
    try:
        check_flow(
            allocation.flow,
            SOURCE,
            SINK,
            allocation.problem.register_count,
        )
    except FlowValidationError as exc:
        raise OracleViolation("flow_conservation", str(exc)) from exc


def oracle_total_flow(allocation: Allocation) -> None:
    """Total flow equals ``R`` and decomposes into chains + bypass units."""
    problem = allocation.problem
    value = allocation.flow.value
    if value != problem.register_count:
        raise OracleViolation(
            "total_flow",
            f"flow ships {value} units, register count is "
            f"{problem.register_count}",
        )
    accounted = len(allocation.chains) + allocation.unused_registers
    if accounted != problem.register_count:
        raise OracleViolation(
            "total_flow",
            f"{len(allocation.chains)} chains + "
            f"{allocation.unused_registers} bypass units != R = "
            f"{problem.register_count}",
        )


def _memory_legal(problem, segment, access=UNSET_ACCESS) -> bool:
    """Independent re-derivation of section 5.2 memory-residency legality.

    *access* defaults to the problem's (union) access-time set; pass a
    bank's own access set to re-derive single-bank legality.
    """
    if access is UNSET_ACCESS:
        access = problem.access_times
    if access is None:
        return True
    lifetime = problem.lifetimes[segment.name]
    reaches_memory = any(
        lifetime.write_time <= m <= segment.start for m in access
    )
    reads_legal = all(
        r in access or (lifetime.live_out and r == lifetime.end)
        for r in segment.reads
    )
    return reaches_memory and reads_legal


def _banking_forced(problem, segment) -> bool:
    """Independent re-derivation of the multi-bank forcing rule.

    Under a multi-bank hierarchy a segment must be register-resident
    when it is legal against the *union* of bank access times but not
    against any *single* bank (values never migrate between banks, so
    union legality alone cannot place it)."""
    storage = problem.storage
    if storage is None or storage.is_degenerate:
        return False
    if not _memory_legal(problem, segment):
        return False  # already union-forced; nothing extra to add
    return not any(
        _memory_legal(problem, segment, access=bank_access)
        for bank_access in storage.bank_access_times(problem.horizon)
    )


def oracle_split_lower_bounds(allocation: Allocation) -> None:
    """Section 5.2 must-be-register segments carry lower bound 1 and flow 1.

    Re-derives memory-residency legality from the paper's rules (without
    calling the splitter's own ``forced`` logic) and checks three facts
    per segment arc: the arc's lower bound matches the re-derivation plus
    any explicit pins, the flow respects the bound, and every forced
    segment is register-resident in the extracted solution.
    """
    problem = allocation.problem
    network = allocation.flow.network
    seen: set[tuple[str, int]] = set()
    for arc in network.arcs:
        if not (isinstance(arc.data, tuple) and arc.data[0] == "segment"):
            continue
        segment = arc.data[1]
        seen.add(segment.key)
        pinned = segment.key in problem.forced_segments
        legal = (
            _memory_legal(problem, segment)
            and not _banking_forced(problem, segment)
        )
        expected_lower = 0 if legal and not pinned else 1
        if arc.lower != expected_lower:
            raise OracleViolation(
                "split_lower_bounds",
                f"segment {segment.key} has arc lower bound {arc.lower}, "
                f"re-derived legality demands {expected_lower}",
            )
        flow = allocation.flow.flows[arc.index]
        if flow < expected_lower:
            raise OracleViolation(
                "split_lower_bounds",
                f"forced segment {segment.key} carries flow {flow}",
            )
        if expected_lower == 1 and segment.key not in allocation.residency:
            raise OracleViolation(
                "split_lower_bounds",
                f"forced segment {segment.key} is not register-resident",
            )
    expected_keys = {
        seg.key for segs in problem.segments.values() for seg in segs
    }
    if seen != expected_keys:
        missing = sorted(expected_keys - seen)
        raise OracleViolation(
            "split_lower_bounds",
            f"network lacks segment arcs for {missing}",
        )


def oracle_bank_assignment(allocation: Allocation) -> None:
    """Multi-bank invariants of the banking second pass.

    Checks, independently of :mod:`repro.core.banking`'s placement code:

    * a storage-hierarchy solve carries a bank assignment and vice versa;
    * every placement names a real bank and is *legal* there — each
      memory-resident segment satisfies the section-5.2 rule against the
      bank's own access set, every spill/reload lands on a bank access
      step, and the initial write window contains one;
    * the recorded traffic reconciles with the allocation report in
      aggregate (total memory writes/reads) and per variable (memory
      segment read steps);
    * per-bank forced density: each bank's resident hulls pack into its
      capacity;
    * bank-conflict time cuts: no access step of a bank demands more
      simultaneous accesses than the bank has ports;
    * the energy roll-up: each delta re-derives from the bank's level
      parameters, deltas sum to ``delta_energy``, and ``total_energy``
      equals the flow objective plus that sum.
    """
    problem = allocation.problem
    banking = allocation.banking
    if problem.storage is None:
        if banking is not None:
            raise OracleViolation(
                "bank_assignment",
                "allocation carries a bank assignment without a storage "
                "spec on the problem",
            )
        return
    if banking is None:
        raise OracleViolation(
            "bank_assignment",
            "storage-hierarchy solve returned no bank assignment",
        )
    spec = banking.spec
    bank_access = spec.bank_access_times(problem.horizon)
    bank_count = len(spec.banks)

    total_writes = total_reads = 0
    for name, placement in banking.placements.items():
        traffic = placement.traffic
        if not 0 <= placement.bank < bank_count:
            raise OracleViolation(
                "bank_assignment",
                f"{name} placed in nonexistent bank {placement.bank}",
            )
        access = bank_access[placement.bank]
        lifetime = problem.lifetimes[name]
        mem_read_steps: list[int] = []
        for seg in problem.segments[name]:
            if seg.key in allocation.residency:
                continue
            if not _memory_legal(problem, seg, access=access):
                raise OracleViolation(
                    "bank_assignment",
                    f"segment {seg.key} is memory resident but illegal "
                    f"in its assigned bank {placement.bank}",
                )
            for r in seg.reads:
                if not (lifetime.live_out and r == lifetime.end):
                    mem_read_steps.append(r)
        if sorted(mem_read_steps) != sorted(traffic.read_steps):
            raise OracleViolation(
                "bank_assignment",
                f"{name}: recorded read steps "
                f"{sorted(traffic.read_steps)} disagree with residency-"
                f"derived steps {sorted(mem_read_steps)}",
            )
        if access is not None:
            boundary = [
                step
                for step in (*traffic.spill_steps, *traffic.reload_steps)
                if step not in access
            ]
            if boundary:
                raise OracleViolation(
                    "bank_assignment",
                    f"{name}: spill/reload steps {boundary} miss bank "
                    f"{placement.bank}'s access steps",
                )
            if traffic.initial_window is not None:
                lo, hi = traffic.initial_window
                if not any(lo <= m <= hi for m in access):
                    raise OracleViolation(
                        "bank_assignment",
                        f"{name}: initial write window [{lo}, {hi}] "
                        f"contains no access step of bank "
                        f"{placement.bank}",
                    )
        total_writes += traffic.writes
        total_reads += traffic.reads
    report = allocation.report
    if (total_writes, total_reads) != (report.mem_writes, report.mem_reads):
        raise OracleViolation(
            "bank_assignment",
            f"placed traffic totals ({total_writes} writes, "
            f"{total_reads} reads) disagree with the report "
            f"({report.mem_writes} writes, {report.mem_reads} reads)",
        )

    delta_sum = 0.0
    for name, placement in banking.placements.items():
        level = spec.banks[placement.bank]
        traffic = placement.traffic
        model = problem.energy_model
        variable = problem.lifetimes[name].variable
        base = traffic.writes * model.mem_write(variable) + (
            traffic.reads * model.mem_read(variable)
        )
        ratio = level.voltage / spec.reference.voltage
        expected = (
            base * (ratio * ratio * level.access_scale - 1.0)
            + level.transfer_cost * traffic.writes
            + level.idle_energy * (traffic.hull[1] - traffic.hull[0])
        )
        if abs(placement.delta - expected) > _ENERGY_TOL * (1 + abs(expected)):
            raise OracleViolation(
                "bank_assignment",
                f"{name}: recorded delta {placement.delta:.6f} vs "
                f"re-derived {expected:.6f}",
            )
        delta_sum += placement.delta
    scale = 1.0 + abs(delta_sum)
    if abs(delta_sum - banking.delta_energy) > _ENERGY_TOL * scale:
        raise OracleViolation(
            "bank_assignment",
            f"delta roll-up {delta_sum:.6f} vs recorded "
            f"{banking.delta_energy:.6f}",
        )
    expected_total = allocation.objective + banking.delta_energy
    if abs(allocation.total_energy - expected_total) > _ENERGY_TOL * (
        1.0 + abs(expected_total)
    ):
        raise OracleViolation(
            "bank_assignment",
            f"total energy {allocation.total_energy:.6f} vs objective + "
            f"deltas {expected_total:.6f}",
        )

    for index, level in enumerate(spec.banks):
        hulls = [
            placement.traffic.hull
            for placement in banking.placements.values()
            if placement.bank == index
        ]
        if level.capacity is not None:
            events: dict[int, int] = {}
            for lo, hi in hulls:
                if hi <= lo:
                    continue
                events[lo] = events.get(lo, 0) + 1
                events[hi] = events.get(hi, 0) - 1
            depth = 0
            for step in sorted(events):
                depth += events[step]
                if depth > level.capacity:
                    raise OracleViolation(
                        "bank_assignment",
                        f"bank {index} holds {depth} simultaneous values "
                        f"at step {step}, capacity is {level.capacity}",
                    )
        if level.ports is not None:
            access = bank_access[index]
            counts: dict[int, int] = {}
            for placement in banking.placements.values():
                if placement.bank != index:
                    continue
                traffic = placement.traffic
                steps = list(traffic.spill_steps)
                steps.extend(traffic.read_steps)
                steps.extend(traffic.reload_steps)
                if traffic.initial_window is not None:
                    lo, hi = traffic.initial_window
                    if access is None:
                        steps.append(lo)
                    else:
                        legal = [m for m in access if lo <= m <= hi]
                        if legal:
                            steps.append(max(legal))
                for step in steps:
                    counts[step] = counts.get(step, 0) + 1
            for step in sorted(counts):
                if counts[step] > level.ports:
                    raise OracleViolation(
                        "bank_assignment",
                        f"bank {index} needs {counts[step]} simultaneous "
                        f"accesses at step {step}, has {level.ports} "
                        f"ports",
                    )


def oracle_optimality_certificate(allocation: Allocation) -> None:
    """Machine-checked proof that the flow is minimum-cost for value R."""
    try:
        certify_flow(allocation.flow)
    except CertificateError as exc:
        raise OracleViolation("optimality_certificate", str(exc)) from exc


def oracle_energy_agreement(allocation: Allocation) -> None:
    """Flow objective == chain-recomputed energy == reported objective."""
    problem = allocation.problem
    objective = problem.constant_energy() + flow_cost(allocation.flow)
    recomputed = compute_report(problem, allocation.chains).total_energy
    scale = 1.0 + abs(objective)
    if abs(recomputed - objective) > _ENERGY_TOL * scale:
        raise OracleViolation(
            "energy_agreement",
            f"flow objective {objective:.6f} vs chain accounting "
            f"{recomputed:.6f}",
        )
    if abs(allocation.objective - objective) > _ENERGY_TOL * scale:
        raise OracleViolation(
            "energy_agreement",
            f"stored objective {allocation.objective:.6f} vs recomputed "
            f"{objective:.6f}",
        )


def oracle_codegen_agreement(
    result, rng: random.Random | None = None, trials: int = 3
) -> None:
    """Lowered program ⇄ allocation report ⇄ simulator agreement.

    Three independent checks on a full
    :class:`~repro.core.pipeline.PipelineResult`:

    * the program's memory writes (``Mem`` destinations) equal the
      report's memory-write count;
    * the program's distinct memory read samples — ``(variable, step)``
      pairs over non-piggyback operands — plus the live-out pseudo-reads
      the block boundary leaves to the consuming task equal the report's
      memory-read count;
    * simulating the program on *trials* random input vectors reproduces
      the reference dataflow evaluation for every output and live-out
      value.

    Args:
        result: The pipeline result (schedule + allocation) to verify.
        rng: Seeded generator for the input vectors (default seed 0).
        trials: Number of random input vectors to simulate.

    Raises:
        OracleViolation: On any reconciliation or simulation mismatch.
    """
    from repro.codegen.lower import lower
    from repro.codegen.program import Kind, Mem
    from repro.codegen.simulator import verify_program
    from repro.exceptions import AllocationError
    from repro.ir.operations import OpCode

    rng = rng if rng is not None else random.Random(0)
    allocation = result.allocation
    problem = allocation.problem
    program = lower(result, use_layout=False)

    mem_writes = sum(
        1 for ins in program.instructions if isinstance(ins.dest, Mem)
    )
    read_samples: set[tuple[str, int]] = set()
    for ins in program.instructions:
        if ins.kind is Kind.MOVE and ins.piggyback:
            continue
        for operand in ins.operands:
            if isinstance(operand, Mem):
                read_samples.add((operand.variable, ins.step))
    pseudo_reads = 0
    boundary = problem.horizon + 1
    for name, segments in problem.segments.items():
        lifetime = problem.lifetimes[name]
        if not lifetime.live_out:
            continue
        for seg in segments:
            if seg.key in allocation.residency:
                continue
            for r in seg.reads:
                if r == boundary and (name, r) not in read_samples:
                    pseudo_reads += 1
    report = allocation.report
    if mem_writes != report.mem_writes:
        raise OracleViolation(
            "codegen_agreement",
            f"program performs {mem_writes} memory writes, report counts "
            f"{report.mem_writes}",
        )
    total_reads = len(read_samples) + pseudo_reads
    if total_reads != report.mem_reads:
        raise OracleViolation(
            "codegen_agreement",
            f"program samples {len(read_samples)} memory reads "
            f"(+{pseudo_reads} block-boundary pseudo-reads), report counts "
            f"{report.mem_reads}",
        )

    block = result.schedule.block
    sources = [
        op.output
        for op in block
        if op.output and op.opcode in (OpCode.INPUT, OpCode.CONST)
    ]
    for _ in range(trials):
        inputs = {
            name: rng.getrandbits(block.variable(name).width)
            for name in sources
        }
        try:
            verify_program(program, block, allocation, inputs)
        except AllocationError as exc:
            raise OracleViolation("codegen_agreement", str(exc)) from exc


#: The oracle battery applicable to any solved allocation.
ALLOCATION_ORACLES: dict[str, Callable[[Allocation], None]] = {
    "flow_conservation": oracle_flow_conservation,
    "total_flow": oracle_total_flow,
    "split_lower_bounds": oracle_split_lower_bounds,
    "bank_assignment": oracle_bank_assignment,
    "optimality_certificate": oracle_optimality_certificate,
    "energy_agreement": oracle_energy_agreement,
}


def check_allocation(
    allocation: Allocation,
    oracles: tuple[str, ...] = tuple(ALLOCATION_ORACLES),
) -> list[Violation]:
    """Run the named oracles on *allocation*; return violations as data.

    Args:
        allocation: The solved instance to verify.
        oracles: Names from :data:`ALLOCATION_ORACLES` to run, in order.

    Returns:
        One :class:`Violation` per failed oracle (empty = fully verified).
    """
    violations: list[Violation] = []
    for name in oracles:
        try:
            ALLOCATION_ORACLES[name](allocation)
        except OracleViolation as exc:
            violations.append(Violation(oracle=name, message=str(exc)))
    return violations


def oracle_dag_reconciliation(
    report, require_certified: bool = False
) -> None:
    """Re-check a ``repro.dag/report/v1`` document's internal accounting.

    Independently of :mod:`repro.dag.report`, re-derives every roll-up
    from the raw entries:

    * each partition's energy equals the sum of its member blocks;
    * ``energy.blocks`` / ``energy.handoffs`` / ``energy.total`` equal
      the block sum, the handoff sum and their total respectively;
    * every block with batch provenance solved (``status == "ok"``) and
      its executor objective times the task rate equals the block's
      per-frame energy — i.e. the batch really solved the same instances
      the DVFS sweep priced;
    * the chosen makespan meets the deadline, and every frontier entry's
      ``meets_deadline`` flag is truthful.

    Args:
        report: A decoded ``repro.dag/report/v1`` document.
        require_certified: Also demand that every dispatched block
            carried a spot-checked optimality certificate.

    Raises:
        OracleViolation: Any reconciliation failure.
    """
    name = "dag_reconciliation"
    schema = report.get("schema")
    if schema != "repro.dag/report/v1":
        raise OracleViolation(name, f"unknown report schema {schema!r}")
    blocks = report.get("blocks", [])
    partitions = report.get("partitions", [])
    handoffs = report.get("handoffs", [])
    energy = report.get("energy", {})

    by_partition: dict = {}
    for block in blocks:
        by_partition.setdefault(block["partition"], 0.0)
        by_partition[block["partition"]] += float(block["energy"])
    for partition in partitions:
        expected = by_partition.get(partition["id"], 0.0)
        got = float(partition["energy"])
        if abs(got - expected) > _ENERGY_TOL * (1 + abs(expected)):
            raise OracleViolation(
                name,
                f"partition {partition['id']!r} energy {got} != sum of "
                f"its blocks {expected}",
            )
        members = set(partition["tasks"])
        listed = {
            b["task"] for b in blocks if b["partition"] == partition["id"]
        }
        if members != listed:
            raise OracleViolation(
                name,
                f"partition {partition['id']!r} lists tasks "
                f"{sorted(members)} but blocks cover {sorted(listed)}",
            )

    block_sum = sum(float(b["energy"]) for b in blocks)
    handoff_sum = sum(float(h["energy"]) for h in handoffs)
    for key, expected in (
        ("blocks", block_sum),
        ("handoffs", handoff_sum),
        ("total", block_sum + handoff_sum),
    ):
        got = float(energy.get(key, float("nan")))
        if not abs(got - expected) <= _ENERGY_TOL * (1 + abs(expected)):
            raise OracleViolation(
                name,
                f"energy.{key} = {got} does not reconcile with the "
                f"re-derived {expected}",
            )

    for block in blocks:
        job = block.get("job")
        if job is None:
            continue
        if job.get("status") != "ok":
            raise OracleViolation(
                name,
                f"block {block['task']!r} job {job.get('job_id')!r} has "
                f"status {job.get('status')!r}",
            )
        if require_certified and not job.get("certified"):
            raise OracleViolation(
                name,
                f"block {block['task']!r} solve carried no optimality "
                f"certificate",
            )
        objective = job.get("objective")
        if objective is None:
            raise OracleViolation(
                name, f"block {block['task']!r} job reports no objective"
            )
        expected = float(objective) * float(block.get("rate", 1))
        got = float(block["energy"])
        if abs(got - expected) > _ENERGY_TOL * (1 + abs(expected)):
            raise OracleViolation(
                name,
                f"block {block['task']!r} energy {got} != executor "
                f"objective x rate = {expected}",
            )

    deadline = float(report.get("deadline", float("inf")))
    makespan = float(report.get("makespan", float("nan")))
    if not makespan <= deadline:
        raise OracleViolation(
            name, f"makespan {makespan} exceeds the deadline {deadline}"
        )
    for point in report.get("frontier", []):
        flagged = bool(point.get("meets_deadline"))
        actual = float(point["makespan"]) <= deadline
        if flagged != actual:
            raise OracleViolation(
                name,
                f"frontier point {point.get('label')!r} claims "
                f"meets_deadline={flagged} but makespan "
                f"{point['makespan']} vs deadline {deadline} says {actual}",
            )
