"""Command-line interface: ``repro-alloc``.

Subcommands:

* ``demo`` — allocate a built-in kernel and print the full pipeline
  summary;
* ``compare`` — flow allocator vs all baselines on a kernel;
* ``table1`` — the paper's table-1 sweep on the RSP application;
* ``figures`` — the figure-3 and figure-4 worked examples;
* ``chart`` — ASCII lifetime chart of a kernel's allocation;
* ``diagnose`` — feasibility analysis under a restricted memory;
* ``offsets`` — SOA/MOA offset assignment for the memory traffic;
* ``explore`` — design-space grid over register counts and memory
  operating points;
* ``lint`` — pre-solve static analysis of an instance: run the
  :mod:`repro.lint` rule set (RA1xx–RA6xx, including the dataflow /
  feasibility-proof family) over a paper example or kernel without
  solving, print text/JSON findings, optionally export SARIF 2.1.0, and
  exit non-zero at a configurable severity threshold (unknown
  ``--fail-on`` names fail closed as ``error``); ``--list-rules`` and
  ``--explain CODE`` document the rule set from the registry;
* ``profile`` — run the full pipeline on a workload under tracing and
  emit a run report (JSON by default) with per-stage wall times and
  solver counters (see :mod:`repro.obs`);
* ``fuzz`` — seeded differential fuzzing of the allocator: random
  instances through the oracle battery, solver cross-checks and baseline
  dominance, with greedy shrinking of any failure into a minimal
  reproducer (see :mod:`repro.verify`);
* ``dag`` — whole-application allocation: partition a registered task
  graph onto cores under a frame deadline, co-optimise a per-partition
  DVFS operating point (cheapest supply meeting the CMOS delay-slack
  relation within the deadline), fan the per-block flow solves out
  through the batch executor with certificates on, reconcile the
  roll-up with the ``dag_reconciliation`` oracle, and emit a versioned
  ``repro.dag/report/v1`` document (``--emit-manifest`` additionally
  writes the batch as a replayable v2 manifest; see :mod:`repro.dag`);
* ``batch`` — solve a manifest of instances through the batch service:
  canonical-form result cache (in-memory + optional on-disk), parallel
  workers with per-job timeouts, one exact solve per cache miss (a
  solver error fails its job and the command exits 1), emitting a
  versioned batch report and (``--sarif``) a merged multi-run SARIF log
  with one run per job (see :mod:`repro.service`);
* ``serve`` — run the long-lived allocation server: an HTTP gateway
  accepting manifest documents on ``POST /v1/batch`` (and lint-only
  submissions on ``POST /v1/lint``) with admission-time lint gating
  (provably-bad manifests rejected 422 with SARIF evidence before
  queueing), a bounded admission queue, per-client rate limiting,
  explicit 503 load shedding, a persistent result cache shared with
  ``batch --cache-dir``, warm-started sweep re-solves, ``/healthz`` +
  ``/metrics``, and graceful drain on SIGTERM (see
  :mod:`repro.service.server`).

Examples::

    repro-alloc demo --kernel fir --taps 8 --registers 4
    repro-alloc compare --kernel ewf --registers 6 --model activity
    repro-alloc table1
    repro-alloc lint fig3 --sarif fig3.sarif
    repro-alloc lint fir --divisor 2 --fail-on warning
    repro-alloc lint --explain RA601
    repro-alloc batch examples/manifests/paper.json --sarif batch.sarif
    repro-alloc profile fir --taps 8 -R 4
    repro-alloc profile ewf --format table
    repro-alloc fuzz --seed 0 --iters 100 -o fuzz-report.json
    repro-alloc batch examples/manifests/paper.json --workers 4
    repro-alloc dag diamond --cores 2 --slack 1.5 --format json
    repro-alloc dag fanin --emit-manifest out/fanin-batch
    repro-alloc serve --port 8713 --cache-dir serve-cache --rate 50
"""

from __future__ import annotations

import argparse
import random
import sys

from repro.analysis import compare_allocators, format_table, improvement_factor
from repro.baselines import two_phase_allocate
from repro.core import (
    AllocationProblem,
    SolveOptions,
    StorageSpec,
    allocate,
    allocate_block,
)
from repro.energy import (
    ActivityEnergyModel,
    MemoryConfig,
    PairwiseSwitchingModel,
    StaticEnergyModel,
)
from repro.energy.voltage import max_divisor_supply
from repro.exceptions import InfeasibleFlowError
from repro.ir.basic_block import BasicBlock
from repro.lifetimes import extract_lifetimes
from repro.scheduling import list_schedule
from repro.workloads import (
    FIGURE3_ACTIVITIES,
    FIGURE3_HORIZON,
    FIGURE4_ACTIVITIES,
    FIGURE4_HORIZON,
    figure3_lifetimes,
    figure4_lifetimes,
    rsp_schedule,
)
from repro.workloads.registry import (
    DAG_NAMES,
    KERNEL_NAMES,
    dag_workload,
    figure_example,
    kernel_block,
)

__all__ = ["main"]


def _kernel(args: argparse.Namespace) -> BasicBlock:
    """Build the kernel named by the parsed arguments (shared registry)."""
    return kernel_block(args.kernel, taps=args.taps, seed=args.seed)


def _write_output(path: str, text: str, what: str) -> int:
    """Write *text* to *path* (or stdout for ``-``); returns exit code.

    The shared output tail of every report-emitting subcommand (lint
    ``--sarif``, profile, fuzz, batch): file errors become a message on
    stderr and exit code 1 instead of a traceback.
    """
    if path and path != "-":
        try:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"cannot write {path}: {exc}", file=sys.stderr)
            return 1
        print(f"wrote {what} to {path}")
    else:
        sys.stdout.write(text)
    return 0


def _model(name: str):
    if name == "static":
        return StaticEnergyModel()
    return ActivityEnergyModel()


def _storage(args: argparse.Namespace) -> StorageSpec | None:
    """The storage hierarchy the ``--banks`` flag family describes.

    The flags describe an interleaved multi-bank memory (see
    :meth:`repro.core.StorageSpec.banked`); without ``--banks`` there is
    no storage override and solves stay on the classic two-level path.
    """
    if not args.banks:
        return None
    return StorageSpec.banked(
        args.banks,
        args.bank_period,
        ports=args.bank_ports,
        capacity=args.bank_capacity,
        stagger=not args.no_stagger,
    )


def _add_bank_flags(p: argparse.ArgumentParser) -> None:
    """The multi-bank storage flags shared by solving subcommands."""
    p.add_argument(
        "--banks",
        type=int,
        default=0,
        help="solve against an interleaved multi-bank memory with this "
        "many banks (0 = classic two-level model; default: 0)",
    )
    p.add_argument(
        "--bank-period",
        type=int,
        default=2,
        help="per-bank access period in control steps (default: 2)",
    )
    p.add_argument(
        "--bank-ports",
        type=int,
        default=None,
        help="per-bank port width (default: unlimited)",
    )
    p.add_argument(
        "--bank-capacity",
        type=int,
        default=None,
        help="per-bank location capacity (default: unbounded)",
    )
    p.add_argument(
        "--no-stagger",
        action="store_true",
        help="give all banks the same access offset instead of "
        "interleaving them across the period",
    )


def _cmd_demo(args: argparse.Namespace) -> int:
    block = _kernel(args)
    result = allocate_block(
        block,
        register_count=args.registers,
        options=SolveOptions(storage=_storage(args)),
    )
    print(result.summary())
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    block = _kernel(args)
    schedule = list_schedule(block)
    lifetimes = extract_lifetimes(schedule)
    comparison = compare_allocators(
        lifetimes,
        schedule.length,
        args.registers,
        _model(args.model),
    )
    print(comparison.format(title=f"{block.name} with R={args.registers}"))
    best = comparison.best_baseline()
    print(
        f"improvement over best baseline ({best.name}): "
        f"{improvement_factor(best, comparison.flow):.2f}x"
    )
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    schedule = rsp_schedule(rng=random.Random(args.seed))
    rows = []
    results = []
    for divisor in (1, 2, 4):
        voltage = round(max_divisor_supply(divisor), 2)
        model = ActivityEnergyModel().with_voltages(voltage, 5.0)
        problem = AllocationProblem.from_schedule(
            schedule,
            register_count=args.registers,
            energy_model=model,
            memory=MemoryConfig(divisor=divisor, voltage=voltage),
        )
        results.append((divisor, voltage, allocate(problem)))
    base = results[-1][2].objective
    for divisor, voltage, allocation in results:
        rows.append(
            (
                f"f/{divisor}",
                voltage,
                allocation.report.mem_accesses,
                allocation.report.reg_accesses,
                allocation.objective / base,
            )
        )
    print(
        format_table(
            ("memory freq", "supply V", "mem acc", "reg acc", "relative E"),
            rows,
            title="Table 1 — RSP application (activity model)",
        )
    )
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    for label, lifetimes, horizon, activities in (
        ("figure 3", figure3_lifetimes(), FIGURE3_HORIZON, FIGURE3_ACTIVITIES),
        ("figure 4", figure4_lifetimes(), FIGURE4_HORIZON, FIGURE4_ACTIVITIES),
    ):
        model = PairwiseSwitchingModel(activities)
        baseline = two_phase_allocate(
            lifetimes, horizon, 1, model,
            binding_style="all_pairs", partition_rule="max_switching",
        )
        problem = AllocationProblem(lifetimes, 1, horizon, energy_model=model)
        flow = allocate(problem)
        print(
            f"{label}: two-phase E={baseline.objective:.2f} "
            f"(mem accesses {baseline.report.mem_accesses}) vs "
            f"simultaneous E={flow.objective:.2f} "
            f"(mem accesses {flow.report.mem_accesses}) -> "
            f"{improvement_factor(baseline, flow):.2f}x"
        )
    return 0


def _cmd_chart(args: argparse.Namespace) -> int:
    from repro.analysis import allocation_chart
    from repro.core import allocate

    block = _kernel(args)
    schedule = list_schedule(block)
    problem = AllocationProblem.from_schedule(
        schedule, register_count=args.registers, energy_model=_model(args.model)
    )
    print(allocation_chart(allocate(problem)))
    return 0


def _cmd_diagnose(args: argparse.Namespace) -> int:
    from repro.core import diagnose

    block = _kernel(args)
    schedule = list_schedule(block)
    problem = AllocationProblem.from_schedule(
        schedule,
        register_count=args.registers,
        memory=MemoryConfig(
            divisor=args.divisor, voltage=max_divisor_supply(args.divisor)
        ),
    )
    report = diagnose(problem)
    print(report.summary())
    return 0 if report.feasible else 1


def _cmd_explore(args: argparse.Namespace) -> int:
    from repro.analysis import explore_design_space
    from repro.lifetimes import max_density

    block = _kernel(args)
    schedule = list_schedule(block)
    lifetimes = extract_lifetimes(schedule)
    density = max_density(lifetimes.values(), schedule.length)
    registers = sorted(
        {max(1, density // 4), max(1, density // 2), density}
    )
    if args.banks:
        from repro.analysis import banked_grid, explore_storage_space

        grid = banked_grid(
            bank_counts=range(1, args.banks + 1),
            periods=sorted({1, args.bank_period}),
            port_widths=(
                (None,)
                if args.bank_ports is None
                else (None, args.bank_ports)
            ),
            capacity=args.bank_capacity,
            stagger=not args.no_stagger,
        )
        result = explore_storage_space(
            lifetimes,
            schedule.length,
            register_counts=registers,
            storage_specs=grid,
            energy_model=_model(args.model),
        )
        print(result.format())
        best = result.best()
        print(f"best point: {best.label()} at energy {best.energy:.1f}")
        return 0
    configs = [
        MemoryConfig(
            divisor=d, voltage=round(max_divisor_supply(d), 2)
        )
        for d in (1, 2, 4)
    ]
    result = explore_design_space(
        lifetimes,
        schedule.length,
        register_counts=registers,
        memory_configs=configs,
        energy_model=_model(args.model),
    )
    print(result.format())
    best = result.best()
    print(f"best point: {best.label()} at energy {best.energy:.1f}")
    frontier = ", ".join(p.label() for p in result.pareto_frontier())
    print(f"pareto frontier (locations vs energy): {frontier}")
    return 0


def _cmd_offsets(args: argparse.Namespace) -> int:
    from repro.core import allocate
    from repro.moa import (
        access_sequence,
        moa_assign,
        sequence_cost,
        soa_liao,
        soa_naive,
    )

    block = _kernel(args)
    schedule = list_schedule(block)
    problem = AllocationProblem.from_schedule(
        schedule, register_count=args.registers, energy_model=_model(args.model)
    )
    sequence = access_sequence(allocate(problem))
    if not sequence:
        print("no memory traffic: nothing to assign")
        return 0
    naive = sequence_cost(sequence, soa_naive(sequence))
    liao = sequence_cost(sequence, soa_liao(sequence))
    print(f"access sequence ({len(sequence)} accesses): {' '.join(sequence)}")
    print(f"AR update cost: naive {naive:.2f}, Liao SOA {liao:.2f}")
    for k in (2, 4):
        result = moa_assign(sequence, k)
        print(f"MOA with {k} address registers: {result.cost:.2f}")
    return 0


#: Lintable workloads: the paper's worked examples (pre-built lifetime
#: sets, no schedule), every synthesised kernel (scheduled, so the
#: RA1xx schedule rules participate), and the registered task graphs
#: (linted per task, findings merged).
_LINT_WORKLOADS = (
    "fig1",
    "fig3",
    "fig4",
    "fir",
    "iir",
    "ewf",
    "dct",
    "rsp",
    "random",
) + DAG_NAMES


def _lint_target(args: argparse.Namespace):
    """Build the (problem, schedule, label) triple the lint run analyses."""
    from repro.lifetimes import max_density

    memory = MemoryConfig()
    model = _model(args.model)
    if args.divisor > 1:
        memory = MemoryConfig.scaled(args.divisor)
        # Keep the energy model at the same operating point as the
        # memory so RA405 checks the user's instance, not our defaults.
        model = model.with_voltages(memory.voltage, model.reg_voltage)

    if args.workload in ("fig1", "fig3", "fig4"):
        lifetimes, horizon, activities = figure_example(args.workload)
        if activities is not None:
            model = PairwiseSwitchingModel(activities)
            if args.divisor > 1:
                model = model.with_voltages(memory.voltage, model.reg_voltage)
        registers = args.registers
        if registers is None:
            registers = max_density(lifetimes.values(), horizon)
        problem = AllocationProblem(
            lifetimes,
            registers,
            horizon,
            energy_model=model,
            memory=memory,
        )
        return problem, None, f"{args.workload} (R={registers})"

    args.kernel = args.workload
    block = _kernel(args)
    schedule = list_schedule(block)
    registers = args.registers
    if registers is None:
        lifetimes = extract_lifetimes(schedule)
        registers = max_density(lifetimes.values(), schedule.length)
    problem = AllocationProblem.from_schedule(
        schedule,
        register_count=registers,
        energy_model=model,
        memory=memory,
    )
    return problem, schedule, f"{block.name} (R={registers})"


def _lint_dag(args: argparse.Namespace, config, threshold) -> int:
    """Lint every task of a registered task graph; merge the findings.

    One lint run per task (each task's block is scheduled, so the
    schedule-aware rules participate), rendered sequentially in text
    mode, as a task-name-keyed object in JSON mode, and as one
    multi-run SARIF log under ``--sarif``.
    """
    import json as _json

    from repro.lifetimes import max_density
    from repro.lint import render_text, report_to_json, run_lint
    from repro.lint.sarif import merged_sarif_to_json

    graph = dag_workload(args.workload, seed=args.seed)
    memory = MemoryConfig()
    model = _model(args.model)
    if args.divisor > 1:
        memory = MemoryConfig.scaled(args.divisor)
        model = model.with_voltages(memory.voltage, model.reg_voltage)
    order = graph.topological_order()
    assert order is not None  # registry graphs are acyclic
    entries = []
    texts = []
    json_runs: dict[str, object] = {}
    failed = False
    for task in order:
        schedule = list_schedule(task.block)
        registers = args.registers
        if registers is None:
            lifetimes = extract_lifetimes(schedule)
            registers = max_density(lifetimes.values(), schedule.length)
        problem = AllocationProblem.from_schedule(
            schedule,
            register_count=registers,
            energy_model=model,
            memory=memory,
        )
        report = run_lint(problem, schedule=schedule, config=config)
        label = f"{args.workload}:{task.name} (R={registers})"
        entries.append((report, {"task": task.name}))
        texts.append(render_text(report, title=f"lint {label}"))
        json_runs[task.name] = _json.loads(report_to_json(report))
        if threshold is not None and report.at_least(threshold):
            failed = True
    if args.format == "json":
        sys.stdout.write(
            _json.dumps(json_runs, indent=2, sort_keys=True) + "\n"
        )
    else:
        sys.stdout.write("".join(texts))
    if args.sarif:
        code = _write_output(
            args.sarif, merged_sarif_to_json(entries), "merged SARIF report"
        )
        if code:
            return code
    return 1 if failed else 0


def _lint_options(items) -> "tuple[dict[str, dict[str, object]], str | None]":
    """Parse repeated ``--option CODE.key=value`` flags.

    Values parse as JSON scalars when possible (so ``0.1`` is a float)
    and fall back to the raw string.  Returns ``(options, error)``.
    """
    import json as _json

    options: dict[str, dict[str, object]] = {}
    for item in items or ():
        spec, sep, raw = item.partition("=")
        code, dot, key = spec.partition(".")
        if not sep or not dot or not code or not key:
            return {}, f"bad --option {item!r} (want CODE.key=value)"
        try:
            value: object = _json.loads(raw)
        except ValueError:
            value = raw
        options.setdefault(code.upper(), {})[key] = value
    return options, None


def _fail_on_threshold(name: str):
    """Coerce a ``--fail-on`` value, warning (stderr) on unknown names.

    Unknown severities fail *closed* to ``error`` — a typo must tighten
    the gate, never silently disable it.  Returns ``None`` for
    ``"never"``.
    """
    from repro.lint import Severity

    if name == "never":
        return None
    threshold = Severity.coerce(name)
    if name.lower() not in ("error", "warning", "note"):
        print(
            f"warning: unknown --fail-on severity {name!r}; "
            f"failing closed to 'error'",
            file=sys.stderr,
        )
    return threshold


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.exceptions import ReproError
    from repro.lint import (
        LintConfig,
        describe_rules,
        explain_rule,
        render_text,
        report_to_json,
        run_lint,
        sarif_to_json,
    )

    if args.list_rules:
        sys.stdout.write(describe_rules() + "\n")
        return 0
    if args.explain:
        try:
            sys.stdout.write(explain_rule(args.explain) + "\n")
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return 0
    options, error = _lint_options(args.option)
    if error:
        print(error, file=sys.stderr)
        return 2
    config = LintConfig(
        select=tuple(p for p in (args.select or "").split(",") if p),
        ignore=tuple(p for p in (args.ignore or "").split(",") if p),
        options=options,
    )
    if args.workload in DAG_NAMES:
        return _lint_dag(args, config, _fail_on_threshold(args.fail_on))
    problem, schedule, label = _lint_target(args)
    report = run_lint(problem, schedule=schedule, config=config)
    if args.format == "json":
        sys.stdout.write(report_to_json(report))
    else:
        sys.stdout.write(render_text(report, title=f"lint {label}"))
    if args.sarif:
        code = _write_output(args.sarif, sarif_to_json(report), "SARIF report")
        if code:
            return code
    threshold = _fail_on_threshold(args.fail_on)
    if threshold is None:
        return 0
    return 1 if report.at_least(threshold) else 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.obs import format_report, profile_block, report_to_csv, report_to_json

    if args.kernel in DAG_NAMES:
        import time

        from repro.core.task_pipeline import allocate_task_graph
        from repro.obs import build_report, collect

        graph = dag_workload(args.kernel, seed=args.seed)
        start = time.perf_counter()
        with collect() as trace:
            result = allocate_task_graph(
                graph,
                register_count=args.registers,
                energy_model=_model(args.model),
            )
            obs_gauge_energy = result.energy_per_frame
        report = build_report(
            workload=args.kernel,
            trace=trace,
            wall_time_s=time.perf_counter() - start,
            params={
                "workload": args.kernel,
                "tasks": len(graph),
                "registers": args.registers,
                "seed": args.seed,
                "model": args.model,
                "energy_per_frame": obs_gauge_energy,
            },
        )
        if args.format == "table":
            text = format_report(report) + "\n"
        elif args.format == "csv":
            text = report_to_csv(report)
        else:
            text = report_to_json(report)
        return _write_output(args.output, text, f"{args.format} run report")

    block = _kernel(args)
    report = profile_block(
        block,
        register_count=args.registers,
        energy_model=_model(args.model),
        workload=args.kernel,
        params={
            "kernel": args.kernel,
            "registers": args.registers,
            "taps": args.taps,
            "seed": args.seed,
            "model": args.model,
        },
    )
    if args.format == "table":
        text = format_report(report) + "\n"
    elif args.format == "csv":
        text = report_to_csv(report)
    else:
        text = report_to_json(report)
    return _write_output(args.output, text, f"{args.format} run report")


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.verify import render_report, run_fuzz

    try:
        report = run_fuzz(
            args.seed,
            args.iters,
            shrink=not args.no_shrink,
            family=args.family,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = render_report(report)
    code = _write_output(args.output, text, "fuzz report")
    if code:
        return code
    statuses = report["statuses"]
    summary = (
        f"fuzz: {report['iterations']} cases, {statuses['ok']} ok, "
        f"{statuses['infeasible']} infeasible, "
        f"{statuses['violation']} violations (seed {args.seed})"
    )
    print(summary, file=sys.stderr)
    return 1 if statuses["violation"] else 0


def _cmd_dag(args: argparse.Namespace) -> int:
    from repro.dag import (
        build_dag_report,
        build_jobs,
        dispatch_blocks,
        emit_manifest,
        partition_graph,
        plan_handoffs,
        render_dag_text,
        report_to_json,
        sweep_operating_points,
    )
    from repro.exceptions import DagError, WorkloadError
    from repro.obs import collect
    from repro.verify import OracleViolation, oracle_dag_reconciliation

    try:
        graph = dag_workload(args.workload, seed=args.seed)
    except WorkloadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    model = _model(args.model)
    certify = not args.no_certify
    with collect():
        try:
            plan = partition_graph(
                graph,
                cores=args.cores,
                deadline=args.deadline,
                slack=args.slack,
                energy_model=model,
            )
            handoffs = plan_handoffs(plan, energy_model=model)
            selection = sweep_operating_points(
                plan,
                register_count=args.registers,
                energy_model=model,
                handoff_energy=sum(h.energy for h in handoffs),
            )
            jobs = build_jobs(
                plan, selection, register_count=args.registers,
                energy_model=model,
            )
            results = dispatch_blocks(
                jobs,
                workers=args.workers,
                certify_fraction=1.0 if certify else 0.0,
            )
        except DagError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    report = build_dag_report(
        plan, selection, handoffs, results, register_count=args.registers
    )
    try:
        oracle_dag_reconciliation(report, require_certified=certify)
    except OracleViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.emit_manifest:
        manifest_path = emit_manifest(
            jobs, args.emit_manifest, graph_name=graph.name
        )
        print(f"wrote batch manifest to {manifest_path}", file=sys.stderr)
    text = (
        report_to_json(report)
        if args.format == "json"
        else render_dag_text(report)
    )
    return _write_output(args.output, text, "dag report")


def _cmd_batch(args: argparse.Namespace) -> int:
    import time

    from repro.exceptions import ServiceError
    from repro.service import (
        BatchExecutor,
        ResultCache,
        build_batch_report,
        load_manifest,
        render_batch_text,
        report_to_json,
    )

    try:
        manifest = load_manifest(args.manifest)
        workloads = manifest.build()
        cache = None
        if not args.no_cache:
            cache = ResultCache(directory=args.cache_dir)
        # --sarif needs verdicts for every job, so an admission gate
        # runs even with lint gating off ("never" reports, never blocks).
        lint_gate = None
        if args.sarif is not None or args.lint is not None:
            from repro.service.lintgate import LintGate

            lint_gate = LintGate(cache=cache, fail_on=args.lint or "never")
        executor = BatchExecutor(
            workers=args.workers,
            cache=cache,
            timeout=args.timeout,
            lint_gate=lint_gate,
            certify_fraction=args.certify_fraction,
            seed=args.seed,
            storage=_storage(args),
        )
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    results = executor.map_blocks(
        [w.problem for w in workloads],
        ids=[w.label for w in workloads],
        schedules=[w.schedule for w in workloads],
    )
    wall = time.perf_counter() - start
    if args.sarif is not None:
        from repro.lint.sarif import merged_sarif_to_json

        sarif_text = merged_sarif_to_json(
            (v.report, v.run_properties()) for v in executor.lint_verdicts
        )
        code = _write_output(args.sarif, sarif_text, "merged SARIF report")
        if code:
            return code
    report = build_batch_report(
        results,
        cache=cache,
        wall_time_s=wall,
        workers=args.workers,
        manifest=str(args.manifest),
    )
    if args.format == "text":
        text = render_batch_text(report)
    else:
        text = report_to_json(report)
    code = _write_output(args.output, text, "batch report")
    if code:
        return code
    totals = report["totals"]
    print(
        f"batch: {totals['jobs']} jobs, {totals['ok']} ok, "
        f"{totals['failed']} failed, {totals['timeout']} timeout, "
        f"{totals['rejected']} rejected, "
        f"{totals['cached']} cache-served in {wall:.2f}s",
        file=sys.stderr,
    )
    return (
        1
        if totals["failed"] or totals["timeout"] or totals["rejected"]
        else 0
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.exceptions import ServiceError
    from repro.service.server import ServerConfig, serve

    try:
        config = ServerConfig(
            host=args.host,
            port=args.port,
            queue_capacity=args.queue_capacity,
            rate=args.rate,
            burst=args.burst,
            workers=args.workers,
            cache_dir=args.cache_dir,
            timeout=args.timeout,
            admission_lint=(
                None
                if args.admission_lint == "off"
                else args.admission_lint
            ),
            drain_grace=args.drain_grace,
        )
        return serve(config)
    except (ServiceError, OSError) as exc:
        # Bad tunables or an unbindable address: explain, don't traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point of the ``repro-alloc`` console script."""
    parser = argparse.ArgumentParser(
        prog="repro-alloc",
        description="Low energy memory and register allocation "
        "(Gebotys, DAC 1997 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--kernel", choices=KERNEL_NAMES, default="fir")
        p.add_argument("--taps", type=int, default=8)
        p.add_argument("--registers", "-R", type=int, default=4)
        p.add_argument("--seed", type=int, default=2024)
        p.add_argument(
            "--model", choices=("static", "activity"), default="static"
        )

    demo = sub.add_parser("demo", help="allocate a kernel, print summary")
    add_common(demo)
    _add_bank_flags(demo)
    demo.set_defaults(func=_cmd_demo)

    compare = sub.add_parser("compare", help="flow vs baselines")
    add_common(compare)
    compare.set_defaults(func=_cmd_compare)

    table1 = sub.add_parser("table1", help="the paper's table-1 sweep")
    table1.add_argument("--registers", "-R", type=int, default=16)
    table1.add_argument("--seed", type=int, default=2024)
    table1.set_defaults(func=_cmd_table1)

    figures = sub.add_parser("figures", help="figure 3 / figure 4 examples")
    figures.set_defaults(func=_cmd_figures)

    chart = sub.add_parser("chart", help="ASCII lifetime chart")
    add_common(chart)
    chart.set_defaults(func=_cmd_chart)

    diagnose_cmd = sub.add_parser(
        "diagnose", help="feasibility under restricted memory"
    )
    add_common(diagnose_cmd)
    diagnose_cmd.add_argument("--divisor", type=int, default=2)
    diagnose_cmd.set_defaults(func=_cmd_diagnose)

    lint = sub.add_parser(
        "lint",
        help="pre-solve static analysis (rule codes RA1xx-RA6xx)",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print every registered rule (code, severity, summary, "
        "options) and exit",
    )
    lint.add_argument(
        "--explain",
        metavar="CODE",
        default=None,
        help="print the full documentation of one rule (e.g. RA601) "
        "and exit",
    )
    lint.add_argument(
        "--option",
        action="append",
        metavar="CODE.key=value",
        help="set a per-rule option, e.g. RA604.tolerance=1e-6 "
        "(repeatable)",
    )
    lint.add_argument(
        "workload",
        nargs="?",
        choices=_LINT_WORKLOADS,
        default="fig3",
        help="paper example or kernel to analyse (default: fig3)",
    )
    lint.add_argument(
        "--registers",
        "-R",
        type=int,
        default=None,
        help="register count R (default: the instance's maximum density)",
    )
    lint.add_argument(
        "--divisor",
        type=int,
        default=1,
        help="memory frequency divisor (restricted access times, sec 5.2)",
    )
    lint.add_argument("--taps", type=int, default=8)
    lint.add_argument("--seed", type=int, default=2024)
    lint.add_argument(
        "--model", choices=("static", "activity"), default="static"
    )
    lint.add_argument(
        "--select",
        default="",
        help="comma-separated rule-code prefixes to run (e.g. RA3,RA501)",
    )
    lint.add_argument(
        "--ignore",
        default="",
        help="comma-separated rule-code prefixes to skip",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="findings format on stdout (default: text)",
    )
    lint.add_argument(
        "--sarif",
        metavar="PATH",
        default=None,
        help="also write a SARIF 2.1.0 report to PATH",
    )
    lint.add_argument(
        "--fail-on",
        default="error",
        help="exit 1 when findings reach this severity: error, warning, "
        "note, or never; unknown names fail closed as error "
        "(default: error)",
    )
    lint.set_defaults(func=_cmd_lint)

    offsets = sub.add_parser("offsets", help="SOA/MOA offset assignment")
    add_common(offsets)
    offsets.set_defaults(func=_cmd_offsets)

    explore = sub.add_parser(
        "explore",
        help="design-space grid (R x memory operating point, or with "
        "--banks a bank count x period x port width storage sweep)",
    )
    add_common(explore)
    _add_bank_flags(explore)
    explore.set_defaults(func=_cmd_explore)

    profile = sub.add_parser(
        "profile",
        help="run a workload under tracing, emit a run report",
    )
    profile.add_argument(
        "kernel",
        nargs="?",
        choices=KERNEL_NAMES + DAG_NAMES,
        default="fir",
        help="workload to profile: a kernel, or a registered task "
        "graph traced through the whole-application pipeline "
        "(default: the quickstart fir kernel)",
    )
    profile.add_argument("--taps", type=int, default=8)
    profile.add_argument("--registers", "-R", type=int, default=4)
    profile.add_argument("--seed", type=int, default=2024)
    profile.add_argument(
        "--model", choices=("static", "activity"), default="static"
    )
    profile.add_argument(
        "--format",
        choices=("json", "table", "csv"),
        default="json",
        help="report format (default: json)",
    )
    profile.add_argument(
        "--output",
        "-o",
        default="-",
        help="write the report to a file instead of stdout",
    )
    profile.set_defaults(func=_cmd_profile)

    fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing with oracle checks and shrinking",
    )
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument(
        "--iters", "-n", type=int, default=100, help="number of fuzz cases"
    )
    fuzz.add_argument(
        "--family",
        choices=("classic", "banked", "dag"),
        default="classic",
        help="case family: classic two-level draws, multi-bank "
        "conflict draws (bank counts x port widths x access periods), "
        "or whole task-graph pipeline runs checked by the report "
        "reconciliation oracle (default: classic)",
    )
    fuzz.add_argument(
        "--no-shrink",
        action="store_true",
        help="report failures without minimising them",
    )
    fuzz.add_argument(
        "--output",
        "-o",
        default="-",
        help="write the fuzz report JSON to a file instead of stdout",
    )
    fuzz.set_defaults(func=_cmd_fuzz)

    dag = sub.add_parser(
        "dag",
        help="task-graph partitioning + per-partition DVFS, fanned out "
        "through the batch executor",
    )
    dag.add_argument(
        "workload",
        nargs="?",
        choices=DAG_NAMES,
        default="diamond",
        help="registered task graph to allocate (default: diamond)",
    )
    dag.add_argument(
        "--cores",
        type=int,
        default=2,
        help="cores the partitions may occupy (default: 2)",
    )
    dag.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="frame makespan bound in control steps (default: nominal "
        "makespan x --slack)",
    )
    dag.add_argument(
        "--slack",
        type=float,
        default=1.5,
        help="deadline multiplier when --deadline is omitted: the "
        "headroom DVFS converts into voltage scaling (default: 1.5)",
    )
    dag.add_argument("--registers", "-R", type=int, default=4)
    dag.add_argument("--seed", type=int, default=2024)
    dag.add_argument(
        "--model", choices=("static", "activity"), default="static"
    )
    dag.add_argument(
        "--workers",
        type=int,
        default=1,
        help="batch-executor worker processes (default: 1)",
    )
    dag.add_argument(
        "--no-certify",
        action="store_true",
        help="skip the per-block optimality-certificate spot checks",
    )
    dag.add_argument(
        "--emit-manifest",
        metavar="DIR",
        default=None,
        help="also write the per-block batch as a v2 manifest + "
        "instance files under DIR (replayable via 'repro-alloc batch')",
    )
    dag.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format on stdout (default: text)",
    )
    dag.add_argument(
        "--output",
        "-o",
        default="-",
        help="write the report to a file instead of stdout",
    )
    dag.set_defaults(func=_cmd_dag)

    batch = sub.add_parser(
        "batch",
        help="solve a manifest of instances through the cache + "
        "parallel executor",
    )
    batch.add_argument(
        "manifest",
        help="path to a repro.service/manifest/v1 JSON document",
    )
    batch.add_argument(
        "--workers",
        "-j",
        type=int,
        default=1,
        help="worker processes (1 = solve in-process; default: 1)",
    )
    batch.add_argument(
        "--cache-dir",
        default=None,
        help="on-disk result cache directory (shared between runs)",
    )
    batch.add_argument(
        "--no-cache",
        action="store_true",
        help="disable result caching entirely",
    )
    batch.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-job time budget in seconds (needs --workers > 1): a "
        "worker past its chunk's deadline (timeout x jobs in the chunk) "
        "is killed and replaced, and only a job late on its own ends "
        "'timeout'",
    )
    batch.add_argument(
        "--lint",
        default=None,
        help="admission lint gate severity per job: error, warning, "
        "note or never; blocked jobs report status 'rejected' without "
        "solving; unknown names fail closed as error (default: off)",
    )
    batch.add_argument(
        "--sarif",
        metavar="PATH",
        default=None,
        help="write a merged SARIF 2.1.0 log to PATH with one run per "
        "job (lints every job even when --lint is off)",
    )
    batch.add_argument(
        "--certify-fraction",
        type=float,
        default=0.0,
        help="fraction of jobs whose optimality certificate is "
        "spot-checked (seeded sample; default: 0)",
    )
    batch.add_argument("--seed", type=int, default=0)
    _add_bank_flags(batch)
    batch.add_argument(
        "--format",
        choices=("json", "text"),
        default="json",
        help="batch report format (default: json)",
    )
    batch.add_argument(
        "--output",
        "-o",
        default="-",
        help="write the batch report to a file instead of stdout",
    )
    batch.set_defaults(func=_cmd_batch)

    serve_cmd = sub.add_parser(
        "serve",
        help="run the long-lived allocation server (HTTP gateway over "
        "the batch executor)",
    )
    serve_cmd.add_argument(
        "--host",
        default="127.0.0.1",
        help="listen address (default: 127.0.0.1)",
    )
    serve_cmd.add_argument(
        "--port",
        type=int,
        default=8713,
        help="listen port; 0 picks a free one (default: 8713)",
    )
    serve_cmd.add_argument(
        "--queue-capacity",
        type=int,
        default=64,
        help="admission queue bound in jobs; overflow sheds with 503, "
        "a batch or lint request larger than the whole queue gets 413 "
        "(default: 64)",
    )
    serve_cmd.add_argument(
        "--rate",
        type=float,
        default=None,
        help="per-client sustained admission rate in jobs/second "
        "(default: unlimited)",
    )
    serve_cmd.add_argument(
        "--burst",
        type=float,
        default=None,
        help="per-client burst allowance in jobs (default: max(rate, 1))",
    )
    serve_cmd.add_argument(
        "--workers",
        "-j",
        type=int,
        default=1,
        help="executor worker processes; 1 solves in-process and keeps "
        "the warm-start cache hot; more fork one pool at the first "
        "request that every later request reuses (default: 1)",
    )
    serve_cmd.add_argument(
        "--cache-dir",
        default=None,
        help="on-disk result cache directory, shared with batch "
        "--cache-dir (default: in-memory cache only)",
    )
    serve_cmd.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-job time budget in seconds (needs --workers > 1): a "
        "worker past its chunk's deadline (timeout x jobs in the chunk) "
        "is killed and replaced, and only a job late on its own ends "
        "'timeout'",
    )
    serve_cmd.add_argument(
        "--admission-lint",
        default="error",
        help="admission-time lint gate threshold: error, warning, note, "
        "never (lint without rejecting) or off (disable); provably-bad "
        "manifests are rejected 422 with a SARIF body before queueing; "
        "unknown names fail closed as error (default: error)",
    )
    serve_cmd.add_argument(
        "--drain-grace",
        type=float,
        default=60.0,
        help="seconds to wait for in-flight work on shutdown "
        "(default: 60)",
    )
    serve_cmd.set_defaults(func=_cmd_serve)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:  # e.g. piping into `head`
        return 0
    except InfeasibleFlowError as exc:
        # Any solving subcommand can hit an infeasible instance (e.g. a
        # table1/explore sweep at a too-small R under restricted access
        # times).  Explain the overload instead of dumping a traceback.
        print(f"error: {exc}", file=sys.stderr)
        if exc.problem is not None:
            from repro.core import diagnose

            print(diagnose(exc.problem).summary(), file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
