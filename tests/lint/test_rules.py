"""Deliberately corrupted instances trigger exactly the intended rules.

One scenario per rule family RA1xx-RA5xx (plus individual rules where a
targeted corruption exists).  Corruptions bypass the constructors'
validation on purpose — the lint engine's whole job is to survive and
report instances the constructors would reject — via three techniques:

* mutating ``Schedule.start`` after construction (validation only runs
  in ``__post_init__``);
* swapping a corrupted ``Lifetime`` (built with ``object.__new__``)
  into the problem's lifetime dict after the problem validated;
* doctoring a ``LintContext`` with a mutated prebuilt network and
  invoking the rule body directly.
"""

from __future__ import annotations

from repro.core.network_builder import build_network
from repro.core.problem import AllocationProblem
from repro.energy import MemoryConfig, StaticEnergyModel
from repro.ir.basic_block import BasicBlock
from repro.ir.operations import OpCode, Operation
from repro.ir.values import DataVariable
from repro.lifetimes.intervals import Lifetime
from repro.lint import LintConfig, LintContext, Severity, get_rule, run_lint
from repro.scheduling.schedule import Schedule
from tests.conftest import make_lifetime
from tests.lint.facade_oracle import plant


def corrupt_lifetime(name, write, reads, live_out=False):
    """Build a Lifetime without running its validating constructor."""
    lifetime = object.__new__(Lifetime)
    object.__setattr__(lifetime, "variable", DataVariable(name, 16, ()))
    object.__setattr__(lifetime, "write_time", write)
    object.__setattr__(lifetime, "read_times", tuple(reads))
    object.__setattr__(lifetime, "live_out", live_out)
    return lifetime


def simple_problem(registers=2, horizon=5, **options):
    lifetimes = {
        "a": make_lifetime("a", 1, 4),
        "b": make_lifetime("b", 2, 5),
    }
    return AllocationProblem(lifetimes, registers, horizon, **options)


def scheduled_problem():
    block = BasicBlock.from_operations(
        "blk",
        [
            Operation("i0", OpCode.INPUT, output="a"),
            Operation("i1", OpCode.INPUT, output="b"),
            Operation("m", OpCode.MUL, inputs=("a", "b"), output="c", delay=2),
            Operation("n", OpCode.NEG, inputs=("c",), output="d"),
        ],
    )
    schedule = Schedule(block, {"i0": 1, "i1": 1, "m": 2, "n": 4})
    problem = AllocationProblem.from_schedule(schedule, register_count=2)
    return problem, schedule


def codes_of(problem, schedule=None, select=()):
    report = run_lint(
        problem, schedule=schedule, config=LintConfig(select=tuple(select))
    )
    assert "RA900" not in report.codes, report.summary()
    return report


# ----------------------------------------------------------------------
# RA1xx — schedule
# ----------------------------------------------------------------------
def test_ra101_use_before_def():
    problem, schedule = scheduled_problem()
    schedule.start["n"] = 2  # m writes c at the bottom of step 3
    # (the early start also shrinks the length, so RA105 would fire too)
    report = codes_of(problem, schedule, select=("RA101",))
    assert report.codes == ("RA101",)
    finding = report.diagnostics[0]
    assert finding.severity is Severity.ERROR
    assert finding.location.op == "n"
    assert finding.hint


def test_ra102_missing_operation():
    problem, schedule = scheduled_problem()
    del schedule.start["n"]
    report = codes_of(problem, schedule, select=("RA1",))
    # RA105 stays silent: the length is undefined with an op missing.
    assert report.codes == ("RA102",)


def test_ra103_unknown_operation():
    problem, schedule = scheduled_problem()
    schedule.start["ghost"] = 1
    report = codes_of(problem, schedule, select=("RA1",))
    assert report.codes == ("RA103",)


def test_ra104_nonpositive_step():
    problem, schedule = scheduled_problem()
    schedule.start["i0"] = 0
    report = codes_of(problem, schedule, select=("RA1",))
    assert "RA104" in report.codes


def test_ra105_horizon_mismatch():
    problem, schedule = scheduled_problem()
    schedule.start["n"] = 6  # length becomes 6, problem horizon stays 4
    report = codes_of(problem, schedule, select=("RA105",))
    assert report.codes == ("RA105",)


def test_schedule_rules_skip_without_schedule():
    report = codes_of(simple_problem(), schedule=None, select=("RA1",))
    assert report.codes == ()


# ----------------------------------------------------------------------
# RA2xx — lifetimes
# ----------------------------------------------------------------------
def test_ra201_zero_length_lifetime():
    problem = simple_problem()
    problem.lifetimes["a"] = corrupt_lifetime("a", 4, (2,))
    report = codes_of(problem, select=("RA2",))
    assert "RA201" in report.codes


def test_ra202_dead_write():
    problem = simple_problem()
    problem.lifetimes["a"] = corrupt_lifetime("a", 1, ())
    report = codes_of(problem, select=("RA2",))
    assert "RA202" in report.codes
    assert "RA201" not in report.codes  # no reads != inverted reads


def test_ra203_read_past_horizon():
    problem = simple_problem(horizon=5)
    problem.lifetimes["a"] = corrupt_lifetime("a", 1, (9,))
    report = codes_of(problem, select=("RA203",))
    assert report.codes == ("RA203",)


def test_ra204_key_mismatch():
    problem = simple_problem()
    problem.lifetimes["a"] = make_lifetime("z", 1, 4)
    report = codes_of(problem, select=("RA204",))
    assert report.codes == ("RA204",)
    assert report.diagnostics[0].location.variable == "z"


def test_ra205_broken_tiling():
    problem = simple_problem()
    segments = dict(problem.segments)  # force + copy the cache
    broken = list(segments["a"])
    object.__setattr__(broken[-1], "end", 3)  # lifetime of a ends at 4
    report = codes_of(problem, select=("RA205",))
    assert report.codes == ("RA205",)


def test_clean_instance_has_no_lifetime_findings():
    report = codes_of(simple_problem())
    assert report.codes == ()


# ----------------------------------------------------------------------
# RA3xx — restricted memory (section 5.2)
# ----------------------------------------------------------------------
def overloaded_problem(registers=1):
    lifetimes = {
        "u": make_lifetime("u", 2, 4),
        "v": make_lifetime("v", 2, 4),
        "w": make_lifetime("w", 1, 7),
    }
    return AllocationProblem(
        lifetimes,
        registers,
        6,
        memory=MemoryConfig(divisor=6, voltage=2.0, offset=1),
    )


def test_ra301_forced_density_exceeds_registers():
    report = codes_of(overloaded_problem(1), select=("RA301",))
    assert report.codes == ("RA301",)
    finding = report.diagnostics[0]
    assert finding.severity is Severity.ERROR
    assert "needs R >= 2" in finding.message


def test_ra301_silent_when_feasible():
    report = codes_of(overloaded_problem(2), select=("RA301",))
    assert report.codes == ()


def test_ra302_no_access_step_in_block():
    problem = simple_problem(
        memory=MemoryConfig(divisor=4, voltage=3.5, offset=50)
    )
    report = codes_of(problem, select=("RA302",))
    assert report.codes == ("RA302",)
    assert report.diagnostics[0].severity is Severity.WARNING


def test_ra303_unknown_pin():
    problem = simple_problem(
        forced_segments=frozenset({("ghost", 0), ("a", 99)})
    )
    report = codes_of(problem, select=("RA303",))
    assert [d.location.variable for d in report.diagnostics] == ["a", "ghost"]


def test_ra304_access_period_exceeds_block():
    problem = simple_problem(
        horizon=5, memory=MemoryConfig(divisor=9, voltage=3.5)
    )
    report = codes_of(problem, select=("RA304",))
    assert report.codes == ("RA304",)
    assert report.diagnostics[0].severity is Severity.NOTE


# ----------------------------------------------------------------------
# RA4xx — energy model
# ----------------------------------------------------------------------
class NegativeModel(StaticEnergyModel):
    """Model returning a physically impossible negative read energy."""

    def mem_read(self, variable):
        return -1.0


class RaisingModel(StaticEnergyModel):
    """Model that cannot cost any variable."""

    def mem_write(self, variable):
        raise ValueError("uncostable variable")


def test_ra401_negative_energy():
    problem = simple_problem(energy_model=NegativeModel())
    report = codes_of(problem, select=("RA401",))
    assert report.codes == ("RA401",)
    assert all(d.location.detail == "mem_read" for d in report.diagnostics)


def test_ra402_model_raises():
    problem = simple_problem(energy_model=RaisingModel())
    report = codes_of(problem, select=("RA402",))
    assert report.codes == ("RA402",)
    assert "uncostable" in report.diagnostics[0].message


def test_ra402_failure_also_fails_network_construction():
    problem = simple_problem(energy_model=RaisingModel())
    report = codes_of(problem)
    assert "RA402" in report.codes and "RA500" in report.codes


def test_ra403_supply_below_frequency():
    # At 2.0 V the CMOS delay factor is ~4.9x: far too slow for f/2.
    problem = simple_problem(memory=MemoryConfig(divisor=2, voltage=2.0))
    report = codes_of(problem, select=("RA403",))
    assert report.codes == ("RA403",)


def test_ra403_accepts_scaled_operating_points():
    problem = simple_problem(memory=MemoryConfig.scaled(2))
    report = codes_of(problem, select=("RA403",))
    assert report.codes == ()


def test_ra403_slack_is_configurable():
    problem = simple_problem(memory=MemoryConfig(divisor=2, voltage=2.0))
    config = LintConfig(
        select=("RA403",), options={"RA403": {"delay_slack": 10.0}}
    )
    assert run_lint(problem, config=config).codes == ()


def test_ra404_registers_never_beneficial():
    model = StaticEnergyModel().with_voltages(0.5, 5.0)
    problem = simple_problem(
        energy_model=model, memory=MemoryConfig(voltage=0.5)
    )
    report = codes_of(problem, select=("RA404",))
    assert report.codes == ("RA404",)
    assert report.diagnostics[0].severity is Severity.NOTE


def test_ra405_operating_point_mismatch():
    # Model charges memory at the nominal 5 V, memory runs at 3 V.
    problem = simple_problem(memory=MemoryConfig(divisor=3, voltage=3.0))
    report = codes_of(problem, select=("RA405",))
    assert report.codes == ("RA405",)


# ----------------------------------------------------------------------
# RA5xx — network structure
# ----------------------------------------------------------------------
def doctored_context(problem, built):
    """A LintContext whose cached network is the (mutated) *built*."""
    ctx = LintContext(problem)
    ctx.__dict__["_network_result"] = (built, None)
    return ctx


def test_ra500_network_construction_failure():
    problem = simple_problem(energy_model=RaisingModel())
    report = codes_of(problem, select=("RA500",))
    assert report.codes == ("RA500",)


def test_ra501_inverted_arc_bounds():
    problem = simple_problem()
    built = build_network(problem)
    arc = built.segment_arcs[("a", 0)]
    plant(built.network, arc.index, lower=arc.capacity + 1)
    ctx = doctored_context(problem, built)
    findings = list(get_rule("RA501").check(ctx))
    assert len(findings) == 1
    assert "exceeds capacity" in findings[0].message


def test_ra502_non_adjacent_handoff():
    lifetimes = {
        "a": make_lifetime("a", 1, 3),
        "b": make_lifetime("b", 4, 6),
    }
    problem = AllocationProblem(lifetimes, 1, 6, graph_style="adjacent")
    built = build_network(problem)
    handoffs = [
        arc
        for arc in built.network.arcs
        if isinstance(arc.data, tuple)
        and arc.data[0] == "handoff"
        and arc.data[1] is not None
        and arc.data[2] is not None
    ]
    assert handoffs, "expected at least one segment-to-segment handoff"
    ctx = doctored_context(problem, built)
    assert list(get_rule("RA502").check(ctx)) == []
    # Stretch the idle window of one handoff across the b density region.
    object.__setattr__(handoffs[0].data[2], "start", 6)
    findings = list(get_rule("RA502").check(ctx))
    assert findings and "maximum-density point" in findings[0].message


def test_ra503_unreachable_segment():
    problem = simple_problem()
    built = build_network(problem)
    arc = built.segment_arcs[("a", 0)]
    built.network.add_node(("orphan", "node"))
    plant(built.network, arc.index, tail=("orphan", "node"))
    ctx = doctored_context(problem, built)
    findings = list(get_rule("RA503").check(ctx))
    assert [f.location.variable for f in findings] == ["a"]


def test_ra504_insufficient_source_capacity():
    lifetimes = {"a": make_lifetime("a", 1, 3)}
    problem = AllocationProblem(
        lifetimes, 10, 4, allow_unused_registers=False
    )
    report = codes_of(problem, select=("RA504",))
    assert report.codes == ("RA504",)
    assert "R = 10" in report.diagnostics[0].message


def test_clean_network_has_no_ra5_findings():
    report = codes_of(simple_problem(), select=("RA5",))
    assert report.codes == ()


# ----------------------------------------------------------------------
# engine robustness
# ----------------------------------------------------------------------
def test_ra900_reported_when_a_rule_crashes():
    problem = simple_problem()
    entry = get_rule("RA101")

    def exploding(ctx):
        raise RuntimeError("boom")

    broken = type(entry)(
        code=entry.code,
        name=entry.name,
        severity=entry.severity,
        summary=entry.summary,
        check=exploding,
        hint=entry.hint,
    )
    import repro.lint.registry as registry

    original = registry._REGISTRY[entry.code]
    registry._REGISTRY[entry.code] = broken
    try:
        report = run_lint(
            problem,
            schedule=None,
            config=LintConfig(select=("RA101",)),
        )
    finally:
        registry._REGISTRY[entry.code] = original
    assert report.codes == ("RA900",)
    assert "boom" in report.diagnostics[0].message
