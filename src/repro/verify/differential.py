"""Differential solver cross-checking and baseline dominance.

Two independent agreement checks back the paper's central optimality
claim:

* :func:`cross_check` solves a network with the production
  successive-shortest-path kernel, checks that flow with the
  validators and the optimality certificate
  (:mod:`repro.verify.certificates`), and, when scipy is present,
  compares its objective with the section-4 LP relaxation — or asserts
  that both agree the instance is infeasible.  The LP also witnesses the
  integrality property: its fractional optimum must equal the integral
  one.  Without scipy the certificate is the only independent check, and
  an infeasibility verdict of the kernel goes unconfirmed.
* :func:`baseline_dominance` re-runs every prior-art baseline on the
  instance and asserts the flow-optimal allocation dominates or ties
  each of them on modeled energy (on unrestricted memory, every baseline
  partition is a feasible point of the flow formulation, so a loss would
  disprove optimality).

Both return plain-data outcomes the fuzz harness serialises directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Mapping

from repro.baselines.chang_pedram import chang_pedram_binding
from repro.baselines.common import build_result
from repro.baselines.graph_coloring import graph_coloring_allocate
from repro.baselines.greedy_partition import greedy_partition_allocate
from repro.baselines.left_edge import left_edge_allocate
from repro.baselines.two_phase import two_phase_allocate
from repro.core.allocation import Allocation
from repro.exceptions import InfeasibleFlowError, ReproError
from repro.flow.graph import FlowNetwork
from repro.flow.lower_bounds import solve as ssp_solve
from repro.flow.lp_check import lp_min_cost
from repro.flow.validate import FlowValidationError, check_flow
from repro.lifetimes.intervals import max_density
from repro.verify.certificates import CertificateError, certify_flow

__all__ = [
    "DifferentialMismatch",
    "CrossCheckOutcome",
    "DominanceOutcome",
    "cross_check",
    "baseline_dominance",
    "BASELINE_RUNNERS",
]

#: Absolute-plus-relative tolerance for objective agreement.
_COST_TOL = 1e-6


class DifferentialMismatch(ReproError):
    """Two independent solution methods disagreed on the same instance."""


@dataclass
class CrossCheckOutcome:
    """Agreement record of one multi-solver run.

    Attributes:
        costs: Objective value per solver that found a solution.
        infeasible: Solvers that reported the instance infeasible.
        skipped: Solvers not run (e.g. LP without scipy).
        agreed: Whether every run solver agreed (costs within tolerance,
            or unanimous infeasibility) and the kernel's flow passed
            validation and certification.
        spread: Largest pairwise objective difference observed.
        message: Human-readable diagnosis when ``agreed`` is ``False``.
    """

    costs: dict[str, float] = field(default_factory=dict)
    infeasible: list[str] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)
    agreed: bool = True
    spread: float = 0.0
    message: str = ""

    def to_dict(self) -> dict:
        """JSON-ready view of the outcome."""
        return {
            "costs": dict(self.costs),
            "infeasible": list(self.infeasible),
            "skipped": list(self.skipped),
            "agreed": self.agreed,
            "spread": self.spread,
            "message": self.message,
        }


def _lp_available() -> bool:
    """Whether scipy's LP backend can be imported."""
    try:
        import scipy.optimize  # noqa: F401
    except ImportError:
        return False
    return True


def cross_check(
    network: FlowNetwork,
    source: Hashable,
    sink: Hashable,
    flow_value: int,
    tolerance: float = _COST_TOL,
) -> CrossCheckOutcome:
    """Solve one network with the kernel; certify it and compare the LP.

    Args:
        network: The instance (lower-bounded arcs allowed).
        source: Source node.
        sink: Sink node.
        flow_value: Fixed source→sink flow value.
        tolerance: Absolute-plus-relative objective agreement slack.

    Returns:
        The populated :class:`CrossCheckOutcome` (never raises on
        disagreement — callers decide; see
        :meth:`CrossCheckOutcome.to_dict` and ``agreed``).  A kernel
        flow that fails validation or certification is a disagreement
        whose ``message`` carries the error.  The LP runs whenever scipy
        imports; otherwise ``"lp"`` is listed in ``skipped``.
    """
    outcome = CrossCheckOutcome()
    problems: list[str] = []

    try:
        result = ssp_solve(network, source, sink, flow_value)
    except InfeasibleFlowError:
        outcome.infeasible.append("ssp")
    else:
        outcome.costs["ssp"] = result.cost
        try:
            check_flow(result, source, sink, flow_value)
            certify_flow(result)
        except (FlowValidationError, CertificateError) as exc:
            problems.append(f"ssp flow failed its check: {exc}")

    if _lp_available():
        try:
            outcome.costs["lp"] = lp_min_cost(
                network, source, sink, flow_value
            )
        except InfeasibleFlowError:
            outcome.infeasible.append("lp")
    else:
        outcome.skipped.append("lp")

    if outcome.costs and outcome.infeasible:
        problems.append(
            f"feasibility disagreement: {sorted(outcome.costs)} solved, "
            f"{outcome.infeasible} reported infeasible"
        )
    elif outcome.costs:
        values = sorted(outcome.costs.values())
        outcome.spread = values[-1] - values[0]
        scale = 1.0 + max(abs(v) for v in values)
        if outcome.spread > tolerance * scale:
            problems.append(
                "objective disagreement: "
                + ", ".join(
                    f"{name}={cost:.9g}"
                    for name, cost in sorted(outcome.costs.items())
                )
            )
    outcome.agreed = not problems
    outcome.message = "; ".join(problems)
    return outcome


#: Baseline registry used by the dominance check: name -> runner with the
#: uniform ``(lifetimes, horizon, register_count, model)`` signature.
BASELINE_RUNNERS = {
    "two-phase": two_phase_allocate,
    "left-edge": left_edge_allocate,
    "graph-coloring": graph_coloring_allocate,
    "greedy": greedy_partition_allocate,
}


@dataclass
class DominanceOutcome:
    """Record of the flow-vs-baselines energy comparison.

    Attributes:
        flow_objective: Energy of the flow-optimal allocation.
        baselines: Energy per baseline that ran.
        skipped: Baselines not applicable to the instance (e.g.
            Chang-Pedram below the density floor).
        dominated: Whether the flow allocation tied or beat every
            baseline within tolerance.
        message: Diagnosis of the first loss when ``dominated`` is
            ``False``.
    """

    flow_objective: float
    baselines: dict[str, float] = field(default_factory=dict)
    skipped: list[str] = field(default_factory=list)
    dominated: bool = True
    message: str = ""

    def to_dict(self) -> dict:
        """JSON-ready view of the outcome."""
        return {
            "flow_objective": self.flow_objective,
            "baselines": dict(self.baselines),
            "skipped": list(self.skipped),
            "dominated": self.dominated,
            "message": self.message,
        }


def run_baselines(
    lifetimes: Mapping,
    horizon: int,
    register_count: int,
    model,
) -> tuple[dict[str, float], list[str]]:
    """Run all five prior-art baselines; return objectives and skips.

    The four partition-capable baselines always run; the Chang-Pedram
    full binding additionally requires ``R >= max density`` (it has no
    memory fallback) and is skipped below that floor.
    """
    objectives: dict[str, float] = {}
    skipped: list[str] = []
    for name, runner in BASELINE_RUNNERS.items():
        objectives[name] = runner(
            lifetimes, horizon, register_count, model
        ).objective
    if register_count >= max_density(lifetimes.values(), horizon):
        assignment = chang_pedram_binding(
            lifetimes, horizon, model, register_count=register_count
        )
        objectives["chang-pedram"] = build_result(
            "chang-pedram",
            lifetimes,
            assignment.chains,
            model,
            register_count,
        ).objective
    else:
        skipped.append("chang-pedram")
    return objectives, skipped


def baseline_dominance(
    allocation: Allocation, tolerance: float = _COST_TOL
) -> DominanceOutcome:
    """Check the flow allocation ties or beats every baseline on energy.

    Only meaningful on unrestricted memory (baselines are blind to
    restricted access times); callers should gate on
    ``problem.memory.restricted``.

    Args:
        allocation: The flow-optimal solution to defend.
        tolerance: Absolute-plus-relative energy slack.

    Returns:
        The populated :class:`DominanceOutcome`.
    """
    problem = allocation.problem
    outcome = DominanceOutcome(flow_objective=allocation.objective)
    objectives, skipped = run_baselines(
        problem.lifetimes,
        problem.horizon,
        problem.register_count,
        problem.energy_model,
    )
    outcome.baselines = objectives
    outcome.skipped = skipped
    for name, objective in objectives.items():
        slack = tolerance * (1.0 + abs(objective))
        if allocation.objective > objective + slack:
            outcome.dominated = False
            outcome.message = (
                f"baseline {name} achieves {objective:.9g}, flow optimum "
                f"reports {allocation.objective:.9g}"
            )
            break
    return outcome
