"""Unified solve options for every ``allocate*`` entry point.

:class:`SolveOptions` is the one frozen bundle that
:func:`repro.core.solver.allocate`,
:func:`repro.core.pipeline.allocate_schedule` /
:func:`~repro.core.pipeline.allocate_block`,
:func:`repro.core.ports.allocate_with_port_limit` and
:func:`repro.core.task_pipeline.allocate_task_graph` accept in place of
per-function ``lint=`` / ``certify=`` / ``warm_cache=`` keywords, so a new
capability widens one dataclass instead of five signatures.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.flow.warm_start import WarmStartCache

__all__ = ["SolveOptions"]


@dataclass(frozen=True)
class SolveOptions:
    """Everything orthogonal to the instance that shapes a solve.

    Attributes:
        validate: Run the flow validator and the energy cross-check on
            the solution (cheap; disable only in benchmarking loops).
        certify: Additionally construct and verify an optimality
            certificate (node potentials + complementary slackness)
            before returning.
        lint: Pre-solve static-analysis gate: a severity name
            (``"error"``, ``"warning"``, ``"note"``) at or above which
            lint findings abort the solve, or ``None`` to skip linting.
        warm_cache: Optional shared
            :class:`~repro.flow.warm_start.WarmStartCache`; cost-only
            perturbations of a previously solved topology re-solve
            incrementally, one problem at a time (no lockstep group in
            :func:`~repro.core.solver.allocate_many`).  The answer is
            optimal either way, but an incremental re-solve may land on
            another optimal allocation, with the objective equal only up
            to float rounding.  In-process sweeps over one topology use
            it; the batch service and the server do not.

    A storage hierarchy is part of the instance, not an option: attach
    it with ``problem.with_options(storage=spec)``, or pass ``storage=``
    to :func:`~repro.core.pipeline.allocate_block`.
    """

    validate: bool = True
    certify: bool = False
    lint: str | None = None
    warm_cache: WarmStartCache | None = None

    def replace(self, **changes) -> "SolveOptions":
        """A copy with the given fields replaced."""
        return replace(self, **changes)
