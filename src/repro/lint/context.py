"""Shared analysis context handed to every rule.

Rules must never crash on malformed input — catching malformed input is
their whole purpose.  The :class:`LintContext` therefore wraps the
derived structure of an :class:`~repro.core.problem.AllocationProblem`
(split segments, density profile, the constructed flow network) in
guarded, cached accessors: a derivation that raises records the error
text instead of propagating, and dependent rules simply skip.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.lint.diagnostics import NO_LOCATION, Location, Severity
from repro.lint.prove import (
    InfeasibilityCertificate,
    certificates_from,
    reachable,
)
from repro.lint.registry import LintConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.network_builder import BuiltNetwork
    from repro.core.problem import AllocationProblem
    from repro.lifetimes.intervals import Segment
    from repro.scheduling.schedule import Schedule

__all__ = ["Finding", "LintContext"]


@dataclass(frozen=True)
class Finding:
    """One raw finding yielded by a rule body.

    The engine combines it with the rule's metadata (code, slug, default
    severity and hint) into a full
    :class:`~repro.lint.diagnostics.Diagnostic`.

    Attributes:
        message: Instance-specific description of the defect.
        location: Anchor inside the instance.
        hint: Fix-it hint overriding the rule default.
        severity: Severity overriding the rule default (rarely needed;
            per-run overrides usually belong in :class:`LintConfig`).
        evidence: Machine-checkable supporting data (JSON-ready mapping)
            attached to the resulting diagnostic — e.g. the serialised
            infeasibility certificate behind an RA6xx proof.
    """

    message: str
    location: Location = NO_LOCATION
    hint: str | None = None
    severity: Severity | None = None
    evidence: dict | None = None


class LintContext:
    """The analysed instance plus guarded derived structure.

    Attributes:
        problem: The instance under analysis.
        schedule: The schedule the lifetimes came from, when the caller
            has one (enables the RA1xx schedule rules).
        config: The run configuration (rules read per-rule options).
    """

    def __init__(
        self,
        problem: "AllocationProblem",
        schedule: "Schedule | None" = None,
        config: LintConfig | None = None,
    ) -> None:
        self.problem = problem
        self.schedule = schedule
        self.config = config or LintConfig()

    def option(self, code: str, key: str, default: Any = None) -> Any:
        """Per-rule option lookup (delegates to the config)."""
        return self.config.option(code, key, default)

    # ------------------------------------------------------------------
    # guarded derivations
    # ------------------------------------------------------------------
    @cached_property
    def _segments_result(
        self,
    ) -> tuple["dict[str, list[Segment]] | None", str | None]:
        try:
            return dict(self.problem.segments), None
        except Exception as exc:  # malformed lifetimes break the splitter
            return None, f"{type(exc).__name__}: {exc}"

    @property
    def segments(self) -> "dict[str, list[Segment]] | None":
        """Split segments, or ``None`` when splitting failed."""
        return self._segments_result[0]

    @property
    def segments_error(self) -> str | None:
        """Why splitting failed (``None`` on success)."""
        return self._segments_result[1]

    @cached_property
    def _density_result(self) -> tuple[list[int] | None, str | None]:
        try:
            return list(self.problem.density), None
        except Exception as exc:
            return None, f"{type(exc).__name__}: {exc}"

    @property
    def density(self) -> list[int] | None:
        """Lifetime density profile, or ``None`` when underivable."""
        return self._density_result[0]

    @cached_property
    def _network_result(self) -> tuple["BuiltNetwork | None", str | None]:
        from repro.core.network_builder import build_network

        if self.segments is None or self.density is None:
            return None, (
                "network not constructed: lifetime derivation failed "
                f"({self.segments_error or self._density_result[1]})"
            )
        try:
            return build_network(self.problem), None
        except Exception as exc:
            return None, f"{type(exc).__name__}: {exc}"

    @property
    def built(self) -> "BuiltNetwork | None":
        """The constructed flow network, or ``None`` on failure."""
        return self._network_result[0]

    @property
    def network_error(self) -> str | None:
        """Why network construction failed (``None`` on success)."""
        return self._network_result[1]

    @cached_property
    def source_reach(self) -> np.ndarray | None:
        """Nodes reachable from the source over positive-capacity arcs
        (``None`` when the network did not build).

        The one forward walk of a lint run: the prover's reachability
        proofs read it, and so does rule RA503 whenever every arc has
        positive capacity (then the walk over all arcs reaches the same
        nodes).
        """
        if self.built is None:
            return None
        network = self.built.network
        arrays = network.arrays()
        positive = arrays.capacities > 0
        return reachable(
            network.num_nodes,
            arrays.tails[positive],
            arrays.heads[positive],
            start=network.node_index(self.built.source),
        )

    @cached_property
    def certificates(self) -> tuple[InfeasibilityCertificate, ...]:
        """Every prover certificate for the built network, derived once
        per lint run and shared by the RA6xx proof rules (``()`` when
        the network did not build)."""
        if self.built is None:
            return ()
        return certificates_from(self.built, source_reach=self.source_reach)

    @cached_property
    def access_times(self) -> frozenset[int] | None:
        """Restricted access steps (``None`` for unrestricted memory)."""
        try:
            return self.problem.access_times
        except Exception:
            return None
