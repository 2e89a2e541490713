"""Problem 1: the simultaneous memory/register allocation instance.

Bundles everything section 2 of the paper assumes given: the scheduled
lifetimes, the register count ``R``, the memory operating point (access
period ``c`` and supply), the energy model, and the modelling switches this
reproduction exposes (graph style, lifetime splitting, unused registers).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Literal, Mapping

from repro.energy.models import EnergyModel, StaticEnergyModel
from repro.energy.voltage import MemoryConfig
from repro.exceptions import AllocationError
from repro.lifetimes.analysis import extract_lifetimes
from repro.lifetimes.intervals import (
    Lifetime,
    Segment,
    density_profile,
    max_density_regions,
)
from repro.core.storage import StorageSpec, banking_forced_keys
from repro.lifetimes.splitting import split_all
from repro.scheduling.schedule import Schedule

__all__ = ["AllocationProblem", "GraphStyle"]

#: ``"adjacent"`` is the paper's graph (handoffs only across windows free of
#: maximum-density points, section 5.1); ``"all_pairs"`` connects every
#: non-overlapping pair like prior work [8] (used in figure 4a/b and the
#: graph ablation).
GraphStyle = Literal["adjacent", "all_pairs"]

#: Fields a :meth:`AllocationProblem.with_options` copy may replace and
#: still share the derived segments (when the access times stay equal).
_COST_FIELDS = frozenset({"energy_model", "memory"})


@dataclass(frozen=True)
class AllocationProblem:
    """One instance of Problem 1.

    Attributes:
        lifetimes: Variable name → lifetime (from
            :func:`~repro.lifetimes.analysis.extract_lifetimes` or built
            directly by workload modules).
        register_count: Size ``R`` of the on-chip register file; the network
            flow value.
        horizon: Block length ``x`` in control steps.
        energy_model: Energy model supplying all access energies.
        memory: Memory operating point (access period + voltage).
        graph_style: Handoff-arc construction rule (see
            :data:`GraphStyle`).
        split_at_reads: Split multi-read lifetimes at interior reads
            (section 5.2).  Disabling reproduces prior-art single-interval
            lifetimes.
        allow_unused_registers: Add a zero-cost source→sink bypass so the
            optimum may leave registers empty when register residency would
            cost more energy than memory (with the paper's parameters the
            bypass never carries flow).
        forced_segments: Extra segment keys ``(variable, index)`` pinned to
            the register file (flow lower bound 1) on top of what
            restricted access times force.  This is the section-7 hook for
            external constraints ("setting certain arc flows to 1 can be
            used" for fixed port counts); the port legalizer uses it.
        storage: Optional multi-level storage hierarchy (see
            :mod:`repro.core.storage`).  When set, :attr:`memory` is
            derived from the hierarchy's reference bank, access times are
            the union over all banks, and segments legal under the union
            but under no single bank are additionally forced.  ``None``
            keeps the paper's two-level model driven by :attr:`memory`.
    """

    lifetimes: Mapping[str, Lifetime]
    register_count: int
    horizon: int
    energy_model: EnergyModel = field(default_factory=StaticEnergyModel)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    graph_style: GraphStyle = "adjacent"
    split_at_reads: bool = True
    allow_unused_registers: bool = True
    forced_segments: frozenset[tuple[str, int]] = frozenset()
    storage: StorageSpec | None = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "forced_segments", frozenset(self.forced_segments)
        )
        if self.storage is not None:
            # The classic two-level field mirrors the hierarchy's
            # reference bank so legacy consumers (canonical forms,
            # reports, diagnostics) see a consistent operating point.
            object.__setattr__(self, "memory", self.storage.memory_config())
        if self.register_count < 0:
            raise AllocationError(
                f"register count must be >= 0, got {self.register_count}"
            )
        if self.horizon < 0:
            raise AllocationError(f"horizon must be >= 0, got {self.horizon}")
        for name, lifetime in self.lifetimes.items():
            if name != lifetime.name:
                raise AllocationError(
                    f"lifetime map key {name!r} does not match variable "
                    f"{lifetime.name!r}"
                )
            if lifetime.end > self.horizon + 1:
                raise AllocationError(
                    f"lifetime of {name!r} ends at {lifetime.end}, past the "
                    f"block end {self.horizon + 1}"
                )

    # ------------------------------------------------------------------
    # derived structure
    # ------------------------------------------------------------------
    @cached_property
    def access_times(self) -> frozenset[int] | None:
        """Memory access steps, or ``None`` when unrestricted.

        With a multi-bank :attr:`storage` hierarchy this is the union of
        all banks' access steps — the first-pass network constrains
        traffic to steps where *some* bank is accessible; the banking
        pass enforces single-bank consistency afterwards.
        """
        if self.storage is not None:
            return self.storage.union_access_times(self.horizon)
        return self.memory.access_times(self.horizon)

    @cached_property
    def segments(self) -> dict[str, list[Segment]]:
        """Split lifetimes (variable name → ordered segments)."""
        return split_all(
            self.lifetimes,
            access_times=self.access_times,
            split_at_reads=self.split_at_reads,
        )

    @cached_property
    def density(self) -> list[int]:
        """Lifetime density at each half-point ``k + 0.5``."""
        return density_profile(self.lifetimes.values(), self.horizon)

    @property
    def max_density(self) -> int:
        """Minimum number of total storage locations the block needs."""
        return max(self.density, default=0)

    @property
    def density_regions(self) -> list[tuple[int, int]]:
        """The paper's regions of maximum lifetime density."""
        return max_density_regions(self.density)

    @cached_property
    def banking_forced(self) -> frozenset[tuple[str, int]]:
        """Segment keys forced to registers by bank fragmentation.

        Segments legal under the union of bank access times but legal in
        no *single* bank (empty without a multi-bank hierarchy)."""
        if self.storage is None:
            return frozenset()
        return banking_forced_keys(
            self.storage, self.lifetimes, self.segments, self.horizon
        )

    def is_forced(self, segment: Segment) -> bool:
        """Whether *segment* must be register resident (access-time rule,
        an explicit :attr:`forced_segments` pin, or bank fragmentation)."""
        return (
            segment.forced
            or segment.key in self.forced_segments
            or segment.key in self.banking_forced
        )

    def constant_energy(self) -> float:
        """The all-in-memory baseline term of the objective.

        ``sum_v [E_w^m(v) + rlast_v * E_r^m(v)]`` — the constant the paper
        drops from the minimisation; adding it back to the flow cost yields
        the absolute energy.
        """
        model = self.energy_model
        return sum(
            model.mem_write(lt.variable)
            + lt.read_count * model.mem_read(lt.variable)
            for lt in self.lifetimes.values()
        )

    def with_options(self, **changes) -> "AllocationProblem":
        """A copy with the given fields replaced.

        A copy that replaces nothing but :attr:`energy_model` and/or
        :attr:`memory`, and keeps the :attr:`access_times`, shares this
        instance's cached :attr:`segments` and :attr:`density`: both
        depend only on the lifetimes, the horizon, the access times and
        the split switch.  Any other change derives them again.
        """
        copy = replace(self, **changes)
        if changes.keys() <= _COST_FIELDS and (
            copy.access_times == self.access_times
        ):
            for name in ("segments", "density"):
                if name in self.__dict__:
                    copy.__dict__[name] = self.__dict__[name]
        return copy

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_schedule(
        cls,
        schedule: Schedule,
        register_count: int,
        energy_model: EnergyModel | None = None,
        **options,
    ) -> "AllocationProblem":
        """Build an instance from a scheduled basic block."""
        lifetimes = extract_lifetimes(schedule)
        return cls(
            lifetimes=lifetimes,
            register_count=register_count,
            horizon=schedule.length,
            energy_model=energy_model or StaticEnergyModel(),
            **options,
        )
