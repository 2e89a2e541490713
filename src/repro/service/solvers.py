"""The plain-data solution summary the batch service ships and caches.

Every service job is one call to the exact min-cost-flow allocator
(:func:`repro.core.solver.allocate`, made by
:mod:`repro.service.executor`).  :class:`SolveSummary` is what such a
solve leaves behind: headline numbers plus the residency and address
maps, in the instance's own variable names, convertible to and from the
canonical-space cache entry (:class:`~repro.service.cache.CachedResult`)
and the JSON job record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.service.cache import EXACT_SOLVER, CachedResult
from repro.service.canonical import CanonicalInstance

__all__ = ["SolveSummary"]


@dataclass(frozen=True)
class SolveSummary:
    """Solution summary in *instance* variable space.

    The plain-data result the executor ships between processes and the
    report serialises; :meth:`to_cached` / :meth:`from_cached` convert
    to and from the canonical-space cache entry.

    Attributes:
        solver: Provenance tag of the solver that produced the solution
            (:data:`~repro.service.cache.EXACT_SOLVER` for every solve
            the service makes; cache hits carry the entry's tag).
        exact: Whether that solver is an exact optimiser.
        objective: Absolute storage energy.
        mem_accesses: Memory accesses of the solution.
        reg_accesses: Register-file accesses of the solution.
        registers_used: Registers actually holding values.
        unused_registers: Registers the solution leaves empty.
        address_count: Distinct memory addresses used.
        residency: ``(variable, segment index, register)`` triples.
        memory_addresses: ``(variable, address)`` pairs.
    """

    solver: str
    exact: bool
    objective: float
    mem_accesses: int
    reg_accesses: int
    registers_used: int
    unused_registers: int
    address_count: int
    residency: tuple[tuple[str, int, int], ...] = ()
    memory_addresses: tuple[tuple[str, int], ...] = ()

    @classmethod
    def from_allocation(cls, allocation) -> "SolveSummary":
        """Summarise an exact :class:`~repro.core.allocation.Allocation`."""
        return cls(
            solver=EXACT_SOLVER,
            exact=True,
            # total_energy == objective except under a multi-bank
            # storage hierarchy, where per-bank deltas are added on top.
            objective=allocation.total_energy,
            mem_accesses=allocation.report.mem_accesses,
            reg_accesses=allocation.report.reg_accesses,
            registers_used=allocation.registers_used,
            unused_registers=allocation.unused_registers,
            address_count=allocation.address_count,
            residency=tuple(
                sorted(
                    (name, index, register)
                    for (name, index), register in allocation.residency.items()
                )
            ),
            memory_addresses=tuple(
                sorted(allocation.memory_addresses.items())
            ),
        )

    def to_cached(self, canonical: CanonicalInstance) -> CachedResult:
        """The canonical-space cache entry of this summary."""
        renaming = canonical.renaming
        return CachedResult(
            key=canonical.key,
            solver=self.solver,
            exact=self.exact,
            objective=self.objective,
            mem_accesses=self.mem_accesses,
            reg_accesses=self.reg_accesses,
            registers_used=self.registers_used,
            unused_registers=self.unused_registers,
            address_count=self.address_count,
            residency=tuple(
                (renaming.get(name, name), index, register)
                for name, index, register in self.residency
            ),
            memory_addresses=tuple(
                (renaming.get(name, name), address)
                for name, address in self.memory_addresses
            ),
        )

    @classmethod
    def from_cached(
        cls, entry: CachedResult, canonical: CanonicalInstance
    ) -> "SolveSummary":
        """Rebuild a summary, remapped into an instance's own names."""
        remapped = entry.remap(canonical.inverse())
        return cls(
            solver=entry.solver,
            exact=entry.exact,
            objective=entry.objective,
            mem_accesses=entry.mem_accesses,
            reg_accesses=entry.reg_accesses,
            registers_used=entry.registers_used,
            unused_registers=entry.unused_registers,
            address_count=entry.address_count,
            residency=remapped.residency,
            memory_addresses=remapped.memory_addresses,
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready view (tuples become lists)."""
        return {
            "solver": self.solver,
            "exact": self.exact,
            "objective": self.objective,
            "mem_accesses": self.mem_accesses,
            "reg_accesses": self.reg_accesses,
            "registers_used": self.registers_used,
            "unused_registers": self.unused_registers,
            "address_count": self.address_count,
            "residency": [list(item) for item in self.residency],
            "memory_addresses": [
                list(item) for item in self.memory_addresses
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SolveSummary":
        """Rebuild a summary serialised by :meth:`to_dict`."""
        return cls(
            solver=str(data["solver"]),
            exact=bool(data["exact"]),
            objective=float(data["objective"]),
            mem_accesses=int(data["mem_accesses"]),
            reg_accesses=int(data["reg_accesses"]),
            registers_used=int(data["registers_used"]),
            unused_registers=int(data["unused_registers"]),
            address_count=int(data["address_count"]),
            residency=tuple(
                (str(name), int(index), int(register))
                for name, index, register in data.get("residency", ())
            ),
            memory_addresses=tuple(
                (str(name), int(address))
                for name, address in data.get("memory_addresses", ())
            ),
        )
