"""The service's one solution record and its one result store.

:class:`SolveSummary` is what an exact solve leaves behind: headline
numbers plus the residency and address maps.  The executor settles
every solved job with one, the cache stores one per canonical cache key
(see :mod:`repro.service.canonical`), and the batch report flattens its
headline numbers.  Stored entries are in *canonical* variable space —
residency and memory addresses use the canonical names ``x0, x1, ...``
— so one entry serves every instance isomorphic to the canonical form;
:meth:`SolveSummary.remap` translates between the two name spaces.

:class:`ResultCache` keeps a bounded in-memory LRU (an
:class:`collections.OrderedDict` in move-to-end discipline) for hot
keys and, given a directory, an on-disk store shared between processes
and runs.  ``repro-alloc batch --cache-dir`` and ``repro-alloc serve
--cache-dir`` use the same layout, so one answers from what the other
wrote::

    <dir>/<first 2 hex chars of the digest>/<digest>.json
    <dir>/<first 2 hex chars of the digest>/<digest>.lint.json

The prefix directories keep concurrent writers of different keys off
one directory inode.  Writes are crash- and race-safe: each write goes
to a process-unique temporary file first and is published with an
atomic rename, so a concurrent reader sees either the old complete
entry or the new complete entry, never a torn one.  A file that is
missing, corrupt or stored under another key is a miss; a miss is
always safe, because the job is simply solved again.

Beside solved allocations the cache also stores **lint verdicts**
(:class:`CachedLint`): the admission gate's static-analysis report for a
canonical instance, written as the sibling ``<digest>.lint.json``.
Lint verdicts are keyed by the canonical key *plus* a schedule
fingerprint and a variable naming — the canonical form captures the
lifetimes but neither the schedule they came from nor the variable
names, and a report reads both: the schedule-aware rules (RA1xx, RA602)
analyse the schedule and every finding names the instance's variables.

Every entry records the solver that wrote it and whether that solver is
exact.  The service writes only :data:`EXACT_SOLVER` entries; an entry
with any other provenance — e.g. an approximate ``exact: false`` answer
left in a ``--cache-dir`` by an older release — is *stale*: a lookup
counts it as a miss, so the job is re-solved exactly and the entry
overwritten.

Every lookup bumps the ``service.cache.hit`` / ``service.cache.miss``
(results) or ``service.lint.cache_hit`` / ``service.lint.cache_miss``
(verdicts) observability counters (:mod:`repro.obs`).
"""

from __future__ import annotations

import itertools
import json
import os
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Mapping, TypeVar

from repro.exceptions import ServiceError
from repro.obs import trace as obs

__all__ = [
    "EXACT_SOLVER",
    "CachedLint",
    "ResultCache",
    "SolveSummary",
]

#: Per-process sequence making concurrent temp-file names unique.
_TMP_COUNTER = itertools.count()

#: Schema identifier of one serialised cache entry.
ENTRY_SCHEMA = "repro.service/cache-entry/v1"

#: Schema identifier of one serialised lint verdict.
LINT_SCHEMA = "repro.service/lint-entry/v1"

#: Provenance tag of the one solver the service runs: the exact
#: successive-shortest-paths min-cost-flow allocator.
EXACT_SOLVER = "ssp"

_Entry = TypeVar("_Entry", "SolveSummary", "CachedLint")


@dataclass(frozen=True)
class SolveSummary:
    """One exact solution of one canonical instance.

    In a job result the variable names are the instance's own; in the
    cache they are canonical (see :meth:`remap`).

    Attributes:
        key: Canonical cache key of the instance.
        solver: Solver that produced the solution (provenance).
        exact: Whether the producing solver is exact.  Only entries
            written by the exact allocator are served (see
            :attr:`stale`).
        objective: Absolute storage energy of the solution.
        mem_accesses: Memory accesses of the solution.
        reg_accesses: Register-file accesses of the solution.
        registers_used: Registers actually holding values.
        unused_registers: Bypass (empty-register) flow units.
        address_count: Distinct memory addresses used.
        residency: ``(variable, segment index, register)`` triples for
            register-resident segments.
        memory_addresses: ``(variable, address)`` pairs for
            memory-resident variables.
    """

    key: str
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
    def from_allocation(cls, allocation, key: str) -> "SolveSummary":
        """Summarise an exact :class:`~repro.core.allocation.Allocation`.

        Args:
            allocation: The allocator's answer, in instance names.
            key: Canonical cache key of the instance it solves.
        """
        return cls(
            key=key,
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

    @property
    def stale(self) -> bool:
        """Whether the exact allocator did not write this entry.

        Older releases cached answers from fallback solvers, including
        approximate (``exact: false``) ones; lookups treat those as
        misses rather than replay them.
        """
        return not self.exact or self.solver != EXACT_SOLVER

    def remap(self, names: Mapping[str, str]) -> "SolveSummary":
        """The same solution with its variables renamed through *names*.

        ``remap(canonical.renaming)`` turns a job's summary into its
        cache entry and ``remap(canonical.inverse())`` turns an entry
        back into an instance's own names (see
        :class:`repro.service.canonical.CanonicalInstance`).  Names
        missing from *names* are kept.
        """
        return replace(
            self,
            residency=tuple(
                (names.get(name, name), index, register)
                for name, index, register in self.residency
            ),
            memory_addresses=tuple(
                (names.get(name, name), address)
                for name, address in self.memory_addresses
            ),
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready ``repro.service/cache-entry/v1`` document."""
        return {
            "schema": ENTRY_SCHEMA,
            "key": self.key,
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
        if data.get("schema") != ENTRY_SCHEMA:
            raise ServiceError(
                f"unknown cache entry schema {data.get('schema')!r}"
            )
        try:
            return cls(
                key=str(data["key"]),
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
        except (KeyError, TypeError, ValueError) as exc:
            raise ServiceError(f"malformed cache entry: {exc}") from None


@dataclass(frozen=True)
class CachedLint:
    """One cached lint verdict for a canonical instance.

    Attributes:
        key: Canonical cache key the verdict is stored under.
        fingerprint: Schedule fingerprint the verdict was computed
            against (empty string when the instance had no schedule).  A
            lookup with a different fingerprint is a miss — the RA1xx /
            RA602 rules depend on the schedule, which the canonical key
            does not capture.
        naming: Digest of the variable names the report was computed
            for; a lookup with a different naming is a miss.
        report: The ``repro.lint/report/v1`` document (diagnostics in
            canonical variable space are *not* attempted — lint verdicts
            describe the instance as submitted, so the report is stored
            verbatim and only served to the same schedule and naming).
    """

    key: str
    fingerprint: str
    naming: str
    report: Mapping[str, Any]

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready view of the verdict."""
        return {
            "schema": LINT_SCHEMA,
            "key": self.key,
            "fingerprint": self.fingerprint,
            "naming": self.naming,
            "report": dict(self.report),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CachedLint":
        """Rebuild a verdict serialised by :meth:`to_dict`."""
        if data.get("schema") != LINT_SCHEMA:
            raise ServiceError(
                f"unknown lint entry schema {data.get('schema')!r}"
            )
        try:
            return cls(
                key=str(data["key"]),
                fingerprint=str(data["fingerprint"]),
                naming=str(data["naming"]),
                report=dict(data["report"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ServiceError(f"malformed lint entry: {exc}") from None


@dataclass
class ResultCache:
    """LRU result cache with an optional on-disk JSON store.

    Attributes:
        capacity: Maximum in-memory entries of each kind (least recently
            used entries are evicted first; the disk store, when
            configured, is unbounded).
        directory: On-disk store directory, or ``None`` for memory-only
            operation.  Created on first write.
        hits: Number of successful result lookups so far.
        misses: Number of failed result lookups so far.
        lint_hits: Number of successful verdict lookups so far.
        lint_misses: Number of failed verdict lookups so far.
    """

    capacity: int = 1024
    directory: Path | str | None = None
    hits: int = 0
    misses: int = 0
    lint_hits: int = 0
    lint_misses: int = 0
    _entries: OrderedDict = field(default_factory=OrderedDict, repr=False)
    _lint_entries: OrderedDict = field(
        default_factory=OrderedDict, repr=False
    )

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ServiceError(f"capacity must be >= 1, got {self.capacity}")
        if self.directory is not None:
            self.directory = Path(self.directory)

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> SolveSummary | None:
        """Look up *key*; promote on hit, fall back to the disk store.

        A :attr:`~SolveSummary.stale` entry counts as a miss.
        """
        entry = self._entries.get(key)
        if entry is None:
            entry = self._read(key, ".json", SolveSummary.from_dict)
        if entry is None or entry.stale:
            self.misses += 1
            obs.count("service.cache.miss")
            return None
        self._remember(self._entries, entry)
        self.hits += 1
        obs.count("service.cache.hit")
        return entry

    def put(self, entry: SolveSummary) -> None:
        """Insert *entry* under its own key (memory and, if set, disk)."""
        self._remember(self._entries, entry)
        self._write(entry.key, ".json", entry.to_dict())

    def get_lint(
        self, key: str, fingerprint: str, naming: str
    ) -> CachedLint | None:
        """Look up the lint verdict of (*key*, *fingerprint*, *naming*).

        A stored verdict with a different schedule fingerprint or
        variable naming is a miss: the canonical key alone captures
        neither the schedule the schedule-aware rules analysed nor the
        names the report's findings carry.
        """
        entry = self._lint_entries.get(key)
        if entry is None:
            entry = self._read(key, ".lint.json", CachedLint.from_dict)
        if (
            entry is not None
            and entry.fingerprint == fingerprint
            and entry.naming == naming
        ):
            self._remember(self._lint_entries, entry)
            self.lint_hits += 1
            obs.count("service.lint.cache_hit")
            return entry
        self.lint_misses += 1
        obs.count("service.lint.cache_miss")
        return None

    def put_lint(self, entry: CachedLint) -> None:
        """Insert lint verdict *entry* (memory and, if set, disk)."""
        self._remember(self._lint_entries, entry)
        self._write(entry.key, ".lint.json", entry.to_dict())

    def stats(self) -> dict[str, int | float]:
        """Lookup counters, in-memory sizes and hit rates (no file I/O)."""
        total = self.hits + self.misses
        lint_total = self.lint_hits + self.lint_misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._entries),
            "hit_rate": self.hits / total if total else 0.0,
            "lint_hits": self.lint_hits,
            "lint_misses": self.lint_misses,
            "lint_entries": len(self._lint_entries),
            "lint_hit_rate": (
                self.lint_hits / lint_total if lint_total else 0.0
            ),
        }

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _path(self, key: str, suffix: str) -> Path:
        """``<dir>/<digest[:2]>/<digest><suffix>`` for *key*."""
        assert self.directory is not None
        # Keys are "sha256:<hex>"; the digest part is filename-safe.
        digest = key.split(":", 1)[-1]
        return Path(self.directory) / digest[:2] / f"{digest}{suffix}"

    def _read(
        self,
        key: str,
        suffix: str,
        parse: Callable[[Mapping[str, Any]], _Entry],
    ) -> _Entry | None:
        """The disk entry of *key*, if one parses (corrupt = absent)."""
        if self.directory is None:
            return None
        try:
            entry = parse(
                json.loads(self._path(key, suffix).read_text(encoding="utf-8"))
            )
        except (OSError, ValueError, ServiceError):
            return None
        return entry if entry.key == key else None

    def _write(self, key: str, suffix: str, document: Mapping[str, Any]) -> None:
        """Publish *document* as the disk entry of *key*, if a store is set."""
        if self.directory is None:
            return
        path = self._path(key, suffix)
        path.parent.mkdir(parents=True, exist_ok=True)
        # Write to a process-unique temp name, then atomically rename:
        # concurrent writers of the same key race benignly (last rename
        # wins, both contents are complete) and concurrent readers never
        # see a torn entry.
        tmp = path.parent / (
            f".{path.stem}.{os.getpid()}.{next(_TMP_COUNTER)}.tmp"
        )
        text = json.dumps(document, indent=2, sort_keys=True)
        tmp.write_text(text + "\n", encoding="utf-8")
        tmp.replace(path)

    def _remember(self, entries: OrderedDict, entry: _Entry) -> None:
        """Insert or promote *entry* in one LRU, evicting past capacity."""
        entries[entry.key] = entry
        entries.move_to_end(entry.key)
        while len(entries) > self.capacity:
            entries.popitem(last=False)
