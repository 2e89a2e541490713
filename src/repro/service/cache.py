"""Result cache: in-memory LRU + optional on-disk JSON store.

Caches solved allocations under their canonical cache key (see
:mod:`repro.service.canonical`).  Entries are stored in *canonical*
variable space — residency and memory addresses use the canonical names
``x0, x1, ...`` — so one entry serves every instance isomorphic to the
canonical form; :meth:`CachedResult.remap` translates an entry back into
a specific instance's variable names through the inverse renaming.

Layers:

* a bounded in-memory LRU (an :class:`collections.OrderedDict` in
  move-to-end discipline) for hot keys;
* an optional on-disk store (one ``<digest>.json`` file per key under a
  directory) shared between processes and runs — the CI batch-smoke job
  relies on a second run over the same manifest being served from disk.

:class:`ShardedResultCache` extends the disk store for long-lived
serving: entries spread over ``16 ** shard_width`` subdirectories keyed
by the leading hex characters of the canonical digest, so concurrent
worker processes hammering different keys touch different directories
and a directory listing never has to scan one giant flat store.  Writes
are crash- and race-safe in both layouts: each write goes to a
process-unique temporary file first and is published with an atomic
rename, so a concurrent reader sees either the old complete entry or
the new complete entry, never a torn one.

Beside solved allocations the cache also stores **lint verdicts**
(:class:`CachedLint`): the admission gate's static-analysis report for a
canonical instance, written as a sibling ``<digest>.lint.json`` entry so
it shares the sharding and atomic-rename discipline of result entries.
Lint verdicts are keyed by the canonical key *plus* a schedule
fingerprint — the canonical form captures the lifetimes but not the
schedule they came from, and the schedule-aware rules (RA1xx, RA602)
would otherwise serve a stale verdict to an instance with identical
lifetimes but a different schedule.

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
from typing import Any, Iterable, Mapping

from repro.exceptions import ServiceError
from repro.obs import trace as obs

__all__ = [
    "EXACT_SOLVER",
    "CachedLint",
    "CachedResult",
    "ResultCache",
    "ShardedResultCache",
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


@dataclass(frozen=True)
class CachedResult:
    """One cached allocation outcome, in canonical variable space.

    Attributes:
        key: Canonical cache key the entry is stored under.
        solver: Solver that produced the result (provenance).
        exact: Whether the producing solver is exact.  Only entries
            written by the exact allocator are served (see
            :attr:`stale`).
        objective: Absolute storage energy of the solution.
        mem_accesses: Memory accesses of the solution.
        reg_accesses: Register-file accesses of the solution.
        registers_used: Registers actually holding values.
        unused_registers: Bypass (empty-register) flow units.
        address_count: Distinct memory addresses used.
        residency: ``(canonical name, segment index, register)`` triples
            for register-resident segments.
        memory_addresses: ``(canonical name, address)`` pairs for
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

    @property
    def stale(self) -> bool:
        """Whether the exact allocator did not write this entry.

        Older releases cached answers from fallback solvers, including
        approximate (``exact: false``) ones; lookups treat those as
        misses rather than replay them.
        """
        return not self.exact or self.solver != EXACT_SOLVER

    def remap(self, inverse: Mapping[str, str]) -> "CachedResult":
        """The same result expressed in an instance's own variable names.

        Args:
            inverse: Canonical name → instance name (see
                :meth:`repro.service.canonical.CanonicalInstance.inverse`).
        """
        return replace(
            self,
            residency=tuple(
                (inverse.get(name, name), index, register)
                for name, index, register in self.residency
            ),
            memory_addresses=tuple(
                (inverse.get(name, name), address)
                for name, address in self.memory_addresses
            ),
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready view of the entry."""
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
    def from_dict(cls, data: Mapping[str, Any]) -> "CachedResult":
        """Rebuild an entry serialised by :meth:`to_dict`."""
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
        report: The ``repro.lint/report/v1`` document (diagnostics in
            canonical variable space are *not* attempted — lint verdicts
            describe the instance as submitted, so the report is stored
            verbatim and only served to byte-identical schedules).
    """

    key: str
    fingerprint: str
    report: Mapping[str, Any]

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready view of the verdict."""
        return {
            "schema": LINT_SCHEMA,
            "key": self.key,
            "fingerprint": self.fingerprint,
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
                report=dict(data["report"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ServiceError(f"malformed lint entry: {exc}") from None


@dataclass
class ResultCache:
    """LRU result cache with an optional on-disk JSON store.

    Attributes:
        capacity: Maximum in-memory entries (least recently used entries
            are evicted first; the disk store, when configured, is
            unbounded).
        directory: On-disk store directory, or ``None`` for memory-only
            operation.  Created on first write.
        hits: Number of successful lookups so far.
        misses: Number of failed lookups so far.
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

    @staticmethod
    def _digest(key: str) -> str:
        # Keys are "sha256:<hex>"; the digest part is filename-safe.
        return key.split(":", 1)[-1]

    def _path(self, key: str) -> Path:
        """Where a new entry for *key* is written."""
        assert self.directory is not None
        return Path(self.directory) / f"{self._digest(key)}.json"

    def _candidate_paths(self, key: str) -> Iterable[Path]:
        """Paths a lookup probes, in preference order."""
        return (self._path(key),)

    def get(self, key: str) -> CachedResult | None:
        """Look up *key*; promote on hit, fall back to the disk store.

        A :attr:`~CachedResult.stale` entry counts as a miss.
        """
        entry = self._entries.get(key)
        if entry is None and self.directory is not None:
            entry = self._load(key)
        if entry is None or entry.stale:
            self.misses += 1
            obs.count("service.cache.miss")
            return None
        self._remember(key, entry)
        self.hits += 1
        obs.count("service.cache.hit")
        return entry

    def _load(self, key: str) -> CachedResult | None:
        """The disk entry of *key*, if one parses (corrupt = absent)."""
        for path in self._candidate_paths(key):
            if not path.is_file():
                continue
            try:
                entry = CachedResult.from_dict(
                    json.loads(path.read_text(encoding="utf-8"))
                )
            except (OSError, ValueError, ServiceError):
                continue
            if entry.key == key:
                return entry
        return None

    def put(self, entry: CachedResult) -> None:
        """Insert *entry* under its own key (memory and, if set, disk)."""
        self._remember(entry.key, entry)
        if self.directory is not None:
            path = self._path(entry.key)
            path.parent.mkdir(parents=True, exist_ok=True)
            text = json.dumps(entry.to_dict(), indent=2, sort_keys=True)
            # Write to a process-unique temp name, then atomically
            # rename: concurrent writers of the same key race benignly
            # (last rename wins, both contents are complete) and
            # concurrent readers never see a torn entry.
            tmp = path.parent / (
                f".{path.stem}.{os.getpid()}.{next(_TMP_COUNTER)}.tmp"
            )
            tmp.write_text(text + "\n", encoding="utf-8")
            tmp.replace(path)

    def _remember(self, key: str, entry: CachedResult) -> None:
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    # ------------------------------------------------------------------
    # lint verdicts
    # ------------------------------------------------------------------
    def _lint_path(self, key: str) -> Path:
        """Where the lint verdict for *key* lives on disk.

        Derived from :meth:`_path` so the sharded layout is inherited:
        the verdict is a ``<digest>.lint.json`` sibling of the result
        entry.
        """
        path = self._path(key)
        return path.with_name(f"{self._digest(key)}.lint.json")

    def get_lint(self, key: str, fingerprint: str = "") -> CachedLint | None:
        """Look up the lint verdict of (*key*, *fingerprint*).

        A stored verdict with a different schedule fingerprint is a
        miss: the canonical key alone does not capture the schedule the
        schedule-aware rules analysed.
        """
        entry = self._lint_entries.get(key)
        if entry is None and self.directory is not None:
            path = self._lint_path(key)
            if path.is_file():
                try:
                    entry = CachedLint.from_dict(
                        json.loads(path.read_text(encoding="utf-8"))
                    )
                except (OSError, ValueError, ServiceError):
                    entry = None  # corrupt verdicts count as misses
                if entry is not None and entry.key != key:
                    entry = None
        if entry is not None and entry.fingerprint == fingerprint:
            self._remember_lint(key, entry)
            self.lint_hits += 1
            obs.count("service.lint.cache_hit")
            return entry
        self.lint_misses += 1
        obs.count("service.lint.cache_miss")
        return None

    def put_lint(self, entry: CachedLint) -> None:
        """Insert lint verdict *entry* (memory and, if set, disk)."""
        self._remember_lint(entry.key, entry)
        if self.directory is not None:
            path = self._lint_path(entry.key)
            path.parent.mkdir(parents=True, exist_ok=True)
            text = json.dumps(entry.to_dict(), indent=2, sort_keys=True)
            tmp = path.parent / (
                f".{path.stem}.{os.getpid()}.{next(_TMP_COUNTER)}.tmp"
            )
            tmp.write_text(text + "\n", encoding="utf-8")
            tmp.replace(path)

    def _remember_lint(self, key: str, entry: CachedLint) -> None:
        self._lint_entries[key] = entry
        self._lint_entries.move_to_end(key)
        while len(self._lint_entries) > self.capacity:
            self._lint_entries.popitem(last=False)

    def stats(self) -> dict[str, int | float]:
        """Hit/miss counters plus the current hit rate."""
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


@dataclass
class ShardedResultCache(ResultCache):
    """Disk-backed result cache sharded by canonical-key prefix.

    The flat :class:`ResultCache` store keeps every entry in one
    directory; a long-lived server with several worker processes
    filling it would funnel all directory mutations through that single
    inode.  This subclass spreads entries over ``16 ** shard_width``
    subdirectories named by the leading hex characters of the canonical
    digest (``<dir>/<prefix>/<digest>.json``), so writers of different
    keys almost always touch different directories.  Per-entry
    atomicity is inherited from the base class (unique temp file +
    rename), which is what makes concurrent overlapping writers safe —
    see ``tests/service/test_cache.py``.

    Lookups also probe the flat legacy path, so a store written by a
    pre-sharding ``repro-alloc batch`` run keeps serving hits.

    Attributes:
        shard_width: Hex characters of the digest used as the shard
            directory name (1–4; 2 = 256 shards, the default).
    """

    shard_width: int = 2

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.directory is None:
            raise ServiceError("ShardedResultCache requires a directory")
        if not 1 <= self.shard_width <= 4:
            raise ServiceError(
                f"shard_width must be in 1..4, got {self.shard_width}"
            )

    def _path(self, key: str) -> Path:
        """Sharded location: ``<dir>/<digest prefix>/<digest>.json``."""
        assert self.directory is not None
        digest = self._digest(key)
        return (
            Path(self.directory)
            / digest[: self.shard_width]
            / f"{digest}.json"
        )

    def _candidate_paths(self, key: str) -> Iterable[Path]:
        """The sharded path first, then the flat pre-sharding layout."""
        assert self.directory is not None
        return (
            self._path(key),
            Path(self.directory) / f"{self._digest(key)}.json",
        )

    def shard_for(self, key: str) -> str:
        """Shard directory name *key* lives in (digest prefix)."""
        return self._digest(key)[: self.shard_width]

    def stats(self) -> dict[str, int | float]:
        """Base stats plus on-disk shard occupancy."""
        data = super().stats()
        directory = Path(self.directory) if self.directory else None
        shards = 0
        disk_entries = 0
        lint_disk = 0
        if directory is not None and directory.is_dir():
            for child in directory.iterdir():
                if child.is_dir() and len(child.name) == self.shard_width:
                    shards += 1
                    for item in child.glob("*.json"):
                        if item.name.endswith(".lint.json"):
                            lint_disk += 1
                        else:
                            disk_entries += 1
        data["shards"] = shards
        data["disk_entries"] = disk_entries
        data["lint_disk_entries"] = lint_disk
        return data
