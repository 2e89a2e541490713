"""Multi-level storage hierarchies (registers + N memory banks).

The paper models exactly two storage levels: the register file and one
restricted memory (section 5.2).  This module generalises the memory side
to an ordered hierarchy of :class:`StorageLevel` banks — each with its own
capacity, port count, access period/offset, supply voltage and handoff
cost — behind a single :class:`StorageSpec` carried by
:class:`~repro.core.problem.AllocationProblem`.

The generalisation is layered so the paper's model is the exact
degenerate case:

* **First pass** (the flow network) sees the *union* of all bank access
  times plus the extra segments that are *banking-forced*: legal under
  the union but under no single bank (e.g. their reads straddle two
  banks' access phases).  With one bank the union equals that bank's set
  and nothing extra is forced, so the network — and hence the energy —
  is byte-identical to the classic two-level solve.
* **Second pass** (:mod:`repro.core.banking`) places each memory-resident
  variable into one legal bank under per-bank capacity and port limits,
  re-running the flow with extra register pins when banks overflow —
  the same pin-and-resolve pattern as :mod:`repro.core.ports`.

Per-segment bank legality re-uses the splitter's section-5.2 rule
verbatim, evaluated against a single bank's access set instead of the
union: the value must be able to reach the bank by the segment start,
and every served read must land on one of the bank's access steps.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

from repro.energy.capacitance import NOMINAL_VOLTAGE
from repro.energy.voltage import MemoryConfig, max_divisor_supply
from repro.exceptions import AllocationError
from repro.lifetimes.intervals import Lifetime, Segment
from repro.lifetimes.splitting import periodic_access_times

__all__ = [
    "StorageLevel",
    "StorageSpec",
    "BankStructure",
    "bank_structures",
    "segment_bank_legal",
    "banking_forced_keys",
]

#: Serialization schema tag for :meth:`StorageSpec.to_dict`.
STORAGE_SCHEMA = "repro/storage-spec/v1"


@dataclass(frozen=True)
class StorageLevel:
    """One level of the storage hierarchy.

    Attributes:
        name: Unique level name (``"rf"``, ``"bank0"``, ``"offchip"`` ...).
        kind: ``"register"`` for the register file, ``"memory"`` for a
            bank.  Exactly one register level is allowed per spec and it
            must come first.
        capacity: Locations available at this level, or ``None`` for
            unbounded.  The register level's capacity is ignored — the
            problem's ``register_count`` governs it.
        ports: Simultaneous accesses the level accepts per access step,
            or ``None`` for unlimited.
        divisor: The level accepts accesses every *divisor* control steps
            (``c`` in Problem 1; 1 = every step).  Ignored for the
            register level.
        offset: First access step of the periodic pattern.
        voltage: Supply voltage of the level.  Access energies scale with
            ``(V / V_ref)^2`` relative to the hierarchy's reference bank.
        access_scale: Extra multiplier on per-access energy (models wider
            banks or different cell technology); 1.0 is neutral.
        idle_energy: Static energy charged per occupied location per
            control step of residency; 0.0 is neutral.
        transfer_cost: Additive energy per value handed *into* this level
            (bus/driver cost of the spill); 0.0 is neutral.
    """

    name: str
    kind: str = "memory"
    capacity: int | None = None
    ports: int | None = None
    divisor: int = 1
    offset: int = 1
    voltage: float = NOMINAL_VOLTAGE
    access_scale: float = 1.0
    idle_energy: float = 0.0
    transfer_cost: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("register", "memory"):
            raise AllocationError(
                f"storage level kind must be 'register' or 'memory', "
                f"got {self.kind!r}"
            )
        if self.divisor < 1:
            raise AllocationError(
                f"level {self.name!r}: divisor must be >= 1, "
                f"got {self.divisor}"
            )
        if self.offset < 0:
            raise AllocationError(
                f"level {self.name!r}: negative offset {self.offset}"
            )
        # NaN fails every comparison, so it is rejected with inf.
        if not 0 < self.voltage < float("inf"):
            raise AllocationError(
                f"level {self.name!r}: voltage must be positive and finite, "
                f"got {self.voltage}"
            )
        if self.capacity is not None and self.capacity < 0:
            raise AllocationError(
                f"level {self.name!r}: negative capacity {self.capacity}"
            )
        if self.ports is not None and self.ports < 1:
            raise AllocationError(
                f"level {self.name!r}: ports must be >= 1, got {self.ports}"
            )
        if self.access_scale <= 0:
            raise AllocationError(
                f"level {self.name!r}: non-positive access scale "
                f"{self.access_scale}"
            )

    @property
    def restricted(self) -> bool:
        """Whether this level's access times constrain the allocator."""
        return self.divisor > 1

    def access_times(self, length: int) -> frozenset[int] | None:
        """Access-step set for a block of *length* steps (None if free)."""
        if self.kind == "register" or not self.restricted:
            return None
        return periodic_access_times(self.divisor, length, self.offset)

    def memory_config(self) -> MemoryConfig:
        """The classic two-level operating point this bank corresponds to."""
        return MemoryConfig(
            divisor=self.divisor, voltage=self.voltage, offset=self.offset
        )

    def to_dict(self) -> dict:
        """JSON-ready representation of this level."""
        return {
            "name": self.name,
            "kind": self.kind,
            "capacity": self.capacity,
            "ports": self.ports,
            "divisor": self.divisor,
            "offset": self.offset,
            "voltage": self.voltage,
            "access_scale": self.access_scale,
            "idle_energy": self.idle_energy,
            "transfer_cost": self.transfer_cost,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "StorageLevel":
        """Rebuild a level from :meth:`to_dict` output."""
        return cls(
            name=str(data["name"]),
            kind=str(data.get("kind", "memory")),
            capacity=data.get("capacity"),
            ports=data.get("ports"),
            divisor=int(data.get("divisor", 1)),
            offset=int(data.get("offset", 1)),
            voltage=float(data.get("voltage", NOMINAL_VOLTAGE)),
            access_scale=float(data.get("access_scale", 1.0)),
            idle_energy=float(data.get("idle_energy", 0.0)),
            transfer_cost=float(data.get("transfer_cost", 0.0)),
        )


@dataclass(frozen=True)
class StorageSpec:
    """An ordered storage hierarchy: one register level plus >= 1 banks.

    The first level must be the register file; the remaining levels are
    memory banks ordered by preference (the first bank is the *reference*
    operating point — the flow network's costs are taken at its voltage,
    and the banking pass accounts other banks as energy deltas against
    it).

    Attributes:
        levels: The hierarchy, register level first.
    """

    levels: tuple[StorageLevel, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "levels", tuple(self.levels))
        if len(self.levels) < 2:
            raise AllocationError(
                "a storage spec needs a register level and at least one "
                f"memory bank, got {len(self.levels)} level(s)"
            )
        if self.levels[0].kind != "register":
            raise AllocationError(
                "the first storage level must be the register file"
            )
        if any(lvl.kind != "memory" for lvl in self.levels[1:]):
            raise AllocationError(
                "levels after the first must all be memory banks"
            )
        names = [lvl.name for lvl in self.levels]
        if len(set(names)) != len(names):
            raise AllocationError(f"duplicate storage level names: {names}")

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def register_level(self) -> StorageLevel:
        """The register-file level."""
        return self.levels[0]

    @property
    def banks(self) -> tuple[StorageLevel, ...]:
        """The memory levels, in preference order."""
        return self.levels[1:]

    @property
    def reference(self) -> StorageLevel:
        """The reference bank: the flow network prices accesses at its
        operating point; other banks are deltas against it."""
        return self.levels[1]

    @property
    def is_degenerate(self) -> bool:
        """Whether this spec is the paper's two-level model (one bank)."""
        return len(self.banks) == 1

    def memory_config(self) -> MemoryConfig:
        """The two-level operating point of the reference bank."""
        return self.reference.memory_config()

    def union_access_times(self, length: int) -> frozenset[int] | None:
        """Union of all banks' access steps (``None`` when any bank is
        unrestricted — the union then constrains nothing)."""
        union: set[int] = set()
        for bank in self.banks:
            times = bank.access_times(length)
            if times is None:
                return None
            union.update(times)
        return frozenset(union)

    def access_topology(self) -> tuple:
        """Hashable key of everything that shapes the flow network.

        Two specs with equal topology produce identical access-time
        unions and banking-forced sets for any horizon, so a network
        built for one can be re-costed for the other (bank voltages,
        capacities and ports differ only in the banking pass).
        """
        return tuple(
            (lvl.kind, lvl.divisor, lvl.offset) for lvl in self.levels
        )

    def with_levels(self, **changes) -> "StorageSpec":
        """A copy with the given fields replaced."""
        return replace(self, **changes)

    # ------------------------------------------------------------------
    # bank legality
    # ------------------------------------------------------------------
    def bank_access_times(
        self, length: int
    ) -> tuple[frozenset[int] | None, ...]:
        """Per-bank access-step sets for a block of *length* steps."""
        return tuple(bank.access_times(length) for bank in self.banks)

    def segment_legal_banks(
        self, lifetime: Lifetime, segment: Segment, length: int
    ) -> tuple[int, ...]:
        """Bank indices (into :attr:`banks`) where *segment* may be
        memory-resident under the section-5.2 rule."""
        return tuple(
            b
            for b, times in enumerate(self.bank_access_times(length))
            if segment_bank_legal(lifetime, segment, times)
        )

    # ------------------------------------------------------------------
    # constructors / serialization
    # ------------------------------------------------------------------
    @classmethod
    def canonical(cls, memory: MemoryConfig | None = None) -> "StorageSpec":
        """The paper's two-level hierarchy for a classic operating point.

        Solving with this spec reproduces the plain
        :class:`~repro.energy.voltage.MemoryConfig` solve byte-for-byte.
        """
        config = memory or MemoryConfig()
        return cls(
            levels=(
                StorageLevel(name="rf", kind="register"),
                StorageLevel(
                    name="mem",
                    kind="memory",
                    divisor=config.divisor,
                    offset=config.offset,
                    voltage=config.voltage,
                ),
            )
        )

    @classmethod
    def banked(
        cls,
        bank_count: int,
        period: int,
        ports: int | None = None,
        capacity: int | None = None,
        voltages: Sequence[float] | None = None,
        stagger: bool = True,
    ) -> "StorageSpec":
        """An interleaved multi-bank hierarchy for sweeps and fuzzing.

        Bank *i* runs at the given access *period* with offset
        ``1 + (i % period)`` when *stagger* is set (classic interleaving;
        offsets repeat once ``bank_count`` exceeds *period*), otherwise
        all banks share offset 1.  Voltages default to the lowest supply
        meeting ``f / period`` (as :meth:`MemoryConfig.scaled`).

        Args:
            bank_count: Number of memory banks (>= 1).
            period: Access period shared by all banks.
            ports: Per-bank port count (``None`` = unlimited).
            capacity: Per-bank capacity (``None`` = unbounded).
            voltages: Optional per-bank supply override.
            stagger: Interleave bank offsets across the period.
        """
        if bank_count < 1:
            raise AllocationError(
                f"bank count must be >= 1, got {bank_count}"
            )
        if voltages is not None and len(voltages) != bank_count:
            raise AllocationError(
                f"{len(voltages)} voltages for {bank_count} banks"
            )
        default_v = (
            NOMINAL_VOLTAGE
            if period == 1
            else round(max_divisor_supply(period), 3)
        )
        banks = tuple(
            StorageLevel(
                name=f"bank{i}",
                kind="memory",
                capacity=capacity,
                ports=ports,
                divisor=period,
                offset=1 + (i % period if stagger else 0),
                voltage=(
                    float(voltages[i]) if voltages is not None else default_v
                ),
            )
            for i in range(bank_count)
        )
        return cls(
            levels=(StorageLevel(name="rf", kind="register"), *banks)
        )

    def to_dict(self) -> dict:
        """JSON-ready representation of the hierarchy."""
        return {
            "schema": STORAGE_SCHEMA,
            "levels": [lvl.to_dict() for lvl in self.levels],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "StorageSpec":
        """Rebuild a spec from :meth:`to_dict` output."""
        schema = data.get("schema", STORAGE_SCHEMA)
        if schema != STORAGE_SCHEMA:
            raise AllocationError(
                f"unknown storage spec schema {schema!r} "
                f"(expected {STORAGE_SCHEMA!r})"
            )
        return cls(
            levels=tuple(
                StorageLevel.from_dict(lvl) for lvl in data["levels"]
            )
        )


@dataclass(frozen=True)
class BankStructure:
    """Derived per-bank time structure the network/verify layers share.

    One era-chain per bank: a bank's timeline is quantised into *slots*
    between consecutive access steps; values can only enter or leave the
    bank at slot boundaries, and each boundary admits at most ``ports``
    simultaneous accesses (the bank-conflict time cuts).

    Attributes:
        index: Position in :attr:`StorageSpec.banks`.
        level: The bank's :class:`StorageLevel`.
        access_steps: Sorted access steps, or ``None`` if unrestricted.
        era: ``era[k]`` = number of access steps ``<= k`` for each step
            ``0 .. horizon + 1`` — the bank's era chain (``None`` when
            unrestricted; every step is its own boundary then).
    """

    index: int
    level: StorageLevel
    access_steps: tuple[int, ...] | None
    era: tuple[int, ...] | None

    @property
    def slot_count(self) -> int:
        """Number of inter-access slots in the era chain."""
        if self.access_steps is None:
            return 0
        return max(len(self.access_steps) - 1, 0)


def bank_structures(
    spec: StorageSpec, horizon: int
) -> tuple[BankStructure, ...]:
    """Per-bank era chains of *spec* over a block of *horizon* steps."""
    structures = []
    for index, bank in enumerate(spec.banks):
        times = bank.access_times(horizon)
        if times is None:
            structures.append(
                BankStructure(
                    index=index, level=bank, access_steps=None, era=None
                )
            )
            continue
        steps = tuple(sorted(times))
        era = []
        count = 0
        position = 0
        for k in range(horizon + 2):
            while position < len(steps) and steps[position] <= k:
                count += 1
                position += 1
            era.append(count)
        structures.append(
            BankStructure(
                index=index,
                level=bank,
                access_steps=steps,
                era=tuple(era),
            )
        )
    return tuple(structures)


def segment_bank_legal(
    lifetime: Lifetime,
    segment: Segment,
    access_times: frozenset[int] | None,
) -> bool:
    """Section-5.2 memory legality of *segment* against one bank.

    The splitter's rule evaluated for a single bank's access set: the
    value must reach the bank by the segment start (some access step
    between the write and the start) and every served read must be one
    of the bank's access steps (the live-out pseudo-read at block end is
    always legal).  ``None`` means the bank is unrestricted.
    """
    if access_times is None:
        return True
    reaches = any(
        lifetime.write_time <= m <= segment.start for m in access_times
    )
    if not reaches:
        return False
    return all(
        r in access_times or (lifetime.live_out and r == lifetime.end)
        for r in segment.reads
    )


def banking_forced_keys(
    spec: StorageSpec,
    lifetimes: Mapping[str, Lifetime],
    segments: Mapping[str, Iterable[Segment]],
    horizon: int,
) -> frozenset[tuple[str, int]]:
    """Segments forced to registers by bank fragmentation.

    A segment can be legal under the *union* of all banks' access steps
    (so the splitter leaves it unforced) while being legal in *no single
    bank* — its reads straddle two banks' access phases.  Such segments
    can never actually be memory-resident and receive a flow lower bound
    of 1, exactly like classically forced segments.  Empty for
    single-bank (degenerate) specs.
    """
    if spec.is_degenerate:
        return frozenset()
    per_bank = spec.bank_access_times(horizon)
    forced: set[tuple[str, int]] = set()
    for name, segs in segments.items():
        lifetime = lifetimes[name]
        for segment in segs:
            if segment.forced:
                continue  # already forced by the union rule
            if not any(
                segment_bank_legal(lifetime, segment, times)
                for times in per_bank
            ):
                forced.add(segment.key)
    return frozenset(forced)
