"""Storage hierarchy structure: StorageSpec, StorageLevel, era chains."""

import pytest

from repro.energy import MemoryConfig
from repro.exceptions import AllocationError
from repro.core.storage import (
    StorageLevel,
    StorageSpec,
    bank_structures,
    banking_forced_keys,
    segment_bank_legal,
)
from repro.lifetimes.splitting import split_lifetime
from tests.conftest import make_lifetime


# ---------------------------------------------------------------------------
# StorageLevel
# ---------------------------------------------------------------------------

def test_level_validation():
    with pytest.raises(AllocationError):
        StorageLevel(name="x", kind="cache")
    with pytest.raises(AllocationError):
        StorageLevel(name="x", divisor=0)
    with pytest.raises(AllocationError):
        StorageLevel(name="x", offset=-1)
    with pytest.raises(AllocationError):
        StorageLevel(name="x", voltage=0.0)
    with pytest.raises(AllocationError):
        StorageLevel(name="x", capacity=-1)
    with pytest.raises(AllocationError):
        StorageLevel(name="x", ports=0)
    with pytest.raises(AllocationError):
        StorageLevel(name="x", access_scale=0.0)


@pytest.mark.parametrize("voltage", [float("nan"), float("inf")])
def test_level_rejects_a_non_finite_voltage(voltage):
    with pytest.raises(AllocationError, match="positive and finite"):
        StorageLevel(name="x", voltage=voltage)
    with pytest.raises(AllocationError, match="positive and finite"):
        StorageSpec.banked(2, 1, voltages=[voltage, 3.0])


def test_level_access_times_and_config():
    free = StorageLevel(name="m")
    assert not free.restricted
    assert free.access_times(8) is None

    level = StorageLevel(name="m", divisor=2, offset=1, voltage=3.3)
    assert level.restricted
    # Access steps include the live-out boundary one past the block.
    assert level.access_times(8) == frozenset({1, 3, 5, 7, 9})
    config = level.memory_config()
    assert (config.divisor, config.voltage, config.offset) == (2, 3.3, 1)

    reg = StorageLevel(name="rf", kind="register", divisor=4)
    assert reg.access_times(8) is None  # register level is never gated


def test_level_dict_round_trip():
    level = StorageLevel(
        name="bank1", capacity=3, ports=2, divisor=3, offset=2,
        voltage=2.5, access_scale=1.25, idle_energy=0.1, transfer_cost=0.5,
    )
    assert StorageLevel.from_dict(level.to_dict()) == level


# ---------------------------------------------------------------------------
# StorageSpec structure and validation
# ---------------------------------------------------------------------------

def test_spec_requires_register_then_banks():
    rf = StorageLevel(name="rf", kind="register")
    mem = StorageLevel(name="mem")
    with pytest.raises(AllocationError):
        StorageSpec(levels=(rf,))  # no banks
    with pytest.raises(AllocationError):
        StorageSpec(levels=(mem, rf))  # register not first
    with pytest.raises(AllocationError):
        StorageSpec(  # second register level
            levels=(rf, StorageLevel(name="rf2", kind="register"), mem)
        )
    with pytest.raises(AllocationError):
        StorageSpec(levels=(rf, mem, StorageLevel(name="mem")))  # dup name


def test_canonical_spec_is_degenerate():
    spec = StorageSpec.canonical(MemoryConfig(divisor=2, voltage=3.0))
    assert spec.is_degenerate
    assert spec.reference is spec.banks[0]
    config = spec.memory_config()
    assert (config.divisor, config.voltage) == (2, 3.0)
    assert spec.register_level.kind == "register"


def test_banked_constructor_staggers_offsets():
    spec = StorageSpec.banked(3, 2)
    assert [b.offset for b in spec.banks] == [1, 2, 1]
    assert all(b.divisor == 2 for b in spec.banks)
    assert not spec.is_degenerate

    flat = StorageSpec.banked(3, 2, stagger=False)
    assert [b.offset for b in flat.banks] == [1, 1, 1]


def test_banked_default_voltage_tracks_period():
    assert StorageSpec.banked(2, 1).reference.voltage == 5.0
    assert StorageSpec.banked(2, 2).reference.voltage == pytest.approx(3.162)


def test_banked_validation():
    with pytest.raises(AllocationError):
        StorageSpec.banked(0, 2)
    with pytest.raises(AllocationError):
        StorageSpec.banked(2, 2, voltages=[3.0])
    spec = StorageSpec.banked(2, 2, voltages=[3.0, 2.5])
    assert [b.voltage for b in spec.banks] == [3.0, 2.5]


def test_union_access_times():
    spec = StorageSpec.banked(2, 2)  # offsets 1 and 2: union covers all
    assert spec.union_access_times(6) == frozenset({1, 2, 3, 4, 5, 6, 7})
    flat = StorageSpec.banked(2, 2, stagger=False)
    assert flat.union_access_times(6) == frozenset({1, 3, 5, 7})
    # Any unrestricted bank makes the union unrestricted.
    assert StorageSpec.banked(2, 1).union_access_times(6) is None


def test_access_topology_ignores_costs():
    a = StorageSpec.banked(2, 2, voltages=[3.0, 3.0], capacity=1)
    b = StorageSpec.banked(2, 2, voltages=[2.5, 2.5], ports=1)
    c = StorageSpec.banked(2, 3)
    assert a.access_topology() == b.access_topology()
    assert a.access_topology() != c.access_topology()


def test_spec_dict_round_trip():
    spec = StorageSpec.banked(3, 2, ports=1, capacity=2)
    doc = spec.to_dict()
    assert doc["schema"] == "repro/storage-spec/v1"
    assert StorageSpec.from_dict(doc) == spec
    with pytest.raises(AllocationError):
        StorageSpec.from_dict({"schema": "repro/storage-spec/v9",
                               "levels": doc["levels"]})


# ---------------------------------------------------------------------------
# Era chains
# ---------------------------------------------------------------------------

def test_bank_structures_era_chains():
    spec = StorageSpec.banked(2, 2)
    banks = bank_structures(spec, 6)
    assert [b.index for b in banks] == [0, 1]
    assert banks[0].access_steps == (1, 3, 5, 7)
    assert banks[1].access_steps == (2, 4, 6)
    # era[k] counts access steps <= k, over 0 .. horizon + 1.
    assert banks[0].era == (0, 1, 1, 2, 2, 3, 3, 4)
    assert banks[1].era == (0, 0, 1, 1, 2, 2, 3, 3)
    assert banks[0].slot_count == 3


def test_bank_structures_unrestricted_bank():
    spec = StorageSpec.banked(2, 1)
    banks = bank_structures(spec, 6)
    assert all(b.access_steps is None and b.era is None for b in banks)
    assert banks[0].slot_count == 0


# ---------------------------------------------------------------------------
# Bank legality
# ---------------------------------------------------------------------------

def test_segment_bank_legal():
    lifetime = make_lifetime("v", 1, (3, 5))
    segment = split_lifetime(lifetime)[0]  # 1 -> 3, serves the read at 3
    odd = frozenset({1, 3, 5})
    even = frozenset({2, 4, 6})
    assert segment_bank_legal(lifetime, segment, None)
    assert segment_bank_legal(lifetime, segment, odd)
    # The even bank can neither be reached by step 1 nor serve read 3.
    assert not segment_bank_legal(lifetime, segment, even)


def test_banking_forced_keys_degenerate_is_empty():
    spec = StorageSpec.canonical(MemoryConfig(divisor=2))
    lifetimes = {"v": make_lifetime("v", 1, (3, 5))}
    access = spec.union_access_times(6)
    segments = {"v": split_lifetime(lifetimes["v"], access_times=access)}
    assert banking_forced_keys(spec, lifetimes, segments, 6) == frozenset()


def test_banking_forced_keys_flags_phase_straddlers():
    # Written at step 1 (bank 0's phase), read at step 2 (bank 1's
    # phase): legal under the union of both staggered period-2 banks,
    # legal in neither single bank — bank 0 cannot serve the read,
    # bank 1 cannot be reached before the segment starts.
    spec = StorageSpec.banked(2, 2)
    lifetimes = {"v": make_lifetime("v", 1, 2)}
    access = spec.union_access_times(6)
    segments = {"v": split_lifetime(lifetimes["v"], access_times=access)}
    assert not any(s.forced for s in segments["v"])
    forced = banking_forced_keys(spec, lifetimes, segments, 6)
    assert ("v", 0) in forced
