"""Voltage and frequency scaling of memory components.

Section 5.2 of the paper motivates restricted memory access times with
memory modules "operating at lower frequencies (and lower supply voltages
to save energy)".  This module provides the delay/voltage relation that
pairs a frequency divisor with a feasible scaled supply, and the
:class:`MemoryConfig` bundle the table-1 benchmark sweeps over.

The delay model is the classic long-channel CMOS relation used by
Chandrakasan et al. [3]:

    delay(V) ∝ V / (V - Vt)^2

so the maximum operating frequency at supply ``V`` relative to the nominal
supply ``V0`` is ``delay(V0) / delay(V)``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.energy.capacitance import NOMINAL_VOLTAGE
from repro.exceptions import EnergyModelError
from repro.lifetimes.splitting import periodic_access_times

__all__ = [
    "cmos_delay_factor",
    "max_divisor_supply",
    "scale_energy",
    "MemoryConfig",
]

#: Default CMOS threshold voltage (V) used by the delay model.
DEFAULT_THRESHOLD = 0.8


def cmos_delay_factor(
    voltage: float,
    nominal: float = NOMINAL_VOLTAGE,
    threshold: float = DEFAULT_THRESHOLD,
) -> float:
    """Gate-delay multiplier at *voltage* relative to *nominal* supply.

    Returns a value ``>= 1`` for sub-nominal supplies: a memory at this
    voltage is this many times slower.
    """
    if voltage <= threshold:
        raise EnergyModelError(
            f"supply {voltage} V at or below threshold {threshold} V"
        )
    def delay(v: float) -> float:
        return v / (v - threshold) ** 2

    return delay(voltage) / delay(nominal)


def max_divisor_supply(
    divisor: int,
    nominal: float = NOMINAL_VOLTAGE,
    threshold: float = DEFAULT_THRESHOLD,
    precision: float = 1e-6,
) -> float:
    """Lowest supply at which the memory still meets ``f / divisor``.

    Bisects the monotone delay relation: the returned voltage ``V``
    satisfies ``cmos_delay_factor(V) <= divisor`` with equality up to
    *precision*.  A divisor of 1 returns the nominal supply.
    """
    if divisor < 1:
        raise EnergyModelError(f"frequency divisor must be >= 1, got {divisor}")
    if divisor == 1:
        return nominal
    lo, hi = threshold + precision, nominal
    while hi - lo > precision:
        mid = (lo + hi) / 2
        if cmos_delay_factor(mid, nominal, threshold) <= divisor:
            hi = mid
        else:
            lo = mid
    return hi


def scale_energy(energy: float, old_voltage: float, new_voltage: float) -> float:
    """Rescale a ``C * V^2`` energy to a new supply voltage."""
    if old_voltage <= 0 or new_voltage <= 0:
        raise EnergyModelError("voltages must be positive")
    return energy * (new_voltage / old_voltage) ** 2


@dataclass(frozen=True)
class MemoryConfig:
    """A memory operating point: frequency divisor + supply voltage.

    Attributes:
        divisor: The memory accepts accesses every *divisor* control steps
            (``c`` in Problem 1; 1 = full speed).
        voltage: Memory supply at this operating point.
        offset: First access step of the periodic access pattern.
    """

    divisor: int = 1
    voltage: float = NOMINAL_VOLTAGE
    offset: int = 1

    def __post_init__(self) -> None:
        if self.divisor < 1:
            raise EnergyModelError(
                f"frequency divisor must be >= 1, got {self.divisor}"
            )
        # NaN fails every comparison, so it is rejected with inf.
        if not 0 < self.voltage < float("inf"):
            raise EnergyModelError(
                f"voltage must be positive and finite, got {self.voltage}"
            )
        if self.offset < 0:
            raise EnergyModelError(f"negative offset {self.offset}")

    @property
    def restricted(self) -> bool:
        """Whether access times actually constrain the allocator."""
        return self.divisor > 1

    def access_times(self, length: int) -> frozenset[int] | None:
        """Access-time set for a block of *length* steps (None if free)."""
        if not self.restricted:
            return None
        return periodic_access_times(self.divisor, length, self.offset)

    @classmethod
    def scaled(cls, divisor: int, offset: int = 1) -> "MemoryConfig":
        """Operating point with the lowest supply meeting ``f / divisor``."""
        return cls(
            divisor=divisor,
            voltage=round(max_divisor_supply(divisor), 3),
            offset=offset,
        )
