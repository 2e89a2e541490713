"""Schedule facts and cost intervals for the RA6xx rules.

RA602 re-derives each variable's lifetime from the schedule alone and
flags any disagreement with the declared lifetime set.  The derivation
here is deliberately independent of :mod:`repro.lifetimes.analysis`: the
two share only the timing conventions (an operation starting at step
``s`` with delay ``d`` reads at the top of ``s`` and writes at the bottom
of ``s + d - 1``; live-out values carry a pseudo-read at ``x + 1``), not
the code, which is what makes the cross-check meaningful.

Two pieces:

* :func:`liveness` — the write step and read steps of every value, as
  the scheduled operations imply them (RA602).
* :class:`Interval` — closed float intervals whose hulls the RA604
  energy analysis takes over composed arc costs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scheduling.schedule import Schedule

__all__ = [
    "liveness",
    "LivenessResult",
    "Interval",
]


@dataclass(frozen=True)
class LivenessResult:
    """The reads and writes of one scheduled block, keyed by step.

    All step indices follow the shared convention: steps run 1..x where
    ``x`` is the schedule length; live-out pseudo-reads happen at
    ``x + 1``.

    Attributes:
        writes_at: Step → variables written at its bottom edge.
        reads_at: Step → variables read at its top edge (the live-out
            pseudo-reads appear at ``x + 1``).
    """

    writes_at: Mapping[int, frozenset[str]]
    reads_at: Mapping[int, frozenset[str]]

    def lifetimes(self) -> dict[str, tuple[int, tuple[int, ...]]]:
        """Variable → ``(write_time, read_times)`` as the facts imply.

        Dead variables (defined, never read, not live out) get the same
        ``write_time + 1`` synthetic read the extractor's ``"extend"``
        policy assigns, so the two derivations are comparable
        term-for-term.
        """
        writes: dict[str, int] = {}
        reads: dict[str, list[int]] = {}
        for step, names in self.writes_at.items():
            for name in names:
                writes[name] = step
        for step, names in self.reads_at.items():
            for name in names:
                reads.setdefault(name, []).append(step)
        derived: dict[str, tuple[int, tuple[int, ...]]] = {}
        for name, write in writes.items():
            read_times = tuple(sorted(reads.get(name, ())))
            if not read_times:
                read_times = (write + 1,)
            derived[name] = (write, read_times)
        return derived


def liveness(schedule: "Schedule") -> LivenessResult:
    """Record where *schedule* writes and reads every value.

    Each operation writes its output at its write step and reads its
    inputs at its read step; every live-out value gets a pseudo-read at
    the block exit ``x + 1``.
    """
    block = schedule.block
    length = schedule.length
    writes_at: dict[int, set[str]] = {}
    reads_at: dict[int, set[str]] = {}
    for op in block:
        if op.output is not None:
            writes_at.setdefault(schedule.write_step(op), set()).add(
                op.output
            )
        for name in op.inputs:
            reads_at.setdefault(schedule.read_step(op), set()).add(name)
    for name in block.live_out:
        reads_at.setdefault(length + 1, set()).add(name)
    return LivenessResult(
        writes_at={s: frozenset(v) for s, v in writes_at.items()},
        reads_at={s: frozenset(v) for s, v in reads_at.items()},
    )


# ----------------------------------------------------------------------
# interval hulls (RA604 energy analysis)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Interval:
    """A closed interval ``[lo, hi]`` of floats.

    Degenerate (``lo > hi``) intervals are rejected at construction.
    """

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"interval [{self.lo}, {self.hi}] is empty")

    @classmethod
    def hull(
        cls, values: "Sequence[float] | np.ndarray"
    ) -> "Interval | None":
        """Smallest interval containing *values* (``None`` when empty).

        NaNs poison the hull to ``[-inf, inf]`` — the conservative
        answer, and the one that trips the finiteness check.  Each bound
        is the *first* extreme element, so a hull of signed zeros keeps
        the sign a left-to-right scan would.
        """
        array = np.asarray(values, dtype=np.float64)
        if not array.size:
            return None
        if np.isnan(array).any():
            return cls(-math.inf, math.inf)
        return cls(float(array[array.argmin()]), float(array[array.argmax()]))

    @property
    def finite(self) -> bool:
        return math.isfinite(self.lo) and math.isfinite(self.hi)

    def to_list(self) -> list[float]:
        """JSON-ready ``[lo, hi]`` pair."""
        return [self.lo, self.hi]
