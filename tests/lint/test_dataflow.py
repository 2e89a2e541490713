"""The schedule facts RA602 reads re-derive what the extractor declares.

The acceptance bar of the RA602 derivation: on real scheduled kernels,
the write and read steps recorded from the schedule must reproduce
``extract_lifetimes`` exactly (write time and read set per variable).
Interval hulls are checked for the poisoning behaviour RA604 leans on
(NaN/inf hulls are never silently finite).
"""

from __future__ import annotations

import math

import pytest

from repro.lifetimes import extract_lifetimes
from repro.lint.dataflow import Interval, liveness
from repro.scheduling.list_scheduler import list_schedule
from repro.workloads.registry import kernel_block

KERNELS = [("fir", 8), ("iir", 4), ("ewf", 0), ("dct", 0)]


def _schedule(name, taps):
    block = (
        kernel_block(name, taps=taps, seed=13)
        if taps
        else kernel_block(name, seed=13)
    )
    return list_schedule(block)


@pytest.mark.parametrize("name,taps", KERNELS)
def test_liveness_reproduces_extractor(name, taps):
    schedule = _schedule(name, taps)
    derived = liveness(schedule).lifetimes()
    declared = {
        var: (lt.write_time, tuple(lt.read_times))
        for var, lt in extract_lifetimes(schedule).items()
    }
    assert derived == declared


def test_interval_hull_and_poisoning():
    assert Interval.hull([1.0, -2.0, 3.0]) == Interval(-2.0, 3.0)
    assert Interval.hull([]) is None
    poisoned = Interval.hull([1.0, math.nan])
    assert poisoned is not None and not poisoned.finite
    inf_hull = Interval.hull([1.0, math.inf])
    assert not inf_hull.finite
    assert Interval(-1.0, 2.0).to_list() == [-1.0, 2.0]
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)
