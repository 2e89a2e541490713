"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.energy import ActivityEnergyModel, StaticEnergyModel
from repro.ir.values import DataVariable
from repro.lifetimes.intervals import Lifetime
from repro.service import pool


def make_lifetime(
    name: str,
    write: int,
    reads: tuple[int, ...] | int,
    live_out: bool = False,
    width: int = 16,
    trace: tuple[int, ...] = (),
) -> Lifetime:
    """Terse lifetime constructor used across test modules."""
    if isinstance(reads, int):
        reads = (reads,)
    return Lifetime(DataVariable(name, width, trace), write, reads, live_out)


@pytest.fixture(autouse=True)
def _no_worker_pool_outlives_a_test():
    """Stop the process's worker pool after each test.

    Workers fork with the parent's monkeypatches in place, so a pool
    left running would carry one test's patch into the next.  A no-op
    when no test started a pool.
    """
    yield
    pool.shutdown()


@pytest.fixture
def static_model() -> StaticEnergyModel:
    return StaticEnergyModel()


@pytest.fixture
def activity_model() -> ActivityEnergyModel:
    return ActivityEnergyModel()


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)
