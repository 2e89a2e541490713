"""Percentiles and the result line of a benchmark run."""

from __future__ import annotations

import json
import math
import re
from typing import Sequence

#: Allowed shape of every metric name.
NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: A percentile is reported only with this many samples beyond it.
MIN_TAIL_SAMPLES = 10


def percentile(samples: Sequence[float], q: float) -> float | None:
    """The *q*-th percentile (0 < q < 100), linearly interpolated.

    Returns ``None`` when fewer than :data:`MIN_TAIL_SAMPLES` samples lie
    beyond it, where the estimate would rest on a handful of values.
    """
    n = len(samples)
    if n == 0 or n * (100.0 - q) / 100.0 < MIN_TAIL_SAMPLES:
        return None
    ordered = sorted(samples)
    position = (n - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, n - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def result_line(
    correct: bool,
    attempted: int,
    failed: int,
    metrics: dict[str, tuple[float, str]],
) -> str:
    """The JSON object the run prints as its last line."""
    for name in metrics:
        if not NAME.fullmatch(name):
            raise ValueError(f"bad metric name {name!r}")
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
    )
