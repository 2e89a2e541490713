"""Host-speed calibration for the benchmark's timings.

On a shared 2-core host the CPU speed a process gets drifts by 20% and
more within seconds, which moves every wall-clock latency with it. So
each timed op is bracketed (outside its timing) by samples of a fixed
pure-Python snippet owned by the benchmark, and the op's latency is
scaled by ``REFERENCE_MS / snippet time``: a latency in milliseconds at
the reference host speed. A change to the program cannot change the
snippet, so a real speed-up or slow-down of the program shows in full,
while host drift cancels. Raw timings are printed next to the scaled
ones.
"""

from __future__ import annotations

import json
import random
import statistics
import time

#: Median snippet time, in ms, on the reference host (2-core x86-64
#: Linux container, fast phase) that scaled latencies are expressed at.
REFERENCE_MS = 1.15

#: Snippet runs per calibration sample (their median is the sample).
RUNS = 3

_rng = random.Random(7)
_DATA = [_rng.random() for _ in range(3000)]
_DOC = {f"k{i}": [i, str(i), {"x": i * 0.5}] for i in range(300)}


def _snippet() -> None:
    totals: dict[int, float] = {}
    for i, value in enumerate(sorted(_DATA)):
        totals[i % 97] = totals.get(i % 97, 0.0) + value
    json.loads(json.dumps(_DOC))


def sample_ms(runs: int = RUNS) -> float:
    """Median wall time of *runs* snippet runs, in ms."""
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        _snippet()
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)
