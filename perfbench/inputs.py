"""Seeded inputs of the benchmark workloads.

Every input is a pure function of the run seed and an op index, so one
seed always gives byte-identical manifests and the same request
schedule, and a longer run only extends the sequence a shorter run saw.
The program under test receives only these generated documents.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

SCHEMA = "repro.service/manifest/v2"

#: (kernel, memory divisor) of the batch kernel job, one per manifest in
#: turn. Divisors above 1 restrict memory access times, which puts lower
#: bounds on the network. ewf runs at divisor 1 only: at divisors 2 and 3
#: it costs 2-3x any other op, and those ops would form a separate 17%
#: tail inside which op_p90_ms would fall, moving it run to run.
KERNEL_ROTATION = (
    ("fir", 1), ("iir", 1), ("ewf", 1), ("dct", 1),
    ("fir", 2), ("iir", 2), ("dct", 2),
    ("fir", 3), ("iir", 3), ("dct", 3),
)

#: Register file of the kernel jobs: the smallest size that is feasible
#: for every kernel at divisors up to 3 (iir at divisor 3 needs 8).
KERNEL_REGISTERS = 8

#: Task graphs the dag workload alternates between.
DAG_GRAPHS = ("diamond", "fanin")

#: Range of the seeded ``--slack`` (deadline over nominal makespan) of a
#: dag op. The graph ``--seed`` only sets block value traces, which
#: neither energy model reads, so the slack is what makes one seed's dag
#: problems differ from another's: it moves the deadline, hence the
#: operating points chosen and the block energies dispatched. The cost
#: of an op hardly depends on it.
DAG_SLACK = (1.2, 2.2)

#: Request kinds of one 20-request block of the serve mix, shuffled per
#: block. The shares are a synthetic choice; no measured traffic is
#: behind them. Each is set by what it must give a 16 s run at 20 req/s:
#: fresh (10) keeps the lint-gate and solve path the main cost; repeats
#: (6, about 96 a run) give the cache and lint-cache reads enough
#: samples for a steady hit ratio; sweep points (3, 48 a run) give the
#: warm-start ratio enough incremental re-solves; one bad manifest (16 a
#: run) gives more than ten 422s to check.
SERVE_BLOCK = ("fresh",) * 10 + ("repeat",) * 6 + ("sweep",) * 3 + ("bad",)

#: Kernel the serve sweep requests re-solve at ever-new memory voltages.
SWEEP_KERNEL = "ewf"

#: A manifest the admission lint gate proves infeasible (RA601): zero
#: registers under a divisor-2 memory. Every copy must be answered 422.
BAD_MANIFEST = {
    "schema": SCHEMA,
    "jobs": [{"kind": "figure", "name": "fig3", "registers": 0, "divisor": 2}],
}


def _rng(seed: int, *parts: object) -> random.Random:
    """An independent generator for one (seed, purpose, index) tuple."""
    return random.Random(":".join(str(part) for part in (seed, *parts)))


def _draw(rng: random.Random) -> int:
    return rng.randrange(1, 2**31)


def job_seed(seed: int, *parts: object) -> int:
    """A job seed for one (run seed, purpose, index) tuple."""
    return _draw(_rng(seed, *parts))


def encode(document: dict) -> bytes:
    """Canonical compact JSON bytes of a document."""
    return json.dumps(document, sort_keys=True, separators=(",", ":")).encode()


def batch_manifest(seed: int, index: int) -> dict:
    """The *index*-th 8-job manifest of the batch workloads.

    Six serving-shaped random jobs, one registry kernel (rotating kernel
    and divisor so restricted-memory lower bounds occur) and one small
    2-bank storage job. Every job is distinct, so each is a cache miss.
    """
    rng = _rng(seed, "batch", index)
    kernel, divisor = KERNEL_ROTATION[index % len(KERNEL_ROTATION)]
    return {
        "schema": SCHEMA,
        "defaults": {"model": "static"},
        "jobs": [
            {
                "kind": "random",
                "label": "rand",
                "count": 6,
                "variables": 60,
                "horizon": 24,
                "registers": 6,
                "seed": _draw(rng),
            },
            {
                "kind": "kernel",
                "name": kernel,
                "registers": KERNEL_REGISTERS,
                "divisor": divisor,
                "seed": _draw(rng),
            },
            {
                "kind": "random",
                "label": "banked",
                "variables": 12,
                "horizon": 12,
                "registers": 3,
                "seed": _draw(rng),
                # Full-speed banks: any register count stays feasible.
                "storage": {"banks": 2, "period": 1},
            },
        ],
    }


def fresh_manifest(job_seed: int) -> dict:
    """A 2-job random manifest: a lint check, a solve and a cache write."""
    return {
        "schema": SCHEMA,
        "jobs": [
            {
                "kind": "random",
                "label": "fresh",
                "count": 2,
                "variables": 30,
                "horizon": 16,
                "registers": 4,
                "seed": job_seed,
            }
        ],
    }


def sweep_manifest(kernel_seed: int, point: int) -> dict:
    """Sweep point *point*: one kernel at a memory voltage no earlier
    point used, so it misses the result cache but keeps the network
    topology, which the warm-start cache re-solves incrementally."""
    return {
        "schema": SCHEMA,
        "jobs": [
            {
                "kind": "kernel",
                "name": SWEEP_KERNEL,
                "registers": KERNEL_REGISTERS,
                "seed": kernel_seed,
                "voltage": round(3.0 + 0.001 * point, 4),
            }
        ],
    }


@dataclass(frozen=True)
class Request:
    """One scheduled serve request.

    Attributes:
        index: Position in the schedule.
        kind: ``fresh``, ``repeat``, ``sweep`` or ``bad``.
        due_s: Send time relative to the start of the load.
        body: The manifest bytes to POST.
        first: For a repeat, the index of the request it repeats.
    """

    index: int
    kind: str
    due_s: float
    body: bytes
    first: int | None = None

    @property
    def expected_status(self) -> int:
        return 422 if self.kind == "bad" else 200

    @property
    def job_count(self) -> int:
        return sum(job.get("count", 1) for job in json.loads(self.body)["jobs"])


def serve_schedule(seed: int, count: int, rate: float) -> list[Request]:
    """The first *count* requests of the open-loop serve mix at *rate*/s.

    Requests are evenly spaced. A repeat re-sends a fresh request at
    least three positions older, so the original has normally been
    answered (and cached) by the time the repeat is due.
    """
    rng = _rng(seed, "serve")
    kernel_seed = _draw(rng)
    fresh: list[Request] = []
    requests: list[Request] = []
    sweeps = 0
    block: list[str] = []
    for index in range(count):
        if not block:
            block = list(SERVE_BLOCK)
            rng.shuffle(block)
        kind = block.pop()
        due = index / rate
        eligible = [r for r in fresh if r.index <= index - 3]
        if kind == "repeat" and not eligible:
            kind = "fresh"
        if kind == "fresh":
            request = Request(index, kind, due, encode(fresh_manifest(_draw(rng))))
            fresh.append(request)
        elif kind == "repeat":
            original = rng.choice(eligible)
            request = Request(index, kind, due, original.body, original.index)
        elif kind == "sweep":
            request = Request(
                index, kind, due, encode(sweep_manifest(kernel_seed, sweeps))
            )
            sweeps += 1
        else:
            request = Request(index, kind, due, encode(BAD_MANIFEST))
        requests.append(request)
    return requests


def dag_argv(seed: int, index: int) -> list[str]:
    """``repro-alloc`` arguments of the *index*-th dag op."""
    rng = _rng(seed, "dag", index)
    graph_seed = _draw(rng)
    slack = round(rng.uniform(*DAG_SLACK), 3)
    return [
        "dag", DAG_GRAPHS[index % len(DAG_GRAPHS)],
        "--seed", str(graph_seed), "--slack", str(slack), "--format", "json",
    ]
