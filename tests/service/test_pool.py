"""The process-wide worker pool: reuse, resizing, clean starts, exits."""

from __future__ import annotations

import multiprocessing
import os
import signal
import socket
import subprocess
import sys
import textwrap
import time

import pytest

from repro import obs
from repro.core.problem import AllocationProblem
from repro.exceptions import ServiceError
from repro.service import BatchExecutor, pool
from repro.workloads.random_blocks import random_lifetimes, spawn_rng

from .conftest import REPO_ROOT, running


def _has_no_collector(_payload) -> bool:
    return obs.current() is None


def _pid(_payload) -> int:
    return os.getpid()


def _fail(message: str) -> None:
    raise ValueError(message)


def _exit(code: int) -> None:
    os._exit(code)


def test_a_worker_forked_under_a_collector_starts_without_one():
    with obs.collect() as trace:
        workers = pool.shared(1)
        assert workers.run(_has_no_collector, [None], [None]) == [True]
        assert obs.current() is trace


def test_a_worker_holds_no_socket_of_its_parent():
    mine, peer = socket.socketpair()
    with mine, peer:
        pool.shared(1)  # forked while both ends are open here
        mine.close()
        peer.settimeout(10)
        # End of file at once: no worker kept a copy of `mine` open.
        assert peer.recv(1) == b""


def test_a_worker_ignores_sigint_and_dies_on_sigterm():
    # Fork under a parent that swallows SIGTERM, as a server's event
    # loop does.
    previous = signal.signal(signal.SIGTERM, lambda *_: None)
    try:
        workers = pool.shared(1)
    finally:
        signal.signal(signal.SIGTERM, previous)
    (pid,) = workers.pids
    os.kill(pid, signal.SIGINT)
    assert workers.run(_pid, [None], [None]) == [pid]
    os.kill(pid, signal.SIGTERM)
    deadline = time.monotonic() + 10
    while running(pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not running(pid)


def test_the_shared_pool_is_reused_and_resized():
    workers = pool.shared(2)
    first = workers.pids
    assert len(first) == 2 and all(running(pid) for pid in first)
    assert pool.shared(2) is workers and workers.pids == first
    # Four tasks on two workers: each takes the next one when it is free.
    assert set(workers.run(_pid, [None] * 4, [None] * 4)) <= set(first)
    pool.shared(1)
    assert workers.pids == first[:1]
    assert not running(first[1])
    pool.shared(3)
    assert workers.pids[0] == first[0] and len(workers.pids) == 3
    with pytest.raises(ServiceError, match="worker"):
        workers.resize(0)


def test_a_task_error_is_its_reply_and_keeps_the_worker():
    workers = pool.shared(1)
    (pid,) = workers.pids
    (reply,) = workers.run(_fail, ["planted"], [None])
    assert isinstance(reply, ValueError) and str(reply) == "planted"
    assert workers.pids == [pid]


def test_a_dead_worker_is_replaced():
    workers = pool.shared(1)
    (pid,) = workers.pids
    with obs.collect() as trace:
        (reply,) = workers.run(_exit, [7], [None])
    assert isinstance(reply, pool.WorkerLost) and not reply.late
    assert reply.pid == pid and "exited with code 7" in str(reply)
    assert trace.counters["service.pool.replaced"] == 1
    (fresh,) = workers.pids
    assert fresh != pid and not running(pid) and running(fresh)
    assert workers.run(_pid, [None], [None]) == [fresh]


def test_shutdown_stops_every_worker_and_is_idempotent():
    pids = pool.shared(2).pids
    pool.shutdown()
    pool.shutdown()
    assert not any(running(pid) for pid in pids)


def test_workers_exit_when_their_parent_dies():
    script = textwrap.dedent(
        """
        import os

        from repro.core.problem import AllocationProblem
        from repro.service import BatchExecutor, pool
        from repro.workloads.random_blocks import random_lifetimes, spawn_rng

        problems = [
            AllocationProblem(
                random_lifetimes(spawn_rng(3, "exit", case), 8, 12), 3, 12
            )
            for case in range(4)
        ]
        results = BatchExecutor(workers=2, cache=None).map_blocks(problems)
        assert all(result.ok for result in results)
        print(*pool.shared(2).pids, flush=True)
        os._exit(0)
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), env.get("PYTHONPATH", "")]
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", script],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
    )
    try:
        pids = [int(pid) for pid in proc.stdout.readline().split()]
        assert proc.wait(timeout=60) == 0
    finally:
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert len(pids) == 2
    time.sleep(2.0)
    alive = [pid for pid in pids if running(pid)]
    for pid in alive:
        os.kill(pid, signal.SIGKILL)
    assert not alive


def test_an_inline_gather_starts_no_worker():
    # The first pooled gather starts the pool; nothing else does.
    problem = AllocationProblem(
        random_lifetimes(spawn_rng(3, "inline"), 8, 12), 3, 12
    )
    assert BatchExecutor(workers=1, cache=None).map_blocks([problem])[0].ok
    assert multiprocessing.active_children() == []
