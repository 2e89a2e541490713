"""One long-lived pool of forked worker processes per process.

:class:`WorkerPool` keeps its workers alive across batches, so a pooled
gather pays for forking once per process rather than once per gather.
Each worker is a forked child waiting on its end of one duplex
:func:`multiprocessing.Pipe`: it runs every ``(function, payload)`` task
it receives and sends the reply back.  The parent waits on the pipes
and on the process sentinels together, so a reply, a dead worker and a
passed deadline all wake it:

* a reply frees its worker for the next task;
* a worker that dies before replying settles its task with a
  :class:`WorkerLost` (``late=False``) and is replaced;
* a worker still busy at its task's deadline is killed, settles the
  task with a :class:`WorkerLost` (``late=True``) and is replaced.

A worker starts clean.  It lets go of every socket the fork copied but
its own pipe: the parent's ends of the pool's pipes, and a server's
listener and client connections.  It uninstalls any :mod:`repro.obs`
collector it inherited: nothing in the worker would ever read it, and
a long-lived worker would grow it without bound.  It drops the
parent's signal handling: it ignores ``SIGINT`` (the parent's shutdown
ends it), dies on ``SIGTERM`` (a server's inherited handler swallowed
it), and writes no signal to the parent's event-loop wakeup fd (through
which a ``SIGTERM`` sent to a worker drained the server).  It exits on
end of file from its pipe, which is also what it reads when the parent
dies.

:func:`shared` returns the process's pool, started by the first pooled
gather and resized to each gather's worker count; :func:`shutdown`
stops it and runs at interpreter exit.  Workers are forked, so the pool
needs a POSIX host.
"""

from __future__ import annotations

import atexit
import math
import multiprocessing
import os
import pickle
import signal
import stat
import threading
import time
from collections import deque
from multiprocessing.connection import Connection, wait
from typing import Any, Callable, Iterator, Sequence

from repro.exceptions import ServiceError
from repro.obs import trace as obs

__all__ = ["WorkerLost", "WorkerPool", "shared", "shutdown"]

#: Seconds a worker gets to exit once its pipe is closed (or it closed
#: it), before it is killed.
_EXIT_GRACE_S = 2.0


class WorkerLost(ServiceError):
    """A task's worker died, or was killed at the task's deadline,
    before it replied.

    Attributes:
        pid: The lost worker's process id.
        late: Whether the pool killed it at the deadline.
    """

    def __init__(self, message: str, pid: int, late: bool) -> None:
        super().__init__(message)
        self.pid = pid
        self.late = late


class _Worker:
    """One forked worker and the parent's end of its pipe."""

    __slots__ = ("process", "conn")

    def __init__(self, process: Any, conn: Connection) -> None:
        self.process = process
        self.conn = conn


class WorkerPool:
    """Forked worker processes that outlive any one batch.

    Every method holds the pool's lock, so threads sharing a pool take
    turns.
    """

    def __init__(self) -> None:
        self._workers: list[_Worker] = []
        self._lock = threading.Lock()

    @property
    def pids(self) -> list[int]:
        """Process ids of the workers, in slot order."""
        with self._lock:
            return [worker.process.pid for worker in self._workers]

    def resize(self, count: int) -> None:
        """Start or stop workers until *count* are running."""
        if count < 1:
            raise ServiceError(f"a pool needs >= 1 worker, got {count}")
        with self._lock:
            while len(self._workers) < count:
                self._workers.append(self._spawn())
            surplus = self._workers[count:]
            del self._workers[count:]
            _stop(surplus)

    def close(self) -> None:
        """Stop every worker; the pool is empty afterwards."""
        with self._lock:
            workers, self._workers = self._workers, []
            _stop(workers)

    def run(
        self,
        function: Callable[[Any], Any],
        payloads: Sequence[Any],
        deadlines: Sequence[float | None],
    ) -> list[Any]:
        """Run ``function(payload)`` for every payload on the workers.

        Each task goes to the next free worker; tasks beyond the worker
        count wait for one.

        Args:
            function: A module-level callable (pickled by reference).
            payloads: One picklable argument per task.
            deadlines: Per task, seconds from its dispatch before its
                worker is killed (``None``: no deadline).

        Returns:
            Per task, in order: what *function* returned, the exception
            it (or pickling its payload or reply) raised, or a
            :class:`WorkerLost`.
        """
        replies: list[Any] = [None] * len(payloads)
        queue = deque(range(len(payloads)))
        busy: dict[_Worker, tuple[int, float]] = {}
        with self._lock:
            if queue and not self._workers:
                raise ServiceError("the pool has no workers; resize it first")
            try:
                while queue or busy:
                    idle = [w for w in self._workers if w not in busy]
                    while queue and idle:
                        index = queue.popleft()
                        try:
                            task = pickle.dumps(
                                (function, payloads[index]),
                                pickle.HIGHEST_PROTOCOL,
                            )
                        except Exception as exc:  # noqa: BLE001
                            replies[index] = exc
                            continue
                        worker = self._send(idle.pop(), task)
                        seconds = deadlines[index]
                        busy[worker] = (
                            index,
                            time.monotonic()
                            + (math.inf if seconds is None else seconds),
                        )
                    if busy:
                        for worker, reply in self._settle(busy):
                            replies[busy.pop(worker)[0]] = reply
            except BaseException:
                # A busy worker's reply would answer the wrong task.
                for worker in busy:
                    if worker in self._workers:
                        self._replace(worker)
                raise
        return replies

    # ------------------------------------------------------------------
    # internals (called with the lock held)
    # ------------------------------------------------------------------
    def _spawn(self) -> _Worker:
        """Fork one worker."""
        context = multiprocessing.get_context("fork")
        parent_end, child_end = context.Pipe()
        process = context.Process(
            target=_serve,
            args=(child_end,),
            name="repro-pool-worker",
            daemon=True,
        )
        process.start()
        child_end.close()
        return _Worker(process, parent_end)

    def _settle(
        self, busy: dict[_Worker, tuple[int, float]]
    ) -> Iterator[tuple[_Worker, Any]]:
        """Wait until a busy worker replies, dies or passes its task's
        deadline; yield each such worker with its task's reply.

        A worker that died or ran late is replaced before it is yielded.
        """
        due = min(at for _, at in busy.values())
        ready = wait(
            [worker.conn for worker in busy]
            + [worker.process.sentinel for worker in busy],
            None if due == math.inf else max(0.0, due - time.monotonic()),
        )
        now = time.monotonic()
        for worker, (_, at) in list(busy.items()):
            if worker.conn in ready:
                try:
                    data = worker.conn.recv_bytes()
                except (EOFError, OSError):
                    yield worker, self._lose(worker, late=False)
                    continue
                try:
                    reply = pickle.loads(data)
                except Exception as exc:  # noqa: BLE001 - its reply
                    reply = exc
                yield worker, reply
            elif worker.process.sentinel in ready:
                yield worker, self._lose(worker, late=False)
            elif now >= at:
                yield worker, self._lose(worker, late=True)

    def _send(self, worker: _Worker, task: bytes) -> _Worker:
        """Send *task* to *worker*, or to its successor if it died idle."""
        try:
            worker.conn.send_bytes(task)
        except OSError:
            worker = self._replace(worker)
            worker.conn.send_bytes(task)
        return worker

    def _lose(self, worker: _Worker, late: bool) -> WorkerLost:
        """Replace *worker* and describe why its task got no reply."""
        process = worker.process
        if late:
            message = f"worker {process.pid} was killed at its task's deadline"
        else:
            process.join(_EXIT_GRACE_S)
            message = (
                f"worker {process.pid} exited with code {process.exitcode} "
                "before replying"
            )
        lost = WorkerLost(message, process.pid, late)
        self._replace(worker)
        return lost

    def _replace(self, worker: _Worker) -> _Worker:
        """Kill and reap *worker*, then fork its successor in its slot."""
        _kill(worker)
        fresh = self._spawn()
        self._workers[self._workers.index(worker)] = fresh
        obs.count("service.pool.replaced")
        return fresh


def _kill(worker: _Worker) -> None:
    """Kill *worker* at once and release its pipe and sentinel."""
    worker.conn.close()
    if worker.process.exitcode is None:
        worker.process.kill()
    worker.process.join()
    worker.process.close()


def _stop(workers: list[_Worker]) -> None:
    """Let *workers* exit on end of file, killing any that linger."""
    for worker in workers:
        worker.conn.close()
    deadline = time.monotonic() + _EXIT_GRACE_S
    for worker in workers:
        worker.process.join(max(0.0, deadline - time.monotonic()))
        _kill(worker)


def _serve(conn: Connection) -> None:
    """A worker's life: run each task received on *conn* until end of
    file."""
    _release_inherited_sockets(keep=conn.fileno())
    obs.uninstall()
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            data = conn.recv_bytes()
        except (EOFError, OSError):
            return
        try:
            function, payload = pickle.loads(data)
            reply = function(payload)
        except Exception as exc:  # noqa: BLE001 - the reply carries it
            reply = exc
        try:
            data = pickle.dumps(reply, pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # noqa: BLE001 - the reply carries it
            data = pickle.dumps(ServiceError(f"unpicklable reply: {exc!r}"))
        try:
            conn.send_bytes(data)
        except OSError:
            return


def _release_inherited_sockets(keep: int) -> None:
    """Point every socket the fork copied, except *keep*, at /dev/null.

    Held here, the parent's ends of the pool's pipes would keep a
    sibling (or this worker) from reading end of file when the parent
    dies, and a server's listener and client connections would stay
    open until this worker exits.  The descriptor numbers stay taken,
    so an inherited object that still names one can never close a
    descriptor this worker opens later.
    """
    try:
        names = os.listdir("/dev/fd")
    except OSError:  # no descriptor listing on this host
        return
    null = os.open(os.devnull, os.O_RDWR)
    try:
        for name in names:
            fd = int(name)
            if fd <= 2 or fd in (keep, null):
                continue
            try:
                if stat.S_ISSOCK(os.fstat(fd).st_mode):
                    os.dup2(null, fd)
            except OSError:
                pass  # the listing's own descriptor, closed by now
    finally:
        os.close(null)


_shared: WorkerPool | None = None
_shared_lock = threading.Lock()


def shared(workers: int) -> WorkerPool:
    """The process's pool, started on first use, resized to *workers*."""
    global _shared
    with _shared_lock:
        if _shared is None:
            _shared = WorkerPool()
        pool = _shared
    pool.resize(workers)
    return pool


def shutdown() -> None:
    """Stop the process's pool, if one started; the next :func:`shared`
    call starts a new one."""
    global _shared
    with _shared_lock:
        pool, _shared = _shared, None
    if pool is not None:
        pool.close()


def _forget_after_fork() -> None:
    """A forked child owns none of its parent's workers."""
    global _shared, _shared_lock
    _shared, _shared_lock = None, threading.Lock()


atexit.register(shutdown)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_after_fork)
