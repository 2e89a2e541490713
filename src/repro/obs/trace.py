"""Structured tracing core: spans, counters, gauges, and the collector.

This module is the zero-dependency heart of :mod:`repro.obs`.  It keeps a
*process-global* collector slot; instrumented code calls the module-level
:func:`span`, :func:`count` and :func:`gauge` functions unconditionally and
pays almost nothing when no collector is installed:

* :func:`span` returns a pre-allocated no-op context manager — no object is
  created on the disabled path;
* :func:`count` / :func:`gauge` are a single attribute load and an ``is
  None`` test.

When a collector *is* installed (usually via the :func:`collect` context
manager), spans nest into a per-thread tree of :class:`Span` nodes timed
with :func:`time.perf_counter`, and counters/gauges accumulate into
lock-protected dictionaries, so concurrent solves on different threads
aggregate into one trace safely.  A span must be entered and exited on the
same thread; spans opened by different threads form separate root trees.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any, Iterator

__all__ = [
    "CounterCollector",
    "Span",
    "TraceCollector",
    "collect",
    "count",
    "current",
    "enabled",
    "gauge",
    "install",
    "span",
    "uninstall",
]


class Span:
    """One timed region in a trace's span tree.

    Spans are created by :meth:`TraceCollector.span` (usually through the
    module-level :func:`span` helper) and act as context managers: entering
    records the start time and pushes the span on the calling thread's
    stack, exiting records the end time and attaches the span to its parent
    (or to the collector's roots when it is outermost).
    """

    __slots__ = ("name", "start", "end", "children", "_collector")

    def __init__(self, name: str, collector: "TraceCollector") -> None:
        self.name = name
        self.start = 0.0
        self.end = 0.0
        self.children: list[Span] = []
        self._collector = collector

    @property
    def duration(self) -> float:
        """Wall time spent inside the span, in seconds."""
        return self.end - self.start

    def find(self, name: str) -> "Span | None":
        """First span named *name* in this subtree (depth-first), or None."""
        if self.name == name:
            return self
        for child in self.children:
            found = child.find(name)
            if found is not None:
                return found
        return None

    def walk(self) -> Iterator[tuple[int, "Span"]]:
        """Yield ``(depth, span)`` pairs over the subtree, depth-first."""
        stack: list[tuple[int, Span]] = [(0, self)]
        while stack:
            depth, node = stack.pop()
            yield depth, node
            for child in reversed(node.children):
                stack.append((depth + 1, child))

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation: name, duration and children."""
        return {
            "name": self.name,
            "duration_s": self.duration,
            "children": [child.to_dict() for child in self.children],
        }

    def __enter__(self) -> "Span":
        self._collector._stack().append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end = time.perf_counter()
        collector = self._collector
        stack = collector._stack()
        stack.pop()
        if stack:
            stack[-1].children.append(self)
        else:
            collector._attach_root(self)
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, {self.duration * 1e3:.3f}ms)"


class _NoopSpan:
    """Shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NOOP_SPAN = _NoopSpan()


class TraceCollector:
    """Thread-safe sink for spans, counters and gauges of one trace.

    The collector is also the finished trace: after the traced region ends,
    read :attr:`roots`, :attr:`counters` and :attr:`gauges` (all return
    copies / immutable views) or feed the collector to the exporters in
    :mod:`repro.obs.export`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._roots: list[Span] = []
        self._counters: dict[str, int | float] = {}
        self._gauges: dict[str, Any] = {}

    # -- recording ------------------------------------------------------
    def span(self, name: str) -> Span:
        """Create an (unentered) span bound to this collector."""
        return Span(name, self)

    def add(self, name: str, amount: int | float = 1) -> None:
        """Increment counter *name* by *amount* (creating it at zero)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def set_gauge(self, name: str, value: Any) -> None:
        """Record gauge *name* = *value* (last write wins)."""
        with self._lock:
            self._gauges[name] = value

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _attach_root(self, span_node: Span) -> None:
        with self._lock:
            self._roots.append(span_node)

    # -- reading --------------------------------------------------------
    @property
    def roots(self) -> tuple[Span, ...]:
        """Completed top-level spans, in completion order."""
        with self._lock:
            return tuple(self._roots)

    @property
    def counters(self) -> dict[str, int | float]:
        """Snapshot copy of all counters."""
        with self._lock:
            return dict(self._counters)

    @property
    def gauges(self) -> dict[str, Any]:
        """Snapshot copy of all gauges."""
        with self._lock:
            return dict(self._gauges)

    def counter(self, name: str, default: int | float = 0) -> int | float:
        """Value of counter *name*, or *default* when never incremented."""
        with self._lock:
            return self._counters.get(name, default)

    def find(self, name: str) -> Span | None:
        """First root-tree span named *name* (depth-first), or ``None``."""
        for root in self.roots:
            found = root.find(name)
            if found is not None:
                return found
        return None


class CounterCollector(TraceCollector):
    """A collector that keeps counters and gauges but no spans.

    :meth:`span` returns the shared no-op span, so nothing accumulates
    per traced region: a long-lived process (the allocation server)
    can keep one installed for its whole life at constant size.
    """

    def span(self, name: str) -> _NoopSpan:  # type: ignore[override]
        """The shared no-op span: span trees are not kept."""
        return _NOOP_SPAN


#: Process-global collector slot; ``None`` means tracing is disabled.
_collector: TraceCollector | None = None
_install_lock = threading.Lock()


def enabled() -> bool:
    """Whether a collector is currently installed."""
    return _collector is not None


def current() -> TraceCollector | None:
    """The installed collector, or ``None`` when tracing is disabled."""
    return _collector


def install(collector: TraceCollector) -> None:
    """Install *collector* as the process-global trace sink."""
    global _collector
    with _install_lock:
        _collector = collector


def uninstall() -> None:
    """Remove the installed collector, disabling tracing."""
    global _collector
    with _install_lock:
        _collector = None


def span(name: str) -> Span | _NoopSpan:
    """A context manager timing *name*; a shared no-op when disabled."""
    collector = _collector
    if collector is None:
        return _NOOP_SPAN
    return collector.span(name)


def count(name: str, amount: int | float = 1) -> None:
    """Increment counter *name* on the installed collector, if any."""
    collector = _collector
    if collector is not None:
        collector.add(name, amount)


def gauge(name: str, value: Any) -> None:
    """Record gauge *name* on the installed collector, if any."""
    collector = _collector
    if collector is not None:
        collector.set_gauge(name, value)


@contextmanager
def collect() -> Iterator[TraceCollector]:
    """Install a fresh collector for the ``with`` body and yield it.

    The previously installed collector (if any) is restored on exit, so
    ``collect()`` blocks may nest; the inner block captures exclusively.
    """
    global _collector
    with _install_lock:
        previous = _collector
        collector = TraceCollector()
        _collector = collector
    try:
        yield collector
    finally:
        with _install_lock:
            _collector = previous
