"""Per-layer timing from outside the program.

:class:`LayerTracer` wraps the public functions of each layer (the names
in :data:`LAYERS`) at every place the program has bound them, and records
calls, total and self busy time per layer. Self time is a call's wall
time minus the time spent in wrapped calls it made, so the self times of
one op add up to the traced part of its latency. Nothing inside ``src/``
is modified; :meth:`LayerTracer.remove` restores every original binding.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable

#: (layer, module, attribute) triples: which callables make up a layer.
#: A dotted attribute names a method, wrapped on its class.
LAYERS = (
    ("manifest", "repro.service.manifest", "Manifest.build"),
    ("canonical", "repro.service.canonical", "canonicalize"),
    ("lintgate", "repro.service.lintgate", "LintGate.check"),
    ("cache.get", "repro.service.cache", "ResultCache.get"),
    ("cache.put", "repro.service.cache", "ResultCache.put"),
    ("executor", "repro.service.executor", "BatchExecutor.gather"),
    ("admission", "repro.service.admission", "AdmissionController.admit"),
    ("report", "repro.service.report", "build_batch_report"),
    ("network_builder", "repro.core.network_builder", "build_network"),
    ("network_builder", "repro.core.network_builder", "recost_network"),
    ("extract", "repro.core.solver", "extract_allocation"),
    ("banking", "repro.core.banking", "solve_with_banking"),
    ("flow.solve", "repro.flow.lower_bounds", "solve"),
    ("warm_start", "repro.flow.warm_start", "solve_warm"),
    ("validate", "repro.flow.validate", "check_flow"),
    ("certify", "repro.verify.certificates", "certify_flow"),
    ("dag.partition", "repro.dag.partition", "partition_graph"),
    ("dag.sweep", "repro.dag.operating_points", "sweep_operating_points"),
    ("dag.dispatch", "repro.dag.manifest_emit", "dispatch_blocks"),
    ("dag.report", "repro.dag.report", "build_dag_report"),
    ("dag.report", "repro.verify.oracles", "oracle_dag_reconciliation"),
)


class _Layer:
    __slots__ = ("calls", "total_s", "self_s", "per_call_s")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.per_call_s: list[float] = []


class LayerTracer:
    """Wraps the layer functions and accumulates their timings.

    Attributes:
        layers: Layer name → accumulated calls and times.
        counters: ``repro.obs`` counters read while tracing was on.
        pool_overhead_s: Per-gather pool overhead samples: gather wall
            minus the jobs' summed solve wall over the worker count
            (pool gathers only).
    """

    def __init__(self) -> None:
        self.layers: dict[str, _Layer] = {name: _Layer() for name, _, _ in LAYERS}
        self.counters: dict[str, float] = {}
        self.pool_overhead_s: list[float] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._sites: list[tuple[Any, str, Any, Any]] = []

    # -- patching ------------------------------------------------------
    def bind(self) -> None:
        """Find every binding of every layer callable, once."""
        if self._sites:
            return
        for layer, module_name, attribute in LAYERS:
            module = importlib.import_module(module_name)
            if "." in attribute:
                owner_name, name = attribute.split(".")
                owner = getattr(module, owner_name)
                original = owner.__dict__[name]
                self._sites.append(
                    (owner, name, original, self._wrap(layer, original))
                )
                continue
            original = getattr(module, attribute)
            wrapper = self._wrap(layer, original)
            # ``from module import f`` copies the binding, so every module
            # of the program holding the same object is patched too.
            for loaded in list(sys.modules.values()):
                if not getattr(loaded, "__name__", "").startswith("repro"):
                    continue
                for name, value in list(vars(loaded).items()):
                    if value is original:
                        self._sites.append((loaded, name, original, wrapper))
        obs = sys.modules["repro.obs"]
        self._sites.append(
            (obs, "collect", obs.collect, self._merging_collect(obs.collect))
        )

    def install(self) -> None:
        """Route every layer call through the timing wrappers."""
        self.bind()
        for owner, name, _, wrapper in self._sites:
            setattr(owner, name, wrapper)

    def remove(self) -> None:
        """Restore every original binding."""
        for owner, name, original, _ in self._sites:
            setattr(owner, name, original)

    # -- recording -----------------------------------------------------
    def _stack(self) -> list[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: str, original: Callable) -> Callable:
        record = self.layers[layer]
        lock = self._lock
        stack_of = self._stack
        observe = self._observe_gather if layer == "executor" else None

        def timed(*args, **kwargs):
            stack = stack_of()
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with lock:
                    record.calls += 1
                    record.total_s += elapsed
                    record.self_s += elapsed - children
                    record.per_call_s.append(elapsed)
            if observe is not None:
                observe(args[0], result, elapsed)
            return result

        timed.__wrapped__ = original
        return timed

    def _observe_gather(self, executor, results, elapsed: float) -> None:
        if executor.workers <= 1:
            return
        solve = sum(r.wall_time_s for r in results if not r.cached)
        with self._lock:
            self.pool_overhead_s.append(elapsed - solve / executor.workers)

    def _merging_collect(self, original: Callable) -> Callable:
        """``repro.obs.collect`` that also keeps the counters it saw.

        Paths that install their own collector (the dag command) would
        otherwise hide their counters from an outer one.
        """

        @contextmanager
        def collect():
            with original() as inner:
                yield inner
            self.add_counters(inner.counters)

        return collect

    def add_counters(self, counters: dict[str, float]) -> None:
        with self._lock:
            for name, value in counters.items():
                if isinstance(value, (int, float)):
                    self.counters[name] = self.counters.get(name, 0) + value

    # -- reading -------------------------------------------------------
    def table(self) -> dict[str, dict[str, float]]:
        """Compact per-layer table: calls, total/self ms, p50 per call."""
        with self._lock:
            return {
                name: {
                    "calls": layer.calls,
                    "total_ms": layer.total_s * 1e3,
                    "self_ms": layer.self_s * 1e3,
                    "p50_call_ms": (
                        statistics.median(layer.per_call_s) * 1e3
                        if layer.per_call_s
                        else 0.0
                    ),
                }
                for name, layer in self.layers.items()
            }
