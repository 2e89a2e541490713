"""Tracing core: span nesting, disabled fast path, thread safety."""

from __future__ import annotations

import threading
import tracemalloc

from repro.obs import trace as obs


class TestSpans:
    def test_nesting_builds_a_tree(self):
        with obs.collect() as trace:
            with obs.span("outer"):
                with obs.span("inner_a"):
                    pass
                with obs.span("inner_b"):
                    pass
        roots = trace.roots
        assert [root.name for root in roots] == ["outer"]
        assert [child.name for child in roots[0].children] == [
            "inner_a",
            "inner_b",
        ]
        assert roots[0].children[0].children == []

    def test_sequential_spans_become_sibling_roots(self):
        with obs.collect() as trace:
            with obs.span("first"):
                pass
            with obs.span("second"):
                pass
        assert [root.name for root in trace.roots] == ["first", "second"]

    def test_parent_duration_covers_children(self):
        with obs.collect() as trace:
            with obs.span("outer"):
                with obs.span("inner"):
                    sum(range(1000))
        outer = trace.roots[0]
        inner = outer.children[0]
        assert outer.duration >= inner.duration >= 0.0
        assert outer.start <= inner.start and inner.end <= outer.end

    def test_find_and_walk(self):
        with obs.collect() as trace:
            with obs.span("a"):
                with obs.span("b"):
                    with obs.span("c"):
                        pass
        assert trace.find("c").name == "c"
        assert trace.find("missing") is None
        depths = {name: depth for depth, node in trace.roots[0].walk()
                  for name in [node.name]}
        assert depths == {"a": 0, "b": 1, "c": 2}

    def test_span_survives_exceptions(self):
        with obs.collect() as trace:
            try:
                with obs.span("boom"):
                    raise ValueError("x")
            except ValueError:
                pass
        root = trace.roots[0]
        assert root.name == "boom"
        assert root.end >= root.start


class TestDisabledPath:
    def test_disabled_by_default(self):
        assert not obs.enabled()
        assert obs.current() is None

    def test_noop_span_is_a_shared_singleton(self):
        # The zero-allocation guarantee: span() returns the same pre-built
        # object every time while tracing is disabled.
        assert obs.span("a") is obs.span("b")
        with obs.span("ignored"):
            obs.count("ignored")
            obs.gauge("ignored", 1)

    def test_noop_path_allocates_nothing(self):
        for _ in range(10):  # warm up caches and the tracemalloc machinery
            with obs.span("warmup"):
                obs.count("warmup")
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for _ in range(1000):
                with obs.span("hot"):
                    obs.count("hot")
                    obs.gauge("hot", 1)
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert after - before < 512  # no per-call retained allocations

    def test_counts_outside_collect_are_dropped(self):
        obs.count("dropped", 5)
        with obs.collect() as trace:
            pass
        assert trace.counters == {}


class TestRegistry:
    def test_collect_restores_previous_collector(self):
        with obs.collect() as outer:
            obs.count("shared")
            with obs.collect() as inner:
                obs.count("shared")
            obs.count("shared")
        assert inner.counter("shared") == 1
        assert outer.counter("shared") == 2
        assert not obs.enabled()

    def test_install_uninstall(self):
        collector = obs.TraceCollector()
        obs.install(collector)
        try:
            assert obs.enabled()
            assert obs.current() is collector
            obs.count("manual", 3)
        finally:
            obs.uninstall()
        assert collector.counter("manual") == 3
        assert not obs.enabled()


class TestCountersAndGauges:
    def test_counters_accumulate(self):
        with obs.collect() as trace:
            obs.count("hits")
            obs.count("hits", 4)
            obs.count("misses", 0)
        assert trace.counters == {"hits": 5, "misses": 0}
        assert trace.counter("hits") == 5
        assert trace.counter("absent", -1) == -1

    def test_gauges_last_write_wins(self):
        with obs.collect() as trace:
            obs.gauge("depth", 1)
            obs.gauge("depth", 7)
        assert trace.gauges == {"depth": 7}

    def test_thread_safety(self):
        threads = 4
        increments = 500

        def worker(trace):
            for _ in range(increments):
                trace.add("shared")
            with trace.span("worker"):
                pass

        with obs.collect() as trace:
            pool = [
                threading.Thread(target=worker, args=(trace,))
                for _ in range(threads)
            ]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join()
        assert trace.counter("shared") == threads * increments
        # Each thread's top-level span lands as its own root.
        assert sum(r.name == "worker" for r in trace.roots) == threads


class TestCounterCollector:
    def test_counts_and_gauges_but_keeps_no_roots(self):
        collector = obs.CounterCollector()
        obs.install(collector)
        try:
            with obs.span("outer"):
                with obs.span("inner"):
                    obs.count("hits", 2)
                obs.gauge("depth", 3)
            obs.count("hits")
        finally:
            obs.uninstall()
        assert collector.counters == {"hits": 3}
        assert collector.gauges == {"depth": 3}
        assert collector.roots == ()
        assert collector.find("outer") is None

    def test_its_span_is_the_shared_noop(self):
        collector = obs.CounterCollector()
        assert collector.span("a") is obs.span("b")  # tracing disabled
