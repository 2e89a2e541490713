"""Observability: structured tracing, solver counters, and run reports.

Zero-dependency instrumentation substrate for the whole allocator.  The hot
paths (:mod:`repro.flow.ssp`, :mod:`repro.core.network_builder`,
:mod:`repro.core.solver`, :mod:`repro.core.pipeline`) call into this package unconditionally; when no
collector is installed every call is a no-op costing one attribute load, so
tracing-off overhead is unmeasurable (<2% on the solver-scaling bench, see
``tests/obs``).

Span / counter API
==================

``span(name)``
    Context manager timing a region with :func:`time.perf_counter`.  Spans
    nest into a per-thread tree; when tracing is disabled a shared no-op
    span is returned and **nothing is allocated**.

``count(name, amount=1)``
    Increment a named monotonic counter (e.g. ``"ssp.dijkstra_pops"``).
    Counters accumulate across every solve captured by the collector.

``gauge(name, value)``
    Record a point-in-time value (last write wins), e.g. the density-region
    count of the most recently built network.

``collect()``
    Context manager installing a fresh :class:`TraceCollector` process-wide
    for the body and yielding it; the previous collector is restored on
    exit.  ``install(collector)`` / ``uninstall()`` are the non-scoped
    variants, ``enabled()`` / ``current()`` inspect the registry.  A
    :class:`CounterCollector` keeps counters and gauges but no spans —
    what a long-lived process installs so nothing grows per request.

Example::

    from repro import allocate_block, fir_filter, obs

    with obs.collect() as trace:
        allocate_block(fir_filter(taps=8), register_count=4)
    print(trace.counters["ssp.augmenting_paths"])
    print(obs.format_trace(trace))          # human-readable report
    print(obs.trace_to_json(trace))         # machine-readable report

Instrumented names
==================

Counters: ``ssp.solves``, ``ssp.dijkstra_pops``,
``ssp.dijkstra_relaxations``, ``ssp.augmenting_paths``,
``ssp.potential_updates``, ``ssp.searches``, ``network.builds``,
``network.nodes_built``, ``network.arcs_built``.  Gauges:
``network.density_regions``.  Spans: ``pipeline.schedule``,
``pipeline.build_problem``, ``pipeline.allocate``, ``pipeline.reallocate``,
``solver.build_network``, ``solver.flow_solve``, ``solver.validate``,
``solver.extract``.

Exporters and run reports
=========================

:mod:`repro.obs.export` turns a finished trace into a dict / JSON / CSV /
aligned text table; :mod:`repro.obs.profile` wraps a full pipeline run into
a versioned *run report* (the ``repro.obs/run-report/v1`` schema emitted by
``repro-alloc profile`` and the benchmark hook in
``benchmarks/conftest.py``).
"""

from repro.obs.export import (
    counter_group,
    flatten_spans,
    format_trace,
    metrics_text,
    trace_to_csv,
    trace_to_dict,
    trace_to_json,
)
from repro.obs.profile import (
    SCHEMA,
    build_report,
    format_report,
    profile_block,
    report_to_csv,
    report_to_json,
)
from repro.obs.trace import (
    CounterCollector,
    Span,
    TraceCollector,
    collect,
    count,
    current,
    enabled,
    gauge,
    install,
    span,
    uninstall,
)

__all__ = [
    "CounterCollector",
    "SCHEMA",
    "Span",
    "TraceCollector",
    "build_report",
    "collect",
    "count",
    "counter_group",
    "current",
    "enabled",
    "flatten_spans",
    "format_report",
    "format_trace",
    "gauge",
    "install",
    "metrics_text",
    "profile_block",
    "report_to_csv",
    "report_to_json",
    "span",
    "trace_to_csv",
    "trace_to_dict",
    "trace_to_json",
    "uninstall",
]
