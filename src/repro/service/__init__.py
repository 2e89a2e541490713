"""Batch allocation service: canonical caching + parallel execution.

This package turns the single-shot solver into a high-throughput serving
layer (the ROADMAP's production-scale direction).  Three pillars:

* :mod:`repro.service.canonical` — a deterministic canonical form for
  :class:`~repro.core.problem.AllocationProblem` (stable, name-free
  variable ordering; normalised energy-model parameters) hashed into a
  content-addressed cache key, so instances identical up to variable
  renaming share one key;
* :mod:`repro.service.cache` — the one solution record
  (:class:`~repro.service.cache.SolveSummary`) and an in-memory LRU over
  canonical results with an optional on-disk JSON store, one layout for
  ``batch`` and ``serve``; every entry carries its provenance (which
  solver produced it and whether that solver is exact);
* :mod:`repro.service.executor` — a batch executor
  (``submit``/``map_blocks``/``gather``) over a ``ProcessPoolExecutor``
  with per-job timeouts that solves every miss with one call to the
  exact allocator; a solver error fails its job, which is never cached,
  retried or answered by an approximate fallback.

:mod:`repro.service.manifest` loads JSON workload manifests and
:mod:`repro.service.report` emits the versioned
``repro.service/batch-report/v1`` document the ``repro-alloc batch``
subcommand prints.

The long-lived serving layer sits on top: :mod:`repro.service.admission`
(token-bucket rate limiting + bounded fair queueing with explicit load
shedding) and :mod:`repro.service.server` (the asyncio HTTP gateway
behind ``repro-alloc serve``, with graceful drain and ``/healthz`` +
``/metrics`` endpoints), backed by the same
:class:`~repro.service.cache.ResultCache`.
"""

from repro.service.admission import AdmissionController, TokenBucket, Verdict
from repro.service.cache import ResultCache, SolveSummary
from repro.service.canonical import (
    CanonicalInstance,
    cache_key,
    canonical_form,
    canonicalize,
)
from repro.service.executor import BatchExecutor, JobResult
from repro.service.manifest import (
    BuiltWorkload,
    Manifest,
    WorkloadSpec,
    load_manifest,
    parse_manifest,
)
from repro.service.report import (
    REPORT_SCHEMA,
    build_batch_report,
    render_batch_text,
    report_to_json,
)
from repro.service.server import AllocationServer, ServerConfig, serve

__all__ = [
    "AdmissionController",
    "AllocationServer",
    "BatchExecutor",
    "BuiltWorkload",
    "CanonicalInstance",
    "JobResult",
    "Manifest",
    "REPORT_SCHEMA",
    "ResultCache",
    "ServerConfig",
    "SolveSummary",
    "TokenBucket",
    "Verdict",
    "WorkloadSpec",
    "build_batch_report",
    "cache_key",
    "canonical_form",
    "canonicalize",
    "load_manifest",
    "parse_manifest",
    "render_batch_text",
    "report_to_json",
    "serve",
]
