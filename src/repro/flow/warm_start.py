"""Warm-started minimum-cost-flow solves (cost-only re-solve cache).

Parameter sweeps (energy tables, memory voltage) re-solve the *same*
network topology under perturbed arc costs over and over.  This module
caches, per topology, everything a re-solve can legally reuse and
dispatches each request to the cheapest sound strategy:

* **replay** — identical costs: the cached optimal flow is returned
  verbatim (no solver work at all);
* **incremental** — same topology, different costs: the cached flow is
  still *feasible* (capacities, lower bounds and the shipped value are
  untouched by a cost change), so Klein's condition reduces re-solving to
  cancelling negative reduced-cost cycles in its residual network,
  seeded with the cached node potentials
  (:meth:`~repro.flow.kernel.FlowKernel.reoptimize`); work is
  proportional to how far the perturbation moved the optimum, not to
  instance size — see THEORY.md §7 for the complementary-slackness
  argument;
* **cold** — unknown topology: a full successive-shortest-path solve
  (the kernel's lockstep loop with one instance), whose
  flow/potential/CSR products are stored for next time.  Cold misses
  are solved one at a time here; batching them is
  :func:`repro.flow.ssp.solve_min_cost_flows`' job.

The cache key is a digest of the *topology only* — node and arc counts,
tail/head indices, capacities, lower bounds, terminals and flow value —
never the costs.  A capacity or structure change therefore misses the
cache and falls back to a cold solve automatically; there is no unsound
"almost the same network" path.

Array invariants: cached ``flows`` are ``int64[m]`` per original arc id,
``potential`` is ``float64[n]`` over dense node indices (``inf`` marks
nodes unreachable from the source — permanently so, since augmentation
never creates arcs leaving the reachable set), ``costs`` is the
``float64[m]`` cost column the entry was solved under, and the
:class:`~repro.flow.kernel.ResidualCSR` is shared with every future
kernel over the same topology.

Observability: every call lands in a ``solver.warm_start`` span and
bumps exactly one of ``solver.warm_start.cold`` /
``solver.warm_start.replay`` / ``solver.warm_start.incremental``;
cold solves also report the same ``ssp.*`` kernel counters (searches
included) as :func:`repro.flow.ssp.solve_min_cost_flow`, and
incremental re-solves
report ``warm_start.bf_passes`` and ``warm_start.cycles_canceled``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Hashable

import numpy as np

from repro.exceptions import GraphError
from repro.flow.graph import FlowNetwork, FlowResult
from repro.flow.kernel import FlowKernel, ResidualCSR
from repro.flow.ssp import count_kernel_work
from repro.flow.tolerances import COST_MATCH_TOLERANCE
from repro.obs import trace as obs

__all__ = ["WarmStartCache", "solve_warm", "topology_key"]


@dataclass
class _CacheEntry:
    """Reusable products of one solved (topology, costs) instance."""

    csr: ResidualCSR
    flows: np.ndarray
    potential: np.ndarray
    costs: np.ndarray


class WarmStartCache:
    """Bounded store of prior solves, keyed by :func:`topology_key`.

    One cache may serve many instances at once (a whole design-space
    sweep): each distinct topology — e.g. each register count, or the
    lower-bound transform of each forced-segment set — owns its own
    entry, and cost-only perturbations of any of them warm-start against
    it.  Eviction is insertion-ordered (FIFO) once ``max_entries`` is
    reached; correctness never depends on an entry being present.
    """

    def __init__(self, max_entries: int = 64) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._entries: dict[str, _CacheEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> _CacheEntry | None:
        """The entry stored under *key*, or ``None``."""
        return self._entries.get(key)

    def put(self, key: str, entry: _CacheEntry) -> None:
        """Store *entry* under *key*, evicting the oldest entry if full."""
        if key not in self._entries and len(self._entries) >= self.max_entries:
            self._entries.pop(next(iter(self._entries)))
        self._entries[key] = entry


def topology_key(
    network: FlowNetwork,
    source: Hashable,
    sink: Hashable,
    flow_value: int,
) -> str:
    """Digest of everything about an instance *except* its costs.

    Two instances share a key iff they have identical node/arc counts,
    arc endpoints (as dense indices, i.e. identical construction order),
    capacities, lower bounds, terminals and flow value — exactly the
    precondition under which a cached flow remains feasible and a cached
    CSR remains valid.
    """
    arrays = network.arrays()
    digest = hashlib.sha256()
    meta = np.array(
        [
            network.num_nodes,
            network.num_arcs,
            network.node_index(source),
            network.node_index(sink),
            flow_value,
        ],
        dtype=np.int64,
    )
    digest.update(meta.tobytes())
    digest.update(arrays.tails.tobytes())
    digest.update(arrays.heads.tobytes())
    digest.update(arrays.capacities.tobytes())
    digest.update(arrays.lowers.tobytes())
    return digest.hexdigest()


def solve_warm(
    network: FlowNetwork,
    source: Hashable,
    sink: Hashable,
    flow_value: int,
    cache: WarmStartCache,
) -> FlowResult:
    """Ship *flow_value* units at minimum cost, reusing *cache*.

    Same contract as :func:`repro.flow.ssp.solve_min_cost_flow` (no
    lower bounds — callers transform them away first) and bit-identical
    results: warm starts change the amount of work, never the optimum.
    The cache is updated in place with this solve's products.
    """
    if flow_value < 0:
        raise GraphError(f"flow value must be non-negative, got {flow_value}")
    if not network.has_node(source) or not network.has_node(sink):
        raise GraphError("source or sink is not a node of the network")
    if network.has_lower_bounds():
        raise GraphError(
            "network has lower-bounded arcs; use solve_with_lower_bounds()"
        )
    s = network.node_index(source)
    t = network.node_index(sink)
    if flow_value == 0 or s == t:
        return FlowResult(network, np.zeros(network.num_arcs, np.int64), 0)

    key = topology_key(network, source, sink, flow_value)
    entry = cache.get(key)
    costs = network.arrays().costs
    with obs.span("solver.warm_start"):
        if entry is None:
            kernel = FlowKernel(network)
            flows, potential, stats = kernel.solve(
                s, t, flow_value, labels=(source, sink)
            )
            obs.count("solver.warm_start.cold")
            obs.count("ssp.searches", kernel.searches)
            count_kernel_work(stats)
        elif (
            float(np.max(np.abs(entry.costs - costs), initial=0.0))
            <= COST_MATCH_TOLERANCE
        ):
            obs.count("solver.warm_start.replay")
            return FlowResult(network, entry.flows.copy(), flow_value)
        else:
            kernel = FlowKernel(network, csr=entry.csr)
            kernel.load_flows(entry.flows)
            flows, potential, stats = kernel.reoptimize(entry.potential)
            obs.count("solver.warm_start.incremental")
            obs.count("warm_start.bf_passes", stats.bf_passes)
            obs.count("warm_start.cycles_canceled", stats.cancellations)
        cache.put(
            key,
            _CacheEntry(
                csr=kernel.csr,
                flows=flows.copy(),
                potential=np.asarray(potential, dtype=np.float64).copy(),
                costs=costs.copy(),
            ),
        )
    return FlowResult(network, flows, flow_value)
