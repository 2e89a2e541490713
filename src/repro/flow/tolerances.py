"""Shared floating-point tolerances of the flow solvers.

The flow kernel compares path lengths and reduced costs built from
float arc costs in several places (the Dijkstra passes, the
label-correcting fallback, the negative-cycle tests), so they must agree
on when a difference is "real" and when it is accumulated rounding.
This module is the single source of truth the docs cite (DESIGN.md,
"Performance model"):

* :data:`EPS` — absolute slack on shortest-path relaxations and on
  negative-cycle tests.  A relaxation (or a residual cycle) only counts
  when it improves by more than ``EPS``; this is what keeps
  label-correcting passes from ping-ponging on zero-cost cycles whose
  float sums differ by a few ULPs.
* :data:`COST_MATCH_TOLERANCE` — absolute slack when deciding whether
  two cost vectors of the same network are *identical* (the warm-start
  replay test in :mod:`repro.flow.warm_start`).

The certificate checker keeps its own, larger
:data:`repro.verify.certificates.DEFAULT_TOLERANCE` (1e-6): it bounds
drift over whole paths rather than single relaxations, and it must stay
independent so the verifier does not inherit solver assumptions.
"""

from __future__ import annotations

__all__ = ["EPS", "COST_MATCH_TOLERANCE"]

#: Absolute tolerance for shortest-path relaxations and residual-cycle
#: negativity tests in :mod:`repro.flow.kernel`.
EPS = 1e-9

#: Absolute per-arc tolerance under which two cost vectors over the same
#: topology are treated as the same instance (warm-start replay).
COST_MATCH_TOLERANCE = 0.0
