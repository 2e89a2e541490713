"""Differential verification subsystem.

Three layers of machine-checked confidence over the allocator (the
"verified, not trusted" tooling motivated by the complexity results in
PAPERS.md — spill/partition reasoning goes subtly wrong easily):

* :mod:`repro.verify.oracles` — per-instance invariant checkers: flow
  conservation, total-flow-equals-R, section 5.2 lower bounds re-derived
  from scratch, energy agreement, and program⇄report⇄simulator
  reconciliation;
* :mod:`repro.verify.certificates` — constructive optimality proofs via
  node potentials and complementary slackness;
* :mod:`repro.verify.differential` + :mod:`repro.verify.fuzz` — solver
  cross-checking (the kernel's flow validated and certified, its
  objective compared with the section-4 LP when scipy is present),
  baseline dominance, and the seeded fuzz harness behind
  ``repro-alloc fuzz``.
"""

from repro.verify.certificates import (
    CertificateError,
    certify_flow,
    certify_optimal,
    check_certificate,
    compute_potentials,
)
from repro.verify.differential import (
    CrossCheckOutcome,
    DifferentialMismatch,
    DominanceOutcome,
    baseline_dominance,
    cross_check,
)
from repro.verify.fuzz import (
    SCHEMA as FUZZ_SCHEMA,
    FuzzCase,
    render_report,
    run_case,
    run_fuzz,
    shrink_case,
)
from repro.verify.oracles import (
    ALLOCATION_ORACLES,
    OracleViolation,
    Violation,
    check_allocation,
    oracle_codegen_agreement,
    oracle_dag_reconciliation,
)

__all__ = [
    "CertificateError",
    "certify_flow",
    "certify_optimal",
    "check_certificate",
    "compute_potentials",
    "CrossCheckOutcome",
    "DifferentialMismatch",
    "DominanceOutcome",
    "baseline_dominance",
    "cross_check",
    "FUZZ_SCHEMA",
    "FuzzCase",
    "render_report",
    "run_case",
    "run_fuzz",
    "shrink_case",
    "ALLOCATION_ORACLES",
    "OracleViolation",
    "Violation",
    "check_allocation",
    "oracle_codegen_agreement",
    "oracle_dag_reconciliation",
]
