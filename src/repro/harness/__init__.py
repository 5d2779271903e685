"""Experiment harness: workloads, lock audits, interleaving counts.

The crash/fault torture runner is :mod:`repro.harness.torture` (not
re-exported here: it also runs as ``python -m repro.harness.torture``)."""

from repro.harness.lockaudit import AuditRow, audit_operation, figure2_rows
from repro.harness.loadgen import (
    LatencyRecorder,
    LoadgenReport,
    LoadgenSpec,
    run_loadgen,
)
from repro.harness.interleave import (
    Scenario,
    canonical_scenarios,
    count_permitted_interleavings,
    interleaving_table,
)
from repro.harness.report import format_ratio, format_table
from repro.harness.workload import (
    Operation,
    RunResult,
    WorkloadSpec,
    generate_operations,
    make_database,
    run_operations,
)

__all__ = [
    "AuditRow",
    "LatencyRecorder",
    "LoadgenReport",
    "LoadgenSpec",
    "Operation",
    "RunResult",
    "Scenario",
    "WorkloadSpec",
    "audit_operation",
    "canonical_scenarios",
    "count_permitted_interleavings",
    "figure2_rows",
    "format_ratio",
    "format_table",
    "generate_operations",
    "interleaving_table",
    "make_database",
    "run_loadgen",
    "run_operations",
]
