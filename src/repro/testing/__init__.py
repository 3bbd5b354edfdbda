"""Differential & metamorphic correctness subsystem.

Turns the repo's correctness story from ad-hoc assertions into reusable
machinery:

* :mod:`repro.testing.differential` — run one problem through EtaGraph,
  every baseline and the CPU oracle; diff labels bit-for-bit with
  first-divergence context,
* :mod:`repro.testing.metamorphic` — label-preserving graph transforms
  (vertex relabeling, edge shuffles, weight scaling, re-rooting) with
  expected-output adjusters,
* :mod:`repro.testing.invariants` — structural sanity checks of a
  traversal run (UDC partitioning, timeline monotonicity, cache counter
  conservation); also wired into the engine hot path via
  ``EtaGraphConfig(check_invariants=True)``,
* :mod:`repro.testing.strategies` — Hypothesis strategies for graphs and
  configurations (requires the ``[test]`` extra),
* :mod:`repro.testing.fixtures` — pytest fixtures re-exporting all of
  the above,
* :mod:`repro.testing.fuzz` / ``python -m repro.testing fuzz`` — a
  randomized sweep combining everything for CI smoke runs, and the
  sweep skeleton the chaos batteries share;
* ``python -m repro.testing {fuzz,chaos,heal,identity}`` — the one gate
  CLI over every sweep and bit-identity check.
"""

from repro.errors import InvariantViolation
from repro.testing.differential import (
    ALL_BASELINES,
    ALL_PROBLEMS,
    DifferentialReport,
    EngineReport,
    LabelDiff,
    baseline_engine,
    cc_reference,
    diff_labels,
    etagraph_engine,
    oracle_labels,
    run_differential_case,
)
from repro.testing.fuzz import FuzzReport, run_fuzz
from repro.testing.invariants import (
    check_cache,
    check_hierarchy_result,
    check_kernel_counters,
    check_profiler,
    check_stats,
    check_timeline,
    check_traversal_result,
    check_udc_partition,
)
from repro.testing.metamorphic import (
    TRANSFORMS_BY_PROBLEM,
    MetamorphicCase,
    make_case,
    relabel_vertices,
    reroot_symmetric,
    run_metamorphic_case,
    scale_weights,
    shuffle_edge_order,
)

__all__ = [
    "ALL_BASELINES",
    "ALL_PROBLEMS",
    "DifferentialReport",
    "EngineReport",
    "FuzzReport",
    "InvariantViolation",
    "LabelDiff",
    "MetamorphicCase",
    "TRANSFORMS_BY_PROBLEM",
    "baseline_engine",
    "cc_reference",
    "check_cache",
    "check_hierarchy_result",
    "check_kernel_counters",
    "check_profiler",
    "check_stats",
    "check_timeline",
    "check_traversal_result",
    "check_udc_partition",
    "diff_labels",
    "etagraph_engine",
    "make_case",
    "oracle_labels",
    "relabel_vertices",
    "reroot_symmetric",
    "run_differential_case",
    "run_fuzz",
    "run_metamorphic_case",
    "scale_weights",
    "shuffle_edge_order",
]
