"""Static verification of fabric routing state — no packets sent.

Layer 1 of the repository's static-analysis suite (layer 2 is the
``tools.lint`` determinism linter): given a topology and routing tables,
prove loop-freedom, black-hole-freedom, reachability, deadlock-freedom
(channel-dependency-graph acyclicity on every virtual lane; a single-VL
engine is the one-lane case), Up*/Down* and dimension-order legality, vSwitch LID-table
consistency, and section VI-D skyline disjointness for concurrent
migrations. See docs/STATIC_ANALYSIS.md.
"""

from repro.analysis.static.analyzer import (
    analyze_cloud,
    analyze_fabric,
    analyze_subnet,
    analyze_transition,
)
from repro.analysis.static.checks import (
    FabricSnapshot,
    check_dor_order,
    check_reachability,
    check_skyline_disjointness,
    check_updn_legality,
    check_vswitch_lids,
)
from repro.analysis.static.findings import RULES, Finding, StaticAnalysisReport
from repro.analysis.static.suite import (
    VL_ENGINES,
    FabricCheckCase,
    FabricCheckResult,
    corrupt_vl_assignment,
    default_cases,
    inject_forwarding_loop,
    run_case,
    run_matrix,
)
from repro.analysis.static.vl_checks import (
    check_deadlock_freedom,
    check_transition_deadlock,
    check_vl_capacity,
    check_vl_consistency,
    lane_dependencies,
)

__all__ = [
    "Finding",
    "StaticAnalysisReport",
    "RULES",
    "FabricSnapshot",
    "FabricCheckCase",
    "FabricCheckResult",
    "VL_ENGINES",
    "corrupt_vl_assignment",
    "default_cases",
    "inject_forwarding_loop",
    "run_case",
    "run_matrix",
    "analyze_fabric",
    "analyze_subnet",
    "analyze_cloud",
    "analyze_transition",
    "check_reachability",
    "check_deadlock_freedom",
    "check_transition_deadlock",
    "check_updn_legality",
    "check_dor_order",
    "check_vswitch_lids",
    "check_skyline_disjointness",
    "lane_dependencies",
    "check_vl_consistency",
    "check_vl_capacity",
]
