"""Experiment harnesses, table/figure renderers, and fabric verification.

The :mod:`repro.analysis.static` subpackage is the static verification
suite (``repro check-fabric``): CDG deadlock-freedom, vectorized
reachability, routing-legality and vSwitch-addressing invariants proven
from routing tables alone — no packets sent.
"""

from repro.analysis.experiments import (
    FIG7_ENGINES,
    fig7_topologies,
    measure_path_computation,
    measured_full_reconfig_smps,
    run_fig7,
    table1_for_topology,
)
from repro.analysis.figures import PAPER_FIG7_SECONDS, Fig7Series, render_fig7
from repro.analysis.static import (
    Finding,
    StaticAnalysisReport,
    analyze_cloud,
    analyze_fabric,
    analyze_subnet,
    analyze_transition,
)
from repro.analysis.verification import (
    VerificationReport,
    verify_delivery,
    verify_sm_consistency,
    verify_subnet,
)
from repro.analysis.tables import render_table, render_table1

__all__ = [
    "FIG7_ENGINES",
    "fig7_topologies",
    "measure_path_computation",
    "measured_full_reconfig_smps",
    "run_fig7",
    "table1_for_topology",
    "PAPER_FIG7_SECONDS",
    "Fig7Series",
    "render_fig7",
    "Finding",
    "StaticAnalysisReport",
    "analyze_fabric",
    "analyze_subnet",
    "analyze_cloud",
    "analyze_transition",
    "VerificationReport",
    "verify_delivery",
    "verify_sm_consistency",
    "verify_subnet",
    "render_table",
    "render_table1",
]
