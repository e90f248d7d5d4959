"""Workload generators: VM churn, migration patterns, traffic placement."""

from repro.workloads.chaos import ChaosReport, ChaosRunner
from repro.workloads.churn import ChurnReport, ChurnWorkload
from repro.workloads.migration_patterns import (
    ANY,
    INTER_POD,
    INTRA_LEAF,
    INTRA_POD,
    MigrationPlanner,
)
from repro.workloads.serve import ServiceChaosReport, ServiceChaosRunner
from repro.workloads.traffic import LinkLoadReport, all_to_all_flows, link_loads

__all__ = [
    "ChaosReport",
    "ChaosRunner",
    "ChurnReport",
    "ChurnWorkload",
    "MigrationPlanner",
    "INTRA_LEAF",
    "INTRA_POD",
    "INTER_POD",
    "ANY",
    "ServiceChaosReport",
    "ServiceChaosRunner",
    "LinkLoadReport",
    "all_to_all_flows",
    "link_loads",
]
