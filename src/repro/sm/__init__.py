"""Subnet manager (OpenSM-like): discovery, LIDs, routing, LFT distribution,
deadlock analysis."""

from repro.sm.deadlock import (
    find_cycle,
    is_deadlock_free,
    routing_dependencies,
    transition_is_deadlock_free,
)
from repro.sm.discovery import DiscoveryReport, discover_subnet
from repro.sm.lft_distribution import DistributionReport, LftDistributor
from repro.sm.lid_manager import LidManager
from repro.sm.subnet_manager import ConfigureReport, SubnetManager
from repro.sm.traps import FabricEventManager, TrapRecord, TrapType

__all__ = [
    "routing_dependencies",
    "is_deadlock_free",
    "transition_is_deadlock_free",
    "find_cycle",
    "DiscoveryReport",
    "discover_subnet",
    "DistributionReport",
    "LftDistributor",
    "LidManager",
    "ConfigureReport",
    "SubnetManager",
    "FabricEventManager",
    "TrapRecord",
    "TrapType",
]
