"""Subnet manager (OpenSM-like): discovery, LIDs, routing, LFT distribution.

Deadlock analysis of a routing (CDG001/CDG002/VLC001-VLC004) lives in
:mod:`repro.analysis.static`."""

from repro.sm.discovery import DiscoveryReport, discover_subnet
from repro.sm.lft_distribution import LftDistributor, LftReport
from repro.sm.lid_manager import LidManager
from repro.sm.subnet_manager import ConfigureReport, SubnetManager
from repro.sm.traps import FabricEventManager, TrapRecord, TrapType

__all__ = [
    "DiscoveryReport",
    "discover_subnet",
    "LftDistributor",
    "LftReport",
    "LidManager",
    "ConfigureReport",
    "SubnetManager",
    "FabricEventManager",
    "TrapRecord",
    "TrapType",
]
