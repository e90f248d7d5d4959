"""Virtualization layer: VMs, hypervisors, the cloud manager and the SA
path-record cache."""

from repro.virt.vm import VirtualMachine, VmState
from repro.virt.hypervisor import Hypervisor
from repro.virt.sa_cache import (
    PathRecord,
    SaPathCache,
    SaQueryStats,
    SubnetAdministrator,
)
from repro.virt.connections import AuditReport, Connection, ConnectionManager
from repro.virt.shared_port_fleet import SharedPortFleet, SharedPortMigrationOutcome
from repro.virt.cloud import CloudManager, PlacementPolicy, build_cloud

__all__ = [
    "VirtualMachine",
    "VmState",
    "Hypervisor",
    "PathRecord",
    "SaPathCache",
    "SaQueryStats",
    "SubnetAdministrator",
    "Connection",
    "AuditReport",
    "ConnectionManager",
    "SharedPortFleet",
    "SharedPortMigrationOutcome",
    "CloudManager",
    "PlacementPolicy",
    "build_cloud",
]
