"""A Shared Port cloud — the baseline the vSwitch architecture replaces.

Models VM placement and migration under the SR-IOV Shared Port model
(section IV-A): every VM shares its hypervisor's LID, so

* a migrated VM's LID *changes* to the destination hypervisor's LID
  (Guay et al., reference [9]) — its peers hold stale DLIDs;
* the paper's emulation variant that swaps the two hypervisors' LIDs to
  let the VM "keep" one additionally breaks every co-resident VM on both
  nodes — hence the testbed's one-VM-per-node restriction.

The fleet publishes VM GID→LID records to the same
:class:`~repro.virt.sa_cache.SubnetAdministrator` the vSwitch cloud uses,
so :class:`~repro.virt.connections.ConnectionManager` can audit either
architecture identically — that comparison is the motivation experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import MigrationError, VirtError
from repro.fabric.addressing import GuidAllocator
from repro.fabric.topology import Topology
from repro.sm.lid_manager import LidManager
from repro.sriov.shared_port import SharedPortHCA
from repro.virt.sa_cache import SubnetAdministrator
from repro.virt.vm import VirtualMachine, VmState

__all__ = ["SharedPortMigrationOutcome", "SharedPortFleet"]


@dataclass
class SharedPortMigrationOutcome:
    """What one Shared Port migration did to the address space."""

    vm_name: str
    old_lid: int
    new_lid: int
    #: VMs whose LID changed as a side effect (LID-swap variant only).
    collaterally_relocated: List[str] = field(default_factory=list)

    @property
    def lid_changed(self) -> bool:
        """Shared Port cannot preserve the LID across hypervisors."""
        return self.old_lid != self.new_lid


def _held(lid: Optional[int], holder: str, error: type = MigrationError) -> int:
    """*lid*, or the typed *error* for *holder* holding no LID."""
    if lid is None:
        raise error(f"{holder} holds no LID")
    return lid


class SharedPortFleet:
    """Hypervisors with Shared Port HCAs plus a minimal VM lifecycle."""

    def __init__(
        self,
        topology: Topology,
        *,
        num_vfs: int = 16,
        sa: Optional[SubnetAdministrator] = None,
    ) -> None:
        self.topology = topology
        self.sa = sa or SubnetAdministrator()
        self.guids = GuidAllocator()
        self.lid_manager = LidManager(topology)
        self.num_vfs = num_vfs
        self.hcas: Dict[str, SharedPortHCA] = {}
        self.vms: Dict[str, VirtualMachine] = {}
        self._vm_serial = 0

    # -- fleet -----------------------------------------------------------------

    def adopt_all_hcas(self) -> None:
        """Wrap every topology HCA in a Shared Port adapter and assign the
        single shared LID per node."""
        self.lid_manager.assign_base_lids()
        for hca in self.topology.hcas:
            sp = SharedPortHCA(hca, self.guids, num_vfs=self.num_vfs)
            sp.lid = hca.port(1).lid
            self.hcas[hca.name] = sp

    def _hca(self, name: str) -> SharedPortHCA:
        try:
            return self.hcas[name]
        except KeyError:
            raise VirtError(f"unknown hypervisor {name!r}") from None

    # -- VM lifecycle --------------------------------------------------------------

    def boot_vm(self, on: str, name: Optional[str] = None) -> VirtualMachine:
        """Start a VM on hypervisor *on*; it shares the node's LID."""
        sp = self._hca(on)
        if name is None:
            self._vm_serial += 1
            name = f"spvm{self._vm_serial}"
        if name in self.vms:
            raise VirtError(f"VM {name!r} already exists")
        vm = VirtualMachine(name, self.guids.allocate_virtual())
        vf = sp.attach_vm(name)
        vf.guid = vm.vguid
        vm.attach_vf(vf, on)
        self.vms[name] = vm
        self.sa.register(vm.gid, _held(vm.lid, f"VM {name!r}", VirtError))
        return vm

    def co_residents(self, vm: VirtualMachine) -> List[str]:
        """Other VMs sharing *vm*'s hypervisor (and therefore its LID)."""
        sp = self._hca(vm.hypervisor_name)
        return [n for n in sp.active_vms() if n != vm.name]

    # -- migration variants -----------------------------------------------------------

    def migrate_vm(self, vm_name: str, dest_name: str) -> SharedPortMigrationOutcome:
        """Reference-[9] style migration: vGUID moves, LID changes.

        The VM lands on the destination with the destination hypervisor's
        shared LID; its own old LID stays behind with the source node.
        """
        vm = self.vms[vm_name]
        src = self._hca(vm.hypervisor_name)
        dest = self._hca(dest_name)
        if src is dest:
            raise MigrationError("source and destination are the same node")
        old_lid = _held(vm.lid, f"VM {vm_name!r}")
        src_vf = vm.detach_vf()
        src_vf.detach()
        src_vf.release()
        dest_vf = dest.attach_vm(vm_name)
        dest_vf.guid = vm.vguid
        vm.attach_vf(dest_vf, dest_name)
        vm.state = VmState.RUNNING
        vm.migrations += 1
        new_lid = _held(vm.lid, f"VM {vm_name!r}")
        self.sa.register(vm.gid, new_lid)
        return SharedPortMigrationOutcome(
            vm_name=vm_name, old_lid=old_lid, new_lid=new_lid
        )

    def migrate_vm_with_lid_swap(
        self, vm_name: str, dest_name: str
    ) -> SharedPortMigrationOutcome:
        """The paper's emulation variant: swap the two hypervisors' LIDs so
        the migrating VM keeps its LID value — at the cost of relocating
        the LID of *every* VM on both nodes (why the testbed allowed one
        VM per node)."""
        vm = self.vms[vm_name]
        src = self._hca(vm.hypervisor_name)
        dest = self._hca(dest_name)
        if src is dest:
            raise MigrationError("source and destination are the same node")
        old_lid = _held(vm.lid, f"VM {vm_name!r}")

        collateral = [
            n
            for n in sorted(set(src.active_vms()) | set(dest.active_vms()))
            if n != vm_name
        ]
        src_lid = _held(src.lid, f"hypervisor {vm.hypervisor_name!r}")
        dest_lid = _held(dest.lid, f"hypervisor {dest_name!r}")
        src.lid, dest.lid = dest_lid, src_lid
        outcome = self.migrate_vm(vm_name, dest_name)
        # Re-publish every affected VM's (unchanged GID -> changed LID).
        for name in collateral:
            other = self.vms[name]
            self.sa.register(other.gid, _held(other.lid, f"VM {name!r}"))
        return SharedPortMigrationOutcome(
            vm_name=vm_name,
            old_lid=old_lid,
            new_lid=self.vms[vm_name].lid,
            collaterally_relocated=sorted(collateral),
        )
