"""The two proposed vSwitch LID schemes (paper sections V-A and V-B).

* :class:`PrepopulatedLidScheme` — every VF receives a LID when the subnet
  boots, VMs inherit the LID of the VF they are attached to, and migrations
  *swap* LIDs. Costs more initial path computation and caps physical nodes
  + VFs at the unicast LID limit, but gives per-VM alternative paths (the
  LMC-like feature) and zero SMPs at VM boot.
* :class:`DynamicLidScheme` — VFs are LID-less until a VM boots, at which
  point the next free LID is assigned and the PF's forwarding entry is
  copied to it (one SMP per switch). Faster subnet bring-up, no VF-count
  limit, but all VMs of a hypervisor share the PF's path.

Both schemes speak to the SM's :class:`~repro.sm.lid_manager.LidManager`
for allocation and to the :class:`~repro.core.reconfig.VSwitchReconfigurer`
for LFT edits.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.errors import ReconfigError, TransportError
from repro.sm.lft_distribution import LftReport
from repro.sm.subnet_manager import SubnetManager
from repro.sriov.base import VirtualFunction
from repro.sriov.vswitch import VSwitchHCA
from repro.core.reconfig import VSwitchReconfigurer

__all__ = [
    "VmBootReport",
    "VmBootBatchReport",
    "LidScheme",
    "PrepopulatedLidScheme",
    "DynamicLidScheme",
]


@dataclass
class VmBootReport:
    """What starting one VM cost the subnet."""

    vf_name: str
    lid: int
    lft_smps: int = 0
    reconfig: Optional[LftReport] = None


@dataclass
class VmBootBatchReport:
    """Cost of booting several VMs as one coalesced operation.

    ``ideal_lft_smps`` is what the same boots would have cost issued one
    at a time (the per-boot ``predict_copy`` sum); ``lft_smps`` is what
    the batch actually paid. Their ratio is the control-plane service's
    coalescing win.
    """

    boots: List[VmBootReport] = field(default_factory=list)
    reconfig: Optional[LftReport] = None
    ideal_lft_smps: int = 0

    @property
    def lft_smps(self) -> int:
        """LFT SMPs the whole batch actually cost."""
        return self.reconfig.lft_smps if self.reconfig is not None else 0


class LidScheme(abc.ABC):
    """Common machinery of the two LID assignment policies."""

    name: str = "abstract"

    def __init__(self, sm: SubnetManager, *, destination_routed: bool = False) -> None:
        self.sm = sm
        self.reconfigurer = VSwitchReconfigurer(
            sm, destination_routed=destination_routed
        )
        self.vswitches: List[VSwitchHCA] = []

    def register_hypervisor(self, vsw: VSwitchHCA) -> None:
        """Adopt one vSwitch-enabled hypervisor HCA."""
        self.vswitches.append(vsw)

    def initialize(self) -> None:
        """Assign LIDs per policy. Call after base LID assignment, before
        the initial routing computation."""
        for vsw in self.vswitches:
            self._adopt_pf_lid(vsw)
            self._initialize_vswitch(vsw)

    def _adopt_pf_lid(self, vsw: VSwitchHCA) -> None:
        port_lid = vsw.uplink_port.lid
        if port_lid is None:
            raise ReconfigError(
                f"{vsw.hca.name}: assign base LIDs before initializing the scheme"
            )
        vsw.pf.lid = port_lid

    @abc.abstractmethod
    def _initialize_vswitch(self, vsw: VSwitchHCA) -> None:
        """Policy-specific VF LID setup."""

    def bring_up_lids(self) -> int:
        """LIDs :meth:`initialize` will take beyond the base LIDs."""
        return 0

    @abc.abstractmethod
    def boot_vm(self, vsw: VSwitchHCA, vm_name: str) -> VmBootReport:
        """Attach a new VM to a free VF and make its LID routable."""

    def boot_vms(
        self, requests: Sequence[Tuple[VSwitchHCA, str]]
    ) -> VmBootBatchReport:
        """Boot several VMs in one operation.

        Default: sequential :meth:`boot_vm` calls (correct for schemes
        with zero per-boot SMPs). The dynamic scheme overrides this with
        a genuinely coalesced LFT sweep. All-or-nothing on transport
        failure either way.
        """
        batch = VmBootBatchReport()
        booted: List[Tuple[VSwitchHCA, VirtualFunction]] = []
        try:
            for vsw, vm_name in requests:
                report = self.boot_vm(vsw, vm_name)
                batch.boots.append(report)
                batch.ideal_lft_smps += report.lft_smps
                booted.append(
                    (vsw, vsw.vf(int(report.vf_name.rsplit("VF", 1)[1])))
                )
        except TransportError:
            # boot_vm rolled the failing boot back; undo the earlier ones
            # so the batch is all-or-nothing for the caller.
            for vsw, vf in reversed(booted):
                self.shutdown_vm(vsw, vf)
            raise
        return batch

    @abc.abstractmethod
    def shutdown_vm(self, vsw: VSwitchHCA, vf: VirtualFunction) -> None:
        """Release the VF (and, policy-dependent, its LID)."""

    @abc.abstractmethod
    def migrate_lid(
        self,
        vm_lid: int,
        src_vsw: VSwitchHCA,
        src_vf: VirtualFunction,
        dest_vsw: VSwitchHCA,
        dest_vf: VirtualFunction,
        *,
        limit_switches=None,
    ) -> LftReport:
        """Move *vm_lid* from ``src_vf`` to ``dest_vf`` in the LFTs and the
        LID registry (step b of Algorithm 1).

        ``limit_switches`` optionally restricts the LFT sweep to a skyline
        subset (section VI-D minimal reconfiguration; intra-leaf only)."""

    # -- shared helpers -----------------------------------------------------

    def total_vf_count(self) -> int:
        """All VFs across registered hypervisors."""
        return sum(v.num_vfs for v in self.vswitches)

    def active_vm_count(self) -> int:
        """VMs currently holding VFs."""
        return sum(len(v.active_vfs()) for v in self.vswitches)


class PrepopulatedLidScheme(LidScheme):
    """Section V-A: all VFs get LIDs at boot; migration swaps LID entries."""

    name = "prepopulated"

    def _initialize_vswitch(self, vsw: VSwitchHCA) -> None:
        for vf in vsw.vfs:
            if vf.lid is None:
                vf.lid = self.sm.lid_manager.assign_extra_lid(vsw.uplink_port)

    def bring_up_lids(self) -> int:
        """One LID per VF that has none yet."""
        return sum(vf.lid is None for vsw in self.vswitches for vf in vsw.vfs)

    def boot_vm(self, vsw: VSwitchHCA, vm_name: str) -> VmBootReport:
        """Find an available VM slot (== an available VF); zero SMPs.

        Paths for the VF's LID were computed at subnet boot, so nothing is
        sent — the key advantage of prepopulation.
        """
        vf = vsw.first_free_vf()
        if vf.lid is None:
            raise ReconfigError(f"{vf.name} has no prepopulated LID")
        vf.attach(vm_name)
        return VmBootReport(vf_name=vf.name, lid=vf.lid, lft_smps=0)

    def shutdown_vm(self, vsw: VSwitchHCA, vf: VirtualFunction) -> None:
        """The LID stays with the VF (the next VM on it reuses it)."""
        vf.release()

    def migrate_lid(
        self,
        vm_lid: int,
        src_vsw: VSwitchHCA,
        src_vf: VirtualFunction,
        dest_vsw: VSwitchHCA,
        dest_vf: VirtualFunction,
        *,
        limit_switches=None,
    ) -> LftReport:
        """Swap the VM's LID with the destination VF's prepopulated LID.

        After the swap the destination VF carries ``vm_lid`` and the source
        VF inherits the destination VF's old LID — the initial routing
        balance is preserved exactly (section V-C1).
        """
        if dest_vf.lid is None:
            raise ReconfigError(f"{dest_vf.name} has no prepopulated LID")
        other_lid = dest_vf.lid
        report = self.reconfigurer.swap_lids(
            vm_lid, other_lid, limit_switches=limit_switches
        )
        # LID registry: the two LIDs exchange attachment points.
        self.sm.lid_manager.move_lid(vm_lid, dest_vsw.uplink_port)
        self.sm.lid_manager.move_lid(other_lid, src_vsw.uplink_port)
        dest_vf.lid = vm_lid
        src_vf.lid = other_lid
        return report


class DynamicLidScheme(LidScheme):
    """Section V-B: LIDs appear with VMs; migration copies the PF's entry."""

    name = "dynamic"

    def _initialize_vswitch(self, vsw: VSwitchHCA) -> None:
        # VFs stay LID-less until a VM boots: nothing to do.
        return

    def boot_vm(self, vsw: VSwitchHCA, vm_name: str) -> VmBootReport:
        """Assign the next free LID and copy the PF's forwarding entries.

        One SMP per switch whose relevant LFT block changes (at most n) —
        the runtime overhead prepopulation avoids (section V-B).
        """
        vf = vsw.first_free_vf()
        pf_lid = vsw.pf_lid
        if pf_lid is None:
            raise ReconfigError(f"{vsw.hca.name}: PF has no LID")
        lid = self.sm.lid_manager.assign_extra_lid(vsw.uplink_port)
        vf.lid = lid
        vf.attach(vm_name)
        try:
            reconfig = self.reconfigurer.copy_path(pf_lid, lid)
        except TransportError:
            # The reconfigurer already restored the touched LFT entries;
            # return the LID and the VF so the failed boot leaves no trace.
            vf.release()
            vf.lid = None
            self.sm.lid_manager.release_lid(lid)
            raise
        return VmBootReport(
            vf_name=vf.name, lid=lid, lft_smps=reconfig.lft_smps, reconfig=reconfig
        )

    def boot_vms(
        self, requests: Sequence[Tuple[VSwitchHCA, str]]
    ) -> VmBootBatchReport:
        """Boot a batch with one coalesced LFT sweep (the service win).

        All the batch's VFs and LIDs are allocated first, then every
        switch is programmed once via
        :meth:`~repro.core.reconfig.VSwitchReconfigurer.copy_paths` —
        consecutive fresh LIDs share 64-entry blocks, so k boots often
        cost one SMP per switch instead of k. A transport failure rolls
        the LFT writes back (inside ``copy_paths``) and releases every
        VF/LID of the batch: no orphaned allocations.
        """
        batch = VmBootBatchReport()
        if not requests:
            return batch
        allocs: List[Tuple[VirtualFunction, int, int]] = []
        try:
            for vsw, vm_name in requests:
                vf = vsw.first_free_vf()
                pf_lid = vsw.pf_lid
                if pf_lid is None:
                    raise ReconfigError(f"{vsw.hca.name}: PF has no LID")
                lid = self.sm.lid_manager.assign_extra_lid(vsw.uplink_port)
                vf.lid = lid
                vf.attach(vm_name)
                allocs.append((vf, lid, pf_lid))
                _, smps = self.reconfigurer.predict_copy(pf_lid, lid)
                batch.ideal_lft_smps += smps
            batch.reconfig = self.reconfigurer.copy_paths(
                [(pf_lid, lid) for _, lid, pf_lid in allocs]
            )
        except TransportError:
            for vf, lid, _ in reversed(allocs):
                vf.release()
                vf.lid = None
                self.sm.lid_manager.release_lid(lid)
            raise
        batch.boots = [
            VmBootReport(vf_name=vf.name, lid=lid)
            for vf, lid, _ in allocs
        ]
        return batch

    def shutdown_vm(self, vsw: VSwitchHCA, vf: VirtualFunction) -> None:
        """Release both the VF and its LID back to the free pools."""
        if vf.lid is not None:
            self.sm.lid_manager.release_lid(vf.lid)
            vf.lid = None
        vf.release()

    def migrate_lid(
        self,
        vm_lid: int,
        src_vsw: VSwitchHCA,
        src_vf: VirtualFunction,
        dest_vsw: VSwitchHCA,
        dest_vf: VirtualFunction,
        *,
        limit_switches=None,
    ) -> LftReport:
        """Copy the destination PF's entry onto the VM's LID everywhere.

        Exactly one LID is involved, so at most one SMP per switch is ever
        needed (section V-C2).
        """
        dest_pf_lid = dest_vsw.pf_lid
        if dest_pf_lid is None:
            raise ReconfigError(f"{dest_vsw.hca.name}: PF has no LID")
        report = self.reconfigurer.copy_path(
            dest_pf_lid, vm_lid, limit_switches=limit_switches
        )
        self.sm.lid_manager.move_lid(vm_lid, dest_vsw.uplink_port)
        dest_vf.lid = vm_lid
        src_vf.lid = None
        return report
