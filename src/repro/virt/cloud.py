"""The cloud manager — the OpenStack stand-in of the emulation testbed.

Owns the fleet of hypervisors on one IB subnet, drives the subnet manager
and the active LID scheme, schedules VM placement, and triggers live
migrations through the :class:`~repro.core.migration.LiveMigrationOrchestrator`
(section VII-B: "We modified OpenStack to allow IB SR-IOV VFs to be used by
VMs and when a live migration is triggered the following four steps are
executed ...").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import (
    CapacityError,
    DuplicateResourceError,
    TransportError,
    UnknownResourceError,
    VirtError,
)
from repro.fabric.addressing import GuidAllocator
from repro.fabric.node import HCA
from repro.fabric.presets import scaled_fattree
from repro.fabric.topology import Topology
from repro.obs.hub import get_hub, span
from repro.sm.subnet_manager import ConfigureReport, SubnetManager
from repro.sriov.vswitch import VSwitchHCA
from repro.virt.hypervisor import Hypervisor
from repro.virt.sa_cache import SubnetAdministrator
from repro.virt.vm import VirtualMachine, VmState

__all__ = ["CloudManager", "PlacementPolicy", "build_cloud"]


@dataclass
class PlacementPolicy:
    """VM scheduling policy.

    * ``first-fit`` — registration order;
    * ``spread`` — most free VFs first;
    * ``pack`` — fewest free VFs that still fit;
    * ``leaf-affinity`` — prefer hypervisors on leaves that already host
      VMs. Keeping tenants leaf-local makes future migrations intra-leaf —
      the section VI-D case where reconfiguration touches a single switch
      and arbitrarily many migrations can run concurrently.
    """

    name: str = "first-fit"

    def choose(self, candidates: List[Hypervisor]) -> Hypervisor:
        """Pick a hypervisor among those with capacity."""
        if not candidates:
            raise CapacityError("no hypervisor has a free VF")
        if self.name == "spread":
            return max(candidates, key=lambda h: h.free_vf_count)
        if self.name == "pack":
            return min(candidates, key=lambda h: h.free_vf_count)
        if self.name == "first-fit":
            return candidates[0]
        if self.name == "leaf-affinity":
            return self._leaf_affinity(candidates)
        raise VirtError(f"unknown placement policy {self.name!r}")

    @staticmethod
    def _leaf_affinity(candidates: List[Hypervisor]) -> Hypervisor:
        def leaf_of(h: Hypervisor):
            peer = h.uplink_port.remote
            return peer.node if peer is not None else None

        # Population per leaf across the candidate set's leaves.
        population: Dict[object, int] = {}
        for h in candidates:
            population.setdefault(leaf_of(h), 0)
        for h in candidates:
            population[leaf_of(h)] += h.vm_count
        # Fullest already-populated leaf wins; empty leaves only when no
        # populated leaf has room. Ties: most free VFs (headroom).
        return max(
            candidates,
            key=lambda h: (
                population[leaf_of(h)] > 0,
                population[leaf_of(h)],
                h.free_vf_count,
            ),
        )


class CloudManager:
    """One vHPC cloud: hypervisors + VMs on an IB subnet."""

    def __init__(
        self,
        topology: Topology,
        *,
        sm: Optional[SubnetManager] = None,
        built: Optional[object] = None,
        lid_scheme: str = "prepopulated",
        routing_engine: str = "minhop",
        num_vfs: int = 16,
        placement: Union[str, PlacementPolicy] = "first-fit",
        destination_routed_smps: bool = False,
    ) -> None:
        # Imported here (not at module top) to keep the package import
        # graph acyclic: core.migration needs virt.hypervisor.
        from repro.core.lid_schemes import (
            DynamicLidScheme,
            PrepopulatedLidScheme,
        )
        from repro.core.migration import LiveMigrationOrchestrator

        self.topology = topology
        self.sm = sm or SubnetManager(topology, engine=routing_engine, built=built)
        self.guids = GuidAllocator()
        self.sa = SubnetAdministrator()
        self.num_vfs = num_vfs
        self.placement = (
            PlacementPolicy(placement) if isinstance(placement, str) else placement
        )
        if lid_scheme == "prepopulated":
            self.scheme = PrepopulatedLidScheme(
                self.sm, destination_routed=destination_routed_smps
            )
        elif lid_scheme == "dynamic":
            self.scheme = DynamicLidScheme(
                self.sm, destination_routed=destination_routed_smps
            )
        else:
            raise VirtError(f"unknown LID scheme {lid_scheme!r}")
        self.orchestrator = LiveMigrationOrchestrator(self.sm, self.scheme)
        self.orchestrator.listeners.append(self._on_migrated)
        self.hypervisors: Dict[str, Hypervisor] = {}
        self.vms: Dict[str, VirtualMachine] = {}
        #: VMs in state RUNNING, kept on boot and stop (a migration takes
        #: its VM out and back in); ``audit_cloud`` holds it to a scan.
        self._running_vms = 0
        self._vm_serial = 0

    # -- fleet construction ---------------------------------------------------

    def adopt_hca_as_hypervisor(
        self, hca: HCA, *, num_vfs: Optional[int] = None
    ) -> Hypervisor:
        """Turn an existing (cabled) HCA into a vSwitch hypervisor."""
        if hca.name in self.hypervisors:
            raise VirtError(f"{hca.name} is already a hypervisor")
        vsw = VSwitchHCA(hca, self.guids, num_vfs=num_vfs or self.num_vfs)
        hyp = Hypervisor(hca.name, vsw)
        self.hypervisors[hca.name] = hyp
        self.scheme.register_hypervisor(vsw)
        return hyp

    def adopt_all_hcas(self) -> List[Hypervisor]:
        """Turn every HCA of the topology into a hypervisor."""
        return [
            self.adopt_hca_as_hypervisor(h)
            for h in self.topology.hcas
            if h.name not in self.hypervisors
        ]

    def bring_up_subnet(self) -> ConfigureReport:
        """Full subnet bring-up: LIDs (base + scheme), routing, LFTs."""

        def assign() -> None:
            self.sm.assign_lids()
            self.scheme.initialize()

        return self.sm._converge(
            "bring_up_subnet",
            assign=assign,
            scheme=self.scheme.name,
            hypervisors=len(self.hypervisors),
        )

    # -- VM lifecycle -------------------------------------------------------------

    def boot_vm(
        self,
        name: Optional[str] = None,
        *,
        on: Optional[str] = None,
        tenant: Optional[str] = None,
    ) -> VirtualMachine:
        """Create and place one VM (scheduler-chosen node unless ``on``)."""
        hyp = self._admit_boot(name := self._boot_name(name), on)
        vm = VirtualMachine(
            name, self.guids.allocate_virtual(), tenant=tenant
        )
        with span("boot_vm", vm=name, hypervisor=hyp.name):
            try:
                boot = self.scheme.boot_vm(hyp.vswitch, name)
            except TransportError:
                # The scheme already rolled the allocation back; the cloud
                # keeps no trace of the failed VM. Callers (churn, chaos)
                # decide whether to retry.
                get_hub().metrics.counter(
                    "repro_vm_boot_failures_total"
                ).add(1)
                raise
            vf = hyp.vswitch.vf(int(boot.vf_name.rsplit("VF", 1)[1]))
            hyp.host_vm(vm, vf)
            self.vms[name] = vm
            self._running_vms += 1
            self.sa.register(vm.gid, boot.lid)
        metrics = get_hub().metrics
        metrics.counter("repro_vm_boots_total").add(1)
        metrics.gauge("repro_vms_running").set(self.running_vm_count)
        return vm

    def boot_vms_batch(
        self,
        specs: Sequence[Tuple[Optional[str], Optional[str], Optional[str]]],
    ) -> Tuple[List[VirtualMachine], "object"]:
        """Boot several VMs as one coalesced LFT sweep.

        ``specs`` is a sequence of ``(name, on, tenant)`` triples (any
        element may be ``None``). Placement is decided per spec in order,
        so earlier batch members consume capacity the later ones see.
        Under the dynamic LID scheme the whole batch's forwarding entries
        are programmed by :meth:`LidScheme.boot_vms` in one pass — LIDs
        sharing a 64-entry LFT block on a switch cost one SMP instead of
        one per boot. All-or-nothing: a transport failure rolls the whole
        batch back and nothing is registered.

        Returns ``(vms, batch_report)``.
        """
        resolved: List[Tuple[str, Hypervisor, Optional[str]]] = []
        claimed: Dict[str, int] = {}
        for name, on, tenant in specs:
            name = self._boot_name(name)
            if any(name == taken for taken, _, _ in resolved):
                raise DuplicateResourceError(
                    f"VM {name!r} appears twice in the batch"
                )
            hyp = self._admit_boot(name, on, claimed=claimed)
            claimed[hyp.name] = claimed.get(hyp.name, 0) + 1
            resolved.append((name, hyp, tenant))
        with span("boot_vms_batch", size=len(resolved)):
            batch = self.scheme.boot_vms(
                [(hyp.vswitch, name) for name, hyp, _ in resolved]
            )
            vms: List[VirtualMachine] = []
            for (name, hyp, tenant), boot in zip(resolved, batch.boots):
                vm = VirtualMachine(
                    name, self.guids.allocate_virtual(), tenant=tenant
                )
                vf = hyp.vswitch.vf(int(boot.vf_name.rsplit("VF", 1)[1]))
                hyp.host_vm(vm, vf)
                self.vms[name] = vm
                self._running_vms += 1
                self.sa.register(vm.gid, boot.lid)
                vms.append(vm)
        metrics = get_hub().metrics
        metrics.counter("repro_vm_boots_total").add(len(vms))
        metrics.gauge("repro_vms_running").set(self.running_vm_count)
        return vms, batch

    def _boot_name(self, name: Optional[str]) -> str:
        if name is None:
            self._vm_serial += 1
            name = f"vm{self._vm_serial}"
        return name

    def _admit_boot(
        self,
        name: str,
        on: Optional[str],
        *,
        claimed: Optional[Dict[str, int]] = None,
    ) -> Hypervisor:
        """Validate one boot and pick its hypervisor.

        ``claimed`` holds VFs already promised to earlier members of a
        batch (not yet attached), so batch placement never oversubscribes
        a vSwitch.
        """
        claimed = claimed or {}
        if name in self.vms:
            raise DuplicateResourceError(f"VM {name!r} already exists")

        def headroom(h: Hypervisor) -> int:
            return h.free_vf_count - claimed.get(h.name, 0)

        if on is not None:
            hyp = self._hypervisor(on)
            if headroom(hyp) <= 0:
                raise CapacityError(f"{on} has no free VF")
            return hyp
        return self.placement.choose(
            [h for h in self.hypervisors.values() if headroom(h) > 0]
        )

    def stop_vm(self, name: str) -> None:
        """Shut a VM down and release its VF (and LID, scheme permitting)."""
        vm = self._vm(name)
        hyp = self._hypervisor(vm.hypervisor_name)
        with span("stop_vm", vm=name, hypervisor=hyp.name):
            vf = vm.detach_vf()
            vf.detach()
            self.scheme.shutdown_vm(hyp.vswitch, vf)
            hyp.evict_vm(vm)
            vm.state = VmState.STOPPED
            self._running_vms -= 1
            self.sa.unregister(vm.gid)
            del self.vms[name]
        metrics = get_hub().metrics
        metrics.counter("repro_vm_stops_total").add(1)
        metrics.gauge("repro_vms_running").set(self.running_vm_count)

    def live_migrate(self, vm_name: str, dest_name: str):
        """Live-migrate one VM; returns the MigrationReport."""
        vm = self._vm(vm_name)
        src = self._hypervisor(vm.hypervisor_name)
        dest = self._hypervisor(dest_name)
        return self.orchestrator.migrate(vm, src, dest)

    def evacuate(self, hypervisor_name: str):
        """Drain a hypervisor for maintenance: migrate every VM elsewhere.

        The flexibility argument of sections V-B/VI: spare VFs on other
        nodes make disaster recovery and maintenance possible without
        downtime. Returns the list of MigrationReports.
        """
        hyp = self._hypervisor(hypervisor_name)
        reports = []
        with span("evacuate", hypervisor=hypervisor_name) as sp:
            stranded = 0
            for vm in list(hyp.running_vms()):
                candidates = [
                    h
                    for h in self.hypervisors.values()
                    if h is not hyp and h.has_capacity()
                ]
                try:
                    dest = self.placement.choose(candidates)
                except CapacityError:
                    # Graceful partial drain: the remaining VMs stay on
                    # the source (still running, still routed) instead of
                    # the evacuation dying mid-way with half the node
                    # drained. The caller sees the shortfall explicitly.
                    stranded = len(list(hyp.running_vms()))
                    break
                reports.append(self.orchestrator.migrate(vm, hyp, dest))
            sp.set_attributes(migrations=len(reports), stranded=stranded)
            if stranded:
                get_hub().metrics.counter(
                    "repro_evacuate_stranded_vms_total"
                ).add(stranded)
        return reports

    def _on_migrated(self, report) -> None:
        # vSwitch migration keeps the LID, so the SA record stays correct;
        # re-register anyway to model the SM's post-migration update.
        vm = self.vms[report.vm_name]
        self.sa.register(vm.gid, report.vm_lid)

    # -- queries -----------------------------------------------------------------

    def _vm(self, name: str) -> VirtualMachine:
        try:
            return self.vms[name]
        except KeyError:
            raise UnknownResourceError(f"unknown VM {name!r}") from None

    def _hypervisor(self, name: Optional[str]) -> Hypervisor:
        if name is None:
            raise VirtError("VM is not placed on any hypervisor")
        try:
            return self.hypervisors[name]
        except KeyError:
            raise UnknownResourceError(
                f"unknown hypervisor {name!r}"
            ) from None

    def vms_of_tenant(self, tenant: Optional[str]) -> List[VirtualMachine]:
        """All VMs owned by *tenant*, in registration order."""
        return [vm for vm in self.vms.values() if vm.tenant == tenant]

    @property
    def total_capacity(self) -> int:
        """Total VM slots (VFs) in the cloud."""
        return sum(h.vswitch.num_vfs for h in self.hypervisors.values())

    @property
    def running_vm_count(self) -> int:
        """VMs currently running."""
        return self._running_vms

    def fragmentation(self) -> float:
        """Fraction of hypervisors that are partially (not fully) used.

        The paper motivates migration-based optimization of fragmented
        networks (sections V-A/V-B); this is the metric the consolidation
        example drives down.
        """
        partial = 0
        used = 0
        for h in self.hypervisors.values():
            if h.vm_count > 0:
                used += 1
                if h.free_vf_count > 0:
                    partial += 1
        return partial / used if used else 0.0


def build_cloud(recipe: Mapping[str, object]) -> CloudManager:
    """A brought-up cloud on a preset fabric, from a *recipe* dict.

    The recipe (``profile`` plus optional ``scheme``, ``engine``,
    ``num_vfs``, ``placement``) is both the constructor input and the
    genesis record ``repro serve`` journals, so a cold
    :func:`~repro.service.recovery.rebuild_from_journal` reconstructs the
    fabric exactly as the original run built it.
    """
    built = scaled_fattree(str(recipe["profile"]))
    cloud = CloudManager(
        built.topology,
        built=built,
        lid_scheme=str(recipe.get("scheme", "prepopulated")),
        routing_engine=str(recipe.get("engine", "minhop")),
        num_vfs=int(recipe.get("num_vfs", 4)),  # type: ignore[call-overload]
        placement=str(recipe.get("placement", "first-fit")),
    )
    cloud.adopt_all_hcas()
    cloud.bring_up_subnet()
    return cloud
