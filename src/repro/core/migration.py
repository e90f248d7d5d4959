"""Live migration orchestration — Algorithm 1 plus the section VII-B flow.

Reproduces the four-step OpenStack/OpenSM interplay of the paper's
emulation testbed against the simulated fabric:

1. the SR-IOV VF is detached from the VM and the live migration starts;
2. the cloud manager signals the SM with the VM and its destination;
3. the SM reconfigures the network — step (a): one SMP per participating
   hypervisor updates the VF LIDs, plus the vGUID transfer to the
   destination; step (b): the LFT swap/copy of
   :class:`~repro.core.reconfig.VSwitchReconfigurer`;
4. when the migration completes, the destination VF — now holding the VM's
   vGUID — is attached.

The timing model separates memory-copy time (bandwidth-bound, runs while
the VM executes) from *downtime* (VF detach + final pause + reconfiguration
+ VF attach), since SR-IOV passthrough's seconds-scale downtime is the
paper's motivation for making the reconfiguration itself negligible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.errors import (
    DistributionError,
    MigrationError,
    ReconfigRollbackError,
    SmpTimeoutError,
    TransportError,
)
from repro.mad.smp import Smp, SmpKind, SmpMethod
from repro.core.lid_schemes import LidScheme
from repro.core.reconfig import ReconfigReport
from repro.core.skyline import MigrationSkyline, plan_skyline
from repro.obs.hub import get_hub, span
from repro.sm.subnet_manager import SubnetManager
from repro.virt.hypervisor import Hypervisor
from repro.virt.vm import VirtualMachine, VmState

__all__ = ["MigrationTimingModel", "MigrationReport", "LiveMigrationOrchestrator"]


@dataclass(frozen=True)
class MigrationTimingModel:
    """Constants of the migration timeline.

    Defaults are in the ballpark of the paper's context: QDR-generation
    wire speed for the pre-copy, and the seconds-order VF detach/attach
    penalty reported for SR-IOV passthrough migration (Guay et al.,
    references [9]/[18]).
    """

    memory_copy_bandwidth: float = 4.0e9  # bytes/s over the migration network
    vf_detach_seconds: float = 0.8
    vf_attach_seconds: float = 1.2
    final_pause_seconds: float = 0.05

    def copy_seconds(self, vm_memory_bytes: int) -> float:
        """Pre-copy duration for a VM image of the given size."""
        if vm_memory_bytes < 0:
            raise MigrationError("vm_memory_bytes must be non-negative")
        return vm_memory_bytes / self.memory_copy_bandwidth


@dataclass
class MigrationReport:
    """Everything one live migration cost."""

    vm_name: str
    source: str
    destination: str
    vm_lid: int
    mode: str
    skyline: MigrationSkyline
    reconfig: ReconfigReport
    address_update_smps: int = 0  # step (a) SMPs to the hypervisors
    copy_seconds: float = 0.0
    downtime_seconds: float = 0.0
    #: ``completed`` | ``rolled_back`` (subnet restored to the exact
    #: pre-migration state) | ``failed`` (rollback itself failed — the
    #: subnet may be inconsistent and needs a full reconfiguration).
    outcome: str = "completed"
    #: The error that aborted the migration, when not completed.
    failure: Optional[str] = None
    #: Retransmissions / timeouts / retry waits over the whole migration
    #: window — the fault-injection overhead on top of the ideal n'·m'.
    smp_retries: int = 0
    smp_timeouts: int = 0
    retry_wait_seconds: float = 0.0

    @property
    def completed(self) -> bool:
        """True iff the VM runs at the destination."""
        return self.outcome == "completed"

    @property
    def total_smps(self) -> int:
        """Step (a) + step (b) SMPs."""
        return self.address_update_smps + self.reconfig.lft_smps

    @property
    def switches_updated(self) -> int:
        """The realized n'."""
        return self.reconfig.switches_updated


class LiveMigrationOrchestrator:
    """Executes live migrations end to end against one subnet."""

    def __init__(
        self,
        sm: SubnetManager,
        scheme: LidScheme,
        *,
        timing: Optional[MigrationTimingModel] = None,
        default_vm_memory_bytes: int = 4 << 30,
        minimal_intra_leaf: bool = False,
    ) -> None:
        self.sm = sm
        self.scheme = scheme
        self.timing = timing or MigrationTimingModel()
        self.default_vm_memory_bytes = default_vm_memory_bytes
        #: Apply the section VI-D minimal reconfiguration when the source
        #: and destination share a leaf switch: update only that leaf,
        #: accepting the (locally invisible) loss of per-LID spreading on
        #: the rest of the fabric.
        self.minimal_intra_leaf = minimal_intra_leaf
        #: Observers called with each MigrationReport (e.g. the SA cache).
        self.listeners: List[Callable[[MigrationReport], None]] = []

    def migrate(
        self,
        vm: VirtualMachine,
        source: Hypervisor,
        destination: Hypervisor,
        *,
        vm_memory_bytes: Optional[int] = None,
    ) -> MigrationReport:
        """Migrate *vm* from *source* to *destination* (Algorithm 1 MAIN).

        On a healthy fabric this is the exact four-step flow; on a lossy
        one it is a small state machine. A transport failure before the
        point of no return rolls everything back — the VF re-attaches at
        the source, the LFT entries are restored (the reconfigurer already
        unwound them), the vGUID returns — and the report says
        ``rolled_back``. If even the rollback cannot be completed the
        report says ``failed`` and the subnet needs a full
        reconfiguration. Failures are reported, not raised, so bulk
        workloads (churn, chaos) keep going.
        """
        vm_lid = self._validate(vm, source, destination)
        dest_vf = destination.vswitch.first_free_vf()
        mode = "swap" if self.scheme.name == "prepopulated" else "copy"
        other_lid = dest_vf.lid if mode == "swap" else destination.pf_lid
        if other_lid is None:
            raise MigrationError(
                f"destination {destination.name} has no usable LID for {mode}"
            )
        skyline = plan_skyline(
            self.sm.topology,
            vm_lid=vm_lid,
            other_lid=other_lid,
            mode=mode,
            src_port=source.uplink_port,
            dest_port=destination.uplink_port,
        )

        run_before = self.sm.transport.stats.snapshot()
        with span(
            "migration",
            vm=vm.name,
            source=source.name,
            destination=destination.name,
            mode=mode,
        ) as sp:
            # Step 1: detach the VF; the pre-copy starts.
            vm.state = VmState.MIGRATING
            src_vf = vm.detach_vf()
            src_vf.detach()
            copy_seconds = self.timing.copy_seconds(
                vm_memory_bytes
                if vm_memory_bytes is not None
                else self.default_vm_memory_bytes
            )

            prev_dest_guid = dest_vf.guid
            vguid_programmed = False
            address_update_smps = 0
            outcome = "completed"
            failure: Optional[str] = None
            reconfig = ReconfigReport(mode=mode)
            try:
                # Step 2+3a: the SM learns about the migration and updates
                # the participating hypervisors' VF addresses — one SMP
                # each, plus the vGUID transfer to the destination
                # (sections V-C(a), VII-B step 3).
                before = self.sm.transport.stats.total_smps
                with span("address_update"):
                    self._send_checked(
                        Smp(
                            SmpMethod.SET,
                            SmpKind.PORT_INFO,
                            source.hca.name,
                            payload={
                                "port": 1,
                                "vf": src_vf.index,
                                "unset_lid": vm_lid,
                            },
                        )
                    )
                    self._send_checked(
                        Smp(
                            SmpMethod.SET,
                            SmpKind.PORT_INFO,
                            destination.hca.name,
                            payload={
                                "port": 1,
                                "vf": dest_vf.index,
                                "set_lid": vm_lid,
                            },
                        )
                    )
                    result = self._send_checked(
                        Smp(
                            SmpMethod.SET,
                            SmpKind.VGUID,
                            destination.hca.name,
                            payload={"vf": dest_vf.index, "vguid": vm.vguid},
                        )
                    )
                if result.data is None:
                    raise MigrationError(
                        f"the vGUID update to {destination.hca.name!r} came"
                        " back without its vGUID"
                    )
                destination.vswitch.set_vguid(dest_vf, result.data["vguid"])
                vguid_programmed = True
                address_update_smps = (
                    self.sm.transport.stats.total_smps - before
                )

                # Step 3b: the LFT updates (UPDATELFTBLOCKSONALLSWITCHES),
                # or the leaf-only minimal variant when enabled and
                # applicable.
                limit = None
                if self.minimal_intra_leaf and skyline.intra_leaf:
                    leaf = source.uplink_port.remote
                    if leaf is None:
                        raise MigrationError(
                            f"{source.name} lost its uplink during the"
                            f" migration of {vm.name}"
                        )
                    limit = {leaf.node.index}
                reconfig = self.scheme.migrate_lid(
                    vm_lid,
                    source.vswitch,
                    src_vf,
                    destination.vswitch,
                    dest_vf,
                    limit_switches=limit,
                )
            except ReconfigRollbackError as exc:
                # The LFT rollback itself failed: the subnet holds a
                # mixture of old and new entries. Restore the VM-side
                # bookkeeping so the VM keeps running at the source, but
                # report the subnet as needing repair.
                outcome, failure = "failed", str(exc)
                self._restore_vm_at_source(vm, src_vf)
            except (TransportError, DistributionError) as exc:
                # The reconfigurer already restored every touched LFT
                # entry; unwind the address updates and the VM state too.
                outcome, failure = "rolled_back", str(exc)
                try:
                    self._compensate_addresses(
                        vm,
                        source,
                        destination,
                        src_vf,
                        dest_vf,
                        vm_lid,
                        prev_dest_guid,
                        vguid_programmed,
                    )
                except TransportError as rb_exc:
                    outcome = "failed"
                    failure = f"{failure}; address rollback lost: {rb_exc}"
                self._restore_vm_at_source(vm, src_vf)
            else:
                # Step 4: attach the destination VF and finish bookkeeping.
                src_vf.release()
                source.evict_vm(vm)
                dest_vf.attach(vm.name)
                # The scheme already moved the LIDs; attach() must not
                # clobber them.
                destination.vms[vm.name] = vm
                vm.vf = dest_vf
                vm.hypervisor_name = destination.name
                vm.state = VmState.RUNNING
                vm.migrations += 1

            run_delta = self.sm.transport.stats.delta_since(run_before)
            if outcome == "completed":
                downtime = (
                    self.timing.vf_detach_seconds
                    + self.timing.final_pause_seconds
                    + reconfig.total_seconds_serial
                    + self.timing.vf_attach_seconds
                )
            else:
                # The VM still pays detach, the wasted control-plane work
                # (including every retry timeout), and the re-attach at the
                # source.
                downtime = (
                    self.timing.vf_detach_seconds
                    + self.timing.final_pause_seconds
                    + run_delta.serial_time
                    + self.timing.vf_attach_seconds
                )
            report = MigrationReport(
                vm_name=vm.name,
                source=source.name,
                destination=destination.name,
                vm_lid=vm_lid,
                mode=mode,
                skyline=skyline,
                reconfig=reconfig,
                address_update_smps=address_update_smps,
                copy_seconds=copy_seconds,
                downtime_seconds=downtime,
                outcome=outcome,
                failure=failure,
                smp_retries=run_delta.retransmissions,
                smp_timeouts=run_delta.timeouts,
                retry_wait_seconds=run_delta.retry_wait_seconds,
            )
            sp.set_attributes(
                total_smps=report.total_smps,
                lft_smps=reconfig.lft_smps,
                switches_updated=reconfig.switches_updated,
                downtime_seconds=downtime,
            )
            if outcome != "completed":
                sp.set_attributes(outcome=outcome, failure=failure)
        metrics = get_hub().metrics
        if outcome == "completed":
            metrics.counter("repro_migrations_total", mode=mode).add(1)
        else:
            metrics.counter(
                "repro_migration_failures_total", mode=mode, outcome=outcome
            ).add(1)
        metrics.gauge("repro_migration_downtime_seconds", mode=mode).set(
            downtime
        )
        metrics.gauge("repro_migration_total_smps", mode=mode).set(
            report.total_smps
        )
        if outcome == "completed":
            for listener in self.listeners:
                listener(report)
        return report

    # -- failure handling -----------------------------------------------------

    def _send_checked(self, smp: Smp):
        """Send one address-update SMP, surfacing a silent loss.

        With a reliable sender attached, losses already raise after
        retries; with the raw transport a dropped SET simply returns a
        TIMEOUT result — promote that to :class:`SmpTimeoutError` so the
        migration state machine treats both paths the same way.
        """
        result = self.sm.smp_sender.send(smp)
        if not result.ok:
            raise SmpTimeoutError(
                f"address update {smp.kind.value} to {smp.target!r} lost"
            )
        return result

    def _compensate_addresses(
        self,
        vm: VirtualMachine,
        source: Hypervisor,
        destination: Hypervisor,
        src_vf,
        dest_vf,
        vm_lid: int,
        prev_dest_guid,
        vguid_programmed: bool,
    ) -> None:
        """Undo step (a): re-point the VF addresses at the source.

        Mirrors the forward path — one SMP per touched hypervisor, plus
        the vGUID return when it had been transferred.
        """
        with span("address_rollback"):
            self.sm.smp_sender.send(
                Smp(
                    SmpMethod.SET,
                    SmpKind.PORT_INFO,
                    destination.hca.name,
                    payload={
                        "port": 1,
                        "vf": dest_vf.index,
                        "unset_lid": vm_lid,
                    },
                )
            )
            self.sm.smp_sender.send(
                Smp(
                    SmpMethod.SET,
                    SmpKind.PORT_INFO,
                    source.hca.name,
                    payload={
                        "port": 1,
                        "vf": src_vf.index,
                        "set_lid": vm_lid,
                    },
                )
            )
            if vguid_programmed:
                self.sm.smp_sender.send(
                    Smp(
                        SmpMethod.SET,
                        SmpKind.VGUID,
                        destination.hca.name,
                        payload={
                            "vf": dest_vf.index,
                            "vguid": prev_dest_guid,
                        },
                    )
                )
                destination.vswitch.set_vguid(dest_vf, prev_dest_guid)

    @staticmethod
    def _restore_vm_at_source(vm: VirtualMachine, src_vf) -> None:
        """Re-attach the source VF: the VM keeps running where it was."""
        src_vf.release()
        src_vf.attach(vm.name)
        vm.vf = src_vf
        vm.state = VmState.RUNNING

    @staticmethod
    def _validate(
        vm: VirtualMachine, source: Hypervisor, destination: Hypervisor
    ) -> int:
        """Refuse a migration that cannot start; return the LID that moves."""
        if source is destination:
            raise MigrationError("source and destination are the same node")
        if vm.name not in source.vms:
            raise MigrationError(f"{vm.name} does not run on {source.name}")
        if vm.state is not VmState.RUNNING:
            raise MigrationError(f"{vm.name} is {vm.state.value}, not running")
        lid = vm.lid
        if lid is None:
            raise MigrationError(f"{vm.name} has no LID to migrate")
        if not destination.has_capacity():
            raise MigrationError(f"{destination.name} has no free VF")
        return lid
