"""VM churn workloads: the "several VMs booted every minute" regime.

Drives a :class:`~repro.virt.cloud.CloudManager` with randomized boot/stop
events and accounts what the active LID scheme paid for them — the paper's
section V-B overhead ("Each time a VM is created, the LFTs of all the
physical switches in the subnet will need to be updated ... One SMP per
switch") versus prepopulation's zero-SMP boots.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional

from repro.core.migration import MigrationReport
from repro.errors import TransportError, VirtError
from repro.virt.cloud import CloudManager

__all__ = ["ChurnReport", "ChurnWorkload", "MigrationStep"]


@dataclass
class ChurnReport:
    """Outcome of one churn run."""

    boots: int = 0
    stops: int = 0
    rejected_boots: int = 0
    boot_lft_smps: List[int] = field(default_factory=list)
    #: Boots aborted by the control plane (lost SMPs, exhausted retries);
    #: the scheme rolled the LID/VF allocation back.
    failed_boots: int = 0
    #: Live migrations attempted (only with ``migrate_probability`` > 0).
    migrations: int = 0
    #: Migrations that aborted cleanly (subnet restored to pre-state).
    rolled_back_migrations: int = 0
    #: Migrations whose rollback also failed (subnet needs repair).
    failed_migrations: int = 0
    #: Admission-control outcomes (service-driven churn only): requests
    #: bounced off a tenant quota, shed under overload (both with a
    #: retry-after hint — never a silent drop), or expired in the queue.
    rejected_quota: int = 0
    rejected_overload: int = 0
    timed_out_requests: int = 0

    @property
    def total_boot_smps(self) -> int:
        """LFT SMPs spent on VM creation across the run."""
        return sum(self.boot_lft_smps)

    @property
    def mean_boot_smps(self) -> float:
        """Average LFT SMPs per VM boot."""
        return (
            self.total_boot_smps / len(self.boot_lft_smps)
            if self.boot_lft_smps
            else 0.0
        )


class MigrationStep(NamedTuple):
    """What one churn step's live migration cost."""

    report: MigrationReport
    #: LFT SMPs a lossless fabric needs for it (the predictors' n'·m').
    ideal_lft_smps: int
    #: LFT SMPs actually sent, retransmissions included.
    lft_smps: int


class ChurnWorkload:
    """Random boot/stop driver with a target utilization."""

    def __init__(
        self,
        cloud: CloudManager,
        *,
        seed: int = 0,
        target_utilization: float = 0.5,
        migrate_probability: float = 0.0,
    ) -> None:
        if not 0.0 < target_utilization <= 1.0:
            raise VirtError("target_utilization must be in (0, 1]")
        if not 0.0 <= migrate_probability <= 1.0:
            raise VirtError("migrate_probability must be in [0, 1]")
        self.cloud = cloud
        self.rng = random.Random(seed)
        self.target_utilization = target_utilization
        #: Probability that a step live-migrates a random running VM
        #: instead of booting/stopping. At the default 0 no RNG draw is
        #: made for it, so pre-existing seeded runs replay unchanged.
        self.migrate_probability = migrate_probability

    def run(self, steps: int) -> ChurnReport:
        """Perform *steps* boot-or-stop (or migrate) events."""
        report = ChurnReport()
        for _ in range(steps):
            self.step(report)
        return report

    def step(self, report: ChurnReport) -> Optional[MigrationStep]:
        """One boot-or-stop (or migrate) decision, booked into *report*.

        Boots are favoured below the target utilization, stops above it, so
        the cloud hovers around the target while continuously churning.
        Returns what the step's migration cost, or None when the step
        booted, stopped or found nothing to move.
        """
        if (
            self.migrate_probability
            and self.rng.random() < self.migrate_probability
        ):
            return self._migrate(report)
        cap = self.cloud.total_capacity
        running = self.cloud.running_vm_count
        utilization = running / cap if cap else 1.0
        boot_bias = 0.9 if utilization < self.target_utilization else 0.1
        if running == 0 or self.rng.random() < boot_bias:
            self._boot(report)
        else:
            self._stop(report)
        return None

    def _boot(self, report: ChurnReport) -> None:
        candidates = [
            h for h in self.cloud.hypervisors.values() if h.has_capacity()
        ]
        if not candidates:
            report.rejected_boots += 1
            return
        before = self.cloud.sm.transport.stats.lft_update_smps
        try:
            self.cloud.boot_vm()
        except TransportError:
            # The scheme rolled the boot back (LID and VF returned); the
            # churn keeps going on the degraded fabric.
            report.failed_boots += 1
            return
        after = self.cloud.sm.transport.stats.lft_update_smps
        report.boots += 1
        report.boot_lft_smps.append(after - before)

    def _migrate(self, report: ChurnReport) -> Optional[MigrationStep]:
        running = [vm for vm in self.cloud.vms.values() if vm.is_running]
        if not running:
            return None
        vm = self.rng.choice(running)
        candidates = [
            h
            for h in self.cloud.hypervisors.values()
            if h.name != vm.hypervisor_name and h.has_capacity()
        ]
        if not candidates:
            return None
        dest = self.rng.choice(candidates)
        ideal = self._predict_lft_smps(vm, dest)
        stats = self.cloud.sm.transport.stats
        before = stats.lft_update_smps
        outcome = self.cloud.live_migrate(vm.name, dest.name)
        report.migrations += 1
        if outcome.outcome == "rolled_back":
            report.rolled_back_migrations += 1
        elif outcome.outcome == "failed":
            report.failed_migrations += 1
        return MigrationStep(outcome, ideal, stats.lft_update_smps - before)

    def _predict_lft_smps(self, vm, dest) -> int:
        """The lossless n'·m' cost of the migration about to run."""
        reconfigurer = self.cloud.scheme.reconfigurer
        if self.cloud.scheme.name == "prepopulated":
            dest_lid = dest.vswitch.first_free_vf().lid
            if dest_lid is None:
                return 0
            return reconfigurer.predict_swap(vm.vf.lid, dest_lid)[1]
        if dest.vswitch.pf_lid is None:
            return 0
        return reconfigurer.predict_copy(dest.vswitch.pf_lid, vm.vf.lid)[1]

    def _stop(self, report: ChurnReport) -> None:
        names = [
            name for name, vm in self.cloud.vms.items() if vm.is_running
        ]
        if not names:
            return
        self.cloud.stop_vm(self.rng.choice(names))
        report.stops += 1
