"""Scripted datacenter scenarios: churn + migrations + failures, traced.

A :class:`Scenario` is a reproducible sequence of operations against one
cloud — the "day in the life" the paper's introduction sketches (tenants
come and go, the operator consolidates, cables fail). Every action is
recorded in a :class:`~repro.sim.trace.Trace` with its cost, so a run can
be audited afterwards and regression-tested line by line.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List

from repro.errors import TopologyError
from repro.fabric.topology import TopologyMutation
from repro.obs.hub import span
from repro.sim.trace import Trace
from repro.virt.cloud import CloudManager
from repro.workloads.migration_patterns import ANY, MigrationPlanner
from repro.workloads.rewire import fabric_cables

__all__ = ["ScenarioSummary", "Scenario"]


@dataclass
class ScenarioSummary:
    """Aggregates of one scenario run."""

    boots: int = 0
    stops: int = 0
    migrations: int = 0
    failures: int = 0
    repairs: int = 0
    migration_lft_smps: int = 0
    failure_lft_smps: int = 0
    path_computations: int = 0  # how many times PCt was ever paid

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view for assertions and rendering."""
        return {
            "boots": self.boots,
            "stops": self.stops,
            "migrations": self.migrations,
            "failures": self.failures,
            "repairs": self.repairs,
            "migration_lft_smps": self.migration_lft_smps,
            "failure_lft_smps": self.failure_lft_smps,
            "path_computations": self.path_computations,
        }


class Scenario:
    """A seeded operation script over one cloud."""

    def __init__(self, cloud: CloudManager, built, *, seed: int = 0) -> None:
        self.cloud = cloud
        self.built = built
        self.rng = random.Random(seed)
        self.trace = Trace()
        self.summary = ScenarioSummary()
        self._planner = MigrationPlanner(cloud, built, seed=seed)
        self._clock = 0.0
        self._downed: List[TopologyMutation] = []

    def _tick(self) -> float:
        self._clock += 1.0
        return self._clock

    # -- primitive steps ------------------------------------------------------

    def boot(self, count: int = 1) -> None:
        """Boot *count* VMs on scheduler-chosen nodes (skips when full)."""
        for _ in range(count):
            if not any(
                h.has_capacity() for h in self.cloud.hypervisors.values()
            ):
                return
            vm = self.cloud.boot_vm()
            self.summary.boots += 1
            self.trace.emit(
                self._tick(), "boot", vm=vm.name, on=vm.hypervisor_name, lid=vm.lid
            )

    def stop(self, count: int = 1) -> None:
        """Stop *count* random running VMs."""
        for _ in range(count):
            names = [n for n, vm in self.cloud.vms.items() if vm.is_running]
            if not names:
                return
            name = self.rng.choice(names)
            self.cloud.stop_vm(name)
            self.summary.stops += 1
            self.trace.emit(self._tick(), "stop", vm=name)

    def migrate(self, count: int = 1, distance: str = ANY) -> None:
        """Perform *count* planner-chosen migrations."""
        for _ in range(count):
            plan = self._planner.plan_one(distance)
            if plan is None:
                return
            report = self.cloud.live_migrate(*plan)
            self.summary.migrations += 1
            self.summary.migration_lft_smps += report.reconfig.lft_smps
            self.trace.emit(
                self._tick(),
                "migrate",
                vm=report.vm_name,
                src=report.source,
                dest=report.destination,
                smps=report.reconfig.lft_smps,
                n_prime=report.switches_updated,
            )

    def fail_random_link(self) -> bool:
        """Cut one random inter-switch cable (skipped if it would partition).

        Returns True when a failure was injected.
        """
        links = fabric_cables(self.cloud.topology)
        self.rng.shuffle(links)
        for link in links:
            spec = TopologyMutation.cable("restore_link", link)
            try:
                report = self.cloud.sm.handle_link_failure(link)
            except TopologyError:
                continue  # would partition: refused, cable still in place
            self._downed.append(spec)
            self.summary.failures += 1
            self.summary.failure_lft_smps += report.lft_smps
            self.summary.path_computations += 1
            self.trace.emit(
                self._tick(),
                "link-failure",
                a=spec.a,
                b=spec.b,
                smps=report.lft_smps,
            )
            return True
        return False

    def repair_links(self) -> int:
        """Re-cable everything that failed; returns repairs performed."""
        repaired = 0
        while self._downed:
            spec = self._downed.pop()
            # Through the SM's kernel, so the routing cache repairs the
            # heal incrementally instead of recomputing all pairs.
            self.cloud.sm.apply_topology_mutation(spec)
            report = self.cloud.sm.incremental_reroute()
            self.summary.repairs += 1
            self.summary.path_computations += 1
            self.trace.emit(
                self._tick(), "link-repair", a=spec.a, b=spec.b,
                smps=report.lft_smps,
            )
            repaired += 1
        return repaired

    # -- canned scripts -----------------------------------------------------------

    def business_day(self) -> ScenarioSummary:
        """Morning scale-up, midday churn + a failure, evening consolidation."""
        with span("business_day") as sp:
            with span("morning_scale_up"):
                self.boot(count=self.cloud.total_capacity // 3)
            with span("midday_churn"):
                self.migrate(count=3)
                self.stop(count=2)
                self.boot(count=4)
                self.fail_random_link()
                self.migrate(count=3)
                self.repair_links()
            with span("evening_consolidation"):
                self.stop(count=3)
                self.migrate(count=2)
            sp.set_attributes(**self.summary.as_dict())
        return self.summary
