"""Chaos runs: churn and migrations on a fabric that keeps breaking.

The chaos runner is the integration point of the fault-injection layer:
it drives a :class:`~repro.virt.cloud.CloudManager` through boot/stop/
migrate steps while a :class:`~repro.faults.injector.FaultInjector`
drops, corrupts and delays SMPs in flight, and while fabric-level events
— link flaps through the :class:`~repro.sm.traps.FabricEventManager`,
spine-switch deaths, the master SM dying mid-reconfiguration — hit the
control plane. At the end it audits the subnet with
:func:`~repro.analysis.verification.verify_subnet`: the run *passes*
only if, despite everything, the forwarding state is exactly what a
fault-free control plane would have produced.

Two cost ledgers make the paper's argument measurable under faults:

* **achieved vs ideal SMPs** — each migration's actual LFT SMP count
  (retransmissions included) against the n'·m' the
  :class:`~repro.core.reconfig.VSwitchReconfigurer` predictors say a
  lossless fabric would need;
* **downtime inflation** — how much of the total VM downtime is MAD
  retry backoff (``retry_wait_seconds``) rather than useful work.

Determinism: all randomness comes from two seeded streams — the
injector's SMP stream and its ``fabric_rng`` for event scheduling — plus
the churn RNG, all derived from the plan seed, so a chaos run replays
bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.errors import (
    DistributionError,
    ReproError,
    SimulationError,
    TopologyError,
    TransportError,
)
from repro.fabric.node import Switch
from repro.fabric.topology import TopologyMutation
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.mad.reliable import RetryPolicy
from repro.obs.hub import get_hub, span
from repro.sm.ha import HighAvailabilityManager
from repro.sm.traps import FabricEventManager
from repro.telemetry.analytics import CongestionDetector, top_talkers
from repro.telemetry.harness import TelemetryHarness
from repro.telemetry.perf import PerfManager
from repro.virt.cloud import CloudManager
from repro.workloads.churn import ChurnReport, ChurnWorkload

__all__ = ["ChaosReport", "ChaosTelemetry", "ChaosRunner"]


@dataclass
class ChaosTelemetry:
    """Fabric-telemetry rows of one chaos run (opt-in via ``telemetry=True``).

    Populated by measured traffic bursts between chaos steps, PerfManager
    sweeps through the (faulty) MAD plane, and the congestion detector;
    the flap rows isolate what the flapped links' own ports recorded.
    """

    bursts: int = 0
    packets_injected: int = 0
    packets_delivered: int = 0
    hoq_discards: int = 0
    unroutable_discards: int = 0
    xmit_wait_seconds: float = 0.0
    #: Discards / wait observed on the switch ports of flapped links.
    flapped_port_discards: int = 0
    flapped_port_wait_seconds: float = 0.0
    sweeps: int = 0
    sweep_smps: int = 0
    sweep_misses: int = 0
    congestion_events: int = 0
    congestion_seconds: float = 0.0
    peak_utilization: float = 0.0
    #: Hottest link seen in a sweep right after a completed migration.
    peak_migration_utilization: float = 0.0
    matrix_endpoints: int = 0
    matrix_total: int = 0
    matrix_consistent: bool = False

    def render_lines(self) -> List[str]:
        """The telemetry rows of :meth:`ChaosReport.render`."""
        return [
            (
                f"telemetry: {self.bursts} bursts"
                f" ({self.packets_injected} injected,"
                f" {self.packets_delivered} delivered);"
                f" discards hoq={self.hoq_discards}"
                f" unroutable={self.unroutable_discards};"
                f" xmit-wait {self.xmit_wait_seconds * 1e3:.3f}ms"
            ),
            (
                f"telemetry flap windows: {self.flapped_port_discards}"
                f" discards, {self.flapped_port_wait_seconds * 1e3:.3f}ms"
                f" wait on flapped ports"
            ),
            (
                f"telemetry sweeps: {self.sweeps}"
                f" ({self.sweep_smps} SMPs, {self.sweep_misses} misses);"
                f" congestion: {self.congestion_events} events,"
                f" {self.congestion_seconds * 1e3:.3f}ms;"
                f" peak util {self.peak_utilization:.1%}"
                f" (post-migration {self.peak_migration_utilization:.1%})"
            ),
            (
                f"telemetry matrix: {self.matrix_endpoints} endpoints,"
                f" {self.matrix_total} delivered packets"
                f" (row sums"
                f" {'consistent' if self.matrix_consistent else 'INCONSISTENT'})"
            ),
        ]


@dataclass
class ChaosReport:
    """Outcome of one chaos run."""

    steps: int = 0
    plan: str = ""
    #: Boot/stop/migration outcomes (shared shape with plain churn runs).
    churn: ChurnReport = field(default_factory=ChurnReport)
    #: Fabric events performed / refused (refusals: the event would have
    #: partitioned the fabric, so the SM declined it).
    link_flaps: int = 0
    refused_link_flaps: int = 0
    switch_failures: int = 0
    refused_switch_failures: int = 0
    sm_failovers: int = 0
    #: Master SM deaths injected (each should produce one failover).
    sm_deaths: int = 0
    #: Management-plane partitions injected (and later healed).
    partitions: int = 0
    #: Fenced writes the fabric rejected as stale (split-brain fencing
    #: doing its job — every one of these is a write a stale master was
    #: NOT allowed to apply).
    stale_writes_rejected: int = 0
    #: Stale masters demoted after losing the SMInfo comparison.
    sm_demotions: int = 0
    #: Steps the workload sat out because no alive master existed (the
    #: window between a master death and the standby's lease expiry).
    stalled_steps: int = 0
    #: Which sweep the last failover paid ("light"/"heavy") and its
    #: handshake cost — the headline HA economics.
    failover_sweep_mode: str = ""
    failover_handshake_smps: int = 0
    journal_entries_replayed: int = 0
    #: Trap-pipeline pressure: injected flap storms and how the bounded
    #: VL15 queue absorbed them.
    trap_storms: int = 0
    coalesced_traps: int = 0
    throttled_traps: int = 0
    #: Live topology mutations performed by the ``rewire`` knob, and the
    #: ones the planner could not place (no viable candidate) or the SM
    #: refused.
    rewires: int = 0
    refused_rewires: int = 0
    #: Mutations performed, by kind (``add_link``, ``remove_switch``, ...).
    rewire_kinds: Dict[str, int] = field(default_factory=dict)
    #: How the routing cache absorbed each rewire's recompute.
    rewire_repair_incremental: int = 0
    rewire_repair_full: int = 0
    rewire_repair_warm: int = 0
    #: BFS source trees reswept across all incremental rewire repairs.
    rewire_sources_repaired: int = 0
    #: Problems found by the per-mutation convergence audit (one
    #: ``verify_subnet`` after every rewire) — must stay empty.
    rewire_audit_failures: List[str] = field(default_factory=list)
    #: Whether the final routing equals a cold from-scratch recompute
    #: byte-for-byte (None when no rewires ran).
    final_routing_cold_identical: Optional[bool] = None
    #: LFT SMPs spent reacting to fabric events (the *legitimate* heavy
    #: reconfigurations, kept apart from the migration ledger).
    reroute_smps: int = 0
    #: Migration SMP ledger: what a lossless fabric would have needed
    #: (the predictors' n'·m') vs what was actually sent, retries and all.
    ideal_migration_smps: int = 0
    achieved_migration_smps: int = 0
    #: Downtime ledger across completed migrations.
    total_downtime_seconds: float = 0.0
    retry_wait_seconds: float = 0.0
    smp_retries: int = 0
    smp_timeouts: int = 0
    #: Injector decision counts by action.
    fault_summary: Dict[str, int] = field(default_factory=dict)
    #: Control-plane operations that failed even after retries/rollback.
    control_plane_errors: List[str] = field(default_factory=list)
    #: Final subnet audit (populated once ``verified`` is True).
    verified: bool = False
    verification_failures: List[str] = field(default_factory=list)
    #: Fabric telemetry rows (None unless the runner ran with telemetry).
    telemetry: Optional[ChaosTelemetry] = None

    @property
    def ok(self) -> bool:
        """True iff the end-state audit ran and found nothing wrong."""
        return (
            self.verified
            and not self.verification_failures
            and not self.rewire_audit_failures
            and self.final_routing_cold_identical is not False
        )

    @property
    def smp_overhead_ratio(self) -> float:
        """achieved / ideal migration SMPs (1.0 on a lossless fabric)."""
        if not self.ideal_migration_smps:
            return 1.0
        return self.achieved_migration_smps / self.ideal_migration_smps

    @property
    def downtime_inflation(self) -> float:
        """Fraction of total migration downtime that was retry backoff."""
        if not self.total_downtime_seconds:
            return 0.0
        return self.retry_wait_seconds / self.total_downtime_seconds

    def render(self, *, max_problems: int = 10) -> str:
        """Human-readable run summary (the ``repro chaos`` output)."""
        c = self.churn
        lines = [
            f"chaos: {self.steps} steps [{self.plan}]",
            (
                f"workload: {c.boots} boots ({c.failed_boots} failed),"
                f" {c.stops} stops, {c.migrations} migrations"
                f" ({c.rolled_back_migrations} rolled back,"
                f" {c.failed_migrations} failed)"
                + (
                    f"; admission: {c.rejected_quota} quota,"
                    f" {c.rejected_overload} overload,"
                    f" {c.timed_out_requests} timed out"
                    if c.rejected_quota
                    or c.rejected_overload
                    or c.timed_out_requests
                    else ""
                )
            ),
            (
                f"fabric: {self.link_flaps} link flaps"
                f" ({self.refused_link_flaps} refused),"
                f" {self.switch_failures} switch failures"
                f" ({self.refused_switch_failures} refused),"
                f" {self.sm_failovers} SM failovers"
            ),
            (
                f"ha: {self.sm_deaths} SM deaths, {self.partitions}"
                f" partitions, {self.stale_writes_rejected} stale writes"
                f" fenced, {self.sm_demotions} demotions,"
                f" {self.stalled_steps} masterless steps"
                + (
                    f"; failover sweep={self.failover_sweep_mode}"
                    f" (handshake {self.failover_handshake_smps} SMPs,"
                    f" {self.journal_entries_replayed} journal entries)"
                    if self.failover_sweep_mode
                    else ""
                )
            ),
            (
                f"traps: {self.trap_storms} storms,"
                f" {self.coalesced_traps} coalesced,"
                f" {self.throttled_traps} throttled"
            ),
        ]
        if self.rewires or self.refused_rewires:
            kinds = ", ".join(
                f"{kind}={count}"
                for kind, count in sorted(self.rewire_kinds.items())
            )
            lines.append(
                f"rewires: {self.rewires} performed"
                f" ({self.refused_rewires} refused)"
                + (f" [{kinds}]" if kinds else "")
                + f"; repair incremental={self.rewire_repair_incremental}"
                f" full={self.rewire_repair_full}"
                f" warm={self.rewire_repair_warm}"
                f" ({self.rewire_sources_repaired} sources reswept)"
            )
            if self.final_routing_cold_identical is not None:
                lines.append(
                    "final routing vs cold recompute: "
                    + (
                        "byte-identical"
                        if self.final_routing_cold_identical
                        else "DIVERGED"
                    )
                )
            if self.rewire_audit_failures:
                lines.append(
                    f"rewire audits: FAILED"
                    f" ({len(self.rewire_audit_failures)} problems)"
                )
                lines.extend(
                    f"  {p}"
                    for p in self.rewire_audit_failures[:max_problems]
                )
            else:
                lines.append(
                    "rewire audits: clean (every mutation converged)"
                )
        lines += [
            (
                f"migration SMPs: ideal n'*m'={self.ideal_migration_smps},"
                f" achieved={self.achieved_migration_smps}"
                f" ({self.smp_overhead_ratio:.2f}x);"
                f" reroute SMPs={self.reroute_smps}"
            ),
            (
                f"transport: {self.smp_retries} retries,"
                f" {self.smp_timeouts} timeouts,"
                f" retry wait {self.retry_wait_seconds * 1e3:.3f}ms"
                f" ({self.downtime_inflation:.1%} of"
                f" {self.total_downtime_seconds * 1e3:.3f}ms downtime)"
            ),
            "faults injected: "
            + ", ".join(
                f"{action}={count}"
                for action, count in self.fault_summary.items()
                if action != "deliver"
            ),
        ]
        if self.telemetry is not None:
            lines.extend(self.telemetry.render_lines())
        if self.control_plane_errors:
            lines.append(
                f"control-plane errors: {len(self.control_plane_errors)}"
            )
            lines.extend(
                f"  {err}" for err in self.control_plane_errors[:max_problems]
            )
        if not self.verified:
            lines.append("verification: NOT RUN")
        elif self.verification_failures:
            lines.append(
                f"verification: FAILED"
                f" ({len(self.verification_failures)} problems)"
            )
            lines.extend(
                f"  {p}"
                for p in self.verification_failures[:max_problems]
            )
        else:
            lines.append("verification: clean (forwarding state exact)")
        return "\n".join(lines)


class ChaosRunner:
    """Drive one cloud through a fault plan and audit the wreckage."""

    def __init__(
        self,
        cloud: CloudManager,
        plan: FaultPlan,
        *,
        retry_policy: Optional[RetryPolicy] = None,
        resilient: bool = True,
        migrate_probability: float = 0.25,
        target_utilization: float = 0.5,
        telemetry: bool = False,
        telemetry_interval: int = 4,
        telemetry_endpoints: int = 8,
    ) -> None:
        self.cloud = cloud
        self.sm = cloud.sm
        self.plan = plan
        self.injector = FaultInjector(plan)
        self.events = FabricEventManager(self.sm)
        self.ha = HighAvailabilityManager(self.sm)
        self.migrate_probability = migrate_probability
        #: Reused for its boot/stop mechanics and failure accounting; the
        #: chaos runner makes the per-step decisions itself.
        self.churn = ChurnWorkload(
            cloud, seed=plan.seed, target_utilization=target_utilization
        )
        if resilient:
            self.sm.enable_resilience(retry_policy, transactional=True)
        #: Telemetry mode: PerfManager sweeps + measured bursts between
        #: steps, and flap windows observed through the flapped ports'
        #: own counters. Built after ``enable_resilience`` so sweep MADs
        #: go through the retrying sender (``sm.smp_sender``).
        self.telemetry_enabled = telemetry
        self.perf: Optional[PerfManager] = None
        self.detector: Optional[CongestionDetector] = None
        self.harness: Optional[TelemetryHarness] = None
        self._telemetry_interval = max(1, telemetry_interval)
        #: (switch name, port) pairs of successfully flapped link ends.
        self._flapped_ports: List[Tuple[str, int]] = []
        if telemetry:
            self.perf = PerfManager(self.sm)
            self.detector = CongestionDetector(self.events)
            self.harness = TelemetryHarness(
                self.sm,
                perf=self.perf,
                max_endpoints=telemetry_endpoints,
                channel_credits=1,
            )
        self._register_sm_candidates()
        #: Step at which the current partition heals (None = no partition
        #: in flight) and who was cut off.
        self._heal_step: Optional[int] = None
        self._partitioned_master: Optional[str] = None
        #: Rewire state: mutations per step (filled by :meth:`run` from
        #: ``plan.rewire_ops``), restore candidates for cables a rewire
        #: removed, names of switches a rewire added (preferred removal
        #: victims), and a monotonic sequence for generated names.
        self._rewire_counts: Dict[int, int] = {}
        self._removed_cables: List[TopologyMutation] = []
        self._added_switches: List[str] = []
        self._rewire_seq = 0

    def _register_sm_candidates(self) -> None:
        """Master on the current SM node, two standbys elsewhere.

        Two standbys (not one) so the HA protocol survives a master
        death *followed by* a partition of the successor: the second
        standby is what supersedes the partitioned master and arms the
        fence against it.
        """
        master_node = self.sm.transport.sm_node
        self.ha.register(
            master_node.name,
            getattr(master_node, "node_guid", None)
            or self.cloud.guids.allocate_virtual(),
            priority=10,
        )
        priority = 5
        for hca in reversed(self.sm.topology.hcas):
            if hca is master_node:
                continue
            self.ha.register(
                hca.name,
                getattr(hca, "node_guid", None)
                or self.cloud.guids.allocate_virtual(),
                priority=priority,
            )
            priority -= 4
            if priority < 0:
                break
        self.ha.bootstrap()

    # -- the run ------------------------------------------------------------

    def run(self, steps: int) -> ChaosReport:
        """Perform *steps* chaos steps, then audit the subnet."""
        report = ChaosReport(steps=steps, plan=self.plan.describe())
        if self.telemetry_enabled:
            report.telemetry = ChaosTelemetry()
        # Spread rewire ops evenly over the run (deterministic schedule;
        # only the mutation *choice* comes from the fabric RNG).
        self._rewire_counts = {}
        for i in range(self.plan.rewire_ops):
            at = int((i + 1) * steps / (self.plan.rewire_ops + 1))
            at = min(at, max(steps - 1, 0))
            self._rewire_counts[at] = self._rewire_counts.get(at, 0) + 1
        transport = self.sm.transport
        if self.plan.injects_smp_faults:
            transport.set_fault_injector(self.injector)
        run_before = transport.stats.snapshot()
        try:
            with span(
                "chaos_run", steps=steps, plan=self.plan.describe()
            ):
                for step in range(steps):
                    self._step(step, report)
        finally:
            transport.set_fault_injector(None)
        run_delta = transport.stats.delta_since(run_before)
        report.smp_retries = run_delta.retransmissions
        report.smp_timeouts = run_delta.timeouts
        report.retry_wait_seconds = run_delta.retry_wait_seconds
        report.fault_summary = self.injector.summary()
        report.coalesced_traps = self.events.traps_coalesced
        report.throttled_traps = self.events.traps_throttled
        if report.rewires:
            self._final_cold_check(report)
        if report.telemetry is not None:
            self._finalize_telemetry(report)
        self._verify(report)
        self._expose(report)
        return report

    def _step(self, step: int, report: ChaosReport) -> None:
        if (
            self.plan.sm_death_step is not None
            and step == self.plan.sm_death_step
        ):
            self._sm_death(step, report)
        if (
            self.plan.partition_step is not None
            and step == self.plan.partition_step
        ):
            self._partition(step, report)
        if self._heal_step is not None and step == self._heal_step:
            self._heal_partition(report)
        if (
            self.plan.link_flap_storm_step is not None
            and step == self.plan.link_flap_storm_step
        ):
            self._link_flap_storm(step, report)
        for _ in range(self._rewire_counts.get(step, 0)):
            self._rewire(report)
        self._ha_tick(report)
        frng = self.injector.fabric_rng
        if self.plan.link_flap_rate and frng.random() < self.plan.link_flap_rate:
            self._link_flap(report)
        if (
            self.plan.switch_failure_rate
            and frng.random() < self.plan.switch_failure_rate
        ):
            self._switch_failure(report)
        if self.ha.has_master:
            self._workload_step(report)
        else:
            # Nobody is master: migrations/boots would go unrouted. The
            # cloud stalls until the lease protocol elects a successor.
            report.stalled_steps += 1
        if (
            self.telemetry_enabled
            and step % self._telemetry_interval == 0
        ):
            self._telemetry_tick(report)

    # -- workload -----------------------------------------------------------

    def _workload_step(self, report: ChaosReport) -> None:
        rng = self.churn.rng
        if (
            self.migrate_probability
            and rng.random() < self.migrate_probability
        ):
            self._migrate(report)
            return
        cap = self.cloud.total_capacity
        running = self.cloud.running_vm_count
        utilization = running / cap if cap else 1.0
        boot_bias = (
            0.9 if utilization < self.churn.target_utilization else 0.1
        )
        if running == 0 or rng.random() < boot_bias:
            self.churn._boot(report.churn)
        else:
            self.churn._stop(report.churn)

    def _migrate(self, report: ChaosReport) -> None:
        rng = self.churn.rng
        running = [vm for vm in self.cloud.vms.values() if vm.is_running]
        if not running:
            return
        vm = rng.choice(running)
        candidates = [
            h
            for h in self.cloud.hypervisors.values()
            if h.name != vm.hypervisor_name and h.has_capacity()
        ]
        if not candidates:
            return
        dest = rng.choice(candidates)
        ideal = self._predict_ideal_smps(vm, dest)
        before = self.sm.transport.stats.snapshot()
        outcome = self.cloud.live_migrate(vm.name, dest.name)
        delta = self.sm.transport.stats.delta_since(before)
        report.churn.migrations += 1
        report.total_downtime_seconds += outcome.downtime_seconds
        if outcome.outcome == "rolled_back":
            report.churn.rolled_back_migrations += 1
        elif outcome.outcome == "failed":
            report.churn.failed_migrations += 1
            report.control_plane_errors.append(
                f"migration {vm.name}: {outcome.failure}"
            )
        else:
            report.ideal_migration_smps += ideal
            report.achieved_migration_smps += delta.lft_update_smps
            if self.telemetry_enabled:
                # Measure the fabric right after the move: the planner
                # item wants post-migration hot-link evidence.
                self._telemetry_tick(report, migration=True)

    def _predict_ideal_smps(self, vm, dest) -> int:
        """The lossless n'·m' cost of the migration about to run."""
        reconfigurer = self.cloud.scheme.reconfigurer
        vm_lid = vm.vf.lid
        if self.cloud.scheme.name == "prepopulated":
            dest_vf = dest.vswitch.first_free_vf()
            if dest_vf.lid is None:
                return 0
            return reconfigurer.predict_swap(vm_lid, dest_vf.lid)[1]
        dest_pf_lid = dest.vswitch.pf_lid
        if dest_pf_lid is None:
            return 0
        return reconfigurer.predict_copy(dest_pf_lid, vm_lid)[1]

    # -- fabric events -------------------------------------------------------

    def _link_flap(self, report: ChaosReport) -> None:
        frng = self.injector.fabric_rng
        links = self._fabric_cables()
        if not links:
            return
        link = frng.choice(links)
        if self.telemetry_enabled:
            self._telemetry_link_flap(report, link)
            return
        end_a, end_b = link.ends
        a, pa = end_a.node, end_a.num
        b, pb = end_b.node, end_b.num
        before = self.sm.transport.stats.snapshot()
        with span("link_flap", a=a.name, b=b.name) as sp:
            try:
                self.events.link_down(link)
            except TopologyError:
                # The cut would have partitioned the fabric: the SM
                # refused it and the cable is back in place.
                sp.set_attribute("refused", True)
                report.refused_link_flaps += 1
                return
            except (TransportError, DistributionError) as exc:
                report.control_plane_errors.append(f"link flap down: {exc}")
                self._recover(report, self.sm.distribute)
            self._recover(
                report,
                lambda: self.events.link_up(a, pa, b, pb),
                label="link flap up",
            )
        delta = self.sm.transport.stats.delta_since(before)
        report.link_flaps += 1
        report.reroute_smps += delta.lft_update_smps
        get_hub().metrics.counter("repro_chaos_link_flaps_total").add(1)

    # -- telemetry mode ------------------------------------------------------

    def _telemetry_link_flap(self, report: ChaosReport, link) -> None:
        """Flap a link *observably*: traffic runs while it is down.

        Uses the deferred trap path so there is a real blackhole window:
        after :meth:`report_link_down` the LFTs still point at the dead
        port until the pump reroutes. A burst run inside that window
        charges xmit-wait (one HOQ lifetime per head-of-queue packet)
        and unroutable discards to the flapped ports themselves — the
        PMA-visible signature of a flap the acceptance gate checks.
        """
        end_a, end_b = link.ends
        a, pa = end_a.node, end_a.num
        b, pb = end_b.node, end_b.num
        before = self.sm.transport.stats.snapshot()
        with span(
            "link_flap", a=a.name, b=b.name, telemetry=True
        ) as sp:
            try:
                self.events.report_link_down(link)
            except TopologyError:
                # Cut would partition: refused with the cable replugged.
                sp.set_attribute("refused", True)
                report.refused_link_flaps += 1
                return
            self._flapped_ports.extend([(a.name, pa), (b.name, pb)])
            self._telemetry_burst(report)
            self._recover(
                report,
                lambda: self.events.pump(force=True),
                label="flap reroute",
            )
            self._recover(
                report,
                lambda: self.events.report_link_up(a, pa, b, pb),
                label="link flap up",
            )
            self._recover(
                report,
                lambda: self.events.pump(force=True),
                label="flap-up reroute",
            )
        delta = self.sm.transport.stats.delta_since(before)
        report.link_flaps += 1
        report.reroute_smps += delta.lft_update_smps
        get_hub().metrics.counter("repro_chaos_link_flaps_total").add(1)
        # Sweep right away so the flap window's counters (and any
        # congestion events they imply) land in the store this step.
        self._telemetry_observe(report)

    def _telemetry_tick(
        self, report: ChaosReport, *, migration: bool = False
    ) -> None:
        """One burst + sweep + congestion scan (the periodic tick)."""
        if report.telemetry is None or self.harness is None:
            return
        self._telemetry_burst(report)
        self._telemetry_observe(report, migration=migration)

    def _telemetry_burst(self, report: ChaosReport):
        """Run one measured burst; ledger its packets. Returns stats."""
        tel = report.telemetry
        try:
            stats = self.harness.burst()
        except (ReproError, SimulationError) as exc:
            report.control_plane_errors.append(f"telemetry burst: {exc}")
            return None
        tel.bursts += 1
        tel.packets_injected += stats.injected
        tel.packets_delivered += stats.delivered
        return stats

    def _telemetry_observe(
        self, report: ChaosReport, *, migration: bool = False
    ) -> None:
        """Sweep the counters and scan them for congestion."""
        tel = report.telemetry
        try:
            sweep = self.harness.sweep()
        except (TransportError, DistributionError) as exc:
            report.control_plane_errors.append(f"telemetry sweep: {exc}")
            return
        tel.sweeps += 1
        tel.sweep_smps += sweep.smps
        tel.sweep_misses += len(sweep.missed)
        self.detector.scan(self.harness.store)
        hot = top_talkers(self.harness.store, top=1)
        utilization = hot[0].utilization if hot else 0.0
        tel.peak_utilization = max(tel.peak_utilization, utilization)
        if migration:
            tel.peak_migration_utilization = max(
                tel.peak_migration_utilization, utilization
            )

    def _finalize_telemetry(self, report: ChaosReport) -> None:
        """Fold the run's counters/matrix into the telemetry rows."""
        tel = report.telemetry
        topo = self.sm.topology
        for sw in topo.switches:
            for num in sorted(sw.counters):
                if num < 1:
                    # Port 0 is the switch's MAD endpoint, not a link.
                    continue
                pc = sw.counters[num]
                tel.hoq_discards += pc.hoq_discards
                tel.unroutable_discards += pc.unroutable_discards
                tel.xmit_wait_seconds += pc.xmit_wait / 1e9
        seen = set()
        for name, port in self._flapped_ports:
            if (name, port) in seen:
                continue
            seen.add((name, port))
            try:
                pc = topo.node(name).port_counters(port)
            except TopologyError:
                # The switch died in a later switch-failure event.
                continue
            tel.flapped_port_discards += (
                pc.hoq_discards + pc.unroutable_discards
            )
            tel.flapped_port_wait_seconds += pc.xmit_wait / 1e9
        if self.harness is not None:
            tel.matrix_endpoints = len(self.harness.matrix.endpoints)
            tel.matrix_total = self.harness.matrix.total
            tel.matrix_consistent = self.harness.verify_matrix()
        tel.congestion_events = len(self.events.congestion_events)
        if self.detector is not None:
            tel.congestion_seconds = self.detector.congestion_seconds

    def _switch_failure(self, report: ChaosReport) -> None:
        frng = self.injector.fabric_rng
        safe = [
            sw
            for sw in self.sm.topology.switches
            if not sw.attached_hcas() and not self._would_partition(sw)
        ]
        if not safe:
            report.refused_switch_failures += 1
            return
        victim = frng.choice(safe)
        before = self.sm.transport.stats.snapshot()
        with span("switch_failure", switch=victim.name):
            self._recover(
                report,
                lambda: self.sm.handle_switch_failure(victim),
                label=f"switch failure {victim.name}",
            )
        delta = self.sm.transport.stats.delta_since(before)
        report.switch_failures += 1
        report.reroute_smps += delta.lft_update_smps
        get_hub().metrics.counter("repro_chaos_switch_failures_total").add(1)

    def _fabric_cables(self) -> list:
        """Inter-switch cables in registry order — the flap/rewire pool."""
        return [
            link
            for link in self.sm.topology.links
            if min(link.switch_ends) >= 0
        ]

    def _would_partition(self, dead: Switch) -> bool:
        """Whether removing *dead* disconnects the remaining switch graph."""
        view = self.sm.topology.fabric_view()
        return view.num_switches < 2 or bool(
            view.unreached(without_switch=dead.index)
        )

    def _link_would_partition(self, link) -> bool:
        """Whether cutting *link* disconnects the switch graph."""
        view = self.sm.topology.fabric_view()
        return view.num_switches < 2 or bool(
            view.unreached(without_link=link.switch_ends)
        )

    # -- live rewiring (the rewire knob) --------------------------------------

    def _rewire(self, report: ChaosReport) -> None:
        """Perform one live topology mutation and audit its convergence."""
        mutation = self._plan_rewire()
        if mutation is None:
            # No viable candidate of any kind (e.g. every removal would
            # partition and every port is cabled).
            report.refused_rewires += 1
            return
        before = self.sm.transport.stats.snapshot()
        change = None
        with span(
            "rewire", kind=mutation.kind, detail=mutation.describe()
        ) as sp:
            try:
                change = self.sm.handle_topology_change(
                    mutation, verify=False
                )
            except TopologyError as exc:
                sp.set_attribute("refused", True)
                report.refused_rewires += 1
                report.control_plane_errors.append(
                    f"rewire {mutation.describe()}: {exc}"
                )
                return
            except (TransportError, DistributionError) as exc:
                report.control_plane_errors.append(
                    f"rewire {mutation.describe()}: {exc}"
                )
                self._recover(
                    report, self.sm.distribute, label="rewire repair"
                )
        self._note_rewire_pools(mutation)
        delta = self.sm.transport.stats.delta_since(before)
        report.rewires += 1
        report.rewire_kinds[mutation.kind] = (
            report.rewire_kinds.get(mutation.kind, 0) + 1
        )
        report.reroute_smps += delta.lft_update_smps
        if change is not None:
            if change.repair_mode == "incremental":
                report.rewire_repair_incremental += 1
            elif change.repair_mode == "full":
                report.rewire_repair_full += 1
            elif change.repair_mode == "warm":
                report.rewire_repair_warm += 1
            report.rewire_sources_repaired += change.sources_repaired
        get_hub().metrics.counter(
            "repro_chaos_rewires_total", kind=mutation.kind
        ).add(1)
        # Convergence audit after EVERY mutation: delivery walked on the
        # hardware LFTs and SM-consistency checked, not just at run end.
        from repro.analysis.verification import verify_subnet

        audit = verify_subnet(self.sm)
        for problem in audit.problems():
            report.rewire_audit_failures.append(
                f"{mutation.describe()}: {problem}"
            )

    def _note_rewire_pools(self, mutation: TopologyMutation) -> None:
        """Track inverse-operation candidates for later rewires."""
        if mutation.kind == "remove_link":
            self._removed_cables.append(replace(mutation, kind="restore_link"))
        elif mutation.kind == "add_switch":
            self._added_switches.append(mutation.a)
        elif mutation.kind == "remove_switch":
            if mutation.a in self._added_switches:
                self._added_switches.remove(mutation.a)

    def _plan_rewire(self) -> Optional[TopologyMutation]:
        """Pick the next mutation from the fabric RNG stream.

        Draws the preferred kind first, then rotates through the others
        until one has a viable candidate, so a single exhausted pool
        (e.g. nothing left to restore) never wastes a scheduled op.
        """
        frng = self.injector.fabric_rng
        planners = (
            self._plan_add_link,
            self._plan_remove_link,
            self._plan_restore_link,
            self._plan_add_switch,
            self._plan_remove_switch,
        )
        start = frng.randrange(len(planners))
        for offset in range(len(planners)):
            mutation = planners[(start + offset) % len(planners)]()
            if mutation is not None:
                return mutation
        return None

    def _plan_add_link(self) -> Optional[TopologyMutation]:
        """A new cable between two non-adjacent switches with free ports."""
        topology = self.sm.topology
        adjacent = {
            tuple(sorted((link.a.node.name, link.b.node.name)))
            for link in self._fabric_cables()
        }
        open_switches = [
            sw
            for sw in topology.switches
            if next(sw.free_ports(), None) is not None
        ]
        pairs = [
            (a, b)
            for i, a in enumerate(open_switches)
            for b in open_switches[i + 1 :]
            if tuple(sorted((a.name, b.name))) not in adjacent
        ]
        if not pairs:
            return None
        a, b = self.injector.fabric_rng.choice(pairs)
        return TopologyMutation(
            kind="add_link",
            a=a.name,
            port_a=next(a.free_ports()).num,
            b=b.name,
            port_b=next(b.free_ports()).num,
        )

    def _plan_remove_link(self) -> Optional[TopologyMutation]:
        """A removable inter-switch cable (no partition, ends keep >1 cable)."""
        candidates = [
            link
            for link in self._fabric_cables()
            if not self._link_would_partition(link)
        ]
        if not candidates:
            return None
        return TopologyMutation.cable(
            "remove_link", self.injector.fabric_rng.choice(candidates)
        )

    def _plan_restore_link(self) -> Optional[TopologyMutation]:
        """Re-plug a cable a previous rewire removed, if ports are free."""
        topology = self.sm.topology
        viable = []
        for mutation in self._removed_cables:
            try:
                port_a = topology.node(mutation.a).port(mutation.port_a)
                port_b = topology.node(mutation.b).port(mutation.port_b)
            except TopologyError:
                continue  # an endpoint switch has since been removed
            if not port_a.is_connected and not port_b.is_connected:
                viable.append(mutation)
        if not viable:
            return None
        mutation = self.injector.fabric_rng.choice(viable)
        self._removed_cables.remove(mutation)
        return mutation

    def _plan_add_switch(self) -> Optional[TopologyMutation]:
        """A new switch cabled to two existing switches with free ports."""
        open_switches = [
            sw
            for sw in self.sm.topology.switches
            if next(sw.free_ports(), None) is not None
        ]
        if len(open_switches) < 2:
            return None
        frng = self.injector.fabric_rng
        peer_a = frng.choice(open_switches)
        peer_b = frng.choice([sw for sw in open_switches if sw is not peer_a])
        level = getattr(self.sm.built, "level", None)
        new_level = -1
        if isinstance(level, dict):
            known = [
                level[p.name] for p in (peer_a, peer_b) if p.name in level
            ]
            if known:
                new_level = max(known) + 1
        self._rewire_seq += 1
        name = f"rw{self._rewire_seq}"
        while name in self.sm.topology:
            self._rewire_seq += 1
            name = f"rw{self._rewire_seq}"
        return TopologyMutation(
            kind="add_switch",
            a=name,
            num_ports=8,
            level=new_level,
            cables=(
                (1, peer_a.name, next(peer_a.free_ports()).num),
                (2, peer_b.name, next(peer_b.free_ports()).num),
            ),
        )

    def _plan_remove_switch(self) -> Optional[TopologyMutation]:
        """A safely removable switch, preferring rewire-added ones."""
        topology = self.sm.topology
        added = [
            topology.node(name)
            for name in self._added_switches
            if name in topology
        ]
        pool = [
            sw
            for sw in added
            if isinstance(sw, Switch)
            and not sw.attached_hcas()
            and not self._would_partition(sw)
        ]
        if not pool:
            pool = [
                sw
                for sw in topology.switches
                if not sw.attached_hcas() and not self._would_partition(sw)
            ]
        if not pool:
            return None
        victim = self.injector.fabric_rng.choice(pool)
        return TopologyMutation(kind="remove_switch", a=victim.name)

    def _final_cold_check(self, report: ChaosReport) -> None:
        """Compare warm-cache routing against a cold recompute.

        The distance state was incrementally repaired across every
        mutation of the run; an engine computing from scratch on the
        final topology must produce byte-identical port assignments, or
        the repair chain silently diverged somewhere. The probe is
        side-effect free: ``current_tables`` (which vSwitch fast-path
        migrations keep in sync with the *hardware*, without recomputes)
        is restored afterwards so the end-of-run audit still compares
        what was actually distributed.
        """
        from repro.sm.routing.base import RoutingRequest
        from repro.sm.routing.registry import create_engine

        saved_tables = self.sm.current_tables
        saved_request = self.sm.last_request
        saved_ha = self.sm.ha
        self.sm.ha = None  # do not journal the probe's tables
        try:
            warm = self.sm.compute_routing()
        finally:
            self.sm.ha = saved_ha
            self.sm.current_tables = saved_tables
            self.sm.last_request = saved_request
        request = RoutingRequest.from_topology(
            self.sm.topology, built=self.sm.built
        )
        cold = create_engine(warm.algorithm).compute(request)
        report.final_routing_cold_identical = (
            warm.ports.shape == cold.ports.shape
            and warm.ports.tobytes() == cold.ports.tobytes()
        )

    def _sm_death(self, step: int, report: ChaosReport) -> None:
        """The master dies mid-reconfiguration — at the worst moment.

        It has just computed (and journaled to its standbys) fresh tables
        but not yet distributed them. Nothing is handed over here: the
        standby must *detect* the death through missed leases and take
        over on its own, completing the pending distribution from its
        replica (see :meth:`_ha_tick`).
        """
        master = self.ha.master
        if master is None or not master.alive:
            return
        with span("sm_death", step=step, master=master.node_name):
            self._recover(
                report, self.sm.compute_routing, label="pre-death routing"
            )
            self.ha.kill_master()
        report.sm_deaths += 1
        get_hub().metrics.counter("repro_chaos_sm_deaths_total").add(1)

    def _partition(self, step: int, report: ChaosReport) -> None:
        """Cut the master off the management plane (no cable is cut)."""
        master = self.ha.master
        if master is None or not master.alive:
            return
        with span("sm_partition", step=step, master=master.node_name):
            self.injector.isolate([master.node_name])
            self._partitioned_master = master.node_name
            self._heal_step = step + self.plan.partition_heal_steps
        report.partitions += 1
        get_hub().metrics.counter("repro_chaos_partitions_total").add(1)

    def _heal_partition(self, report: ChaosReport) -> None:
        """The partition heals; the stale master re-emerges and must be
        fenced out (writes rejected) and demoted (SMInfo comparison)."""
        old_name = self._partitioned_master
        self._partitioned_master = None
        self._heal_step = None
        self.injector.heal()
        if old_name is None:
            return
        before = self.sm.transport.stats.snapshot()
        with span("partition_heal", stale_master=old_name) as sp:
            verdict = self.ha.reassert_stale_master(old_name)
            sp.set_attribute("verdict", verdict)
        delta = self.sm.transport.stats.delta_since(before)
        report.stale_writes_rejected += delta.stale_rejected
        if verdict == "demoted":
            report.sm_demotions += 1

    def _link_flap_storm(self, step: int, report: ChaosReport) -> None:
        """One link flaps in a burst; the trap pipeline must absorb it.

        Every down is immediately cancelled by the following up
        (coalescing), the final odd down is throttled by the storm
        detector, and the closing up cancels it too: the whole burst
        costs trap traffic but ZERO reroutes — against one
        reconfiguration per event on the legacy synchronous path.
        """
        frng = self.injector.fabric_rng
        links = self._fabric_cables()
        if not links:
            return
        link = frng.choice(links)
        end_a, end_b = link.ends
        a, pa = end_a.node, end_a.num
        b, pb = end_b.node, end_b.num
        before = self.sm.transport.stats.snapshot()
        with span(
            "link_flap_storm", step=step, a=a.name, b=b.name
        ) as sp:
            try:
                for _ in range(self.plan.link_flap_storm_size):
                    self.events.report_link_down(link)
                    # Reconnecting creates a fresh Link object.
                    link = self.events.report_link_up(a, pa, b, pb)
                self.events.report_link_down(link)
            except TopologyError:
                sp.set_attribute("refused", True)
                report.refused_link_flaps += 1
                return
            self.events.pump()  # storm throttle defers the pending down
            link = self.events.report_link_up(a, pa, b, pb)
            self.events.pump(force=True)  # nothing left: flap cost 0 reroutes
            sp.set_attributes(
                coalesced=self.events.traps_coalesced,
                throttled=self.events.traps_throttled,
            )
        delta = self.sm.transport.stats.delta_since(before)
        report.link_flaps += self.plan.link_flap_storm_size + 1
        report.reroute_smps += delta.lft_update_smps
        report.trap_storms += 1
        get_hub().metrics.counter("repro_chaos_trap_storms_total").add(1)

    def _ha_tick(self, report: ChaosReport) -> None:
        """One HA protocol round: leases, takeover, failover accounting."""
        try:
            result = self.ha.tick()
        except (TransportError, DistributionError) as exc:
            # The failover sweep itself died (lossy fabric). Promotion has
            # already happened — re-driving the distribution repairs it.
            report.control_plane_errors.append(f"ha failover: {exc}")
            self._recover(
                report, self.sm.distribute, label="failover repair"
            )
            result = self.ha.last_failover_report
        if result is not None:
            report.failover_sweep_mode = result.sweep_mode
            report.failover_handshake_smps = result.handshake_smps
            report.journal_entries_replayed = result.journal_entries_replayed
        new = self.ha.failovers - report.sm_failovers
        report.sm_failovers = self.ha.failovers
        if new:
            get_hub().metrics.counter(
                "repro_chaos_sm_failovers_total"
            ).add(new)

    # -- resilience plumbing ---------------------------------------------------

    def _recover(
        self, report: ChaosReport, action, *, label: str = "reconfiguration"
    ) -> None:
        """Run one control-plane action; on failure re-drive distribution.

        A transactional distribution that exhausts its retries rolls the
        switches back but leaves the SM's *intent* (the computed tables)
        standing, so simply re-distributing is the correct repair. Two
        repair attempts, then the error lands in the report and the final
        audit decides whether the fabric actually diverged.
        """
        try:
            action()
            return
        except (TransportError, DistributionError) as exc:
            last = exc
        for _ in range(2):
            try:
                self.sm.distribute()
                return
            except (TransportError, DistributionError) as exc:
                last = exc
        report.control_plane_errors.append(f"{label}: {last}")

    # -- audit --------------------------------------------------------------------

    def _verify(self, report: ChaosReport) -> None:
        from repro.analysis.verification import verify_subnet

        audit = verify_subnet(self.sm)
        report.verified = True
        report.verification_failures = audit.problems()

    def _expose(self, report: ChaosReport) -> None:
        metrics = get_hub().metrics
        metrics.gauge("repro_chaos_smp_overhead_ratio").set(
            report.smp_overhead_ratio
        )
        metrics.gauge("repro_chaos_downtime_inflation").set(
            report.downtime_inflation
        )
        metrics.gauge("repro_chaos_verification_problems").set(
            len(report.verification_failures)
        )
        if report.telemetry is not None:
            tel = report.telemetry
            metrics.gauge("repro_telemetry_chaos_bursts").set(tel.bursts)
            metrics.gauge("repro_telemetry_chaos_peak_utilization").set(
                tel.peak_utilization
            )
            metrics.gauge(
                "repro_telemetry_chaos_flapped_port_discards"
            ).set(tel.flapped_port_discards)
            metrics.gauge(
                "repro_telemetry_chaos_xmit_wait_seconds"
            ).set(tel.xmit_wait_seconds)


# -- the control-plane chaos runner (the kill-service knob) -----------------


@dataclass
class ServiceChaosReport:
    """Outcome of one control-plane chaos run (``repro serve --chaos``).

    The pass criteria are the robustness contract of
    :mod:`repro.service`: after kills, storms and SMP faults the cloud
    audits clean, the forwarding state verifies exact, every submission
    reached a terminal answer (``unanswered`` empty — no silent drops)
    and every retryable rejection carried a retry-after hint.
    """

    steps: int = 0
    plan: str = ""
    tenants: int = 0
    churn: ChurnReport = field(default_factory=ChurnReport)
    #: Unique requests submitted (idempotent retries counted separately).
    submitted: int = 0
    resubmissions: int = 0
    completed: int = 0
    failed: int = 0
    #: Worker kills injected and the recoveries that followed.
    kills: int = 0
    recoveries: int = 0
    recovered_finished: int = 0
    recovered_reconciled: int = 0
    recovered_requeued: int = 0
    #: Submissions made during the tenant-storm burst.
    storm_submissions: int = 0
    #: Batching ledger (accumulated across worker incarnations).
    sweeps: int = 0
    applied_requests: int = 0
    lft_smps: int = 0
    ideal_lft_smps: int = 0
    #: Request ids that never reached a terminal response — silent drops.
    unanswered: List[str] = field(default_factory=list)
    #: Retryable rejections that arrived without a retry-after hint.
    missing_retry_after: List[str] = field(default_factory=list)
    #: ``audit_cloud`` problems found at recovery points and at the end.
    audit_problems: List[str] = field(default_factory=list)
    verified: bool = False
    verification_failures: List[str] = field(default_factory=list)

    @property
    def coalescing_ratio(self) -> float:
        """Applied requests per SM sweep (> 1 means batching won)."""
        return self.applied_requests / self.sweeps if self.sweeps else 0.0

    @property
    def ok(self) -> bool:
        """True iff the run met the whole robustness contract."""
        return (
            self.verified
            and not self.verification_failures
            and not self.audit_problems
            and not self.unanswered
            and not self.missing_retry_after
        )

    def render(self, *, max_problems: int = 10) -> str:
        """Human-readable summary (the ``repro serve`` output)."""
        c = self.churn
        lines = [
            f"serve: {self.steps} steps, {self.tenants} tenants"
            f" [{self.plan}]",
            (
                f"requests: {self.submitted} submitted"
                f" ({self.resubmissions} idempotent retries),"
                f" {self.completed} completed, {self.failed} failed"
            ),
            (
                f"workload: {c.boots} boots, {c.stops} stops,"
                f" {c.migrations} migrations;"
                f" admission: {c.rejected_quota} quota,"
                f" {c.rejected_overload} overload,"
                f" {c.timed_out_requests} timed out"
            ),
            (
                f"batching: {self.applied_requests} applied in"
                f" {self.sweeps} sweeps"
                f" (coalescing {self.coalescing_ratio:.2f}x,"
                f" {self.lft_smps} LFT SMPs vs"
                f" {self.ideal_lft_smps} ideal)"
            ),
            (
                f"crashes: {self.kills} kills, {self.recoveries}"
                f" recoveries ({self.recovered_finished} finished,"
                f" {self.recovered_reconciled} reconciled,"
                f" {self.recovered_requeued} requeued)"
            ),
        ]
        if self.storm_submissions:
            lines.append(
                f"storm: {self.storm_submissions} burst submissions"
            )
        if self.unanswered:
            lines.append(
                f"SILENT DROPS: {len(self.unanswered)} requests never"
                f" answered"
            )
            lines.extend(f"  {rid}" for rid in self.unanswered[:max_problems])
        if self.missing_retry_after:
            lines.append(
                f"rejections without retry-after:"
                f" {len(self.missing_retry_after)}"
            )
        if self.audit_problems:
            lines.append(
                f"cloud audit: FAILED ({len(self.audit_problems)} problems)"
            )
            lines.extend(
                f"  {p}" for p in self.audit_problems[:max_problems]
            )
        else:
            lines.append(
                "cloud audit: clean (no orphaned VFs, no leaked LIDs)"
            )
        if not self.verified:
            lines.append("verification: NOT RUN")
        elif self.verification_failures:
            lines.append(
                f"verification: FAILED"
                f" ({len(self.verification_failures)} problems)"
            )
            lines.extend(
                f"  {p}"
                for p in self.verification_failures[:max_problems]
            )
        else:
            lines.append("verification: clean (forwarding state exact)")
        return "\n".join(lines)


class ServiceChaosRunner:
    """Drive the control-plane service through kills, storms and faults.

    The runner is the *client side* of the robustness contract: it
    submits idempotency-keyed tenant requests, retries them (same key)
    when the worker dies mid-call, and at the end cross-checks that
    every key it ever used reached a terminal response. The kill knob
    (``plan.service_kill_step``) arms a :class:`ServiceKilled` crash at
    the next journal append of that step; recovery is always warm —
    the fabric survives, only the worker's memory is lost.
    """

    def __init__(
        self,
        cloud: CloudManager,
        plan: FaultPlan,
        *,
        tenants: int = 3,
        requests_per_step: int = 2,
        retry_policy: Optional[RetryPolicy] = None,
        resilient: bool = True,
        journal=None,
        **service_kwargs,
    ) -> None:
        from repro.service import ControlPlaneService, IntentJournal

        self.cloud = cloud
        self.plan = plan
        self.injector = FaultInjector(plan)
        self.tenant_names = [f"tenant{i}" for i in range(tenants)]
        self.requests_per_step = requests_per_step
        if resilient:
            cloud.sm.enable_resilience(retry_policy, transactional=True)
        self._service_kwargs = dict(service_kwargs)
        self.journal = journal if journal is not None else IntentJournal()
        self.service = ControlPlaneService(
            cloud, journal=self.journal, **self._service_kwargs
        )
        #: Workload RNG, independent of the injector's streams.
        self.rng = __import__("random").Random(plan.seed)
        #: rid -> (op, final status or None while queued).
        self._outcomes: Dict[str, List[Optional[str]]] = {}

    # -- the run ------------------------------------------------------------

    def run(self, steps: int) -> ServiceChaosReport:
        """Perform *steps* service chaos steps, then audit everything."""
        report = ServiceChaosReport(
            steps=steps,
            plan=self.plan.describe(),
            tenants=len(self.tenant_names),
        )
        transport = self.cloud.sm.transport
        if self.plan.injects_smp_faults:
            transport.set_fault_injector(self.injector)
        try:
            with span(
                "service_chaos_run", steps=steps, plan=self.plan.describe()
            ):
                for step in range(steps):
                    self._step(step, report)
                self._drain(report)
        finally:
            transport.set_fault_injector(None)
        self._absorb_stats(report)
        self._settle_outcomes(report)
        self._audit(report)
        self._expose(report)
        return report

    def _step(self, step: int, report: ServiceChaosReport) -> None:
        if (
            self.plan.service_kill_step is not None
            and step == self.plan.service_kill_step
        ):
            # Die at the next journal append; odd seeds lose the write
            # (applied-but-not-journaled), even seeds keep it.
            self.journal.arm_crash(
                self.journal.head_seq + 2,
                before=bool(self.plan.seed % 2),
            )
            report.kills += 1
        storm = (
            self.plan.tenant_storm_step is not None
            and step == self.plan.tenant_storm_step
        )
        factor = self.plan.tenant_storm_factor if storm else 1
        for tenant in self.tenant_names:
            for i in range(self.requests_per_step * factor):
                op, params = self._choose_op(tenant)
                rid = f"{tenant}/s{step}/{i}"
                self._submit(rid, tenant, op, params, report)
                if storm:
                    report.storm_submissions += 1
        self._pump(report)

    def _choose_op(self, tenant: str):
        running = [
            vm
            for vm in self.cloud.vms_of_tenant(tenant)
            if vm.is_running
        ]
        draw = self.rng.random()
        if not running or draw < 0.6:
            return "boot", {}
        victim = self.rng.choice(running).name
        if draw < 0.8:
            return "stop", {"name": victim}
        return "migrate", {"name": victim}

    def _submit(
        self,
        rid: str,
        tenant: str,
        op: str,
        params: Dict[str, Optional[str]],
        report: ServiceChaosReport,
    ) -> None:
        from repro.errors import ServiceKilled

        first = rid not in self._outcomes
        if first:
            self._outcomes[rid] = [op, None]
            report.submitted += 1
        else:
            report.resubmissions += 1
        for _ in range(3):
            try:
                response = self.service.submit(
                    tenant, op, request_id=rid, **params
                )
            except ServiceKilled:
                self._recover(report)
                report.resubmissions += 1
                continue
            if response.status != "accepted":
                self._outcomes[rid][1] = response.status
                if response.retryable and response.retry_after_s is None:
                    report.missing_retry_after.append(rid)
            return

    def _pump(self, report: ServiceChaosReport) -> None:
        from repro.errors import ServiceKilled

        try:
            self.service.pump()
        except ServiceKilled:
            self._recover(report)

    def _drain(self, report: ServiceChaosReport) -> None:
        from repro.errors import ServiceKilled

        for _ in range(10_000):
            if not self.service.queue_depth:
                return
            try:
                self.service.pump()
            except ServiceKilled:
                self._recover(report)
        report.audit_problems.append("queue failed to drain")

    def _recover(self, report: ServiceChaosReport) -> None:
        from repro.service import recover_service

        self._absorb_stats(report)
        self.service, recovery = recover_service(
            self.journal, self.cloud, **self._service_kwargs
        )
        report.recoveries += 1
        report.recovered_finished += recovery.finished
        report.recovered_reconciled += recovery.reconciled
        report.recovered_requeued += recovery.requeued
        report.audit_problems.extend(recovery.problems)

    def _absorb_stats(self, report: ServiceChaosReport) -> None:
        """Fold the current worker incarnation's ledger into the run."""
        stats = self.service.stats
        report.sweeps += stats.sweeps
        report.applied_requests += stats.applied_requests
        report.lft_smps += stats.lft_smps
        report.ideal_lft_smps += stats.ideal_lft_smps

    # -- settlement and audit ------------------------------------------------

    def _settle_outcomes(self, report: ServiceChaosReport) -> None:
        """Resolve queued requests and enforce no-silent-drop."""
        churn = report.churn
        for rid, (op, status) in self._outcomes.items():
            if status is None:
                response = self.service.response_for(rid)
                status = response.status if response is not None else None
            if status is None:
                report.unanswered.append(rid)
                continue
            if status == "completed":
                report.completed += 1
                if op == "boot":
                    churn.boots += 1
                elif op == "stop":
                    churn.stops += 1
                elif op == "migrate":
                    churn.migrations += 1
            elif status == "failed":
                report.failed += 1
                if op == "migrate":
                    churn.failed_migrations += 1
                elif op == "boot":
                    churn.failed_boots += 1
            elif status == "rejected_quota":
                churn.rejected_quota += 1
            elif status == "rejected_overload":
                churn.rejected_overload += 1
            elif status == "timed_out":
                churn.timed_out_requests += 1

    def _audit(self, report: ServiceChaosReport) -> None:
        from repro.analysis.verification import verify_subnet
        from repro.service import audit_cloud

        report.audit_problems.extend(audit_cloud(self.cloud))
        audit = verify_subnet(self.cloud.sm)
        report.verified = True
        report.verification_failures = audit.problems()

    def _expose(self, report: ServiceChaosReport) -> None:
        metrics = get_hub().metrics
        metrics.gauge("repro_service_chaos_coalescing_ratio").set(
            report.coalescing_ratio
        )
        metrics.gauge("repro_service_chaos_unanswered").set(
            len(report.unanswered)
        )
        metrics.gauge("repro_service_chaos_recoveries").set(
            report.recoveries
        )
        metrics.gauge("repro_service_chaos_audit_problems").set(
            len(report.audit_problems)
        )
