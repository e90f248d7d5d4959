"""Chaos runs: churn and migrations on a fabric that keeps breaking.

The chaos runner is the integration point of the fault-injection layer:
it drives a :class:`~repro.virt.cloud.CloudManager` through boot/stop/
migrate steps while a :class:`~repro.faults.injector.FaultInjector`
drops, corrupts and delays SMPs in flight, and while fabric-level events
— link flaps through the :class:`~repro.sm.traps.FabricEventManager`,
spine-switch deaths, live rewires, the master SM dying
mid-reconfiguration — hit the control plane. At the end it audits the
subnet with :func:`~repro.analysis.verification.verify_subnet`: the run
*passes* only if, despite everything, the forwarding state is exactly
what a fault-free control plane would have produced.

The runner itself is three things: collaborators, the ``RULES`` table
(which event fires when, in which order — see
:mod:`repro.workloads.engine`) and one handler per action kind, each a
:meth:`~repro.workloads.engine.StepRunner.event` bracket around the
calls that perform it.

Determinism: all randomness comes from two seeded streams — the
injector's SMP stream and its ``fabric_rng`` for event scheduling — plus
the churn RNG, all derived from the plan seed, so a chaos run replays
bit-identically.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import ReproError, SimulationError, TopologyError
from repro.faults.plan import FaultPlan
from repro.mad.reliable import RetryPolicy
from repro.obs.hub import get_hub
from repro.sm.ha import HighAvailabilityManager
from repro.sm.traps import FabricEventManager
from repro.telemetry.analytics import CongestionDetector, top_talkers
from repro.telemetry.harness import TelemetryHarness
from repro.virt.cloud import CloudManager
from repro.workloads.churn import ChurnWorkload
from repro.workloads.engine import (
    CONTROL_PLANE_ERRORS,
    Rule,
    StepRunner,
    always,
    at_step,
    every,
    spread,
    with_rate,
)
from repro.workloads.reports import ChaosReport, ChaosTelemetry
from repro.workloads.rewire import (
    RewirePlanner,
    cold_identical,
    fabric_cables,
    removable_switches,
)

__all__ = ["ChaosReport", "ChaosTelemetry", "ChaosRunner"]


def _ends(link) -> Tuple[Tuple[object, int], Tuple[object, int]]:
    """((node, port), (node, port)) of a cable — what re-plugging needs."""
    end_a, end_b = link.ends
    return (end_a.node, end_a.num), (end_b.node, end_b.num)


class ChaosRunner(StepRunner):
    """Drive one cloud through a fault plan and audit the wreckage."""

    SPAN = "chaos_run"
    REPORT = ChaosReport
    #: The churn hovers around half-full so boots, stops and migrations
    #: all stay possible for the whole run.
    TARGET_UTILIZATION = 0.5

    def __init__(
        self,
        cloud: CloudManager,
        plan: FaultPlan,
        *,
        retry_policy: Optional[RetryPolicy] = None,
        migrate_probability: float = 0.25,
        telemetry: bool = False,
        telemetry_interval: int = 4,
        telemetry_endpoints: int = 8,
    ) -> None:
        super().__init__(cloud, plan, retry_policy=retry_policy)
        self.events = FabricEventManager(self.sm)
        self.ha = HighAvailabilityManager(self.sm)
        self.churn = ChurnWorkload(
            cloud,
            seed=plan.seed,
            target_utilization=self.TARGET_UTILIZATION,
            migrate_probability=migrate_probability,
        )
        self.rewirer = RewirePlanner(self.sm, self.injector.fabric_rng)
        #: Telemetry mode: PerfManager sweeps + measured bursts between
        #: steps, and flap windows observed through the flapped ports'
        #: own counters. Built after ``enable_resilience`` so sweep MADs
        #: go through the retrying sender (``sm.smp_sender``).
        self.telemetry_enabled = telemetry
        #: Steps between periodic telemetry ticks (0 = telemetry off).
        self.telemetry_interval = max(1, telemetry_interval) if telemetry else 0
        self.detector: Optional[CongestionDetector] = None
        self.harness: Optional[TelemetryHarness] = None
        #: (switch name, port) pairs of successfully flapped link ends.
        self._flapped_ports: List[Tuple[str, int]] = []
        if telemetry:
            self.detector = CongestionDetector(self.events)
            self.harness = TelemetryHarness(
                self.sm, max_endpoints=telemetry_endpoints, channel_credits=1
            )
        self._register_sm_candidates()
        #: Who the partition in flight cut off (None = no partition).
        self._partitioned_master: Optional[str] = None

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

    # -- report ---------------------------------------------------------------

    def _new_report(self, steps: int) -> ChaosReport:
        report = super()._new_report(steps)
        if self.telemetry_enabled:
            report.telemetry = ChaosTelemetry()
        return report

    def _finalize(self, delta) -> None:
        report = self.report
        report.smp_retries = delta.retransmissions
        report.smp_timeouts = delta.timeouts
        report.retry_wait_seconds = delta.retry_wait_seconds
        report.fault_summary = self.injector.summary()
        report.coalesced_traps = self.events.traps_coalesced
        report.throttled_traps = self.events.traps_throttled
        if report.rewires:
            report.final_routing_cold_identical = cold_identical(self.sm)
        if report.telemetry is not None:
            self._finalize_telemetry()

    # -- SM high availability ---------------------------------------------------

    def _sm_death(self, step: int) -> None:
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
        with self.event(
            "sm_death", books="sm_deaths", step=step, master=master.node_name
        ):
            self.recover(self.sm.compute_routing, label="pre-death routing")
            self.ha.kill_master()

    def _partition(self, step: int) -> None:
        """Cut the master off the management plane (no cable is cut)."""
        master = self.ha.master
        if master is None or not master.alive:
            return
        with self.event(
            "sm_partition",
            books="partitions",
            step=step,
            master=master.node_name,
        ):
            self.injector.isolate([master.node_name])
            self._partitioned_master = master.node_name

    def _heal_partition(self, step: int) -> None:
        """The partition heals; the stale master re-emerges and must be
        fenced out (writes rejected) and demoted (SMInfo comparison)."""
        old_name, self._partitioned_master = self._partitioned_master, None
        self.injector.heal()
        if old_name is None:
            return
        verdict = None
        with self.event("partition_heal", stale_master=old_name) as ev:
            verdict = self.ha.reassert_stale_master(old_name)
            ev.span.set_attribute("verdict", verdict)
        self.report.stale_writes_rejected += ev.delta.stale_rejected
        if verdict == "demoted":
            self.report.sm_demotions += 1

    def _ha_tick(self, step: int) -> None:
        """One HA protocol round: leases, takeover, failover accounting."""
        report = self.report
        try:
            result = self.ha.tick()
        except CONTROL_PLANE_ERRORS as exc:
            # The failover sweep itself died (lossy fabric). Promotion has
            # already happened — re-driving the distribution repairs it.
            self.repair(exc, "ha failover", "failover repair")
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

    # -- fabric events -------------------------------------------------------

    def _link_flap_storm(self, step: int) -> None:
        """One link flaps in a burst; the trap pipeline must absorb it.

        Every down is immediately cancelled by the following up
        (coalescing), the final odd down is throttled by the storm
        detector, and the closing up cancels it too: the whole burst
        costs trap traffic but ZERO reroutes — against one
        reconfiguration per event on the legacy synchronous path.
        """
        links = fabric_cables(self.sm.topology)
        if not links:
            return
        link = self.injector.fabric_rng.choice(links)
        (a, pa), (b, pb) = _ends(link)
        events = self.events
        with self.event(
            "link_flap_storm",
            books="trap_storms",
            refuses="refused_link_flaps",
            step=step,
            a=a.name,
            b=b.name,
        ) as ev:
            for _ in range(self.plan.link_flap_storm_size):
                events.report_link_down(link)
                # Reconnecting creates a fresh Link object.
                link = events.report_link_up(a, pa, b, pb)
            events.report_link_down(link)
            events.pump()  # storm throttle defers the pending down
            events.report_link_up(a, pa, b, pb)
            events.pump(force=True)  # nothing left: flap cost 0 reroutes
            ev.span.set_attributes(
                coalesced=events.traps_coalesced,
                throttled=events.traps_throttled,
            )
        if ev.refused is None:
            self.report.link_flaps += self.plan.link_flap_storm_size + 1

    def _rewire(self, step: int) -> None:
        """Perform one live topology mutation and audit its convergence."""
        report = self.report
        mutation = self.rewirer.plan()
        if mutation is None:
            # No viable candidate of any kind (e.g. every removal would
            # partition and every port is cabled).
            report.refused_rewires += 1
            return
        detail = mutation.describe()
        change = None
        with self.event(
            "rewire",
            books="rewires",
            refuses="refused_rewires",
            label=f"rewire {detail}",
            labels={"kind": mutation.kind},
            kind=mutation.kind,
            detail=detail,
        ) as ev:
            change = self.sm.handle_topology_change(mutation, verify=False)
        if ev.refused is not None:
            report.control_plane_errors.append(
                f"rewire {detail}: {ev.refused}"
            )
            return
        self.rewirer.note(mutation)
        report.rewire_kinds[mutation.kind] = (
            report.rewire_kinds.get(mutation.kind, 0) + 1
        )
        if change is not None:
            if change.repair_mode:
                mode = f"rewire_repair_{change.repair_mode}"
                setattr(report, mode, getattr(report, mode) + 1)
            report.rewire_sources_repaired += change.sources_repaired
        # Convergence audit after EVERY mutation: delivery walked on the
        # hardware LFTs and SM-consistency checked, not just at run end.
        from repro.analysis.verification import verify_subnet

        report.rewire_audit_failures.extend(
            f"{detail}: {problem}"
            for problem in verify_subnet(self.sm).problems()
        )

    def _link_flap(self, step: int) -> None:
        """Flap one random inter-switch cable: down, reroute, up, reroute.

        In telemetry mode the flap is *observable*: the deferred trap
        path leaves a real blackhole window — after ``report_link_down``
        the LFTs still point at the dead port until the pump reroutes —
        and a burst run inside it charges xmit-wait (one HOQ lifetime per
        head-of-queue packet) and unroutable discards to the flapped
        ports themselves, the PMA-visible signature of a flap.
        """
        links = fabric_cables(self.sm.topology)
        if not links:
            return
        link = self.injector.fabric_rng.choice(links)
        (a, pa), (b, pb) = _ends(link)
        events = self.events
        observed = {"telemetry": True} if self.telemetry_enabled else {}
        with self.event(
            "link_flap",
            books="link_flaps",
            refuses="refused_link_flaps",
            a=a.name,
            b=b.name,
            **observed,
        ) as ev:
            # Refused (TopologyError): the cut would have partitioned the
            # fabric and the SM put the cable back.
            if self.telemetry_enabled:
                events.report_link_down(link)
                self._flapped_ports.extend([(a.name, pa), (b.name, pb)])
                self._telemetry_burst()
                self.recover(
                    lambda: events.pump(force=True), label="flap reroute"
                )
                self.recover(
                    lambda: events.report_link_up(a, pa, b, pb),
                    label="link flap up",
                )
                self.recover(
                    lambda: events.pump(force=True), label="flap-up reroute"
                )
            else:
                try:
                    events.link_down(link)
                except CONTROL_PLANE_ERRORS as exc:
                    self.repair(exc, "link flap down")
                self.recover(
                    lambda: events.link_up(a, pa, b, pb), label="link flap up"
                )
        if self.telemetry_enabled and ev.refused is None:
            # Sweep right away so the flap window's counters (and any
            # congestion events they imply) land in the store this step.
            self._telemetry_observe()

    def _switch_failure(self, step: int) -> None:
        """Kill one random switch the fabric can afford to lose."""
        safe = removable_switches(self.sm.topology)
        if not safe:
            self.report.refused_switch_failures += 1
            return
        victim = self.injector.fabric_rng.choice(safe)
        with self.event(
            "switch_failure",
            books="switch_failures",
            refuses="refused_switch_failures",
            switch=victim.name,
        ):
            self.recover(
                lambda: self.sm.handle_switch_failure(victim),
                label=f"switch failure {victim.name}",
            )

    # -- workload -----------------------------------------------------------

    def _workload(self, step: int) -> None:
        """One churn decision, with the migration ledgers kept."""
        report = self.report
        if not self.ha.has_master:
            # Nobody is master: migrations/boots would go unrouted. The
            # cloud stalls until the lease protocol elects a successor.
            report.stalled_steps += 1
            return
        moved = self.churn.step(report.churn)
        if moved is None:
            return
        migration = moved.report
        report.total_downtime_seconds += migration.downtime_seconds
        if migration.outcome == "failed":
            report.control_plane_errors.append(
                f"migration {migration.vm_name}: {migration.failure}"
            )
        elif migration.completed:
            report.ideal_migration_smps += moved.ideal_lft_smps
            report.achieved_migration_smps += moved.lft_smps
            if self.telemetry_enabled:
                # Measure the fabric right after the move: the planner
                # item wants post-migration hot-link evidence.
                self._telemetry_tick(step, migration=True)

    # -- telemetry mode ------------------------------------------------------

    def _telemetry_tick(self, step: int, *, migration: bool = False) -> None:
        """One burst + sweep + congestion scan (the periodic tick)."""
        self._telemetry_burst()
        self._telemetry_observe(migration=migration)

    def _telemetry_burst(self) -> None:
        """Run one measured burst; ledger its packets."""
        tel = self.report.telemetry
        try:
            stats = self.harness.burst()
        except (ReproError, SimulationError) as exc:
            self.report.control_plane_errors.append(f"telemetry burst: {exc}")
            return
        tel.bursts += 1
        tel.packets_injected += stats.injected
        tel.packets_delivered += stats.delivered

    def _telemetry_observe(self, *, migration: bool = False) -> None:
        """Sweep the counters and scan them for congestion."""
        tel = self.report.telemetry
        try:
            sweep = self.harness.sweep()
        except CONTROL_PLANE_ERRORS as exc:
            self.report.control_plane_errors.append(f"telemetry sweep: {exc}")
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

    def _finalize_telemetry(self) -> None:
        """Fold the run's counters/matrix into the telemetry rows."""
        tel = self.report.telemetry
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
        for name, port in dict.fromkeys(self._flapped_ports):
            try:
                pc = topo.node(name).port_counters(port)
            except TopologyError:
                # The switch died in a later switch-failure event.
                continue
            tel.flapped_port_discards += (
                pc.hoq_discards + pc.unroutable_discards
            )
            tel.flapped_port_wait_seconds += pc.xmit_wait / 1e9
        tel.matrix_endpoints = len(self.harness.matrix.endpoints)
        tel.matrix_total = self.harness.matrix.total
        tel.matrix_consistent = self.harness.verify_matrix()
        tel.congestion_events = len(self.events.congestion_events)
        tel.congestion_seconds = self.detector.congestion_seconds

    #: What fires when, top to bottom within a step. The order is part of
    #: the replay contract (every ``fabric_rng`` / churn-RNG draw lands
    #: where the rows above it left the streams).
    RULES = (
        Rule(at_step("sm_death_step"), _sm_death),
        Rule(at_step("partition_step"), _partition),
        Rule(
            at_step("partition_step", after="partition_heal_steps"),
            _heal_partition,
        ),
        Rule(
            at_step("link_flap_storm_step"),
            _link_flap_storm,
            reads=("link_flap_storm_size",),
        ),
        Rule(spread("rewire_ops"), _rewire),
        Rule(always, _ha_tick),
        Rule(with_rate("link_flap_rate"), _link_flap),
        Rule(with_rate("switch_failure_rate"), _switch_failure),
        Rule(always, _workload),
        Rule(every("telemetry_interval"), _telemetry_tick),
    )
