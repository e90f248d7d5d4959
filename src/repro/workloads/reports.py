"""Run reports: what a chaos / serve run counted, and how it prints.

Both reports share :class:`RunReport` — the workload outcomes, the final
``verify_subnet`` verdict, ``ok`` and the problem-list rendering — and
each declares the gauges :meth:`StepRunner.run
<repro.workloads.engine.StepRunner.run>` publishes for it.

Two cost ledgers make the paper's argument measurable under faults:

* **achieved vs ideal SMPs** — each migration's actual LFT SMP count
  (retransmissions included) against the n'·m' the
  :class:`~repro.core.reconfig.VSwitchReconfigurer` predictors say a
  lossless fabric would need;
* **downtime inflation** — how much of the total VM downtime is MAD
  retry backoff (``retry_wait_seconds``) rather than useful work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.workloads.churn import ChurnReport

__all__ = [
    "RunReport",
    "ChaosTelemetry",
    "ChaosReport",
    "ServiceChaosReport",
]


def _problem_lines(
    headline: str, problems: List[str], max_problems: int
) -> List[str]:
    return [headline, *(f"  {p}" for p in problems[:max_problems])]


@dataclass
class RunReport:
    """What every engine run reports."""

    steps: int = 0
    plan: str = ""
    #: Boot/stop/migration outcomes (shared shape with plain churn runs).
    churn: ChurnReport = field(default_factory=ChurnReport)
    #: Final subnet audit (populated once ``verified`` is True).
    verified: bool = False
    verification_failures: List[str] = field(default_factory=list)

    def _failures(self) -> Iterable[object]:
        """Anything truthy here fails the run."""
        return (self.verification_failures,)

    @property
    def ok(self) -> bool:
        """True iff the end-state audit ran and nothing failed the run."""
        return self.verified and not any(self._failures())

    def gauges(self) -> Dict[str, float]:
        """Gauge series the engine publishes when the run ends."""
        return {}

    def _verification_lines(self, max_problems: int) -> List[str]:
        if not self.verified:
            return ["verification: NOT RUN"]
        if self.verification_failures:
            return _problem_lines(
                f"verification: FAILED"
                f" ({len(self.verification_failures)} problems)",
                self.verification_failures,
                max_problems,
            )
        return ["verification: clean (forwarding state exact)"]


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
class ChaosReport(RunReport):
    """Outcome of one chaos run."""

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
    #: Fabric telemetry rows (None unless the runner ran with telemetry).
    telemetry: Optional[ChaosTelemetry] = None

    def _failures(self) -> Iterable[object]:
        return (
            self.verification_failures,
            self.rewire_audit_failures,
            self.final_routing_cold_identical is False,
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

    def gauges(self) -> Dict[str, float]:
        out = {
            "repro_chaos_smp_overhead_ratio": self.smp_overhead_ratio,
            "repro_chaos_downtime_inflation": self.downtime_inflation,
            "repro_chaos_verification_problems": len(
                self.verification_failures
            ),
        }
        tel = self.telemetry
        if tel is not None:
            out.update(
                repro_telemetry_chaos_bursts=tel.bursts,
                repro_telemetry_chaos_peak_utilization=tel.peak_utilization,
                repro_telemetry_chaos_flapped_port_discards=(
                    tel.flapped_port_discards
                ),
                repro_telemetry_chaos_xmit_wait_seconds=tel.xmit_wait_seconds,
            )
        return out

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
                lines += _problem_lines(
                    f"rewire audits: FAILED"
                    f" ({len(self.rewire_audit_failures)} problems)",
                    self.rewire_audit_failures,
                    max_problems,
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
            lines += _problem_lines(
                f"control-plane errors: {len(self.control_plane_errors)}",
                self.control_plane_errors,
                max_problems,
            )
        lines += self._verification_lines(max_problems)
        return "\n".join(lines)


@dataclass
class ServiceChaosReport(RunReport):
    """Outcome of one control-plane chaos run (``repro serve --chaos``).

    The pass criteria are the robustness contract of
    :mod:`repro.service`: after kills, storms and SMP faults the cloud
    audits clean, the forwarding state verifies exact, every submission
    reached a terminal answer (``unanswered`` empty — no silent drops)
    and every retryable rejection carried a retry-after hint.
    """

    tenants: int = 0
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

    @property
    def coalescing_ratio(self) -> float:
        """Applied requests per SM sweep (> 1 means batching won)."""
        return self.applied_requests / self.sweeps if self.sweeps else 0.0

    def _failures(self) -> Iterable[object]:
        return (
            self.verification_failures,
            self.audit_problems,
            self.unanswered,
            self.missing_retry_after,
        )

    def gauges(self) -> Dict[str, float]:
        return {
            "repro_service_chaos_coalescing_ratio": self.coalescing_ratio,
            "repro_service_chaos_unanswered": len(self.unanswered),
            "repro_service_chaos_recoveries": self.recoveries,
            "repro_service_chaos_audit_problems": len(self.audit_problems),
        }

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
            lines += _problem_lines(
                f"SILENT DROPS: {len(self.unanswered)} requests never"
                f" answered",
                self.unanswered,
                max_problems,
            )
        if self.missing_retry_after:
            lines.append(
                f"rejections without retry-after:"
                f" {len(self.missing_retry_after)}"
            )
        if self.audit_problems:
            lines += _problem_lines(
                f"cloud audit: FAILED ({len(self.audit_problems)} problems)",
                self.audit_problems,
                max_problems,
            )
        else:
            lines.append(
                "cloud audit: clean (no orphaned VFs, no leaked LIDs)"
            )
        lines += self._verification_lines(max_problems)
        return "\n".join(lines)
