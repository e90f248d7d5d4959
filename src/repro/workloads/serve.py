"""Control-plane chaos: the tenant-facing service under kills and storms.

:class:`ServiceChaosRunner` is the *client side* of the robustness
contract of :mod:`repro.service`: it submits idempotency-keyed tenant
requests, retries them (same key) when the worker dies mid-call, and at
the end cross-checks that every key it ever used reached a terminal
response. The kill knob (``plan.service_kill_step``) arms a
:class:`~repro.errors.ServiceKilled` crash at the next journal append of
that step; recovery is always warm — the fabric survives, only the
worker's memory is lost. Like :class:`~repro.workloads.chaos.ChaosRunner`
it is collaborators + a ``RULES`` table over the one step loop of
:mod:`repro.workloads.engine`.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.errors import ServiceKilled
from repro.faults.plan import FaultPlan
from repro.mad.reliable import RetryPolicy
from repro.service import (
    ControlPlaneService,
    IntentJournal,
    audit_cloud,
    recover_service,
)
from repro.virt.cloud import CloudManager
from repro.workloads.engine import Rule, StepRunner, always, at_step
from repro.workloads.reports import ServiceChaosReport

__all__ = ["ServiceChaosReport", "ServiceChaosRunner"]


class ServiceChaosRunner(StepRunner):
    """Drive the control-plane service through kills, storms and faults."""

    SPAN = "service_chaos_run"
    REPORT = ServiceChaosReport

    def __init__(
        self,
        cloud: CloudManager,
        plan: FaultPlan,
        *,
        tenants: int = 3,
        requests_per_step: int = 2,
        retry_policy: Optional[RetryPolicy] = None,
        journal: Optional[IntentJournal] = None,
        **service_kwargs,
    ) -> None:
        super().__init__(cloud, plan, retry_policy=retry_policy)
        self.tenant_names = [f"tenant{i}" for i in range(tenants)]
        self.requests_per_step = requests_per_step
        self._service_kwargs = dict(service_kwargs)
        self.journal = journal if journal is not None else IntentJournal()
        self.service = ControlPlaneService(
            cloud, journal=self.journal, **self._service_kwargs
        )
        #: Workload RNG, independent of the injector's streams.
        self.rng = random.Random(plan.seed)
        #: rid -> (op, final status or None while queued).
        self._outcomes: Dict[str, List[Optional[str]]] = {}

    def _new_report(self, steps: int) -> ServiceChaosReport:
        report = super()._new_report(steps)
        report.tenants = len(self.tenant_names)
        return report

    # -- handlers -------------------------------------------------------------

    def _arm_kill(self, step: int) -> None:
        """Die at the next journal append; odd seeds lose the write
        (applied-but-not-journaled), even seeds keep it."""
        self.journal.arm_crash(
            self.journal.head_seq + 2, before=bool(self.plan.seed % 2)
        )
        self.report.kills += 1

    def _submissions(self, step: int) -> None:
        """Every tenant submits its requests; a storm step multiplies them."""
        storm = step == self.plan.tenant_storm_step
        factor = self.plan.tenant_storm_factor if storm else 1
        for tenant in self.tenant_names:
            for i in range(self.requests_per_step * factor):
                op, params = self._choose_op(tenant)
                self._submit(f"{tenant}/s{step}/{i}", tenant, op, params)
                if storm:
                    self.report.storm_submissions += 1

    def _pump(self, step: Optional[int] = None) -> None:
        try:
            self.service.pump()
        except ServiceKilled:
            self._recover()

    RULES = (
        Rule(at_step("service_kill_step"), _arm_kill),
        Rule(
            always,
            _submissions,
            reads=("tenant_storm_step", "tenant_storm_factor"),
        ),
        Rule(always, _pump),
    )

    # -- the client -------------------------------------------------------------

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
    ) -> None:
        report = self.report
        if rid not in self._outcomes:
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
                self._recover()
                report.resubmissions += 1
                continue
            if response.status != "accepted":
                self._outcomes[rid][1] = response.status
                if response.retryable and response.retry_after_s is None:
                    report.missing_retry_after.append(rid)
            return

    def _wind_down(self) -> None:
        """Pump until the admission queue is empty."""
        for _ in range(10_000):
            if not self.service.queue_depth:
                return
            self._pump()
        self.report.audit_problems.append("queue failed to drain")

    def _recover(self) -> None:
        """The worker died: warm-recover a new one from the journal."""
        report = self.report
        self._absorb_stats()
        self.service, recovery = recover_service(
            self.journal, self.cloud, **self._service_kwargs
        )
        report.recoveries += 1
        report.recovered_finished += recovery.finished
        report.recovered_reconciled += recovery.reconciled
        report.recovered_requeued += recovery.requeued
        report.audit_problems.extend(recovery.problems)

    def _absorb_stats(self) -> None:
        """Fold the current worker incarnation's ledger into the run."""
        report, stats = self.report, self.service.stats
        report.sweeps += stats.sweeps
        report.applied_requests += stats.applied_requests
        report.lft_smps += stats.lft_smps
        report.ideal_lft_smps += stats.ideal_lft_smps

    # -- settlement ------------------------------------------------------------

    def _finalize(self, delta) -> None:
        """Resolve queued requests, enforce no-silent-drop, audit the cloud."""
        report, churn = self.report, self.report.churn
        self._absorb_stats()
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
        report.audit_problems.extend(audit_cloud(self.cloud))
