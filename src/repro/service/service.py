"""The control-plane worker: admission, quotas, batching, shedding.

One :class:`ControlPlaneService` is one service worker over one
:class:`~repro.virt.cloud.CloudManager`. Tenants call :meth:`submit`;
the worker journals the intent, queues it, and :meth:`pump` applies up
to ``batch_size`` queued requests as one SM sweep — boots coalesce into
a single batched LFT pass (see
:meth:`~repro.core.reconfig.VSwitchReconfigurer.copy_paths`), so N
concurrent requests cost far fewer SMPs than N serial ones.

Graceful degradation is explicit and total:

* **quota** — per-tenant ceilings checked at admission against the live
  cloud plus the queue (``rejected_quota``);
* **overload** — a bounded queue plus shedding once depth or observed
  sweep latency crosses thresholds (``rejected_overload``), always with
  a deterministic retry-after hint;
* **timeouts** — every admitted request carries a sim-clock deadline;
  transient SM failures are retried with
  :meth:`~repro.mad.reliable.RetryPolicy.waits` backoff (each wait
  charged to the sim clock), and exhausting the deadline produces an
  explicit ``timed_out`` response, never a silent drop.

Crash safety lives in the journal (see :mod:`repro.service.journal`) and
:mod:`repro.service.recovery`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import (
    CapacityError,
    MigrationError,
    ReproError,
    ServiceError,
    ServiceKilled,
    TransportError,
    UnknownResourceError,
    VirtError,
)
from repro.mad.reliable import RetryPolicy
from repro.obs.hub import get_hub, span
from repro.service.journal import IntentJournal
from repro.service.ops import OPS, TenantOp
from repro.service.records import (
    ServiceResponse,
    TenantQuota,
    TenantRequest,
)
from repro.virt.cloud import CloudManager

__all__ = ["ControlPlaneService", "ServiceStats", "SweepReport"]


@dataclass
class SweepReport:
    """What one :meth:`ControlPlaneService.pump` did."""

    applied: int = 0
    completed: int = 0
    failed: int = 0
    timed_out: int = 0
    lft_smps: int = 0
    ideal_lft_smps: int = 0
    latency_s: float = 0.0


@dataclass
class ServiceStats:
    """Cumulative request accounting; the no-silent-drop ledger.

    Invariant (checked by the chaos runner): every submission is exactly
    one of completed / failed / rejected / timed out / still pending.
    """

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    rejected_quota: int = 0
    rejected_overload: int = 0
    timed_out: int = 0
    duplicates: int = 0
    sweeps: int = 0
    applied_requests: int = 0
    lft_smps: int = 0
    ideal_lft_smps: int = 0
    peak_queue_depth: int = 0
    recoveries: int = 0
    #: Requests re-driven by recovery (reconciled or re-executed).
    recovered_requests: int = 0

    @property
    def coalescing_ratio(self) -> float:
        """Applied requests per SM sweep (> 1 once batching pays off)."""
        return self.applied_requests / self.sweeps if self.sweeps else 0.0

    @property
    def smp_coalescing_ratio(self) -> float:
        """Serial-boot SMP cost / batched cost (1.0 when nothing saved)."""
        if not self.lft_smps:
            return 1.0
        return self.ideal_lft_smps / self.lft_smps

    @property
    def shed_rate(self) -> float:
        """Fraction of submissions shed by admission control."""
        if not self.submitted:
            return 0.0
        return (
            self.rejected_quota + self.rejected_overload
        ) / self.submitted


class ControlPlaneService:
    """One multi-tenant control-plane worker (see module docstring)."""

    #: A sweep slower than this (sim seconds) sheds new load.
    SHED_SWEEP_LATENCY_S = 0.05
    #: Fixed sim-time cost of one non-empty sweep.
    SWEEP_COST_S = 1e-4

    def __init__(
        self,
        cloud: CloudManager,
        *,
        journal: Optional[IntentJournal] = None,
        quotas: Optional[Dict[str, TenantQuota]] = None,
        default_quota: Optional[TenantQuota] = None,
        max_queue_depth: int = 64,
        batch_size: int = 8,
        request_timeout_s: float = 0.25,
        retry_policy: Optional[RetryPolicy] = None,
        shed_queue_fraction: float = 0.75,
        genesis: Optional[Dict[str, object]] = None,
    ) -> None:
        if max_queue_depth < 1:
            raise ServiceError("max_queue_depth must be >= 1")
        if batch_size < 1:
            raise ServiceError("batch_size must be >= 1")
        if not 0.0 < shed_queue_fraction <= 1.0:
            raise ServiceError("shed_queue_fraction must be in (0, 1]")
        self.cloud = cloud
        self.journal = journal if journal is not None else IntentJournal()
        self.quotas = dict(quotas or {})
        self.default_quota = default_quota or TenantQuota()
        self.max_queue_depth = max_queue_depth
        self.batch_size = batch_size
        self.request_timeout_s = request_timeout_s
        self.retry_policy = retry_policy or RetryPolicy()
        self.shed_queue_fraction = shed_queue_fraction
        self.stats = ServiceStats()
        self.last_sweep_latency_s = 0.0
        #: True once the worker died (crash point fired); every further
        #: call raises — recovery builds a *new* worker from the journal.
        self.dead = False
        self._queue: List[TenantRequest] = []
        #: Terminal responses by request id (the idempotency table).
        self._responses: Dict[str, ServiceResponse] = {}
        #: Per-tenant serials for deterministic request ids / VM names.
        #: Kept separate so caller-minted idempotency keys (which skip
        #: the id serial) still get collision-free VM names.
        self._serials: Dict[str, int] = {}
        self._name_serials: Dict[str, int] = {}
        self._restore_serials()
        if self.journal.head_seq == 0 and genesis is not None:
            self._journal("genesis", "", genesis)

    # -- admission ---------------------------------------------------------

    def submit(
        self,
        tenant: str,
        op: str,
        *,
        request_id: Optional[str] = None,
        **params: Optional[str],
    ) -> ServiceResponse:
        """Admit one tenant request; journal it; queue it.

        Returns ``accepted`` on admission, a terminal rejection
        otherwise, or the original response on an idempotency-key replay.
        """
        self._check_alive()
        hub = get_hub()
        with span("service_submit", tenant=tenant, op=op):
            if request_id is not None and (
                duplicate := self._replay(request_id)
            ):
                return duplicate
            self.stats.submitted += 1
            if request_id is None:
                request_id = self._next_request_id(tenant, op)
            kind = OPS.get(op)  # an unknown op is TenantRequest's to refuse
            rejection = self._admission_check(tenant, kind)
            if rejection is not None:
                response = ServiceResponse(
                    request_id=request_id,
                    status=rejection[0],
                    detail=rejection[1],
                    retry_after_s=self._retry_after(),
                )
                self._finish(None, response, terminal_journal=False)
                return response
            bound = {
                key: value
                for key, value in sorted(params.items())
                if value is not None
            }
            if kind is not None:
                kind.bind(self, tenant, bound)
            request = TenantRequest(
                request_id=request_id,
                tenant=tenant,
                op=op,
                params=bound,
                submitted_at=hub.now(),
                deadline=hub.now() + self.request_timeout_s,
            )
            self._journal("intent", request.request_id, request.as_dict())
            self._queue.append(request)
            self.stats.peak_queue_depth = max(
                self.stats.peak_queue_depth, len(self._queue)
            )
            hub.metrics.gauge("repro_service_queue_depth").set(
                len(self._queue)
            )
            return ServiceResponse(
                request_id=request.request_id, status="accepted"
            )

    def enqueue_recovered(self, request: TenantRequest) -> None:
        """Recovery path: queue an intent already present in the journal
        (no admission re-check — it was admitted before the crash)."""
        self._check_alive()
        self._queue.append(request)

    # -- the sweep ---------------------------------------------------------

    def pump(self) -> SweepReport:
        """Apply up to ``batch_size`` queued requests as one SM sweep."""
        self._check_alive()
        hub = get_hub()
        report = SweepReport()
        started = hub.now()
        with span("service_pump", queued=len(self._queue)) as sp:
            self._expire_queued(report)
            batch = self._queue[: self.batch_size]
            del self._queue[: len(batch)]
            if batch:
                self.stats.sweeps += 1
                # Ops that can share one LFT pass go first, one pass per
                # kind; the rest apply one by one in queue order.
                for op in OPS.values():
                    if op.batched:
                        self._apply_batch(
                            op, [r for r in batch if r.op == op.name], report
                        )
                for request in batch:
                    if not OPS[request.op].batched:
                        self._apply_one(request, report)
                hub.advance(self.SWEEP_COST_S)
            self.last_sweep_latency_s = hub.now() - started
            report.latency_s = self.last_sweep_latency_s
            sp.set_attributes(
                applied=report.applied, latency_s=report.latency_s
            )
        metrics = hub.metrics
        metrics.counter("repro_service_sweeps_total").add(1 if batch else 0)
        metrics.gauge("repro_service_queue_depth").set(len(self._queue))
        metrics.gauge("repro_service_sweep_latency_seconds").set(
            self.last_sweep_latency_s
        )
        return report

    def drain(self, *, max_sweeps: int = 10_000) -> List[SweepReport]:
        """Pump until the queue is empty (bounded; raises if it is not)."""
        reports = []
        for _ in range(max_sweeps):
            if not self._queue:
                return reports
            reports.append(self.pump())
        raise ServiceError(
            f"queue failed to drain within {max_sweeps} sweeps"
        )

    def kill(self) -> None:
        """Model SIGKILL: the worker's memory is gone, the journal stays."""
        self.dead = True

    # -- queries -----------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        """Requests admitted but not yet applied."""
        return len(self._queue)

    def response_for(self, request_id: str) -> Optional[ServiceResponse]:
        """The terminal response for a request id, if any yet."""
        return self._responses.get(request_id)

    @property
    def shedding(self) -> bool:
        """True while admission control is rejecting new load."""
        return (
            len(self._queue)
            >= self.shed_queue_fraction * self.max_queue_depth
            or self.last_sweep_latency_s > self.SHED_SWEEP_LATENCY_S
        )

    def pending_accounted(self) -> int:
        """Submissions not yet terminal (must be 0 after a drain)."""
        return (
            self.stats.submitted
            - self.stats.completed
            - self.stats.failed
            - self.stats.rejected_quota
            - self.stats.rejected_overload
            - self.stats.timed_out
        )

    # -- internals: admission ---------------------------------------------

    def _check_alive(self) -> None:
        if self.dead:
            raise ServiceError(
                "service worker is dead; recover from the journal"
            )

    def _replay(self, request_id: str) -> Optional[ServiceResponse]:
        """Idempotency: a known id returns its recorded outcome."""
        known = self._responses.get(request_id)
        if known is not None:
            self.stats.duplicates += 1
            get_hub().metrics.counter(
                "repro_service_duplicates_total"
            ).add(1)
            return known
        if any(r.request_id == request_id for r in self._queue):
            self.stats.duplicates += 1
            return ServiceResponse(
                request_id=request_id,
                status="accepted",
                detail="already queued",
            )
        return None

    def _next_request_id(self, tenant: str, op: str) -> str:
        serial = self._serials.get(tenant, 0) + 1
        self._serials[tenant] = serial
        return f"{tenant}/{op}/{serial}"

    def _restore_serials(self) -> None:
        """Recover per-tenant serials from journaled intents so a
        restarted worker never reuses a request id or VM name."""
        for state in self.journal.requests().values():
            intent = state.intent
            tenant = str(intent["tenant"])
            tail = str(intent["request_id"]).rsplit("/", 1)[-1]
            if tail.isdigit():
                self._serials[tenant] = max(
                    self._serials.get(tenant, 0), int(tail)
                )
            params = intent.get("params")
            if OPS[str(intent["op"])].creates_vm and isinstance(params, dict):
                name = str(params.get("name") or "")
                prefix = f"{tenant}-vm"
                if name.startswith(prefix) and name[len(prefix):].isdigit():
                    self._name_serials[tenant] = max(
                        self._name_serials.get(tenant, 0),
                        int(name[len(prefix):]),
                    )

    def mint_vm_name(self, tenant: str) -> str:
        """The next service-assigned VM name for *tenant* (bound at
        admission, so a journal replay boots the same VM)."""
        serial = self._name_serials.get(tenant, 0) + 1
        self._name_serials[tenant] = serial
        return f"{tenant}-vm{serial}"

    def quota_for(self, tenant: str) -> TenantQuota:
        """The effective quota for *tenant*."""
        return self.quotas.get(tenant, self.default_quota)

    def _tenant_usage(self, tenant: str) -> Tuple[int, int]:
        """(vms, migrations_in_flight): live cloud state + the queue."""
        queued = [OPS[r.op] for r in self._queue if r.tenant == tenant]
        vms = len(self.cloud.vms_of_tenant(tenant))
        return (
            vms + sum(op.creates_vm for op in queued),
            sum(op.moves_vms for op in queued),
        )

    def _admission_check(
        self, tenant: str, kind: Optional[TenantOp]
    ) -> Optional[Tuple[str, str]]:
        """None to admit, else (status, detail)."""
        quota = self.quota_for(tenant)
        vms, migrations = self._tenant_usage(tenant)
        if kind is not None and kind.creates_vm:
            ceiling = min(quota.max_vms, quota.max_vfs)
            if vms + 1 > ceiling:
                self._count_rejection("quota")
                return (
                    "rejected_quota",
                    f"{tenant} at {vms}/{ceiling} VMs",
                )
        if kind is not None and kind.moves_vms:
            if migrations + 1 > quota.max_migrations_in_flight:
                self._count_rejection("quota")
                return (
                    "rejected_quota",
                    f"{tenant} at {migrations}/"
                    f"{quota.max_migrations_in_flight} migrations in"
                    " flight",
                )
        if len(self._queue) >= self.max_queue_depth:
            self._count_rejection("overload")
            return ("rejected_overload", "request queue is full")
        if self.shedding:
            self._count_rejection("overload")
            return (
                "rejected_overload",
                f"shedding: depth {len(self._queue)},"
                f" sweep {self.last_sweep_latency_s * 1e3:.3f}ms",
            )
        return None

    def _count_rejection(self, reason: str) -> None:
        if reason == "quota":
            self.stats.rejected_quota += 1
        else:
            self.stats.rejected_overload += 1
        get_hub().metrics.counter(
            "repro_service_rejected_total", reason=reason
        ).add(1)

    def _retry_after(self) -> float:
        """Deterministic retry hint: time to drain the current queue."""
        sweeps_needed = len(self._queue) // self.batch_size + 1
        per_sweep = max(
            self.last_sweep_latency_s,
            self.SWEEP_COST_S,
            self.retry_policy.timeout_s,
        )
        return sweeps_needed * per_sweep

    # -- internals: applying ----------------------------------------------

    def _expire_queued(self, report: SweepReport) -> None:
        """Time out queued requests whose deadline has passed. Explicit:
        each gets an ``aborted`` journal entry and a terminal response."""
        now = get_hub().now()
        alive: List[TenantRequest] = []
        for request in self._queue:
            if request.deadline is not None and now > request.deadline:
                self._time_out(request, report, "deadline passed while queued")
            else:
                alive.append(request)
        self._queue = alive

    def _apply_batch(
        self, op: TenantOp, requests: List[TenantRequest], report: SweepReport
    ) -> None:
        """Apply the sweep's requests of one kind as one coalesced batch.

        The fallback ladder keeps one poisoned request from starving the
        batch: transport faults retry the whole batch with backoff, then
        anything still failing is applied (and error-mapped) one by one.
        """
        if not requests:
            return
        waits = list(self.retry_policy.waits())
        for attempt in range(len(waits) + 1):
            try:
                outcomes, batch = op.execute_batch(self, requests)
            except TransportError:
                if attempt < len(waits):
                    self._charge_wait(waits[attempt])
                    continue
                for request in requests:
                    self._apply_one(request, report, retries=False)
                return
            except VirtError:
                # Capacity / duplicate problems are per-request; let the
                # individual path map each one precisely.
                for request in requests:
                    self._apply_one(request, report, retries=True)
                return
            break
        report.lft_smps += batch.lft_smps
        report.ideal_lft_smps += batch.ideal_lft_smps
        self.stats.lft_smps += batch.lft_smps
        self.stats.ideal_lft_smps += batch.ideal_lft_smps
        for request, (payload, response) in zip(requests, outcomes):
            self._journal("applied", request.request_id, payload)
            report.applied += 1
            report.completed += 1
            self.stats.applied_requests += 1
            self._finish(request, response)

    def _apply_one(
        self,
        request: TenantRequest,
        report: SweepReport,
        *,
        retries: bool = True,
    ) -> None:
        """Apply one request with backoff retries on transport faults."""
        waits = list(self.retry_policy.waits()) if retries else []
        now = get_hub().now()
        if request.deadline is not None and now > request.deadline:
            self._time_out(request, report, "deadline passed before apply")
            return
        for attempt in range(len(waits) + 1):
            try:
                payload, response = OPS[request.op].execute(self, request)
            except TransportError as exc:
                deadline_ok = (
                    request.deadline is None
                    or get_hub().now() <= request.deadline
                )
                if attempt < len(waits) and deadline_ok:
                    self._charge_wait(waits[attempt])
                    continue
                self._time_out(request, report, f"transport: {exc}")
                return
            except ReproError as exc:
                report.failed += 1
                self._finish(request, self._map_failure(request, exc))
                return
            break
        self._journal("applied", request.request_id, payload)
        report.applied += 1
        self.stats.applied_requests += 1
        if response.status == "completed":
            report.completed += 1
        else:
            report.failed += 1
        self._finish(request, response, applied=True)

    def _time_out(
        self, request: TenantRequest, report: SweepReport, detail: str
    ) -> None:
        """The explicit end of a request the fabric could not serve in
        time: a terminal response with a retry hint, never a silent drop."""
        report.timed_out += 1
        self._finish(
            request, self.respond(request, "timed_out", detail, retry=True)
        )

    def _map_failure(
        self, request: TenantRequest, exc: ReproError
    ) -> ServiceResponse:
        """Deterministic failure taxonomy: retryable vs permanent."""
        if isinstance(exc, CapacityError):
            return self.respond(
                request, "failed", f"capacity: {exc}", retry=True
            )
        if isinstance(exc, (UnknownResourceError, MigrationError)):
            return self.respond(request, "failed", str(exc))
        return self.respond(
            request, "failed", f"{type(exc).__name__}: {exc}"
        )

    def respond(
        self,
        request: TenantRequest,
        status: str,
        detail: str = "",
        *,
        retry: bool = False,
    ) -> ServiceResponse:
        """A response to *request*; *retry* attaches the deterministic
        retry-after hint (time to drain the current queue)."""
        return ServiceResponse(
            request_id=request.request_id,
            status=status,
            detail=detail,
            retry_after_s=self._retry_after() if retry else None,
        )

    def _charge_wait(self, wait: float) -> None:
        hub = get_hub()
        hub.advance(wait)
        hub.metrics.counter("repro_service_retry_waits_total").add(1)

    # -- internals: bookkeeping -------------------------------------------

    def _journal(
        self, phase: str, request_id: str, payload: Dict[str, object]
    ) -> None:
        try:
            self.journal.append(phase, request_id, payload)
        except ServiceKilled:
            self.dead = True
            raise
        get_hub().metrics.counter(
            "repro_service_journal_entries_total", phase=phase
        ).add(1)

    def _finish(
        self,
        request: Optional[TenantRequest],
        response: ServiceResponse,
        *,
        applied: bool = False,
        terminal_journal: bool = True,
    ) -> None:
        """Record a terminal response (and its journal entry)."""
        self._responses[response.request_id] = response
        if response.status == "completed":
            self.stats.completed += 1
        elif response.status == "failed":
            self.stats.failed += 1
        elif response.status == "timed_out":
            self.stats.timed_out += 1
            get_hub().metrics.counter(
                "repro_service_timeouts_total"
            ).add(1)
        get_hub().metrics.counter(
            "repro_service_requests_total",
            op=request.op if request is not None else "rejected",
            outcome=response.status,
        ).add(1)
        if request is not None and terminal_journal:
            phase = "completed" if applied or response.ok else "aborted"
            self._journal(
                phase,
                request.request_id,
                {"status": response.status, "detail": response.detail},
            )
