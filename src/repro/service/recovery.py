"""Crash recovery: warm reconciliation and cold journal replay.

Two recovery modes, both driven purely by the intent journal:

* **warm** (:func:`recover_service`) — the fabric and the cloud object
  survived, only the worker died. Terminal requests are left alone;
  requests whose ``applied`` entry exists but whose ``completed`` entry
  was lost are finished; pending intents are *reconciled*: if the cloud
  already shows the op's effects (the worker died after applying but
  before journaling ``applied``), the journal is brought up to date
  retroactively — never re-executing, so no double-booted VMs — and
  otherwise the intent is re-queued for execution.
* **cold** (:func:`rebuild_from_journal`) — nothing but the journal
  survived. The genesis entry rebuilds the fabric from its preset, every
  ``applied`` operation is re-executed in applied order (failed and
  rolled-back operations left no state and are skipped), and pending
  intents are re-queued. Because placement, VF selection and LID
  assignment are all deterministic, the rebuilt tenant/VM/VF/LID state is
  byte-identical to the original — the property the hypothesis suite
  asserts via :func:`cloud_fingerprint`.

:func:`audit_cloud` is the invariant checker both modes (and the chaos
runner) finish with: no orphaned VFs, no leaked LIDs, no VM/VF mismatch.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

from repro.errors import RecoveryError, ReproError
from repro.obs.hub import get_hub, span
from repro.service.journal import IntentJournal, RequestState
from repro.service.ops import OPS
from repro.service.records import TenantRequest
from repro.service.service import ControlPlaneService
from repro.virt.cloud import CloudManager, build_cloud

__all__ = [
    "RecoveryReport",
    "audit_cloud",
    "cloud_fingerprint",
    "rebuild_from_journal",
    "recover_service",
]


@dataclass
class RecoveryReport:
    """What one recovery pass did."""

    mode: str = ""
    journal_entries: int = 0
    terminal_requests: int = 0
    #: Applied-but-not-completed requests finished retroactively.
    finished: int = 0
    #: Pending intents whose effects were already on the fabric.
    reconciled: int = 0
    #: Pending intents re-queued for execution.
    requeued: int = 0
    #: Applied operations re-executed (cold mode only).
    replayed: int = 0
    #: Post-recovery invariant violations (must be empty).
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True iff the post-recovery audit found nothing wrong."""
        return not self.problems


def audit_cloud(cloud: CloudManager) -> List[str]:
    """Invariant check: every VF, LID and VM accounted for.

    Returns human-readable problems (empty = clean): attached VFs must
    belong to exactly one registered VM and vice versa; every extra LID
    bound to a hypervisor uplink must be held by the PF or an attached
    VF (dynamic scheme) or any VF (prepopulated); no VM without a VF;
    the cloud's running-VM count equals a scan of the VMs.
    """
    problems: List[str] = []
    vms_by_vf: Dict[str, str] = {}
    for name in sorted(cloud.vms):
        vm = cloud.vms[name]
        if vm.vf is None:
            problems.append(f"VM {name} holds no VF")
            continue
        vms_by_vf[vm.vf.name] = name
        if vm.vf.vm_name != name:
            problems.append(
                f"VM {name} holds {vm.vf.name} but the VF records"
                f" {vm.vf.vm_name!r}"
            )
    running = sum(vm.is_running for vm in cloud.vms.values())
    if running != cloud.running_vm_count:
        problems.append(
            f"{running} VMs are running but the cloud counts"
            f" {cloud.running_vm_count}"
        )
    lids_by_port = cloud.sm.lid_manager.lids_by_port()
    for hyp_name in sorted(cloud.hypervisors):
        hyp = cloud.hypervisors[hyp_name]
        vsw = hyp.vswitch
        for vf in vsw.vfs:
            if vf.vm_name is not None and vf.name not in vms_by_vf:
                problems.append(
                    f"orphaned VF: {vf.name} attached to"
                    f" {vf.vm_name!r} but no such VM is registered"
                )
        scheme_dynamic = cloud.scheme.name == "dynamic"
        held = {vsw.pf.lid} | {
            vf.lid for vf in vsw.vfs if vf.lid is not None
        }
        for lid in lids_by_port.get(vsw.uplink_port, ()):
            if lid not in held:
                problems.append(
                    f"leaked LID {lid} on {hyp_name}: bound to the"
                    " uplink but held by no PF/VF"
                )
        if scheme_dynamic:
            for vf in vsw.vfs:
                if vf.vm_name is None and vf.lid is not None:
                    problems.append(
                        f"leaked LID {vf.lid}: free VF {vf.name} still"
                        " holds a dynamic LID"
                    )
    return problems


def cloud_fingerprint(cloud: CloudManager) -> str:
    """Canonical digest of tenant/VM/VF/LID state plus routing bytes.

    Two clouds with equal fingerprints place every tenant's VMs on the
    same hypervisors and VFs with the same LIDs, and forward every LID
    identically on every switch on the same lanes (VL-routed fabrics
    only) — the byte-identity the crash-recovery
    property is stated over. Sim-clock and transport accounting are
    deliberately excluded (a recovered run retries more, but must land
    in the same state).
    """
    topology = cloud.sm.topology
    lids: List[Dict[str, object]] = []
    for lid in topology.bound_lids():
        port = topology.port_of_lid(lid)
        label = None if port is None else f"{port.node.name}:{port.num}"
        lids.append({"lid": lid, "port": label})
    state = {
        "vms": [
            {
                "name": name,
                "tenant": vm.tenant,
                "state": vm.state.value,
                "hypervisor": vm.hypervisor_name,
                "vf": vm.vf.name if vm.vf is not None else None,
                "lid": vm.lid,
            }
            for name, vm in sorted(cloud.vms.items())
        ],
        "hypervisors": [
            {
                "name": hyp_name,
                "free_vfs": hyp.free_vf_count,
                "vf_lids": [vf.lid for vf in hyp.vswitch.vfs],
            }
            for hyp_name, hyp in sorted(cloud.hypervisors.items())
        ],
        "lids": lids,
    }
    digest = hashlib.sha256(
        json.dumps(state, sort_keys=True).encode("utf-8")
    )
    for sw, row in zip(topology.switches, topology.lft):
        digest.update(sw.name.encode("utf-8"))
        digest.update(row.tobytes())
    tables = cloud.sm.current_tables
    if tables is not None and tables.lanes is not None:
        digest.update(tables.lanes.tobytes())
    return digest.hexdigest()


# -- the one recovery ------------------------------------------------------


def recover_service(
    journal: IntentJournal,
    cloud: CloudManager,
    **service_kwargs: Any,
) -> Tuple[ControlPlaneService, RecoveryReport]:
    """Warm recovery: a new worker over the surviving cloud."""
    _, service, report = _recover(
        journal, lambda: cloud, service_kwargs, fresh=False
    )
    return service, report


def rebuild_from_journal(
    journal: IntentJournal,
    *,
    build_cloud: Callable[[Dict[str, object]], CloudManager] = build_cloud,
    **service_kwargs: Any,
) -> Tuple[CloudManager, ControlPlaneService, RecoveryReport]:
    """Cold rebuild: fresh fabric from genesis + full journal replay."""
    genesis = journal.genesis()
    if genesis is None:
        raise RecoveryError(
            "cold rebuild needs a genesis entry; this journal has none"
        )
    return _recover(
        journal, lambda: build_cloud(genesis), service_kwargs, fresh=True
    )


def _recover(
    journal: IntentJournal,
    cloud_of: Callable[[], CloudManager],
    service_kwargs: Dict[str, Any],
    *,
    fresh: bool,
) -> Tuple[CloudManager, ControlPlaneService, RecoveryReport]:
    """Fold the journal, then restore every request from its last phase.

    Warm, the cloud survived and a pending intent may already have run on
    it (the worker died before journaling ``applied``), so the fabric is
    inspected and such an intent reconciled — never re-executed. Cold,
    the cloud is *fresh* from genesis: the journaled ``applied`` ops are
    replayed onto it in applied order first, and an unjournaled effect
    cannot exist.
    """
    mode = "cold" if fresh else "warm"
    report = RecoveryReport(mode=mode, journal_entries=journal.head_seq)
    with span("service_recover", mode=mode):
        cloud = cloud_of()
        folded = journal.requests()
        if fresh:
            _replay(cloud, folded, report)
        # The recovered journal IS the new service's journal; the worker
        # keeps appending where the dead one stopped.
        service = ControlPlaneService(
            cloud, journal=journal, **service_kwargs
        )
        for request_id, state in folded.items():
            request = TenantRequest.from_dict(state.intent)
            op = OPS[request.op]
            if state.phase in ("completed", "aborted"):
                _restore_response(service, request, state.terminal or {})
                report.terminal_requests += 1
            elif state.applied is not None:
                _finish_applied(service, request, state.applied)
                report.finished += 1
            elif not fresh and op.effects_present(cloud, request):
                payload = op.applied_from_fabric(cloud, request)
                payload["reconciled"] = True
                service._journal("applied", request_id, payload)
                _finish_applied(service, request, payload)
                report.reconciled += 1
            else:
                service.enqueue_recovered(request)
                report.requeued += 1
        service.stats.recoveries += 1
        service.stats.recovered_requests = (
            report.finished
            + report.reconciled
            + report.requeued
            + report.replayed
        )
        report.problems = audit_cloud(cloud)
    get_hub().metrics.counter(
        "repro_service_recoveries_total", mode=mode
    ).add(1)
    return cloud, service, report


def _replay(
    cloud: CloudManager,
    folded: Dict[str, RequestState],
    report: RecoveryReport,
) -> None:
    """Re-execute every applied operation on the rebuilt fabric, in
    ``applied`` order, with its recorded placement so the rebuilt state
    cannot diverge."""
    ran = [s for s in folded.values() if s.applied_seq is not None]
    for state in sorted(ran, key=lambda s: s.applied_seq or 0):
        request = TenantRequest.from_dict(state.intent)
        try:
            OPS[request.op].replay(cloud, request, state.applied or {})
        except ReproError as exc:
            raise RecoveryError(
                f"replay of {request.request_id!r} ({request.op}) failed:"
                f" {exc}"
            ) from exc
        report.replayed += 1


def _restore_response(
    service: ControlPlaneService,
    request: TenantRequest,
    terminal: Dict[str, object],
) -> None:
    """Rebuild the idempotency table for an already-terminal request so
    a client retrying it after the crash gets the original answer back
    instead of a second execution."""
    service._responses[request.request_id] = service.respond(
        request,
        str(terminal.get("status") or "completed"),
        str(terminal.get("detail") or "recovered terminal"),
    )


def _finish_applied(
    service: ControlPlaneService,
    request: TenantRequest,
    applied: Dict[str, object],
) -> None:
    """Close out a request whose op ran but whose terminal journal entry
    (and tenant response) was lost in the crash."""
    outcome = str(applied.get("outcome", "completed"))
    service._finish(
        request,
        service.respond(
            request,
            "completed" if outcome == "completed" else "failed",
            f"recovered: {outcome}",
        ),
        applied=True,
    )
    # The response was minted by recovery, not admission; account the
    # submission so the no-silent-drop ledger still balances.
    service.stats.submitted += 1
