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
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import RecoveryError, ReproError
from repro.obs.hub import get_hub, span
from repro.service.journal import IntentJournal
from repro.service.records import ServiceResponse, TenantRequest
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
    identically on every switch — the byte-identity the crash-recovery
    property is stated over. Sim-clock and transport accounting are
    deliberately excluded (a recovered run retries more, but must land
    in the same state).
    """
    state: Dict[str, object] = {"vms": [], "hypervisors": [], "lids": []}
    for name in sorted(cloud.vms):
        vm = cloud.vms[name]
        state["vms"].append(  # type: ignore[union-attr]
            {
                "name": name,
                "tenant": vm.tenant,
                "state": vm.state.value,
                "hypervisor": vm.hypervisor_name,
                "vf": vm.vf.name if vm.vf is not None else None,
                "lid": vm.lid,
            }
        )
    for hyp_name in sorted(cloud.hypervisors):
        hyp = cloud.hypervisors[hyp_name]
        state["hypervisors"].append(  # type: ignore[union-attr]
            {
                "name": hyp_name,
                "free_vfs": hyp.free_vf_count,
                "vf_lids": [vf.lid for vf in hyp.vswitch.vfs],
            }
        )
    for lid in cloud.sm.topology.bound_lids():
        port = cloud.sm.topology.port_of_lid(lid)
        state["lids"].append(  # type: ignore[union-attr]
            {
                "lid": lid,
                "port": (
                    f"{port.node.name}:{port.num}"
                    if port is not None
                    else None
                ),
            }
        )
    digest = hashlib.sha256(
        json.dumps(state, sort_keys=True).encode("utf-8")
    )
    for sw in cloud.sm.topology.switches:
        digest.update(sw.name.encode("utf-8"))
        digest.update(sw.lft.as_array().tobytes())
    return digest.hexdigest()


# -- warm recovery ---------------------------------------------------------


def recover_service(
    journal: IntentJournal,
    cloud: CloudManager,
    **service_kwargs: object,
) -> Tuple[ControlPlaneService, RecoveryReport]:
    """Warm recovery: a new worker over the surviving cloud."""
    report = RecoveryReport(
        mode="warm", journal_entries=journal.head_seq
    )
    with span("service_recover", mode="warm"):
        service = ControlPlaneService(
            cloud, journal=journal, **service_kwargs  # type: ignore[arg-type]
        )
        folded = journal.requests()
        for request_id, state in folded.items():
            phase = str(state["phase"])
            request = TenantRequest.from_dict(state["intent"])  # type: ignore[arg-type]
            if phase in ("completed", "aborted"):
                _restore_response(service, request, state["terminal"])  # type: ignore[arg-type]
                report.terminal_requests += 1
                continue
            if phase == "applied":
                _finish_applied(service, request, state["applied"])  # type: ignore[arg-type]
                report.finished += 1
                continue
            # Intent only: did the op's effects reach the fabric?
            if _effects_present(cloud, request):
                payload = _reconstruct_applied(cloud, request)
                service._journal("applied", request_id, payload)
                _finish_applied(service, request, payload)
                report.reconciled += 1
            else:
                service.enqueue_recovered(request)
                report.requeued += 1
        service.stats.recoveries += 1
        service.stats.recovered_requests = (
            report.finished + report.reconciled + report.requeued
        )
        report.problems = audit_cloud(cloud)
    get_hub().metrics.counter(
        "repro_service_recoveries_total", mode="warm"
    ).add(1)
    return service, report


def _effects_present(cloud: CloudManager, request: TenantRequest) -> bool:
    """Whether a pending intent's operation already ran (worker died
    between applying and journaling ``applied``)."""
    params = request.params
    if request.op == "boot":
        return params["name"] in cloud.vms
    if request.op == "stop":
        return params["name"] not in cloud.vms
    if request.op == "migrate":
        vm = cloud.vms.get(params["name"] or "")
        dest = params.get("dest")
        if vm is None or dest is None:
            return False
        return vm.hypervisor_name == dest
    if request.op == "evacuate":
        hyp = cloud.hypervisors.get(params["hypervisor"] or "")
        if hyp is None:
            return False
        return not list(hyp.running_vms())
    raise RecoveryError(f"unknown op {request.op!r} in journal")


def _reconstruct_applied(
    cloud: CloudManager, request: TenantRequest
) -> Dict[str, object]:
    """The ``applied`` payload a lost append would have carried, read
    back off the fabric."""
    params = request.params
    if request.op == "boot":
        vm = cloud.vms[params["name"]]
        return {
            "op": "boot",
            "vm": vm.name,
            "hypervisor": vm.hypervisor_name,
            "vf": vm.vf.name if vm.vf is not None else None,
            "lid": vm.lid,
            "reconciled": True,
        }
    if request.op == "stop":
        return {"op": "stop", "vm": params["name"], "reconciled": True}
    if request.op == "migrate":
        return {
            "op": "migrate",
            "vm": params["name"],
            "dest": params.get("dest"),
            "outcome": "completed",
            "reconciled": True,
        }
    return {
        "op": "evacuate",
        "hypervisor": params["hypervisor"],
        "migrations": [],
        "remaining": 0,
        "reconciled": True,
    }


def _restore_response(
    service: ControlPlaneService,
    request: TenantRequest,
    terminal: Optional[Dict[str, object]],
) -> None:
    """Rebuild the idempotency table for an already-terminal request so
    a client retrying it after the crash gets the original answer back
    instead of a second execution."""
    terminal = terminal or {}
    service._responses[request.request_id] = ServiceResponse(
        request_id=request.request_id,
        status=str(terminal.get("status") or "completed"),
        detail=str(terminal.get("detail") or "recovered terminal"),
    )


def _finish_applied(
    service: ControlPlaneService,
    request: TenantRequest,
    applied: Dict[str, object],
) -> None:
    """Close out a request whose op ran but whose terminal journal entry
    (and tenant response) was lost in the crash."""
    outcome = str(applied.get("outcome", "completed"))
    status = "completed" if outcome == "completed" else "failed"
    service._finish(
        request,
        ServiceResponse(
            request_id=request.request_id,
            status=status,
            detail=f"recovered: {outcome}",
        ),
        applied=True,
    )
    # The response was minted by recovery, not admission; account the
    # submission so the no-silent-drop ledger still balances.
    service.stats.submitted += 1


# -- cold rebuild ----------------------------------------------------------


def rebuild_from_journal(
    journal: IntentJournal,
    *,
    build_cloud: Callable[[Dict[str, object]], CloudManager] = build_cloud,
    **service_kwargs: object,
) -> Tuple[CloudManager, ControlPlaneService, RecoveryReport]:
    """Cold rebuild: fresh fabric from genesis + full journal replay."""
    genesis = journal.genesis()
    if genesis is None:
        raise RecoveryError(
            "cold rebuild needs a genesis entry; this journal has none"
        )
    report = RecoveryReport(mode="cold", journal_entries=journal.head_seq)
    with span("service_recover", mode="cold"):
        cloud = build_cloud(genesis)
        folded = journal.requests()
        ordered = sorted(
            (int(state["applied_seq"]), request_id)  # type: ignore[arg-type]
            for request_id, state in folded.items()
            if state["applied_seq"] is not None
        )
        for _, request_id in ordered:
            state = folded[request_id]
            request = TenantRequest.from_dict(state["intent"])  # type: ignore[arg-type]
            _replay_applied(cloud, request, state["applied"])  # type: ignore[arg-type]
            report.replayed += 1
        # The replayed journal IS the new service's journal; a recovered
        # worker keeps appending where the dead one stopped.
        service = ControlPlaneService(
            cloud, journal=journal, **service_kwargs  # type: ignore[arg-type]
        )
        for request_id, state in folded.items():
            phase = str(state["phase"])
            request = TenantRequest.from_dict(state["intent"])  # type: ignore[arg-type]
            if phase in ("completed", "aborted"):
                _restore_response(service, request, state["terminal"])  # type: ignore[arg-type]
                report.terminal_requests += 1
            elif phase == "applied":
                _finish_applied(service, request, state["applied"])  # type: ignore[arg-type]
                report.finished += 1
            else:
                service.enqueue_recovered(request)
                report.requeued += 1
        service.stats.recoveries += 1
        service.stats.recovered_requests = (
            report.finished + report.requeued + report.replayed
        )
        report.problems = audit_cloud(cloud)
    get_hub().metrics.counter(
        "repro_service_recoveries_total", mode="cold"
    ).add(1)
    return cloud, service, report


def _replay_applied(
    cloud: CloudManager,
    request: TenantRequest,
    applied: Dict[str, object],
) -> None:
    """Re-execute one applied operation on the rebuilt fabric.

    Operations that ended rolled-back or failed left no state in the
    original run (the PR 4 compensating-action guarantee) and are
    skipped; completed ones re-run with their recorded placement so the
    rebuilt state cannot diverge.
    """
    params = request.params
    try:
        if request.op == "boot":
            cloud.boot_vm(
                params["name"],
                on=str(applied.get("hypervisor")),
                tenant=request.tenant,
            )
        elif request.op == "stop":
            cloud.stop_vm(params["name"])
        elif request.op == "migrate":
            if applied.get("outcome") == "completed":
                dest = applied.get("dest") or params.get("dest")
                cloud.live_migrate(params["name"], str(dest))
        elif request.op == "evacuate":
            migrations = applied.get("migrations") or []
            for move in migrations:  # type: ignore[union-attr]
                if move.get("outcome") == "completed":  # type: ignore[union-attr]
                    cloud.live_migrate(
                        str(move["vm"]), str(move["dest"])  # type: ignore[index]
                    )
    except ReproError as exc:
        raise RecoveryError(
            f"replay of {request.request_id!r} ({request.op}) failed:"
            f" {exc}"
        ) from exc
