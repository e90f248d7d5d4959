"""The tenant-op table: every operation the control plane accepts, once.

An op is one :class:`TenantOp` row in :data:`OPS`. The worker
(:mod:`repro.service.service`) and recovery
(:mod:`repro.service.recovery`) look an op up by name and call its
handlers; nothing else in the package knows one op from another, and
:data:`REQUEST_OPS` — what :class:`~repro.service.records.TenantRequest`
accepts — is the table's key set. Adding an op is adding a row (see
``docs/SERVICE.md``, "Adding a tenant op").
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.errors import CapacityError, ServiceError, UnknownResourceError

if TYPE_CHECKING:
    from repro.core.lid_schemes import VmBootBatchReport
    from repro.service.records import ServiceResponse
    from repro.service.records import TenantRequest as Request
    from repro.service.service import ControlPlaneService as Service
    from repro.virt.cloud import CloudManager as Cloud
    from repro.virt.hypervisor import Hypervisor
    from repro.virt.vm import VirtualMachine

__all__ = ["OPS", "REQUEST_OPS", "TenantOp"]

Params = Dict[str, Optional[str]]
Payload = Dict[str, object]
Outcome = Tuple[Payload, "ServiceResponse"]


class TenantOp(abc.ABC):
    """One tenant operation: a name and the five handlers its lifecycle
    needs (a row that lacks one cannot be instantiated)."""

    name: str
    #: A request of this kind adds a VM: it counts against the tenant's
    #: ``max_vms``/``max_vfs`` and its VM name is service-minted.
    creates_vm = False
    #: A request of this kind migrates VMs: it counts against the
    #: tenant's ``max_migrations_in_flight``.
    moves_vms = False
    #: The requests of this kind in one sweep share one LFT pass
    #: (:meth:`execute_batch`).
    batched = False

    @abc.abstractmethod
    def bind(self, service: Service, tenant: str, params: Params) -> None:
        """At admission, pin in *params* everything a replay needs (most
        notably a boot's VM name); :class:`ServiceError` refuses a
        request that cannot be formed."""

    @abc.abstractmethod
    def execute(self, service: Service, request: Request) -> Outcome:
        """Run the op against the cloud; returns the ``applied`` journal
        payload and the terminal response. Raises on transport and
        validation errors (the worker maps them)."""

    @abc.abstractmethod
    def effects_present(self, cloud: Cloud, request: Request) -> bool:
        """Warm recovery: did a pending intent's op already run (the
        worker died between applying and journaling ``applied``)?"""

    @abc.abstractmethod
    def applied_from_fabric(self, cloud: Cloud, request: Request) -> Payload:
        """The ``applied`` payload of an op that ran, read back off the
        fabric."""

    @abc.abstractmethod
    def replay(self, cloud: Cloud, request: Request, applied: Payload) -> None:
        """Cold rebuild: re-execute an applied op with its recorded
        placement. Whatever ended rolled back or failed left no state
        (the compensating-action guarantee) and is skipped."""

    def execute_batch(
        self, service: Service, requests: List[Request]
    ) -> Tuple[List[Outcome], VmBootBatchReport]:
        """Only for a :attr:`batched` op: apply *requests* as one LFT
        pass, all or (raising) none; returns one outcome per request and
        the pass's SMP accounting."""
        raise ServiceError(f"{self.name} requests are not batched")


def _owned_vm(service: Service, request: Request) -> VirtualMachine:
    """Tenant isolation: operating on another tenant's VM is an
    unknown-resource error, indistinguishable from absence."""
    name = request.params["name"]
    vm = service.cloud.vms.get(name or "")
    if vm is None or vm.tenant != request.tenant:
        raise UnknownResourceError(
            f"unknown VM {name!r} for tenant {request.tenant!r}"
        )
    return vm


def _choose_destination(cloud: Cloud, vm: VirtualMachine) -> Hypervisor:
    """Where the placement policy would migrate *vm* right now."""
    return cloud.placement.choose(
        [
            h
            for h in cloud.hypervisors.values()
            if h.name != vm.hypervisor_name and h.has_capacity()
        ]
    )


class _Boot(TenantOp):
    name = "boot"
    creates_vm = True
    batched = True

    def bind(self, service: Service, tenant: str, params: Params) -> None:
        if "name" not in params:
            params["name"] = service.mint_vm_name(tenant)

    def execute(self, service: Service, request: Request) -> Outcome:
        service.cloud.boot_vm(
            request.params["name"],
            on=request.params.get("on"),
            tenant=request.tenant,
        )
        return self._booted(service, request)

    def execute_batch(
        self, service: Service, requests: List[Request]
    ) -> Tuple[List[Outcome], VmBootBatchReport]:
        _, batch = service.cloud.boot_vms_batch(
            [(r.params["name"], r.params.get("on"), r.tenant) for r in requests]
        )
        return [self._booted(service, r) for r in requests], batch

    def _booted(self, service: Service, request: Request) -> Outcome:
        applied = self.applied_from_fabric(service.cloud, request)
        detail = f"{applied['vm']} on {applied['hypervisor']}"
        return applied, service.respond(request, "completed", detail)

    def effects_present(self, cloud: Cloud, request: Request) -> bool:
        return request.params["name"] in cloud.vms

    def applied_from_fabric(self, cloud: Cloud, request: Request) -> Payload:
        vm = cloud.vms[request.params["name"] or ""]
        return {
            "op": self.name,
            "vm": vm.name,
            "hypervisor": vm.hypervisor_name,
            "vf": vm.vf.name if vm.vf is not None else None,
            "lid": vm.lid,
        }

    def replay(self, cloud: Cloud, request: Request, applied: Payload) -> None:
        cloud.boot_vm(
            request.params["name"],
            on=str(applied.get("hypervisor")),
            tenant=request.tenant,
        )


class _Stop(TenantOp):
    name = "stop"

    def bind(self, service: Service, tenant: str, params: Params) -> None:
        if "name" not in params:
            raise ServiceError("stop requests must name a VM")

    def execute(self, service: Service, request: Request) -> Outcome:
        vm = _owned_vm(service, request)
        service.cloud.stop_vm(vm.name)
        applied = self.applied_from_fabric(service.cloud, request)
        return applied, service.respond(request, "completed", vm.name)

    def effects_present(self, cloud: Cloud, request: Request) -> bool:
        return request.params["name"] not in cloud.vms

    def applied_from_fabric(self, cloud: Cloud, request: Request) -> Payload:
        return {"op": self.name, "vm": request.params["name"]}

    def replay(self, cloud: Cloud, request: Request, applied: Payload) -> None:
        cloud.stop_vm(request.params["name"] or "")


class _Migrate(TenantOp):
    name = "migrate"
    moves_vms = True

    def bind(self, service: Service, tenant: str, params: Params) -> None:
        if "name" not in params:
            raise ServiceError("migrate requests must name a VM")
        # Bind the destination now so warm recovery can tell an
        # applied-but-unjournaled migration apart from a pending one (the
        # VM sitting at its bound dest IS the evidence). Unknown VMs and
        # zero-capacity fabrics stay unbound; the apply path maps those
        # errors precisely.
        vm = service.cloud.vms.get(params["name"] or "")
        if "dest" not in params and vm is not None:
            try:
                params["dest"] = _choose_destination(service.cloud, vm).name
            except CapacityError:
                pass

    def execute(self, service: Service, request: Request) -> Outcome:
        vm = _owned_vm(service, request)
        dest = request.params.get("dest")
        if dest is None:
            dest = _choose_destination(service.cloud, vm).name
        result = service.cloud.live_migrate(vm.name, dest)
        applied: Payload = {
            "op": self.name,
            "vm": vm.name,
            "dest": dest,
            "outcome": result.outcome,
        }
        if result.outcome == "completed":
            return applied, service.respond(
                request, "completed", f"{vm.name} -> {dest}"
            )
        return applied, service.respond(
            request,
            "failed",
            f"migration {result.outcome}: {result.failure}",
            retry=result.outcome == "rolled_back",
        )

    def effects_present(self, cloud: Cloud, request: Request) -> bool:
        vm = cloud.vms.get(request.params["name"] or "")
        dest = request.params.get("dest")
        return vm is not None and dest is not None and vm.hypervisor_name == dest

    def applied_from_fabric(self, cloud: Cloud, request: Request) -> Payload:
        return {
            "op": self.name,
            "vm": request.params["name"],
            "dest": request.params.get("dest"),
            "outcome": "completed",
        }

    def replay(self, cloud: Cloud, request: Request, applied: Payload) -> None:
        if applied.get("outcome") == "completed":
            dest = applied.get("dest") or request.params.get("dest")
            cloud.live_migrate(request.params["name"] or "", str(dest))


class _Evacuate(TenantOp):
    name = "evacuate"
    moves_vms = True

    def bind(self, service: Service, tenant: str, params: Params) -> None:
        if "hypervisor" not in params:
            raise ServiceError("evacuate requests must name a hypervisor")

    def execute(self, service: Service, request: Request) -> Outcome:
        hyp_name = request.params["hypervisor"] or ""
        moved = [
            {"vm": r.vm_name, "dest": r.destination, "outcome": r.outcome}
            for r in service.cloud.evacuate(hyp_name)
        ]
        hyp = service.cloud.hypervisors[hyp_name]
        remaining = len(list(hyp.running_vms()))
        applied: Payload = {
            "op": self.name,
            "hypervisor": hyp_name,
            "migrations": moved,
            "remaining": remaining,
        }
        if remaining:
            detail = (
                f"partial drain: {remaining} VMs still on {hyp_name}"
                " (no capacity)"
            )
            return applied, service.respond(
                request, "failed", detail, retry=True
            )
        detail = f"{hyp_name} drained ({len(moved)} migrations)"
        return applied, service.respond(request, "completed", detail)

    def effects_present(self, cloud: Cloud, request: Request) -> bool:
        hyp = cloud.hypervisors.get(request.params["hypervisor"] or "")
        return hyp is not None and not list(hyp.running_vms())

    def applied_from_fabric(self, cloud: Cloud, request: Request) -> Payload:
        return {
            "op": self.name,
            "hypervisor": request.params["hypervisor"],
            "migrations": [],
            "remaining": 0,
        }

    def replay(self, cloud: Cloud, request: Request, applied: Payload) -> None:
        moves: List[Dict[str, object]] = applied.get("migrations") or []  # type: ignore[assignment]  # journal payloads are untyped JSON
        for move in moves:
            if move.get("outcome") == "completed":
                cloud.live_migrate(str(move["vm"]), str(move["dest"]))


#: The table, in the order ops were introduced.
OPS: Dict[str, TenantOp] = {
    op.name: op for op in (_Boot(), _Stop(), _Migrate(), _Evacuate())
}

#: Operations the control plane accepts.
REQUEST_OPS = tuple(OPS)
