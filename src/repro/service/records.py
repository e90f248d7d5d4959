"""Versioned request/response records and tenant quotas.

Every tenant operation is a :class:`TenantRequest` — a frozen, versioned
record whose ``request_id`` doubles as the idempotency key (resubmitting
the same id returns the original response instead of double-booting).
The journal stores exactly these records, so a journal written by one
service version can be replayed by a later one as long as the record
``version`` is understood.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.errors import AdmissionError
from repro.service.ops import REQUEST_OPS

__all__ = [
    "RECORD_VERSION",
    "REQUEST_OPS",
    "ServiceResponse",
    "TenantQuota",
    "TenantRequest",
]

#: Journal record schema version (bump on incompatible layout changes).
RECORD_VERSION = 1

#: Response statuses a submitted request can end in. Every submitted
#: request reaches exactly one of these — there is no silent drop.
RESPONSE_STATUSES = (
    "accepted",  # admitted and queued (interim status)
    "completed",  # applied to the cloud
    "failed",  # applied but the operation itself failed permanently
    "rejected_quota",  # over the tenant's quota; retry after others stop
    "rejected_overload",  # queue full / service shedding; retry later
    "timed_out",  # deadline passed before the fabric could serve it
    "duplicate",  # idempotency-key replay of an earlier submission
)


@dataclass(frozen=True)
class TenantRequest:
    """One tenant intent, as journaled.

    ``op`` is one of :data:`~repro.service.ops.REQUEST_OPS`; ``params``
    is op-specific, as the op's ``bind`` handler left it at admission
    (e.g. the service-assigned VM name, so replay is deterministic).
    """

    request_id: str
    tenant: str
    op: str
    params: Dict[str, Optional[str]] = field(default_factory=dict)
    submitted_at: float = 0.0
    deadline: Optional[float] = None
    version: int = RECORD_VERSION

    def __post_init__(self) -> None:
        if self.op not in REQUEST_OPS:
            raise AdmissionError(
                f"unknown op {self.op!r}; choose one of {REQUEST_OPS}"
            )
        if not self.tenant:
            raise AdmissionError("requests must name a tenant")

    def as_dict(self) -> Dict[str, object]:
        """Journal payload form (plain JSON-able types only)."""
        return {
            "request_id": self.request_id,
            "tenant": self.tenant,
            "op": self.op,
            "params": dict(self.params),
            "submitted_at": self.submitted_at,
            "deadline": self.deadline,
            "version": self.version,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "TenantRequest":
        """Inverse of :meth:`as_dict` (journal load / replay)."""
        return cls(
            request_id=str(data["request_id"]),
            tenant=str(data["tenant"]),
            op=str(data["op"]),
            params=dict(data.get("params") or {}),  # type: ignore[arg-type]
            submitted_at=float(data.get("submitted_at") or 0.0),
            deadline=(
                None
                if data.get("deadline") is None
                else float(data["deadline"])  # type: ignore[arg-type]
            ),
            version=int(data.get("version") or RECORD_VERSION),
        )


@dataclass(frozen=True)
class ServiceResponse:
    """What the tenant hears back. Never silent: rejections carry a
    deterministic ``retry_after_s`` hint computed from queue depth and
    observed sweep latency."""

    request_id: str
    status: str
    detail: str = ""
    retry_after_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.status not in RESPONSE_STATUSES:
            raise AdmissionError(f"unknown response status {self.status!r}")

    @property
    def ok(self) -> bool:
        """True for terminal success."""
        return self.status == "completed"

    @property
    def retryable(self) -> bool:
        """True when resubmitting later can succeed."""
        return self.status in (
            "rejected_quota",
            "rejected_overload",
            "timed_out",
        )


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant resource ceilings enforced at admission.

    ``max_vms`` counts running VMs plus queued boots; ``max_vfs`` is the
    VF ceiling (a migration transiently holds a destination VF, so it
    counts against headroom while in flight); ``max_migrations_in_flight``
    bounds queued-or-executing migrations and evacuations.
    """

    max_vms: int = 8
    max_vfs: int = 8
    max_migrations_in_flight: int = 4

    def __post_init__(self) -> None:
        if self.max_vms < 0 or self.max_vfs < 0:
            raise AdmissionError("quota ceilings must be >= 0")
        if self.max_migrations_in_flight < 0:
            raise AdmissionError("max_migrations_in_flight must be >= 0")
