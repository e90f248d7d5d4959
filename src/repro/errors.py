"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class AddressingError(ReproError):
    """Invalid or exhausted IB address (LID/GUID/GID) operation."""


class LidExhaustedError(AddressingError):
    """The unicast LID space (49151 addresses) has been exhausted."""


class LidInUseError(AddressingError):
    """Attempt to assign a LID that is already held by another port."""


class TopologyError(ReproError):
    """Ill-formed topology operation (bad port, duplicate link, ...)."""


class RoutingError(ReproError):
    """A routing engine could not produce valid forwarding tables."""


class UnreachableLidError(RoutingError):
    """A LID has no path from some switch under the computed routing."""


class DeadlockError(ReproError):
    """A routing function (or transition) admits a channel-dependency cycle."""


class SriovError(ReproError):
    """Invalid SR-IOV function operation (VF exhaustion, bad detach, ...)."""


class VirtError(ReproError):
    """Cloud/virtualization layer error (placement, migration, lifecycle)."""


class CapacityError(VirtError):
    """No free VF anywhere the scheduler may place a VM.

    Retryable from the control plane's point of view: capacity frees up
    when other tenants stop or evacuations complete, so the service layer
    answers these with retry-after rather than a permanent rejection.
    """


class UnknownResourceError(VirtError):
    """A named VM or hypervisor does not exist.

    Permanent as far as retrying the same request goes — the service
    layer fails these immediately instead of burning retry budget.
    """


class DuplicateResourceError(VirtError):
    """A VM with the requested name already exists."""


class MigrationError(VirtError):
    """A live migration could not be carried out."""


class ReconfigError(ReproError):
    """Dynamic reconfiguration failure (unknown LID, no destination VF...)."""


class SimulationError(ReproError):
    """Discrete-event engine misuse (time travel, stopped engine, ...)."""


class TransportError(ReproError):
    """SMP transport failure (unreachable target, exhausted retries, ...)."""


class UnreachableTargetError(TransportError, TopologyError):
    """The SMP's target node does not exist or has no live path/LID.

    Also a :class:`TopologyError` so pre-existing callers that treated a
    send to a dead node as a topology problem keep working.
    """


class SmpTimeoutError(TransportError):
    """An SMP (or its whole retry budget) timed out without a response."""


class StaleGenerationError(TransportError):
    """A fenced write carried an SM generation older than the fabric's.

    Raised by :class:`~repro.mad.reliable.ReliableSmpSender` when the
    transport rejects a SubnSet(LFT/PortInfo) whose generation number is
    behind the fabric's — the split-brain fence stopping a stale master
    (re-emerged after a partition heal) from corrupting routing state.
    Retrying is pointless: the sender must re-run the SMInfo comparison
    and, on losing, demote itself to STANDBY.
    """


class HighAvailabilityError(ReproError):
    """SM high-availability protocol misuse or an unrecoverable HA state
    (no electable standby, replica applied out of order, ...)."""


class FaultInjectionError(ReproError):
    """Invalid fault plan or misuse of the fault-injection layer."""


class DistributionError(ReproError):
    """A transactional LFT distribution could not complete nor roll back."""


class ReconfigRollbackError(ReconfigError):
    """An LFT reconfiguration failed AND its rollback could not restore the
    pre-operation state — the fabric may be inconsistent."""


class StaticAnalysisError(ReproError):
    """A static fabric invariant (loop/deadlock/reachability) is violated."""


class ServiceError(ReproError):
    """Control-plane service misuse or an unrecoverable service state."""


class AdmissionError(ServiceError):
    """A request could not even be formed (bad op, bad parameters)."""


class RecoveryError(ServiceError):
    """A journal replay or reconciliation found state it cannot explain
    (an effect with no intent, a double-applied record, ...)."""


class ServiceKilled(ServiceError):
    """The service worker was killed (chaos ``kill-service`` knob).

    Raised at an armed crash point inside the intent journal; everything
    in the worker's memory is gone, the journal and the fabric survive.
    Callers (the chaos runner, the crash/replay property tests) catch it
    and drive recovery.
    """


class ObservabilityError(ReproError):
    """Misuse of the observability layer (a span ended twice, ...)."""


class SequenceError(ReproError):
    """A record was appended to a sequenced log under the wrong number
    (see :mod:`repro.util.seqlog`)."""
