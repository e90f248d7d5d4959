"""MAD-faithful reliability on top of the lossy SMP transport.

MADs are unacknowledged UD datagrams: a real SM learns about a lost SMP
only by timing out, and OpenSM's MAD layer retransmits with a capped
exponential backoff (``timeout``/``retries`` in ``opensm.conf``). The
:class:`ReliableSmpSender` reproduces that contract on top of
:class:`~repro.mad.transport.SmpTransport`:

* a delivered SMP returns immediately, exactly as before;
* a timed-out SMP costs one timeout wait (charged to the sim clock — this
  is the downtime inflation chaos runs measure), then is retransmitted
  with exponentially growing, capped timeouts;
* exhausted retries raise :class:`~repro.errors.SmpTimeoutError`;
* an :class:`~repro.errors.UnreachableTargetError` from the transport
  propagates untouched — retransmitting into a dead path burns the retry
  budget for nothing, and callers handle the two failures differently
  (resync vs. rollback).

Every retransmission is a real :meth:`~repro.mad.transport.SmpTransport.send`,
so it lands in all the usual accounting: ``TransportStats`` (including the
achieved-vs-ideal n'·m' LFT-SMP counts the chaos report compares), the
flight recorder, and per-SMP span events. Recovery sequences additionally
get their own ``smp_retry`` span and the
``repro_smp_retries_total`` / ``repro_smp_timeouts_total`` counters.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

from repro.errors import (
    FaultInjectionError,
    SmpTimeoutError,
    StaleGenerationError,
)
from repro.mad.smp import Smp, SmpPlan, SmpResult, SmpStatus
from repro.mad.transport import SmpTransport
from repro.obs.hub import get_hub

__all__ = ["RetryPolicy", "ReliableSmpSender"]


@dataclass(frozen=True)
class RetryPolicy:
    """How hard to try before declaring an SMP undeliverable.

    ``retries`` counts *retransmissions* (total attempts = retries + 1).
    The wait before retransmission *i* (0-based) is
    ``timeout_s * backoff ** i`` capped at ``max_timeout_s`` — OpenSM's
    ``transaction_timeout``/``max_msg_retries`` shape.
    """

    retries: int = 4
    timeout_s: float = 1e-3
    backoff: float = 2.0
    max_timeout_s: float = 8e-3

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise FaultInjectionError("retries must be >= 0")
        if self.timeout_s <= 0:
            raise FaultInjectionError("timeout_s must be > 0")
        if self.backoff < 1.0:
            raise FaultInjectionError("backoff must be >= 1")
        if self.max_timeout_s < self.timeout_s:
            raise FaultInjectionError("max_timeout_s must be >= timeout_s")

    def timeout_for(self, attempt: int) -> float:
        """Timeout wait after (0-based) attempt *attempt*."""
        return min(self.timeout_s * self.backoff**attempt, self.max_timeout_s)

    def worst_case_wait(self) -> float:
        """Total sim time burned if every attempt times out."""
        return sum(self.timeout_for(i) for i in range(self.retries + 1))

    def waits(self):
        """The backoff waits, in order: one per allowed retry.

        ``for wait in policy.waits():`` is the retry-loop shape shared by
        the MAD layer and the control-plane service's request retries —
        the service charges each wait to the sim clock between attempts,
        so a request's worst-case latency is exactly
        :meth:`worst_case_wait` on both layers.
        """
        for attempt in range(self.retries):
            yield self.timeout_for(attempt)


class ReliableSmpSender:
    """Retransmitting wrapper around an :class:`SmpTransport`.

    Drop-in for the transport at every ``.send()`` call site; the
    underlying transport stays reachable as :attr:`transport` for stats
    and topology access.
    """

    def __init__(
        self,
        transport: SmpTransport,
        policy: Optional[RetryPolicy] = None,
        *,
        generation: Optional[int] = None,
    ) -> None:
        self.transport = transport
        self.policy = policy if policy is not None else RetryPolicy()
        #: The SM generation this sender stamps on fenced writes (SET
        #: LFT/PortInfo). ``None`` sends unfenced, the pre-HA behaviour.
        #: The HA manager gives every SM candidate its own sender so a
        #: stale master keeps writing with its old generation — and gets
        #: fenced — while the new master writes with the bumped one.
        self.generation = generation

    # Delegations that make the sender a drop-in for the transport at the
    # call sites that also peek at accounting or the SM attachment.
    @property
    def stats(self):
        """The underlying transport's :class:`TransportStats`."""
        return self.transport.stats

    @property
    def topology(self):
        """The underlying transport's topology."""
        return self.transport.topology

    @property
    def sm_node(self):
        """The node hosting the SM."""
        return self.transport.sm_node

    def send(self, smp: Smp) -> SmpResult:
        """Deliver *smp*, retransmitting on timeout.

        Returns the first delivered result. Raises
        :class:`SmpTimeoutError` once the retry budget is exhausted,
        :class:`~repro.errors.StaleGenerationError` when a fenced write
        is rejected (retrying a fenced-out write cannot succeed — the
        caller must re-run the SMInfo comparison), and lets
        :class:`~repro.errors.UnreachableTargetError` propagate untouched.
        A fenced write without a generation is stamped with this sender's.
        """
        if smp.generation is None and smp.is_fenced_write:
            smp.generation = self.generation
        return self.transport.send(smp, on_loss=self._recover)

    def deliver(self, plan: SmpPlan, *, applied: Optional[List[int]] = None) -> None:
        """:meth:`SmpTransport.deliver` of *plan*, stamped with this sender's
        generation unless it has its own, each packet recovered like :meth:`send`."""
        if plan.generation is None:
            plan = replace(plan, generation=self.generation)
        self.transport.deliver(plan, on_loss=self._recover, applied=applied)

    def _recover(self, smp: Smp, result: SmpResult) -> SmpResult:
        if result.status is SmpStatus.STALE_GENERATION:
            raise self._stale(smp)
        return self._retry(smp)

    def _stale(self, smp: Smp) -> StaleGenerationError:
        return StaleGenerationError(
            f"SMP {smp.method.value}({smp.kind.value}) to {smp.target!r}"
            f" fenced out: generation {smp.generation} is behind the"
            f" fabric's {self.transport.fabric_generation}"
        )

    def _retry(self, smp: Smp) -> SmpResult:
        hub = get_hub()
        policy = self.policy
        kind = smp.kind.name.lower()
        with hub.span(
            "smp_retry", target=smp.target, kind=kind, directed=smp.directed
        ) as sp:
            for attempt in range(1, policy.retries + 1):
                wait = policy.timeout_for(attempt - 1)
                self.transport.charge_wait(wait)
                self.transport.stats.retransmissions += 1
                hub.metrics.counter(
                    "repro_smp_retries_total", kind=kind, target=smp.target
                ).add(1)
                sp.add_event(
                    "retransmit", hub.now(), attempt=attempt, wait=wait
                )
                result = self.transport.send(smp)
                if result.ok:
                    sp.set_attributes(attempts=attempt + 1, recovered=True)
                    return result
                if result.status is SmpStatus.STALE_GENERATION:
                    sp.set_attributes(attempts=attempt + 1, recovered=False)
                    raise self._stale(smp)
            # We also wait out the last attempt's timeout before giving up.
            self.transport.charge_wait(policy.timeout_for(policy.retries))
            sp.set_attributes(attempts=policy.retries + 1, recovered=False)
        raise SmpTimeoutError(
            f"SMP {smp.method.value}({smp.kind.value}) to {smp.target!r}"
            f" lost after {policy.retries + 1} attempts"
        )
