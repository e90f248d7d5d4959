"""Fabric event traps: how the SM learns that something broke.

Switches report port-state changes to the master SM with Trap MADs (IBA
traps 128/129-style). The event manager records the traps, debounces the
two reports a single cable failure produces (one from each end), and
triggers the SM's reaction — the *legitimate* heavy reconfiguration the
paper contrasts with migration-triggered ones.

Two ingestion paths exist:

* the **legacy synchronous** path (:meth:`FabricEventManager.link_down` /
  :meth:`~FabricEventManager.link_up`) reroutes once per event, exactly
  as before;
* the **hardened deferred** path (:meth:`~FabricEventManager.report_link_down`
  / :meth:`~FabricEventManager.report_link_up` +
  :meth:`~FabricEventManager.pump`) models the VL15 trap pipeline of a
  production SM: trap notices ride a **bounded queue** (VL15 is
  unacknowledged — overflow loses notices and forces a full sweep),
  repeated flaps of the same link **coalesce** (a down immediately
  followed by an up cancels out — no reroute at all), links flapping
  above the storm threshold are **throttled** for one pump, and
  everything still pending at pump time is batched into **one**
  incremental reroute instead of one per event.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.fabric.link import Link
from repro.fabric.node import Switch
from repro.fabric.topology import TopologyMutation
from repro.mad.smp import Smp, SmpKind, SmpMethod
from repro.obs.hub import get_hub
from repro.sm.subnet_manager import ConfigureReport, SubnetManager

__all__ = ["TrapType", "TrapRecord", "PendingEvent", "FabricEventManager"]


class TrapType(enum.Enum):
    """Modelled trap numbers (IBA 13.4.9).

    ``IN_SERVICE``/``OUT_OF_SERVICE`` are the IBA 64/65 pair: an element
    joined or left the subnet — raised by the deferred ingestion of
    *planned* topology mutations (:meth:`FabricEventManager.\
report_topology_change`), as opposed to the 128/129 port-state pair a
    failing cable raises on its own. ``CONGESTION`` is not a wire trap:
    it is the PerfManager's threshold event (OpenSM's perfmgr raises the
    analogous internal event when a swept counter crosses its configured
    threshold), routed through the same event manager so chaos runs see
    congestion next to link state.
    """

    IN_SERVICE = 64
    OUT_OF_SERVICE = 65
    LINK_STATE_DOWN = 128
    LINK_STATE_UP = 129
    CONGESTION = 144


@dataclass(frozen=True)
class TrapRecord:
    """One trap notice received by the SM."""

    seq: int
    trap: TrapType
    reporter: str  # switch that noticed
    port: int
    #: Event-specific magnitude (congestion: xmit-wait seconds observed
    #: in the window that tripped the threshold). 0.0 for wire traps.
    severity: float = 0.0


@dataclass
class PendingEvent:
    """One coalesced fabric event waiting in the VL15 trap queue."""

    key: Tuple[str, str]
    kind: TrapType
    #: How many raw traps folded into this entry.
    merged: int = 1
    #: Throttled once already — eligible at the next pump regardless.
    deferred: bool = False
    #: Reconnect coordinates, kept for LINK_STATE_UP events.
    endpoints: Optional[Tuple[str, int, str, int]] = None


class FabricEventManager:
    """Receives fabric traps and drives the SM's reaction."""

    #: Pending events the bounded VL15 trap queue holds.
    QUEUE_CAPACITY = 64
    #: Flaps per pump interval above which a link is storming.
    STORM_THRESHOLD = 3

    def __init__(self, sm: SubnetManager) -> None:
        self.sm = sm
        self.traps: List[TrapRecord] = []
        #: Congestion threshold events (TrapType.CONGESTION), arrival order.
        self.congestion_events: List[TrapRecord] = []
        self._seq = itertools.count(1)
        #: Reconfigurations performed in reaction to traps.
        self.reactions: List[ConfigureReport] = []
        #: Bounded VL15 trap queue, keyed by normalized link endpoints.
        #: Dict order (insertion) keeps draining deterministic.
        self._queue: Dict[Tuple[str, str], PendingEvent] = {}
        #: Raw flap count per link key since the last pump — the storm
        #: detector's signal.
        self._flap_counts: Dict[Tuple[str, str], int] = {}
        #: Queue overflow lost a notice: the next pump cannot trust the
        #: queue to be complete and must sweep regardless.
        self.needs_full_sweep = False
        self.overflows = 0
        #: Down/up pairs that cancelled before any reroute was paid.
        self.traps_coalesced = 0
        #: Events pushed past a pump by the storm throttle.
        self.traps_throttled = 0
        #: Trap notices lost on the (unacknowledged) VL15 path.
        self.traps_lost = 0
        self.pumps = 0

    # -- trap ingestion -------------------------------------------------------

    def _record(
        self,
        trap: TrapType,
        reporter: str,
        port: int,
        *,
        severity: float = 0.0,
    ) -> TrapRecord:
        rec = TrapRecord(
            seq=next(self._seq),
            trap=trap,
            reporter=reporter,
            port=port,
            severity=severity,
        )
        self.traps.append(rec)
        return rec

    def traps_of(self, trap: TrapType) -> List[TrapRecord]:
        """All received traps of one type, in arrival order."""
        return [t for t in self.traps if t.trap is trap]

    # -- telemetry threshold events -------------------------------------------

    def report_congestion(
        self, reporter: str, port: int, *, severity: float = 0.0
    ) -> TrapRecord:
        """A PerfManager threshold event: one port's counters crossed the
        congestion threshold (xmit-wait growth, discards, or saturation).

        Unlike link-state traps this is SM-internal — no Notice MAD rides
        VL15 and no reroute is queued; the event is recorded so operators
        (and chaos reports) see congestion alongside link state.
        """
        rec = self._record(
            TrapType.CONGESTION, reporter, port, severity=severity
        )
        self.congestion_events.append(rec)
        get_hub().metrics.counter(
            "repro_telemetry_congestion_events_total"
        ).add(1)
        return rec

    # -- legacy synchronous events --------------------------------------------

    def link_down(self, link: Link) -> ConfigureReport:
        """A cable died: both switch ends trap, the SM reroutes once.

        Raises :class:`~repro.errors.TopologyError`, with the cable back
        in place, if the failure would partition the switch fabric.
        """
        ends = [p for p in link.ends if isinstance(p.node, Switch)]
        if not ends:
            raise ReproError("link_down models inter-switch cables only")
        for port in ends:
            self._record(TrapType.LINK_STATE_DOWN, port.node.name, port.num)
        report = self.sm.handle_link_failure(link)
        self.reactions.append(report)
        return report

    def _plug(self, a, port_a: int, b, port_b: int) -> Link:
        """Re-cable two ports (nodes or names) through the SM's kernel."""
        name_a = a if isinstance(a, str) else a.name
        name_b = b if isinstance(b, str) else b.name
        return self.sm._apply(
            TopologyMutation(
                kind="restore_link",
                a=name_a,
                port_a=port_a,
                b=name_b,
                port_b=port_b,
            )
        )

    def link_up(self, a, port_a: int, b, port_b: int) -> ConfigureReport:
        """A cable was (re)connected: traps, then re-sweep and reroute."""
        link = self._plug(a, port_a, b, port_b)
        for port in link.ends:
            if isinstance(port.node, Switch):
                self._record(
                    TrapType.LINK_STATE_UP, port.node.name, port.num
                )
        report = self.sm._converge()
        self.reactions.append(report)
        return report

    # -- hardened deferred pipeline -------------------------------------------

    @staticmethod
    def _link_key(name_a: str, name_b: str) -> Tuple[str, str]:
        return (name_a, name_b) if name_a <= name_b else (name_b, name_a)

    def _notice(self, trap: TrapType, reporter: str, port: int) -> None:
        """Deliver one trap notice to the SM over VL15.

        Notices are unacknowledged: a lost SMP is only counted — the
        reporting port keeps resending until the SM represses the notice,
        so the *event* still lands in the queue either way.
        """
        self._record(trap, reporter, port)
        result = self.sm.transport.send(
            Smp(
                SmpMethod.SET,
                SmpKind.NOTICE,
                self.sm.transport.sm_node.name,
                payload={
                    "trap": trap.value,
                    "reporter": reporter,
                    "port": port,
                },
            )
        )
        if not result.ok:
            self.traps_lost += 1
            get_hub().metrics.counter("repro_traps_lost_total").add(1)

    def _enqueue(self, event: PendingEvent) -> None:
        """Queue one event, coalescing and bounding.

        An opposite-kind event already pending for the same link cancels
        both out (the flap never surfaced to the routing layer); queueing
        past capacity drops the notice and forces a full sweep at the
        next pump.
        """
        metrics = get_hub().metrics
        self._flap_counts[event.key] = self._flap_counts.get(event.key, 0) + 1
        pending = self._queue.get(event.key)
        if pending is not None:
            if pending.kind is event.kind:
                pending.merged += event.merged
                metrics.counter("repro_traps_coalesced_total").add(1)
                self.traps_coalesced += 1
            else:
                # down + up (or up + down) — net no-op, drop both.
                del self._queue[event.key]
                metrics.counter("repro_traps_coalesced_total").add(1)
                self.traps_coalesced += 1
            return
        if len(self._queue) >= self.QUEUE_CAPACITY:
            self.overflows += 1
            self.needs_full_sweep = True
            metrics.counter("repro_trap_queue_overflows_total").add(1)
            return
        self._queue[event.key] = event

    def report_link_down(self, link: Link) -> None:
        """Deferred link failure: the cable dies *now*, the reroute waits.

        The topology change is immediate (packets blackhole until the
        next :meth:`pump`, like on a real fabric); the trap notices ride
        VL15 into the bounded queue. Raises
        :class:`~repro.errors.TopologyError` — with the cable replugged —
        if the cut would partition the switch fabric.
        """
        ends = [p for p in link.ends if isinstance(p.node, Switch)]
        if not ends:
            raise ReproError(
                "report_link_down models inter-switch cables only"
            )
        self.sm._apply(TopologyMutation.cable("remove_link", link))
        for port in ends:
            self._notice(TrapType.LINK_STATE_DOWN, port.node.name, port.num)
        self._enqueue(
            PendingEvent(
                key=self._link_key(link.a.node.name, link.b.node.name),
                kind=TrapType.LINK_STATE_DOWN,
            )
        )

    def report_link_up(self, a, port_a: int, b, port_b: int) -> Link:
        """Deferred link recovery: reconnect *now*, reroute at the pump.

        Returns the new :class:`~repro.fabric.link.Link`. If the same
        link's DOWN event is still pending, the pair coalesces away — the
        flap costs zero reroutes, only the trap traffic.
        """
        link = self._plug(a, port_a, b, port_b)
        for port in link.ends:
            if isinstance(port.node, Switch):
                self._notice(
                    TrapType.LINK_STATE_UP, port.node.name, port.num
                )
        name_a, name_b = link.a.node.name, link.b.node.name
        self._enqueue(
            PendingEvent(
                key=self._link_key(name_a, name_b),
                kind=TrapType.LINK_STATE_UP,
                endpoints=(name_a, port_a, name_b, port_b),
            )
        )
        return link

    def report_topology_change(self, mutation: "TopologyMutation"):
        """Deferred ingestion of a *planned* topology mutation.

        The subnet state changes now (cables plugged/pulled, switches
        registered, LIDs assigned, cache repair events recorded,
        mutation journaled); the reroute waits for the next :meth:`pump`.
        IN_SERVICE/OUT_OF_SERVICE notices (IBA traps 64/65) ride VL15
        into the queue and an add/remove pair for the same element
        coalesces away like a link flap. A change the fabric cannot
        absorb is refused by the SM's kernel: the
        :class:`~repro.errors.TopologyError` propagates with the subnet
        as it was, nothing announced and nothing queued. Returns the
        affected :class:`~repro.fabric.link.Link` or
        :class:`~repro.fabric.node.Switch`.
        """
        result = self.sm.apply_topology_mutation(mutation)
        joined = mutation.kind in ("add_link", "restore_link", "add_switch")
        trap = TrapType.IN_SERVICE if joined else TrapType.OUT_OF_SERVICE
        if mutation.kind in ("add_link", "remove_link", "restore_link"):
            key = self._link_key(mutation.a, mutation.b)
            self._notice(trap, mutation.a, mutation.port_a)
            self._notice(trap, mutation.b, mutation.port_b)
        else:
            # Switch events key on ("", name): link keys always carry two
            # non-empty node names, so the spaces cannot collide.
            key = ("", mutation.a)
            self._notice(trap, mutation.a, 0)
        self._enqueue(PendingEvent(key=key, kind=trap))
        return result

    @property
    def pending_events(self) -> int:
        """Events currently waiting in the trap queue."""
        return len(self._queue)

    def pump(self, *, force: bool = False) -> Optional[ConfigureReport]:
        """Drain the trap queue into (at most) one batched reroute.

        Links that flapped more than ``STORM_THRESHOLD`` times since the
        last pump are throttled: their events stay queued for one extra
        pump (unless ``force``), so a storm settles before the SM pays a
        reroute for it. Returns the reaction report, or ``None`` when
        nothing needed rerouting.
        """
        self.pumps += 1
        ready: List[PendingEvent] = []
        for key in list(self._queue):
            event = self._queue[key]
            flaps = self._flap_counts.get(key, 0)
            if (
                not force
                and flaps > self.STORM_THRESHOLD
                and not event.deferred
            ):
                event.deferred = True
                self.traps_throttled += 1
                get_hub().metrics.counter(
                    "repro_traps_throttled_total"
                ).add(1)
                continue
            ready.append(event)
            del self._queue[key]
        self._flap_counts = {
            key: 0 for key in self._queue
        }  # surviving (throttled) keys restart their storm window
        if not ready and not self.needs_full_sweep:
            return None
        sweep = self.needs_full_sweep
        self.needs_full_sweep = False
        report = self.sm._converge(
            "trap_pump",
            force_full=sweep,
            events=len(ready),
            full_sweep=sweep,
            forced=force,
        )
        self.reactions.append(report)
        get_hub().metrics.counter("repro_trap_pumps_total").add(1)
        return report

    @property
    def reaction_count(self) -> int:
        """How many reconfigurations traps have triggered."""
        return len(self.reactions)
