"""The PerfManager: periodic PMA counter sweeps over the MAD transport.

Mirrors OpenSM's perfmgr: every sweep sends one ``SubnGet(PortCounters)``
MAD per node through the *costed* transport, so sweep traffic shows up in
:class:`~repro.mad.transport.TransportStats`, advances the sim clock,
competes with control traffic for the fault injector's attention, and is
retried by the :class:`~repro.mad.reliable.ReliableSmpSender` when the
subnet manager has resilience enabled (the manager uses ``sm.smp_sender``,
picking up whatever retry policy the SM runs with).

Wire reads are 32-bit and wrap (:data:`~repro.fabric.node.PMA_COUNTER_WRAP`);
the manager reconstructs monotonic totals by accumulating modular deltas
between consecutive sweeps, and stores them in a bounded
:class:`~repro.telemetry.store.TimeSeriesStore` keyed (node, port, counter).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import ReproError, SmpTimeoutError, UnreachableTargetError
from repro.fabric.node import PMA_COUNTER_WRAP, Node
from repro.mad.smp import Smp, SmpKind, SmpMethod
from repro.obs.hub import get_hub, span
from repro.telemetry.store import SeriesKey, TimeSeriesStore

__all__ = ["SweepReport", "PerfManager"]

#: Default sweep period on the sim clock (100 us of fabric time).
DEFAULT_SWEEP_PERIOD = 100e-6


@dataclass
class SweepReport:
    """Outcome of one counter sweep."""

    index: int
    time: float
    nodes_swept: int = 0
    ports_seen: int = 0
    samples: int = 0
    #: MADs this sweep put on the wire (including retransmissions).
    smps: int = 0
    retransmissions: int = 0
    #: Nodes whose GET never answered (timeout after retries / unreachable).
    missed: List[str] = field(default_factory=list)


class PerfManager:
    """Sweeps PMA counters into a time-series store, MAD by MAD."""

    def __init__(
        self,
        sm,
        *,
        store: Optional[TimeSeriesStore] = None,
        period: float = DEFAULT_SWEEP_PERIOD,
        include_hcas: bool = True,
        sender=None,
    ) -> None:
        if period <= 0:
            raise ReproError("sweep period must be positive")
        self.sm = sm
        self.store = store if store is not None else TimeSeriesStore()
        self.period = period
        self.include_hcas = include_hcas
        self._sender = sender
        #: Per series ``[last raw (wrapped) wire reading or None,
        #: reconstructed monotonic total, the store's ring]``.
        self._series: Dict[SeriesKey, List[Any]] = {}
        self.reports: List[SweepReport] = []
        self._last_sweep_time: Optional[float] = None

    @property
    def sender(self):
        """The MAD sender: an explicit override, else the SM's current one
        (the reliable sender once ``enable_resilience()`` has run)."""
        if self._sender is not None:
            return self._sender
        return getattr(self.sm, "smp_sender", self.sm.transport)

    def _targets(self) -> List[Node]:
        topo = self.sm.topology
        nodes: List[Node] = list(topo.switches)
        if self.include_hcas:
            nodes.extend(topo.hcas)
        return nodes

    # -- sweeping ------------------------------------------------------------

    def sweep(self) -> SweepReport:
        """One full sweep: GET PortCounters from every node, store deltas."""
        hub = get_hub()
        stats = self.sm.transport.stats
        smps_before = stats.total_smps
        rtx_before = stats.retransmissions
        report = SweepReport(index=len(self.reports) + 1, time=hub.now())
        with span("perf_sweep", index=report.index):
            for node in self._targets():
                data = self._get_counters(node, report)
                if data is None:
                    continue
                report.nodes_swept += 1
                self._ingest(node.name, data["ports"], float(hub.now()), report)
        report.smps = stats.total_smps - smps_before
        report.retransmissions = stats.retransmissions - rtx_before
        self.reports.append(report)
        self._last_sweep_time = report.time
        metrics = hub.metrics
        metrics.counter("repro_telemetry_sweeps_total").add(1)
        metrics.counter("repro_telemetry_sweep_smps_total").add(report.smps)
        metrics.counter("repro_telemetry_sweep_misses_total").add(
            len(report.missed)
        )
        metrics.counter("repro_telemetry_samples_total").add(report.samples)
        metrics.gauge("repro_telemetry_series").set(len(self.store))
        return report

    def _get_counters(self, node: Node, report: SweepReport):
        """Send one PortCounters GET; None (and a miss) on any failure."""
        smp = Smp(SmpMethod.GET, SmpKind.PORT_COUNTERS, node.name)
        try:
            result = self.sender.send(smp)
        except (SmpTimeoutError, UnreachableTargetError):
            report.missed.append(node.name)
            return None
        if not result.ok or result.data is None:
            report.missed.append(node.name)
            return None
        return result.data

    def _ingest(
        self, node: str, ports: Dict[int, Dict[str, int]], now: float,
        report: SweepReport,
    ) -> None:
        """Fold one node's wrapped wire readings into the monotonic series."""
        series, store = self._series, self.store
        capacity = store.capacity
        samples = evicted = 0
        for pnum in sorted(ports):
            report.ports_seen += 1
            for cname, raw in ports[pnum].items():
                key = (node, pnum, cname)
                record = series.get(key)
                if record is None:
                    record = series[key] = [None, 0, store.ring(key)]
                prev = record[0]
                # A first observation (or the first after a reset) is
                # assumed not to have wrapped before the manager saw it.
                delta = raw if prev is None else (raw - prev) % PMA_COUNTER_WRAP
                record[0] = raw
                total = record[1] = record[1] + delta
                ring = record[2]
                if len(ring) == capacity:
                    evicted += 1
                ring.append((now, total))
                samples += 1
        store.samples_total += samples
        store.evictions += evicted
        report.samples += samples

    def total(self, node: str, port: int, counter: str) -> int:
        """Reconstructed monotonic total for one series (0 if never swept)."""
        record = self._series.get((node, int(port), counter))
        return record[1] if record is not None else 0

    @property
    def sweeps(self) -> int:
        """Sweeps completed so far."""
        return len(self.reports)

    @property
    def smps(self) -> int:
        """MADs all sweeps ever put on the wire (retransmissions included)."""
        return sum(r.smps for r in self.reports)

    @property
    def misses(self) -> int:
        """Node GETs that never answered, across all sweeps."""
        return sum(len(r.missed) for r in self.reports)

    # -- scheduling ----------------------------------------------------------

    def maybe_sweep(self) -> Optional[SweepReport]:
        """Sweep iff at least one period elapsed on the hub's sim clock."""
        now = get_hub().now()
        if (
            self._last_sweep_time is not None
            and now - self._last_sweep_time < self.period
        ):
            return None
        return self.sweep()

    def attach(self, engine, *, until: float) -> int:
        """Schedule periodic sweeps on a simulation engine's clock.

        Registers one sweep per period up to *until* (relative to the
        engine's current time) and returns how many were scheduled — a
        bounded, deterministic alternative to self-rescheduling forever.
        """
        if until <= 0:
            raise ReproError("attach needs a positive horizon")
        count = int(until / self.period)
        for i in range(1, count + 1):
            engine.schedule(i * self.period, self.sweep)
        return count

    # -- counter management ---------------------------------------------------

    def reset_counters(self) -> int:
        """SET PortCounters(reset) on every target, through the costed path.

        Returns the number of nodes that acknowledged the reset. The raw
        wire baselines are cleared so the next sweep re-seeds them; a node
        whose reset MAD was lost re-reports its full history once (the
        monotonic total double-counts it — exactly the ambiguity a real
        perfmgr faces when a reset is unacknowledged).
        """
        acked = 0
        for node in self._targets():
            smp = Smp(
                SmpMethod.SET,
                SmpKind.PORT_COUNTERS,
                node.name,
                payload={"reset": True},
            )
            try:
                result = self.sender.send(smp)
            except (SmpTimeoutError, UnreachableTargetError):
                continue
            if result.ok:
                acked += 1
        for record in self._series.values():
            record[0] = None
        return acked
