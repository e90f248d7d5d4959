"""Analytics over swept counters: utilization, hot spots, traffic matrices.

Everything here consumes the :class:`~repro.telemetry.store.TimeSeriesStore`
(i.e. only what the PerfManager actually measured through MADs) or the
data plane's delivered-flow counts — never the simulator's internals — so
the numbers carry the same partial, sweep-delayed view a real fabric
monitor has.

The traffic-matrix shape is what the ROADMAP's traffic-aware migration
planning consumes: per-endpoint (LID) delivered-packet counts, foldable
to per-VM or per-tenant matrices via an owner map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.errors import ReproError

__all__ = [
    "LINK_BANDWIDTH_BYTES",
    "PortRate",
    "port_rates",
    "top_talkers",
    "CongestionFinding",
    "CongestionDetector",
    "TrafficMatrix",
    "lid_owner_map",
    "lid_tenant_map",
]

#: Effective data bandwidth of one link, bytes per second. FDR 4x — the
#: 56 Gb/s generation of the paper's testbed — moves ~54.5 Gb/s of data
#: after 64/66 encoding.
LINK_BANDWIDTH_BYTES = 6.8e9


@dataclass(frozen=True)
class PortRate:
    """Windowed rates of one port, derived from swept counters."""

    node: str
    port: int
    xmit_pps: float
    rcv_pps: float
    xmit_bps: float  # bytes / sim second
    rcv_bps: float
    #: Fraction of the window the head of queue spent credit-blocked
    #: (xmit-wait ticks are nanoseconds, so ticks/s / 1e9 is a fraction).
    wait_fraction: float
    discard_rate: float
    #: xmit_bps over the link bandwidth.
    utilization: float


def port_rates(
    store,
    *,
    window: Optional[float] = None,
    bandwidth: float = LINK_BANDWIDTH_BYTES,
) -> List[PortRate]:
    """Per-port rates over the trailing *window*, sorted by (node, port)."""
    if bandwidth <= 0:
        raise ReproError("link bandwidth must be positive")
    out: List[PortRate] = []
    for node, port in store.endpoints():
        xmit_bps = store.rate(node, port, "xmit_data", window=window)
        out.append(
            PortRate(
                node=node,
                port=port,
                xmit_pps=store.rate(node, port, "xmit_packets", window=window),
                rcv_pps=store.rate(node, port, "rcv_packets", window=window),
                xmit_bps=xmit_bps,
                rcv_bps=store.rate(node, port, "rcv_data", window=window),
                wait_fraction=(
                    store.rate(node, port, "xmit_wait", window=window) / 1e9
                ),
                discard_rate=store.rate(
                    node, port, "xmit_discards", window=window
                ),
                utilization=xmit_bps / bandwidth,
            )
        )
    return out


def top_talkers(
    store,
    *,
    top: int = 5,
    window: Optional[float] = None,
    bandwidth: float = LINK_BANDWIDTH_BYTES,
) -> List[PortRate]:
    """The *top* hottest egress ports by transmit byte rate."""
    if top < 1:
        raise ReproError("top must be >= 1")
    rates = port_rates(store, window=window, bandwidth=bandwidth)
    rates.sort(key=lambda r: (-r.xmit_bps, r.node, r.port))
    return rates[:top]


@dataclass(frozen=True)
class CongestionFinding:
    """One port flagged by the congestion detector."""

    time: float
    node: str
    port: int
    #: xmit-wait seconds accumulated since the previous scan.
    wait_seconds: float
    #: Discards accumulated since the previous scan.
    discards: int
    utilization: float


class CongestionDetector:
    """Flags ports whose swept counters crossed congestion thresholds.

    Detection is *delta-based*: a port is flagged when, since the last
    scan, its cumulative xmit-wait grew by at least ``wait_seconds_threshold``
    or its discards grew by at least ``discard_threshold`` — or when its
    windowed utilization reaches ``utilization_threshold``. Flagged ports
    raise a CONGESTION threshold event into the attached
    :class:`~repro.sm.traps.FabricEventManager` (when one is attached),
    and their wait growth accumulates into ``congestion_seconds``.
    """

    def __init__(
        self,
        events=None,
        *,
        wait_seconds_threshold: float = 1e-6,
        discard_threshold: int = 1,
        utilization_threshold: float = 0.9,
        bandwidth: float = LINK_BANDWIDTH_BYTES,
    ) -> None:
        if wait_seconds_threshold < 0 or discard_threshold < 0:
            raise ReproError("congestion thresholds must be non-negative")
        self.events = events
        self.wait_seconds_threshold = wait_seconds_threshold
        self.discard_threshold = discard_threshold
        self.utilization_threshold = utilization_threshold
        self.bandwidth = bandwidth
        self.findings: List[CongestionFinding] = []
        #: Total xmit-wait seconds attributed to flagged ports.
        self.congestion_seconds = 0.0
        self._seen: Dict[Tuple[str, int], Tuple[int, int]] = {}

    def scan(self, store, *, window: Optional[float] = None) -> List[
        CongestionFinding
    ]:
        """Scan the store; returns (and records) this round's findings."""
        new: List[CongestionFinding] = []
        for node, port in store.endpoints():
            latest = store.counters_at(node, port)
            wait_ticks = latest.get("xmit_wait", 0)
            discards = latest.get("xmit_discards", 0)
            prev_wait, prev_disc = self._seen.get((node, port), (0, 0))
            self._seen[(node, port)] = (wait_ticks, discards)
            wait_growth = (wait_ticks - prev_wait) / 1e9
            discard_growth = discards - prev_disc
            utilization = (
                store.rate(node, port, "xmit_data", window=window)
                / self.bandwidth
            )
            if not (
                wait_growth >= self.wait_seconds_threshold
                or discard_growth >= self.discard_threshold
                or utilization >= self.utilization_threshold
            ):
                continue
            sample = store.latest(node, port, "xmit_wait") or store.latest(
                node, port, "xmit_packets"
            )
            finding = CongestionFinding(
                time=sample[0] if sample else 0.0,
                node=node,
                port=port,
                wait_seconds=wait_growth,
                discards=discard_growth,
                utilization=utilization,
            )
            new.append(finding)
            self.congestion_seconds += max(wait_growth, 0.0)
            if self.events is not None:
                self.events.report_congestion(
                    node, port, severity=wait_growth
                )
        self.findings.extend(new)
        return new


class TrafficMatrix:
    """Measured delivered-packet counts per (source, destination) endpoint.

    Built from :attr:`repro.sim.dataplane.DataPlaneStats.flows` (delivered
    packets only), so ``total`` always equals the delivered-packet total
    of the runs that fed it — the auditability property the acceptance
    gate checks.
    """

    def __init__(
        self, counts: Optional[Mapping[Tuple[int, int], int]] = None
    ) -> None:
        self.counts: Dict[Tuple[int, int], int] = dict(counts or {})

    @classmethod
    def from_flows(cls, flows: Mapping[Tuple[int, int], int]) -> "TrafficMatrix":
        """Matrix over one run's delivered flows."""
        return cls(flows)

    def add(self, flows: Mapping[Tuple[int, int], int]) -> None:
        """Fold another run's delivered flows into the matrix."""
        for pair in sorted(flows):
            self.counts[pair] = self.counts.get(pair, 0) + flows[pair]

    @property
    def endpoints(self) -> List[int]:
        """All LIDs appearing as source or destination, sorted."""
        out = set()
        for src, dst in self.counts:
            out.add(src)
            out.add(dst)
        return sorted(out)

    @property
    def total(self) -> int:
        """Total delivered packets in the matrix."""
        return sum(self.counts.values())

    def row_sum(self, src_lid: int) -> int:
        """Delivered packets originated by one endpoint."""
        # An integer sum is the same in any order: no sort per call.
        return sum(
            n for (s, _d), n in self.counts.items() if s == src_lid  # noqa: DET005
        )

    def rows(self) -> List[List[int]]:
        """Dense matrix aligned with :attr:`endpoints` (row = source)."""
        eps = self.endpoints
        return [
            [self.counts.get((s, d), 0) for d in eps] for s in eps
        ]

    def aggregate(
        self,
        owner_of: Mapping[int, str],
        *,
        default: str = "unassigned",
    ) -> Dict[Tuple[str, str], int]:
        """Fold endpoint LIDs into owner groups (VMs, tenants, ...)."""
        out: Dict[Tuple[str, str], int] = {}
        for (src, dst) in sorted(self.counts):
            key = (owner_of.get(src, default), owner_of.get(dst, default))
            out[key] = out.get(key, 0) + self.counts[(src, dst)]
        return out

    def to_json(self) -> Dict[str, object]:
        """The export shape the migration planner consumes."""
        return {
            "endpoints": self.endpoints,
            "rows": self.rows(),
            "row_sums": [self.row_sum(lid) for lid in self.endpoints],
            "total": self.total,
        }


def lid_owner_map(cloud) -> Dict[int, str]:
    """LID -> VM name for every placed VM in a cloud (per-VM matrices)."""
    out: Dict[int, str] = {}
    for name in sorted(cloud.vms):
        lid = cloud.vms[name].lid
        if lid is not None:
            out[lid] = name
    return out


def lid_tenant_map(cloud) -> Dict[int, str]:
    """LID -> hypervisor name (the tenant grouping chaos reports use)."""
    out: Dict[int, str] = {}
    for name in sorted(cloud.vms):
        vm = cloud.vms[name]
        if vm.lid is not None and vm.hypervisor_name is not None:
            out[vm.lid] = vm.hypervisor_name
    return out
