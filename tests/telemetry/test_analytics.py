"""Analytics: rates, top talkers, congestion detection, traffic matrices."""

import pytest

from repro.core.reconfig import VSwitchReconfigurer
from repro.errors import ReproError
from repro.sm.subnet_manager import SubnetManager
from repro.telemetry import (
    LINK_BANDWIDTH_BYTES,
    CongestionDetector,
    TelemetryHarness,
    TrafficMatrix,
    port_rates,
    top_talkers,
)
from repro.telemetry.store import TimeSeriesStore


def seeded_store():
    """Two ports: 'hot' saturates the link for 1 s, 'cold' trickles."""
    store = TimeSeriesStore()
    for t, factor in ((0.0, 0), (1.0, 1)):
        store.append("hot", 1, "xmit_data", t, int(LINK_BANDWIDTH_BYTES) * factor)
        store.append("hot", 1, "xmit_packets", t, 1000 * factor)
        store.append("hot", 1, "rcv_packets", t, 900 * factor)
        store.append("hot", 1, "rcv_data", t, 500 * factor)
        store.append("hot", 1, "xmit_wait", t, 500_000_000 * factor)  # 0.5 s
        store.append("hot", 1, "xmit_discards", t, 10 * factor)
        store.append("cold", 2, "xmit_data", t, 100 * factor)
        store.append("cold", 2, "xmit_packets", t, 1 * factor)
    return store


class TestPortRates:
    def test_rates_derive_from_swept_deltas(self):
        rates = {(r.node, r.port): r for r in port_rates(seeded_store())}
        hot = rates[("hot", 1)]
        assert hot.utilization == pytest.approx(1.0)
        assert hot.xmit_pps == pytest.approx(1000.0)
        assert hot.wait_fraction == pytest.approx(0.5)
        assert hot.discard_rate == pytest.approx(10.0)
        assert rates[("cold", 2)].utilization < 1e-6

    def test_bandwidth_must_be_positive(self):
        with pytest.raises(ReproError, match="bandwidth"):
            port_rates(seeded_store(), bandwidth=0)

    def test_top_talkers_sorts_by_xmit_rate(self):
        hottest = top_talkers(seeded_store(), top=1)
        assert [(r.node, r.port) for r in hottest] == [("hot", 1)]
        both = top_talkers(seeded_store(), top=10)
        assert len(both) == 2

    def test_top_must_be_at_least_one(self):
        with pytest.raises(ReproError, match="top"):
            top_talkers(seeded_store(), top=0)


@pytest.fixture
def swept(small_fattree):
    """A routed fat-tree with one baseline PerfManager sweep taken."""
    sm = SubnetManager(small_fattree.topology, built=small_fattree)
    sm.initial_configure(with_discovery=False)
    harness = TelemetryHarness(sm, max_endpoints=10, channel_credits=4)
    harness.sweep()
    return harness


class TestOnASweptFabric:
    def test_top_talkers_are_the_hottest_links(self, swept):
        swept.burst()
        swept.sweep()
        rates = port_rates(swept.store)
        hot = top_talkers(swept.store, top=len(rates))
        assert [r.xmit_bps for r in hot] == sorted(
            (r.xmit_bps for r in rates), reverse=True
        )
        assert hot[0].xmit_bps > 0
        assert len(top_talkers(swept.store, top=3)) == 3

    def test_an_invalidated_lid_shows_discards(self, swept):
        topo = swept.sm.topology
        victim = topo.hcas[-1].lid
        VSwitchReconfigurer(swept.sm).invalidate_lid(victim)
        swept.burst([(topo.hcas[0].lid, victim)])
        swept.sweep()
        spots = [r for r in port_rates(swept.store) if r.discard_rate > 0]
        assert spots
        assert all(
            swept.perf.total(r.node, r.port, "xmit_discards") >= 1
            for r in spots
        )


class _EventSink:
    def __init__(self):
        self.calls = []

    def report_congestion(self, node, port, *, severity=0.0):
        self.calls.append((node, port, severity))


class TestCongestionDetector:
    def test_wait_growth_flags_and_raises_event(self):
        sink = _EventSink()
        detector = CongestionDetector(sink)
        findings = detector.scan(seeded_store())
        assert [(f.node, f.port) for f in findings] == [("hot", 1)]
        assert findings[0].wait_seconds == pytest.approx(0.5)
        assert findings[0].discards == 10
        assert sink.calls and sink.calls[0][0] == "hot"
        assert detector.congestion_seconds == pytest.approx(0.5)

    def test_detection_is_delta_based(self):
        store = seeded_store()
        # Utilization disabled: only wait/discard *growth* can flag.
        detector = CongestionDetector(utilization_threshold=10.0)
        assert detector.scan(store)
        # No counter growth since the last scan: nothing new to flag.
        assert detector.scan(store) == []
        assert len(detector.findings) == 1

    def test_utilization_threshold_alone_can_flag(self):
        store = TimeSeriesStore()
        store.append("sw", 3, "xmit_data", 0.0, 0)
        store.append(
            "sw", 3, "xmit_data", 1.0, int(LINK_BANDWIDTH_BYTES * 0.95)
        )
        detector = CongestionDetector(
            wait_seconds_threshold=1e9,  # unreachable
            discard_threshold=10**9,
            utilization_threshold=0.9,
        )
        findings = detector.scan(store)
        assert [(f.node, f.port) for f in findings] == [("sw", 3)]

    def test_negative_thresholds_rejected(self):
        with pytest.raises(ReproError):
            CongestionDetector(wait_seconds_threshold=-1.0)


class TestTrafficMatrix:
    def test_total_and_row_sums_track_delivered_flows(self):
        matrix = TrafficMatrix.from_flows({(1, 2): 3, (2, 1): 4})
        matrix.add({(1, 2): 1, (1, 3): 2})
        assert matrix.total == 10
        assert matrix.row_sum(1) == 6
        assert matrix.row_sum(2) == 4
        assert matrix.endpoints == [1, 2, 3]
        assert sum(matrix.row_sum(lid) for lid in matrix.endpoints) == (
            matrix.total
        )

    def test_rows_align_with_endpoints(self):
        matrix = TrafficMatrix({(1, 2): 5, (2, 1): 7})
        assert matrix.rows() == [[0, 5], [7, 0]]

    def test_aggregate_folds_lids_into_owners(self):
        matrix = TrafficMatrix({(1, 2): 5, (2, 1): 7, (1, 9): 1})
        owners = {1: "vm-a", 2: "vm-b"}
        agg = matrix.aggregate(owners)
        assert agg[("vm-a", "vm-b")] == 5
        assert agg[("vm-b", "vm-a")] == 7
        assert agg[("vm-a", "unassigned")] == 1
        assert sum(agg.values()) == matrix.total

    def test_to_json_is_the_planner_shape(self):
        matrix = TrafficMatrix({(1, 2): 5})
        dump = matrix.to_json()
        assert dump == {
            "endpoints": [1, 2],
            "rows": [[0, 5], [0, 0]],
            "row_sums": [5, 0],
            "total": 5,
        }
