"""TelemetryHarness end-to-end and the issue's chaos acceptance scenario."""

import pytest

from repro.errors import ReproError
from repro.fabric.presets import scaled_fattree
from repro.faults.plan import FaultPlan
from repro.telemetry import TelemetryHarness
from repro.workloads.chaos import ChaosRunner
from tests.conftest import make_cloud


@pytest.fixture
def cloud(small_fattree):
    return make_cloud(small_fattree)


class TestHarness:
    def test_burst_sweep_and_matrix_audit(self, cloud):
        harness = TelemetryHarness(cloud.sm, max_endpoints=8)
        stats = harness.burst()
        assert stats.delivered > 0
        sweep = harness.sweep()
        assert sweep.samples > 0
        # Row sums reproduce delivered-packet totals exactly.
        assert harness.verify_matrix()
        assert harness.matrix.total == harness.delivered
        # Swept HCA counters observed the burst's delivered packets.
        rcv = sum(
            harness.perf.total(h.name, 1, "rcv_packets")
            for h in cloud.topology.hcas
        )
        assert rcv >= stats.delivered

    def test_endpoints_default_to_first_hca_lids(self, cloud):
        harness = TelemetryHarness(cloud.sm, max_endpoints=4)
        eps = harness.endpoints()
        assert len(eps) == 4
        assert eps == sorted(eps)
        harness.set_endpoints(eps[:2])
        assert harness.endpoints() == eps[:2]

    def test_needs_two_endpoints(self, cloud):
        with pytest.raises(ReproError):
            TelemetryHarness(cloud.sm, max_endpoints=1)

    def test_bursts_advance_the_hub_clock(self, cloud):
        from repro.obs import get_hub

        harness = TelemetryHarness(cloud.sm, max_endpoints=4)
        t0 = get_hub().now()
        harness.burst()
        assert get_hub().now() > t0


class TestChaosAcceptance:
    """The issue's acceptance scenario: a chaos run with link-flap faults.

    Must report nonzero xmit-wait AND discard counters on the flapped
    link's ports, get a congestion threshold event into the
    FabricEventManager, show the PerfManager's sweep MADs in
    TransportStats, and export a traffic matrix whose row sums match the
    data plane's delivered totals exactly.
    """

    @pytest.fixture(scope="class")
    def run(self):
        cloud = make_cloud(scaled_fattree("2l-small"))
        plan = FaultPlan(seed=1, smp_drop_rate=0.01, link_flap_rate=0.5)
        runner = ChaosRunner(
            cloud,
            plan,
            telemetry=True,
            telemetry_interval=4,
            telemetry_endpoints=36,
        )
        report = runner.run(10)
        return runner, report

    def test_run_survives_and_flaps_happened(self, run):
        runner, report = run
        assert report.ok
        assert report.link_flaps > 0
        assert report.telemetry.bursts > 0

    def test_flapped_ports_recorded_wait_and_discards(self, run):
        runner, report = run
        tel = report.telemetry
        assert tel.flapped_port_discards > 0
        assert tel.flapped_port_wait_seconds > 0
        # The flapped ports' own counters carry the evidence.
        flagged = 0
        for name, port in set(runner._flapped_ports):
            pc = runner.sm.topology.node(name).port_counters(port)
            if pc.unroutable_discards and pc.xmit_wait:
                flagged += 1
        assert flagged > 0

    def test_congestion_event_reached_fabric_event_manager(self, run):
        runner, report = run
        assert len(runner.events.congestion_events) > 0
        assert report.telemetry.congestion_events == len(
            runner.events.congestion_events
        )
        record = runner.events.congestion_events[0]
        assert record.severity >= 0

    def test_sweep_mads_visible_in_transport_stats(self, run):
        runner, report = run
        tel = report.telemetry
        assert tel.sweeps > 0
        # One PortCounters GET per swept node, each a transport SMP.
        assert runner.sm.transport.stats.total_smps >= tel.sweep_smps >= tel.sweeps

    def test_traffic_matrix_audits_against_data_plane(self, run):
        runner, report = run
        tel = report.telemetry
        assert tel.matrix_consistent
        matrix = runner.harness.matrix
        assert matrix.total == runner.harness.delivered == (
            tel.packets_delivered
        )
        assert sum(
            matrix.row_sum(lid) for lid in matrix.endpoints
        ) == runner.harness.delivered

    def test_report_renders_telemetry_rows(self, run):
        _, report = run
        text = report.render()
        assert "telemetry:" in text
        assert "flap windows" in text
        assert "row sums consistent" in text

    def test_telemetry_off_keeps_report_silent(self):
        cloud = make_cloud(scaled_fattree("2l-small"))
        runner = ChaosRunner(cloud, FaultPlan(seed=1))
        report = runner.run(2)
        assert report.telemetry is None
        assert "telemetry:" not in report.render()
