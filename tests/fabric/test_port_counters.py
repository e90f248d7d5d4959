"""Tests for the PMA port counters a data-plane run books."""

import pytest

from repro.errors import TopologyError
from repro.fabric.node import PortCounters, Switch
from repro.sim.dataplane import DataPlaneSimulator
from repro.sm.subnet_manager import SubnetManager
from repro.workloads.traffic import all_to_all_flows


@pytest.fixture
def loaded_subnet(small_fattree):
    sm = SubnetManager(small_fattree.topology, built=small_fattree)
    sm.initial_configure(with_discovery=False)
    topo = small_fattree.topology
    sim = DataPlaneSimulator(topo, channel_credits=4)
    lids = [h.lid for h in topo.hcas[:10]]
    sim.inject_flows(all_to_all_flows(lids), spacing=1e-7)
    sim.run()
    return sm, sim


class TestPortCounters:
    def test_counters_increment_on_traffic(self, loaded_subnet):
        sm, sim = loaded_subnet
        total_xmit = sum(
            c.xmit_packets
            for sw in sm.topology.switches
            for c in sw.counters.values()
        )
        assert total_xmit > 0

    def test_xmit_equals_rcv_fabric_wide(self, loaded_subnet):
        # Every transit transmit is someone's receive. Port 0 is the
        # management endpoint where MAD traffic *terminates* (the SM's
        # LFT writes land there as receives with no matching switch
        # transmit), so only external ports are conserved.
        sm, _ = loaded_subnet
        xmit = sum(
            c.xmit_packets
            for sw in sm.topology.switches
            for num, c in sw.counters.items()
            if num >= 1
        )
        rcv = sum(
            c.rcv_packets
            for sw in sm.topology.switches
            for num, c in sw.counters.items()
            if num >= 1
        )
        assert xmit == rcv

    def test_no_discards_on_clean_run(self, loaded_subnet):
        sm, _ = loaded_subnet
        discards = sum(
            c.xmit_discards
            for sw in sm.topology.switches
            for c in sw.counters.values()
        )
        assert discards == 0

    def test_bad_port_rejected(self):
        sw = Switch("s", 4)
        with pytest.raises(TopologyError):
            sw.port_counters(9)

    def test_reset(self):
        c = PortCounters()
        c.xmit_packets = 5
        c.hoq_discards = 2
        c.add_wait(1e-6)
        c.reset()
        assert all(v == 0 for v in c.as_dict().values())
        assert set(c.as_dict()) == set(PortCounters.FIELDS)

    def test_xmit_discards_sums_causes(self):
        c = PortCounters()
        c.hoq_discards = 3
        c.unroutable_discards = 4
        assert c.xmit_discards == 7
        assert c.as_dict()["xmit_discards"] == 7

    def test_pma_view_wraps_at_32_bits(self):
        c = PortCounters()
        c.xmit_packets = 2**32 + 5
        c.rcv_data = 2**33 + 7
        view = c.pma_view()
        assert view["xmit_packets"] == 5
        assert view["rcv_data"] == 7
        # The live field keeps the unwrapped total.
        assert c.xmit_packets == 2**32 + 5

    def test_add_wait_accumulates_nanosecond_ticks(self):
        c = PortCounters()
        c.add_wait(1.5e-6)
        c.add_wait(0.5e-6)
        c.add_wait(-1.0)  # ignored: waits are non-negative
        assert c.xmit_wait == 2000
