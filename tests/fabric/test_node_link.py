"""Tests for nodes, ports, QPs and links."""

import pytest

from repro.constants import LFT_UNSET
from repro.errors import TopologyError
from repro.fabric.link import Link
from repro.fabric.node import HCA, NodeType, QueuePair, Switch
from repro.fabric.topology import Topology


class TestQueuePair:
    def test_management_qps(self):
        assert QueuePair(0, owner="x").is_management
        assert QueuePair(1, owner="x").is_management
        assert not QueuePair(2, owner="x").is_management

    def test_negative_qpn_rejected(self):
        with pytest.raises(TopologyError):
            QueuePair(-1, owner="x")

    def test_smi_flag(self):
        assert QueuePair(0, owner="x", smi_allowed=False).smi_allowed is False


class TestSwitch:
    def test_ports_are_one_based(self):
        sw = Switch("sw", 4)
        assert sw.num_ports == 4
        assert sw.port(1).num == 1
        assert sw.port(4).num == 4

    def test_port_counters_created_once_and_validated(self):
        sw, hca = Switch("sw", 4), HCA("h")
        assert sw.port_counters(0) is sw.port_counters(0)
        assert sorted(sw.counters) == [0]
        for node, port in ((sw, 5), (sw, -1), (hca, 0), (hca, 2)):
            with pytest.raises(TopologyError):
                node.port_counters(port)
            assert port not in node.counters

    def test_bad_port_raises(self):
        sw = Switch("sw", 4)
        with pytest.raises(TopologyError):
            sw.port(0)
        with pytest.raises(TopologyError):
            sw.port(5)

    def test_lid_lives_on_management_port(self):
        sw = Switch("sw", 4)
        sw.lid = 42
        assert sw.management_port.lid == 42
        assert sw.lid == 42

    def test_route_uses_lft(self):
        topo = Topology()
        sw = topo.add_switch("sw", 4)
        topo.set_lft(sw.index, 9, 3)
        assert sw.route(9) == 3
        assert Switch("detached", 4).route(9) == LFT_UNSET

    def test_is_switch(self):
        assert Switch("sw", 2).is_switch
        assert not HCA("h").is_switch

    def test_node_type(self):
        assert Switch("sw", 2).node_type is NodeType.SWITCH
        assert HCA("h").node_type is NodeType.CA


class TestHCA:
    def test_default_single_port(self):
        h = HCA("h")
        assert h.num_ports == 1

    def test_owns_management_qps(self):
        h = HCA("h")
        assert h.qp0.qpn == 0 and h.qp0.smi_allowed
        assert h.qp1.qpn == 1

    def test_create_qp_numbers_increase(self):
        h = HCA("h")
        q1, q2 = h.create_qp(), h.create_qp()
        assert q2.qpn == q1.qpn + 1
        assert q1.qpn >= 2  # QP0/QP1 reserved

    def test_lid_property(self):
        h = HCA("h")
        h.lid = 17
        assert h.port(1).lid == 17

    def test_uplink_switch_none_when_unplugged(self):
        assert HCA("h").uplink_switch() is None


class TestLink:
    def test_connects_both_ends(self):
        sw, h = Switch("sw", 4), HCA("h")
        link = Link(sw.port(1), h.port(1))
        assert sw.port(1).remote is h.port(1)
        assert h.port(1).remote is sw.port(1)
        assert h.uplink_switch() is sw

    def test_double_cabling_rejected(self):
        sw, h, h2 = Switch("sw", 4), HCA("h"), HCA("h2")
        Link(sw.port(1), h.port(1))
        with pytest.raises(TopologyError):
            Link(sw.port(1), h2.port(1))

    def test_loopback_rejected(self):
        sw = Switch("sw", 4)
        with pytest.raises(TopologyError):
            Link(sw.port(1), sw.port(2))

    def test_self_port_rejected(self):
        sw = Switch("sw", 4)
        with pytest.raises(TopologyError):
            Link(sw.port(1), sw.port(1))

    def test_negative_latency_rejected(self):
        sw, h = Switch("sw", 4), HCA("h")
        with pytest.raises(TopologyError):
            Link(sw.port(1), h.port(1), latency=-1.0)

    def test_other_end(self):
        sw, h = Switch("sw", 4), HCA("h")
        link = Link(sw.port(1), h.port(1))
        assert link.other_end(sw.port(1)) is h.port(1)
        with pytest.raises(TopologyError):
            link.other_end(sw.port(2))

    def test_disconnect(self):
        sw, h = Switch("sw", 4), HCA("h")
        link = Link(sw.port(1), h.port(1))
        link.disconnect()
        assert not sw.port(1).is_connected
        assert not h.port(1).is_connected

    def test_connected_and_free_ports(self):
        sw, h = Switch("sw", 4), HCA("h")
        Link(sw.port(2), h.port(1))
        assert [p.num for p in sw.connected_ports()] == [2]
        assert [p.num for p in sw.free_ports()] == [1, 3, 4]


class TestLeafDetection:
    def test_switch_with_hca_is_leaf(self):
        sw, h = Switch("sw", 4), HCA("h")
        Link(sw.port(1), h.port(1))
        assert sw.is_leaf
        assert sw.attached_hcas() == [h]

    def test_switch_without_hca_is_not_leaf(self):
        a, b = Switch("a", 4), Switch("b", 4)
        Link(a.port(1), b.port(1))
        assert not a.is_leaf
