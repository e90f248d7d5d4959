"""Tests for the subnet topology graph and the LID binding registry."""

import pytest

from repro.errors import TopologyError
from repro.fabric.topology import Topology


def tiny():
    """Two switches, two HCAs: h0 - s0 - s1 - h1."""
    topo = Topology("tiny")
    s0 = topo.add_switch("s0", 4)
    s1 = topo.add_switch("s1", 4)
    h0 = topo.add_hca("h0")
    h1 = topo.add_hca("h1")
    topo.connect(s0, 1, h0, 1)
    topo.connect(s1, 1, h1, 1)
    topo.connect(s0, 2, s1, 2)
    return topo, s0, s1, h0, h1


class TestConstruction:
    def test_counts(self):
        topo, *_ = tiny()
        assert topo.num_switches == 2
        assert topo.num_hcas == 2
        assert len(topo.links) == 3

    def test_duplicate_name_rejected(self):
        topo = Topology()
        topo.add_switch("x", 2)
        with pytest.raises(TopologyError):
            topo.add_hca("x")

    def test_node_lookup(self):
        topo, s0, *_ = tiny()
        assert topo.node("s0") is s0
        assert "s0" in topo
        assert "nope" not in topo
        with pytest.raises(TopologyError):
            topo.node("nope")

    def test_dense_switch_indices(self):
        topo, s0, s1, *_ = tiny()
        assert s0.index == 0 and s1.index == 1
        assert topo.switch_by_index(1) is s1
        with pytest.raises(TopologyError):
            topo.switch_by_index(5)

    def test_connect_by_name(self):
        topo = Topology()
        topo.add_switch("a", 2)
        topo.add_switch("b", 2)
        topo.connect("a", 1, "b", 1)
        assert topo.node("a").port(1).remote.node.name == "b"

    def test_auto_connect_uses_free_ports(self):
        topo = Topology()
        a = topo.add_switch("a", 2)
        b = topo.add_switch("b", 2)
        topo.auto_connect(a, b)
        topo.auto_connect(a, b)
        with pytest.raises(TopologyError):
            topo.auto_connect(a, b)

    def test_leaf_switches(self):
        topo, s0, s1, *_ = tiny()
        assert set(sw.name for sw in topo.leaf_switches()) == {"s0", "s1"}


class TestLidRegistry:
    def test_bind_and_lookup(self):
        topo, s0, s1, h0, h1 = tiny()
        topo.bind_lid(5, h0.port(1))
        assert topo.port_of_lid(5) is h0.port(1)
        assert topo.num_lids == 1

    def test_multiple_lids_one_port(self):
        # The vSwitch case: PF + VF LIDs all behind one physical port.
        topo, s0, s1, h0, h1 = tiny()
        topo.bind_lid(5, h0.port(1))
        topo.bind_lid(6, h0.port(1))
        topo.bind_lid(7, h0.port(1))
        assert topo.bound_lids() == [5, 6, 7]

    def test_double_bind_rejected(self):
        topo, s0, s1, h0, h1 = tiny()
        topo.bind_lid(5, h0.port(1))
        with pytest.raises(TopologyError):
            topo.bind_lid(5, h1.port(1))

    def test_rebind_moves_lid(self):
        topo, s0, s1, h0, h1 = tiny()
        topo.bind_lid(5, h0.port(1))
        topo.rebind_lid(5, h1.port(1))
        assert topo.port_of_lid(5) is h1.port(1)

    def test_rebind_unknown_rejected(self):
        topo, *_ = tiny()
        with pytest.raises(TopologyError):
            topo.rebind_lid(9, topo.node("h0").port(1))

    def test_unbind(self):
        topo, s0, s1, h0, h1 = tiny()
        topo.bind_lid(5, h0.port(1))
        topo.unbind_lid(5)
        assert topo.port_of_lid(5) is None
        with pytest.raises(TopologyError):
            topo.unbind_lid(5)


class TestViews:
    def test_fabric_view_symmetric(self):
        topo, *_ = tiny()
        view = topo.fabric_view()
        assert view.num_switches == 2
        assert view.degree(0) == 1 and view.degree(1) == 1
        assert list(view.neighbors(0)) == [(1, 2)]
        assert list(view.neighbors(1)) == [(0, 2)]

    def test_fabric_view_in_ports_match(self):
        topo, *_ = tiny()
        view = topo.fabric_view()
        # s0 port 2 <-> s1 port 2.
        assert view.in_port[0] == 2

    def test_view_cached_and_invalidated(self):
        topo, *_ = tiny()
        v1 = topo.fabric_view()
        assert topo.fabric_view() is v1
        topo.add_switch("s2", 4)
        assert topo.fabric_view() is not v1

    def test_terminals(self):
        topo, s0, s1, h0, h1 = tiny()
        topo.bind_lid(1, s0.management_port)
        topo.bind_lid(3, h0.port(1))
        topo.bind_lid(4, h1.port(1))
        lid_switch, lid_port = topo.terminals()
        assert lid_switch.tolist() == [-1, 0, -1, 0, 1]
        assert lid_port.tolist() == [-1, 0, -1, 1, 1]
        assert topo.switch_lids().tolist() == [1]

    def test_terminal_on_unattached_port_rejected(self):
        topo = Topology()
        h = topo.add_hca("h")
        topo.bind_lid(3, h.port(1))
        with pytest.raises(TopologyError):
            topo.terminals()


class TestValidation:
    def test_valid_topology_passes(self):
        topo, *_ = tiny()
        topo.validate()

    def test_an_unplugged_hca_fails_whether_or_not_it_holds_lids(self):
        topo, s0, s1, h0, h1 = tiny()
        for lid, port in enumerate((s0.management_port, s1.management_port, h0.port(1)), 1):
            topo.bind_lid(lid, port)
        topo.validate()  # h1 holds no LID
        topo.bind_lid(4, h1.port(1))
        topo.validate()
        topo.remove_link(h1.port(1).link)
        with pytest.raises(TopologyError, match="'h1' has no cable"):
            topo.validate()

    def test_an_hca_cable_pulled_out_of_band_fails(self):
        """A raw ``Link.disconnect()`` bypasses the topology's methods;
        the table and the uncabled HCAs must still hear of it."""
        topo, s0, s1, h0, h1 = tiny()
        topo.bind_lid(1, s0.management_port)
        topo.bind_lid(2, s1.management_port)
        topo.bind_lid(3, h0.port(1))
        h0.port(1).link.disconnect()
        assert topo.attachment(3) == (-1, -1)
        with pytest.raises(TopologyError, match="LID 3 bound to unplugged"):
            topo.terminals()
        with pytest.raises(TopologyError, match="'h0' has no cable"):
            topo.validate()
        topo.connect(h0, 1, s0, 1)
        assert topo.attachment(3) == (0, 1)
        topo.validate()

    def test_a_two_port_hca_with_one_live_cable_still_strands_the_lids_of_the_other(self):
        topo = Topology()
        s = topo.add_switch("s", 4)
        h = topo.add_hca("h", num_ports=2)
        topo.connect(h, 1, s, 1)
        topo.connect(h, 2, s, 2)
        topo.bind_lid(1, s.management_port)
        topo.bind_lid(2, h.port(2))
        topo.validate()
        h.port(2).link.disconnect()
        with pytest.raises(TopologyError, match="LID 2 bound to unplugged"):
            topo.validate()

    def test_dangling_hca_fails(self):
        topo = Topology()
        topo.add_switch("s", 2)
        topo.add_hca("h")
        with pytest.raises(TopologyError):
            topo.validate()

    def test_disconnected_switches_fail(self):
        topo = Topology()
        a = topo.add_switch("a", 2)
        b = topo.add_switch("b", 2)
        topo.add_switch("c", 2)
        topo.connect(a, 1, b, 1)
        with pytest.raises(TopologyError):
            topo.validate()
