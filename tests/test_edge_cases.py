"""Edge-case coverage for branches the mainline flows never hit."""

import numpy as np
import pytest

from repro.constants import LFT_UNSET
from repro.errors import (
    RoutingError,
    SimulationError,
    TopologyError,
    UnreachableLidError,
)
from repro.fabric.presets import scaled_fattree
from repro.fabric.topology import Topology
from repro.mad.smp import Smp, SmpKind, SmpMethod
from repro.mad.transport import SmpTransport
from repro.sm.lft_distribution import LftDistributor
from repro.sm.routing.base import RoutingRequest
from repro.sm.subnet_manager import SubnetManager
from tests.oracles.delivery import trace_path


class TestTransportEdges:
    def test_sm_on_switch_zero_base_hop(self):
        topo = Topology("t")
        s0 = topo.add_switch("s0", 4)
        s1 = topo.add_switch("s1", 4)
        h = topo.add_hca("h")
        topo.connect(s0, 1, s1, 1)
        topo.connect(s1, 2, h, 1)
        tr = SmpTransport(topo, sm_node=s0)
        assert tr.hops_to(s0) == 0
        assert tr.hops_to(s1) == 1
        assert tr.hops_to(h) == 2

    def test_unreachable_switch_rejected(self):
        topo = Topology("t")
        s0 = topo.add_switch("s0", 4)
        s1 = topo.add_switch("s1", 4)  # island
        topo.add_hca("h")
        topo.connect(s0, 1, "h", 1)
        tr = SmpTransport(topo)
        with pytest.raises(TopologyError):
            tr.hops_to(s1)

    def test_uncabled_sm_host_rejected(self):
        topo = Topology("t")
        topo.add_switch("s0", 4)
        topo.add_hca("h")  # no cable
        tr = SmpTransport(topo)
        with pytest.raises(TopologyError):
            tr.hops_to(topo.node("s0"))

    def test_no_hca_for_default_sm(self):
        topo = Topology("t")
        topo.add_switch("s0", 4)
        tr = SmpTransport(topo)
        with pytest.raises(TopologyError):
            _ = tr.sm_node

    def test_distance_cache_invalidation(self, small_fattree):
        topo = small_fattree.topology
        tr = SmpTransport(topo)
        before = tr.hops_to(topo.switches[5])
        # Cut a cable the cached BFS used; without invalidation the stale
        # distances would persist.
        link = next(
            l
            for l in topo.links
            if l.a.node.is_switch and l.b.node.is_switch
        )
        link.disconnect()
        topo.invalidate_fabric_view()
        tr.invalidate_distances()
        after = tr.hops_to(topo.switches[5])
        assert after >= before


class TestTracePathEdges:
    @pytest.fixture
    def routed(self, small_fattree):
        sm = SubnetManager(small_fattree.topology, built=small_fattree)
        sm.initial_configure(with_discovery=False)
        req = RoutingRequest.from_topology(
            small_fattree.topology, built=small_fattree
        )
        return sm, req

    def test_unprogrammed_raises_unreachable(self, routed):
        sm, req = routed
        with pytest.raises(UnreachableLidError):
            trace_path(sm.current_tables, req, 0, 40000)

    def test_wrong_endpoint_detected(self, routed):
        sm, req = routed
        t0, t1 = req.terminals[0], req.terminals[1]
        tables = sm.current_tables
        # Misprogram LID t0 to exit at t1's port on t1's leaf.
        tables.ports[:, t0.lid] = tables.ports[:, t1.lid]
        with pytest.raises(RoutingError):
            trace_path(tables, req, t1.switch_index, t0.lid)

    def test_loop_detected(self, routed):
        sm, req = routed
        tables = sm.current_tables
        lid = req.terminals[0].lid
        view = req.view
        # Point two switches at each other.
        a = 0
        b, port_ab = next(iter(view.neighbors(a)))
        port_ba = next(p for nb, p in view.neighbors(b) if nb == a)
        tables.ports[a, lid] = port_ab
        tables.ports[b, lid] = port_ba
        with pytest.raises(RoutingError, match="loop"):
            trace_path(tables, req, a, lid)

    def test_dangling_port_detected(self, routed):
        sm, req = routed
        tables = sm.current_tables
        lid = req.terminals[0].lid
        tables.ports[0, lid] = 33  # nothing cabled there
        with pytest.raises(RoutingError, match="leads nowhere"):
            trace_path(tables, req, 0, lid)


class TestDistributorEdges:
    def test_stale_entries_above_new_top_lid(self, small_fattree):
        sm = SubnetManager(small_fattree.topology, built=small_fattree)
        sm.initial_configure(with_discovery=False)
        # Plant a stale entry far above the routed LID range.
        sw = small_fattree.topology.switches[0]
        small_fattree.topology.set_lft(sw.index, 5000, 3)
        dist = LftDistributor(small_fattree.topology, sm.transport)
        report = dist.distribute(sm.current_tables)
        # The distributor must clear the stale block, not ignore it.
        assert sw.route(5000) == LFT_UNSET
        assert report.smps_sent >= 1


class TestEngineGuards:
    def test_engine_running_twice_rejected(self):
        from repro.sim.engine import SimulationEngine

        eng = SimulationEngine()

        def nested():
            with pytest.raises(SimulationError):
                eng.run()

        eng.schedule(1.0, nested)
        eng.run()

    def test_request_requires_lids(self, small_fattree):
        with pytest.raises(RoutingError):
            RoutingRequest.from_topology(small_fattree.topology)
