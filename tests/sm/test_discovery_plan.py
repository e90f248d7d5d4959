"""``discover_subnet`` — one ``SmpPlan`` per sweep through one ``deliver`` —
against the one-``send``-per-packet walker it replaced.

The two must be indistinguishable (:func:`tests.oracles.observe.observed`:
stats, both clocks bit for bit, the flight ring, span events and their cap, metric series and the order they
were created in, PMA counters) on the preset fat-trees, on random regular
graphs and after chains of live topology mutations, with and without a
fault injector and a retransmitting sender — and sweep after sweep on one
transport, whose routes outlive the mutations and HCA recabling between
them, against the walker on a transport that keeps no route.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import SmpTimeoutError, TopologyError, UnreachableTargetError
from repro.fabric.builders import build_ring
from repro.fabric.builders.generic import build_random_regular, build_single_switch
from repro.fabric.graph import bfs_distances
from repro.fabric.presets import scaled_fattree
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.mad.reliable import ReliableSmpSender, RetryPolicy
from repro.mad.smp import make_set_lft_block
from repro.mad.transport import SmpTransport
from repro.obs import get_hub
from repro.sm.discovery import discover_subnet
from repro.sm.subnet_manager import SubnetManager
from tests.mad.test_transport import (
    FLIGHT_CAPACITY, SPAN_CAP, KeepsNothing, line_topology, play,
)
from tests.oracles.discovery import discover_per_node
from tests.sm.test_mutation_properties import free_switch_ports, plan_op

FABRICS = {
    "2l-small": lambda seed: scaled_fattree("2l-small"),
    "2l-wide": lambda seed: scaled_fattree("2l-wide"),
    "3l-small": lambda seed: scaled_fattree("3l-small"),
    "ring": lambda seed: build_ring(3 + seed % 4, 1 + seed % 2),
    "single": lambda seed: build_single_switch(2 + seed % 5),
    "random": lambda seed: build_random_regular(8, 3, 2, seed=seed),
}
FENCE = 2


def mutate(sm, ops):
    """Apply the viable ones of *ops* (``(code, pick)`` as in the mutation
    property suite), each followed by the SM's own reconvergence."""
    removed, grown = [], []
    for code, pick in ops:
        mutation = plan_op(sm, code, pick, removed, grown, link_ops_only=False)
        if mutation is None:
            continue
        try:
            sm.handle_topology_change(mutation, verify=False)
        except TopologyError:
            continue  # refused: nothing changed
        if mutation.kind == "remove_link":
            removed.append(mutation)


def build_sm(fabric, seed, *, ops=(), sm_pick=None, faults=None):
    """A configured subnet manager whose transport is ready to sweep."""
    built = FABRICS[fabric](seed)
    topo = built.topology
    sm = SubnetManager(topo, engine="minhop", built=built)
    sm.initial_configure(with_discovery=False)
    mutate(sm, ops)
    # Set-up left wall-clock gauges (PCt) behind; from here on every series
    # is the sweep's own, created in the sweep's order.
    get_hub().metrics.reset()
    tr = sm.transport
    # Raise the fence, so a sender of generation 0 discovers as a stale master.
    sw = topo.switches[0]
    fence = make_set_lft_block(sw.name, 0, topo.lft_blocks([sw.index], [0])[0])
    fence.generation = FENCE
    tr.send(fence)
    if sm_pick is not None:
        nodes = list(topo.switches) + list(topo.hcas)
        tr.set_sm_node(nodes[sm_pick % len(nodes)])
    if faults is not None:
        tr.set_fault_injector(FaultInjector(faults))
    return sm


def build_world(fabric, seed, **options):
    sm = build_sm(fabric, seed, **options)
    return sm.topology, sm.transport


def both_ways(world, sender_of, monkeypatch, caps=(FLIGHT_CAPACITY, SPAN_CAP)):
    """The world after ``discover_subnet`` — asserted equal to the world
    after the oracle — with the report and what was raised."""
    swept, walked = [
        play(world, lambda topo, tr: discover(topo, sender_of(tr)), monkeypatch, caps=caps)
        for discover in (discover_subnet, discover_per_node)
    ]
    assert swept == walked
    return swept


case = dict(
    fabric=st.sampled_from(["2l-small", "2l-wide", "random", "ring", "single"]),
    seed=st.integers(0, 10_000),
    ops=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 63)), max_size=4),
    sm_pick=st.none() | st.integers(0, 10**6),
    caps=st.sampled_from([(FLIGHT_CAPACITY, SPAN_CAP), (65_536, 10_000)]),
)
suite = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)


#: The step code beyond the mutation suite's five: an HCA cable moved.
RECABLE_HCA = 5


def step(sm, tr, code, pick, removed, grown):
    """Between two sweeps on one transport: a planned mutation (an op code
    of the mutation property suite) or, for :data:`RECABLE_HCA`, an HCA
    moved to another switch, which leaves the topology version alone."""
    topo = sm.topology
    if code == RECABLE_HCA:
        hcas = [hca for hca in topo.hcas if hca is not tr.sm_node]
        frees = free_switch_ports(topo)
        if hcas and frees:
            hca, (sw, num) = hcas[pick % len(hcas)], frees[pick % len(frees)]
            topo.remove_link(hca.port(1).link)
            topo.connect(hca, 1, sw, num)
        return
    mutation = plan_op(sm, code, pick, removed, grown, link_ops_only=False)
    if mutation is None:
        return
    try:
        sm.apply_topology_mutation(mutation)
    except TopologyError:
        return  # refused: nothing changed
    if mutation.kind == "remove_link":
        removed.append(mutation)


class TestDiscoveryEqualsThePerNodeWalker:
    @suite
    @given(
        **case,
        between=st.lists(
            st.tuples(st.integers(0, RECABLE_HCA), st.integers(0, 63)), max_size=3
        ),
    )
    def test_lossless(self, monkeypatch, fabric, seed, ops, sm_pick, caps, between):
        """Sweeps on one transport — kept routes — with mutations and HCA
        recabling between them, against the walker on a transport that
        keeps no route."""
        sizes, sms = [], []

        def world():
            sms.append(build_sm(fabric, seed, ops=ops, sm_pick=sm_pick))
            topo = sms[-1].topology
            sizes.append((topo.num_switches + topo.num_hcas, len(topo.links)))
            return topo, sms[-1].transport

        def oracle_world():
            topo, tr = world()
            tr._routes = (KeepsNothing(), KeepsNothing())
            return topo, tr

        def sweeps(discover):
            def act(topo, tr):
                reports = [discover(topo, tr)]
                sm, removed, grown = sms[-1], [], []
                for code, pick in between:
                    step(sm, tr, code, pick, removed, grown)
                    reports.append(discover(topo, tr))
                return reports

            return act

        swept = play(world, sweeps(discover_subnet), monkeypatch, caps=caps)
        walked = play(oracle_world, sweeps(discover_per_node), monkeypatch, caps=caps)
        assert swept == walked
        state, reports, raised = swept
        assert raised is None
        # One NodeInfo per node and one PortInfo per cable end.
        nodes, cables = sizes[0]
        assert (reports[0].num_nodes, reports[0].smps_sent) == (nodes, nodes + 2 * cables)
        assert state["spans"][0]["smps"] == (sum(r.smps_sent for r in reports), 0)
        assert state["flight"][1] == state["stats"]["total_smps"]

    @suite
    @given(
        **case,
        drop=st.sampled_from([0.0, 0.05, 0.3]),
        delay=st.sampled_from([0.0, 0.3]),
        reliable=st.booleans(),
        generation=st.sampled_from([None, 0, 4]),
    )
    def test_lossy(
        self, monkeypatch, fabric, seed, ops, sm_pick, caps, drop, delay,
        reliable, generation,
    ):
        injectors = []

        def world():
            faults = FaultPlan(
                seed=seed, smp_drop_rate=drop, smp_delay_rate=delay,
                smp_delay_seconds=2e-6,
            )
            topo, tr = build_world(
                fabric, seed, ops=ops, sm_pick=sm_pick, faults=faults
            )
            injectors.append(tr.fault_injector)
            return topo, tr

        def sender_of(tr):
            if not reliable:
                return tr
            return ReliableSmpSender(
                tr, RetryPolicy(retries=2), generation=generation
            )

        state, report, raised = both_ways(world, sender_of, monkeypatch, caps)
        assert injectors[0].counts == injectors[1].counts
        assert raised is None or raised[0] is SmpTimeoutError
        if reliable and raised is None:
            assert state["stats"]["retransmissions"] == state["stats"]["timeouts"]

    @pytest.mark.parametrize("reliable", [False, True])
    @pytest.mark.parametrize("generation", [None, 0, 4])
    def test_a_fenced_sender_discovers_like_any_other(
        self, monkeypatch, reliable, generation
    ):
        """GETs are not fenced: a stale master's sweep is delivered whole
        (packet by packet), a current one's is booked, and neither moves
        the fence."""
        def sender_of(tr):
            if reliable:
                return ReliableSmpSender(tr, generation=generation)
            return tr

        state, report, raised = both_ways(
            lambda: build_world("2l-small", 0), sender_of, monkeypatch
        )
        assert raised is None
        assert state["generation"] == FENCE
        assert state["stats"]["stale_rejected"] == 0

    @pytest.mark.parametrize("fabric", ["2l-small", "2l-wide", "3l-small"])
    def test_every_small_preset_with_nothing_capped(self, monkeypatch, fabric):
        state, report, raised = both_ways(
            lambda: build_world(fabric, 0), lambda tr: tr, monkeypatch,
            caps=(65_536, 10_000),
        )
        assert raised is None
        assert state["spans"][0]["events_dropped"] == 0
        assert len(state["spans"][0]["events"]) == report.smps_sent


class Dangling:
    """A cable whose other end is nowhere."""

    def other_end(self, port):
        return None


class StaleDistances:
    """A shared distance cache that has lost one switch."""

    def __init__(self, topo, lost):
        self.topo, self.lost = topo, lost

    def row(self, root):
        dist = bfs_distances(self.topo.fabric_view(), root).copy()
        dist[self.lost.index] = -1
        return dist


class TestErrorPaths:
    """A sweep that dies books exactly the nodes before the bad one."""

    @staticmethod
    def ring_world(spoil):
        def world():
            built = build_ring(5, 1, switch_radix=4)
            tr = SmpTransport(built.topology)
            spoil(built.topology, tr)
            return built.topology, tr

        return world

    def test_a_port_with_no_far_end_stops_the_walk(self, monkeypatch):
        bad = []

        def spoil(topo, tr):
            tr.hops_to(topo.switches[0])  # distances cached: only the walk trips
            bad.append(next(topo.switches[2].free_ports()))
            bad[-1].link = Dangling()

        state, _, raised = both_ways(
            self.ring_world(spoil), lambda tr: tr, monkeypatch, caps=(4096, 4096)
        )
        kind, message = raised
        assert kind is TopologyError and "no far end" in message
        events, seen, _ = state["flight"]
        assert bad[0].node.name not in {e.target for e in events}
        assert 0 < state["stats"]["total_smps"] == len(events) == seen

    def test_an_unreachable_node_stops_the_sweep_where_it_stands(self, monkeypatch):
        lost = []

        def spoil(topo, tr):
            lost.append(topo.switches[3])
            tr.set_distance_source(StaleDistances(topo, lost[-1]))

        state, _, raised = both_ways(
            self.ring_world(spoil), lambda tr: tr, monkeypatch, caps=(4096, 4096)
        )
        assert raised[0] is UnreachableTargetError
        events, seen, _ = state["flight"]
        assert lost[0].name not in {e.target for e in events}
        assert 0 < state["stats"]["total_smps"] == len(events) == seen
        assert not state["pma"][lost[0].name]
        # A whole sweep is one GET per node and one per cable end.
        assert seen < (5 + 5) + 2 * (5 + 5)

    def test_discovery_is_priced_from_scalar_marks(self):
        topo = line_topology()
        tr = SmpTransport(topo)
        # A snapshot is a copy of scalars: there are no tallies to copy.
        assert all(
            type(value) in (int, float) for value in vars(tr.stats.snapshot()).values()
        )
        report = discover_subnet(topo, tr)
        assert (report.smps_sent, report.serial_time) == (
            tr.stats.total_smps, tr.stats.serial_time
        )
        assert report.smps_sent == 5 + 2 * 4


class TestNoFarEndIsTyped:
    """The fabric's own walks type the condition discovery types."""

    def test_attached_hcas_and_the_fabric_view(self):
        topo = line_topology()
        bad = next(topo.node("s1").free_ports())
        bad.link = Dangling()
        with pytest.raises(TopologyError, match="port 3 of 's1'.*no far end"):
            topo.node("s1").attached_hcas()
        with pytest.raises(TopologyError, match="no far end"):
            topo.fabric_view()
        with pytest.raises(TopologyError, match="no far end"):
            topo.remove_switch("s1")
