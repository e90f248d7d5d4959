"""Tests for SMP transport: hop counting, latency, accounting, application."""

import ast
import copy
import inspect
import json
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.constants import LFT_BLOCK_SIZE
from repro.errors import (
    ReproError,
    SmpTimeoutError,
    StaleGenerationError,
    TopologyError,
    UnreachableTargetError,
)
from repro.fabric.builders import build_ring, build_two_level_fattree
from repro.fabric.graph import bfs_distances
from repro.fabric.node import Node, NodeType
from repro.fabric.presets import scaled_fattree
from repro.fabric.topology import Topology, TopologyMutation
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, ScriptedFault
from repro.mad.reliable import ReliableSmpSender, RetryPolicy
from repro.mad.smp import (
    Smp, SmpKind, SmpMethod, SmpPlan, make_set_lft_block,
)
import repro.mad.transport as transport_module
from repro.mad.transport import SmpTransport, TransportStats
from repro.obs import get_hub, reset_hub, span
from repro.sm.discovery import discover_subnet
from repro.sm.subnet_manager import SubnetManager
from repro.telemetry.perf import PerfManager
from tests.oracles.observe import observed
from tests.sm.test_mutation_properties import (
    ADD_SWITCH, REMOVE_LINK, REMOVE_SWITCH, RESTORE_LINK, free_switch_ports, plan_op,
    removal_keeps_connected, switch_links,
)


def line_topology():
    """h0 - s0 - s1 - s2 - h2 (SM on h0)."""
    topo = Topology("line")
    s0, s1, s2 = (topo.add_switch(f"s{i}", 4) for i in range(3))
    h0, h2 = topo.add_hca("h0"), topo.add_hca("h2")
    topo.connect(h0, 1, s0, 1)
    topo.connect(s0, 2, s1, 1)
    topo.connect(s1, 2, s2, 1)
    topo.connect(s2, 2, h2, 1)
    return topo


class TestHops:
    def test_hops_to_switches(self):
        topo = line_topology()
        tr = SmpTransport(topo)
        assert tr.hops_to(topo.node("s0")) == 1
        assert tr.hops_to(topo.node("s1")) == 2
        assert tr.hops_to(topo.node("s2")) == 3

    def test_hops_to_remote_hca(self):
        topo = line_topology()
        tr = SmpTransport(topo)
        assert tr.hops_to(topo.node("h2")) == 4

    def test_hops_to_self(self):
        topo = line_topology()
        tr = SmpTransport(topo)
        assert tr.hops_to(topo.node("h0")) == 0

    def test_sm_defaults_to_first_hca(self):
        topo = line_topology()
        tr = SmpTransport(topo)
        assert tr.sm_node.name == "h0"

    def test_move_sm_changes_distances(self):
        topo = line_topology()
        tr = SmpTransport(topo)
        tr.set_sm_node(topo.node("h2"))
        assert tr.hops_to(topo.node("s2")) == 1
        assert tr.hops_to(topo.node("s0")) == 3


class TestLatencyModel:
    def test_directed_adds_r_per_hop(self):
        # Section VI-A's cost model per packet: k per hop, plus the
        # directed-routing surcharge r per hop.
        topo = line_topology()
        tr = SmpTransport(topo, hop_latency=1.0, dr_overhead=0.5)
        for name in ("s0", "s1", "s2", "h2"):
            for directed in (True, False):
                res = tr.send(
                    Smp(SmpMethod.GET, SmpKind.NODE_INFO, name,
                        directed=directed)
                )
                assert res.latency == res.hops * (1.0 + directed * 0.5)

    def test_closer_switch_cheaper(self):
        # Section VI-A footnote 4.
        topo = line_topology()
        tr = SmpTransport(topo)
        near = tr.send(Smp(SmpMethod.GET, SmpKind.NODE_INFO, "s0"))
        far = tr.send(Smp(SmpMethod.GET, SmpKind.NODE_INFO, "s2"))
        assert far.latency > near.latency


class TestAccounting:
    def test_counters(self):
        topo = line_topology()
        tr = SmpTransport(topo)
        tr.send(Smp(SmpMethod.GET, SmpKind.NODE_INFO, "s0"))
        tr.send(make_set_lft_block("s1", 0, np.zeros(LFT_BLOCK_SIZE)))
        assert tr.stats.total_smps == 2
        assert tr.stats.lft_update_smps == 1
        flight = get_hub().flight
        assert flight.by_kind() == {"node_info": 1, "lft_block": 1}
        assert [e.target for e in flight] == ["s0", "s1"]

    def test_directed_vs_destination_counts(self):
        topo = line_topology()
        tr = SmpTransport(topo)
        tr.send(Smp(SmpMethod.GET, SmpKind.NODE_INFO, "s0"))
        tr.send(Smp(SmpMethod.GET, SmpKind.NODE_INFO, "s0", directed=False))
        assert tr.stats.directed_smps == 1
        assert tr.stats.destination_routed_smps == 1

    def test_snapshot_delta(self):
        topo = line_topology()
        tr = SmpTransport(topo)
        tr.send(Smp(SmpMethod.GET, SmpKind.NODE_INFO, "s2"))
        before = tr.stats.snapshot()
        assert tr.stats.delta_since(before) == TransportStats()
        tr.send(make_set_lft_block("s1", 0, np.zeros(LFT_BLOCK_SIZE)))
        tr.send(Smp(SmpMethod.GET, SmpKind.NODE_INFO, "s0", directed=False))
        tr.charge_wait(1e-3)
        delta = tr.stats.delta_since(before)
        assert (delta.total_smps, delta.lft_update_smps) == (2, 1)
        assert (delta.directed_smps, delta.destination_routed_smps) == (1, 1)
        assert delta.total_hops == 2 + 1
        assert delta.retry_wait_seconds == 1e-3
        assert delta.serial_time == tr.stats.serial_time - before.serial_time
        # The window's slowest packet is not kept: the overall maximum (the
        # 3-hop NodeInfo before the window) capped by the window's serial sum.
        assert delta.max_latency == min(tr.stats.max_latency, delta.serial_time)
        assert delta.pipelined_time(2) <= delta.serial_time

    def test_mean_k(self):
        topo = line_topology()
        tr = SmpTransport(topo, hop_latency=1.0, dr_overhead=0.0)
        tr.send(Smp(SmpMethod.GET, SmpKind.NODE_INFO, "s0"))  # 1 hop
        tr.send(Smp(SmpMethod.GET, SmpKind.NODE_INFO, "s2"))  # 3 hops
        assert tr.stats.mean_k() == pytest.approx(2.0)

    def test_mean_k_excludes_retry_waits(self):
        """``k`` is a traversal time: on a lossy, retried run it is the
        mean latency of the SMPs the flight ring saw, not of the serial
        time, which also holds the waits before each retransmission."""
        built = scaled_fattree("2l-small")
        tr = SmpTransport(built.topology)
        tr.set_fault_injector(FaultInjector(FaultPlan(seed=3, smp_drop_rate=0.2)))
        discover_subnet(built.topology, ReliableSmpSender(tr, RetryPolicy(retries=6)))
        flight = get_hub().flight
        assert flight.dropped == 0 and tr.stats.retry_wait_seconds > 0
        latencies = [e.latency for e in flight]
        assert len(latencies) == tr.stats.total_smps
        assert tr.stats.mean_k() == pytest.approx(sum(latencies) / len(latencies))

    def test_pipelined_time_bounds(self):
        topo = line_topology()
        tr = SmpTransport(topo, hop_latency=1.0, dr_overhead=0.0)
        for _ in range(4):
            tr.send(Smp(SmpMethod.GET, SmpKind.NODE_INFO, "s1"))  # 2.0 each
        serial = tr.stats.serial_time
        assert tr.stats.pipelined_time(1) == pytest.approx(serial)
        assert tr.stats.pipelined_time(4) == pytest.approx(serial / 4)
        # Never below the slowest single packet.
        assert tr.stats.pipelined_time(100) == pytest.approx(2.0)

    def test_pipeline_window_validation(self):
        topo = line_topology()
        tr = SmpTransport(topo)
        with pytest.raises(TopologyError):
            tr.stats.pipelined_time(0)


class TestSampleRecording:
    def test_samples_off_by_default(self):
        """The stats keep no per-SMP samples; the flight ring keeps every
        SMP's latency."""
        topo = line_topology()
        tr = SmpTransport(topo)
        for _ in range(3):
            tr.send(Smp(SmpMethod.GET, SmpKind.NODE_INFO, "s1"))
        assert not hasattr(tr.stats, "latencies")
        assert tr.stats.total_smps == 3
        assert tr.stats.max_latency > 0
        assert [e.latency for e in get_hub().flight] == [tr.stats.max_latency] * 3

    def test_pipelined_floor_without_samples(self):
        topo = line_topology()
        tr = SmpTransport(topo, hop_latency=1.0, dr_overhead=0.0)
        for _ in range(4):
            tr.send(Smp(SmpMethod.GET, SmpKind.NODE_INFO, "s1"))  # 2.0 each
        # max_latency keeps the never-below-the-slowest-packet floor exact
        # without per-SMP samples.
        assert tr.stats.pipelined_time(100) == pytest.approx(2.0)


class TestApplication:
    def test_set_lft_programs_switch(self):
        topo = line_topology()
        tr = SmpTransport(topo)
        entries = np.full(LFT_BLOCK_SIZE, 3, dtype=np.int16)
        tr.send(make_set_lft_block("s1", 0, entries))
        assert topo.node("s1").route(10) == 3

    def test_get_lft_reads_back(self):
        topo = line_topology()
        tr = SmpTransport(topo)
        topo.set_lft(topo.node("s0").index, 5, 2)
        res = tr.send(
            Smp(SmpMethod.GET, SmpKind.LFT_BLOCK, "s0", payload={"block": 0})
        )
        assert res.data["entries"][5] == 2

    def test_plan_row_with_an_out_of_range_block_is_refused_unbooked(self):
        topo = line_topology()
        tr = SmpTransport(topo)
        entries = np.full((2, LFT_BLOCK_SIZE), 3, dtype=np.int16)
        with pytest.raises(TopologyError, match="outside"):
            tr.deliver(
                SmpPlan.lft_sweep(["s0", "s1"], [0, 768], entries, directed=True)
            )
        # The row before it landed and was booked; its own did neither.
        assert topo.node("s0").route(10) == 3
        assert tr.stats.lft_update_smps == 1
        assert topo.lft.shape[1] == LFT_BLOCK_SIZE

    def test_lft_smp_to_hca_rejected(self):
        topo = line_topology()
        tr = SmpTransport(topo)
        with pytest.raises(TopologyError):
            tr.send(make_set_lft_block("h2", 0, np.zeros(LFT_BLOCK_SIZE)))

    def test_set_port_lid(self):
        topo = line_topology()
        tr = SmpTransport(topo)
        tr.send(
            Smp(
                SmpMethod.SET,
                SmpKind.PORT_INFO,
                "h2",
                payload={"port": 1, "lid": 77},
            )
        )
        assert topo.node("h2").port(1).lid == 77

    def test_get_node_info(self):
        topo = line_topology()
        tr = SmpTransport(topo)
        res = tr.send(Smp(SmpMethod.GET, SmpKind.NODE_INFO, "s1"))
        assert res.data["node_type"] == "switch"
        assert res.data["num_ports"] == 4

    def test_vguid_payload_carried_back(self):
        topo = line_topology()
        tr = SmpTransport(topo)
        res = tr.send(
            Smp(
                SmpMethod.SET,
                SmpKind.VGUID,
                "h2",
                payload={"vf": 1, "vguid": 0xBEEF},
            )
        )
        assert res.data == {"vf": 1, "vguid": 0xBEEF}

    def test_a_pma_get_reply_counts_its_own_packet(self):
        topo = line_topology()
        tr = SmpTransport(topo)
        for target, port in (("s1", 0), ("h0", 1)):  # h0 hosts the SM
            res = tr.send(Smp(SmpMethod.GET, SmpKind.PORT_COUNTERS, target))
            assert res.data["ports"][port]["rcv_packets"] == 1
        # The SM host's endpoint had sent both GETs when it answered.
        assert res.data["ports"][1]["xmit_packets"] == 2


# -- runs: one delivery path, bit-identical to packet-by-packet -------------

FLIGHT_CAPACITY = 8
SPAN_CAP = 5
FENCE = 2


def build_world(fabric, size, *, lids):
    """A fresh fabric + transport (+ LIDs so destination routing is checked)."""
    if fabric == "ring":
        built = build_ring(size, 1)
    else:
        built = build_two_level_fattree(
            size, 2, 2, switch_radix=size + 4
        )
    sm = SubnetManager(built.topology, engine="minhop", built=built)
    if lids:
        sm.assign_lids()
    # Raise the fence to FENCE on every switch's behalf, so generation-0
    # runs are stale and generation-4 runs are current.
    fence = make_set_lft_block(
        built.topology.switches[0].name, 0, np.ones(LFT_BLOCK_SIZE)
    )
    fence.generation = FENCE
    sm.transport.send(fence)
    return built.topology, sm.transport


def send_each(sender, plan):
    """The packets of *plan*, one ``send`` each: what ``deliver`` promises
    to be equivalent to."""
    for smp in plan.packets():
        sender.send(smp)


def play(world, act, monkeypatch, *, caps=(FLIGHT_CAPACITY, SPAN_CAP)):
    """Run *act(topo, tr)* in a fresh world under one span; return what it
    left behind, what it returned, and what it raised. *caps* bounds the
    flight ring and the events of a span."""
    monkeypatch.setattr("repro.obs.spans.MAX_EVENTS_PER_SPAN", caps[1])
    reset_hub(flight_capacity=caps[0])
    topo, tr = world()
    raised = None
    out = None
    with span("op") as sp:
        try:
            out = act(topo, tr)
        except ReproError as exc:
            raised = (type(exc), str(exc))
    return observed(topo, tr, sp), out, raised


RUN_LENGTHS = st.sampled_from([0, 1, 2, 5, FLIGHT_CAPACITY + 3, 2 * FLIGHT_CAPACITY + 1])

run_case = dict(
    fabric=st.sampled_from(["ring", "fattree"]),
    size=st.integers(min_value=3, max_value=5),
    lids=st.booleans(),
    pick=st.integers(min_value=0, max_value=10**6),
    n=RUN_LENGTHS,
    directed=st.booleans(),
    generation=st.sampled_from([None, 0, 4]),
    seed=st.integers(min_value=0, max_value=10**6),
)
run_settings = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)


def run_rows(topo, pick, n, seed):
    """:func:`plan_of` rows of one to three packets of assorted kinds, *n*
    in all, every one to the same node: a switch for an even *pick*, an
    HCA (no LFT rows) for an odd one."""
    rng = random.Random(seed)
    if pick % 2:
        at, kinds = len(topo.switches) + pick % len(topo.hcas), [NODE, PORT]
    else:
        at, kinds = pick % len(topo.switches), [NODE, PORT, LFT]
    rows = []
    while n:
        count = min(n, rng.randint(1, 3))
        rows.append((at, rng.choice(kinds), count))
        n -= count
    return rows


class TestRunEquivalence:
    """A run — consecutive packets to one node — delivered as a plan
    leaves exactly what its packets, sent one by one, leave."""

    @run_settings
    @given(**run_case)
    def test_mixed_run_matches_single_sends(
        self, monkeypatch, fabric, size, lids, pick, n, directed, generation, seed
    ):
        def world():
            return build_world(fabric, size, lids=lids)

        def run(topo):
            rows = run_rows(topo, pick, n, seed)
            return plan_of(topo, rows, seed, directed=directed, generation=generation)

        booked = play(world, lambda topo, tr: tr.deliver(run(topo)), monkeypatch)
        assert booked == play(
            world, lambda topo, tr: send_each(tr, run(topo)), monkeypatch
        )
        assert booked[0]["stats"]["total_smps"] == n + 1
        assert booked[0]["flight"][1] == n + 1

    @run_settings
    @given(**run_case)
    def test_lft_run_matches_single_sends(
        self, monkeypatch, fabric, size, lids, pick, n, directed, generation, seed
    ):
        rng = random.Random(seed)
        blocks = [rng.randrange(4) for _ in range(n)]
        entries = np.array(
            [[rng.randrange(1, 4) for _ in range(LFT_BLOCK_SIZE)] for _ in blocks],
            dtype=np.int16,
        ).reshape(n, LFT_BLOCK_SIZE)

        def world():
            return build_world(fabric, size, lids=lids)

        def as_run(topo, tr):
            sw = topo.switches[pick % len(topo.switches)]
            tr.deliver(
                SmpPlan.lft_sweep(
                    [sw.name] * n, blocks, entries, directed=directed,
                    generation=generation,
                )
            )

        def one_by_one(topo, tr):
            sw = topo.switches[pick % len(topo.switches)]
            for block, row in zip(blocks, entries):
                smp = make_set_lft_block(sw.name, block, row, directed=directed)
                smp.generation = generation
                tr.send(smp)

        ran = play(world, as_run, monkeypatch)
        assert ran == play(world, one_by_one, monkeypatch)
        assert ran[0]["stats"]["lft_update_smps"] == n + 1
        assert ran[0]["spans"][0]["smps"] == (n, n)
        assert ran[0]["stats"]["stale_rejected"] == (n if generation == 0 else 0)

    @run_settings
    @given(
        **run_case,
        drop=st.sampled_from([0.0, 0.3]),
        corrupt=st.sampled_from([0.0, 0.3]),
        delay=st.sampled_from([0.0, 0.3]),
        reliable=st.booleans(),
    )
    def test_faulty_lft_run_matches_single_sends(
        self, monkeypatch, fabric, size, lids, pick, n, directed, generation,
        seed, drop, corrupt, delay, reliable,
    ):
        rng = random.Random(seed)
        blocks = [rng.randrange(4) for _ in range(n)]
        entries = np.array(
            [[rng.randrange(1, 4) for _ in range(LFT_BLOCK_SIZE)] for _ in blocks],
            dtype=np.int16,
        ).reshape(n, LFT_BLOCK_SIZE)
        injectors = []

        def world():
            topo, tr = build_world(fabric, size, lids=lids)
            injectors.append(
                FaultInjector(
                    FaultPlan(
                        seed=seed,
                        smp_drop_rate=drop,
                        smp_corrupt_rate=corrupt,
                        smp_delay_rate=delay,
                        smp_delay_seconds=2e-6,
                        scripted=(
                            ScriptedFault(action="drop", kind="lft_block", nth=2),
                        ),
                    )
                )
            )
            tr.set_fault_injector(injectors[-1])
            return topo, tr

        def sender_of(tr):
            if not reliable:
                return tr
            return ReliableSmpSender(
                tr, RetryPolicy(retries=2), generation=generation
            )

        def as_run(topo, tr):
            sw = topo.switches[pick % len(topo.switches)]
            sender_of(tr).deliver(
                SmpPlan.lft_sweep(
                    [sw.name] * n, blocks, entries, directed=directed,
                    generation=None if reliable else generation,
                )
            )

        def one_by_one(topo, tr):
            sw = topo.switches[pick % len(topo.switches)]
            sender = sender_of(tr)
            for block, row in zip(blocks, entries):
                smp = make_set_lft_block(sw.name, block, row, directed=directed)
                if not reliable:
                    smp.generation = generation
                sender.send(smp)

        ran = play(world, as_run, monkeypatch)
        assert ran == play(world, one_by_one, monkeypatch)
        assert injectors[0].counts == injectors[1].counts
        assert sum(injectors[0].counts.values()) == ran[0]["stats"]["total_smps"] - 1

    @run_settings
    @given(**run_case, reliable=st.booleans())
    def test_faulty_mixed_run_matches_single_sends(
        self, monkeypatch, fabric, size, lids, pick, n, directed, generation,
        seed, reliable,
    ):
        def world():
            topo, tr = build_world(fabric, size, lids=lids)
            tr.set_fault_injector(
                FaultInjector(
                    FaultPlan(
                        seed=seed, smp_drop_rate=0.25, smp_corrupt_rate=0.2,
                        smp_delay_rate=0.2, smp_delay_seconds=1e-6,
                    )
                )
            )
            return topo, tr

        def run(topo):
            rows = run_rows(topo, pick, n, seed)
            return plan_of(topo, rows, seed, directed=directed, generation=generation)

        def sender_of(tr):
            return ReliableSmpSender(tr, RetryPolicy(retries=1)) if reliable else tr

        booked = play(
            world, lambda topo, tr: sender_of(tr).deliver(run(topo)), monkeypatch
        )
        assert booked == play(
            world, lambda topo, tr: send_each(sender_of(tr), run(topo)), monkeypatch
        )


def isolate(topo, switch):
    """Unplug every cable of *switch*: nothing can reach it any more."""
    for port in list(switch.connected_ports()):
        topo.remove_link(port.link)


def sweep_rows(topo, groups, seed):
    """Rows of a sweep: per ``(pick, length)`` group, *length* consecutive
    rows to one switch (groups may repeat or adjoin a switch)."""
    rng = random.Random(seed)
    targets, blocks = [], []
    for pick, length in groups:
        targets += [topo.switches[pick % len(topo.switches)].name] * length
        blocks += [rng.randrange(4) for _ in range(length)]
    entries = np.array(
        [[rng.randrange(1, 4) for _ in range(LFT_BLOCK_SIZE)] for _ in blocks],
        dtype=np.int16,
    ).reshape(len(blocks), LFT_BLOCK_SIZE)
    return targets, blocks, entries


sweep_case = dict(
    fabric=st.sampled_from(["ring", "fattree"]),
    size=st.integers(min_value=3, max_value=5),
    lids=st.booleans(),
    groups=st.lists(
        st.tuples(st.integers(0, 10**6), st.integers(1, 4)), max_size=7
    ),
    cut=st.none() | st.integers(0, 10**6),
    directed=st.booleans(),
    generation=st.sampled_from([None, 0, 4]),
    seed=st.integers(min_value=0, max_value=10**6),
)


class TestSweepEquivalence:
    """A multi-target sweep leaves exactly what its packets, sent one by
    one, leave — also when a target in the middle cannot be reached."""

    @staticmethod
    def both_ways(world, sender_of, groups, seed, directed, stamp, monkeypatch):
        applied = []

        def as_sweep(topo, tr):
            applied.append([])
            sender_of(tr).deliver(
                SmpPlan.lft_sweep(
                    *sweep_rows(topo, groups, seed), directed=directed, **stamp
                ),
                applied=applied[-1],
            )

        def one_by_one(topo, tr):
            applied.append([])
            sender = sender_of(tr)
            for i, (target, block, row) in enumerate(
                zip(*sweep_rows(topo, groups, seed))
            ):
                smp = make_set_lft_block(target, block, row, directed=directed)
                smp.generation = stamp.get("generation")
                if sender.send(smp).ok:
                    applied[-1].append(i)

        swept = play(world, as_sweep, monkeypatch)
        assert swept == play(world, one_by_one, monkeypatch)
        assert applied[0] == applied[1]
        return swept, applied[0]

    @run_settings
    @given(**sweep_case)
    def test_sweep_matches_single_sends(
        self, monkeypatch, fabric, size, lids, groups, cut, directed,
        generation, seed,
    ):
        def world():
            topo, tr = build_world(fabric, size, lids=lids)
            if cut is not None:
                isolate(topo, topo.switches[cut % len(topo.switches)])
            return topo, tr

        (state, _, raised), applied = self.both_ways(
            world, lambda tr: tr, groups, seed, directed,
            {"generation": generation}, monkeypatch,
        )
        n = sum(length for _, length in groups)
        if cut is None:
            assert raised is None
            assert applied == ([] if generation == 0 else list(range(n)))
            assert state["stats"]["lft_update_smps"] == n + 1
            assert state["flight"][1] == n + 1
        else:
            assert raised is None or raised[0] is UnreachableTargetError
        # What left the SM is what the sweep reports delivered (plus the
        # fence packet of build_world), whether or not it died half-way.
        if generation != 0:
            assert state["stats"]["lft_update_smps"] == len(applied) + 1

    @run_settings
    @given(
        **sweep_case,
        drop=st.sampled_from([0.0, 0.3]),
        corrupt=st.sampled_from([0.0, 0.3]),
        delay=st.sampled_from([0.0, 0.3]),
        reliable=st.booleans(),
    )
    def test_faulty_sweep_matches_single_sends(
        self, monkeypatch, fabric, size, lids, groups, cut, directed,
        generation, seed, drop, corrupt, delay, reliable,
    ):
        injectors = []

        def world():
            topo, tr = build_world(fabric, size, lids=lids)
            if cut is not None:
                isolate(topo, topo.switches[cut % len(topo.switches)])
            injectors.append(
                FaultInjector(
                    FaultPlan(
                        seed=seed,
                        smp_drop_rate=drop,
                        smp_corrupt_rate=corrupt,
                        smp_delay_rate=delay,
                        smp_delay_seconds=2e-6,
                        scripted=(
                            ScriptedFault(action="drop", kind="lft_block", nth=2),
                        ),
                    )
                )
            )
            tr.set_fault_injector(injectors[-1])
            return topo, tr

        def sender_of(tr):
            if not reliable:
                return tr
            return ReliableSmpSender(
                tr, RetryPolicy(retries=2), generation=generation
            )

        self.both_ways(
            world, sender_of, groups, seed, directed,
            {} if reliable else {"generation": generation}, monkeypatch,
        )
        assert injectors[0].counts == injectors[1].counts

    def test_unreachable_target_stops_the_sweep_where_it_stands(self):
        topo = line_topology()
        tr = SmpTransport(topo)
        tr.hops_to(topo.node("s2"))  # warm the distance cache, then cut s2 off
        topo.remove_link(topo.node("s1").port(2).link)
        entries = np.full((4, LFT_BLOCK_SIZE), 3, dtype=np.int16)
        applied = []
        plan = SmpPlan.lft_sweep(
            ["s0", "s1", "s2", "s0"], [0, 1, 0, 2], entries, directed=True
        )
        with pytest.raises(UnreachableTargetError):
            tr.deliver(plan, applied=applied)
        assert applied == [0, 1]
        assert tr.stats.total_smps == tr.stats.lft_update_smps == 2
        assert [e.target for e in get_hub().flight] == ["s0", "s1"]
        assert topo.node("h0").port_counters(1).xmit_packets == 2
        assert topo.node("s0").route(2 * LFT_BLOCK_SIZE) != 3
        assert not topo.node("s2").counters

    @pytest.mark.parametrize("lossy", [False, True])
    def test_sweep_needs_one_block_and_one_payload_per_row(self, lossy):
        topo = line_topology()
        tr = SmpTransport(topo)
        if lossy:
            tr.set_fault_injector(FaultInjector(FaultPlan(seed=1, smp_drop_rate=0.5)))
        entries = np.ones((2, LFT_BLOCK_SIZE), dtype=np.int16)
        for blocks, payload in (([0], entries), ([0, 1], entries[:1])):
            with pytest.raises(TopologyError):
                tr.deliver(SmpPlan.lft_sweep(["s0", "s1"], blocks, payload, directed=True))
        assert tr.stats.total_smps == 0


NODE, PORT, LFT = SmpKind.NODE_INFO, SmpKind.PORT_INFO, SmpKind.LFT_BLOCK


def plan_of(topo, rows, seed, *, directed=True, generation=None):
    """A plan of one row per ``(pick, kind, count)``: the node is picked
    among the switches for an LFT row, among all nodes otherwise; a
    PortInfo asks for ports the node has (0 is a switch's own)."""
    rng = random.Random(seed)
    nodes = list(topo.switches) + list(topo.hcas)
    targets, kinds, counts, args = [], [], [], []
    for pick, kind, count in rows:
        pool = topo.switches if kind is LFT else nodes
        node = pool[pick % len(pool)]
        targets.append(node.name)
        kinds.append(kind)
        counts.append(count)
        low = 0 if node.is_switch else 1
        for _ in range(count):
            if kind is PORT:
                args.append(rng.randint(low, node.num_ports))
            else:
                args.append(rng.randrange(4))
    entries = np.array(
        [[rng.randrange(1, 4) for _ in range(LFT_BLOCK_SIZE)] for _ in args],
        dtype=np.int16,
    ).reshape(len(args), LFT_BLOCK_SIZE)
    return SmpPlan(
        targets, kinds, counts, args, entries,
        directed=directed, generation=generation,
    )


plan_case = dict(
    fabric=st.sampled_from(["ring", "fattree"]),
    size=st.integers(min_value=3, max_value=5),
    lids=st.booleans(),
    rows=st.lists(
        st.tuples(
            st.integers(0, 10**6), st.sampled_from([NODE, PORT, LFT]),
            st.integers(0, 4),
        ),
        max_size=8,
    ),
    cut=st.none() | st.integers(0, 10**6),
    directed=st.booleans(),
    generation=st.sampled_from([None, 0, 4]),
    seed=st.integers(min_value=0, max_value=10**6),
    caps=st.sampled_from([(FLIGHT_CAPACITY, SPAN_CAP), (4096, 4096)]),
)


class TestPlanEquivalence:
    """``deliver(plan)`` leaves exactly what ``send`` of each packet of
    ``plan.packets()`` leaves: any mix of NodeInfo/PortInfo GET rows and
    LFT SET rows, also when a target in the middle cannot be reached."""

    @staticmethod
    def both_ways(world, sender_of, rows, seed, stamp, caps, monkeypatch):
        applied = []

        def as_plan(topo, tr):
            applied.append([])
            sender_of(tr).deliver(
                plan_of(topo, rows, seed, **stamp), applied=applied[-1]
            )

        def one_by_one(topo, tr):
            applied.append([])
            sender = sender_of(tr)
            packets = plan_of(topo, rows, seed, **stamp).packets()
            for i, smp in enumerate(packets):
                if sender.send(smp).ok:
                    applied[-1].append(i)

        booked = play(world, as_plan, monkeypatch, caps=caps)
        assert booked == play(world, one_by_one, monkeypatch, caps=caps)
        assert applied[0] == applied[1]
        return booked, applied[0]

    @run_settings
    @given(**plan_case)
    def test_plan_matches_single_sends(
        self, monkeypatch, fabric, size, lids, rows, cut, directed,
        generation, seed, caps,
    ):
        def world():
            topo, tr = build_world(fabric, size, lids=lids)
            if cut is not None:
                isolate(topo, topo.switches[cut % len(topo.switches)])
            return topo, tr

        (state, _, raised), applied = self.both_ways(
            world, lambda tr: tr, rows, seed,
            {"directed": directed, "generation": generation}, caps, monkeypatch,
        )
        n = sum(count for _, _, count in rows)
        stale = sum(count for _, kind, count in rows if kind is LFT)
        if cut is None:
            assert raised is None
            assert state["stats"]["total_smps"] == n + 1
            assert state["flight"][1] == n + 1
            assert len(applied) == n - (stale if generation == 0 else 0)
        else:
            assert raised is None or raised[0] is UnreachableTargetError
        if generation != 0:
            assert state["stats"]["total_smps"] == len(applied) + 1

    @run_settings
    @given(
        **plan_case,
        drop=st.sampled_from([0.0, 0.3]),
        corrupt=st.sampled_from([0.0, 0.3]),
        delay=st.sampled_from([0.0, 0.3]),
        reliable=st.booleans(),
    )
    def test_faulty_plan_matches_single_sends(
        self, monkeypatch, fabric, size, lids, rows, cut, directed,
        generation, seed, caps, drop, corrupt, delay, reliable,
    ):
        injectors = []

        def world():
            topo, tr = build_world(fabric, size, lids=lids)
            if cut is not None:
                isolate(topo, topo.switches[cut % len(topo.switches)])
            injectors.append(
                FaultInjector(
                    FaultPlan(
                        seed=seed,
                        smp_drop_rate=drop,
                        smp_corrupt_rate=corrupt,
                        smp_delay_rate=delay,
                        smp_delay_seconds=2e-6,
                        scripted=(
                            ScriptedFault(action="drop", kind="port_info", nth=2),
                        ),
                    )
                )
            )
            tr.set_fault_injector(injectors[-1])
            return topo, tr

        def sender_of(tr):
            if not reliable:
                return tr
            return ReliableSmpSender(
                tr, RetryPolicy(retries=2), generation=generation
            )

        stamp = {"directed": directed}
        if not reliable:
            stamp["generation"] = generation
        self.both_ways(world, sender_of, rows, seed, stamp, caps, monkeypatch)
        assert injectors[0].counts == injectors[1].counts

    def test_reliable_sender_books_a_lossless_plan_under_its_generation(self):
        topo = line_topology()
        tr = SmpTransport(topo)
        sender = ReliableSmpSender(tr, generation=7)
        entries = np.full((3, LFT_BLOCK_SIZE), 2, dtype=np.int16)
        sender.deliver(SmpPlan(["s1", "s1"], [NODE, LFT], [1, 2], [0, 0, 1], entries))
        assert tr.fabric_generation == 7
        assert get_hub().flight.by_kind() == {"node_info": 1, "lft_block": 2}
        # A discovery sweep raises no fence: GETs are not fenced writes.
        ReliableSmpSender(tr, generation=9).deliver(
            SmpPlan(["s1", "s2"], [NODE, PORT], [1, 2], [0, 0, 1])
        )
        assert tr.fabric_generation == 7

    def test_an_sminfo_row_sends_the_plan_packet_by_packet(self):
        topo = line_topology()
        tr = SmpTransport(topo)
        tr.mark_sm_dead("h2")
        applied = []
        tr.deliver(
            SmpPlan(["s1", "h2"], [NODE, SmpKind.SM_INFO], [1, 2], [0, 0, 0]),
            applied=applied,
        )
        assert applied == [0]
        assert (tr.stats.total_smps, tr.stats.timeouts) == (3, 2)

    @pytest.mark.parametrize(
        "counts, args, entries",
        [
            ([1, 2], [0, 0], None),  # an argument short
            ([1, 1], [0, 0], None),  # LFT row without payloads
            ([1, 1], [0, 0], np.ones((1, LFT_BLOCK_SIZE), dtype=np.int16)),
            ([1, 1], [0, 0], np.ones((2, 63), dtype=np.int16)),
        ],
    )
    def test_a_malformed_plan_cannot_be_built(self, counts, args, entries):
        with pytest.raises(TopologyError):
            SmpPlan(["s0", "s1"], [NODE, LFT], counts, args, entries)

    @pytest.mark.parametrize(
        "row, bad",
        [
            (("s2", NODE, 1, [0]), UnreachableTargetError),  # cut off below
            (("ghost", PORT, 1, [1]), UnreachableTargetError),
            (("h0", LFT, 1, [0]), TopologyError),  # not a switch
            (("s1", PORT, 2, [1, 9]), TopologyError),  # s1 has no port 9
            (("h0", PORT, 1, [0]), TopologyError),  # an HCA has no port 0
        ],
    )
    def test_a_bad_row_books_the_rows_before_it_and_nothing_of_its_own(
        self, row, bad
    ):
        topo = line_topology()
        tr = SmpTransport(topo)
        tr.hops_to(topo.node("s2"))  # warm the distance cache, then cut s2 off
        topo.remove_link(topo.node("s1").port(2).link)
        name, kind, count, args = row
        plan = SmpPlan(
            ["s0", "s1", name, "s0"], [NODE, PORT, kind, NODE], [1, 2, count, 1],
            [0, 0, 1, *args, 0],
            np.full((4 + count, LFT_BLOCK_SIZE), 3, dtype=np.int16),
        )
        applied = []
        with pytest.raises(bad) as raised:
            tr.deliver(plan, applied=applied)
        assert applied == [0, 1, 2]
        assert tr.stats.total_smps == 3
        assert [(e.kind, e.target) for e in get_hub().flight] == [
            ("node_info", "s0"), ("port_info", "s1"), ("port_info", "s1"),
        ]
        assert topo.node("h0").port_counters(1).xmit_packets == 3
        assert get_hub().flight.seen == 3
        assert topo.node("s1").port_counters(0).rcv_packets == 2
        assert not topo.node("s2").counters
        # Sent on its own, the first bad packet raises the same typed error.
        with pytest.raises(bad) as single:
            tr.send(list(plan.packets())[3 + (name == "s1")])
        assert str(raised.value) == str(single.value)

    @pytest.mark.parametrize(
        "row",
        [
            ("s2", NODE, 1, [0]),  # cut off below
            ("ghost", PORT, 1, [1]),
            ("h0", LFT, 2, [0, 1]),  # not a switch
            ("s1", PORT, 2, [9, 1]),  # s1 has no port 9
            ("h0", PORT, 1, [0]),  # an HCA has no port 0
        ],
    )
    def test_a_refused_row_costs_what_its_packets_sent_one_by_one_cost(
        self, monkeypatch, row
    ):
        """Nothing: a packet the transport refuses moves no counter on
        either path, the SM host's and the target's PMA counters included."""
        def world():
            topo = line_topology()
            tr = SmpTransport(topo)
            tr.hops_to(topo.node("s2"))  # warm the distance cache, then cut s2 off
            topo.remove_link(topo.node("s1").port(2).link)
            return topo, tr

        def plan():
            name, kind, count, args = row
            return SmpPlan(
                ["s0", "s1", name, "s0"], [NODE, PORT, kind, NODE], [1, 2, count, 1],
                [0, 0, 1, *args, 0],
                np.full((4 + count, LFT_BLOCK_SIZE), 3, dtype=np.int16),
            )

        booked = play(world, lambda topo, tr: tr.deliver(plan()), monkeypatch)
        assert booked == play(world, lambda topo, tr: send_each(tr, plan()), monkeypatch)
        assert booked[2] is not None and booked[0]["stats"]["total_smps"] == 3


class OneByOne:
    """The transport, but every plan goes out one :meth:`send` per packet."""

    def __init__(self, tr):
        self.tr = tr

    def __getattr__(self, name):
        return getattr(self.tr, name)

    def deliver(self, plan, *, applied=None):
        for i, smp in enumerate(plan.packets()):
            if self.tr.send(smp).ok and applied is not None:
                applied.append(i)


# Step codes of the route-table property: the plans, then what may move a
# route between two plans.
(DISCOVER, MIXED, SWEEP, PROBE, MUTATE, OUT_OF_BAND, RECABLE_HCA, MOVE_SM,
 DISTANCE_SOURCE, INVALIDATE, TOGGLE_LID, READ_HOPS) = range(12)
PLANS = (DISCOVER, MIXED, SWEEP, PROBE)
#: What the property draws steps from: the plans that reuse switch routes
#: most, and the moves nothing else invalidates, come twice.
STEP_MIX = PLANS + (
    SWEEP, PROBE, MUTATE, OUT_OF_BAND, OUT_OF_BAND, RECABLE_HCA, RECABLE_HCA,
    MOVE_SM, DISTANCE_SOURCE, INVALIDATE, TOGGLE_LID, TOGGLE_LID, READ_HOPS,
    READ_HOPS,
)


def send_plan(code, rng, topo, tr, booked, grown, directed, generation):
    """One plan of the route-table property: a discovery sweep, a mixed
    plan, an LFT sweep, or a NodeInfo probe of every node (and of every
    grown switch removed since)."""
    sender = tr if booked else OneByOne(tr)
    if code == DISCOVER:
        discover_subnet(topo, sender)
    elif code == MIXED:
        rows = [
            (rng.randrange(10**6), rng.choice([NODE, PORT, LFT]), rng.randrange(4))
            for _ in range(rng.randrange(1, 7))
        ]
        plan = plan_of(
            topo, rows, rng.random(), directed=directed, generation=generation
        )
        sender.deliver(plan)
    elif code == SWEEP:
        groups = [
            (rng.randrange(10**6), rng.randrange(1, 4))
            for _ in range(rng.randrange(1, 6))
        ]
        rows = sweep_rows(topo, groups, rng.random())
        if booked:
            tr.deliver(SmpPlan.lft_sweep(*rows, directed=directed, generation=generation))
            return
        for target, block, entries in zip(*rows):
            smp = make_set_lft_block(target, block, entries, directed=directed)
            smp.generation = generation
            tr.send(smp)
    else:
        # Every node in a drawn order: HCA routes are kept too, so an HCA
        # row may come first after a move, or serve a stale route itself.
        names = [node.name for node in list(topo.switches) + list(topo.hcas)]
        rng.shuffle(names)
        names += [name for name in grown if name not in topo]
        n = len(names)
        sender.deliver(SmpPlan(names, [NODE] * n, [1] * n, [0] * n, directed=directed))


def move_routes(code, rng, sm, tr, removed, grown, cut):
    """One step of the route-table property that may move a route."""
    topo = sm.topology
    nodes = list(topo.switches) + list(topo.hcas)
    pick = rng.randrange(10**6)
    if code == MUTATE:
        kind = (REMOVE_LINK, RESTORE_LINK, ADD_SWITCH, REMOVE_SWITCH)[pick % 4]
        mutation = plan_op(sm, kind, pick // 4, removed, grown, link_ops_only=False)
        if mutation is not None:
            sm.handle_topology_change(mutation, verify=False)
            if mutation.kind == "remove_link":
                removed.append(mutation)
    elif code == OUT_OF_BAND:
        # A cable pulled or re-plugged behind everybody's back: the
        # version moves, and nobody calls invalidate_distances.
        if cut and pick % 2:
            topo.restore_link(cut.pop())
        else:
            viable = [
                link for link in switch_links(topo)
                if removal_keeps_connected(topo, link)
            ]
            if viable:
                cut.append(topo.remove_link(viable[pick % len(viable)]))
    elif code == RECABLE_HCA:
        # HCA cabling leaves the version where it is.
        hca = topo.hcas[pick % len(topo.hcas)]
        frees = free_switch_ports(topo)
        if hca is not tr.sm_node and frees:
            sw, num = frees[pick % len(frees)]
            topo.remove_link(hca.port(1).link)
            topo.connect(hca, 1, sw, num)
    elif code == MOVE_SM:
        hosts = [n for n in nodes if n.name not in grown]
        tr.set_sm_node(hosts[pick % len(hosts)])
    elif code == DISTANCE_SOURCE:
        tr.set_distance_source(sm.routing_state if pick % 2 else None)
    elif code == INVALIDATE:
        tr.invalidate_distances()
    elif code == TOGGLE_LID:
        # Binding a LID leaves the version where it is, too.
        sw = topo.switches[pick % len(topo.switches)]
        if sw.lid is not None and topo.port_of_lid(sw.lid) is None:
            topo.bind_lid(sw.lid, sw.management_port)
        elif sw.lid is not None:
            topo.unbind_lid(sw.lid)
    else:  # READ_HOPS: a public read that refreshes the distances
        tr.hops_to(nodes[pick % len(nodes)])


class KeepsNothing(dict):
    """A route table that forgets every route it is handed."""

    def __setitem__(self, name, route):
        pass


def route_world(fabric, steps, booked, caps):
    """Walk *steps* on one fabric and its one transport; return, per plan,
    everything it left behind and what it raised.

    *booked* delivers the plans as plans through a transport that keeps
    its routes; otherwise they go out one send per packet through a
    transport that resolves every route anew (its route tables keep
    nothing), the SM's own sweeps included.
    """
    reset_hub(flight_capacity=caps[0])
    if fabric == "ring":  # distances move with every cable
        built = build_ring(5, 1, switch_radix=6)
    else:
        built = build_two_level_fattree(3, 1, 2, switch_radix=6)
    topo = built.topology
    sm = SubnetManager(topo, engine="minhop", built=built)
    sm.initial_configure(with_discovery=False)
    tr = sm.transport
    if not booked:
        tr._routes = (KeepsNothing(), KeepsNothing())
    removed, grown, cut, seen = [], [], [], []
    for code, pick, directed, generation in steps:
        # What set-up and the SM's reconvergence timed on the wall clock
        # (the PCt gauges) is not the transport's to match.
        get_hub().metrics.reset()
        rng = random.Random(pick)
        if code not in PLANS:
            try:
                move_routes(code, rng, sm, tr, removed, grown, cut)
            except ReproError:
                pass  # refused alike in both worlds; the plans after it tell
            continue
        raised = None
        with span("step") as sp:
            try:
                send_plan(code, rng, topo, tr, booked, grown, directed, generation)
            except ReproError as exc:
                raised = (type(exc), str(exc))
        seen.append((copy.deepcopy(observed(topo, tr, sp)), raised))
    return seen


class TestRouteTableInvalidation:
    """One transport keeps its switch routes across plans. Whatever moves a
    route in between — a link or a switch coming or going, an HCA cable
    moved, the SM moved, another distance source, an explicit
    invalidation, a LID unbound or bound again — every plan still leaves
    exactly what the same steps leave sent one packet at a time by a
    transport that resolves every route anew."""

    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
    )
    @given(
        fabric=st.sampled_from(["ring", "fattree"]),
        steps=st.lists(
            st.tuples(
                st.sampled_from(STEP_MIX), st.integers(0, 10**6), st.booleans(),
                st.sampled_from([None, 0, 4]),
            ),
            min_size=1, max_size=20,
        ),
        caps=st.sampled_from([(FLIGHT_CAPACITY, SPAN_CAP), (65_536, 10_000)]),
    )
    def test_every_plan_matches_a_transport_that_keeps_no_routes(
        self, monkeypatch, fabric, steps, caps
    ):
        monkeypatch.setattr("repro.obs.spans.MAX_EVENTS_PER_SPAN", caps[1])
        booked = route_world(fabric, steps, True, caps)
        assert booked == route_world(fabric, steps, False, caps)
        assert len(booked) == sum(code in PLANS for code, *_ in steps)

    # One test per way a kept route can go stale, so that each is caught
    # whatever the property happens to draw.

    def test_a_cable_changed_behind_its_back_moves_the_route(self):
        topo = line_topology()
        tr = SmpTransport(topo)
        probe = SmpPlan(["s2"], [NODE], [1], [0])
        tr.deliver(probe)  # s0 - s1 - s2: 3 hops
        bypass = topo.connect(topo.node("s0"), 3, topo.node("s2"), 3)
        tr.deliver(probe)  # the version moved: 2 hops
        topo.remove_link(bypass)
        assert tr.hops_to(topo.node("s2")) == 3  # a read refreshes the distances,
        tr.deliver(probe)  # and the route goes with them
        assert tr.stats.total_hops == 3 + 2 + 3

    def test_moving_the_sm_or_its_distances_moves_the_route(self):
        topo = line_topology()
        tr = SmpTransport(topo)
        probe = SmpPlan(["s2"], [NODE], [1], [0])
        tr.deliver(probe)  # from h0: 3 hops
        tr.set_sm_node(topo.node("h2"))
        tr.deliver(probe)  # from h2: 1 hop

        class Farther:
            """Distances that put every switch one hop further."""

            def row(self, root):
                return bfs_distances(topo.fabric_view(), root) + 1

        tr.set_distance_source(Farther())
        tr.deliver(probe)  # 2 hops
        h0 = topo.node("h0")
        tr.set_sm_node(h0)
        tr.set_distance_source(None)
        tr.deliver(probe)  # 3 hops again
        topo.remove_link(h0.port(1).link)
        topo.connect(h0, 1, topo.node("s2"), 3)  # the version stays ...
        tr.invalidate_distances()  # ... so the SM says so
        tr.deliver(probe)  # 1 hop
        assert tr.stats.total_hops == 3 + 1 + 2 + 3 + 1

    def test_a_recabled_hca_is_worked_out_anew(self):
        topo = line_topology()
        tr = SmpTransport(topo)
        probe = SmpPlan(["h2"], [NODE], [1], [0])
        tr.deliver(probe)  # behind s2: 4 hops
        h2 = topo.node("h2")
        topo.remove_link(h2.port(1).link)
        topo.connect(h2, 1, topo.node("s0"), 3)  # the version stays
        tr.deliver(probe)
        assert tr.stats.total_hops == 4 + 2

    def test_a_removed_switch_is_not_delivered_to_from_the_table(self):
        topo = line_topology()
        tr = SmpTransport(topo)
        s3 = topo.add_switch("s3", 4)
        topo.connect(topo.node("s2"), 3, s3, 1)
        probe = SmpPlan(["s3"], [NODE], [1], [0])
        tr.deliver(probe)
        assert "s3" in tr._routes[True]
        topo.remove_switch("s3")
        with pytest.raises(UnreachableTargetError, match="does not exist"):
            tr.deliver(probe)
        assert [e.target for e in get_hub().flight] == ["s3"]

    def test_an_unbound_lid_refuses_a_routed_row_to_a_known_switch(self):
        built = build_two_level_fattree(3, 1, 2, switch_radix=6)
        sm = SubnetManager(built.topology, engine="minhop", built=built)
        sm.assign_lids()
        tr, sw = sm.transport, built.topology.switches[1]
        probe = SmpPlan([sw.name], [NODE], [1], [0], directed=False)
        tr.deliver(probe)
        built.topology.unbind_lid(sw.lid)
        with pytest.raises(UnreachableTargetError, match="no live LID"):
            tr.deliver(probe)
        built.topology.bind_lid(sw.lid, sw.management_port)
        tr.deliver(probe)
        assert sum(e.target == sw.name for e in get_hub().flight) == 2

    # What a bump keeps: every route whose target is still the same node at
    # the same hop count, HCA routes included.

    def test_a_kept_route_survives_a_bump_that_leaves_its_hop_count(self):
        topo = line_topology()
        tr = SmpTransport(topo)
        probe = SmpPlan(["s2", "h2"], [NODE, NODE], [1, 1], [0, 0])
        tr.deliver(probe)
        kept = dict(tr._routes[True])
        version = topo.version
        s3 = topo.add_switch("s3", 4)
        topo.connect(topo.node("s1"), 3, s3, 1)  # s2 and h2 stay where they are
        tr.deliver(probe)
        assert topo.version > version
        assert tr._routes[True] == kept  # the very same two route objects
        assert tr.stats.total_hops == 2 * (3 + 4)

    def test_a_moved_hop_count_rebuilds_the_route(self):
        topo = line_topology()
        tr = SmpTransport(topo)
        names = ["s1", "s2", "h2"]
        probe = SmpPlan(names, [NODE] * 3, [1] * 3, [0] * 3)
        tr.deliver(probe)  # 2, 3, 4 hops
        kept = dict(tr._routes[True])
        topo.connect(topo.node("s0"), 3, topo.node("s2"), 3)  # a bypass to s2
        tr.deliver(probe)  # 2, 2, 3 hops
        routes = tr._routes[True]
        assert routes["s1"] is kept["s1"]
        assert routes["s2"] is not kept["s2"] and routes["h2"] is not kept["h2"]
        assert [routes[name].hops for name in names] == [2, 2, 3]
        assert tr.stats.total_hops == (2 + 3 + 4) + (2 + 2 + 3)

    def test_a_switch_removed_and_added_again_under_its_name_gets_a_new_route(self):
        topo = line_topology()
        tr = SmpTransport(topo)
        probe = SmpPlan(["s3"], [NODE], [1], [0])
        old = topo.add_switch("s3", 4)
        topo.connect(topo.node("s2"), 3, old, 1)
        tr.deliver(probe)
        route = tr._routes[True]["s3"]
        topo.remove_switch("s3")
        new = topo.add_switch("s3", 4)
        topo.connect(topo.node("s2"), 3, new, 1)  # same place, same hop count
        tr.deliver(probe)
        again = tr._routes[True]["s3"]
        assert again is not route and again.target is new and again.hops == route.hops
        # The second packet lands on the new switch's endpoint; the removed
        # one was reset on its way out and counts nothing more.
        assert (old.counters[0].rcv_packets, new.counters[0].rcv_packets) == (0, 1)

    def test_a_perf_sweep_after_an_hca_is_recabled_without_a_bump_reads_the_right_node(self):
        topo = line_topology()
        sm = SubnetManager(topo, engine="minhop")
        perf = PerfManager(sm)
        perf.sweep()
        h2, version = topo.node("h2"), topo.version
        topo.remove_link(h2.port(1).link)
        topo.connect(h2, 1, topo.node("s0"), 3)  # behind s0 now
        assert topo.version == version
        perf.sweep()
        assert [e.hops for e in get_hub().flight if e.target == "h2"] == [4, 2]
        assert perf.total("h2", 1, "rcv_packets") == h2.counters[1].rcv_packets == 2
        assert sm.transport._routes[True]["h2"].target is h2

    def test_a_sweep_after_a_cable_flap_builds_routes_for_the_moved_nodes_only(
        self, monkeypatch
    ):
        built = scaled_fattree("3l-small")
        topo = built.topology
        sm = SubnetManager(topo, engine="minhop", built=built)
        sm.initial_configure(with_discovery=False)
        tr = sm.transport
        discover_subnet(topo, tr)
        built_for = []

        class Counted(transport_module._Route):
            __slots__ = ()

            def __init__(self, target, *rest):
                built_for.append(target.name)
                super().__init__(target, *rest)

        monkeypatch.setattr(transport_module, "_Route", Counted)
        nodes = list(topo.switches) + list(topo.hcas)

        def flap(kind, link):
            hops = {node.name: tr.hops_to(node) for node in nodes}
            link = sm.apply_topology_mutation(TopologyMutation.cable(kind, link))
            moved = {node.name for node in nodes if tr.hops_to(node) != hops[node.name]}
            return link, moved

        for link in switch_links(topo):  # the first flap that moves a node
            down, moved = flap("remove_link", link)
            if moved:
                break
            flap("restore_link", down)
        for kind in ("remove_link", "restore_link"):
            if kind == "restore_link":
                down, moved = flap(kind, down)
            built_for.clear()
            discover_subnet(topo, tr)
            assert moved and sorted(built_for) == sorted(moved)


class TestRunContract:
    def test_span_cap_and_ring_are_respected_by_a_long_run(self, monkeypatch):
        n = 3 * FLIGHT_CAPACITY

        def act(topo, tr):
            entries = np.ones((n, LFT_BLOCK_SIZE), dtype=np.int16)
            tr.deliver(SmpPlan.lft_sweep(["s1"] * n, list(range(n)), entries, directed=True))

        monkeypatch.setattr("repro.obs.spans.MAX_EVENTS_PER_SPAN", SPAN_CAP)
        reset_hub(flight_capacity=FLIGHT_CAPACITY)
        topo = line_topology()
        tr = SmpTransport(topo)
        with span("op") as sp:
            act(topo, tr)
        hub = get_hub()
        assert (hub.flight.seen, hub.flight.dropped, len(hub.flight)) == (
            n, n - FLIGHT_CAPACITY, FLIGHT_CAPACITY,
        )
        assert (sp.smp_count, sp.lft_smp_count) == (n, n)
        assert (len(sp.events), sp.events_dropped) == (SPAN_CAP, n - SPAN_CAP)
        # The ring holds the run's tail, the span its head.
        assert hub.flight.events()[-1].time == hub.now()
        assert sp.events[0].time == hub.flight.events()[0].latency

    def test_empty_runs_touch_nothing(self):
        topo = line_topology()
        tr = SmpTransport(topo)
        tr.deliver(SmpPlan([], [], [], []))
        tr.deliver(SmpPlan(["nowhere"], [NODE], [0], []))
        empty = np.empty((0, LFT_BLOCK_SIZE), dtype=np.int16)
        tr.deliver(SmpPlan.lft_sweep([], [], empty, directed=True))
        assert tr.stats.total_smps == 0
        assert all(not node.counters for node in topo.switches + topo.hcas)

    @pytest.mark.parametrize("target", ["ghost", "h2"])
    def test_bad_target_raises_what_a_single_send_raises_before_accounting(
        self, target
    ):
        entries = np.ones((2, LFT_BLOCK_SIZE), dtype=np.int16)
        errors = []
        for bulk in (True, False):
            topo = line_topology()
            tr = SmpTransport(topo)
            with pytest.raises(TopologyError) as info:
                if bulk:
                    plan = SmpPlan.lft_sweep([target] * 2, [0, 1], entries, directed=True)
                    tr.deliver(plan)
                else:
                    tr.send(make_set_lft_block(target, 0, entries[0]))
            errors.append((info.type, str(info.value)))
            if bulk:
                assert tr.stats.total_smps == 0
                assert all(not n.counters for n in topo.switches + topo.hcas)
        assert errors[0] == errors[1]

    def test_unreachable_target_fails_the_run_before_any_packet(self):
        topo = line_topology()
        tr = SmpTransport(topo)
        tr.hops_to(topo.node("s2"))  # warm the distance cache, then cut s2 off
        topo.remove_link(topo.node("s1").port(2).link)
        with pytest.raises(UnreachableTargetError) as as_run:
            tr.deliver(SmpPlan(["s2"], [NODE], [3], [0, 0, 0]))
        with pytest.raises(UnreachableTargetError) as single:
            tr.send(Smp(SmpMethod.GET, SmpKind.NODE_INFO, "s2"))
        assert str(as_run.value) == str(single.value)
        assert tr.stats.total_smps == 0

    @pytest.mark.parametrize("shape", [(2, 63), (1, LFT_BLOCK_SIZE), (3, LFT_BLOCK_SIZE)])
    @pytest.mark.parametrize("lossy", [False, True])
    def test_malformed_lft_payload_is_rejected_before_accounting(self, shape, lossy):
        topo = line_topology()
        tr = SmpTransport(topo)
        if lossy:
            tr.set_fault_injector(FaultInjector(FaultPlan(seed=1, smp_drop_rate=0.5)))
        with pytest.raises(TopologyError):
            entries = np.ones(shape, dtype=np.int16)
            tr.deliver(SmpPlan.lft_sweep(["s1"] * 2, [0, 1], entries, directed=True))
        assert tr.stats.total_smps == 0
        assert not topo.node("s1").counters

    def test_stale_run_is_rejected_whole_and_counted_per_packet(self):
        topo = line_topology()
        tr = SmpTransport(topo)
        def run(entries, generation):
            return SmpPlan.lft_sweep(
                ["s1"] * 3, [0, 1, 2], entries, directed=True, generation=generation
            )

        tr.deliver(run(np.full((3, LFT_BLOCK_SIZE), 2, dtype=np.int16), 5))
        assert tr.fabric_generation == 5
        tr.deliver(run(np.full((3, LFT_BLOCK_SIZE), 3, dtype=np.int16), 4))
        assert tr.stats.stale_rejected == 3
        assert tr.stats.lft_update_smps == 6  # sent and accounted, not applied
        assert topo.node("s1").route(10) == 2
        assert tr.fabric_generation == 5

    def test_reliable_sender_aborts_a_stale_run_at_its_first_packet(self):
        topo = line_topology()
        tr = SmpTransport(topo)
        entries = np.full((3, LFT_BLOCK_SIZE), 2, dtype=np.int16)
        run = SmpPlan.lft_sweep(["s1"] * 3, [0, 1, 2], entries, directed=True)
        ReliableSmpSender(tr, generation=5).deliver(run)
        stale = ReliableSmpSender(tr, generation=4)
        with pytest.raises(StaleGenerationError):
            stale.deliver(
                SmpPlan.lft_sweep(["s1"] * 3, [0, 1, 2], entries + 1, directed=True)
            )
        assert tr.stats.stale_rejected == 1
        assert tr.stats.total_smps == 4

    def test_dropped_run_never_touches_the_target_counters(self):
        topo = line_topology()
        tr = SmpTransport(topo)
        tr.set_fault_injector(FaultInjector(FaultPlan(seed=1, smp_drop_rate=1.0)))
        applied = []
        tr.deliver(SmpPlan(["s1"], [NODE], [4], [0] * 4), applied=applied)
        assert applied == [] and tr.stats.timeouts == 4
        assert [e.status for e in get_hub().flight] == ["dropped"] * 4
        assert not topo.node("s1").counters
        assert topo.node("h0").port_counters(1).xmit_packets == 4

    def test_dead_sm_agent_times_out_sminfo_runs_without_an_injector(self):
        topo = line_topology()
        tr = SmpTransport(topo)
        tr.mark_sm_dead("h2")
        run = SmpPlan(["h2"], [SmpKind.SM_INFO], [2], [0, 0])
        applied = []
        tr.deliver(run, applied=applied)
        assert applied == [] and tr.stats.timeouts == 2
        with pytest.raises(SmpTimeoutError):
            ReliableSmpSender(tr, RetryPolicy(retries=1)).deliver(run)
        # first packet + one retransmission, then the run is abandoned
        assert tr.stats.total_smps == 4
        assert tr.stats.retransmissions == 1

    def test_neither_switch_nor_hca_is_a_typed_error(self):
        topo = line_topology()
        stray = Node("stray", NodeType.CA, 1)
        with pytest.raises(TopologyError, match="SM host 'stray'"):
            SmpTransport(topo, sm_node=stray).hops_to(topo.node("s1"))
        with pytest.raises(TopologyError, match="target 'stray'"):
            SmpTransport(topo).hops_to(stray)


REPO = Path(__file__).resolve().parents[2]
MAD = REPO / "src" / "repro" / "mad"


class TestOneBookingLoopGuards:
    """The CI guard greps of the "one delivery seam" job: an SMP leaves
    through ``send`` or ``deliver``, and both book through one ``_book``."""

    @staticmethod
    def functions(path):
        """``(name, source lines)`` of every function in *path*."""
        tree = ast.parse(path.read_text())
        lines = path.read_text().splitlines()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node.name, lines[node.lineno - 1 : node.end_lineno]

    def test_the_clocks_are_accumulated_in_book_only(self):
        """One sequential accumulate per clock, and no vectorised
        stand-in for it (``cumsum``, ``np.sum``) anywhere beside it."""
        holders = {
            name
            for name, body in self.functions(MAD / "transport.py")
            if any("accumulate(" in line for line in body)
        }
        assert holders == {"_book"}
        source = (MAD / "transport.py").read_text()
        assert source.count("accumulate(") == 2
        assert not re.search(r"cumsum|np\.sum|\.sum\(", source)

    def test_a_booked_plan_takes_one_flight_and_one_span_append(self):
        """Both appends sit in ``_book``, once each, and ``_book`` is what
        ``send`` and ``deliver`` — and nothing else — call."""
        source = (MAD / "transport.py").read_text()
        assert source.count("flight.record_rows(") == 1
        assert source.count("sp.record_rows(") == 1
        bodies = dict(self.functions(MAD / "transport.py"))
        holders = {
            name for name, body in bodies.items()
            if any(".record_rows(" in line for line in body)
        }
        assert holders == {"_book"}
        callers = {
            name for name, body in bodies.items()
            if any("self._book(" in line for line in body)
        }
        assert callers == {"send", "deliver"}

    def test_no_further_send_entry_point(self):
        """``def send\\w*`` in ``mad/`` is exactly ``def send``, twice, and
        the transport and the reliable sender deliver through exactly
        ``send`` and ``deliver``."""
        found = [
            match
            for path in sorted(MAD.glob("*.py"))
            for match in re.findall(r"def send\w*", path.read_text())
        ]
        assert found == ["def send"] * 2
        for cls in (SmpTransport, ReliableSmpSender):
            public = {name for name in dir(cls) if re.match(r"send|deliver", name)}
            assert public == {"send", "deliver"}

    def test_the_removed_names_stay_gone(self):
        removed = re.compile(
            r"send_run|send_lft_run|send_lft_sweep|record_samples|record_run"
            r"|record_smps?\(|\.mark\(\)|\.since\("
        )
        for path in sorted((REPO / "src" / "repro").rglob("*.py")):
            assert not removed.search(path.read_text()), path
        for path in sorted(MAD.glob("*.py")):
            assert not re.search(r"by_kind|by_target", path.read_text()), path

    def test_discovery_builds_no_smp_and_sends_through_one_call(self):
        source = (REPO / "src" / "repro" / "sm" / "discovery.py").read_text()
        assert "Smp(" not in source
        assert len(re.findall(r"transport\.\w+\(", source)) == 1
        assert "transport.deliver(" in source

    def test_a_route_is_built_in_one_place(self):
        """``_Route(`` is called once in ``src/repro``, in
        ``SmpTransport._route``: a kept route is re-checked, never rebuilt
        behind the table's back."""
        found = []
        for path in sorted((REPO / "src" / "repro").rglob("*.py")):
            tree = ast.parse(path.read_text())
            owners = {
                id(node): f"{cls.name}.{method.name}"
                for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                for method in cls.body if isinstance(method, ast.FunctionDef)
                for node in ast.walk(method)
            }
            found += [
                (path.name, owners.get(id(node)))
                for node in ast.walk(tree)
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_Route"
            ]
        assert found == [("transport.py", "SmpTransport._route")]
        assert (MAD / "transport.py").read_text().count("_Route(") == 1

    def test_transport_does_not_grow(self):
        assert len((MAD / "transport.py").read_text().splitlines()) <= 770

    def test_the_per_node_walker_lives_with_the_oracles(self):
        assert (REPO / "tests" / "oracles" / "discovery.py").exists()
        assert "send_run" not in (
            REPO / "src" / "repro" / "sm" / "discovery.py"
        ).read_text()


class TestBenchmarkHarnessCompatibility:
    """``benchmarks/e2e`` may not change with this code: the names its
    tracer ``setattr``s timing shims onto stay public bound methods, and a
    traced run of the workload that sweeps the most still checks out."""

    def test_the_shimmed_names_are_public_bound_methods(self):
        topo = line_topology()
        sm = SubnetManager(topo, engine="minhop")
        for owner, name in (
            (sm.transport, "send"),
            (get_hub().flight, "record"),
            (sm, "discover"),
            (sm.distributor, "distribute"),
        ):
            method = getattr(owner, name)
            assert inspect.ismethod(method) and method.__self__ is owner

    def test_a_shim_on_send_sees_single_sends_but_not_a_booked_plan(self):
        topo = line_topology()
        sm = SubnetManager(topo, engine="minhop")
        seen = []
        original = sm.transport.send
        sm.transport.send = lambda smp: seen.append(smp) or original(smp)
        report = sm.discover()
        sm.transport.send(Smp(SmpMethod.GET, SmpKind.NODE_INFO, "s1"))
        assert len(seen) == 1
        assert sm.transport.stats.total_smps == report.smps_sent + 1

    def test_a_traced_quick_run_of_the_rewire_workload_is_correct(self, tmp_path):
        out = tmp_path / "quick.json"
        done = subprocess.run(
            [
                sys.executable, str(REPO / "benchmarks" / "e2e" / "run.py"),
                "--quick", "--workload", "fault-rewire-3l-wide",
                "--out", str(out),
            ],
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr[-2000:]
        result = json.loads(out.read_text())["workloads"]["fault-rewire-3l-wide"]
        assert result["correct"] is True and result["failed"] == 0
        layers = result["per_layer"]
        assert layers["sm.discovery.calls"] > 0 and layers["sm.discovery.smps"] > 0
