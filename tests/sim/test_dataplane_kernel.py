"""The struct-of-arrays data plane equals the closure simulator, event for event.

Each example builds the same routed fabric twice (hub reset in between),
plays one scenario on each — the kernel (``repro.sim.dataplane``) and the
closure oracle (``tests/oracles/dataplane.py``) — and compares everything
a run leaves behind: every ``DataPlaneStats`` field with list and dict
item order, ``engine.now``, ``events_processed``, every node's PMA
counters in creation order, a mid-burst ``PerfManager`` store and its
reports, and whatever error the run raised.

Scenarios cover the §VI-C deadlock on a minhop ring (HOQ drops), DFSSSP
with its ``lid_to_vl``, 2- and 3-level fat-trees, random flows, spacing,
credits and HOQ lifetimes, port-255 invalidation, an unrouted LID, a dead
port (a cable removed after routing), LID swaps / path copies /
invalidations landing mid-flight, out-of-order ``inject(delay=)``, and
``run(until=)`` followed by more traffic and a second ``run()``.
"""

from __future__ import annotations

import gc
import re
import weakref
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.reconfig import VSwitchReconfigurer
from repro.errors import ReproError, SimulationError
from repro.fabric.builders.generic import build_ring
from repro.fabric.node import Switch
from repro.fabric.presets import scaled_fattree
from repro.obs import reset_hub
from repro.sim.dataplane import DataPlaneSimulator
from repro.sm.subnet_manager import SubnetManager
from repro.telemetry.perf import PerfManager
from tests.oracles.dataplane import ClosureDataPlane

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"

FABRICS = {
    "ring6-minhop": (lambda: build_ring(6, 1), "minhop"),
    "ring6-dfsssp": (lambda: build_ring(6, 1), "dfsssp"),
    "2l-small": (lambda: scaled_fattree("2l-small"), "minhop"),
    "3l-small": (lambda: scaled_fattree("3l-small"), "minhop"),
}
#: A LID no switch has a route for.
UNROUTED = 40_000


@dataclass
class Scenario:
    fabric: str
    flows: List[Tuple[int, int]]
    spacing: float
    credits: int
    hoq_timeout: float
    unrouted: bool = False
    invalidate: Optional[int] = None
    dead_cable: Optional[int] = None
    late: List[Tuple[int, int, float]] = field(default_factory=list)
    callbacks: List[Tuple[float, str, int, int]] = field(default_factory=list)
    sweep_period: Optional[float] = None
    until: Optional[float] = None
    second: List[Tuple[int, int]] = field(default_factory=list)


def play(simulator, sc: Scenario):
    """Build the fabric, run *sc* on *simulator*, return what it left."""
    reset_hub()
    build, engine = FABRICS[sc.fabric]
    built = build()
    topo = built.topology
    sm = SubnetManager(topo, built=built, engine=engine)
    sm.initial_configure(with_discovery=False)
    lids = [h.lid for h in topo.hcas]

    def lid(i):
        return lids[i % len(lids)]

    rec = VSwitchReconfigurer(sm)
    if sc.invalidate is not None:
        rec.invalidate_lid(lid(sc.invalidate))
    if sc.dead_cable is not None:
        cables = [
            link for link in topo.links
            if all(isinstance(end.node, Switch) for end in link.ends)
        ]
        topo.remove_link(cables[sc.dead_cable % len(cables)])
    sim = simulator(
        topo,
        channel_credits=sc.credits,
        hop_time=1e-6,
        hoq_timeout=sc.hoq_timeout,
        lid_to_vl=sm.current_tables.metadata.get("lid_to_vl"),
    )
    perf = None
    raised = None
    try:
        flows = [(lid(i), lid(j)) for i, j in sc.flows]
        if sc.unrouted:
            flows.append((lid(0), UNROUTED))
        sim.inject_flows(flows, spacing=sc.spacing)
        for i, j, delay in sc.late:
            sim.inject(lid(i), lid(j), delay=delay)
        for when, op, i, j in sc.callbacks:
            if op == "swap":
                action = lambda a=lid(i), b=lid(j): rec.swap_lids(a, b)
            elif op == "copy":
                action = lambda a=lid(i), b=lid(j): rec.copy_path(a, b)
            else:
                action = lambda a=lid(i): rec.invalidate_lid(a)
            sim.engine.schedule(when, action)
        if sc.sweep_period is not None:
            perf = PerfManager(sm, period=sc.sweep_period)
            perf.attach(sim.engine, until=4 * sc.sweep_period)
        if sc.until is not None:
            sim.run(until=sc.until)
            sim.inject_flows([(lid(i), lid(j)) for i, j in sc.second])
        sim.run()
    except ReproError as exc:
        raised = (type(exc), str(exc))
    st_ = sim.stats
    return {
        "raised": raised,
        "stats": (
            st_.injected, st_.delivered, st_.dropped_no_route,
            st_.dropped_timeout, st_.dropped_port255, st_.in_flight,
        ),
        "latencies": st_.latencies,
        "dropped_by_port": list(st_.dropped_by_port.items()),
        "flows": list(st_.flows.items()),
        "now": sim.engine.now,
        "events": sim.engine.events_processed,
        "counters": [
            (node.name, [(p, c.as_dict()) for p, c in node.counters.items()])
            for node in topo.switches + topo.hcas
        ],
        "perf": None if perf is None else (
            perf.store.to_json(), [vars(r) for r in perf.reports],
        ),
    }


def assert_same(sc: Scenario):
    kernel = play(DataPlaneSimulator, sc)
    oracle = play(ClosureDataPlane, sc)
    for key in oracle:
        assert kernel[key] == oracle[key], key
    return kernel


pair = st.tuples(st.integers(0, 300), st.integers(0, 300))


@st.composite
def scenarios(draw, fabrics=tuple(FABRICS)):
    fabric = draw(st.sampled_from(fabrics))
    flows = draw(st.lists(pair, min_size=1, max_size=60))
    shape = draw(st.sampled_from(["random", "incast", "chase"]))
    if shape == "incast":
        # Everyone onto one host: credit waits, xmit-wait, HOQ drops.
        flows = [(src, flows[0][1]) for src, _ in flows]
    elif shape == "chase" and fabric.startswith("ring6"):
        # Every host to the host three ahead: minimal routes chase each
        # other around the ring (the §VI-C deadlock).
        flows = [(i, i + 3) for i in range(6)] * draw(st.integers(1, 4))
    return Scenario(
        fabric=fabric,
        flows=flows,
        spacing=draw(st.sampled_from([0.0, 1e-7, 5e-7, 2e-6])),
        credits=draw(st.integers(1, 4)),
        hoq_timeout=draw(st.sampled_from([2e-6, 3e-6, 5e-6, 2e-5, 1e-3])),
        unrouted=draw(st.booleans()),
        invalidate=draw(st.none() | st.integers(0, 300)),
        dead_cable=draw(st.none() | st.integers(0, 10_000)),
        late=draw(st.lists(
            st.tuples(st.integers(0, 300), st.integers(0, 300),
                      st.sampled_from([0.0, 3e-6, 1e-6, 2e-5, 7e-6])),
            max_size=6,
        )),
        callbacks=draw(st.lists(
            st.tuples(st.sampled_from([0.0, 2e-6, 5e-6, 1.2e-5, 4e-5]),
                      st.sampled_from(["swap", "copy", "invalidate"]),
                      st.integers(0, 300), st.integers(0, 300)),
            max_size=3,
        )),
        sweep_period=draw(st.none() | st.sampled_from([3e-6, 1e-5])),
        until=draw(st.none() | st.sampled_from([0.0, 4e-6, 1.5e-5])),
        second=draw(st.lists(pair, max_size=20)),
    )


suite = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestKernelEqualsTheClosureSimulator:
    @suite
    @given(sc=scenarios())
    def test_any_scenario(self, sc):
        assert_same(sc)

    @settings(max_examples=25, deadline=None)
    @given(sc=scenarios(fabrics=("ring6-minhop",)))
    def test_deadlocked_ring(self, sc):
        assert_same(sc)

    def test_ring_deadlock_is_resolved_by_hoq_drops_in_both(self):
        sc = Scenario("ring6-minhop", [(i, i + 3) for i in range(6)] * 4,
                      spacing=0.0, credits=1, hoq_timeout=5e-5)
        out = assert_same(sc)
        injected, delivered, _, timeouts, _, in_flight = out["stats"]
        assert timeouts > 0 and delivered > 0 and in_flight == 0

    def test_dfsssp_lanes_keep_the_same_ring_deadlock_free(self):
        sc = Scenario("ring6-dfsssp", [(i, i + 3) for i in range(6)] * 4,
                      spacing=0.0, credits=1, hoq_timeout=5e-5)
        out = assert_same(sc)
        injected, delivered, _, timeouts, _, _ = out["stats"]
        assert timeouts == 0 and delivered == injected

    def test_dead_port_holds_for_the_lifetime_then_drops(self):
        sc = Scenario("2l-small", [(0, 35), (1, 34), (2, 30)] * 3,
                      spacing=1e-7, credits=2, hoq_timeout=2e-5, dead_cable=0)
        out = assert_same(sc)
        assert out["stats"][2] > 0  # no_route drops at the dead port

    def test_mid_flight_swap_copy_invalidate_and_sweeps(self):
        sc = Scenario(
            "2l-small", [(0, 35), (3, 20), (7, 11)] * 6, spacing=1e-6,
            credits=1, hoq_timeout=1e-3, unrouted=True,
            late=[(4, 30, 2e-5), (5, 31, 3e-6), (6, 32, 0.0)],
            callbacks=[(2e-6, "swap", 35, 20), (5e-6, "copy", 11, 30),
                       (1.2e-5, "invalidate", 31, 0)],
            sweep_period=3e-6, until=4e-6, second=[(1, 2), (2, 1)],
        )
        out = assert_same(sc)
        assert out["perf"] is not None and out["stats"][4] > 0


class TestRejectedInjections:
    """A refused injection books nothing (it used to count as injected and
    stay in flight forever)."""

    @pytest.mark.parametrize("simulator", [DataPlaneSimulator, ClosureDataPlane])
    def test_negative_delay_and_spacing(self, simulator, small_fattree):
        sm = SubnetManager(small_fattree.topology, built=small_fattree)
        sm.initial_configure(with_discovery=False)
        a, b, c = (h.lid for h in small_fattree.topology.hcas[:3])
        sim = simulator(small_fattree.topology)
        with pytest.raises(SimulationError):
            sim.inject(a, b, delay=-1e-6)
        with pytest.raises(SimulationError):
            sim.inject_flows([(a, b), (b, c), (c, a)], spacing=-1e-7)
        assert sim.stats.injected == 0
        sim.inject(a, b)
        stats = sim.run()
        assert (stats.injected, stats.delivered, stats.in_flight) == (1, 1, 0)

    def test_a_bad_source_in_a_burst_books_none_of_it(self, small_fattree):
        sm = SubnetManager(small_fattree.topology, built=small_fattree)
        sm.initial_configure(with_discovery=False)
        a, b = (h.lid for h in small_fattree.topology.hcas[:2])
        sim = DataPlaneSimulator(small_fattree.topology)
        with pytest.raises(SimulationError):
            sim.inject_flows([(a, b), (UNROUTED, a)])
        assert sim.stats.injected == 0
        assert sim.run().in_flight == 0
        assert sim.engine.events_processed == 0

    def test_a_finished_burst_is_freed_without_the_cycle_collector(
        self, small_fattree
    ):
        sm = SubnetManager(small_fattree.topology, built=small_fattree)
        sm.initial_configure(with_discovery=False)
        lids = [h.lid for h in small_fattree.topology.hcas[:6]]
        gc.disable()
        try:
            sim = DataPlaneSimulator(small_fattree.topology)
            sim.inject_flows([(a, b) for a in lids for b in lids if a != b])
            assert sim.run().in_flight == 0
            ref = weakref.ref(sim)
            del sim
            assert ref() is None
        finally:
            gc.enable()

    def test_inject_returns_packet_indices(self, small_fattree):
        sm = SubnetManager(small_fattree.topology, built=small_fattree)
        sm.initial_configure(with_discovery=False)
        a, b = (h.lid for h in small_fattree.topology.hcas[:2])
        sim = DataPlaneSimulator(small_fattree.topology)
        assert sim.inject(a, b) == 0
        assert list(sim.inject_flows([(a, b), (b, a)])) == [1, 2]


class TestBurstLoop:
    """What the burst loop owes the engine it runs on."""

    def test_run_from_a_heap_callback_raises(self, small_fattree):
        sm = SubnetManager(small_fattree.topology, built=small_fattree)
        sm.initial_configure(with_discovery=False)
        a, b = (h.lid for h in small_fattree.topology.hcas[:2])
        sim = DataPlaneSimulator(small_fattree.topology)
        sim.inject_flows([(a, b), (b, a)])
        errors = []

        def nested():
            try:
                sim.run()
            except SimulationError as exc:
                errors.append(exc)

        sim.engine.schedule(5e-7, nested)
        stats = sim.run()
        assert len(errors) == 1
        assert (stats.delivered, stats.in_flight) == (2, 0)

    def test_an_event_that_raises_is_not_counted(self):
        # The packet's arrival at t = 0 is drawn first and counts; the
        # swap of a LID with itself raises and does not.
        sc = Scenario("2l-small", [(0, 5)], spacing=0.0, credits=1,
                      hoq_timeout=1e-3, callbacks=[(0.0, "swap", 3, 3)])
        out = assert_same(sc)
        assert out["raised"] is not None
        assert out["events"] == 1

    def test_the_clock_ends_on_the_last_expiry_even_when_stale(self):
        # Incast with one credit: packets wait, are granted long before
        # their lifetime ends, and every expiry fires on a gone packet.
        sc = Scenario("2l-small", [(i, 0) for i in range(1, 12)], spacing=1e-7,
                      credits=1, hoq_timeout=1e-3)
        out = assert_same(sc)
        injected, delivered, _, timeouts, _, _ = out["stats"]
        assert delivered == injected and timeouts == 0
        assert max(out["latencies"]) < 1e-4
        assert out["now"] > 1e-3


class TestOneDataPlaneKernelGuards:
    """The CI guard greps of the "one data-plane kernel" job."""

    def test_the_kernel_schedules_no_closures(self):
        text = (SRC / "sim" / "dataplane.py").read_text()
        assert not re.search(r"\blambda\b", text)
        nested = [
            line for line in text.splitlines()
            if re.match(r"\s{8,}def ", line)
        ]
        assert not nested
        assert "engine.schedule(" not in text
        assert "partial(" not in text

    def test_no_engine_lane_is_left(self):
        for path in SRC.rglob("*.py"):
            text = path.read_text()
            assert not re.search(r"^class Lane\b", text, re.M), path
            assert ".lane(" not in text, path

    def test_heapq_is_the_engines_alone(self):
        users = {
            path.relative_to(SRC).as_posix()
            for path in SRC.rglob("*.py")
            if re.search(r"^\s*(import heapq|from heapq )", path.read_text(), re.M)
        }
        assert users == {"sim/engine.py"}

    def test_the_closure_simulator_is_an_oracle(self):
        assert (ROOT / "tests" / "oracles" / "dataplane.py").exists()
        for path in (SRC / "sim").rglob("*.py"):
            assert not re.search(r"^class (Packet|Event)\b", path.read_text(), re.M)
