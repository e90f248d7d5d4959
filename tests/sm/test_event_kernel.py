"""The SM's two primitives: one state kernel, one converge step.

* Every cable/switch event goes through ``SubnetManager._apply`` and is
  applied whole or refused whole: whichever entry point carried it, a
  refused event leaves topology, LIDs, builder levels, the routing cache
  and the hardware/SM agreement exactly as they were, and costs no SMP.
* Every sweep that answers an event is ``SubnetManager._converge`` —
  ``discover -> compute_routing -> distribute`` is spelt once in
  ``src/repro`` (the CI guard greps are repeated here so tier-1 holds
  them too).
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.verification import verify_subnet
from repro.errors import TopologyError
from repro.fabric.graph import all_pairs_switch_distances, candidate_table
from repro.fabric.node import Switch
from repro.fabric.presets import scaled_fattree
from repro.fabric.topology import TopologyMutation
from repro.obs.hub import get_hub
from repro.sm.ha import HighAvailabilityManager
from repro.sm.subnet_manager import SubnetManager
from repro.sm.traps import FabricEventManager
from tests.conftest import subnet_fingerprint as snapshot

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def assert_cache_matches_rebuild(sm):
    view = sm.topology.fabric_view()
    dist = all_pairs_switch_distances(view)
    assert np.array_equal(sm.routing_state.distances(), dist)
    cand, cnt = sm.routing_state.candidate_table()
    cold_cand, cold_cnt = candidate_table(view, dist)
    assert np.array_equal(cnt, cold_cnt)
    assert np.array_equal(cand[..., : cold_cand.shape[2]], cold_cand)


@pytest.fixture
def fragile():
    """A fat-tree degraded until ``leaf0`` hangs off one spine.

    Its last uplink is a bridge and that spine a cut vertex: losing
    either would partition the switch fabric. Returns
    ``(sm, bridge_link, cut_vertex_switch)``.
    """
    built = scaled_fattree("2l-small")
    sm = SubnetManager(built.topology, engine="minhop", built=built)
    sm.initial_configure(with_discovery=False)
    leaf = built.topology.node("leaf0")
    uplinks = [
        p.link for p in leaf.connected_ports() if isinstance(p.remote.node, Switch)
    ]
    for link in uplinks[1:]:
        sm.handle_link_failure(link)
    sm.routing_state.candidate_table()  # warm, so refusals must repair it
    bridge = uplinks[0]
    return sm, bridge, bridge.other_end(
        next(p for p in bridge.ends if p.node is leaf)
    ).node


def link_removal(link):
    return TopologyMutation.cable("remove_link", link)


def switch_removal(sw):
    return TopologyMutation(kind="remove_switch", a=sw.name)


#: entry point name -> callable(sm, bridge, cut_vertex) that must be refused
REFUSED = {
    "handle_link_failure": lambda sm, link, sw: sm.handle_link_failure(link),
    "handle_switch_failure": lambda sm, link, sw: sm.handle_switch_failure(sw),
    "handle_topology_change(remove_link)": lambda sm, link, sw: (
        sm.handle_topology_change(link_removal(link))
    ),
    "handle_topology_change(remove_switch)": lambda sm, link, sw: (
        sm.handle_topology_change(switch_removal(sw))
    ),
    "apply_topology_mutation(remove_link)": lambda sm, link, sw: (
        sm.apply_topology_mutation(link_removal(link))
    ),
    "apply_topology_mutation(remove_switch)": lambda sm, link, sw: (
        sm.apply_topology_mutation(switch_removal(sw))
    ),
    "link_down": lambda sm, link, sw: FabricEventManager(sm).link_down(link),
    "report_link_down": lambda sm, link, sw: (
        FabricEventManager(sm).report_link_down(link)
    ),
    "report_topology_change(remove_link)": lambda sm, link, sw: (
        FabricEventManager(sm).report_topology_change(link_removal(link))
    ),
    "report_topology_change(remove_switch)": lambda sm, link, sw: (
        FabricEventManager(sm).report_topology_change(switch_removal(sw))
    ),
}


class TestUnifiedRefusal:
    @pytest.mark.parametrize("entry", sorted(REFUSED))
    def test_partitioning_event_is_refused_whole(self, fragile, entry):
        sm, bridge, cut_vertex = fragile
        assert verify_subnet(sm).ok
        before = snapshot(sm)
        with pytest.raises(TopologyError):
            REFUSED[entry](sm, bridge, cut_vertex)
        assert snapshot(sm) == before  # incl. zero SMPs spent
        sm.topology.validate()
        assert_cache_matches_rebuild(sm)
        assert verify_subnet(sm).ok
        # The SM carries on: the next sweep finds nothing to do and the
        # routing it computes is what a cold engine computes.
        report = sm.incremental_reroute()
        assert report.lft_smps == 0
        assert sm.current_tables.ports.tobytes() == before["tables"]

    def test_refused_link_event_repairs_instead_of_recomputing(self, fragile):
        # The failure note and the undo's restore note chain: the cache
        # absorbs the refused flap without an all-pairs recompute.
        sm, bridge, _ = fragile
        stats = sm.routing_state.stats.snapshot()
        with pytest.raises(TopologyError):
            sm.handle_link_failure(bridge)
        sm.compute_routing()
        delta = sm.routing_state.stats.delta_since(stats)
        assert delta["full_recomputes"] == 0
        assert delta["candidate_misses"] == 0

    def test_refused_planned_change_is_not_announced(self, fragile):
        sm, bridge, cut_vertex = fragile
        ha = HighAvailabilityManager(sm)
        for i, hca in enumerate(sm.topology.hcas[:2]):
            ha.register(hca.name, guid=10 + i, priority=5 - i)
        ha.bootstrap()
        journaled = ha.journal.head_seq
        counters = get_hub().metrics
        for mutation in (link_removal(bridge), switch_removal(cut_vertex)):
            counted = counters.counter(
                "repro_topology_mutations_total", kind=mutation.kind
            ).value
            with pytest.raises(TopologyError):
                sm.apply_topology_mutation(mutation)
            assert ha.journal.head_seq == journaled
            assert (
                counters.counter(
                    "repro_topology_mutations_total", kind=mutation.kind
                ).value
                == counted
            )

    def test_hca_cable_failure_is_refused_with_the_cable_back(self, fragile):
        sm, _, _ = fragile
        hca = sm.topology.hcas[0]
        before = snapshot(sm)
        with pytest.raises(TopologyError, match="no cable"):
            sm.handle_link_failure(hca.port(1).link)
        assert snapshot(sm) == before
        assert hca.port(1).is_connected

    def test_leaf_switch_failure_is_refused_before_its_lid_is_released(
        self, fragile
    ):
        sm, _, _ = fragile
        leaf = sm.topology.node("leaf1")
        before = snapshot(sm)
        with pytest.raises(TopologyError, match="HCAs attached"):
            sm.handle_switch_failure(leaf)
        assert snapshot(sm) == before
        assert sm.topology.port_of_lid(leaf.lid) is leaf.management_port

    def test_uncabled_new_switch_is_refused_and_removed_again(self, fragile):
        sm, _, _ = fragile
        before = snapshot(sm)
        with pytest.raises(TopologyError, match="disconnected"):
            sm.handle_topology_change(
                TopologyMutation(kind="add_switch", a="island", num_ports=4, level=1)
            )
        assert "island" not in sm.topology
        assert snapshot(sm) == before
        assert_cache_matches_rebuild(sm)

    def test_half_cabled_new_switch_leaves_nothing_behind(self, fragile):
        sm, _, cut_vertex = fragile
        before = snapshot(sm)
        free = next(cut_vertex.free_ports()).num
        with pytest.raises(TopologyError):
            sm.apply_topology_mutation(
                TopologyMutation(
                    kind="add_switch",
                    a="half",
                    num_ports=4,
                    cables=((1, cut_vertex.name, free), (2, "no-such-switch", 1)),
                )
            )
        assert "half" not in sm.topology
        assert snapshot(sm) == before
        assert_cache_matches_rebuild(sm)

    def test_event_naming_nothing_is_refused_untouched(self, fragile):
        sm, bridge, _ = fragile
        leaf = sm.topology.node("leaf0")
        unplugged = next(leaf.free_ports()).num  # an uplink the fixture cut
        version = sm.topology.version
        with pytest.raises(TopologyError, match="no cable"):
            sm.apply_topology_mutation(
                TopologyMutation(kind="remove_link", a=leaf.name, port_a=unplugged)
            )
        assert sm.topology.version == version


class TestConvergeStep:
    def test_every_flow_reports_through_one_converge(self, fragile, monkeypatch):
        sm, _, _ = fragile
        calls = []
        inner = sm._converge

        def spy(name=None, **kw):
            calls.append(name)
            return inner(name, **kw)

        monkeypatch.setattr(sm, "_converge", spy)
        events = FabricEventManager(sm)
        link = next(
            l
            for l in sm.topology.links
            if min(l.switch_ends) >= 0 and "leaf0" not in (l.a.node.name, l.b.node.name)
        )
        spec = TopologyMutation.cable("restore_link", link)
        sm.full_reconfigure()
        sm.incremental_reroute()
        events.link_down(link)
        events.link_up(spec.a, spec.port_a, spec.b, spec.port_b)
        # (verify=False: minhop on a twice-degraded tree is legitimately
        # deadlock-prone, an engine property the audit would flag.)
        sm.handle_topology_change(
            link_removal(sm.topology.node(spec.a).port(spec.port_a).link),
            verify=False,
        )
        events.report_topology_change(spec)
        events.pump(force=True)
        spine = next(
            sw
            for sw in sm.topology.switches
            if not sw.attached_hcas()
            and not sm.topology.fabric_view().unreached(without_switch=sw.index)
        )
        sm.handle_switch_failure(spine)
        assert calls == [
            "full_reconfigure",
            "incremental_reroute",
            "link_failure_reroute",
            None,
            "topology_change",
            "trap_pump",
            "switch_failure_reroute",
        ]
        assert verify_subnet(sm, static=False).ok

    def test_adopted_tables_pay_no_path_computation(self, fragile):
        sm, _, _ = fragile
        computations = get_hub().metrics.counter("repro_path_computations_total")
        before = computations.value
        report = sm._converge(tables=sm.current_tables)
        assert computations.value == before
        assert report.path_compute_seconds == 0.0
        assert report.discovery is not None and report.lft_smps == 0

    def test_sequence_is_spelt_once_in_src(self):
        """The CI guard greps, held by tier-1 too."""
        discover_calls, note_calls = [], []
        for path in sorted(SRC.rglob("*.py")):
            rel = path.relative_to(SRC).as_posix()
            for line in path.read_text().splitlines():
                if re.search(r"\.discover\(\)", line):
                    discover_calls.append(rel)
                if re.search(
                    r"\.note_(link_failure|link_restored|link_addition"
                    r"|switch_removal|switch_addition)\b",
                    line,
                ):
                    note_calls.append(rel)
        assert discover_calls == ["sm/subnet_manager.py"]
        assert set(note_calls) <= {"sm/subnet_manager.py", "sm/routing/cache.py"}
        assert not (SRC / "sm" / "handover.py").exists()
