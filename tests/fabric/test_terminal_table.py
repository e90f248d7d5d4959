"""The terminal table against the walk it replaced.

``Topology`` records where every LID attaches — ``lid_switch[lid]`` and
``lid_port[lid]`` — and only its LID registry, HCA cabling and switch
removal write the two arrays. After every drawn step of a random event
sequence (LID bind/unbind/rebind, VM boot/stop/migrate, an HCA re-cabled
— its cable pulled through the topology or out of band —, a switch
cable failed or restored, a switch added or removed) the table must
equal the oracle walk of ``tests/oracles/terminals.py`` over the whole
unicast LID space, ``Topology.terminals()`` must refuse exactly when the
walk finds a bound LID attached nowhere, and the topology's set of
uncabled HCAs must be the HCA walk's.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.constants import MAX_UNICAST_LID
from repro.errors import ReproError, TopologyError
from repro.fabric.addressing import LidAllocator
from repro.fabric.builders.generic import (
    build_random_regular,
    build_ring,
    build_torus_2d,
)
from repro.fabric.node import Switch
from repro.fabric.presets import scaled_fattree
from repro.fabric.topology import Topology, TopologyMutation
from repro.sm.lid_manager import LidManager
from repro.virt.cloud import CloudManager
from tests.oracles import terminals as oracle

FABRICS = {
    "fattree": lambda: scaled_fattree("2l-small"),
    "ring": lambda: build_ring(5, 2, switch_radix=6),
    "torus": lambda: build_torus_2d(3, 3, 1),
    "random-regular": lambda: build_random_regular(8, 3, 1, seed=5),
}

STEPS = (
    "bind", "unbind", "rebind", "boot", "stop", "migrate",
    "recable", "fail_cable", "restore_cable", "add_switch", "remove_switch",
)


def assert_table_is_the_walk(topo: Topology) -> None:
    """The live table equals the walk; ``terminals()`` refuses exactly
    when a bound LID attaches nowhere, else returns the table up to the
    highest bound LID; the uncabled HCAs are the walk's."""
    assert sorted(hca.name for hca in topo._uncabled) == sorted(oracle.uncabled(topo))
    want_switch, want_port = oracle.table(topo)
    bound = topo.bound_lids()
    if len(oracle.attachments(topo)) < len(bound):
        with pytest.raises(TopologyError):
            topo.terminals()
        return
    lid_switch, lid_port = topo.terminals()
    end = (bound[-1] if bound else 0) + 1
    assert lid_switch.dtype == np.int32 and lid_port.dtype == np.int16
    assert np.array_equal(lid_switch, want_switch[:end])
    assert np.array_equal(lid_port, want_port[:end])
    assert (want_port[end:] == -1).all()
    assert topo.switch_lids().tolist() == [
        lid for lid, (_, port) in oracle.attachments(topo).items() if port == 0
    ]


def hca_ports(topo):
    return [hca.port(1) for hca in topo.hcas]


def switch_cables(topo):
    return [
        link for link in topo.links
        if isinstance(link.a.node, Switch) and isinstance(link.b.node, Switch)
    ]


def step(cloud, kind, pick, world):
    """Apply one drawn step; a refused one leaves the subnet as it was."""
    topo, sm = cloud.topology, cloud.sm
    extra = world["extra"]
    if kind == "bind":
        port = hca_ports(topo)[pick % topo.num_hcas]
        extra.append(sm.lid_manager.assign_extra_lid(port))
    elif kind == "unbind" and extra:
        sm.lid_manager.release_lid(extra.pop(pick % len(extra)))
    elif kind == "rebind" and extra:
        sm.lid_manager.move_lid(extra[pick % len(extra)], hca_ports(topo)[pick % topo.num_hcas])
    elif kind == "boot":
        cloud.boot_vm(on=sorted(cloud.hypervisors)[pick % len(cloud.hypervisors)])
    elif kind == "stop" and cloud.vms:
        cloud.stop_vm(sorted(cloud.vms)[pick % len(cloud.vms)])
    elif kind == "migrate" and cloud.vms:
        vm = sorted(cloud.vms)[pick % len(cloud.vms)]
        cloud.live_migrate(vm, sorted(cloud.hypervisors)[pick % len(cloud.hypervisors)])
    elif kind == "recable":
        # Unplugged, the HCA's LIDs attach nowhere; plugged into a free
        # port of another switch (its own port without one), they follow.
        # An odd pick pulls the cable out of band.
        hca = topo.hcas[pick % topo.num_hcas]
        home = hca.port(1).remote
        if pick % 2:
            hca.port(1).link.disconnect()
        else:
            topo.remove_link(hca.port(1).link)
        assert_table_is_the_walk(topo)
        free = [(sw, p.num) for sw in topo.switches for p in sw.free_ports() if sw is not home.node]
        sw, num = free[pick % len(free)] if free else (home.node, home.num)
        topo.connect(hca, 1, sw, num)
    elif kind == "fail_cable":
        cables = switch_cables(topo)
        link = cables[pick % len(cables)]
        world["failed"].append(TopologyMutation.cable("restore_link", link))
        sm.handle_topology_change(TopologyMutation.cable("remove_link", link), verify=False)
    elif kind == "restore_cable" and world["failed"]:
        sm.handle_topology_change(world["failed"].pop(), verify=False)
    elif kind == "add_switch":
        world["grown"] += 1
        frees = [(sw.name, p.num) for sw in topo.switches for p in sw.free_ports()][pick % 7 :][:2]
        cables = tuple((i + 1, name, num) for i, (name, num) in enumerate(frees))
        sm.handle_topology_change(
            TopologyMutation(kind="add_switch", a=f"new{world['grown']}", num_ports=4, cables=cables),
            verify=False,
        )
    elif kind == "remove_switch":
        bare = [sw for sw in topo.switches if not sw.attached_hcas()]
        if bare:
            sw = bare[pick % len(bare)]
            sm.handle_topology_change(TopologyMutation(kind="remove_switch", a=sw.name), verify=False)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    fabric=st.sampled_from(sorted(FABRICS)),
    steps=st.lists(
        st.tuples(st.sampled_from(STEPS), st.integers(0, 255)), min_size=1, max_size=14
    ),
)
def test_the_table_equals_the_walk_after_every_step(fabric, steps):
    built = FABRICS[fabric]()
    cloud = CloudManager(built.topology, built=built, lid_scheme="dynamic", num_vfs=2)
    cloud.adopt_all_hcas()
    cloud.bring_up_subnet()
    assert_table_is_the_walk(cloud.topology)
    world = {"extra": [], "failed": [], "grown": 0}
    for kind, pick in steps:
        try:
            step(cloud, kind, pick, world)
        except ReproError:
            pass  # refused (a cut fabric, a full hypervisor): nothing moved
        assert_table_is_the_walk(cloud.topology)


def test_a_removed_switch_shifts_the_lids_of_the_switches_after_it():
    built = scaled_fattree("2l-small")
    topo = built.topology
    LidManager(topo).assign_base_lids()
    spine = next(sw for sw in topo.switches if not sw.attached_hcas())
    topo.unbind_lid(spine.lid)
    spine.lid = None
    topo.remove_switch(spine)
    assert_table_is_the_walk(topo)


class TestLidBounds:
    @pytest.mark.parametrize("lid", (0, -1, MAX_UNICAST_LID + 1))
    def test_a_lid_outside_the_unicast_range_does_not_bind(self, lid):
        topo = scaled_fattree("2l-small").topology
        with pytest.raises(TopologyError, match="outside unicast range"):
            topo.bind_lid(lid, topo.hcas[0].port(1))
        assert topo.num_lids == 0

    def test_the_last_unicast_lid_binds(self):
        topo = scaled_fattree("2l-small").topology
        topo.bind_lid(MAX_UNICAST_LID, topo.hcas[0].port(1))
        lid_switch, lid_port = topo.terminals()
        assert lid_switch.size == MAX_UNICAST_LID + 1
        assert lid_port[-1] == topo.hcas[0].port(1).remote.num

    def test_a_switch_external_port_takes_no_lid(self):
        topo = scaled_fattree("2l-small").topology
        with pytest.raises(TopologyError, match="carries no LID"):
            topo.bind_lid(5, topo.switches[0].port(1))

    @pytest.mark.parametrize("lid", (0, MAX_UNICAST_LID + 1))
    def test_the_allocator_is_rolled_back_when_the_bind_is_refused(self, lid):
        topo = scaled_fattree("2l-small").topology
        lids = LidManager(topo, allocator=_HandsOut(lid))
        with pytest.raises(TopologyError, match="outside unicast range"):
            lids.assign_extra_lid(topo.hcas[0].port(1))
        assert lids.allocator.allocated_count == 0
        assert topo.num_lids == 0

    def test_a_refused_lmc_run_is_rolled_back_whole(self):
        topo = scaled_fattree("2l-small").topology
        lids = LidManager(topo)
        topo.bind_lid(5, topo.hcas[1].port(1))  # behind the allocator's back
        with pytest.raises(TopologyError, match="already bound"):
            lids.assign_lmc_lids(topo.hcas[0].port(1), 2)  # the run 4-7
        assert lids.allocator.allocated_count == 0
        assert topo.bound_lids() == [5]


class _HandsOut(LidAllocator):
    """An allocator whose next LID is one the topology must refuse."""

    def __init__(self, lid: int) -> None:
        super().__init__()
        self.lid = lid

    def allocate(self) -> int:
        self._in_use.add(self.lid)
        return self.lid
