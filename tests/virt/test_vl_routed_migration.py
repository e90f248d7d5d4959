"""vSwitch migration on VL-routed fabrics: the lane plane moves with the ports.

A migration is a column edit under any routing engine (§I, "topology
agnostic"). On DFSSSP and LASH the edit must move the lane plane with the
ports — on the master's recorded tables and on every standby's replica —
or a ring or torus fails its own audit after one move (VLC003 for a
copied LID without a lane, VLC001 for swapped ports on unswapped lanes).

* :class:`TestSeededMigrations` — ring6 and torus3x3 x {dfsssp, lash} x
  both LID schemes, 30 seeded migrations (plus one coalesced boot batch
  on the dynamic scheme): the audit is clean and the standby's rebuilt
  tables equal the master's in ports and lanes after every op.
* :class:`TestDrawnOps` — the same two invariants over hypothesis-drawn
  boot / stop / migrate / boot-batch sequences on rings, tori and random
  regular graphs, with and without the skyline-limited intra-leaf edit.
* :class:`TestIntraLeafEdit` — seeded intra-leaf moves on a DFSSSP torus:
  the lanes move on the rows the ports move, and no others.
"""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.verification import verify_subnet
from repro.fabric.builders.generic import (
    build_random_regular,
    build_ring,
    build_torus_2d,
)
from repro.sm.ha import HighAvailabilityManager
from repro.virt.cloud import CloudManager

FABRICS = {
    "ring6": lambda: build_ring(6, 3),
    "torus3x3": lambda: build_torus_2d(3, 3, 2),
}


def vl_cloud(built, engine, scheme):
    """A brought-up cloud whose SM replicates to one standby."""
    cloud = CloudManager(
        built.topology, built=built, routing_engine=engine, num_vfs=4,
        lid_scheme=scheme,
    )
    cloud.adopt_all_hcas()
    cloud.bring_up_subnet()
    ha = HighAvailabilityManager(cloud.sm)
    hcas = built.topology.hcas
    ha.register(hcas[0].name, guid=10, priority=10)
    ha.register(hcas[1].name, guid=20, priority=5)
    ha.bootstrap()
    return cloud, ha


def assert_consistent(cloud, ha, label):
    """The audit is clean and every standby holds the master's planes."""
    report = verify_subnet(cloud.sm)
    assert report.ok, (label, report.problems())
    master = cloud.sm.current_tables
    assert master.lanes is not None
    standbys = [p for p in ha.participants() if p is not ha.master]
    assert standbys
    for standby in standbys:
        replica = ha.replica(standby.node_name).routing_tables()
        assert np.array_equal(replica.ports, master.ports), label
        assert replica.lanes.dtype == np.int8, label
        assert np.array_equal(replica.lanes, master.lanes), label
        assert (replica.num_vls, replica.max_vls) == (master.num_vls, master.max_vls)


def free_destinations(cloud, vm):
    src = cloud.vms[vm].hypervisor_name
    return [
        h for h in sorted(cloud.hypervisors)
        if h != src and cloud.hypervisors[h].free_vf_count > 0
    ]


class TestSeededMigrations:
    @pytest.mark.parametrize("scheme", ["dynamic", "prepopulated"])
    @pytest.mark.parametrize("engine", ["dfsssp", "lash"])
    @pytest.mark.parametrize("fabric", sorted(FABRICS))
    def test_every_migration_audits_clean_on_master_and_replica(
        self, fabric, engine, scheme
    ):
        cloud, ha = vl_cloud(FABRICS[fabric](), engine, scheme)
        for i in range(6):
            cloud.boot_vm(f"vm{i}")
            assert_consistent(cloud, ha, ("boot", i))
        if scheme == "dynamic":
            cloud.boot_vms_batch([(f"batch{i}", None, None) for i in range(3)])
            assert_consistent(cloud, ha, "boot batch")
        rng = random.Random(1)
        for step in range(30):
            vm = rng.choice(sorted(cloud.vms))
            cloud.live_migrate(vm, rng.choice(free_destinations(cloud, vm)))
            assert_consistent(cloud, ha, ("migration", step))


BOOT, STOP, MIGRATE, BATCH = range(4)


class TestDrawnOps:
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        fabric=st.sampled_from(["ring", "torus", "random-regular"]),
        seed=st.integers(0, 2**16),
        engine=st.sampled_from(["dfsssp", "lash"]),
        scheme=st.sampled_from(["dynamic", "prepopulated"]),
        minimal=st.booleans(),
        ops=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 2**16)),
            min_size=1,
            max_size=10,
        ),
    )
    def test_audit_clean_and_replica_current_after_every_op(
        self, fabric, seed, engine, scheme, minimal, ops
    ):
        built = {
            "ring": lambda: build_ring(5, 2),
            "torus": lambda: build_torus_2d(3, 3, 2),
            "random-regular": lambda: build_random_regular(8, 3, 1, seed=seed),
        }[fabric]()
        cloud, ha = vl_cloud(built, engine, scheme)
        # Intra-leaf moves then edit the ports of their leaf alone (§VI-D).
        cloud.orchestrator.minimal_intra_leaf = minimal
        assert_consistent(cloud, ha, "bring-up")
        serial = 0
        for code, pick in ops:
            free = sum(h.free_vf_count for h in cloud.hypervisors.values())
            names = sorted(cloud.vms)
            if code == BOOT and free:
                cloud.boot_vm(f"d{serial}")
            elif code == BATCH and free >= 2:
                cloud.boot_vms_batch([(f"d{serial}", None, None), (f"e{serial}", None, None)])
            elif code == STOP and names:
                cloud.stop_vm(names[pick % len(names)])
            elif code == MIGRATE and names:
                vm = names[pick % len(names)]
                dests = free_destinations(cloud, vm)
                if not dests:
                    continue
                cloud.live_migrate(vm, dests[pick % len(dests)])
            else:
                continue
            serial += 1
            assert_consistent(cloud, ha, (code, pick))


def leaf_of(cloud, hypervisor):
    return cloud.hypervisors[hypervisor].hca.port(1).remote.node.index


class TestIntraLeafEdit:
    """The §VI-D intra-leaf edit rewrites the leaf's row alone. Every
    other row keeps the column's old DFSSSP tree, so it keeps that tree's
    lane too. Lanes moved on every row would put a tree on a lane it was
    never checked on: with these seeded intra- and inter-leaf moves on
    this torus, VLC001 fires from the twelfth move on in both schemes."""

    @pytest.mark.parametrize("scheme", ["dynamic", "prepopulated"])
    def test_intra_leaf_moves_audit_clean_on_master_and_replica(self, scheme):
        cloud, ha = vl_cloud(build_torus_2d(3, 3, 3), "dfsssp", scheme)
        cloud.orchestrator.minimal_intra_leaf = True
        for i in range(8):
            cloud.boot_vm(f"vm{i}")
        rng = random.Random(3)
        intra = 0
        for step in range(30):
            vm = rng.choice(sorted(cloud.vms))
            leaf = leaf_of(cloud, cloud.vms[vm].hypervisor_name)
            dests = free_destinations(cloud, vm)
            same = [h for h in dests if leaf_of(cloud, h) == leaf]
            if same and rng.random() < 0.5:
                dests = same
                intra += 1
            cloud.live_migrate(vm, rng.choice(dests))
            assert_consistent(cloud, ha, ("migration", step))
        assert intra >= 10
