"""End-to-end integration tests across the whole stack.

These exercise the exact claims of the paper on a running simulated cloud:
zero path computation per migration, bounded SMP counts, address
persistence, routing validity after long churn+migration histories, and the
traditional-baseline comparison.
"""

import numpy as np
import pytest

from repro.constants import LFT_UNSET
from repro.core.cost_model import table1_row
from repro.fabric.presets import scaled_fattree
from repro.sm.routing.base import RoutingRequest
from repro.analysis.verification import verify_subnet
from repro.workloads.churn import ChurnWorkload
from repro.workloads.migration_patterns import ANY, MigrationPlanner
from tests.conftest import make_cloud


def assert_all_routable(cloud):
    """Every bound LID is deliverable from every switch per the hardware
    LFTs (not the SM's recollection)."""
    topo = cloud.topology
    lid_to_leafport = {}
    for lid in topo.bound_lids():
        port = topo.port_of_lid(lid)
        attach = port.remote
        if attach is None:  # switch self-LID
            lid_to_leafport[lid] = (port.node.index, 0)
        else:
            lid_to_leafport[lid] = (attach.node.index, attach.num)
    switches = topo.switches
    for lid, (dest_sw, dest_port) in lid_to_leafport.items():
        for start in switches:
            cur = start
            hops = 0
            while True:
                if cur.index == dest_sw:
                    if dest_port == 0:
                        break
                    assert cur.route(lid) == dest_port, (
                        f"LID {lid} misdelivered at destination leaf"
                    )
                    break
                out = cur.route(lid)
                assert out != LFT_UNSET, f"LID {lid} unroutable at {cur.name}"
                nxt = None
                for p in cur.connected_ports():
                    if p.num == out:
                        nxt = p.remote.node
                assert nxt is not None and nxt.is_switch
                cur = nxt
                hops += 1
                assert hops <= len(switches), f"loop for LID {lid}"


class TestLongRunningCloud:
    @pytest.mark.parametrize("scheme", ["prepopulated", "dynamic"])
    def test_churn_then_migrations_keep_subnet_consistent(self, scheme):
        built = scaled_fattree("2l-small")
        cloud = make_cloud(built, lid_scheme=scheme, num_vfs=3)
        # Static analysis (CDG, reachability) before any reconfiguration...
        verify_subnet(cloud.sm).raise_if_failed()
        churn = ChurnWorkload(cloud, seed=11, target_utilization=0.5)
        churn.run(80)
        planner = MigrationPlanner(cloud, built, seed=11)
        executed = 0
        for _ in range(15):
            plan = planner.plan_one(ANY)
            if plan is None:
                break
            cloud.live_migrate(*plan)
            executed += 1
        assert executed >= 10
        assert_all_routable(cloud)
        # ...and after the full churn + migration history.
        verify_subnet(cloud.sm).raise_if_failed()

    @pytest.mark.parametrize("scheme", ["prepopulated", "dynamic"])
    def test_no_path_computation_during_operations(self, scheme):
        built = scaled_fattree("2l-small")
        cloud = make_cloud(built, lid_scheme=scheme, num_vfs=3)
        tables_obj = cloud.sm.current_tables
        ChurnWorkload(cloud, seed=2).run(40)
        planner = MigrationPlanner(cloud, built, seed=2)
        for _ in range(5):
            plan = planner.plan_one(ANY)
            if plan:
                cloud.live_migrate(*plan)
        # The SM never recomputed routing: same tables object, and PCt
        # was only ever charged once (at bring-up).
        assert cloud.sm.current_tables is tables_obj

    def test_migration_smps_within_table1_bounds(self):
        built = scaled_fattree("2l-small")
        cloud = make_cloud(built, lid_scheme="prepopulated", num_vfs=3)
        topo = cloud.topology
        row = table1_row(
            topo.num_hcas,
            topo.num_switches,
            extra_lids=3 * topo.num_hcas,
        )
        planner = MigrationPlanner(cloud, built, seed=5)
        ChurnWorkload(cloud, seed=5).run(40)
        for _ in range(10):
            plan = planner.plan_one(ANY)
            if plan is None:
                break
            report = cloud.live_migrate(*plan)
            assert 1 <= report.reconfig.lft_smps <= row.max_smps_swap

    def test_migrated_vm_round_trip_restores_lfts(self):
        built = scaled_fattree("2l-small")
        cloud = make_cloud(built, lid_scheme="prepopulated", num_vfs=3)
        vm = cloud.boot_vm(on="l0h0")
        snapshot = cloud.topology.lft.copy()
        cloud.live_migrate(vm.name, "l4h2")
        cloud.live_migrate(vm.name, "l0h0")
        # Swap-based migration is an involution: the original VF at the
        # destination got its LID back, so all LFTs are restored exactly.
        assert (cloud.topology.lft == snapshot).all()

    def test_many_vms_one_hypervisor_distinct_paths(self):
        # The LMC-like property (section V-A): VMs on one hypervisor are
        # reachable through different spines under prepopulation.
        built = scaled_fattree("2l-small")
        cloud = make_cloud(built, lid_scheme="prepopulated", num_vfs=4)
        vms = [cloud.boot_vm(on="l0h0") for _ in range(4)]
        remote_leaf = cloud.hypervisors["l5h0"].uplink_port.remote.node
        up_ports = {remote_leaf.route(vm.lid) for vm in vms}
        assert len(up_ports) > 1


class TestBaselineComparison:
    def test_vswitch_vs_traditional_smps(self):
        # The headline comparison: per-migration SMPs under the vSwitch
        # reconfiguration vs a traditional full reconfiguration.
        built = scaled_fattree("2l-small")
        cloud = make_cloud(built, lid_scheme="prepopulated", num_vfs=3)
        vm = cloud.boot_vm(on="l0h0")
        report = cloud.live_migrate(vm.name, "l5h5")
        full = cloud.sm.full_reconfigure()
        assert report.reconfig.lft_smps < full.lft_smps
        # And a full reconfiguration pays PCt again, the migration did not.
        assert full.path_compute_seconds > 0
        assert report.reconfig.path_compute_seconds == 0

    def test_traditional_full_rc_matches_cost_model(self):
        built = scaled_fattree("2l-small")
        cloud = make_cloud(built, lid_scheme="dynamic", num_vfs=3)
        full = cloud.sm.full_reconfigure()
        topo = cloud.topology
        row = table1_row(topo.num_hcas, topo.num_switches)
        assert full.lft_smps == row.min_smps_full_reconfig


class TestRoutingEnginesInTheCloud:
    @pytest.mark.parametrize("engine", ["minhop", "ftree", "updn"])
    def test_cloud_on_each_engine(self, engine):
        built = scaled_fattree("2l-small")
        cloud = make_cloud(
            built, lid_scheme="prepopulated", num_vfs=2, routing_engine=engine
        )
        vm = cloud.boot_vm(on="l0h0")
        report = cloud.live_migrate(vm.name, "l3h3")
        assert report.reconfig.lft_smps >= 1
        assert_all_routable(cloud)
