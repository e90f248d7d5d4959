"""Tests for the workload generators: churn, migration patterns, traffic."""

import pytest

from repro.constants import LFT_UNSET
from repro.errors import RoutingError, VirtError
from repro.sm.routing.base import RoutingRequest
from repro.workloads.churn import ChurnWorkload
from repro.workloads.migration_patterns import (
    ANY,
    INTER_POD,
    INTRA_LEAF,
    INTRA_POD,
    MigrationPlanner,
)
from repro.workloads.traffic import all_to_all_flows, link_loads
from tests.conftest import make_cloud


class TestChurn:
    def test_prepopulated_boots_cost_zero_smps(self, small_fattree):
        cloud = make_cloud(small_fattree, lid_scheme="prepopulated")
        churn = ChurnWorkload(cloud, seed=1, target_utilization=0.4)
        report = churn.run(60)
        assert report.boots > 0
        assert report.total_boot_smps == 0

    def test_dynamic_boots_cost_smps(self, small_fattree):
        cloud = make_cloud(small_fattree, lid_scheme="dynamic")
        churn = ChurnWorkload(cloud, seed=1, target_utilization=0.4)
        report = churn.run(60)
        assert report.boots > 0
        assert report.mean_boot_smps > 0
        # Section V-B: at most one SMP per switch per boot.
        n = cloud.topology.num_switches
        assert all(s <= n for s in report.boot_lft_smps)

    def test_hovers_near_target(self, small_fattree):
        cloud = make_cloud(small_fattree, lid_scheme="prepopulated")
        churn = ChurnWorkload(cloud, seed=3, target_utilization=0.5)
        churn.run(200)
        utilization = cloud.running_vm_count / cloud.total_capacity
        assert 0.2 < utilization < 0.8

    def test_reproducible(self, small_fattree):
        a = make_cloud(small_fattree, lid_scheme="prepopulated")
        r1 = ChurnWorkload(a, seed=9).run(50)
        from repro.fabric.presets import scaled_fattree

        b = make_cloud(scaled_fattree("2l-small"), lid_scheme="prepopulated")
        r2 = ChurnWorkload(b, seed=9).run(50)
        assert (r1.boots, r1.stops) == (r2.boots, r2.stops)

    def test_bad_utilization_rejected(self, prepopulated_cloud):
        with pytest.raises(VirtError):
            ChurnWorkload(prepopulated_cloud, target_utilization=0.0)


class TestMigrationPlanner:
    @pytest.fixture
    def planned(self, small_3l_fattree):
        cloud = make_cloud(small_3l_fattree, lid_scheme="prepopulated", num_vfs=2)
        planner = MigrationPlanner(cloud, small_3l_fattree, seed=4)
        for _ in range(20):
            cloud.boot_vm()
        return cloud, planner

    def test_classification(self, planned):
        cloud, planner = planned
        h = list(cloud.hypervisors.values())
        same_leaf = [
            x
            for x in h
            if x is not h[0] and planner.leaf_of(x) is planner.leaf_of(h[0])
        ]
        assert same_leaf, "siblings must exist in a fat-tree"
        assert planner.classify(h[0], same_leaf[0]) == INTRA_LEAF

    def test_plan_one_per_class(self, planned):
        cloud, planner = planned
        for klass in (INTRA_LEAF, INTRA_POD, INTER_POD, ANY):
            plan = planner.plan_one(klass)
            assert plan is not None
            vm_name, dest = plan
            src = cloud.hypervisors[cloud.vms[vm_name].hypervisor_name]
            if klass != ANY:
                assert planner.classify(src, cloud.hypervisors[dest]) == klass

    def test_intra_leaf_updates_fewer_switches(self, planned):
        # The section VI-D gradient: farther migrations touch more switches.
        cloud, planner = planned
        intra = planner.plan_batch(INTRA_LEAF, 5)
        inter = planner.plan_batch(INTER_POD, 5)
        obs_intra = planner.execute(intra)
        obs_inter = planner.execute(inter)
        mean = lambda xs: sum(xs) / len(xs)
        assert mean(obs_intra[INTRA_LEAF]) < mean(obs_inter[INTER_POD])

    def test_batch_uses_distinct_vms(self, planned):
        cloud, planner = planned
        batch = planner.plan_batch(ANY, 10)
        names = [vm for vm, _ in batch]
        assert len(names) == len(set(names))


class TestTraffic:
    def test_all_to_all_flow_count(self):
        flows = all_to_all_flows([1, 2, 3])
        assert len(flows) == 6
        assert (1, 1) not in flows

    def test_link_loads_balanced_fattree(self, routed_fattree):
        built, sm, request = routed_fattree
        lids = [t.lid for t in request.terminals]
        report = link_loads(sm.current_tables, request, all_to_all_flows(lids))
        assert report.max_load > 0
        # MinHop with lid-mod spreads uniform all-to-all quite evenly.
        assert report.imbalance < 2.0

    def test_dynamic_scheme_worsens_balance(self, small_fattree):
        # Section V-B: dynamic assignment "compromises on the traffic
        # balancing" — VM LIDs inherit their PF's path, so VM-to-VM traffic
        # concentrates on PF paths, unlike prepopulated VF LIDs.
        from repro.fabric.presets import scaled_fattree

        prep = make_cloud(scaled_fattree("2l-small"), lid_scheme="prepopulated")
        dyn = make_cloud(scaled_fattree("2l-small"), lid_scheme="dynamic")
        reports = {}
        for name, cloud in (("prep", prep), ("dyn", dyn)):
            for hyp in list(cloud.hypervisors.values()):
                for _ in range(2):
                    cloud.boot_vm(on=hyp.name)
            req = RoutingRequest.from_topology(cloud.topology)
            vm_lids = [vm.lid for vm in cloud.vms.values()]
            reports[name] = link_loads(
                cloud.sm.current_tables, req, all_to_all_flows(vm_lids)
            )
        assert reports["dyn"].imbalance >= reports["prep"].imbalance

    def test_unrouted_flow_rejected(self, routed_fattree):
        built, sm, request = routed_fattree
        with pytest.raises(RoutingError):
            link_loads(sm.current_tables, request, [(1, 40000)])

    def test_a_negative_lid_has_no_port(self, routed_fattree):
        _, sm, _ = routed_fattree
        tables = sm.current_tables
        # Numpy would wrap -1 around to the top LID's programmed column.
        assert tables.ports[0, -1] != LFT_UNSET
        assert tables.port_for(0, -1) == LFT_UNSET

    def test_an_unbound_destination_lid_is_rejected(self, routed_fattree):
        _, sm, request = routed_fattree
        src = request.terminals[0].lid
        with pytest.raises(RoutingError, match="destination LID -1 is not bound"):
            link_loads(sm.current_tables, request, [(src, -1)])

    def test_an_unknown_source_lid_is_a_routing_error_alone(self, routed_fattree):
        _, sm, request = routed_fattree
        dst = request.terminals[0].lid
        with pytest.raises(RoutingError, match="source LID 40000") as exc:
            link_loads(sm.current_tables, request, [(40000, dst)])
        # Raised from None: no KeyError chained behind it.
        assert exc.value.__cause__ is None and exc.value.__suppress_context__
