"""Unit tests for the static fabric checks (repro.analysis.static.checks)."""

import pytest

from repro.constants import LFT_UNSET
from repro.core.skyline import MigrationSkyline
from repro.errors import StaticAnalysisError
from repro.fabric.builders.generic import build_mesh_2d, build_ring, build_torus_2d
from repro.fabric.presets import scaled_fattree
from repro.sm.subnet_manager import SubnetManager
from repro.analysis.static import (
    FabricSnapshot,
    analyze_subnet,
    analyze_transition,
    check_deadlock_freedom,
    check_reachability,
    check_skyline_disjointness,
    check_vswitch_lids,
)
from tests.conftest import make_cloud


def bring_up(built, engine):
    sm = SubnetManager(built.topology, built=built, engine=engine)
    sm.initial_configure()
    return sm


def snapshot(built):
    return FabricSnapshot.from_topology(built.topology)


class TestCdgMatrix:
    """The acceptance matrix: which preset x engine pairs are deadlock-free."""

    def test_ring_under_naive_minhop_fails_cdg(self):
        built = build_ring(6, 1)
        report = analyze_subnet(bring_up(built, "minhop"), emit_metrics=False)
        assert not report.ok
        assert report.findings_for("CDG001")
        # The finding carries the offending dependency cycle.
        cycle = report.findings_for("CDG001")[0].detail["cycle"]
        assert len(cycle) >= 3

    def test_torus_under_naive_minhop_fails_cdg(self):
        built = build_torus_2d(4, 4, 1)
        report = analyze_subnet(bring_up(built, "minhop"), emit_metrics=False)
        assert not report.ok
        assert report.findings_for("CDG001")

    @pytest.mark.parametrize(
        "builder",
        [
            lambda: build_ring(6, 1),
            lambda: build_torus_2d(4, 4, 1),
            lambda: scaled_fattree("2l-small"),
        ],
    )
    def test_updn_is_deadlock_free_everywhere(self, builder):
        report = analyze_subnet(
            bring_up(builder(), "updn"), emit_metrics=False
        )
        assert report.ok, report.render()
        assert "updn-legality" in report.checks_run

    @pytest.mark.parametrize("engine", ["minhop", "updn", "ftree"])
    def test_fattree_presets_pass(self, engine):
        report = analyze_subnet(
            bring_up(scaled_fattree("2l-small"), engine), emit_metrics=False
        )
        assert report.ok, report.render()

    def test_mesh_under_dor_passes(self):
        report = analyze_subnet(
            bring_up(build_mesh_2d(4, 4, 1), "dor"), emit_metrics=False
        )
        assert report.ok, report.render()
        assert "dor-order" in report.checks_run

    def test_cdg_over_switch_lids_sees_management_cycles(self, small_fattree):
        # By default the CDG covers terminal LIDs only (switch self-LID
        # traffic rides VL15); explicitly including switch LIDs exposes
        # minhop's up-down-up management flows as dependency cycles.
        sm = bring_up(small_fattree, "minhop")
        snap = snapshot(small_fattree)
        assert not check_deadlock_freedom(snap)
        assert check_deadlock_freedom(snap, lids=[int(x) for x in snap.lids])


class TestReachability:
    def test_clean_fabric_has_no_findings(self, small_fattree):
        bring_up(small_fattree, "minhop")
        assert check_reachability(snapshot(small_fattree)) == []

    def test_cleared_entry_is_a_black_hole(self, small_fattree):
        sm = bring_up(small_fattree, "minhop")
        lid = int(snapshot(small_fattree).terminal_lids[0])
        victim = next(
            sw
            for sw in small_fattree.topology.switches
            if sw.route(lid) != LFT_UNSET
            and sw.index != snapshot(small_fattree).dest_switch[lid]
        )
        small_fattree.topology.set_lft(victim.index, lid, LFT_UNSET)
        findings = check_reachability(snapshot(small_fattree))
        assert any(
            f.rule == "LFT002" and f.lid == lid and f.switch == victim.index
            for f in findings
        )

    def test_injected_loop_is_reported_per_switch(self, small_fattree):
        from repro.analysis.static import inject_forwarding_loop

        bring_up(small_fattree, "minhop")
        inject_forwarding_loop(small_fattree.topology)
        findings = check_reachability(snapshot(small_fattree))
        loops = [f for f in findings if f.rule == "LFT001"]
        assert loops
        assert loops[0].switch is not None
        assert loops[0].switch_name is not None
        assert "->" in loops[0].message

    def test_lid_selection_out_of_range_rejected(self, small_fattree):
        bring_up(small_fattree, "minhop")
        with pytest.raises(StaticAnalysisError):
            snapshot(small_fattree).select_lids([10**6])


class TestAbsorbSaturation:
    """Regression: successor composition must double path length per round.

    A one-hop-per-round iteration only walks ~log2(n)+2 hops, so any
    loop-free path longer than that (e.g. around a large ring) was
    misclassified as a forwarding loop — 24 phantom LFT001/LFT004
    findings on a clean 12-switch ring.
    """

    @pytest.mark.parametrize("size", [12, 48])
    def test_large_ring_under_updn_is_clean(self, size):
        # Diameter is size/2, far beyond log2(size) + 2.
        built = build_ring(size, 1)
        report = analyze_subnet(bring_up(built, "updn"), emit_metrics=False)
        assert report.ok, report.render()

    def test_large_mesh_under_dor_is_clean(self):
        # 2x8 mesh: longest XY path is 8 hops > log2(16) + 2.
        built = build_mesh_2d(2, 8, 1)
        report = analyze_subnet(bring_up(built, "dor"), emit_metrics=False)
        assert report.ok, report.render()


class TestReviewRegressions:
    def test_narrow_ports_matrix_rejected(self, small_fattree):
        bring_up(small_fattree, "minhop")
        snap = snapshot(small_fattree)
        # Truncating the table drops the top bound LID's column; the
        # snapshot must refuse rather than silently skip that LID.
        narrow = snap.ports[:, : int(snap.lids[-1])]
        with pytest.raises(StaticAnalysisError, match="beyond"):
            FabricSnapshot.from_topology(small_fattree.topology, narrow)

    def test_unprogrammed_dest_entry_is_black_hole_not_misdelivery(
        self, small_fattree
    ):
        bring_up(small_fattree, "minhop")
        snap0 = snapshot(small_fattree)
        lid = int(snap0.terminal_lids[0])
        dest = small_fattree.topology.switches[int(snap0.dest_switch[lid])]
        small_fattree.topology.set_lft(dest.index, lid, LFT_UNSET)
        findings = check_reachability(snapshot(small_fattree))
        mine = [f for f in findings if f.lid == lid]
        # Every source now funnels into the hole, so it aggregates as
        # LFT004 — whose cause must read black-holed, not misdelivered.
        assert mine and mine[0].rule == "LFT004"
        assert "black-holed" in mine[0].message
        assert "misdelivered" not in mine[0].message

    def test_per_rule_cap_emits_meta001_sentinel(
        self, small_fattree, monkeypatch
    ):
        from repro.analysis.static import checks as checks_mod

        monkeypatch.setattr(checks_mod, "MAX_FINDINGS_PER_RULE", 2)
        bring_up(small_fattree, "minhop")
        snap0 = snapshot(small_fattree)
        leaves = sorted(
            {int(snap0.dest_switch[int(t)]) for t in snap0.terminal_lids}
        )
        # Black-hole four LIDs at one *other* leaf each: exactly one
        # source fails per LID, so each is an LFT002 (never LFT004).
        broken = []
        for lid in map(int, snap0.terminal_lids):
            other = next(
                ix for ix in leaves if ix != int(snap0.dest_switch[lid])
            )
            sw = small_fattree.topology.switches[other]
            if sw.route(lid) != LFT_UNSET:
                small_fattree.topology.set_lft(sw.index, lid, LFT_UNSET)
                broken.append(lid)
            if len(broken) == 4:
                break
        assert len(broken) == 4
        findings = check_reachability(snapshot(small_fattree))
        by_rule = {}
        for f in findings:
            by_rule.setdefault(f.rule, []).append(f)
        assert len(by_rule["LFT002"]) == 2  # capped per rule
        assert "LFT001" not in by_rule  # sentinel no longer masquerades
        (meta,) = by_rule["META001"]
        assert meta.detail["suppressed_by_rule"] == {"LFT002": 2}


class TestTransition:
    def test_identical_routings_union_is_routing_itself(self, small_fattree):
        bring_up(small_fattree, "minhop")
        ports = snapshot(small_fattree).ports
        report = analyze_transition(
            small_fattree.topology, ports, ports.copy(), emit_metrics=False
        )
        assert report.ok

    def test_cyclic_routing_union_raises_cdg002(self):
        built = build_ring(6, 1)
        bring_up(built, "minhop")
        ports = snapshot(built).ports
        report = analyze_transition(
            built.topology, ports, ports.copy(), emit_metrics=False
        )
        assert report.findings_for("CDG002")

    def test_real_migration_transition_is_deadlock_free(self, small_fattree):
        cloud = make_cloud(small_fattree, lid_scheme="prepopulated", num_vfs=3)
        vm = cloud.boot_vm()
        dest = next(
            name
            for name, h in cloud.hypervisors.items()
            if name != vm.hypervisor_name and h.has_capacity()
        )
        old = snapshot(small_fattree).ports.copy()
        cloud.live_migrate(vm.name, dest)
        new = snapshot(small_fattree).ports.copy()
        assert (old != new).any()
        report = analyze_transition(
            small_fattree.topology, old, new, emit_metrics=False
        )
        assert report.ok, report.render()


class TestVswitchLids:
    @pytest.mark.parametrize("scheme", ["prepopulated", "dynamic"])
    def test_clean_cloud_passes_both_schemes(self, scheme):
        cloud = make_cloud(
            scaled_fattree("2l-small"), lid_scheme=scheme, num_vfs=2
        )
        cloud.boot_vm()
        vswitches = [h.vswitch for h in cloud.hypervisors.values()]
        assert (
            check_vswitch_lids(cloud.topology, vswitches, scheme=scheme)
            == []
        )

    def test_vf_lid_bound_elsewhere_is_vsw001(self, small_fattree):
        cloud = make_cloud(
            small_fattree, lid_scheme="prepopulated", num_vfs=2
        )
        vm = cloud.boot_vm()
        hyp = cloud.hypervisors[vm.hypervisor_name]
        other = next(
            h
            for name, h in cloud.hypervisors.items()
            if name != vm.hypervisor_name
        )
        # Point a VF at a LID that is bound to a *different* uplink.
        vf = next(v for v in hyp.vswitch.vfs if v.lid is not None)
        vf.lid = other.vswitch.pf.lid
        findings = check_vswitch_lids(
            cloud.topology,
            [h.vswitch for h in cloud.hypervisors.values()],
            scheme="prepopulated",
        )
        assert any(
            f.rule == "VSW001" and f.lid == vf.lid for f in findings
        )

    def test_pf_lid_mismatch_is_vsw002(self, small_fattree):
        cloud = make_cloud(
            small_fattree, lid_scheme="prepopulated", num_vfs=2
        )
        hyp = next(iter(cloud.hypervisors.values()))
        hyp.vswitch.pf.lid = hyp.vswitch.pf.lid + 1000
        findings = check_vswitch_lids(
            cloud.topology,
            [h.vswitch for h in cloud.hypervisors.values()],
            scheme="prepopulated",
        )
        assert any(f.rule == "VSW002" for f in findings)


class TestSkylines:
    def test_disjoint_skylines_pass(self):
        a = MigrationSkyline(vm_lid=10, other_lid=11, mode="swap", switches={0, 1})
        b = MigrationSkyline(vm_lid=20, other_lid=21, mode="swap", switches={2, 3})
        assert check_skyline_disjointness([a, b]) == []

    def test_shared_switch_is_sky001(self):
        a = MigrationSkyline(vm_lid=10, other_lid=11, mode="swap", switches={0, 1})
        b = MigrationSkyline(vm_lid=20, other_lid=21, mode="swap", switches={1, 2})
        findings = check_skyline_disjointness([a, b])
        assert any(f.rule == "SKY001" for f in findings)

    def test_shared_lid_is_sky001(self):
        a = MigrationSkyline(vm_lid=10, other_lid=11, mode="swap", switches={0})
        b = MigrationSkyline(vm_lid=11, other_lid=21, mode="swap", switches={5})
        findings = check_skyline_disjointness([a, b])
        assert any(f.rule == "SKY001" for f in findings)
