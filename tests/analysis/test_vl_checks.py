"""Tests for the lane-indexed channel-dependency checks (VLC001-VLC004).

LASH and DFSSSP are deadlock-free *per virtual lane*, not on the union
CDG; a single-VL engine is the trivial one-lane case (CDG001/CDG002).
These tests cover the whole per-lane pipeline: the engines' lane-plane
export, the per-lane dependency split against the per-path walk, each
VLC rule positive and negative, ``lids=`` scoping every lane, the
analyzer/matrix wiring, and a hypothesis property: LASH on random
3-regular graphs is clean, and each corruption mode is caught by exactly
one rule.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import RoutingError, StaticAnalysisError
from repro.fabric.builders.generic import build_random_regular
from repro.obs import get_hub, reset_hub
from repro.sm.routing.base import RoutingTables
from repro.sm.routing.vl import MANAGEMENT_VL, NO_LANE, corrupt_assignment
from repro.sm.subnet_manager import SubnetManager
from repro.analysis.static import (
    VL_ENGINES,
    FabricCheckCase,
    analyze_fabric,
    analyze_subnet,
    analyze_transition,
    check_deadlock_freedom,
    check_transition_deadlock,
    check_vl_capacity,
    check_vl_consistency,
    corrupt_vl_assignment,
    lane_dependencies,
    run_case,
)
from repro.analysis.static.checks import FabricSnapshot
from repro.analysis.static.suite import preset_builders
from tests.oracles.cdg import lane_dependency_sets, routing_is_deadlock_free


def bring_up(preset, engine):
    built = preset_builders()[preset]()
    sm = SubnetManager(built.topology, engine=engine, built=built)
    sm.initial_configure()
    return sm


def snapshot(sm, tables=None):
    return FabricSnapshot.from_topology(
        sm.topology, tables=sm.current_tables if tables is None else tables
    )


def corrupted(tables, mode, index=0):
    """A copy of *tables* whose lane plane took one corruption."""
    out = replace(tables, lanes=tables.lanes.copy())
    corrupt_assignment(out, mode, index=index)
    return out


def with_cell(tables, lid, value, rows=slice(None)):
    """A copy of *tables* with ``lanes[rows, lid] = value``."""
    out = replace(tables, lanes=tables.lanes.copy())
    out.lanes[rows, lid] = value
    return out


def rules_of(findings):
    return sorted({f.rule for f in findings})


class TestVlExport:
    def test_lash_exports_pair_assignment(self):
        sm = bring_up("ring6", "lash")
        tables = sm.current_tables
        lanes = tables.lanes
        assert lanes.shape == tables.ports.shape and lanes.dtype == np.int8
        assert 1 <= tables.num_vls <= tables.max_vls
        snap = snapshot(sm)
        term = snap.terminal_lids
        dest = snap.dest_switch[term]
        # lanes[s, lid] = layer(s, switch(lid)): LIDs behind one switch
        # share a column, and a switch's own terminals ride lane 0.
        for lid, t in zip(term.tolist(), dest.tolist()):
            same = term[dest == t]
            assert (lanes[:, same] == lanes[:, [lid]]).all()
            assert lanes[t, lid] == 0
        used = lanes[:, term]
        assert ((used >= 0) & (used < tables.num_vls)).all()

    def test_dfsssp_exports_dest_assignment(self):
        sm = bring_up("ring6", "dfsssp")
        lanes = sm.current_tables.lanes
        for lid in sm.topology.switch_lids():
            assert (lanes[:, lid] == MANAGEMENT_VL).all()
        # One lane per column; terminal columns ride data lanes only.
        assert (lanes == lanes[:1]).all()
        term = snapshot(sm).terminal_lids
        assert (lanes[:, term] != MANAGEMENT_VL).all()

    def test_single_vl_engine_exports_nothing(self):
        sm = bring_up("ring6", "updn")
        assert sm.current_tables.lanes is None
        assert snapshot(sm).lanes is None

    def test_from_metadata_reads_only_the_exported_assignment(self):
        # Only the plane counts: a dict left in the metadata is the
        # trivial assignment.
        sm = bring_up("ring6", "updn")
        tables = replace(
            sm.current_tables, metadata={"lid_to_vl": {4: 0}, "vl": object()}
        )
        assert snapshot(sm, tables).lanes is None
        assert check_vl_consistency(snapshot(sm, tables)) == []

    def test_corrupt_index_wraps_and_copy_isolates(self):
        lanes = np.array([[NO_LANE, 0, 1, MANAGEMENT_VL]] * 2, dtype=np.int8)
        tables = RoutingTables(
            "t", np.zeros((2, 4), np.int16), num_vls=2, lanes=lanes, max_vls=8
        )
        clone = replace(tables, lanes=lanes.copy())
        desc = corrupt_assignment(clone, "remap", index=7)
        assert "nonexistent" in desc and "LID 2" in desc
        assert (clone.lanes[:, 2] == 10).all()
        assert lanes[0].tolist() == [NO_LANE, 0, 1, MANAGEMENT_VL]
        with pytest.raises(RoutingError):
            corrupt_assignment(clone, "telepathy")

    def test_malformed_assignments_are_routing_errors(self):
        no_plane = RoutingTables("t", np.zeros((2, 4), np.int16))
        with pytest.raises(RoutingError, match="no lane plane"):
            corrupt_assignment(no_plane)
        empty = replace(
            no_plane, lanes=np.full((2, 4), MANAGEMENT_VL, np.int8), max_vls=8
        )
        with pytest.raises(RoutingError, match="no data-VL cells"):
            corrupt_assignment(empty)


class TestBuildPerVlDependencies:
    def test_trivial_assignment_is_one_lane(self):
        sm = bring_up("ring6", "minhop")
        snap = snapshot(sm)
        assert snap.lanes is None
        lanes = lane_dependencies(snap)
        assert len(lanes) == 1 and lanes[0].size
        assert [f.rule for f in check_deadlock_freedom(snap, lanes=lanes)] == [
            "CDG001"
        ]
        # The trivial assignment is consistent and within capacity.
        assert check_vl_consistency(snap) == check_vl_capacity(snap) == []

    @pytest.mark.parametrize("engine", VL_ENGINES)
    def test_every_lane_acyclic_matches_oracle(self, engine):
        sm = bring_up("torus4x4", engine)
        snap = snapshot(sm)
        lanes = lane_dependencies(snap)
        assert len(lanes) == snap.num_vls
        assert check_deadlock_freedom(snap, lanes=lanes) == []
        if engine == "dfsssp":
            # The per-path oracle agrees lane-by-lane splitting is what
            # makes this routing deadlock-free (scoped to terminal LIDs:
            # VL15 management delivery is VLC002's concern, not a
            # data-deadlock layer).
            tables, request = sm.current_tables, sm.last_request
            term = snap.terminal_lids.tolist()
            assert routing_is_deadlock_free(
                tables, request, lids=term, lanes=snap.lanes, num_vls=snap.num_vls
            )
            assert not routing_is_deadlock_free(tables, request, lids=term)

    @pytest.mark.parametrize("preset", ("ring6", "torus4x4", "2l-small"))
    @pytest.mark.parametrize("engine", VL_ENGINES + ("minhop",))
    def test_lanes_match_the_per_path_walk(self, preset, engine):
        sm = bring_up(preset, engine)
        tables, request = sm.current_tables, sm.last_request
        planes = [tables]
        if tables.lanes is not None:
            planes.append(corrupted(tables, "collapse"))
        for planed in planes:
            snap = snapshot(sm, planed)
            n, n2 = snap.num_switches, snap.num_switches**2
            got = {
                v: {
                    ((f // n, f % n), (t // n, t % n))
                    for f, t in zip((keys // n2).tolist(), (keys % n2).tolist())
                }
                for v, keys in enumerate(lane_dependencies(snap))
                if keys.size
            }
            want = lane_dependency_sets(
                tables, request, lids=snap.terminal_lids.tolist(),
                lanes=planed.lanes, num_vls=planed.num_vls,
            )
            assert got == {v: deps for v, deps in want.items() if deps}


class TestVlc001DeadlockFreedom:
    @pytest.mark.parametrize("preset", ("ring6", "torus4x4"))
    @pytest.mark.parametrize("engine", VL_ENGINES)
    def test_clean_fabric_has_no_findings(self, preset, engine):
        sm = bring_up(preset, engine)
        assert check_deadlock_freedom(snapshot(sm)) == []

    @pytest.mark.parametrize("engine", VL_ENGINES)
    def test_collapsed_lanes_deadlock_on_a_ring(self, engine):
        sm = bring_up("ring6", engine)
        assert sm.current_tables.num_vls >= 2, "a ring needs >= 2 lanes to break its cycle"
        findings = check_deadlock_freedom(
            snapshot(sm, corrupted(sm.current_tables, "collapse"))
        )
        assert rules_of(findings) == ["VLC001"]
        assert all(f.detail["vl"] == 0 for f in findings)
        # The finding carries a concrete cycle, like CDG001 does.
        assert any("cycle" in f.message for f in findings)


class TestVlc002Consistency:
    @pytest.mark.parametrize("engine", VL_ENGINES)
    def test_remap_to_nonexistent_lane_caught(self, engine):
        sm = bring_up("ring6", engine)
        bad = corrupted(sm.current_tables, "remap")
        findings = check_vl_consistency(snapshot(sm, bad))
        assert rules_of(findings) == ["VLC002"]
        # The whole column went wrong: one finding, naming no one source.
        assert len(findings) == 1 and findings[0].switch is None

    def test_one_wrong_source_row_is_named(self):
        # A lane is the source's choice: one wrong cell names its switch.
        sm = bring_up("ring6", "lash")
        lid = int(snapshot(sm).terminal_lids[0])
        bad = with_cell(sm.current_tables, lid, 9, rows=4)
        (finding,) = check_vl_consistency(snapshot(sm, bad))
        assert (finding.rule, finding.lid, finding.switch) == ("VLC002", lid, 4)
        assert "from 1 source switch(es)" in finding.message

    def test_terminal_on_management_lane_caught(self):
        sm = bring_up("ring6", "dfsssp")
        lid = int(snapshot(sm).terminal_lids[0])
        bad = with_cell(sm.current_tables, lid, MANAGEMENT_VL)
        findings = check_vl_consistency(snapshot(sm, bad))
        assert rules_of(findings) == ["VLC002"]
        assert any("management" in f.message for f in findings)

    def test_switch_self_lid_on_data_lane_caught(self):
        sm = bring_up("ring6", "dfsssp")
        sw_lid = next(iter(sm.topology.switch_lids()))
        bad = with_cell(sm.current_tables, sw_lid, 0)
        findings = check_vl_consistency(snapshot(sm, bad))
        assert rules_of(findings) == ["VLC002"]

    def test_a_lane_on_an_unbound_lid_is_not_a_finding(self):
        # A stopped VM's LID keeps its columns, ports and lanes alike;
        # neither carries anyone's traffic.
        sm = bring_up("ring6", "dfsssp")
        snap = snapshot(sm)
        unbound = snap.ports.shape[1] - 1
        assert unbound not in snap.lids.tolist()
        snap.lanes[:, unbound] = 0
        assert check_vl_consistency(snap) == []

    def test_clean_fabrics_pass(self):
        for engine in VL_ENGINES:
            sm = bring_up("torus4x4", engine)
            assert check_vl_consistency(snapshot(sm)) == []


class TestVlc003Capacity:
    @pytest.mark.parametrize("engine", VL_ENGINES)
    def test_dropped_assignment_caught(self, engine):
        sm = bring_up("ring6", engine)
        findings = check_vl_capacity(
            snapshot(sm, corrupted(sm.current_tables, "drop"))
        )
        assert rules_of(findings) == ["VLC003"]
        # Missing entries aggregate: one actionable finding, not N.
        assert len(findings) == 1
        assert findings[0].detail["missing_count"] == 1

    def test_layer_overflow_caught(self):
        sm = bring_up("ring6", "lash")
        tables = sm.current_tables
        bad = replace(tables, num_vls=tables.max_vls + 1)
        findings = check_vl_capacity(snapshot(sm, bad))
        assert "VLC003" in rules_of(findings)
        assert any("max_vls" in f.message for f in findings)


class TestVlc004Transition:
    def test_same_engine_transition_is_clean(self):
        built = preset_builders()["torus4x4"]()
        sm = SubnetManager(built.topology, engine="dfsssp", built=built)
        sm.initial_configure()
        snap = snapshot(sm)
        assert check_transition_deadlock(snap, snap) == []

    def test_collapse_poisons_the_union(self):
        sm = bring_up("ring6", "lash")
        good = snapshot(sm)
        bad = corrupted(sm.current_tables, "collapse")
        findings = check_transition_deadlock(good, snapshot(sm, bad))
        assert rules_of(findings) == ["VLC004"]

    def test_single_vl_side_lands_on_lane_zero(self):
        # Engine-change reconfiguration: updn (single VL) -> dfsssp.
        built = preset_builders()["ring6"]()
        old_sm = SubnetManager(built.topology, engine="updn", built=built)
        old_sm.initial_configure()
        old_snap = snapshot(old_sm)
        assert old_snap.lanes is None
        new_sm = SubnetManager(built.topology, engine="dfsssp", built=built)
        new_sm.compute_routing()
        new_snap = FabricSnapshot.from_topology(
            built.topology,
            new_sm.current_tables.ports,
            tables=new_sm.current_tables,
        )
        # Must analyze without raising; both routings share the fabric's
        # up/down spanning structure, so the lane-0 union stays acyclic.
        findings = check_transition_deadlock(old_snap, new_snap)
        assert rules_of(findings) in ([], ["VLC004"])

    def test_the_old_side_counts(self):
        # A collapsed old side poisons the union although the new side is
        # clean, on a VL-routed fabric and on a single-VL one.
        sm = bring_up("ring6", "lash")
        bad = corrupted(sm.current_tables, "collapse")
        findings = check_transition_deadlock(snapshot(sm, bad), snapshot(sm))
        assert rules_of(findings) == ["VLC004"]
        built = preset_builders()["ring6"]()
        old_sm = SubnetManager(built.topology, engine="minhop", built=built)
        old_sm.initial_configure()
        new_sm = SubnetManager(built.topology, engine="updn", built=built)
        new_sm.compute_routing()
        old_snap = snapshot(old_sm)
        new_snap = FabricSnapshot.from_topology(
            built.topology, new_sm.current_tables.ports
        )
        assert check_deadlock_freedom(new_snap) == []
        findings = check_transition_deadlock(old_snap, new_snap)
        assert rules_of(findings) == ["CDG002"]

    def test_analyze_transition_uses_per_vl_path(self):
        built = preset_builders()["ring6"]()
        sm = SubnetManager(built.topology, engine="lash", built=built)
        sm.initial_configure()
        tables = sm.current_tables
        reports = [
            analyze_transition(
                built.topology,
                tables.ports,
                tables.ports,
                old_tables=tables,
                new_tables=new,
                emit_metrics=False,
            )
            for new in (tables, corrupted(tables, "collapse"))
        ]
        assert [r.checks_run for r in reports] == [["transition-cdg"]] * 2
        assert reports[0].ok
        assert rules_of(reports[1].findings) == ["VLC004"]
        assert reports[1].findings[0].detail["vl"] == 0


class TestLidsScopeEveryLane:
    """``lids=`` scopes every lane, as it always scoped CDG001/CDG002."""

    @pytest.mark.parametrize(
        "engine,rules",
        [(e, ("VLC001", "VLC004")) for e in VL_ENGINES]
        + [("minhop", ("CDG001", "CDG002"))],
    )
    def test_one_destination_closes_no_cycle(self, engine, rules):
        sm = bring_up("ring6", engine)
        tables = sm.current_tables
        bad = tables if tables.lanes is None else corrupted(tables, "collapse")

        def fabric(lids):
            return analyze_fabric(
                sm.topology,
                ports=tables.ports,
                tables=bad,
                lids=lids,
                emit_metrics=False,
            ).findings

        def transition(lids):
            return analyze_transition(
                sm.topology,
                tables.ports,
                tables.ports,
                old_tables=tables,
                new_tables=bad,
                lids=lids,
                emit_metrics=False,
            ).findings

        # One destination's in-tree closes no cycle; unscoped, the collapsed
        # lane (minhop's one lane) closes the ring.
        lid = int(snapshot(sm).terminal_lids[0])
        assert transition([lid]) == []
        assert rules_of(fabric([lid])) == []
        assert rules_of(transition(None)) == [rules[1]]
        assert rules_of(fabric(None)) == [rules[0]]


class TestAnalyzerWiring:
    @pytest.mark.parametrize("preset", ("ring6", "torus4x4"))
    @pytest.mark.parametrize("engine", VL_ENGINES)
    def test_vl_engines_analyze_clean(self, preset, engine):
        sm = bring_up(preset, engine)
        report = analyze_subnet(sm, emit_metrics=False)
        assert report.ok, report.render()
        assert report.checks_run == [
            "reachability",
            "vl-consistency",
            "vl-capacity",
            "cdg",
        ]
        assert report.findings == []

    def test_a_clean_vl_fabric_renders_ok(self):
        sm = bring_up("ring6", "lash")
        report = analyze_subnet(sm, emit_metrics=False)
        assert "OK — all invariants hold" in report.render()
        report.raise_if_failed()  # must not raise

    def test_single_vl_engine_still_runs_cdg001(self):
        sm = bring_up("ring6", "updn")
        report = analyze_subnet(sm, emit_metrics=False)
        assert report.ok
        assert report.checks_run == ["reachability", "cdg", "updn-legality"]

    def test_vl_metrics_are_published(self):
        reset_hub()
        sm = bring_up("ring6", "dfsssp")
        analyze_subnet(sm)
        rendered = get_hub().metrics.render_prometheus()
        assert "repro_static_vl_layers" in rendered
        assert "repro_static_vl_dependencies" in rendered


class TestMatrixAndCorruption:
    @pytest.mark.parametrize("preset", ("ring6", "torus4x4"))
    @pytest.mark.parametrize("engine", VL_ENGINES)
    def test_matrix_cells_clean(self, preset, engine):
        result = run_case(
            FabricCheckCase(preset=preset, engine=engine), emit_metrics=False
        )
        assert result.ok, result.report.render()

    @pytest.mark.parametrize("engine", VL_ENGINES)
    def test_corrupt_vl_mode_fails_the_cell(self, engine):
        result = run_case(
            FabricCheckCase(preset="ring6", engine=engine),
            corrupt_vl=True,
            emit_metrics=False,
        )
        assert not result.ok
        assert result.injected is not None
        assert "VLC002" in result.report.count_by_rule()

    def test_corrupt_vl_rejects_single_vl_engines(self):
        sm = bring_up("ring6", "updn")
        with pytest.raises(StaticAnalysisError) as exc:
            corrupt_vl_assignment(sm)
        for engine in VL_ENGINES:
            assert engine in str(exc.value)

    def test_verify_subnet_accepts_vl_engines(self):
        # The end-to-end hook: a clean LASH ring audits clean, lanes and
        # all.
        from repro.analysis.verification import verify_subnet

        sm = bring_up("ring6", "lash")
        report = verify_subnet(sm)
        assert report.ok, report.problems()


CORRUPTION_RULE = {"remap": "VLC002", "drop": "VLC003", "collapse": "VLC001"}


class TestVlProperties:
    """Satellite 4: LASH on random 3-regular graphs, property-based."""

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(0, 2**16),
        half=st.integers(4, 7),
        victim=st.integers(0, 2**20),
        mode=st.sampled_from(sorted(CORRUPTION_RULE)),
    )
    def test_lash_clean_and_corruption_caught_by_exactly_one_rule(
        self, seed, half, victim, mode
    ):
        built = build_random_regular(2 * half, 3, 1, seed=seed)
        sm = SubnetManager(built.topology, engine="lash", built=built)
        sm.assign_lids()
        sm.compute_routing()
        tables = sm.current_tables
        snap = FabricSnapshot.from_topology(
            built.topology, tables.ports, tables=tables
        )
        # Clean routing satisfies VLC001-VLC003.
        assert check_deadlock_freedom(snap) == []
        assert check_vl_consistency(snap) == []
        assert check_vl_capacity(snap) == []
        # One corrupted assignment is caught by exactly one rule.
        bad_tables = corrupted(tables, mode, index=victim)
        if mode == "collapse" and tables.num_vls < 2:
            # Everything already fit on one layer; collapsing is the
            # identity and the fabric must still verify clean.
            expected = set()
        else:
            expected = {CORRUPTION_RULE[mode]}
        bad = FabricSnapshot.from_topology(
            built.topology, tables.ports, tables=bad_tables
        )
        fired = set(
            rules_of(
                check_deadlock_freedom(bad)
                + check_vl_consistency(bad)
                + check_vl_capacity(bad)
            )
        )
        assert fired == expected, (mode, fired)
