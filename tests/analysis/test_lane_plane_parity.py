"""The lane-plane analysis against the dict-keyed one it replaced.

For every VL cell of the ``check-fabric`` matrix the engine's plane is
read back into its dict form (:func:`tests.oracles.vl_assignment.assignment_of`)
and both implementations analyse the same assignment — clean, and under
each of the three corruption modes applied to the dicts and expanded back
into a plane (:func:`~tests.oracles.vl_assignment.plane_of`). They must
agree on every lane's dependency keys, on the rules that fire and on the
faulty LIDs and switches. The oracle names a pair-keyed fault by its
switch pair; the plane names the same cells per LID column, so the
oracle's pair ``(s, t)`` reads as ``(lid, s)`` for every terminal LID
behind ``t``.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.static import (
    check_deadlock_freedom,
    check_vl_capacity,
    check_vl_consistency,
    lane_dependencies,
)
from repro.analysis.static.checks import FabricSnapshot
from repro.analysis.static.suite import VL_ENGINES, default_cases, preset_builders
from repro.sm.routing.vl import corrupt_assignment
from repro.sm.subnet_manager import SubnetManager
from tests.oracles import vl_assignment as oracle

CELLS = sorted(
    (c.preset, c.engine) for c in default_cases() if c.engine in VL_ENGINES
)
KIND = {"dfsssp": "dest", "lash": "pair"}


def routed(preset, engine):
    built = preset_builders()[preset]()
    sm = SubnetManager(built.topology, engine=engine, built=built)
    sm.initial_configure()
    return sm, FabricSnapshot.from_topology(built.topology, tables=sm.current_tables)


def lids_behind(snap, t):
    return snap.terminal_lids[snap.dest_switch[snap.terminal_lids] == t].tolist()


def oracle_cells(snap, vl, findings):
    """``{(rule, lid, switch)}`` of the oracle's VLC002/VLC003 findings."""
    out = set()
    sources = np.unique(snap.dest_switch[snap.terminal_lids]).tolist()
    for f in findings:
        if "pair" in f.detail:
            s, t = f.detail["pair"]
            out |= {(f.rule, lid, s) for lid in lids_behind(snap, t)}
        elif "missing_pairs" in f.detail:
            for s, t in f.detail["missing_pairs"]:
                out |= {(f.rule, lid, s) for lid in lids_behind(snap, t)}
        elif "missing_lids" in f.detail:
            rows = sources if f.lid in snap.terminal_lids else range(snap.num_switches)
            # The plane's finding lists the first 32 switches.
            out |= {
                (f.rule, lid, s) for lid in f.detail["missing_lids"] for s in list(rows)[:32]
            }
        else:
            out.add((f.rule, f.lid, None))
    return out


def plane_cells(findings):
    """``{(rule, lid, switch)}`` of the plane's VLC002/VLC003 findings."""
    out = set()
    for f in findings:
        if f.rule == "VLC003":
            out |= {
                (f.rule, lid, s)
                for lid in f.detail["missing_lids"]
                for s in f.detail["switches"]
            }
        else:
            out.add((f.rule, f.lid, f.switch))
    return out


def assert_same_analysis(snap, vl, label):
    new = lane_dependencies(snap)
    old = oracle.lane_dependencies(snap, vl)
    assert len(new) == len(old), label
    for v, (a, b) in enumerate(zip(new, old)):
        assert np.array_equal(a, b), (label, v)
    assert check_deadlock_freedom(snap, lanes=new) == check_deadlock_freedom(
        snap, lanes=old
    ), label
    plane = check_vl_consistency(snap) + check_vl_capacity(snap)
    dicts = oracle.check_vl_consistency(snap, vl) + oracle.check_vl_capacity(snap, vl)
    assert sorted({f.rule for f in plane}) == sorted({f.rule for f in dicts}), label
    assert plane_cells(plane) == oracle_cells(snap, vl, dicts), label


@pytest.mark.parametrize("preset,engine", CELLS)
def test_the_plane_is_the_engine_assignment(preset, engine):
    _, snap = routed(preset, engine)
    vl = oracle.assignment_of(snap, KIND[engine])
    assert np.array_equal(oracle.plane_of(vl, snap), snap.lanes)
    assert_same_analysis(snap, vl, "clean")
    assert check_vl_consistency(snap) == check_vl_capacity(snap) == []


@pytest.mark.parametrize("index", [0, 5])
@pytest.mark.parametrize("mode", ["remap", "drop", "collapse"])
@pytest.mark.parametrize("preset,engine", CELLS)
def test_each_corruption_reads_the_same(preset, engine, mode, index):
    _, snap = routed(preset, engine)
    vl = oracle.assignment_of(snap, KIND[engine])
    oracle.corrupt_assignment(vl, mode, index=index)
    bad = replace(snap, lanes=oracle.plane_of(vl, snap))
    assert_same_analysis(bad, vl, (mode, index))


@pytest.mark.parametrize("mode", ["remap", "drop", "collapse"])
@pytest.mark.parametrize("preset", sorted({p for p, e in CELLS if e == "dfsssp"}))
def test_a_dest_keyed_corruption_is_the_same_column_edit(preset, mode):
    # DFSSSP's entries are its columns: the plane's corruption of the
    # index-th data column is the oracle's of the index-th LID.
    sm, snap = routed(preset, "dfsssp")
    for index in (0, 3):
        vl = oracle.assignment_of(snap, "dest")
        oracle.corrupt_assignment(vl, mode, index=index)
        tables = replace(sm.current_tables, lanes=sm.current_tables.lanes.copy())
        corrupt_assignment(tables, mode, index=index)
        bad = snap.with_lanes(tables)
        assert np.array_equal(bad.lanes, oracle.plane_of(vl, snap))
