"""Tests for dimension-ordered (XY) routing on meshes and tori."""

import pytest

from repro.analysis.static import FabricSnapshot, check_deadlock_freedom
from repro.errors import RoutingError
from repro.fabric.builders.generic import build_mesh_2d, build_torus_2d
from repro.sm.routing.base import RoutingRequest
from repro.sm.routing.registry import create_engine
from repro.sm.subnet_manager import SubnetManager
from tests.oracles.delivery import trace_path, validate


def request_for(built):
    sm = SubnetManager(built.topology, built=built)
    sm.assign_lids()
    return RoutingRequest.from_topology(built.topology, built=built)


class TestMesh:
    def test_valid_on_mesh(self):
        req = request_for(build_mesh_2d(3, 4, 1))
        tables = create_engine("dor").compute(req)
        validate(tables, req)
        assert tables.metadata["torus"] is False

    def test_mesh_is_deadlock_free(self):
        # The classic XY-routing result.
        built = build_mesh_2d(4, 4, 1)
        tables = create_engine("dor").compute(request_for(built))
        snap = FabricSnapshot.from_topology(built.topology, tables.ports)
        assert check_deadlock_freedom(snap, lids=snap.lids) == []

    def test_x_before_y(self):
        req = request_for(build_mesh_2d(3, 3, 1))
        tables = create_engine("dor").compute(req)
        # From (0,0) toward a terminal at (2,2): first hop must go along
        # the row (to (0,1)), never down first.
        dest = next(t for t in req.terminals if t.switch_index == 8)
        path = trace_path(tables, req, 0, dest.lid)
        assert path[1] == 1  # (0,1), not (1,0) which is index 3

    def test_single_row(self):
        req = request_for(build_mesh_2d(1, 5, 1))
        tables = create_engine("dor").compute(req)
        validate(tables, req)

    def test_non_mesh_rejected(self):
        from repro.fabric.presets import scaled_fattree

        req = request_for(scaled_fattree("2l-small"))
        with pytest.raises(RoutingError):
            create_engine("dor").compute(req)


class TestTorus:
    def test_valid_on_torus(self):
        req = request_for(build_torus_2d(3, 3, 1))
        tables = create_engine("dor").compute(req)
        validate(tables, req)
        assert tables.metadata["torus"] is True

    def test_torus_uses_wraparound(self):
        req = request_for(build_torus_2d(3, 5, 1))
        tables = create_engine("dor").compute(req)
        # (0,0) -> (0,4): the wrap (1 hop) beats walking the row (4 hops).
        dest = next(t for t in req.terminals if t.switch_index == 4)
        path = trace_path(tables, req, 0, dest.lid)
        assert len(path) == 2

    def test_torus_admits_cycles(self):
        # Wraparound reintroduces channel-dependency cycles.
        built = build_torus_2d(4, 4, 1)
        tables = create_engine("dor").compute(request_for(built))
        snap = FabricSnapshot.from_topology(built.topology, tables.ports)
        assert [f.rule for f in check_deadlock_freedom(snap)] == ["CDG001"]

    def test_forced_torus_on_mesh_rejected(self):
        req = request_for(build_mesh_2d(3, 3, 1))
        with pytest.raises(RoutingError):
            create_engine("dor", torus=True).compute(req)

    def test_registered(self):
        from repro.sm.routing.registry import available_engines

        assert "dor" in available_engines()
