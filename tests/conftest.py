"""Shared fixtures: small topologies, subnet managers and clouds."""

from __future__ import annotations

import pytest

from repro.fabric.builders.generic import build_ring, build_single_switch
from repro.fabric.presets import scaled_fattree
from repro.obs import DEFAULT_FLIGHT_CAPACITY, reset_hub
from repro.sm.routing.base import RoutingRequest
from repro.sm.subnet_manager import SubnetManager
from repro.virt.cloud import CloudManager


@pytest.fixture(autouse=True)
def fresh_obs_hub():
    """Every test starts with an empty observability hub (and the default
    flight ring, whatever size the previous test left behind)."""
    reset_hub(flight_capacity=DEFAULT_FLIGHT_CAPACITY)
    yield
    reset_hub(flight_capacity=DEFAULT_FLIGHT_CAPACITY)


@pytest.fixture
def small_fattree():
    """2-level scaled fat-tree: 36 hosts, 12 switches, 6 roots."""
    return scaled_fattree("2l-small")


@pytest.fixture
def small_3l_fattree():
    """3-level scaled fat-tree: 216 hosts, 108 switches."""
    return scaled_fattree("3l-small")


@pytest.fixture
def single_switch():
    """One switch, 4 hosts."""
    return build_single_switch(4)


@pytest.fixture
def ring():
    """4-switch ring with 2 hosts each (cyclic topology)."""
    return build_ring(4, 2)


@pytest.fixture
def routed_fattree(small_fattree):
    """Small fat-tree with LIDs assigned and minhop routing distributed."""
    sm = SubnetManager(small_fattree.topology, engine="minhop", built=small_fattree)
    sm.initial_configure(with_discovery=False)
    request = RoutingRequest.from_topology(
        small_fattree.topology, built=small_fattree
    )
    return small_fattree, sm, request


def subnet_fingerprint(sm):
    """What a refused topology event must leave exactly as it was: cables,
    switch order, LID bindings, builder levels, the SM's tables — and the
    SMP count, since a refusal sends nothing."""
    topo = sm.topology
    return {
        "links": sorted(
            sorted((p.node.name, p.num) for p in link.ends)
            for link in topo.links
        ),
        "switches": [sw.name for sw in topo.switches],
        "lids": {
            lid: (topo.port_of_lid(lid).node.name, topo.port_of_lid(lid).num)
            for lid in topo.bound_lids()
        },
        "lids_consumed": sm.lids_consumed,
        "level": dict(getattr(sm.built, "level", None) or {}),
        "tables": sm.current_tables.ports.tobytes(),
        "smps": sm.transport.stats.total_smps,
    }


def make_cloud(built, *, lid_scheme="prepopulated", num_vfs=4, **kw):
    """Cloud on *built*, all HCAs adopted, subnet brought up."""
    cloud = CloudManager(
        built.topology, built=built, lid_scheme=lid_scheme, num_vfs=num_vfs, **kw
    )
    cloud.adopt_all_hcas()
    cloud.bring_up_subnet()
    return cloud


@pytest.fixture
def prepopulated_cloud(small_fattree):
    """Running cloud with the prepopulated scheme."""
    return make_cloud(small_fattree, lid_scheme="prepopulated")


@pytest.fixture
def dynamic_cloud(small_fattree):
    """Running cloud with the dynamic scheme."""
    return make_cloud(small_fattree, lid_scheme="dynamic")
