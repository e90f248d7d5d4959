"""Plans come from the seed alone; a traced repeat leaves no shim behind."""

import time

import pytest

import plans
import workloads
from repro.sim.dataplane import DataPlaneSimulator


@pytest.mark.parametrize("name", list(plans.WORKLOADS))
def test_same_seed_same_plan_hash_other_seed_other_hash(name):
    first = plans.plan_sha256(plans.make_plan(name, "quick", 11))
    again = plans.plan_sha256(plans.make_plan(name, "quick", 11))
    other = plans.plan_sha256(plans.make_plan(name, "quick", 12))
    assert first == again
    assert first != other


def test_driver_scale_only_differs_from_full_on_the_bring_up():
    for name in plans.WORKLOADS:
        same = plans.size_of(name, "driver") == plans.size_of(name, "full")
        assert same == (name != "fig7-bringup-5832")
    assert plans.size_of("fig7-bringup-5832", "driver")["fabric"] == ["paper", 5832]


def test_service_bursts_touch_every_vm_at_most_once():
    plan = plans.make_plan("vm-churn-648", "quick", 11)
    for burst in plan["phases"][2]["ops"]:
        names = [op["vm"] for op in burst]
        assert len(names) == len(set(names))


@pytest.mark.parametrize("name", ["dataplane-a2a-324", "fault-rewire-3l-wide"])
def test_traced_repeat_passes_its_checks_and_removes_every_shim(name):
    untouched = dict(vars(DataPlaneSimulator))
    plan = plans.make_plan(name, "quick", 11)
    result = workloads.run_repeat(plan, traced=True, spawned_at=time.time())
    assert result["failed"] == []
    assert all(result["checks"].values())
    assert result["trace"]["shims_left"] == 0
    assert dict(vars(DataPlaneSimulator)) == untouched
    layers = result["trace"]["layers"]
    inside = sum(row["self_s"] for layer, row in layers.items() if layer != "bench")
    assert 0.95 <= inside / sum(row["self_s"] for row in layers.values()) <= 1.0
