"""Tests for the dynamic reconfigurer (Algorithm 1 primitives)."""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.constants import LFT_BLOCK_SIZE, LFT_DROP_PORT
from repro.errors import (
    ReconfigError,
    ReconfigRollbackError,
    ReproError,
    UnreachableTargetError,
)
from repro.core.reconfig import VSwitchReconfigurer
from repro.fabric.builders import build_ring
from repro.fabric.lft import lft_block_of
from repro.fabric.presets import scaled_fattree
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.mad.reliable import RetryPolicy
from repro.obs import get_hub, reset_hub
from repro.sm.subnet_manager import SubnetManager, path_computations
from repro.virt.cloud import CloudManager
from tests.oracles.observe import observed
from tests.oracles.reconfig import PacketByPacketReconfigurer


@pytest.fixture
def configured():
    """Small fat-tree, routed; two extra vSwitch-style LIDs on two hosts."""
    built = scaled_fattree("2l-small")
    sm = SubnetManager(built.topology, built=built)
    sm.assign_lids()
    topo = built.topology
    # Two VF-style LIDs behind hosts on different leaves.
    h_a = topo.hcas[0]  # leaf 0
    h_b = topo.hcas[-1]  # leaf 5
    lid_a = sm.lid_manager.assign_extra_lid(h_a.port(1))
    lid_b = sm.lid_manager.assign_extra_lid(h_b.port(1))
    sm.compute_routing()
    sm.distribute()
    return built, sm, h_a, h_b, lid_a, lid_b


class TestSwap:
    def test_swap_moves_routing(self, configured):
        built, sm, h_a, h_b, lid_a, lid_b = configured
        leaf_a = h_a.uplink_switch()
        leaf_b = h_b.uplink_switch()
        port_before = leaf_a.route(lid_a)
        rec = VSwitchReconfigurer(sm)
        report = rec.swap_lids(lid_a, lid_b)
        assert report.mode == "swap"
        # On leaf_a the entry for lid_a now points where lid_b used to go.
        assert leaf_a.route(lid_b) == port_before

    def test_swap_smps_bounded_by_two_per_switch(self, configured):
        built, sm, *_, lid_a, lid_b = configured
        rec = VSwitchReconfigurer(sm)
        report = rec.swap_lids(lid_a, lid_b)
        n = built.topology.num_switches
        assert report.lft_smps <= 2 * n
        assert report.switches_updated <= n
        assert report.max_blocks_on_one_switch in (1, 2)

    def test_swap_same_block_single_smp_per_switch(self, configured):
        built, sm, h_a, h_b, lid_a, lid_b = configured
        # lid_a/lid_b are consecutive small LIDs: same 64-block.
        rec = VSwitchReconfigurer(sm)
        report = rec.swap_lids(lid_a, lid_b)
        assert report.max_blocks_on_one_switch == 1
        assert report.lft_smps == report.switches_updated

    def test_swap_is_balance_preserving_involution(self, configured):
        built, sm, h_a, h_b, lid_a, lid_b = configured
        snapshot = built.topology.lft.copy()
        rec = VSwitchReconfigurer(sm)
        rec.swap_lids(lid_a, lid_b)
        rec.swap_lids(lid_a, lid_b)
        assert (built.topology.lft == snapshot).all()

    def test_swap_keeps_tables_in_sync(self, configured):
        built, sm, h_a, h_b, lid_a, lid_b = configured
        rec = VSwitchReconfigurer(sm)
        rec.swap_lids(lid_a, lid_b)
        for sw in built.topology.switches:
            assert sw.route(lid_a) == sm.current_tables.port_for(sw.index, lid_a)
            assert sw.route(lid_b) == sm.current_tables.port_for(sw.index, lid_b)

    def test_swap_self_rejected(self, configured):
        _, sm, *_, lid_a, _ = configured
        with pytest.raises(ReconfigError):
            VSwitchReconfigurer(sm).swap_lids(lid_a, lid_a)

    def test_swap_unknown_lid_rejected(self, configured):
        _, sm, *_, lid_a, _ = configured
        with pytest.raises(ReconfigError):
            VSwitchReconfigurer(sm).swap_lids(lid_a, 40000)

    def test_zero_path_computation(self, configured):
        _, sm, *_, lid_a, lid_b = configured
        computed = path_computations()
        VSwitchReconfigurer(sm).swap_lids(lid_a, lid_b)
        assert path_computations() == computed

    def test_predict_matches_execution(self, configured):
        _, sm, *_, lid_a, lid_b = configured
        rec = VSwitchReconfigurer(sm)
        n_prime, smps = rec.predict_swap(lid_a, lid_b)
        report = rec.swap_lids(lid_a, lid_b)
        assert report.switches_updated == n_prime
        # Same-block swap: prediction smps == n' too.
        assert report.lft_smps == smps


class TestCopy:
    def test_copy_inherits_template_path(self, configured):
        built, sm, h_a, h_b, lid_a, lid_b = configured
        rec = VSwitchReconfigurer(sm)
        pf_lid = h_b.port(1).lid
        report = rec.copy_path(pf_lid, lid_a)
        assert report.mode == "copy"
        for sw in built.topology.switches:
            assert sw.route(lid_a) == sw.route(pf_lid)

    def test_copy_one_smp_per_switch_max(self, configured):
        built, sm, h_a, h_b, lid_a, lid_b = configured
        rec = VSwitchReconfigurer(sm)
        report = rec.copy_path(h_b.port(1).lid, lid_a)
        n = built.topology.num_switches
        assert report.lft_smps <= n
        assert report.max_blocks_on_one_switch <= 1
        assert report.lft_smps == report.switches_updated

    def test_copy_to_fresh_lid_grows_tables(self, configured):
        built, sm, h_a, h_b, lid_a, lid_b = configured
        fresh = sm.lid_manager.assign_extra_lid(h_b.port(1), lid=200)
        rec = VSwitchReconfigurer(sm)
        rec.copy_path(h_b.port(1).lid, fresh)
        assert sm.current_tables.port_for(0, fresh) == built.topology.switches[
            0
        ].route(fresh)

    def test_copy_identical_is_free(self, configured):
        built, sm, h_a, h_b, lid_a, lid_b = configured
        rec = VSwitchReconfigurer(sm)
        pf_lid = h_b.port(1).lid
        rec.copy_path(pf_lid, lid_a)
        second = rec.copy_path(pf_lid, lid_a)
        assert second.lft_smps == 0
        assert second.switches_updated == 0

    def test_copy_self_rejected(self, configured):
        _, sm, *_, lid_a, _ = configured
        with pytest.raises(ReconfigError):
            VSwitchReconfigurer(sm).copy_path(lid_a, lid_a)

    def test_predict_copy(self, configured):
        built, sm, h_a, h_b, lid_a, lid_b = configured
        rec = VSwitchReconfigurer(sm)
        pf_lid = h_b.port(1).lid
        n_prime, smps = rec.predict_copy(pf_lid, lid_a)
        report = rec.copy_path(pf_lid, lid_a)
        assert (report.switches_updated, report.lft_smps) == (n_prime, smps)


class TestInvalidate:
    def test_invalidate_drops_traffic(self, configured):
        built, sm, *_, lid_a, _ = configured
        report = VSwitchReconfigurer(sm).invalidate_lid(lid_a)
        assert report.mode == "invalidate"
        for sw in built.topology.switches:
            assert sw.route(lid_a) == LFT_DROP_PORT

    def test_invalidate_costs_one_smp_per_switch(self, configured):
        built, sm, *_, lid_a, _ = configured
        report = VSwitchReconfigurer(sm).invalidate_lid(lid_a)
        assert report.lft_smps == built.topology.num_switches


class TestDestinationRouting:
    def test_destination_routed_smps_cheaper(self, configured):
        built, sm, h_a, h_b, lid_a, lid_b = configured
        rec_dir = VSwitchReconfigurer(sm, destination_routed=False)
        r1 = rec_dir.swap_lids(lid_a, lid_b)
        rec_dst = VSwitchReconfigurer(sm, destination_routed=True)
        r2 = rec_dst.swap_lids(lid_a, lid_b)  # swap back
        # Same SMP counts, but the r term is gone (equation (5)).
        assert r1.lft_smps == r2.lft_smps
        assert r2.serial_time < r1.serial_time

    def test_routing_mode_accounted(self, configured):
        _, sm, *_, lid_a, lid_b = configured
        VSwitchReconfigurer(sm, destination_routed=True).swap_lids(lid_a, lid_b)
        assert sm.transport.stats.destination_routed_smps > 0


class TestLimitedSweep:
    def test_limit_requires_lids_inside_region(self, configured):
        built, sm, h_a, h_b, lid_a, lid_b = configured
        leaf_a = h_a.uplink_switch()
        rec = VSwitchReconfigurer(sm)
        # lid_b attaches at another leaf: restricting to leaf_a is unsafe.
        with pytest.raises(ReconfigError):
            rec.swap_lids(lid_a, lid_b, limit_switches={leaf_a.index})

    def test_intra_leaf_limited_swap(self, configured):
        built, sm, h_a, h_b, lid_a, lid_b = configured
        topo = built.topology
        # Put a second LID behind a *sibling* host on leaf 0.
        sibling = topo.hcas[1]
        assert sibling.uplink_switch() is h_a.uplink_switch()
        lid_c = sm.lid_manager.assign_extra_lid(sibling.port(1))
        sm.compute_routing()
        sm.distribute()
        leaf = h_a.uplink_switch()
        rec = VSwitchReconfigurer(sm)
        report = rec.swap_lids(lid_a, lid_c, limit_switches={leaf.index})
        assert report.switches_updated == 1
        assert report.lft_smps == 1


# -- the column-edit kernel against the packet-by-packet oracle -------------

#: Small enough that one sweep overflows the flight ring and a span's
#: event list, so their truncation is part of what must match.
FLIGHT_CAPACITY = 24
SPAN_CAP = 10

FABRICS = {
    "2l-small": lambda: scaled_fattree("2l-small"),
    "3l-small": lambda: scaled_fattree("3l-small"),
    "ring": lambda: build_ring(5, 2),
}

world_case = dict(
    fabric=st.sampled_from(["2l-small", "2l-small", "ring", "ring", "3l-small"]),
    destination_routed=st.booleans(),
    resilience=st.sampled_from(["raw", "raw", "transactional"]),
    faults=st.none()
    | st.tuples(
        st.integers(0, 10**6),
        st.sampled_from([0.0, 0.15]),
        st.sampled_from([0.0, 0.15]),
        st.sampled_from([0.0, 0.15]),
    ),
)
oracle_settings = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)


def fresh_sm(fabric):
    built = FABRICS[fabric]()
    return built, SubnetManager(built.topology, built=built)


def harden(sm, resilience, faults):
    """The bring-up is over (and recorded its wall-clock path computation):
    start the observability record afresh and set the delivery regime of
    the world — retransmission, read-back, loss."""
    reset_hub(flight_capacity=FLIGHT_CAPACITY)
    if resilience == "transactional":
        sm.enable_resilience(RetryPolicy(retries=2))
    if faults is not None:
        seed, drop, corrupt, delay = faults
        sm.transport.set_fault_injector(
            FaultInjector(
                FaultPlan(
                    seed=seed, smp_drop_rate=drop, smp_corrupt_rate=corrupt,
                    smp_delay_rate=delay, smp_delay_seconds=2e-6,
                )
            )
        )


def isolate(topo, switch):
    """Unplug every cable of *switch*: the SM cannot reach it any more."""
    for port in list(switch.connected_ports()):
        topo.remove_link(port.link)


def told(report):
    """An LftReport in comparable form, ``blocks_per_switch`` order
    included."""
    return dataclasses.asdict(report), list(report.blocks_per_switch)


def attempt(fn):
    try:
        return fn()
    except ReproError as exc:
        return type(exc), str(exc)


def left_behind(sm):
    tables = sm.current_tables.ports
    return observed(sm.topology, sm.transport), tables.shape, tables.tobytes()


class TestKernelMatchesOracle:
    """Whatever the cloud or a caller does through the reconfigurer, the
    column edit + sweep leaves the subnet, the SM's tables, the accounting
    and the observability record exactly as clone → diff → one send per
    block did."""

    @oracle_settings
    @given(
        **world_case,
        scheme=st.sampled_from(["prepopulated", "dynamic"]),
        vfs=st.sampled_from([2, 6]),
        minimal=st.booleans(),
        ops=st.lists(
            st.tuples(
                st.sampled_from(["boot", "boot", "batch", "stop", "migrate", "migrate"]),
                st.integers(0, 10**6),
                st.integers(0, 10**6),
            ),
            min_size=1,
            max_size=14,
        ),
    )
    def test_cloud_sequences(
        self, monkeypatch, fabric, destination_routed, resilience, faults,
        scheme, vfs, minimal, ops,
    ):
        monkeypatch.setattr("repro.obs.spans.MAX_EVENTS_PER_SPAN", SPAN_CAP)

        def play(oracle):
            built, sm = fresh_sm(fabric)
            cloud = CloudManager(
                built.topology, built=built, sm=sm, lid_scheme=scheme,
                num_vfs=vfs, destination_routed_smps=destination_routed,
            )
            cloud.orchestrator.minimal_intra_leaf = minimal
            cloud.adopt_all_hcas()
            cloud.bring_up_subnet()
            if oracle:
                cloud.scheme.reconfigurer = PacketByPacketReconfigurer(
                    sm, destination_routed=destination_routed
                )
            harden(sm, resilience, faults)
            hyps = sorted(cloud.hypervisors)
            log = []
            for kind, a, b in ops:
                on = hyps[a % len(hyps)]
                if kind == "boot":
                    log.append(attempt(lambda: cloud.boot_vm(on=on).lid))
                elif kind == "batch":
                    specs = [(None, hyps[(a + i) % len(hyps)], None) for i in range(b % 5)]

                    def batch():
                        reconfig = cloud.boot_vms_batch(specs)[1].reconfig
                        return reconfig and told(reconfig)

                    log.append(attempt(batch))
                elif not cloud.vms:
                    continue
                elif kind == "stop":
                    log.append(attempt(lambda: cloud.stop_vm(sorted(cloud.vms)[a % len(cloud.vms)])))
                else:
                    vm = cloud.vms[sorted(cloud.vms)[a % len(cloud.vms)]]
                    here = cloud.hypervisors[vm.hypervisor_name]
                    leaf = here.hca.uplink_switch()
                    near = [h for h in hyps if cloud.hypervisors[h].hca.uplink_switch() is leaf]
                    dest = (near if b % 2 else hyps)[b % len(near if b % 2 else hyps)]
                    rec = cloud.scheme.reconfigurer
                    there = cloud.hypervisors[dest]
                    log.append((
                        rec.predict_copy(there.pf_lid, vm.lid),
                        rec.predict_swap(vm.lid, there.pf_lid),
                    ))

                    def migrate():
                        report = cloud.live_migrate(vm.name, dest)
                        return (
                            told(report.reconfig), report.outcome, report.failure,
                            report.address_update_smps, report.downtime_seconds,
                            report.smp_retries, report.smp_timeouts,
                        )

                    log.append(attempt(migrate))
            return log, left_behind(sm), cloud.running_vm_count

        assert play(oracle=False) == play(oracle=True)

    @oracle_settings
    @given(
        **world_case,
        ops=st.lists(
            st.tuples(
                st.sampled_from(["swap", "safe_swap", "copy", "batch", "invalidate"]),
                st.integers(0, 10**6),
                st.integers(0, 10**6),
                st.booleans(),
            ),
            min_size=1,
            max_size=8,
        ),
    )
    def test_primitive_sequences(
        self, monkeypatch, fabric, destination_routed, resilience, faults, ops,
    ):
        monkeypatch.setattr("repro.obs.spans.MAX_EVENTS_PER_SPAN", SPAN_CAP)

        def play(oracle):
            built, sm = fresh_sm(fabric)
            topo = built.topology
            sm.assign_lids()
            hosts = [topo.hcas[0], topo.hcas[1], topo.hcas[len(topo.hcas) // 2], topo.hcas[-1]]
            # Routed extra LIDs on both sides of the next block boundary…
            edge = (topo.num_lids // LFT_BLOCK_SIZE + 1) * LFT_BLOCK_SIZE
            routed = [
                sm.lid_manager.assign_extra_lid(host.port(1), lid=edge + i)
                for host, i in zip(hosts, (-2, -1, 0, 1))
            ]
            sm.compute_routing()
            sm.distribute()
            # …and bound ones no table is wide enough for yet.
            width = sm.current_tables.ports.shape[1]
            late = [
                sm.lid_manager.assign_extra_lid(host.port(1), lid=width + 70 + i)
                for i, host in enumerate(hosts[:3])
            ]
            pfs = [host.port(1).lid for host in hosts]
            inside = routed + pfs
            lids = inside + late
            make = PacketByPacketReconfigurer if oracle else VSwitchReconfigurer
            rec = make(sm, destination_routed=destination_routed)
            harden(sm, resilience, faults)
            log = []
            for kind, a, b, limited in ops:
                lid_a, lid_b = lids[a % len(lids)], lids[b % len(lids)]
                limit = (
                    {topo.port_of_lid(lid_a).remote.node.index} if limited else None
                )
                log.append((rec.predict_swap(lid_a, lid_b), rec.predict_copy(lid_a, lid_b)))
                if kind == "swap":
                    run = lambda: rec.swap_lids(lid_a, lid_b, limit_switches=limit)
                elif kind == "safe_swap":
                    # Within the SM's tables: the oracle never restored a
                    # LID it had invalidated beyond them.
                    lid_a, lid_b = inside[a % len(inside)], inside[b % len(inside)]
                    run = lambda: rec.safe_swap_lids(lid_a, lid_b, limit_switches=limit)
                elif kind == "copy":
                    run = lambda: rec.copy_path(lid_a, lid_b, limit_switches=limit)
                elif kind == "batch":
                    targets = (routed + late)[a % 3 : a % 3 + 1 + b % 5]
                    run = lambda: rec.copy_paths(
                        [(pfs[(b + i) % len(pfs)], t) for i, t in enumerate(targets)],
                        limit_switches=limit,
                    )
                else:
                    run = lambda: rec.invalidate_lid(lid_a)
                outcome = attempt(run)
                log.append(outcome if isinstance(outcome, tuple) else told(outcome))
            return log, left_behind(sm)

        assert play(oracle=False) == play(oracle=True)


@pytest.fixture
def straddling(configured):
    """*configured* plus a reconfigurer and a fresh LID in the next block."""
    built, sm, h_a, h_b, lid_a, lid_b = configured
    far = sm.lid_manager.assign_extra_lid(h_b.port(1), lid=2 * LFT_BLOCK_SIZE + 5)
    assert lft_block_of(far) != lft_block_of(lid_a)
    return built.topology, sm, h_b.port(1).lid, lid_a, far


class TestKernelContract:
    def test_unreachable_switch_mid_sweep_undoes_exactly_what_was_applied(
        self, straddling
    ):
        topo, sm, pf_lid, _, far = straddling
        isolate(topo, topo.switches[4])
        before = topo.lft.copy()
        sent = sm.transport.stats.total_smps
        get_hub().flight.clear()
        with pytest.raises(UnreachableTargetError):
            VSwitchReconfigurer(sm).copy_path(pf_lid, far)
        earlier = [sw.name for sw in topo.switches[:4]]
        events = get_hub().flight.events()
        # Four blocks went out before the dead switch's turn came, and
        # exactly those four were restored, newest first.
        assert [e.target for e in events] == earlier + earlier[::-1]
        assert all(e.lft_update for e in events)
        assert sm.transport.stats.total_smps == sent + 8
        assert all(sw.route(far) == 255 for sw in topo.switches)
        assert (topo.lft[:, : before.shape[1]] == before).all()

    def test_rollback_sends_the_restores_the_oracle_sends(self, straddling):
        def play(make):
            built = scaled_fattree("2l-small")
            sm = SubnetManager(built.topology, built=built)
            sm.initial_configure(with_discovery=False)
            reset_hub()
            host = built.topology.hcas[-1]
            far = sm.lid_manager.assign_extra_lid(host.port(1), lid=200)
            isolate(built.topology, built.topology.switches[7])
            outcome = attempt(lambda: make(sm).copy_path(host.port(1).lid, far))
            return outcome, left_behind(sm)

        kernel = play(VSwitchReconfigurer)
        assert kernel == play(PacketByPacketReconfigurer)
        assert kernel[0][0] is UnreachableTargetError

    def test_failed_restore_is_a_rollback_error(self, straddling):
        topo, sm, pf_lid, _, far = straddling
        rec = VSwitchReconfigurer(sm)
        deliver = sm.transport.deliver

        def die_after_the_sweep(*args, **kwargs):
            deliver(*args, **kwargs)
            isolate(topo, topo.switches[0])
            raise UnreachableTargetError("gone")

        sm.transport.deliver = die_after_the_sweep
        with pytest.raises(ReconfigRollbackError):
            rec.copy_path(pf_lid, far)

    def test_safe_swap_counts_each_switch_once(self, straddling):
        topo, sm, pf_lid, lid_a, far = straddling
        rec = VSwitchReconfigurer(sm)
        rec.copy_path(pf_lid, far)
        n_prime, smps = rec.predict_swap(lid_a, far)
        report = rec.safe_swap_lids(lid_a, far)
        assert report.switches_updated == n_prime
        assert len(report.blocks_per_switch) == n_prime
        # Both phases rewrite both blocks: twice the plain swap's SMPs.
        assert report.lft_smps == 2 * smps == 4 * n_prime
        assert set(report.blocks_per_switch.values()) == {4}

    def test_empty_edit_sends_nothing(self, straddling):
        topo, sm, pf_lid, lid_a, far = straddling
        rec = VSwitchReconfigurer(sm)
        rec.copy_path(pf_lid, far)
        sent = sm.transport.stats.total_smps
        clock = get_hub().now()
        for report in (
            rec.copy_path(pf_lid, far),
            rec.copy_paths([(pf_lid, far)]),
            rec.copy_paths([]),
        ):
            assert (report.lft_smps, report.switches_updated) == (0, 0)
            assert report.blocks_per_switch == {}
            assert report.serial_time == report.pipelined_time == 0.0
        assert rec.predict_copy(pf_lid, far) == (0, 0)
        assert sm.transport.stats.total_smps == sent
        assert get_hub().now() == clock

    def test_batch_target_may_not_double_as_template(self, straddling):
        topo, sm, pf_lid, lid_a, far = straddling
        sent = sm.transport.stats.total_smps
        with pytest.raises(ReconfigError):
            VSwitchReconfigurer(sm).copy_paths([(pf_lid, lid_a), (lid_a, far)])
        assert sm.transport.stats.total_smps == sent
