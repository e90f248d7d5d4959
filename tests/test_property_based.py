"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.constants import LFT_BLOCK_SIZE, LFT_UNSET, MAX_UNICAST_LID
from repro.fabric.addressing import LidAllocator
from repro.fabric.lft import (
    apply_column_op,
    lft_block_of,
    min_blocks_for_lid_count,
)
from repro.sim.engine import replay_smp_pipeline
from tests.fabric.test_lft import changed_blocks, diff_plan, store
from tests.oracles.cdg import ChannelDependencyGraph

lids = st.integers(min_value=1, max_value=2000)
ports = st.integers(min_value=0, max_value=254)


class TestLftProperties:
    """Section V-C1's ``m' <= 2`` (swap) and ``m' <= 1`` (copy) on the
    column edit every LFT copy takes, and the store's block I/O."""

    @staticmethod
    def programmed(entries):
        topo = store(1)
        for lid, port in entries.items():
            topo.set_lft(0, lid, port)
        return topo.lft.copy()

    @given(a=lids, b=lids, pa=ports, pb=ports)
    def test_swap_is_involution(self, a, b, pa, pb):
        if a == b:
            return
        table = self.programmed({a: pa, b: pb})
        op = {"op": "swap", "lid_a": a, "lid_b": b}
        apply_column_op(apply_column_op(table, op)[0], op)
        assert table[0, a] == pa and table[0, b] == pb

    @given(a=lids, b=lids, pa=ports, pb=ports)
    def test_swap_changes_at_most_two_blocks(self, a, b, pa, pb):
        if a == b:
            return
        before = self.programmed({a: pa, b: pb})
        after, _ = apply_column_op(before.copy(), {"op": "swap", "lid_a": a, "lid_b": b})
        (changed,) = changed_blocks(before, after)
        assert len(changed) <= 2
        for blk in changed:
            assert blk in (lft_block_of(a), lft_block_of(b))

    @given(a=lids, b=lids, pa=ports)
    def test_copy_changes_at_most_one_block(self, a, b, pa):
        if a == b:
            return
        before = self.programmed({a: pa})
        op = {"op": "copy", "template_lid": a, "target_lid": b}
        after, _ = apply_column_op(before.copy(), op)
        (changed,) = changed_blocks(before, after)
        assert len(changed) <= 1
        assert after[0, b] == pa

    @given(st.dictionaries(lids, ports, max_size=50))
    def test_diff_blocks_equals_block_cover_of_changes(self, entries):
        other = self.programmed(entries)
        real_changes = {
            lft_block_of(lid)
            for lid, port in entries.items()
            if port != LFT_UNSET
        }
        assert diff_plan(store(1), other) == [sorted(real_changes)]

    @given(st.integers(min_value=0, max_value=49151))
    def test_min_blocks_monotone_and_tight(self, n):
        m = min_blocks_for_lid_count(n)
        assert m * LFT_BLOCK_SIZE >= n
        if n:
            assert (m - 1) * LFT_BLOCK_SIZE <= n  # no slack of a full block
            assert min_blocks_for_lid_count(n - 1) <= m

    @given(
        block=st.integers(min_value=0, max_value=30),
        values=st.lists(ports, min_size=64, max_size=64),
    )
    def test_load_get_block_roundtrip(self, block, values):
        topo = store(1)
        payload = np.asarray([values], dtype=np.int16)
        topo.load_lft_blocks(0, [block], payload)
        assert np.array_equal(topo.lft_blocks([0], [block]), payload)


class TestLidAllocatorProperties:
    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
    @given(
        st.lists(
            st.tuples(st.booleans(), st.integers(min_value=0, max_value=30)),
            max_size=60,
        )
    )
    def test_never_double_allocates(self, ops):
        alloc = LidAllocator(first=1, last=200)
        held = []
        for is_alloc, idx in ops:
            if is_alloc or not held:
                lid = alloc.allocate()
                assert lid not in held
                held.append(lid)
            else:
                lid = held.pop(idx % len(held))
                alloc.release(lid)
        assert alloc.allocated_count == len(held)
        assert sorted(held) == list(alloc.allocated())

    @given(st.sets(st.integers(min_value=1, max_value=500), max_size=40))
    def test_assign_then_allocate_avoids_collisions(self, fixed):
        alloc = LidAllocator(first=1, last=1000)
        for lid in fixed:
            alloc.assign(lid)
        fresh = {alloc.allocate() for _ in range(40)}
        assert not fresh & fixed


class TestCdgProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=6),
                st.integers(min_value=0, max_value=6),
                st.integers(min_value=0, max_value=6),
            ),
            max_size=40,
        )
    )
    def test_try_add_preserves_acyclicity(self, triples):
        cdg = ChannelDependencyGraph()
        for a, b, c in triples:
            if a == b or b == c:
                continue
            cdg.try_add_dependencies([(((a, b)), ((b, c)))])
            assert cdg.is_acyclic()

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=5),
                st.integers(min_value=0, max_value=5),
                st.integers(min_value=0, max_value=5),
            ),
            max_size=30,
        )
    )
    def test_find_cycle_returns_real_cycle(self, triples):
        cdg = ChannelDependencyGraph()
        for a, b, c in triples:
            if a == b or b == c:
                continue
            cdg.add_dependency(((a, b), (b, c)))
        cycle = cdg.find_cycle()
        if cycle is not None:
            # Consecutive channels must chain, and the loop must close.
            n = len(cycle)
            assert n >= 1
            for i in range(n):
                cur, nxt = cycle[i], cycle[(i + 1) % n]
                assert cur[1] == nxt[0]


class TestPipelineProperties:
    @given(
        st.lists(
            st.floats(min_value=0.001, max_value=10.0, allow_nan=False),
            min_size=1,
            max_size=40,
        ),
        st.integers(min_value=1, max_value=16),
    )
    def test_pipeline_bounds(self, lats, window):
        t = replay_smp_pipeline(lats, window)
        assert t <= sum(lats) + 1e-9
        assert t >= max(lats) - 1e-9
        assert t >= sum(lats) / window - 1e-9

    @given(
        st.lists(
            st.floats(min_value=0.001, max_value=10.0, allow_nan=False),
            min_size=1,
            max_size=30,
        )
    )
    def test_window_one_is_serial(self, lats):
        assert replay_smp_pipeline(lats, 1) == sum(lats)

    @given(
        st.lists(
            st.floats(min_value=0.001, max_value=10.0, allow_nan=False),
            min_size=1,
            max_size=30,
        ),
        st.integers(min_value=1, max_value=8),
    )
    def test_wider_window_never_slower(self, lats, window):
        assert (
            replay_smp_pipeline(lats, window + 1)
            <= replay_smp_pipeline(lats, window) + 1e-9
        )
