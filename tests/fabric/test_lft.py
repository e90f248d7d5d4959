"""Tests for the hardware LFT store, the column edit and the 64-LID block
machinery."""

import numpy as np
import pytest

from repro.constants import (
    LFT_BLOCK_SIZE,
    LFT_BLOCKS_FULL_SUBNET,
    LFT_DROP_PORT,
    LFT_UNSET,
)
from repro.errors import TopologyError
from repro.fabric.lft import (
    apply_column_op,
    blocks_covering,
    lft_block_of,
    min_blocks_for_lid_count,
    widen,
)
from repro.fabric.topology import Topology
from repro.mad.transport import SmpTransport
from repro.sm.lft_distribution import LftDistributor
from repro.sm.routing.base import RoutingTables
from tests.oracles.lft import LinearForwardingTable


class TestBlockArithmetic:
    def test_block_size_is_64(self):
        assert LFT_BLOCK_SIZE == 64

    def test_block_of(self):
        assert lft_block_of(0) == 0
        assert lft_block_of(63) == 0
        assert lft_block_of(64) == 1
        assert lft_block_of(12) == 0  # paper's Fig. 5: LIDs 2 and 12 share block 0

    def test_paper_swap_same_block(self):
        # Section V-C1: swapping LIDs 2 and 12 needs a single SMP because
        # both live in the block covering LIDs 0-63.
        assert lft_block_of(2) == lft_block_of(12)

    def test_paper_swap_cross_block(self):
        # "If the LID of VF3 on hypervisor 3 was 64 or greater, then two
        # SMPs would need to be sent."
        assert lft_block_of(2) != lft_block_of(64)

    def test_blocks_covering(self):
        assert blocks_covering([1, 2, 70, 130]) == [0, 1, 2]

    def test_negative_lid_rejected(self):
        with pytest.raises(TopologyError):
            lft_block_of(-1)

    def test_full_subnet_needs_768_blocks(self):
        # Section VI-A: a fully populated subnet needs 768 SMPs per switch.
        assert LFT_BLOCKS_FULL_SUBNET == 768


class TestMinBlocks:
    @pytest.mark.parametrize(
        "lids,expected",
        [(360, 6), (702, 11), (6804, 107), (13284, 208)],
    )
    def test_paper_table1_min_blocks(self, lids, expected):
        assert min_blocks_for_lid_count(lids) == expected

    def test_zero(self):
        assert min_blocks_for_lid_count(0) == 0

    def test_one_lid_needs_one_block(self):
        assert min_blocks_for_lid_count(1) == 1

    def test_63_lids_fit_one_block(self):
        assert min_blocks_for_lid_count(63) == 1

    def test_64_lids_need_two_blocks(self):
        # LIDs 1..64: LID 64 lives in block 1.
        assert min_blocks_for_lid_count(64) == 2

    def test_negative_rejected(self):
        with pytest.raises(TopologyError):
            min_blocks_for_lid_count(-1)


def store(num_switches=2):
    """A topology whose hardware LFT store has *num_switches* rows."""
    topo = Topology()
    for i in range(num_switches):
        topo.add_switch(f"s{i}", 4)
    return topo


def changed_blocks(before, after):
    """Per row, the 64-LID blocks where *after* differs from *before*
    (the narrower one padded with unset entries)."""
    width = max(before.shape[1], after.shape[1])
    a, b = widen(before, width - 1), widen(after, width - 1)
    mask = (a != b).reshape(len(a), -1, LFT_BLOCK_SIZE).any(axis=2)
    return [np.flatnonzero(row).tolist() for row in mask]


def diff_plan(topo, ports, force_full=False):
    """The blocks a distribution of *ports* would send, per switch."""
    distributor = LftDistributor(topo, SmpTransport(topo))
    send, _ = distributor._diff_plan(RoutingTables("test", ports), force_full)
    return [np.flatnonzero(row).tolist() for row in send]


class TestLftBasics:
    def test_fresh_table_is_unprogrammed(self):
        topo = store()
        assert topo.lft.shape == (2, LFT_BLOCK_SIZE)
        assert (topo.lft == LFT_UNSET).all()
        assert topo.switches[0].route(5) == LFT_UNSET

    def test_set_get(self):
        topo = store()
        topo.set_lft(0, 5, 3)
        assert topo.switches[0].route(5) == 3
        assert topo.switches[1].route(5) == LFT_UNSET

    def test_get_beyond_capacity_is_unset(self):
        topo = store()
        assert topo.switches[0].route(10_000) == LFT_UNSET
        assert (topo.lft_columns([3, 10_000]) == LFT_UNSET).all()
        assert (topo.lft_blocks([0, 1], [0, 700]) == LFT_UNSET).all()

    def test_set_grows_capacity(self):
        # Widening is fabric-wide and in whole blocks: blocks 0..3 cover
        # LID 200 on every switch.
        topo = store()
        topo.set_lft(0, 200, 7)
        assert topo.switches[0].route(200) == 7
        assert topo.lft.shape == (2, 4 * LFT_BLOCK_SIZE)
        assert topo.switches[1].route(200) == LFT_UNSET

    def test_set_lid_zero_rejected(self):
        with pytest.raises(TopologyError):
            store().set_lft(0, 0, 1)

    def test_set_bad_port_rejected(self):
        with pytest.raises(TopologyError):
            store().set_lft(0, 1, 256)

    def test_clear(self):
        topo = store()
        topo.set_lft(0, 9, 2)
        topo.set_lft(0, 9, LFT_UNSET)
        assert topo.switches[0].route(9) == LFT_UNSET

    def test_drop_forwards_to_port_255(self):
        # Section VI-C: port 255 drops traffic toward a migrating LID.
        ports = store().lft.copy()
        ports[:, 8] = 3
        apply_column_op(ports, {"op": "invalidate", "lid": 8})
        assert (ports[:, 8] == LFT_DROP_PORT).all()

    def test_programmed_lids(self):
        topo = store()
        topo.set_lft(0, 3, 1)
        topo.set_lft(0, 99, 2)
        assert np.flatnonzero(topo.lft[0] != LFT_UNSET).tolist() == [3, 99]


class TestSwap:
    """Section V-C1 on the column edit every LFT copy takes."""

    @staticmethod
    def swap(entries, lid_a, lid_b):
        topo = store(1)
        for lid, port in entries.items():
            topo.set_lft(0, lid, port)
        before = topo.lft.copy()
        after = apply_column_op(
            before.copy(), {"op": "swap", "lid_a": lid_a, "lid_b": lid_b}
        )
        return after, changed_blocks(before, after)[0]

    def test_swap_same_block_touches_one_block(self):
        after, blocks = self.swap({2: 2, 12: 4}, 2, 12)
        assert blocks == [0]
        assert (after[0, 2], after[0, 12]) == (4, 2)

    def test_swap_cross_block_touches_two_blocks(self):
        _, blocks = self.swap({2: 2, 64: 4}, 2, 64)
        assert blocks == [0, 1]

    def test_swap_equal_entries_is_noop(self):
        # Section VI-B: a switch already forwarding both LIDs through the
        # same port needs no update.
        _, blocks = self.swap({2: 2, 12: 2}, 2, 12)
        assert blocks == []

    def test_swap_is_involution(self):
        ports = np.full((1, LFT_BLOCK_SIZE), LFT_UNSET, dtype=np.int16)
        ports[0, 5], ports[0, 9] = 1, 3
        op = {"op": "swap", "lid_a": 5, "lid_b": 9}
        apply_column_op(apply_column_op(ports, op), op)
        assert (ports[0, 5], ports[0, 9]) == (1, 3)


class TestCopyEntry:
    def test_copy_touches_at_most_one_block(self):
        before = store(1).lft.copy()
        before[0, 1] = 6
        after = apply_column_op(
            before.copy(), {"op": "copy", "template_lid": 1, "target_lid": 130}
        )
        assert changed_blocks(before, after) == [[2]]
        assert after[0, 130] == 6

    def test_copy_equal_is_noop(self):
        before = store(1).lft.copy()
        before[0, [1, 50]] = 6
        after = apply_column_op(
            before.copy(), {"op": "copy", "template_lid": 1, "target_lid": 50}
        )
        assert changed_blocks(before, after) == [[]]


class TestBlocksAndDiff:
    def test_load_and_get_block_roundtrip(self):
        topo = store()
        block = np.full((1, LFT_BLOCK_SIZE), 9, dtype=np.int16)
        topo.load_lft_blocks(1, [1], block)
        assert np.array_equal(topo.lft_blocks([1], [1]), block)
        assert (topo.lft_blocks([0], [1]) == LFT_UNSET).all()

    def test_load_block_wrong_size_rejected(self):
        with pytest.raises(TopologyError):
            store().load_lft_blocks(0, [0], np.zeros((1, 10), dtype=np.int16))

    def test_load_blocks_is_load_block_per_row_in_order(self):
        rows = np.arange(4 * LFT_BLOCK_SIZE, dtype=np.int16).reshape(4, -1) % 7
        blocks = [5, 0, 2, 5]  # grows the store; block 5 keeps its last row
        for n in (4, 3):  # one indexed assignment, then slice copies
            topo = store()
            topo.load_lft_blocks(1, blocks[:n], rows[:n])
            oracle = LinearForwardingTable()
            oracle.load_blocks(blocks[:n], rows[:n])
            assert np.array_equal(topo.lft[1], oracle.as_array())
            assert (topo.lft[0] == LFT_UNSET).all()
        topo.load_lft_blocks(1, [], np.empty((0, LFT_BLOCK_SIZE), dtype=np.int16))
        assert np.array_equal(topo.lft[1], oracle.as_array())
        topo.load_lft_blocks(1, blocks, rows)
        assert np.array_equal(topo.lft_blocks([1], [5])[0], rows[3])

    def test_load_blocks_wrong_shape_rejected(self):
        topo = store()
        for bad in (np.zeros((2, 10)), np.zeros((1, LFT_BLOCK_SIZE)), np.zeros(LFT_BLOCK_SIZE)):
            with pytest.raises(TopologyError):
                topo.load_lft_blocks(0, [0, 1], bad.astype(np.int16))

    def test_diff_blocks_counts_changed_blocks_only(self):
        topo = store()
        ports = np.full((2, 3 * LFT_BLOCK_SIZE), LFT_UNSET, dtype=np.int16)
        ports[0, 10] = 1  # block 0
        ports[0, 130] = 2  # block 2
        assert diff_plan(topo, ports) == [[0, 2], []]

    def test_diff_blocks_empty_when_equal(self):
        topo = store()
        topo.set_lft(0, 3, 3)
        assert diff_plan(topo, topo.lft.copy()) == [[], []]

    def test_diff_handles_different_capacities(self):
        # A store wider than the routing: the stale block is cleared too.
        topo = store()
        topo.set_lft(1, 200, 5)
        ports = np.full((2, LFT_BLOCK_SIZE), LFT_UNSET, dtype=np.int16)
        assert diff_plan(topo, ports) == [[], [3]]

    def test_used_blocks(self):
        ports = np.full((2, 5 * LFT_BLOCK_SIZE), LFT_UNSET, dtype=np.int16)
        ports[0, [1, 260]] = 1
        assert diff_plan(store(), ports, force_full=True) == [[0, 4], []]

    def test_clone_is_independent(self):
        topo = store()
        topo.set_lft(0, 1, 1)
        topo.lft_columns([1])[0, 0] = 2
        topo.lft_blocks([0], [0])[0, 1] = 2
        assert topo.switches[0].route(1) == 1

    def test_as_array_readonly(self):
        with pytest.raises(ValueError):
            store().lft[0, 1] = 5


class TestApplyColumnOp:
    """The one Algorithm-1 edit of a recorded ``ports[switch, lid]``."""

    @staticmethod
    def matrix():
        return np.arange(12, dtype=np.int16).reshape(3, 4)

    def test_swap_exchanges_two_columns_in_place(self):
        ports = self.matrix()
        out = apply_column_op(ports, {"op": "swap", "lid_a": 1, "lid_b": 2})
        assert out is ports
        assert ports[:, 1].tolist() == [2, 6, 10]
        assert ports[:, 2].tolist() == [1, 5, 9]

    def test_switch_rows_limit_the_edit(self):
        ports = self.matrix()
        apply_column_op(
            ports, {"op": "swap", "lid_a": 1, "lid_b": 2, "switches": [0, 2]}
        )
        assert ports[:, 1].tolist() == [2, 5, 10]
        assert ports[:, 2].tolist() == [1, 6, 9]

    def test_copy_within_the_matrix(self):
        ports = self.matrix()
        op = {"op": "copy", "template_lid": 3, "target_lid": 0, "switches": None}
        assert apply_column_op(ports, op) is ports
        assert ports[:, 0].tolist() == [3, 7, 11]

    def test_copy_beyond_the_matrix_grows_it_in_unset_blocks(self):
        ports = self.matrix()
        grown = apply_column_op(
            ports, {"op": "copy", "template_lid": 1, "target_lid": 70}
        )
        assert grown is not ports and grown.dtype == ports.dtype
        assert grown.shape == (3, 2 * LFT_BLOCK_SIZE)
        assert np.array_equal(grown[:, :4], self.matrix())
        assert grown[:, 70].tolist() == [1, 5, 9]
        rest = np.delete(grown[:, 4:], 70 - 4, axis=1)
        assert (rest == LFT_UNSET).all()

    def test_invalidate_points_the_column_at_the_drop_port(self):
        ports = self.matrix()
        apply_column_op(ports, {"op": "invalidate", "lid": 2})
        assert (ports[:, 2] == LFT_DROP_PORT).all()
        assert ports[:, 1].tolist() == [1, 5, 9]

    @pytest.mark.parametrize(
        "op",
        [
            {"op": "swap", "lid_a": 1, "lid_b": 4},
            {"op": "invalidate", "lid": 4},
        ],
    )
    def test_swap_and_invalidate_beyond_the_matrix_touch_nothing(self, op):
        ports = self.matrix()
        assert apply_column_op(ports, op) is None
        assert np.array_equal(ports, self.matrix())

    def test_unknown_op_is_a_typed_error(self):
        with pytest.raises(TopologyError, match="unknown LFT column op"):
            apply_column_op(self.matrix(), {"op": "rotate"})
