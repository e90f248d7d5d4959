"""Tests for Linear Forwarding Tables and the 64-LID block machinery."""

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
    LinearForwardingTable,
    apply_column_op,
    blocks_covering,
    lft_block_of,
    min_blocks_for_lid_count,
)


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


class TestLftBasics:
    def test_fresh_table_is_unprogrammed(self):
        lft = LinearForwardingTable(top_lid=100)
        assert lft.get(5) == LFT_UNSET
        assert not lft.is_programmed(5)

    def test_set_get(self):
        lft = LinearForwardingTable(top_lid=100)
        lft.set(5, 3)
        assert lft.get(5) == 3
        assert lft.is_programmed(5)

    def test_get_beyond_capacity_is_unset(self):
        lft = LinearForwardingTable(top_lid=63)
        assert lft.get(10_000) == LFT_UNSET

    def test_set_grows_capacity(self):
        lft = LinearForwardingTable(top_lid=63)
        lft.set(200, 7)
        assert lft.get(200) == 7
        assert lft.num_blocks == 4  # blocks 0..3 cover LID 200

    def test_set_lid_zero_rejected(self):
        lft = LinearForwardingTable()
        with pytest.raises(TopologyError):
            lft.set(0, 1)

    def test_set_bad_port_rejected(self):
        lft = LinearForwardingTable()
        with pytest.raises(TopologyError):
            lft.set(1, 256)

    def test_clear(self):
        lft = LinearForwardingTable(top_lid=100)
        lft.set(9, 2)
        lft.clear(9)
        assert not lft.is_programmed(9)

    def test_drop_forwards_to_port_255(self):
        # Section VI-C: port 255 drops traffic toward a migrating LID.
        lft = LinearForwardingTable(top_lid=100)
        lft.drop(8)
        assert lft.get(8) == LFT_DROP_PORT

    def test_programmed_lids(self):
        lft = LinearForwardingTable(top_lid=100)
        lft.set(3, 1)
        lft.set(99, 2)
        assert list(lft.programmed_lids()) == [3, 99]


class TestSwap:
    def test_swap_same_block_touches_one_block(self):
        lft = LinearForwardingTable(top_lid=100)
        lft.set(2, 2)
        lft.set(12, 4)
        assert lft.swap(2, 12) == (0,)
        assert lft.get(2) == 4
        assert lft.get(12) == 2

    def test_swap_cross_block_touches_two_blocks(self):
        lft = LinearForwardingTable(top_lid=100)
        lft.set(2, 2)
        lft.set(64, 4)
        assert lft.swap(2, 64) == (0, 1)

    def test_swap_equal_entries_is_noop(self):
        # Section VI-B: a switch already forwarding both LIDs through the
        # same port needs no update.
        lft = LinearForwardingTable(top_lid=100)
        lft.set(2, 2)
        lft.set(12, 2)
        assert lft.swap(2, 12) == ()

    def test_swap_is_involution(self):
        lft = LinearForwardingTable(top_lid=100)
        lft.set(5, 1)
        lft.set(9, 3)
        lft.swap(5, 9)
        lft.swap(5, 9)
        assert lft.get(5) == 1 and lft.get(9) == 3


class TestCopyEntry:
    def test_copy_touches_at_most_one_block(self):
        lft = LinearForwardingTable(top_lid=200)
        lft.set(1, 6)
        assert lft.copy_entry(1, 130) == (2,)
        assert lft.get(130) == 6

    def test_copy_equal_is_noop(self):
        lft = LinearForwardingTable(top_lid=100)
        lft.set(1, 6)
        lft.set(50, 6)
        assert lft.copy_entry(1, 50) == ()


class TestBlocksAndDiff:
    def test_load_and_get_block_roundtrip(self):
        lft = LinearForwardingTable(top_lid=200)
        block = np.full(LFT_BLOCK_SIZE, 9, dtype=np.int16)
        lft.load_block(1, block)
        assert np.array_equal(lft.get_block(1), block)

    def test_load_block_wrong_size_rejected(self):
        lft = LinearForwardingTable()
        with pytest.raises(TopologyError):
            lft.load_block(0, np.zeros(10, dtype=np.int16))

    def test_load_blocks_is_load_block_per_row_in_order(self):
        rows = np.arange(4 * LFT_BLOCK_SIZE, dtype=np.int16).reshape(4, -1) % 7
        blocks = [5, 0, 2, 5]  # grows the table; block 5 keeps its last row
        one_by_one = LinearForwardingTable(top_lid=100)
        for block, row in zip(blocks, rows):
            one_by_one.load_block(block, row)
        at_once = LinearForwardingTable(top_lid=100)
        at_once.load_blocks(blocks, rows)
        assert at_once == one_by_one
        assert at_once.top_lid == one_by_one.top_lid
        assert np.array_equal(at_once.get_block(5), rows[3])
        at_once.load_blocks([], np.empty((0, LFT_BLOCK_SIZE), dtype=np.int16))
        assert at_once == one_by_one

    def test_load_blocks_wrong_shape_rejected(self):
        lft = LinearForwardingTable()
        for bad in (np.zeros((2, 10)), np.zeros((1, LFT_BLOCK_SIZE)), np.zeros(LFT_BLOCK_SIZE)):
            with pytest.raises(TopologyError):
                lft.load_blocks([0, 1], bad.astype(np.int16))

    def test_diff_blocks_counts_changed_blocks_only(self):
        a = LinearForwardingTable(top_lid=300)
        b = a.clone()
        b.set(10, 1)  # block 0
        b.set(130, 2)  # block 2
        assert a.diff_blocks(b) == [0, 2]

    def test_diff_blocks_empty_when_equal(self):
        a = LinearForwardingTable(top_lid=100)
        a.set(3, 3)
        b = a.clone()
        assert a.diff_blocks(b) == []
        assert a == b

    def test_diff_handles_different_capacities(self):
        a = LinearForwardingTable(top_lid=63)
        b = LinearForwardingTable(top_lid=300)
        b.set(200, 5)
        assert a.diff_blocks(b) == [3]

    def test_used_blocks(self):
        lft = LinearForwardingTable(top_lid=300)
        lft.set(1, 1)
        lft.set(260, 1)
        assert lft.used_blocks() == [0, 4]

    def test_clone_is_independent(self):
        a = LinearForwardingTable(top_lid=100)
        a.set(1, 1)
        b = a.clone()
        b.set(1, 2)
        assert a.get(1) == 1

    def test_as_array_readonly(self):
        lft = LinearForwardingTable(top_lid=100)
        arr = lft.as_array()
        with pytest.raises(ValueError):
            arr[1] = 5


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
