"""Tests for SMP packet records."""

import numpy as np
import pytest

from repro.constants import LFT_BLOCK_SIZE, LFT_BLOCKS_FULL_SUBNET
from repro.errors import TopologyError
from repro.mad.smp import Smp, SmpKind, SmpMethod, make_set_lft_block


class TestSmp:
    def test_set_lft_requires_full_block(self):
        with pytest.raises(TopologyError):
            Smp(
                SmpMethod.SET,
                SmpKind.LFT_BLOCK,
                "sw",
                payload={"block": 0, "entries": np.zeros(3, dtype=np.int16)},
            )

    def test_set_lft_requires_block_index(self):
        with pytest.raises(TopologyError):
            Smp(
                SmpMethod.SET,
                SmpKind.LFT_BLOCK,
                "sw",
                payload={"entries": np.zeros(LFT_BLOCK_SIZE, dtype=np.int16)},
            )

    @pytest.mark.parametrize("method", [SmpMethod.SET, SmpMethod.GET])
    @pytest.mark.parametrize("block", [-1, LFT_BLOCKS_FULL_SUBNET, 100_000])
    def test_lft_block_outside_the_lid_space_is_refused(self, method, block):
        # Block 100000 would otherwise widen every switch's table to
        # 6.4 M entries; block -1 would write the table's tail.
        payload = {"block": block}
        if method is SmpMethod.SET:
            payload["entries"] = np.zeros(LFT_BLOCK_SIZE, dtype=np.int16)
        with pytest.raises(TopologyError, match="outside"):
            Smp(method, SmpKind.LFT_BLOCK, "sw", payload=payload)
        last = dict(payload, block=LFT_BLOCKS_FULL_SUBNET - 1)
        assert Smp(method, SmpKind.LFT_BLOCK, "sw", payload=last).kind is SmpKind.LFT_BLOCK

    def test_get_lft_needs_no_entries(self):
        smp = Smp(SmpMethod.GET, SmpKind.LFT_BLOCK, "sw", payload={"block": 0})
        assert not smp.is_lft_update

    def test_is_lft_update_only_for_set_lft(self):
        smp = make_set_lft_block("sw", 0, np.zeros(LFT_BLOCK_SIZE))
        assert smp.is_lft_update
        other = Smp(SmpMethod.SET, SmpKind.PORT_INFO, "sw")
        assert not other.is_lft_update

    def test_directed_default(self):
        assert Smp(SmpMethod.GET, SmpKind.NODE_INFO, "x").directed is True

    def test_make_set_lft_block_casts_dtype(self):
        smp = make_set_lft_block("sw", 2, np.zeros(LFT_BLOCK_SIZE, dtype=np.int64))
        assert smp.payload["entries"].dtype == np.int16
        assert smp.payload["block"] == 2

    def test_destination_routed_option(self):
        smp = make_set_lft_block(
            "sw", 0, np.zeros(LFT_BLOCK_SIZE), directed=False
        )
        assert smp.directed is False
