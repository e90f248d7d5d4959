"""The hardware LFT store against per-switch tables.

:attr:`repro.fabric.topology.Topology.lft` holds every switch's LFT as
one ``(switch, LID)`` matrix. Random sequences of block writes, single
entry writes, switch additions and removals and reads past the width
run against the store and against one :class:`tests.oracles.lft.
LinearForwardingTable` per switch; after every step each store row,
padded with unset entries, equals its switch's table.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.constants import LFT_BLOCK_SIZE, LFT_BLOCKS_FULL_SUBNET, LFT_UNSET
from repro.errors import TopologyError
from repro.fabric.topology import Topology
from tests.oracles.lft import LinearForwardingTable

ports = st.integers(min_value=0, max_value=255)

steps = st.one_of(
    st.tuples(
        st.just("load"),
        st.integers(min_value=0, max_value=99),
        # Up to six rows with repeats: both the slice-copy and the
        # one-assignment path, and a block named twice.
        st.lists(st.integers(min_value=0, max_value=12), max_size=6),
        st.integers(min_value=0, max_value=2**16),
    ),
    st.tuples(
        st.just("set"),
        st.integers(min_value=0, max_value=99),
        st.integers(min_value=1, max_value=900),
        ports,
    ),
    st.tuples(st.just("add")),
    st.tuples(st.just("remove"), st.integers(min_value=0, max_value=99)),
    st.tuples(st.just("read"), st.integers(min_value=0, max_value=5000)),
)


def padded(row, width):
    out = np.full(width, LFT_UNSET, dtype=np.int16)
    out[: len(row)] = row
    return out


def assert_rows_match(topo, tables, width):
    lft = topo.lft
    assert lft.shape == (len(tables), width) and width % LFT_BLOCK_SIZE == 0
    for i, table in enumerate(tables):
        row, expected = lft[i], table.as_array()
        top = max(len(row), len(expected))
        assert np.array_equal(padded(row, top), padded(expected, top)), i
        assert topo.switches[i].route(width + 7) == LFT_UNSET


class TestStoreMatchesPerSwitchTables:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(st.lists(steps, max_size=25))
    def test_every_step(self, sequence):
        topo, tables, names = Topology(), [], iter(range(10**6))
        # The store widens fabric-wide, in whole blocks, to the widest
        # table any switch ever held.
        width = LFT_BLOCK_SIZE
        for _ in range(3):
            topo.add_switch(f"s{next(names)}", 4)
            tables.append(LinearForwardingTable())
        for step in sequence:
            kind = step[0]
            if kind == "add":
                topo.add_switch(f"s{next(names)}", 4)
                tables.append(LinearForwardingTable())
            elif not tables:
                continue
            elif kind == "load":
                _, row, blocks, seed = step
                row %= len(tables)
                rng = np.random.default_rng(seed)
                entries = rng.integers(
                    0, 256, (len(blocks), LFT_BLOCK_SIZE)
                ).astype(np.int16)
                topo.load_lft_blocks(row, blocks, entries)
                tables[row].load_blocks(blocks, entries)
            elif kind == "set":
                _, row, lid, port = step
                topo.set_lft(row % len(tables), lid, port)
                tables[row % len(tables)].set(lid, port)
            elif kind == "remove":
                victim = topo.switches[step[1] % len(tables)]
                index = victim.index
                topo.remove_switch(victim)
                del tables[index]
                assert victim.route(1) == LFT_UNSET
            else:
                lid = step[1]
                columns = topo.lft_columns([lid])[:, 0]
                block = topo.lft_blocks(
                    range(len(tables)), [lid // LFT_BLOCK_SIZE] * len(tables)
                )
                for i, table in enumerate(tables):
                    assert topo.switches[i].route(lid) == table.get(lid)
                    assert columns[i] == table.get(lid)
                    assert np.array_equal(
                        block[i], table.get_block(lid // LFT_BLOCK_SIZE)
                    )
            width = max([width] + [len(t.as_array()) for t in tables])
            assert_rows_match(topo, tables, width)


class TestBlockRange:
    """A block outside the unicast LID space is refused, not grown to."""

    @pytest.mark.parametrize("block", [-2, -1, LFT_BLOCKS_FULL_SUBNET, 100_000])
    def test_reader_and_writer_refuse(self, block):
        topo = Topology()
        topo.add_switch("s0", 4)
        entries = np.zeros((1, LFT_BLOCK_SIZE), dtype=np.int16)
        with pytest.raises(TopologyError, match="outside"):
            topo.load_lft_blocks(0, [block], entries)
        with pytest.raises(TopologyError, match="outside"):
            topo.lft_blocks([0], [block])
        assert topo.lft.shape == (1, LFT_BLOCK_SIZE)
        assert (topo.lft == LFT_UNSET).all()

    def test_the_last_block_is_accepted(self):
        topo = Topology()
        topo.add_switch("s0", 4)
        entries = np.full((1, LFT_BLOCK_SIZE), 3, dtype=np.int16)
        topo.load_lft_blocks(0, [LFT_BLOCKS_FULL_SUBNET - 1], entries)
        assert topo.lft.shape == (1, LFT_BLOCKS_FULL_SUBNET * LFT_BLOCK_SIZE)
