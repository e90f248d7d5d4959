"""The one sequenced-log core both journals are schemas over.

* numbering, the ring bound and the single "truncated past you" signal;
* the in-order consumer: duplicate = skip, gap = refuse and go stale;
* the CI guard greps of the "one sequenced log" job, held by tier-1 too.
"""

import re
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.errors import ReproError, SequenceError
from repro.util.seqlog import InOrderConsumer, SequencedLog

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


@dataclass(frozen=True)
class Record:
    seq: int
    body: str = ""


def filled(count, capacity=None):
    log = SequencedLog(capacity)
    for _ in range(count):
        log.append_entry(Record(log.next_seq))
    return log


class TestSequencedLog:
    def test_empty_log(self):
        log = SequencedLog()
        assert (log.head_seq, log.oldest_seq, log.next_seq, len(log)) == (0, 0, 1, 0)
        assert log.entries_since(0) == []

    def test_seqs_run_from_one_without_holes(self):
        log = filled(5)
        assert [e.seq for e in log.entries] == [1, 2, 3, 4, 5]
        assert (log.head_seq, log.oldest_seq, log.next_seq) == (5, 1, 6)

    @pytest.mark.parametrize("seq", [0, 3, 5, 9])
    def test_a_misnumbered_entry_is_refused(self, seq):
        log = filled(3)
        with pytest.raises(SequenceError, match=f"expected seq 4, found {seq}"):
            log.append_entry(Record(seq))
        assert log.head_seq == 3
        assert issubclass(SequenceError, ReproError)

    def test_entries_since(self):
        log = filled(6)
        assert [e.seq for e in log.entries_since(0)] == [1, 2, 3, 4, 5, 6]
        assert [e.seq for e in log.entries_since(4)] == [5, 6]
        assert log.entries_since(6) == [] == log.entries_since(60)

    def test_ring_keeps_the_newest_and_numbering_goes_on(self):
        log = filled(8, capacity=4)
        assert len(log) == 4
        assert (log.oldest_seq, log.head_seq, log.next_seq) == (5, 8, 9)

    def test_truncated_past_you_is_none_and_nothing_else_is(self):
        log = filled(8, capacity=4)  # holds 5..8
        assert [e.seq for e in log.entries_since(4)] == [5, 6, 7, 8]
        assert log.entries_since(3) is None
        assert log.entries_since(0) is None
        assert log.entries_since(8) == []


class TestInOrderConsumer:
    @staticmethod
    def feed(consumer, seqs, sink):
        return consumer.consume(
            [Record(s) for s in seqs], lambda r: r.seq, sink.append
        )

    def test_applies_in_order_and_counts(self):
        consumer, sink = InOrderConsumer(), []
        assert self.feed(consumer, [1, 2, 3], sink) == 3
        assert [r.seq for r in sink] == [1, 2, 3]
        assert (consumer.applied_seq, consumer.applied_count) == (3, 3)

    def test_duplicates_are_skipped_not_refused(self):
        consumer, sink = InOrderConsumer(), []
        self.feed(consumer, [1, 2], sink)
        assert self.feed(consumer, [1, 2, 3], sink) == 1
        assert (consumer.applied_seq, consumer.gaps) == (3, 0)

    def test_a_gap_stops_the_batch_and_leaves_the_consumer_stale(self):
        consumer, sink = InOrderConsumer(), []
        self.feed(consumer, [1], sink)
        assert self.feed(consumer, [3, 4], sink) == 0
        assert (consumer.applied_seq, consumer.gaps) == (1, 1)
        log = filled(4)
        assert not consumer.is_current(log)
        # Re-sending what is missing catches it up.
        assert consumer.consume(
            log.entries_since(consumer.applied_seq), lambda r: r.seq, sink.append
        ) == 3
        assert consumer.is_current(log)

    def test_a_failing_apply_does_not_advance(self):
        consumer = InOrderConsumer()

        def boom(record):
            raise KeyError(record.seq)

        with pytest.raises(KeyError):
            consumer.consume([Record(1)], lambda r: r.seq, boom)
        assert (consumer.applied_seq, consumer.applied_count) == (0, 0)


class TestOneSequencedLogGuards:
    """The CI guard greps of the "one sequenced log, one fold" job."""

    OP_LITERAL = re.compile(r'"(boot|stop|migrate|evacuate)"')

    @staticmethod
    def lines(*packages):
        for package in packages:
            for path in sorted((SRC / package).rglob("*.py")):
                for line in path.read_text().splitlines():
                    yield path.relative_to(SRC).as_posix(), line

    def test_seq_arithmetic_lives_in_the_core(self):
        pattern = re.compile(
            r"_next_seq|applied_seq \+ 1|expected \+= 1|head_seq \+ 1"
        )
        assert {
            rel for rel, line in self.lines(".") if pattern.search(line)
        } == {"util/seqlog.py"}

    def test_op_names_are_spelt_in_the_op_table_only(self):
        assert {
            rel for rel, line in self.lines("service") if self.OP_LITERAL.search(line)
        } == {"service/ops.py"}

    def test_the_parallel_implementations_are_gone(self):
        gone = re.compile(
            r"_apply_vswitch|_record_swap|_record_copy"
            r"|_replay_applied|_reconstruct_applied"
        )
        assert not [rel for rel, line in self.lines(".") if gone.search(line)]

    def test_sminfo_sets_are_built_in_one_place(self):
        manager = (SRC / "sm" / "ha" / "manager.py").read_text()
        assert len(re.findall(r"SmpKind\.SM_INFO", manager)) <= 4
        sets = re.findall(r"SmpMethod\.SET,\s*SmpKind\.SM_INFO", manager)
        assert 1 <= len(sets) <= 2

    def test_no_file_over_700_lines(self):
        for package in ("service", "sm/ha", "util"):
            for path in sorted((SRC / package).rglob("*.py")):
                assert len(path.read_text().splitlines()) <= 700, path
