"""Intent journal: append/replay semantics, crash arming, durability."""

import pytest

from repro.errors import ServiceError, ServiceKilled
from repro.service import IntentJournal
from repro.service.journal import RequestState


class TestAppend:
    def test_seqs_are_contiguous_from_one(self):
        j = IntentJournal()
        for k in range(5):
            entry = j.append("intent", f"r{k}", {"k": k})
            assert entry.seq == k + 1
        assert j.head_seq == 5

    def test_unknown_phase_rejected(self):
        with pytest.raises(ServiceError):
            IntentJournal().append("retired", "r0", {})

    def test_entries_since(self):
        j = IntentJournal()
        for k in range(4):
            j.append("intent", f"r{k}")
        assert [e.seq for e in j.entries_since(2)] == [3, 4]

    def test_genesis_payload_found(self):
        j = IntentJournal()
        j.append("genesis", "", {"profile": "2l-small"})
        j.append("intent", "r0")
        assert j.genesis() == {"profile": "2l-small"}
        assert IntentJournal().genesis() is None


class TestCrashArming:
    def test_crash_after_write_keeps_entry(self):
        j = IntentJournal()
        j.arm_crash(1)
        with pytest.raises(ServiceKilled):
            j.append("intent", "r0")
        assert j.head_seq == 1  # the write landed before the kill

    def test_crash_before_write_loses_entry(self):
        j = IntentJournal()
        j.arm_crash(1, before=True)
        with pytest.raises(ServiceKilled):
            j.append("intent", "r0")
        assert j.head_seq == 0  # the write was lost

    def test_crash_is_one_shot(self):
        j = IntentJournal()
        j.arm_crash(1)
        with pytest.raises(ServiceKilled):
            j.append("intent", "r0")
        j.append("intent", "r1")  # a recovered worker appends fine
        assert j.head_seq == 2

    def test_crash_seq_is_one_based(self):
        with pytest.raises(ServiceError):
            IntentJournal().arm_crash(0)


class TestFolding:
    def test_requests_fold_phases(self):
        j = IntentJournal()
        j.append("genesis", "", {})
        j.append("intent", "a", {"op": "boot"})
        j.append("intent", "b", {"op": "stop"})
        j.append("applied", "a", {"vm": "t-vm1"})
        j.append("completed", "a", {"status": "completed"})
        folded = j.requests()
        assert list(folded) == ["a", "b"]  # intent order preserved
        assert folded["a"] == RequestState(
            intent={"op": "boot"},
            phase="completed",
            applied={"vm": "t-vm1"},
            applied_seq=4,
            terminal={"status": "completed"},
        )
        assert folded["b"].phase == "intent"
        assert folded["b"].applied is None

    def test_duplicate_intent_rejected(self):
        j = IntentJournal()
        j.append("intent", "a")
        j.append("intent", "a")
        with pytest.raises(ServiceError, match="duplicate intent"):
            j.requests()

    def test_phase_without_intent_rejected(self):
        j = IntentJournal()
        j.append("applied", "ghost")
        with pytest.raises(ServiceError, match="without intent"):
            j.requests()

    def test_clipped_view(self):
        j = IntentJournal()
        for k in range(6):
            j.append("intent", f"r{k}")
        clipped = j.clipped(3)
        assert clipped.head_seq == 3
        assert j.head_seq == 6  # original untouched


class TestDurability:
    def test_jsonl_round_trip(self, tmp_path):
        sink = tmp_path / "journal.jsonl"
        j = IntentJournal(sink)
        j.append("genesis", "", {"profile": "2l-small"})
        j.append("intent", "a", {"op": "boot", "deadline": None})
        j.append("applied", "a", {"lid": 41})
        loaded = IntentJournal.from_jsonl(sink)
        assert [e.as_dict() for e in loaded.entries] == [
            e.as_dict() for e in j.entries
        ]

    def test_jsonl_gap_detected(self, tmp_path):
        sink = tmp_path / "journal.jsonl"
        j = IntentJournal(sink)
        j.append("intent", "a")
        j.append("intent", "b")
        lines = sink.read_text(encoding="utf-8").splitlines()
        sink.write_text(lines[1] + "\n", encoding="utf-8")  # drop seq 1
        with pytest.raises(ServiceError, match="line 1: journal gap"):
            IntentJournal.from_jsonl(sink)

    def test_crash_before_write_leaves_sink_clean(self, tmp_path):
        sink = tmp_path / "journal.jsonl"
        j = IntentJournal(sink)
        j.append("intent", "a")
        j.arm_crash(2, before=True)
        with pytest.raises(ServiceKilled):
            j.append("applied", "a")
        loaded = IntentJournal.from_jsonl(sink)
        assert loaded.head_seq == 1

    def test_torn_tail_is_a_typed_error_naming_the_line(self, tmp_path):
        """A crash mid-write leaves half a line; loading says where."""
        sink = tmp_path / "journal.jsonl"
        j = IntentJournal(sink)
        j.append("intent", "a")
        j.append("applied", "a", {"lid": 41})
        text = sink.read_text(encoding="utf-8")
        sink.write_text(text[: len(text) - 9], encoding="utf-8")
        with pytest.raises(ServiceError, match=r"line 2: not JSON"):
            IntentJournal.from_jsonl(sink)

    def test_missing_field_is_a_typed_error_naming_the_line(self, tmp_path):
        sink = tmp_path / "journal.jsonl"
        IntentJournal(sink).append("intent", "a")
        with sink.open("a", encoding="utf-8") as fh:
            fh.write('{"phase": "applied", "request_id": "a"}\n')
        with pytest.raises(ServiceError, match=r"line 2: missing field 'seq'"):
            IntentJournal.from_jsonl(sink)

    def test_non_object_line_is_a_typed_error_naming_the_line(self, tmp_path):
        sink = tmp_path / "journal.jsonl"
        sink.write_text("[1, 2, 3]\n", encoding="utf-8")
        with pytest.raises(ServiceError, match=r"line 1: expected a JSON object"):
            IntentJournal.from_jsonl(sink)
