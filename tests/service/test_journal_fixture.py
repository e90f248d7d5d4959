"""Cross-commit compatibility: a journal written before the two journals
shared one core still loads, rebuilds and recovers the same.

``tests/golden/serve_journal.jsonl`` is what ``repro serve --chaos
kill-service --steps 12 --seed 1 --journal F`` wrote at the commit before
:mod:`repro.util.seqlog` existed; ``FINGERPRINT`` is the
:func:`cloud_fingerprint` of that run's cloud.
"""

from pathlib import Path

import pytest

from repro.cli import main
from repro.obs import reset_hub
from repro.service import (
    IntentJournal,
    audit_cloud,
    cloud_fingerprint,
    rebuild_from_journal,
    recover_service,
)

FIXTURE = Path(__file__).parents[1] / "golden" / "serve_journal.jsonl"
FINGERPRINT = "af9c8971e2489893937d3a90699e418ea69a30c2d91b6e95c7a53e6a5da98fe8"
COMMAND = "serve --chaos kill-service --steps 12 --seed 1 --journal"


@pytest.fixture(scope="module")
def journal():
    return IntentJournal.from_jsonl(FIXTURE)


def test_the_same_command_writes_the_same_bytes(capsys, tmp_path):
    written = tmp_path / "intents.jsonl"
    assert main([*COMMAND.split(), str(written)]) == 0
    capsys.readouterr()
    assert written.read_bytes() == FIXTURE.read_bytes()


def test_cold_rebuild_reproduces_the_fingerprint(journal):
    reset_hub()
    cloud, service, report = rebuild_from_journal(journal.clipped(journal.head_seq))
    assert report.ok and audit_cloud(cloud) == []
    assert (report.replayed, report.terminal_requests) == (55, 66)
    assert service.queue_depth == 0
    assert cloud_fingerprint(cloud) == FINGERPRINT


def responses(service):
    return {
        rid: (r.status, r.detail) for rid, r in sorted(service._responses.items())
    }


def test_cold_and_warm_agree_at_every_prefix(journal):
    """Cold rebuild replays a prefix onto a fresh fabric; warm recovery
    reads the same prefix over a surviving cloud in that very state. The
    one restore loop must land both on the same response table, queue and
    counts — all but ``replayed``, which only cold has."""
    for k in range(1, journal.head_seq + 1):
        reset_hub()
        cold_cloud, cold, cold_report = rebuild_from_journal(journal.clipped(k))
        reset_hub()
        surviving, _, _ = rebuild_from_journal(journal.clipped(k))
        warm, warm_report = recover_service(journal.clipped(k), surviving)
        assert cold_report.ok and warm_report.ok, k
        assert warm_report.replayed == 0
        for count in ("terminal_requests", "finished", "reconciled", "requeued"):
            assert getattr(cold_report, count) == getattr(warm_report, count), (k, count)
        assert responses(cold) == responses(warm), k
        assert cold.queue_depth == warm.queue_depth, k
        assert cold.journal.head_seq == warm.journal.head_seq, k
        assert cloud_fingerprint(cold_cloud) == cloud_fingerprint(surviving), k
