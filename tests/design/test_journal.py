"""The checksummed run journal behind checkpoint/resume."""

import json

import pytest

from repro.design import JOURNAL_SCHEMA, FileLockedError, RunJournal, list_runs
from repro.design.journal import (
    append_entry,
    entry_crc,
    read_entries,
    verify_entry,
)

FP_A = "a" * 64
FP_B = "b" * 64


class TestLineFormat:
    def test_crc_round_trip(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with open(path, "w") as fh:
            append_entry(fh, {"schema": JOURNAL_SCHEMA, "event": "done"})
        (entry, _raw), = read_entries(str(path))
        assert entry is not None
        assert verify_entry(entry)
        assert entry["crc"] == entry_crc(entry)

    def test_crc_ignores_key_order(self):
        assert (entry_crc({"a": 1, "b": 2})
                == entry_crc({"b": 2, "a": 1}))

    def test_flipped_byte_fails_verification(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with open(path, "w") as fh:
            append_entry(fh, {"schema": JOURNAL_SCHEMA, "event": "done",
                              "fingerprint": FP_A})
        damaged = path.read_text().replace(FP_A, FP_B)
        path.write_text(damaged)
        (entry, raw), = read_entries(str(path))
        assert entry is None  # checksum mismatch
        assert FP_B in raw

    def test_torn_tail_line_reads_as_corrupt(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with open(path, "w") as fh:
            append_entry(fh, {"schema": JOURNAL_SCHEMA, "event": "a"})
            fh.write('{"schema": "repro.design-run/1", "event": "tru')
        entries = list(read_entries(str(path)))
        assert entries[0][0] is not None
        assert entries[1][0] is None


class TestRunJournal:
    def test_mints_run_id_and_creates_journal(self, tmp_path):
        with RunJournal(tmp_path) as journal:
            journal.record("run_started", total=4)
        assert list_runs(tmp_path) == [journal.run_id]
        lines = open(journal.path).read().splitlines()
        assert json.loads(lines[0])["event"] == "run_started"

    def test_load_folds_done_and_failed(self, tmp_path):
        with RunJournal(tmp_path, run_id="r1") as journal:
            journal.record("run_started", total=2)
            journal.record("scheduled", fingerprint=FP_A)
            journal.record("scheduled", fingerprint=FP_B)
            journal.record("done", fingerprint=FP_A,
                           record={"verdict": "PASS"})
            journal.record("failed", fingerprint=FP_B,
                           cause="worker-died", attempts=2)
        state = RunJournal.load(tmp_path, "r1")
        assert state.completed[FP_A] == {"verdict": "PASS"}
        assert state.failed[FP_B]["cause"] == "worker-died"
        assert state.pending == []
        assert not state.finished and not state.interrupted

    def test_done_beats_failed_across_attempts(self, tmp_path):
        with RunJournal(tmp_path, run_id="r1") as journal:
            journal.record("run_started", total=1)
            journal.record("scheduled", fingerprint=FP_A)
            journal.record("failed", fingerprint=FP_A, cause="timeout",
                           attempts=1)
            journal.record("interrupted")
        # A resumed attempt appends to the same journal and succeeds.
        with RunJournal(tmp_path, run_id="r1") as journal:
            journal.record("run_started", total=1)
            journal.record("done", fingerprint=FP_A,
                           record={"verdict": "PASS"})
            journal.record("run_finished")
        state = RunJournal.load(tmp_path, "r1")
        assert state.attempts == 2
        assert FP_A in state.completed
        assert FP_A not in state.failed
        assert state.finished and not state.interrupted

    def test_pending_is_scheduled_minus_done_and_failed(self, tmp_path):
        with RunJournal(tmp_path, run_id="r1") as journal:
            journal.record("run_started", total=2)
            journal.record("scheduled", fingerprint=FP_A)
            journal.record("scheduled", fingerprint=FP_B)
            journal.record("done", fingerprint=FP_A,
                           record={"verdict": "PASS"})
            journal.record("interrupted")
        state = RunJournal.load(tmp_path, "r1")
        assert state.pending == [FP_B]
        assert state.interrupted

    def test_corrupt_lines_are_counted_not_fatal(self, tmp_path):
        with RunJournal(tmp_path, run_id="r1") as journal:
            journal.record("run_started", total=1)
            journal.record("done", fingerprint=FP_A,
                           record={"verdict": "PASS"})
        with open(journal.path, "a") as fh:
            fh.write("garbage\n")
        state = RunJournal.load(tmp_path, "r1")
        assert state.corrupt_lines == 1
        assert FP_A in state.completed

    def test_second_writer_on_a_run_id_is_refused(self, tmp_path):
        with RunJournal(tmp_path, run_id="r1"):
            with pytest.raises(FileLockedError) as refused:
                RunJournal(tmp_path, run_id="r1")
        message = str(refused.value)
        assert "another exploration holds this run id" in message
        assert "sqlite" not in message

    def test_load_unknown_run_lists_known_runs(self, tmp_path):
        with RunJournal(tmp_path, run_id="exists") as journal:
            journal.record("run_started")
        with pytest.raises(FileNotFoundError, match="exists"):
            RunJournal.load(tmp_path, "missing")

    def test_list_runs_empty_directory(self, tmp_path):
        assert list_runs(tmp_path / "nope") == []
