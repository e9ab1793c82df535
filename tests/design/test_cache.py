"""The verdict store as ``open_cache`` opens it, and the ``results.jsonl``
journal it replaced, as ``migrate_jsonl_to_sqlite`` reads it."""

import json
import sqlite3

from repro.design import CACHE_SCHEMA, migrate_jsonl_to_sqlite, open_cache
from repro.design.journal import append_entry

FP_A = "a" * 64
FP_B = "b" * 64
FP_C = "c" * 64


def write_journal(directory, records=(), raw_lines=()):
    """Append checksummed ``(fingerprint, body)`` records, then raw
    lines, to ``directory``'s ``results.jsonl``."""
    with open(directory / "results.jsonl", "a") as fh:
        for fingerprint, body in records:
            append_entry(fh, {"schema": CACHE_SCHEMA,
                              "fingerprint": fingerprint, **body})
        for line in raw_lines:
            fh.write(line + "\n")


class TestRoundTrip:
    def test_put_get(self, tmp_path):
        with open_cache(tmp_path) as cache:
            cache.put(FP_A, {"verdict": "PASS", "states": 42})
            got = cache.get(FP_A)
            assert got["verdict"] == "PASS"
            assert got["states"] == 42
            assert got["schema"] == CACHE_SCHEMA
            assert got["fingerprint"] == FP_A
            assert cache.get(FP_B) is None

    def test_persistence_across_instances(self, tmp_path):
        with open_cache(tmp_path) as cache:
            cache.put(FP_A, {"verdict": "FAIL"})
        with open_cache(tmp_path) as reopened:
            assert FP_A in reopened
            assert len(reopened) == 1
            assert reopened.get(FP_A)["verdict"] == "FAIL"

    def test_records_are_appended_immediately(self, tmp_path):
        cache = open_cache(tmp_path)
        cache.put(FP_A, {"verdict": "PASS"})
        # No flush() or close() — a crashed run must not lose completed
        # work, so another connection already sees the committed row.
        other = sqlite3.connect(tmp_path / "cache.sqlite")
        try:
            rows = other.execute("SELECT fingerprint FROM records").fetchall()
        finally:
            other.close()
            cache.close()
        assert rows == [(FP_A,)]

    def test_last_record_wins(self, tmp_path):
        with open_cache(tmp_path) as cache:
            cache.put(FP_A, {"verdict": "UNKNOWN"})
            cache.put(FP_A, {"verdict": "PASS"})
        with open_cache(tmp_path) as reopened:
            assert reopened.get(FP_A)["verdict"] == "PASS"

    def test_stats_count_hits_misses_stored(self, tmp_path):
        with open_cache(tmp_path) as cache:
            cache.get(FP_A)
            cache.put(FP_A, {"verdict": "PASS"})
            cache.get(FP_A)
            stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["stored"] == 1


class TestResilienceToDamage:
    def test_corrupt_lines_are_skipped(self, tmp_path):
        write_journal(tmp_path, [(FP_A, {"verdict": "PASS"})], [
            "{not json",
            json.dumps({"schema": "other/1", "fingerprint": FP_B}),
            json.dumps({"schema": CACHE_SCHEMA}),
        ])
        summary = migrate_jsonl_to_sqlite(tmp_path)
        assert summary["migrated"] == 1  # only the well-formed record
        # Unparseable line = corrupt (damage); well-formed-but-foreign
        # lines (other schema, no fingerprint) = skipped.
        assert summary["corrupt_lines"] == 1
        assert summary["skipped_lines"] == 2
        with open_cache(tmp_path) as migrated:
            assert len(migrated) == 1
            assert migrated.get(FP_A)["verdict"] == "PASS"
            assert migrated.get(FP_B) is None

    def test_stats_and_verify_classify_lines_identically(self, tmp_path):
        # One of each line class: live, superseded, legacy (no crc),
        # foreign schema, no fingerprint, unparseable, failed checksum.
        write_journal(tmp_path, [(FP_A, {"verdict": "UNKNOWN"}),
                                 (FP_A, {"verdict": "PASS"})], [
            json.dumps({"schema": CACHE_SCHEMA, "fingerprint": FP_B,
                        "verdict": "PASS"}),
            json.dumps({"schema": "other/1", "fingerprint": FP_C}),
            json.dumps({"schema": CACHE_SCHEMA}),
            "{not json",
            json.dumps({"schema": CACHE_SCHEMA, "fingerprint": FP_C,
                        "crc": 1, "verdict": "FAIL"}),
        ])
        summary = migrate_jsonl_to_sqlite(tmp_path)
        assert summary["migrated"] == summary["verified"] == 2
        assert summary["corrupt_lines"] == 2
        assert summary["skipped_lines"] == 2
        with open_cache(tmp_path) as migrated:
            stats = migrated.stats()
            audit = migrated.verify()
            assert stats["records"] == audit["records"] == len(migrated) == 2
            assert stats["corrupt_records"] == audit["corrupt_records"] == 0
            assert audit["ok"]  # the legacy row got its crc
            assert migrated.get(FP_A)["verdict"] == "PASS"
            assert migrated.get(FP_B)["verdict"] == "PASS"  # legacy
            assert migrated.get(FP_C) is None

    def test_missing_directory_is_created(self, tmp_path):
        nested = tmp_path / "deep" / "cache"
        with open_cache(nested) as cache:
            cache.put(FP_A, {"verdict": "PASS"})
        assert (nested / "cache.sqlite").exists()

    def test_checksum_detects_flipped_bytes(self, tmp_path):
        write_journal(tmp_path, [(FP_A, {"verdict": "PASS"})])
        path = tmp_path / "results.jsonl"
        path.write_text(path.read_text().replace('"PASS"', '"FAIL"'))
        summary = migrate_jsonl_to_sqlite(tmp_path)
        assert summary["migrated"] == 0
        assert summary["corrupt_lines"] == 1
        # the damaged bytes are kept for post-mortems, never served
        assert (tmp_path / "results.jsonl.migrated").exists()
        with open_cache(tmp_path) as migrated:
            assert migrated.get(FP_A) is None

    def test_legacy_lines_without_crc_still_load(self, tmp_path):
        record = {"schema": CACHE_SCHEMA, "fingerprint": FP_A,
                  "verdict": "PASS"}
        write_journal(tmp_path, raw_lines=[json.dumps(record)])
        summary = migrate_jsonl_to_sqlite(tmp_path)
        assert summary["migrated"] == 1
        assert summary["corrupt_lines"] == summary["skipped_lines"] == 0
        with open_cache(tmp_path) as migrated:
            assert migrated.get(FP_A) == record
            assert migrated.verify()["ok"]  # the row got its crc


class TestVerifyAndCompact:
    def test_verify_clean_cache(self, tmp_path):
        with open_cache(tmp_path) as cache:
            cache.put(FP_A, {"verdict": "PASS"})
            audit = cache.verify()
        assert audit == {"backend": "sqlite", "records": 1,
                         "corrupt_records": 0, "integrity": "ok",
                         "quarantined": None, "ok": True}
