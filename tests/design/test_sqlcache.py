"""The concurrent SQLite/WAL verdict store and the backend factory."""

import json
import sqlite3
import warnings

import pytest

from repro.design import (
    CACHE_SCHEMA,
    CacheBackend,
    CacheCorruptionWarning,
    ResultCache,
    SqliteResultCache,
    detect_backend,
    migrate_jsonl_to_sqlite,
    open_cache,
)

FP_A = "a" * 64
FP_B = "b" * 64


class TestRoundTrip:
    def test_put_get(self, tmp_path):
        with SqliteResultCache(tmp_path) as cache:
            cache.put(FP_A, {"verdict": "PASS", "states": 42})
            got = cache.get(FP_A)
            assert got["verdict"] == "PASS"
            assert got["schema"] == CACHE_SCHEMA
            assert got["fingerprint"] == FP_A
            assert cache.get(FP_B) is None

    def test_persistence_across_instances(self, tmp_path):
        with SqliteResultCache(tmp_path) as cache:
            cache.put(FP_A, {"verdict": "FAIL"})
        with SqliteResultCache(tmp_path) as reopened:
            assert FP_A in reopened
            assert len(reopened) == 1
            assert reopened.get(FP_A)["verdict"] == "FAIL"

    def test_last_record_wins(self, tmp_path):
        with SqliteResultCache(tmp_path) as cache:
            cache.put(FP_A, {"verdict": "UNKNOWN"})
            cache.put(FP_A, {"verdict": "PASS"})
        with SqliteResultCache(tmp_path) as cache:
            assert cache.get(FP_A)["verdict"] == "PASS"
            assert len(cache) == 1

    def test_stats_shape(self, tmp_path):
        with SqliteResultCache(tmp_path) as cache:
            cache.get(FP_A)
            cache.put(FP_A, {"verdict": "PASS"})
            cache.get(FP_A)
            stats = cache.stats()
        assert stats["backend"] == "sqlite"
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["stored"] == 1
        assert stats["records"] == 1
        assert stats["results_bytes"] > 0

    def test_reopens_transparently_after_close(self, tmp_path):
        cache = SqliteResultCache(tmp_path)
        cache.put(FP_A, {"verdict": "PASS"})
        cache.close()
        assert cache.get(FP_A)["verdict"] == "PASS"  # lazily reopened
        cache.close()

    def test_items_sorted_and_uncounted(self, tmp_path):
        with SqliteResultCache(tmp_path) as cache:
            cache.put(FP_B, {"verdict": "FAIL"})
            cache.put(FP_A, {"verdict": "PASS"})
            pairs = list(cache.items())
            assert [fp for fp, _ in pairs] == [FP_A, FP_B]
            assert cache.hits == 0 and cache.misses == 0

    def test_satisfies_the_backend_protocol(self, tmp_path):
        with SqliteResultCache(tmp_path) as sql_cache:
            assert isinstance(sql_cache, CacheBackend)
        with ResultCache(tmp_path / "j") as jsonl_cache:
            assert isinstance(jsonl_cache, CacheBackend)


class TestIntegrity:
    def _tamper(self, tmp_path, fingerprint, column_value):
        conn = sqlite3.connect(tmp_path / "cache.sqlite")
        conn.execute("UPDATE records SET record = ? WHERE fingerprint = ?",
                     (column_value, fingerprint))
        conn.commit()
        conn.close()

    def test_crc_mismatch_is_a_miss_not_a_wrong_verdict(self, tmp_path):
        with SqliteResultCache(tmp_path) as cache:
            good = cache.put(FP_A, {"verdict": "PASS"})
        flipped = dict(good)
        flipped["verdict"] = "FAIL"  # same shape, wrong content
        self._tamper(tmp_path, FP_A, json.dumps(flipped, sort_keys=True,
                                                separators=(",", ":")))
        with SqliteResultCache(tmp_path) as cache:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert cache.get(FP_A) is None
            assert any(issubclass(w.category, CacheCorruptionWarning)
                       for w in caught)
            assert cache.misses == 1
            assert cache.corrupt_records == 1
            # the damaged row was dropped; a fresh verdict can land
            cache.put(FP_A, {"verdict": "PASS"})
            assert cache.get(FP_A)["verdict"] == "PASS"

    def test_verify_counts_corrupt_rows(self, tmp_path):
        with SqliteResultCache(tmp_path) as cache:
            cache.put(FP_A, {"verdict": "PASS"})
            cache.put(FP_B, {"verdict": "FAIL"})
        self._tamper(tmp_path, FP_A, "{not json")
        with SqliteResultCache(tmp_path) as cache:
            audit = cache.verify()
            assert audit["backend"] == "sqlite"
            assert audit["records"] == 2
            assert audit["corrupt_records"] == 1
            assert not audit["ok"]

    def test_fsck_repairs_corrupt_rows(self, tmp_path):
        with SqliteResultCache(tmp_path) as cache:
            cache.put(FP_A, {"verdict": "PASS"})
            cache.put(FP_B, {"verdict": "FAIL"})
        self._tamper(tmp_path, FP_A, "{not json")
        with SqliteResultCache(tmp_path) as cache:
            outcome = cache.fsck()
            assert outcome["repaired"] == 1
            assert outcome["after_records"] == 1
            assert cache.verify()["ok"]
            assert cache.get(FP_B)["verdict"] == "FAIL"

    def test_garbage_file_is_quarantined_and_degrades_to_misses(
            self, tmp_path):
        with SqliteResultCache(tmp_path) as cache:
            cache.put(FP_A, {"verdict": "PASS"})
        with open(tmp_path / "cache.sqlite", "r+b") as fh:
            fh.write(b"GARBAGE" * 4096)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cache = SqliteResultCache(tmp_path)
        assert any(issubclass(w.category, CacheCorruptionWarning)
                   for w in caught)
        assert cache.quarantined is not None
        assert cache.get(FP_A) is None  # a miss, never a wrong verdict
        assert cache.misses == 1
        quarantined = list(tmp_path.glob("cache.sqlite.quarantined-*"))
        assert quarantined  # damaged bytes kept for post-mortems
        cache.put(FP_A, {"verdict": "PASS"})  # fresh store works
        assert cache.verify()["ok"]
        assert cache.verify()["quarantined"] == cache.quarantined
        cache.close()


class TestEviction:
    def test_lru_eviction_keeps_the_hot_records(self, tmp_path):
        fps = ["%064d" % i for i in range(60)]
        with SqliteResultCache(tmp_path) as cache:
            for fp in fps:
                cache.put(fp, {"verdict": "PASS", "pad": "x" * 2000})
        cap = cache._size_bytes()  # exactly full: the next put overflows
        with SqliteResultCache(tmp_path, max_bytes=cap) as cache:
            for hot in fps[:5]:
                assert cache.get(hot) is not None  # touch: now hot
            cache.put("f" * 64, {"verdict": "PASS", "pad": "y" * 2000})
            assert cache.evicted > 0
            assert cache._size_bytes() <= cap
            assert cache.get("f" * 64) is not None  # the new record
            for hot in fps[:5]:  # recently-served records survived
                assert cache.get(hot) is not None
            # and the casualties were the coldest, untouched records
            assert len(cache) == 61 - cache.evicted

    def test_busy_writer_is_retried(self, tmp_path):
        with SqliteResultCache(tmp_path) as cache:
            cache.put(FP_A, {"verdict": "PASS"})
            # Hold the write lock from a second raw connection, release
            # it from a timer thread while the cache's put is retrying.
            import threading
            blocker = sqlite3.connect(tmp_path / "cache.sqlite",
                                      check_same_thread=False)
            blocker.isolation_level = None
            blocker.execute("BEGIN IMMEDIATE")
            timer = threading.Timer(0.15, lambda: (
                blocker.execute("COMMIT"), blocker.close()))
            timer.start()
            try:
                cache.put(FP_B, {"verdict": "FAIL"})  # must not raise
            finally:
                timer.join()
            assert cache.get(FP_B)["verdict"] == "FAIL"

    def test_open_during_a_write_transaction_keeps_the_store(self, tmp_path):
        with SqliteResultCache(tmp_path) as cache:
            cache.put(FP_A, {"verdict": "PASS"})
        blocker = sqlite3.connect(tmp_path / "cache.sqlite")
        blocker.isolation_level = None
        blocker.execute("BEGIN IMMEDIATE")
        try:
            with SqliteResultCache(tmp_path) as cache:
                assert cache.quarantined is None
                assert cache.get(FP_A)["verdict"] == "PASS"
        finally:
            blocker.execute("ROLLBACK")
            blocker.close()


class TestBackendFactory:
    def test_fresh_directory_defaults_to_sqlite(self, tmp_path):
        assert detect_backend(tmp_path) == "sqlite"
        with open_cache(tmp_path) as cache:
            assert cache.stats()["backend"] == "sqlite"
        assert (tmp_path / "cache.sqlite").exists()

    def test_existing_jsonl_directory_stays_jsonl(self, tmp_path):
        with ResultCache(tmp_path) as seed:
            seed.put(FP_A, {"verdict": "PASS"})
        assert detect_backend(tmp_path) == "jsonl"
        with open_cache(tmp_path) as cache:
            assert cache.stats()["backend"] == "jsonl"
            assert cache.get(FP_A)["verdict"] == "PASS"

    def test_explicit_backend_wins(self, tmp_path):
        with open_cache(tmp_path, backend="jsonl") as cache:
            assert cache.stats()["backend"] == "jsonl"

    def test_unknown_backend_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown cache backend"):
            open_cache(tmp_path, backend="dbm")

    def test_max_bytes_rejected_on_jsonl(self, tmp_path):
        with pytest.raises(ValueError, match="sqlite backend"):
            open_cache(tmp_path, backend="jsonl", max_bytes=1024)


class TestMigrate:
    def test_round_trip_preserves_every_verdict(self, tmp_path):
        fps = ["%064d" % i for i in range(10)]
        with ResultCache(tmp_path) as jsonl_cache:
            for i, fp in enumerate(fps):
                jsonl_cache.put(fp, {"verdict": "PASS", "states": i})
            jsonl_cache.put(fps[0], {"verdict": "FAIL"})  # superseded
            before = {fp: {k: v for k, v in record.items() if k != "crc"}
                      for fp, record in jsonl_cache.items()}
        summary = migrate_jsonl_to_sqlite(tmp_path)
        assert summary["migrated"] == len(fps)
        assert summary["verified"] == len(fps)
        assert detect_backend(tmp_path) == "sqlite"
        assert (tmp_path / "results.jsonl.migrated").exists()
        assert not (tmp_path / "results.jsonl").exists()
        with open_cache(tmp_path) as migrated:
            after = dict(migrated.items())
        assert after == before  # identical verdict set, field for field

    def test_damaged_lines_are_left_behind_not_migrated(self, tmp_path):
        with ResultCache(tmp_path) as jsonl_cache:
            jsonl_cache.put(FP_A, {"verdict": "PASS"})
        with open(tmp_path / "results.jsonl", "a") as fh:
            fh.write("{torn line\n")
            fh.write(json.dumps({"schema": "other/1"}) + "\n")
        summary = migrate_jsonl_to_sqlite(tmp_path)
        assert summary["migrated"] == 1
        assert summary["corrupt_lines"] == 1
        assert summary["skipped_lines"] == 1
        with open_cache(tmp_path) as migrated:
            assert migrated.get(FP_A)["verdict"] == "PASS"
            assert migrated.verify()["ok"]


class TestExploreOnSqlite:
    def test_explore_serves_warm_run_fully_from_cache(self, tmp_path):
        from repro.core import SingleSlotBuffer, SynBlockingSend
        from repro.design import ChannelAxis, DesignSpace, explore
        from repro.systems.producer_consumer import simple_pair

        space = DesignSpace(
            "pc-sql",
            simple_pair(SynBlockingSend(), SingleSlotBuffer(), messages=1),
            axes=[ChannelAxis("link", [SingleSlotBuffer()])],
        )
        with open_cache(tmp_path) as cache:
            cold = explore(space, cache=cache)
            assert cold.cache_stats["stored"] == len(cold.results)
        with open_cache(tmp_path) as cache:
            warm = explore(space, cache=cache)
        assert all(r["cached"] for r in warm.results)
        assert warm.cache_stats["hits"] == len(warm.results)
        assert [r["verdict"] for r in warm.results] == [
            r["verdict"] for r in cold.results]
