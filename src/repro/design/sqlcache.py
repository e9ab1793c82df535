"""SQLite/WAL backend for the verdict store: many processes, one corpus.

The JSONL journal (:mod:`repro.design.cache`) is strictly
single-writer; this backend is the multi-process counterpart the
verification-as-a-service roadmap needs — parametric system families
enumerate thousands of variants, and many workers and many runs must
share one verdict corpus safely.  One ``cache.sqlite`` file in the
cache directory, in **WAL mode**, holds one row per fingerprint:

* **Concurrency** — WAL gives single-writer/many-reader semantics with
  readers never blocked; writer contention surfaces as SQLite
  ``database is locked``/``busy`` errors, which are retried with the
  same bounded-exponential-backoff-plus-deterministic-jitter
  discipline as job supervision (a
  :class:`~repro.design.supervise.RetryPolicy` with
  ``retry_on={CAUSE_DB_LOCKED}``).
* **Durability** — ``durable=True`` runs ``PRAGMA synchronous=FULL``:
  a committed ``put`` survives process kills and power loss, matching
  the JSONL backend's per-append fsync.  A writer killed
  mid-transaction (the ``cache.put`` failpoint sits between the INSERT
  and the COMMIT) rolls back on the next open — an unacknowledged
  record simply never existed.
* **Integrity** — every row carries the CRC-32 of its record's
  canonical JSON (:func:`~repro.design.journal.entry_crc`, the same
  checksum the JSONL journal stamps, so migration preserves CRCs).  A
  row whose payload no longer matches its checksum is a miss, never a
  wrong verdict.
* **Corruption recovery** — a database that fails ``PRAGMA
  quick_check`` on open (or starts raising ``DatabaseError`` mid-read)
  is **quarantined**: renamed to ``cache.sqlite.quarantined-<ts>``
  (WAL/SHM sidecars alongside) and replaced with a fresh empty store,
  with a warning recorded — the cache degrades to misses.
* **Eviction** — ``max_bytes`` caps the store; after a put that grows
  past the cap, the coldest records (LRU by ``last_hit``) are deleted
  until the file is back under ~80% of the cap.  The CLI exposes this
  as ``--cache-max-mb``.

Maintenance: :meth:`SqliteResultCache.verify` (full
``integrity_check`` + per-row CRC audit), :meth:`~SqliteResultCache.fsck`
(delete CRC-mismatched rows, or quarantine an unreadable database),
:meth:`~SqliteResultCache.compact` (checkpoint + VACUUM), and
:func:`migrate_jsonl_to_sqlite` (convert a JSONL cache directory in
place, verdict-equivalently, retiring the old journal as
``*.migrated``).  All are exposed under ``repro cache``.
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
import warnings as _warnings
from typing import Any, Dict, Iterator, Optional, Tuple

from . import failpoints
from .cache import CACHE_SCHEMA, ResultCache
from .journal import entry_crc
from .supervise import RetryPolicy

__all__ = [
    "CAUSE_DB_LOCKED",
    "SQLITE_CONTAINER_SCHEMA",
    "CacheCorruptionWarning",
    "SqliteResultCache",
    "migrate_jsonl_to_sqlite",
]

#: Container schema marker (the *records* keep ``CACHE_SCHEMA``, so the
#: two backends store verdict-identical payloads).
SQLITE_CONTAINER_SCHEMA = "repro.design-cache-sqlite/1"

_DB_NAME = "cache.sqlite"

#: Retry classification for SQLite writer contention, alongside the
#: worker-supervision causes in :mod:`repro.design.supervise`.
CAUSE_DB_LOCKED = "db-locked"

#: Busy/locked retries: bounded exponential backoff with deterministic
#: per-key jitter — the same discipline supervision applies to crashed
#: workers, tuned for lock-hold times measured in milliseconds.
DEFAULT_DB_RETRY = RetryPolicy(
    max_retries=10, backoff_base=0.005, backoff_max=0.25,
    retry_on=frozenset({CAUSE_DB_LOCKED}))


class CacheCorruptionWarning(UserWarning):
    """A damaged store was quarantined or a corrupt record dropped."""


def _is_locked_error(exc: BaseException) -> bool:
    message = str(exc).lower()
    return "locked" in message or "busy" in message


def _canonical(record: Dict[str, Any]) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


class SqliteResultCache:
    """A concurrent-safe verdict store on one SQLite/WAL database.

    API-compatible with :class:`~repro.design.cache.ResultCache` (the
    :class:`~repro.design.backend.CacheBackend` protocol): ``get`` /
    ``put`` / ``stats`` / ``verify`` / ``compact`` / ``fsck`` /
    ``close``, context-manager support, and hit/miss/store counters.
    Safe to open from many processes at once.
    """

    def __init__(self, directory: str, *, durable: bool = True,
                 max_bytes: Optional[int] = None,
                 retry: Optional[RetryPolicy] = None) -> None:
        self.directory = str(directory)
        self.durable = durable
        self.max_bytes = max_bytes
        self.retry = retry if retry is not None else DEFAULT_DB_RETRY
        self.hits = 0
        self.misses = 0
        self.stored = 0
        self.evicted = 0
        self.corrupt_records = 0
        self.quarantined: Optional[str] = None
        self.warnings: list = []
        self._conn: Optional[sqlite3.Connection] = None
        os.makedirs(self.directory, exist_ok=True)
        self._open()

    @property
    def db_path(self) -> str:
        return os.path.join(self.directory, _DB_NAME)

    # -- connection lifecycle ----------------------------------------------

    def _connect(self) -> sqlite3.Connection:
        """Open, pragma, and sanity-check the database; may raise."""
        conn = sqlite3.connect(self.db_path)
        try:
            conn.isolation_level = None  # explicit BEGIN/COMMIT
            # Our own retry loop handles contention; keep SQLite's
            # internal wait short so backoff timing stays ours.
            conn.execute("PRAGMA busy_timeout = 100")
            conn.execute("PRAGMA journal_mode = WAL")
            conn.execute("PRAGMA synchronous = %s"
                         % ("FULL" if self.durable else "OFF"))
            check = conn.execute("PRAGMA quick_check").fetchone()
            if check is None or check[0] != "ok":
                raise sqlite3.DatabaseError(
                    f"quick_check failed: {check and check[0]!r}")
            conn.execute(
                "CREATE TABLE IF NOT EXISTS meta ("
                " key TEXT PRIMARY KEY, value TEXT NOT NULL)")
            conn.execute(
                "CREATE TABLE IF NOT EXISTS records ("
                " fingerprint TEXT PRIMARY KEY,"
                " record TEXT NOT NULL,"
                " crc INTEGER NOT NULL,"
                " created_at REAL NOT NULL,"
                " last_hit REAL NOT NULL,"
                " hits INTEGER NOT NULL DEFAULT 0)")
            conn.execute("CREATE INDEX IF NOT EXISTS records_last_hit"
                         " ON records (last_hit)")
            # Write only into a fresh store: an unconditional insert
            # would take the write lock on every open of a busy store.
            select = "SELECT value FROM meta WHERE key = 'schema'"
            row = conn.execute(select).fetchone()
            if row is None:
                conn.execute("INSERT OR IGNORE INTO meta VALUES ('schema', ?)",
                             (SQLITE_CONTAINER_SCHEMA,))
                row = conn.execute(select).fetchone()
            if row is None or row[0] != SQLITE_CONTAINER_SCHEMA:
                raise sqlite3.DatabaseError(
                    f"foreign container schema {row and row[0]!r} "
                    f"(expected {SQLITE_CONTAINER_SCHEMA!r})")
        except BaseException:
            conn.close()
            raise
        return conn

    def _open(self) -> None:
        try:
            self._conn = self._retrying(self._connect, seed="open")
        except sqlite3.DatabaseError as exc:
            if _is_locked_error(exc):
                raise  # busy, not damaged: never move a healthy store aside
            self._quarantine(f"unreadable on open: {exc}")
            self._conn = self._connect()  # a fresh file; must succeed

    def _ensure(self) -> sqlite3.Connection:
        """The live connection, transparently reopening after close().

        Mirrors the JSONL backend's contract: ``close()`` releases
        resources, and the next use re-establishes them — so callers
        (``explore()``, the CLI) can close eagerly without wondering
        whether the instance will be touched again.
        """
        if self._conn is None:
            self._open()
        return self._conn

    def _quarantine(self, reason: str) -> None:
        """Move the damaged database aside and record a loud warning.

        The quarantined files keep their bytes for post-mortems; the
        store continues on a fresh database — every prior verdict
        degrades to a miss, which is always safe to re-verify.
        """
        if self._conn is not None:
            try:
                self._conn.close()
            except sqlite3.Error:  # pragma: no cover - already broken
                pass
            self._conn = None
        stamp = time.strftime("%Y%m%d-%H%M%S")
        target = f"{self.db_path}.quarantined-{stamp}"
        n = 0
        while os.path.exists(target):  # same-second re-quarantine
            n += 1
            target = f"{self.db_path}.quarantined-{stamp}.{n}"
        for suffix in ("", "-wal", "-shm"):
            source = self.db_path + suffix
            if os.path.exists(source):
                os.replace(source, target + suffix)
        self.quarantined = target
        message = (f"quarantined corrupt cache database to {target!r} "
                   f"({reason}); continuing with an empty store — "
                   "cached verdicts degrade to misses")
        self.warnings.append(message)
        _warnings.warn(message, CacheCorruptionWarning, stacklevel=3)

    def _retrying(self, fn, *, seed: str):
        """Run ``fn`` with bounded, jittered retries on locked/busy."""
        attempts = 0
        while True:
            attempts += 1
            try:
                return fn()
            except sqlite3.OperationalError as exc:
                if (not _is_locked_error(exc)
                        or not self.retry.should_retry(CAUSE_DB_LOCKED,
                                                       attempts)):
                    raise
                time.sleep(self.retry.backoff(attempts, seed=seed))

    # -- the store ----------------------------------------------------------

    def __len__(self) -> int:
        self._ensure()
        try:
            row = self._retrying(
                lambda: self._conn.execute(
                    "SELECT COUNT(*) FROM records").fetchone(),
                seed="len")
        except sqlite3.DatabaseError:
            return 0
        return int(row[0])

    def __contains__(self, fingerprint: str) -> bool:
        self._ensure()
        try:
            row = self._retrying(
                lambda: self._conn.execute(
                    "SELECT 1 FROM records WHERE fingerprint = ?",
                    (fingerprint,)).fetchone(),
                seed=fingerprint)
        except sqlite3.DatabaseError:
            return False
        return row is not None

    def items(self) -> Iterator[Tuple[str, Dict[str, Any]]]:
        """Live ``(fingerprint, record)`` pairs, sorted (uncounted).

        Rows that fail their CRC are silently omitted — same contract
        as ``get``: damage is a miss, never a wrong verdict.
        """
        self._ensure()
        rows = self._retrying(
            lambda: self._conn.execute(
                "SELECT fingerprint, record, crc FROM records"
                " ORDER BY fingerprint").fetchall(),
            seed="items")
        for fingerprint, payload, crc in rows:
            record = self._decode(fingerprint, payload, crc)
            if record is not None:
                yield fingerprint, record

    @staticmethod
    def _decode(fingerprint: str, payload: str,
                crc: int) -> Optional[Dict[str, Any]]:
        """Parse and checksum one row; None when it cannot be trusted."""
        try:
            record = json.loads(payload)
        except ValueError:
            return None
        if (not isinstance(record, dict)
                or record.get("fingerprint") != fingerprint
                or entry_crc(record) != crc):
            return None
        return record

    def get(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        """The cached record for ``fingerprint``, or None (counted)."""
        self._ensure()
        row = None
        try:
            row = self._retrying(
                lambda: self._conn.execute(
                    "SELECT record, crc FROM records"
                    " WHERE fingerprint = ?",
                    (fingerprint,)).fetchone(),
                seed=fingerprint)
        except sqlite3.DatabaseError as exc:
            # Latent corruption surfaced mid-read: quarantine and
            # degrade every lookup to a miss.
            self._quarantine(f"read failed: {exc}")
            self._conn = self._connect()
        if row is None:
            self.misses += 1
            return None
        record = self._decode(fingerprint, row[0], row[1])
        if record is None:
            self.corrupt_records += 1
            self.misses += 1
            message = (f"cache record {fingerprint[:12]}… failed its "
                       "checksum; dropped (served as a miss)")
            self.warnings.append(message)
            _warnings.warn(message, CacheCorruptionWarning, stacklevel=2)
            self._execute_quietly(
                "DELETE FROM records WHERE fingerprint = ?", (fingerprint,))
            return None
        self.hits += 1
        # LRU bookkeeping is best-effort: a reader racing a writer may
        # skip the touch rather than stall the lookup.
        self._execute_quietly(
            "UPDATE records SET last_hit = ?, hits = hits + 1"
            " WHERE fingerprint = ?", (time.time(), fingerprint))
        return record

    def _execute_quietly(self, sql: str, params: Tuple = ()) -> None:
        try:
            self._conn.execute(sql, params)
        except sqlite3.Error:
            pass

    def put(self, fingerprint: str, record: Dict[str, Any]) -> Dict[str, Any]:
        """Store ``record`` under ``fingerprint``, durably.

        The schema and fingerprint are stamped on and the row carries
        the CRC-32 of the stamped record's canonical JSON.  The write
        is one ``BEGIN IMMEDIATE`` transaction, retried with jittered
        backoff while another process holds the write lock; when this
        returns, the record is committed (and, with ``durable=True``,
        synced).  A crash mid-transaction (the ``cache.put`` failpoint)
        rolls back — never a torn row.
        """
        stamped = dict(record)
        stamped.pop("crc", None)  # the checksum lives in its own column
        stamped["schema"] = CACHE_SCHEMA
        stamped["fingerprint"] = fingerprint
        payload = _canonical(stamped)
        crc = entry_crc(stamped)
        now = time.time()
        self._ensure()

        def _txn() -> None:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                self._conn.execute(
                    "INSERT INTO records"
                    " (fingerprint, record, crc, created_at, last_hit, hits)"
                    " VALUES (?, ?, ?, ?, ?, 0)"
                    " ON CONFLICT(fingerprint) DO UPDATE SET"
                    " record = excluded.record, crc = excluded.crc,"
                    " created_at = excluded.created_at",
                    (fingerprint, payload, crc, now, now))
                failpoints.hit("cache.put", token=fingerprint)
                self._conn.execute("COMMIT")
            except BaseException:
                self._execute_quietly("ROLLBACK")
                raise

        self._retrying(_txn, seed=fingerprint)
        self.stored += 1
        if self.max_bytes is not None:
            self._evict()
        return stamped

    # -- eviction ------------------------------------------------------------

    def _size_bytes(self) -> int:
        total = 0
        for suffix in ("", "-wal"):
            try:
                total += os.path.getsize(self.db_path + suffix)
            except OSError:
                pass
        return total

    def _evict(self) -> None:
        """Drop cold records until the store is back under its cap.

        LRU by ``last_hit`` (a served verdict is hot; one nobody asked
        for since it was stored goes first).  Deletes in small batches,
        then checkpoints and VACUUMs so the bytes actually return to
        the filesystem.
        """
        if self._size_bytes() <= self.max_bytes:
            return
        target = int(self.max_bytes * 0.8)

        def _drop_batch() -> int:
            rows = self._conn.execute(
                "SELECT fingerprint FROM records"
                " ORDER BY last_hit ASC, fingerprint LIMIT 32").fetchall()
            if not rows:
                return 0
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                self._conn.executemany(
                    "DELETE FROM records WHERE fingerprint = ?", rows)
                self._conn.execute("COMMIT")
            except BaseException:
                self._execute_quietly("ROLLBACK")
                raise
            return len(rows)

        while self._size_bytes() > target:
            dropped = self._retrying(_drop_batch, seed="evict")
            if not dropped:
                break
            self.evicted += dropped
            # VACUUM first, then checkpoint: in WAL mode the vacuum
            # itself writes through the WAL, so the truncate must come
            # after it for the bytes to actually leave the filesystem.
            self._retrying(lambda: self._conn.execute("VACUUM"),
                           seed="evict")
            self._retrying(
                lambda: self._conn.execute(
                    "PRAGMA wal_checkpoint(TRUNCATE)").fetchone(),
                seed="evict")

    # -- maintenance ----------------------------------------------------------

    def flush(self) -> None:
        """Checkpoint the WAL (best-effort; commits are already durable)."""
        if self._conn is None:
            return
        self._execute_quietly("PRAGMA wal_checkpoint(PASSIVE)")

    def close(self) -> None:
        if self._conn is not None:
            self._execute_quietly("PRAGMA wal_checkpoint(TRUNCATE)")
            try:
                self._conn.close()
            except sqlite3.Error:  # pragma: no cover - already broken
                pass
            self._conn = None

    def __enter__(self) -> "SqliteResultCache":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __del__(self) -> None:  # backstop; close() is the contract
        try:
            self.close()
        except Exception:  # pragma: no cover - interpreter teardown
            pass

    def verify(self) -> Dict[str, Any]:
        """Audit the database; never raises on damage.

        Runs the full ``PRAGMA integrity_check`` plus a per-row CRC
        scan.  ``ok`` means the database is structurally sound and
        every record matches its checksum; a quarantine performed at
        open (or since) is surfaced explicitly in ``quarantined``.
        """
        report: Dict[str, Any] = {
            "backend": "sqlite",
            "records": 0,
            "corrupt_records": 0,
            "integrity": "ok",
            "quarantined": self.quarantined,
            "ok": True,
        }
        self._ensure()
        try:
            rows = self._retrying(
                lambda: self._conn.execute(
                    "PRAGMA integrity_check").fetchall(),
                seed="verify")
            if not (len(rows) == 1 and rows[0][0] == "ok"):
                report["integrity"] = "; ".join(str(r[0]) for r in rows)[:500]
                report["ok"] = False
            for fingerprint, payload, crc in self._retrying(
                    lambda: self._conn.execute(
                        "SELECT fingerprint, record, crc"
                        " FROM records").fetchall(),
                    seed="verify"):
                report["records"] += 1
                if self._decode(fingerprint, payload, crc) is None:
                    report["corrupt_records"] += 1
        except sqlite3.DatabaseError as exc:
            report["integrity"] = f"unreadable: {exc}"
            report["ok"] = False
            return report
        if report["corrupt_records"]:
            report["ok"] = False
        return report

    def compact(self) -> Dict[str, int]:
        """Checkpoint the WAL and VACUUM; returns row/byte counts.

        Rows are already one-per-fingerprint (the primary key), so
        unlike the JSONL journal there are no superseded lines to drop
        — compaction reclaims WAL and free-page space.
        """
        self._ensure()
        before_rows = len(self)
        before_bytes = self._size_bytes()
        # VACUUM writes through the WAL; checkpoint after it so the
        # reclaimed space actually leaves the filesystem.
        self._retrying(lambda: self._conn.execute("VACUUM"),
                       seed="compact")
        self._retrying(
            lambda: self._conn.execute(
                "PRAGMA wal_checkpoint(TRUNCATE)").fetchone(),
            seed="compact")
        return {
            "before_lines": before_rows,
            "after_lines": len(self),
            "before_bytes": before_bytes,
            "after_bytes": self._size_bytes(),
        }

    def fsck(self) -> Dict[str, Any]:
        """Repair the store: drop bad rows, or quarantine wholesale.

        A database that fails ``integrity_check`` (or cannot be read at
        all) is quarantined and replaced with a fresh empty store;
        otherwise rows failing their CRC are deleted and the file
        VACUUMed.  Either way the store ends consistent, and no damaged
        record can ever be served.
        """
        audit = self.verify()
        repaired = 0
        if audit["integrity"] != "ok":
            self._quarantine(f"fsck: integrity check failed "
                             f"({audit['integrity']})")
            self._conn = self._connect()
        elif audit["corrupt_records"]:
            bad = []
            for fingerprint, payload, crc in self._retrying(
                    lambda: self._conn.execute(
                        "SELECT fingerprint, record, crc"
                        " FROM records").fetchall(),
                    seed="fsck"):
                if self._decode(fingerprint, payload, crc) is None:
                    bad.append((fingerprint,))
            if bad:
                def _drop() -> None:
                    self._conn.execute("BEGIN IMMEDIATE")
                    try:
                        self._conn.executemany(
                            "DELETE FROM records WHERE fingerprint = ?", bad)
                        self._conn.execute("COMMIT")
                    except BaseException:
                        self._execute_quietly("ROLLBACK")
                        raise
                self._retrying(_drop, seed="fsck")
                repaired = len(bad)
                self._retrying(lambda: self._conn.execute("VACUUM"),
                               seed="fsck")
        return {
            "backend": "sqlite",
            "before_records": audit["records"],
            "after_records": len(self),
            "dropped_corrupt": audit["corrupt_records"],
            "repaired": repaired,
            "quarantined": self.quarantined,
            "ok": True,
        }

    def stats(self) -> Dict[str, Any]:
        """Hit/miss/store accounting since this store was opened."""
        return {
            "backend": "sqlite",
            "hits": self.hits,
            "misses": self.misses,
            "stored": self.stored,
            "records": len(self),
            "results_bytes": self._size_bytes(),
            "evicted": self.evicted,
            "corrupt_records": self.corrupt_records,
            "skipped_lines": 0,
            "legacy_lines": 0,
        }

    def __repr__(self) -> str:
        return (f"SqliteResultCache({self.directory!r}, {len(self)} "
                f"records, {self.hits} hits / {self.misses} misses)")


def migrate_jsonl_to_sqlite(directory: str, *,
                            durable: bool = True) -> Dict[str, Any]:
    """Convert a JSONL cache directory to the SQLite backend, in place.

    Loads every live record from ``results.jsonl`` (corrupt and foreign
    lines are skipped, exactly as a lookup would skip them), writes
    each into a new ``cache.sqlite`` in the same directory, then
    **verifies** the conversion record-by-record before retiring the
    old journal and index as ``*.migrated`` (kept as a backup, and so
    backend auto-detection picks SQLite from now on).  Records are
    byte-identical minus the JSONL ``crc`` field, which moves to the
    row's checksum column with the same CRC-32 value — verdicts,
    fingerprints, and evidence all carry over unchanged.

    Returns a summary dict; raises ``RuntimeError`` (leaving the JSONL
    journal untouched) if any migrated record reads back differently.
    """
    source = ResultCache(directory, durable=False)
    try:
        records = {fp: dict(record) for fp, record in source.items()}
        skipped = source.stats()["skipped_lines"]
        corrupt = source.stats()["corrupt_lines"]
    finally:
        source.close()

    with SqliteResultCache(directory, durable=durable) as target:
        for fingerprint, record in sorted(records.items()):
            body = {k: v for k, v in record.items() if k != "crc"}
            target.put(fingerprint, body)
        mismatches = []
        for fingerprint, record in records.items():
            want = {k: v for k, v in record.items() if k != "crc"}
            if target.get(fingerprint) != want:
                mismatches.append(fingerprint)
        if mismatches:
            raise RuntimeError(
                f"migration verification failed for {len(mismatches)} of "
                f"{len(records)} records (JSONL journal left in place): "
                + ", ".join(fp[:12] for fp in mismatches[:5]))

    retired = []
    for name in (_JSONL_RESULTS, _JSONL_INDEX):
        path = os.path.join(str(directory), name)
        if os.path.exists(path):
            os.replace(path, path + ".migrated")
            retired.append(name + ".migrated")
    return {
        "backend": "sqlite",
        "migrated": len(records),
        "verified": len(records),
        "skipped_lines": skipped,
        "corrupt_lines": corrupt,
        "retired": retired,
    }


_JSONL_RESULTS = "results.jsonl"
_JSONL_INDEX = "index.json"
