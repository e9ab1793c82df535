"""Checksummed append-only journals and the per-run exploration journal.

The line format defined here is the run journal's (:class:`RunJournal`:
``explore()`` journals per-job lifecycle records so an interrupted
exploration can be resumed).  The JSONL verdict journal that
:func:`~repro.design.sqlcache.migrate_jsonl_to_sqlite` imports used it
too, and every row of the SQLite verdict store carries the same
checksum (:func:`entry_crc`).

**Line format.**  One JSON object per line, ``sort_keys`` canonical,
carrying a ``crc`` field: the CRC-32 of the canonical JSON encoding of
the object *without* that field.  A reader that replays a journal
verifies each line's checksum and skips lines that fail to parse or to
verify — so a crash mid-append (torn final line), a filesystem that
zero-fills a tail on power loss, or a stray editor save costs at most
the damaged records, never the journal.

**Durability.**  Writers append, flush, and (by default) ``fsync`` each
record, so a record returned to a caller is on disk.  Appends are the
*only* mutation.

**The run journal** (schema ``repro.design-run/1``) lives under
``<journal dir>/<run id>/journal.jsonl`` and records one exploration's
job lifecycle, keyed by the job fingerprints of
:mod:`repro.design.fingerprint`:

``run_started``
    Space name, variant total, policy — appended once per attempt
    (a resumed run appends another).
``scheduled``
    One per job submitted for execution this attempt.
``done``
    The job's full verdict record; resume serves these without
    re-verifying (and without touching the result cache).
``failed``
    The job died (worker killed / timeout / checker exception) with a
    recorded cause; resume re-runs these.
``interrupted`` / ``run_finished``
    How the attempt ended.

:func:`RunJournal.load` folds a journal into a :class:`JournalState`:
``done`` beats ``failed`` for the same fingerprint (a later attempt
succeeded), and anything scheduled but neither done nor failed is
*pending* — exactly the set ``explore(resume=...)`` re-runs.
"""

from __future__ import annotations

import json
import os
import time
import uuid
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

try:  # POSIX advisory locks; degrade to no-op where absent
    import fcntl as _fcntl
except ImportError:  # pragma: no cover - non-POSIX host
    _fcntl = None

__all__ = [
    "JOURNAL_SCHEMA",
    "FileLockedError",
    "JournalState",
    "RunJournal",
    "append_entry",
    "entry_crc",
    "list_runs",
    "read_entries",
    "try_lock",
    "verify_entry",
]

JOURNAL_SCHEMA = "repro.design-run/1"

_JOURNAL_NAME = "journal.jsonl"


# -- advisory file locking -------------------------------------------------

class FileLockedError(RuntimeError):
    """Another exploration holds a run journal's advisory lock.

    Raised *instead of* interleaving two writers' lifecycle records:
    :class:`RunJournal` takes an exclusive ``flock`` before its first
    append, so a second exploration on the same run id fails loudly
    and immediately.
    """

    def __init__(self, path: str, what: str) -> None:
        super().__init__(
            f"{what} is locked: another exploration holds this run id "
            f"({path!r}); wait for it to finish, or use another run id")
        self.path = path


def try_lock(fd: int) -> bool:
    """Try the exclusive, non-blocking advisory lock on ``fd``.

    Returns True when the lock was taken (always, on platforms without
    :mod:`fcntl` — locking degrades to a no-op there).  The lock is
    released when every descriptor of the open file description
    closes (including on process death, which is what makes a crashed
    writer's lock disappear).
    """
    if _fcntl is None:  # pragma: no cover - non-POSIX host
        return True
    try:
        _fcntl.flock(fd, _fcntl.LOCK_EX | _fcntl.LOCK_NB)
    except OSError:
        return False
    return True


# -- checksummed line format ----------------------------------------------

def _canonical(entry: Dict[str, Any]) -> str:
    return json.dumps(entry, sort_keys=True, separators=(",", ":"))


def entry_crc(entry: Dict[str, Any]) -> int:
    """CRC-32 of the entry's canonical JSON, ``crc`` field excluded."""
    body = {k: v for k, v in entry.items() if k != "crc"}
    return zlib.crc32(_canonical(body).encode("utf-8"))


def verify_entry(entry: Any) -> bool:
    """True when ``entry`` is a dict whose ``crc`` matches its content."""
    if not isinstance(entry, dict) or not isinstance(entry.get("crc"), int):
        return False
    return entry["crc"] == entry_crc(entry)


def append_entry(fh, entry: Dict[str, Any], *, durable: bool = True) -> None:
    """Stamp ``crc``, append one line, flush, and optionally fsync."""
    entry["crc"] = entry_crc(entry)
    fh.write(_canonical(entry) + "\n")
    fh.flush()
    if durable:
        os.fsync(fh.fileno())


def read_entries(path: str) -> Iterator[Tuple[Optional[Dict[str, Any]], str]]:
    """Yield ``(entry, raw_line)`` per line; ``entry`` is None when the
    line fails to parse or its checksum does not verify."""
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            raw = line.strip()
            if not raw:
                continue
            try:
                entry = json.loads(raw)
            except ValueError:
                yield None, raw
                continue
            yield (entry if verify_entry(entry) else None), raw


# -- the per-run exploration journal --------------------------------------

def _new_run_id() -> str:
    return time.strftime("%Y%m%d-%H%M%S") + "-" + uuid.uuid4().hex[:6]


@dataclass
class JournalState:
    """A run journal folded into resumable state."""

    run_id: str
    meta: Dict[str, Any] = field(default_factory=dict)
    scheduled: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    completed: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    failed: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    attempts: int = 0
    interrupted: bool = False
    finished: bool = False
    corrupt_lines: int = 0

    @property
    def pending(self) -> List[str]:
        """Fingerprints scheduled but neither done nor failed."""
        return [fp for fp in self.scheduled
                if fp not in self.completed and fp not in self.failed]


class RunJournal:
    """Append-only lifecycle journal for one exploration run.

    Opening an existing run directory appends (that is how resume
    continues a journal); a fresh ``run_id`` is minted when none is
    given.  The journal file is advisory-locked for the writer's
    lifetime, so two explorations resuming the same run id concurrently
    fail loudly (:class:`FileLockedError`) instead of interleaving
    lifecycle records.
    """

    def __init__(self, directory: str, run_id: Optional[str] = None, *,
                 durable: bool = True) -> None:
        self.run_id = run_id or _new_run_id()
        self.directory = os.path.join(str(directory), self.run_id)
        os.makedirs(self.directory, exist_ok=True)
        self.path = os.path.join(self.directory, _JOURNAL_NAME)
        self.durable = durable
        self._fh = open(self.path, "a", encoding="utf-8")
        if not try_lock(self._fh.fileno()):
            self._fh.close()
            raise FileLockedError(self.path, f"run journal {self.run_id!r}")

    def record(self, event: str, **fields: Any) -> None:
        """Append one checksummed lifecycle record."""
        entry: Dict[str, Any] = {"schema": JOURNAL_SCHEMA, "event": event}
        entry.update(fields)
        append_entry(self._fh, entry, durable=self.durable)

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()  # closing the fd releases the flock

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __del__(self) -> None:  # backstop; close() is the contract
        try:
            self.close()
        except Exception:  # pragma: no cover - interpreter teardown
            pass

    @classmethod
    def load(cls, directory: str, run_id: str) -> JournalState:
        """Fold the journal of ``run_id`` under ``directory``.

        Raises :class:`FileNotFoundError` (listing the runs that do
        exist) when the run has no journal.
        """
        path = os.path.join(str(directory), run_id, _JOURNAL_NAME)
        if not os.path.exists(path):
            known = ", ".join(list_runs(directory)) or "none"
            raise FileNotFoundError(
                f"no journal for run {run_id!r} under {directory!r} "
                f"(known runs: {known})")
        state = JournalState(run_id=run_id)
        for entry, _raw in read_entries(path):
            if entry is None:
                state.corrupt_lines += 1
                continue
            if entry.get("schema") != JOURNAL_SCHEMA:
                state.corrupt_lines += 1
                continue
            event = entry.get("event")
            if event == "run_started":
                state.attempts += 1
                state.meta = entry
                state.finished = False
                state.interrupted = False
            elif event == "scheduled":
                fp = entry.get("fingerprint")
                if isinstance(fp, str):
                    state.scheduled[fp] = entry
            elif event == "done":
                fp = entry.get("fingerprint")
                record = entry.get("record")
                if isinstance(fp, str) and isinstance(record, dict):
                    state.completed[fp] = record
                    state.failed.pop(fp, None)
            elif event == "failed":
                fp = entry.get("fingerprint")
                if isinstance(fp, str) and fp not in state.completed:
                    state.failed[fp] = entry
            elif event == "interrupted":
                state.interrupted = True
            elif event == "run_finished":
                state.finished = True
        return state


def list_runs(directory: str) -> List[str]:
    """Run ids with a journal under ``directory``, oldest first."""
    if not os.path.isdir(str(directory)):
        return []
    runs = [name for name in os.listdir(str(directory))
            if os.path.isfile(os.path.join(str(directory), name,
                                           _JOURNAL_NAME))]
    return sorted(runs)
