"""Supervised sandboxes start clean while daemon threads use SQLite.

A child forked from a threaded process inherits every lock another
thread held at that instant, locked, with no thread left to release it.
SQLite's mutexes are such locks: a sandbox forked while a handler
thread was inside ``sqlite3.connect`` hung in its own first connect.
Sandboxes now fork from a single-threaded forkserver, so two threads
hammering SQLite beside a stream of supervised jobs must not stall any
of them (each job has a 5 s timeout and no retry).
"""

import sqlite3
import threading

from repro.design.supervise import RetryPolicy
from repro.serve import JobManager

#: Thousands of small allocations per query: SQLite takes its memory
#: mutex on each, so a fork often lands while a hammer thread holds it.
_QUERY = ("WITH RECURSIVE n(i) AS (SELECT 1 UNION ALL "
          "SELECT i + 1 FROM n WHERE i < 2000) "
          "SELECT length(group_concat(printf('%08d', i))) FROM n")


def _hammer_sqlite(stop: threading.Event) -> None:
    while not stop.is_set():
        conn = sqlite3.connect(":memory:")
        try:
            conn.execute(_QUERY).fetchone()
        finally:
            conn.close()


def test_sandboxes_finish_while_other_threads_use_sqlite(tmp_path):
    manager = JobManager(str(tmp_path / "cache"), workers=1, job_timeout=5,
                         retry=RetryPolicy(max_retries=0))
    stop = threading.Event()
    threads = [threading.Thread(target=_hammer_sqlite, args=(stop,),
                                daemon=True) for _ in range(2)]
    for thread in threads:
        thread.start()
    try:
        views = [manager.submit({"kind": "explore", "space": "pc",
                                 "options": {"first_pass": True,
                                             "max_states": 100_000 + i}})
                 for i in range(12)]
        finals = [manager.wait(view["job_id"], timeout=120)
                  for view in views]
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=10)
        manager.close()
    assert not any(thread.is_alive() for thread in threads)
    failed = [view["error"] for view in finals if view["status"] != "done"]
    assert failed == []
