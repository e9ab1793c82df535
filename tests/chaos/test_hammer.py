"""Multi-process hammer: many writers, readers, and a compactor on one
cache directory, with and without ``kill -9`` mid-write.

The robustness bar for the shared SQLite/WAL verdict store:

* zero lost acknowledged verdicts — a ``put`` that returned (proven by
  an fsynced ack file) is served by every later reader, through any
  interleaving of appends, compactions, and crashes;
* zero corrupt reads — a served record always carries the payload that
  was stored for its fingerprint, never a torn or foreign one;
* the store audits clean afterwards (``repro cache verify`` exits 0).

Writers run genuinely concurrently, one connection each.  The kill
case uses the ``cache.put`` failpoint, which sits *inside* the write
transaction (after the INSERT, before the COMMIT) — a crash there must
roll back, never tear.
"""

import os
import subprocess
import sys
from pathlib import Path

from repro.design import open_cache
from repro.design.failpoints import KILL_EXIT_CODE

REPO_ROOT = Path(__file__).parents[2]

#: Acceptance floor from the issue: N>=4 writer processes, M>=50 puts.
N_WRITERS = 4
M_RECORDS = 50
N_READERS = 2
VICTIM_RECORDS = 20
VICTIM_KILL_AT = 10

_WRITER = """
import os, sys
from repro.design import open_cache
cache_dir, wid, n, ack_dir = sys.argv[1:5]


def fp_for(wid, i):
    return ("%02d" % int(wid)) + ("%062d" % i)


def ack(fp):
    path = os.path.join(ack_dir, fp)
    with open(path, "w") as fh:
        fh.write(fp)
        fh.flush()
        os.fsync(fh.fileno())


def put_one(cache, fp):
    cache.put(fp, {"verdict": "PASS", "payload": fp[:12],
                   "worker": int(wid)})


with open_cache(cache_dir) as cache:
    for i in range(int(n)):
        fp = fp_for(wid, i)
        put_one(cache, fp)
        ack(fp)
print("writer-done", wid)
"""

_READER = """
import os, sys, time
from repro.design import open_cache
cache_dir, ack_dir, rounds = sys.argv[1:4]
for _ in range(int(rounds)):
    acked = os.listdir(ack_dir)  # acks are fsynced *after* put returns
    with open_cache(cache_dir) as cache:
        for fp in acked:
            record = cache.get(fp)
            if record is None:
                print("LOST", fp)
                sys.exit(9)
            if record.get("payload") != fp[:12]:
                print("CORRUPT", fp, record)
                sys.exit(10)
    time.sleep(0.01)
print("reader-ok")
"""

_COMPACTOR = """
import sqlite3, sys, time
from repro.design import open_cache
cache_dir, rounds = sys.argv[1:3]
for _ in range(int(rounds)):
    try:
        with open_cache(cache_dir) as cache:
            cache.compact()
    except sqlite3.OperationalError:
        pass  # sustained writer pressure; vacuum next round
    time.sleep(0.02)
print("compactor-done")
"""


def _spawn(script, args, failpoints_spec=""):
    env = {"PYTHONPATH": "src"}
    if failpoints_spec:
        env["REPRO_FAILPOINTS"] = failpoints_spec
    return subprocess.Popen(
        [sys.executable, "-c", script] + [str(a) for a in args],
        env=env, cwd=str(REPO_ROOT),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def _finish(proc, what, timeout=120):
    out, err = proc.communicate(timeout=timeout)
    return proc.returncode, f"{what}: rc={proc.returncode}\n{out}\n{err}"


class TestHammer:
    def _hammer(self, tmp_path, *, with_kill):
        cache_dir = tmp_path / "cache"
        ack_dir = tmp_path / "acks"
        os.makedirs(cache_dir)
        os.makedirs(ack_dir)

        procs = []
        for wid in range(N_WRITERS):
            procs.append(("writer", _spawn(
                _WRITER, [cache_dir, wid, M_RECORDS, ack_dir])))
        for _ in range(N_READERS):
            procs.append(("reader", _spawn(
                _READER, [cache_dir, ack_dir, 25])))
        procs.append(("compactor", _spawn(
            _COMPACTOR, [cache_dir, 10])))

        victim_fp = None
        if with_kill:
            # One more writer, killed mid-put: inside the transaction,
            # after the INSERT and before the COMMIT.
            victim_id = N_WRITERS
            victim_fp = ("%02d" % victim_id) + ("%062d" % VICTIM_KILL_AT)
            victim = _spawn(
                _WRITER,
                [cache_dir, victim_id, VICTIM_RECORDS, ack_dir],
                failpoints_spec=f"cache.put=kill@{victim_fp}")
            rc, detail = _finish(victim, "victim")
            assert rc == KILL_EXIT_CODE, detail

        for what, proc in procs:
            rc, detail = _finish(proc, what)
            assert rc == 0, detail

        if with_kill:
            # The killed writer's run is simply rerun; the store must
            # absorb it cleanly after the crash.
            rerun = _spawn(_WRITER, [cache_dir, N_WRITERS,
                                     VICTIM_RECORDS, ack_dir])
            rc, detail = _finish(rerun, "victim-rerun")
            assert rc == 0, detail

        # Zero lost acknowledged verdicts, zero corrupt reads — from a
        # fresh opener, after every process has exited.
        acked = sorted(os.listdir(ack_dir))
        expected = N_WRITERS * M_RECORDS + (VICTIM_RECORDS if with_kill
                                            else 0)
        assert len(acked) == expected
        with open_cache(cache_dir) as cache:
            for fp in acked:
                record = cache.get(fp)
                assert record is not None, f"lost acknowledged {fp}"
                assert record["payload"] == fp[:12], record
            audit = cache.verify()
        assert audit["ok"], audit

        # And the CLI auditor agrees.
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "cache", "verify",
             "--cache-dir", str(cache_dir)],
            env={"PYTHONPATH": "src"}, cwd=str(REPO_ROOT),
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_concurrent_hammer(self, tmp_path):
        self._hammer(tmp_path, with_kill=False)

    def test_concurrent_hammer_with_mid_write_kills(self, tmp_path):
        self._hammer(tmp_path, with_kill=True)
