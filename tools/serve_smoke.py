#!/usr/bin/env python3
"""End-to-end smoke test of the verification service (CI gate).

Exercises the whole serve stack the way a user would, from the shell
out — daemon subprocess, HTTP submissions, live event stream, report
parity with the local CLI, coalescing arithmetic, warm-hit latency,
and the SIGTERM drain contract:

1.  start ``repro serve`` as a subprocess on a free port;
2.  submit the gas-station verify job over HTTP and stream its NDJSON
    events to completion (asserting the lifecycle brackets the live
    engine events);
3.  fetch the job's report and compare it against a direct
    ``repro verify gas --report`` run of the same design —
    **byte-for-byte** on canonical JSON after normalizing the volatile
    fields (wall-clock timings, the recorded command line, events);
4.  submit the same job twice concurrently against a held worker
    (``serve.run=sleep``) and assert exactly one computation;
5.  re-submit after completion and assert a warm cache hit under
    100 ms;
6.  SIGTERM the daemon and assert a clean drain (exit code 0);
7.  start a supervised daemon (sandboxed jobs) on a fresh store and
    verify one design under two budgets — two fingerprints, two
    sandboxes — and assert that the second sandbox compiled no program:
    it read every one from the programs the first left beside the store.

Run it locally::

    PYTHONPATH=src python tools/serve_smoke.py
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.serve import ServeClient  # noqa: E402
from repro.serve.client import poll_until_running  # noqa: E402

PORT = int(os.environ.get("SERVE_SMOKE_PORT", "7497"))
URL = f"http://127.0.0.1:{PORT}"

#: Report fields that legitimately differ between two runs of the same
#: verification: wall-clock timings, the invocation line, and the event
#: timeline (the served report has no collected events).
VOLATILE_KEYS = frozenset({"command", "events"})
VOLATILE_LEAVES = frozenset({"elapsed_seconds", "states_per_second",
                             "seconds", "compile_seconds",
                             "elaboration_seconds"})


def normalize(node):
    if isinstance(node, dict):
        return {key: (None if key in VOLATILE_LEAVES else normalize(value))
                for key, value in node.items()
                if key not in VOLATILE_KEYS}
    if isinstance(node, list):
        return [normalize(item) for item in node]
    return node


def canonical(payload) -> bytes:
    return json.dumps(normalize(payload), sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def check(condition, message):
    if not condition:
        print(f"FAIL: {message}", file=sys.stderr)
        raise SystemExit(1)
    print(f"ok: {message}")


def wait_for_daemon(client, seconds=30.0):
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        try:
            if client.health().get("ok"):
                return
        except OSError:
            time.sleep(0.1)
    raise SystemExit("daemon never became healthy")


def start_daemon(cache_dir, *extra, failpoints=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    env.pop("REPRO_FAILPOINTS", None)
    if failpoints:
        env["REPRO_FAILPOINTS"] = failpoints
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", str(PORT),
         "--cache-dir", cache_dir, "--workers", "2", *extra],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)


def drain(daemon):
    """SIGTERM the daemon; return its exit code and output."""
    daemon.send_signal(signal.SIGTERM)
    try:
        exit_code = daemon.wait(timeout=60)
    except subprocess.TimeoutExpired:
        daemon.kill()
        raise SystemExit("daemon did not drain within 60s")
    return exit_code, daemon.stdout.read()


def sandboxes_reuse_programs(workdir, client):
    """Step 7: a second sandbox reads what the first one compiled."""
    daemon = start_daemon(os.path.join(workdir, "sandboxed"))
    try:
        wait_for_daemon(client)
        stats = []
        for max_states in (1_000_000, 1_000_001):
            view = client.submit({"kind": "verify", "system": "gas",
                                  "options": {"customers": 2,
                                              "selective": True,
                                              "max_states": max_states}})
            done = client.wait(view["job_id"], timeout=120)
            check(done["verdict"] == "PASS" and not done["cached"],
                  f"sandboxed job with max_states={max_states:,} computed "
                  f"a PASS")
            stats.append(client.report(view["job_id"])["run"]["statistics"])
        first, second = stats
        total = first["programs_compiled"] + first["compile_cache_hits"]
        check(second["programs_compiled"] == 0
              and second["compile_cache_hits"] == total > 0,
              f"the second sandbox compiled nothing and read all {total} "
              f"programs from the store (first: {first['programs_compiled']}"
              f" compiled; second: {second['programs_compiled']} compiled, "
              f"{second['compile_cache_hits']} hits)")
        exit_code, output = drain(daemon)
        check(exit_code == 0, f"sandboxed daemon drained cleanly "
              f"(got {exit_code}; output: {output[-300:]})")
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait(timeout=10)


def main() -> int:
    workdir = tempfile.mkdtemp(prefix="serve-smoke-")
    cache_dir = os.path.join(workdir, "cache")
    # Hold computed jobs ~1.5s so the coalescing window is provably
    # open while the duplicate submission arrives.
    daemon = start_daemon(cache_dir, "--inline",
                          failpoints="serve.run=sleep:1.5")
    client = ServeClient(URL)
    try:
        wait_for_daemon(client)
        spec = {"kind": "verify", "system": "gas",
                "options": {"customers": 2, "selective": True}}

        # -- coalescing: two concurrent identical submissions ----------
        first = client.submit(spec)
        poll_until_running(client, first["job_id"])
        second = client.submit(spec)
        check(second["coalesced_with"] == first["job_id"],
              "second identical submission coalesced onto the first")

        # -- live stream: events arrive while the job is running -------
        streamed = []
        streamer = threading.Thread(
            target=lambda: streamed.extend(client.events(first["job_id"])),
            daemon=True)
        streamer.start()
        done_first = client.wait(first["job_id"], timeout=120)
        done_second = client.wait(second["job_id"], timeout=120)
        streamer.join(timeout=30)
        types = [event["type"] for event in streamed]
        check(types[0] == "job_queued" and types[-1] == "job_finished",
              "stream is bracketed by lifecycle events")
        check("run_started" in types and "run_finished" in types,
              "stream carries the engine's events")

        check(done_first["verdict"] == "PASS"
              and done_second["verdict"] == "PASS",
              "both submissions received the PASS verdict")
        check(done_first["exit_code"] == 0 and done_second["exit_code"] == 0,
              "both submissions carry exit code 0")
        stats = client.stats()["counters"]
        check(stats["computed"] == 1 and stats["coalesced"] == 1,
              f"exactly one computation ran (counters: {stats})")
        check(client.report(first["job_id"])
              == client.report(second["job_id"]),
              "coalesced clients share one identical report")

        # -- warm hit: terminal immediately, fast ----------------------
        t0 = time.monotonic()
        warm = client.submit(spec)
        warm_ms = (time.monotonic() - t0) * 1000.0
        check(warm["status"] == "done" and warm["cached"],
              f"post-completion submission is a pure cache hit "
              f"({warm_ms:.1f} ms)")
        check(warm_ms < 100.0, f"warm submission under 100 ms "
              f"(measured {warm_ms:.1f} ms)")
        check(client.stats()["counters"]["computed"] == 1,
              "the warm hit computed nothing")

        # -- report parity with the direct CLI run ---------------------
        served_report = client.report(first["job_id"])
        local_path = os.path.join(workdir, "local-report.json")
        direct = subprocess.run(
            [sys.executable, "-m", "repro.cli", "verify", "gas",
             "--customers", "2", "--selective", "--report", local_path],
            env={**os.environ, "PYTHONPATH": "src"},
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        check(direct.returncode == 0,
              f"direct CLI run exits 0 (got {direct.returncode}: "
              f"{direct.stdout[-300:]})")
        with open(local_path, encoding="utf-8") as fh:
            local_report = json.load(fh)
        check(canonical(served_report) == canonical(local_report),
              "served report is byte-identical to the direct CLI run's "
              "(canonical JSON, volatile timing fields normalized)")

        # -- graceful drain on SIGTERM ---------------------------------
        exit_code, output = drain(daemon)
        check(exit_code == 0, f"daemon drained cleanly with exit 0 "
              f"(got {exit_code}; output: {output[-300:]})")
        check("drained cleanly" in output,
              "daemon reported the clean drain")

        # -- sandboxes share compiled programs through the store -------
        sandboxes_reuse_programs(workdir, client)
        print("serve smoke: all checks passed")
        return 0
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait(timeout=10)
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
