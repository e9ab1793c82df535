"""The ``serve`` workload: two clients against a ``repro serve`` daemon.

A closed loop with two client threads (one per CPU of the host it was
tuned on), each holding one persistent HTTP/1.1 connection with one
request in flight, submits a seeded stream with ``wait=True`` to
``repro serve`` (supervised, two workers, ``--port 0``, an empty store).
The stream is fixed by the seed and ``--seconds``:

* single submissions drawn Zipf-skewed from a pool of distinct jobs.  A
  pool job is one of ``catalog.SERVE_SPECS`` with its own generous
  ``max_states``, which changes the job's fingerprint and not its work.
  The first sight of a job computes in a forked sandbox (cold); repeats
  are answered from the store (warm), or coalesce onto the running job
  when they arrive while it computes;
* incremental sessions (``catalog.SERVE_SESSION``), sent back to back by
  one client: the exhaustive producer/consumer exploration, then the
  first-pass one with the same budget, a new job whose variants all come
  from the store the first one filled (incr).

Every answer is checked against the known-answer table (served ≡ local):
verdict, exit code and detail at once, and, once the traffic is over,
the state counts in the run report of every job that computed.  The
daemon's counters must add up: one computation per distinct fingerprint
submitted.  A first-pass exploration stops at the first variant that
passes after taking every variant the store already holds, so its detail
depends on the store: it must name a variant the table says passes, out
of the space's full count.  An incremental job that did not find the
exhaustive job's variants (a store that lost records degrades to misses:
allowed, never a wrong verdict) is reported, as is every quarantined
store file left behind.
"""

from __future__ import annotations

import glob
import json
import os
import random
import re
import signal
import sys
import threading
import time
from http.client import HTTPConnection
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import urlsplit

import catalog
import trace
from common import HERE, Child, OpLog, Scratch, Tally, load_known_answers

from repro.serve import ServeClient

CLIENTS = 2
#: Daemon starts per run for ``setup_s`` (the last one serves traffic).
SETUP_SAMPLES = 5
#: Stream size per second of ``--seconds``.
DISTINCT_PER_S = 2.0
SUBMISSIONS_PER_S = 12.0
SESSIONS_PER_S = 0.4
ZIPF_S = 1.1
#: Seconds a client waits for one job before counting it failed.
JOB_TIMEOUT = 60.0
#: Budgets far above any job's state count: they only tell jobs apart.
BUDGET_BASE = 50_000_000
#: What ``repro serve`` prints once it accepts connections.
READY = "listening on"
#: A sandbox that has waited on a lock this long without using CPU is
#: hung (defect 1 in NOTES.md).  A working sandbox is single-threaded, so
#: it has no lock to wait for; the longest such wait measured in one is
#: in NOTES.md.
HANG_SECONDS = 2.0
HANG_POLL = 0.1


def daemon_argv(store: str, spans: Optional[str] = None) -> List[str]:
    serve = ["--port", "0", "--workers", "2", "--cache-dir", store]
    if spans is None:
        return [sys.executable, "-m", "repro.cli", "serve", *serve]
    return [sys.executable, os.path.join(HERE, "daemon.py"),
            "--spans", spans, "--", *serve]


class HangWatch:
    """Kills a sandbox of the daemon that hangs on a lock.

    A sandbox is a forked copy of the daemon that runs one job on one
    thread.  One that sits in a futex wait without using CPU for
    ``HANG_SECONDS`` is stuck (defect 1 in NOTES.md), however long its
    job takes; sleeps, such as the store's busy retries, never count.
    Killing it makes the daemon's supervision retry the job, as after any
    worker death.  ``kills`` counts the kills; ``longest_wait`` is the
    longest such wait of a sandbox that was not killed.
    """

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.kills = 0
        self.longest_wait = 0.0
        self._cmdline = self._read(f"/proc/{pid}/cmdline")
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    @staticmethod
    def _read(path: str) -> bytes:
        try:
            with open(path, "rb") as fh:
                return fh.read()
        except OSError:
            return b""

    def _sandboxes(self) -> Dict[int, Tuple[int, bool]]:
        """Live forked children of the daemon -> (CPU ticks, waiting on a
        lock?)."""
        out = {}
        for path in glob.glob(f"/proc/{self.pid}/task/*/children"):
            for pid in map(int, self._read(path).split()):
                stat = self._read(f"/proc/{pid}/stat")
                if (not stat or self._read(f"/proc/{pid}/cmdline")
                        != self._cmdline):
                    continue
                fields = stat.rsplit(b")", 1)[1].split()
                locked = (fields[0] == b"S"
                          and b"futex" in self._read(f"/proc/{pid}/wchan"))
                if fields[0] != b"Z":
                    out[pid] = (int(fields[11]) + int(fields[12]), locked)
        return out

    def _run(self) -> None:
        waiting: Dict[int, Tuple[int, float]] = {}
        while not self._stop.wait(HANG_POLL):
            now = time.monotonic()
            for pid, (ticks, locked) in self._sandboxes().items():
                since = waiting.get(pid)
                if not locked or since is None or since[0] != ticks:
                    if since is not None:
                        self.longest_wait = max(self.longest_wait,
                                                now - since[1])
                    if locked:
                        waiting[pid] = (ticks, now)
                    else:
                        waiting.pop(pid, None)
                elif now - since[1] >= HANG_SECONDS:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except OSError:
                        continue
                    self.kills += 1
                    waiting.pop(pid)

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()


class Daemon:
    """A ``repro serve`` process, timed from launch to its ready line."""

    def __init__(self, store: str, spans: Optional[str] = None) -> None:
        self.child = Child(daemon_argv(store, spans), READY)
        self.setup_seconds = self.child.setup_seconds
        self.url = self.child.ready_line.split(READY, 1)[1].split()[0]
        self.watch = HangWatch(self.child.proc.pid)

    def stop(self) -> int:
        """Drain over HTTP, then SIGTERM and wait.

        ``repro serve`` prints its ready line before it installs its
        SIGTERM handler (defect 4 in NOTES.md); once a drain request
        has been answered, the handler is in place.
        """
        try:
            ServeClient(self.url).drain(timeout=30.0)
        finally:
            self.watch.stop()
            code = self.child.stop()
        return code


def _with_budget(spec: dict, budget: int) -> dict:
    spec = json.loads(json.dumps(spec))
    spec["options"]["max_states"] = budget
    return spec


def build_stream(seed: int, seconds: float) -> List[List[Tuple[str, dict,
                                                             bool]]]:
    """Items of ``(answer key, spec, incremental?)`` submissions."""
    rng = random.Random(f"serve:{seed}")
    n_distinct = max(len(catalog.SERVE_SPECS),
                     round(DISTINCT_PER_S * seconds))
    # Popularity rank r belongs to spec r mod 7 in a fixed order, so every
    # seed sees the same mix of specs; the seed draws the submissions.
    keys = list(catalog.SERVE_SPECS)
    pool = [(keys[i % len(keys)], BUDGET_BASE + i) for i in range(n_distinct)]
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(pool))]
    items = [[(key, _with_budget(catalog.SERVE_SPECS[key], budget), False)]
             for key, budget in rng.choices(
                 pool, weights, k=round(SUBMISSIONS_PER_S * seconds))]
    (first_key, first), (then_key, then) = catalog.SERVE_SESSION
    for i in range(max(1, round(SESSIONS_PER_S * seconds))):
        budget = BUDGET_BASE + n_distinct + i
        session = [(first_key, _with_budget(first, budget), False),
                   (f"{then_key}@incr", _with_budget(then, budget), True)]
        items.insert(rng.randrange(len(items) + 1), session)
    return items


class Connection:
    """One client's persistent connection to the daemon's JSON API.

    ``ServeClient`` opens a connection per request, and the daemon then
    opens a store connection per request on a new thread; a long-lived
    client keeps one connection, which is what this models.
    """

    def __init__(self, url: str, timeout: float) -> None:
        split = urlsplit(url)
        self.host, self.port = split.hostname, split.port
        self.timeout = timeout
        self.conn: Optional[HTTPConnection] = None

    def submit(self, spec: dict) -> dict:
        if self.conn is None:
            self.conn = HTTPConnection(self.host, self.port,
                                       timeout=self.timeout + 10.0)
        body = json.dumps(dict(spec, wait=True, timeout=self.timeout))
        try:
            self.conn.request("POST", "/v1/jobs", body=body.encode("utf-8"),
                              headers={"Content-Type": "application/json"})
            response = self.conn.getresponse()
            data = json.loads(response.read().decode("utf-8"))
        except Exception:
            self.close()
            raise
        if response.status >= 400:
            raise RuntimeError(f"HTTP {response.status}: {data}")
        return data["job"]

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


_FIRST_PASS = re.compile(r"(\d+)/(\d+) variants pass; best (.+)")


def first_pass_ok(detail: Optional[str], table: dict) -> bool:
    """Is ``detail`` an answer a first-pass exploration can give?"""
    match = _FIRST_PASS.fullmatch(detail or "")
    passing = {name for name, verdict, _ in table["variants"]
               if verdict == "PASS"}
    return (match is not None
            and 1 <= int(match[1]) <= int(match[2])
            and int(match[2]) == len(table["variants"])
            and match[3] in passing)


def check_report(key: str, first_pass: bool, report: dict,
                 known: dict) -> Tuple[str, int]:
    """A computed job's run report against the known answers.

    Returns ``(error, states)``: an empty error when every count matches,
    and the states the job itself verified (variants it took from the
    store count none).
    """
    base = key.split("@")[0]
    if base not in catalog.SERVE_SPACES:
        states = report["run"]["statistics"]["states_stored"]
        want = known["serve"][base]["states"]
        return ("" if states == want
                else f"{states} states, known answer {want}"), states
    table = {name: (verdict, states) for name, verdict, states in
             known["explore"][catalog.SERVE_SPACES[base]]["cold"]["variants"]}
    ran = [r for r in report["results"] if r["verdict"] != "SKIPPED"]
    for r in ran:
        if table.get(r["variant"]) != (r["verdict"], r["states"]):
            return (f"variant {r['variant']}: {r['verdict']} with "
                    f"{r['states']} states, known answer "
                    f"{table.get(r['variant'])}"), 0
    if len(report["results"]) != len(table) or (
            not first_pass and len(ran) != len(table)):
        return f"{len(ran)} of {len(table)} variants ran", 0
    return "", sum(r["states"] for r in ran if not r["cached"])


class Traffic:
    """One pass of the stream against one daemon."""

    def __init__(self, url: str, items, known: dict) -> None:
        self.url = url
        self.items = items
        self.known = known
        self.next = 0
        self.lock = threading.Lock()
        self.results: List[Dict[str, Any]] = []
        self.errors: List[str] = []
        self.failed = 0
        self.recomputed = 0
        self.client_seconds = 0.0

    def _take(self):
        with self.lock:
            if self.next >= len(self.items):
                return None
            self.next += 1
            return self.items[self.next - 1]

    def _client(self) -> None:
        connection = Connection(self.url, JOB_TIMEOUT)
        try:
            self._loop(connection)
        finally:
            connection.close()

    def _loop(self, connection: Connection) -> None:
        while True:
            t0 = time.monotonic()
            item = self._take()
            if item is None:
                return
            busy = 0.0
            for key, spec, incremental in item:
                start = time.monotonic()
                try:
                    view = connection.submit(spec)
                except Exception as exc:  # HTTP errors, timeouts
                    view = {"error": repr(exc)}
                end = time.monotonic()
                busy += end - start
                self._check(key, spec, incremental, view, start, end)
            with self.lock:
                self.client_seconds += (time.monotonic() - t0) - busy

    def _fail(self, message: str) -> None:
        with self.lock:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(message)

    def _check(self, key, spec, incremental, view, start, end) -> None:
        expected = self.known["serve"][key]
        base = key.split("@")[0]
        got = {k: view.get(k) for k in ("verdict", "exit_code", "detail")}
        ok = view.get("status") == "done"
        first_pass = bool(spec["options"].get("first_pass"))
        if first_pass:
            space = self.known["explore"][catalog.SERVE_SPACES[base]]
            ok = (ok and got["verdict"] == expected["verdict"]
                  and got["exit_code"] == expected["exit_code"]
                  and first_pass_ok(got["detail"], space["cold"]))
        else:
            ok = ok and got == {k: expected[k] for k in got}
        if not ok:
            self._fail(f"{key}: got {view}, known answer {expected}")
            return
        with self.lock:
            if incremental and got["detail"] != expected["detail"]:
                self.recomputed += 1
            self.results.append({"key": key, "view": view,
                                 "incremental": incremental,
                                 "first_pass": first_pass,
                                 "start": start, "end": end, "states": 0})

    def run(self) -> float:
        threads = [threading.Thread(target=self._client, daemon=True)
                   for _ in range(CLIENTS)]
        t0 = time.monotonic()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return time.monotonic() - t0

    def check_reports(self) -> None:
        """Fetch the run report of every job that computed and check its
        state counts; outside the timed traffic."""
        client = ServeClient(self.url)
        for result in list(self.results):
            if classify(result) not in ("cold", "incr"):
                continue
            report = client.report(result["view"]["job_id"])
            error, result["states"] = check_report(
                result["key"], result["first_pass"], report, self.known)
            if error:
                self.results.remove(result)
                self._fail(f"{result['key']}: {error}")

    @property
    def attempted(self) -> int:
        return sum(len(item) for item in self.items)


def classify(result: Dict[str, Any]) -> Optional[str]:
    view = result["view"]
    if view.get("cached"):
        return "warm"
    if view.get("coalesced_with"):
        return None
    return "incr" if result["incremental"] else "cold"


class Served:
    """One run of the ``serve`` workload."""

    def __init__(self, seed: int, scratch: Scratch) -> None:
        self.seed = seed
        self.scratch = scratch
        self.known = load_known_answers()
        self.tally = Tally()
        self.setup_times: List[float] = []

    def _fail(self, message: str) -> None:
        self.tally.fail("serve", message)

    def _stop(self, daemon: Daemon) -> None:
        code = daemon.stop()
        if code != 0:
            self._fail(f"daemon exited {code}: {daemon.child.output()}")

    def _pass(self, items, spans: Optional[str] = None):
        """Start a daemon, send the stream, drain; returns the pieces."""
        store = self.scratch.fresh("store")
        daemon = Daemon(store, spans)
        self.setup_times.append(daemon.setup_seconds)
        try:
            traffic = Traffic(daemon.url, items, self.known)
            wall = traffic.run()
            traffic.check_reports()
            stats = ServeClient(daemon.url).stats()["counters"]
        finally:
            self._stop(daemon)
        self.tally.attempted += traffic.attempted
        self.tally.failed += traffic.failed
        self.tally.errors += traffic.errors
        self._check_counters(traffic, stats)
        self._note(store, traffic, daemon.watch)
        return traffic, wall, stats

    def _note(self, store: str, traffic: Traffic, watch: HangWatch) -> None:
        quarantined = glob.glob(os.path.join(store, "*.quarantined-*[0-9]"))
        if quarantined or traffic.recomputed:
            self.tally.notes.append(
                f"store quarantined {len(quarantined)} time(s); "
                f"{traffic.recomputed} incremental job(s) did not find "
                "the exhaustive job's variants in the store")
        if watch.kills:
            # Each hung job is a failed op (its answer is still checked).
            self.tally.failed += watch.kills
            self.tally.notes.append(
                f"{watch.kills} sandbox(es) hung and were killed; the "
                "daemon retried their jobs")
        self.tally.notes.append(f"longest lock wait of a working sandbox "
                                f"{watch.longest_wait:.2f}s")

    def _check_counters(self, traffic: Traffic, stats: dict) -> None:
        distinct = {r["view"]["fingerprint"] for r in traffic.results}
        if (stats["submitted"] != traffic.attempted
                or stats["computed"] != len(distinct)
                or stats["failed"] != 0
                or (stats["computed"] + stats["cache_hits"]
                    + stats["coalesced"]) != stats["submitted"]):
            self._fail(f"daemon counters {stats} do not add up for "
                       f"{traffic.attempted} submissions of "
                       f"{len(distinct)} distinct jobs")

    def run_untraced(self, seconds: float) -> Dict[str, float]:
        for _ in range(SETUP_SAMPLES - 1):
            daemon = Daemon(self.scratch.fresh("store"))
            self.setup_times.append(daemon.setup_seconds)
            self._stop(daemon)
        traffic, wall, _ = self._pass(build_stream(self.seed, seconds))
        log = OpLog()
        for result in traffic.results:
            cls = classify(result)
            if cls is not None:
                log.add(result["key"], cls, result["start"], result["end"],
                        result["states"])
        log.wall = wall
        log.completed = len(traffic.results)
        return log.end_to_end()

    def run_traced(self, seconds: float) -> Dict[str, float]:
        """Four passes over one stream, untraced and traced in ABBA order
        (so a steady drift cancels out of ``trace_overhead``)."""
        items = build_stream(self.seed, seconds / 4)
        walls = {False: 0.0, True: 0.0}
        counters, per_pass = [], []
        for traced in (False, True, True, False):
            spans_path = None
            if traced:
                spans_path = os.path.join(self.scratch.fresh("spans"),
                                          "spans.json")
            traffic, wall, stats = self._pass(items, spans_path)
            walls[traced] += wall
            counters.append((stats["submitted"], stats["computed"]))
            if traced:
                with open(spans_path, encoding="utf-8") as fh:
                    per_pass.append(self._layers(json.load(fh), traffic,
                                                 stats))
        if len(set(counters)) != 1:
            self._fail(f"(submitted, computed) differ between passes of "
                       f"one stream: {counters}")
        counts = [trace.count_vector(m, trace.ARRIVAL_DEPENDENT)
                  for m in per_pass]
        if counts[0] != counts[1]:
            self._fail(f"per-layer counts differ between traced passes: "
                       f"{counts}")
        out = {name: sum(m[name] for m in per_pass) / len(per_pass)
               for name in trace.PER_LAYER}
        out["trace_overhead"] = walls[True] / walls[False] - 1.0
        return out

    @staticmethod
    def _layers(spans, traffic: Traffic, stats: dict) -> Dict[str, float]:
        """The daemon's split of one traced pass, plus the client side."""
        out = trace.layer_metrics(spans, [])
        in_manager: Dict[str, float] = {}
        for span in spans:
            if span["name"] in ("serve.submit", "serve.wait"):
                job = span["counts"].get("job_id")
                in_manager[job] = (in_manager.get(job, 0.0)
                                   + span["end"] - span["start"])
        out["serve.http_s"] = sum(
            (r["end"] - r["start"]) - in_manager.get(r["view"]["job_id"], 0.0)
            for r in traffic.results)
        out["serve.queue_wait_s"] = sum(
            r["view"]["started_at"] - r["view"]["submitted_at"]
            for r in traffic.results if classify(r) in ("cold", "incr"))
        for name in ("submitted", "computed", "coalesced", "cache_hits"):
            out[f"serve.{name}"] = stats[name]
        out["other_s"] = traffic.client_seconds
        return out
