"""The service scheduler: coalescing, caching, supervision, recovery.

:class:`JobManager` is the daemon's brain, deliberately HTTP-free so it
tests without sockets.  It owns:

* **the shared verdict store** — the sqlite/WAL
  :class:`~repro.design.sqlcache.SqliteResultCache` every computed record
  lands in, keyed by the job's ``repro.serve-job/1`` fingerprint.  A
  submission whose fingerprint is already stored is answered
  immediately (*warm hit*).  sqlite connections are bound to their
  creating thread, so the manager keeps one handle per thread
  (``threading.local``) over the same WAL directory;
* **the spec memo** — a bounded LRU map from each canonical spec it has
  seen to the ``(kind, spec, fingerprint, command)`` that
  :func:`~repro.serve.jobs.build_job` returned for it, so a repeat is
  validated but not elaborated or fingerprinted again.  A fingerprint
  is a pure function of the canonical spec and the code the daemon
  runs, so the memo never goes stale.  Lookup and a miss's build run
  under one lock: identical new specs arriving together elaborate once;
* **cross-request coalescing** — one ``fingerprint -> primary job``
  map.  A submission identical to an in-flight job *attaches* to it
  instead of spawning a duplicate computation; when the primary
  finishes, every attached job resolves with the same record;
* **the worker pool** — N threads pulling queued jobs.  In supervised
  mode (the default) each job runs in a sandbox process under
  :class:`~repro.design.supervise.SupervisedPool`, so a segfaulting or
  hung checker is classified and retried per
  :class:`~repro.design.supervise.RetryPolicy` instead of taking the
  daemon down.  Sandboxes fork from a ``forkserver`` — a
  single-threaded process started with the first computed job, with
  the job modules preloaded — never from the threaded daemon, whose
  other threads may hold a lock (SQLite's mutex inside
  ``sqlite3.connect``, say) that a forked child would inherit locked
  and wait on forever.  They see the daemon's environment as of that
  first job.  Inline mode (``supervised=False``) runs jobs on the
  worker thread itself — faster to start, used by tests;
* **the journal** — every job persists ``job.json`` atomically on each
  state change under ``<state_dir>/jobs/<id>/``, next to its
  ``events.jsonl`` stream.  A manager opened on an existing state
  directory re-enqueues every non-terminal job (journal-for-resume:
  the drain path leaves unstarted jobs queued on disk).

The ``serve.run`` failpoint fires in the compute path (the worker
child in supervised mode, the worker thread inline), so chaos tests
can hold a job mid-flight (``REPRO_FAILPOINTS=serve.run=sleep:2``) to
pin the coalescing window, or kill a supervised worker to exercise
crash attribution end-to-end over HTTP.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import queue
import sys
import threading
import time
import uuid
from collections import OrderedDict
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from ..design import failpoints
from ..design.sqlcache import open_cache, unmigrated_journal
from ..design.supervise import CAUSE_EXCEPTION, RetryPolicy, SupervisedPool
from ..obs import events as obs_events
from ..obs.reporters import DEFAULT_INTERVAL, JsonlReporter
from .jobs import build_job, canonical_spec, run_job

__all__ = [
    "JobManager",
    "ServeError",
    "DrainingError",
    "STATUS_QUEUED",
    "STATUS_RUNNING",
    "STATUS_DONE",
    "STATUS_FAILED",
    "TERMINAL_STATUSES",
]

STATUS_QUEUED = "queued"
STATUS_RUNNING = "running"
STATUS_DONE = "done"
STATUS_FAILED = "failed"
TERMINAL_STATUSES = frozenset({STATUS_DONE, STATUS_FAILED})

#: Keys the verdict store stamps onto stored records; stripped before a
#: cached record is served so warm and computed responses are identical.
_CACHE_STAMPS = ("schema", "fingerprint", "crc")

#: Canonical specs whose build the manager remembers (least recently
#: used first out); about a kilobyte each.
SPEC_MEMO_SIZE = 1024

#: Imported once in the forkserver, so a sandbox starts with the job
#: code loaded: this module (and with it ``repro.serve.jobs``) and the
#: systems ``jobs`` imports lazily.  Not ``repro.cli``: every child
#: re-runs the daemon's ``__main__`` (``python -m repro.cli``), and
#: runpy warns when that module is already imported.
_SANDBOX_PRELOAD = [
    "repro.serve.manager",
    "repro.systems.abp",
    "repro.systems.bridge",
    "repro.systems.gas_station",
    "repro.systems.producer_consumer",
]


#: The process that imported this module.  A sandbox forked from a
#: forkserver that preloaded it sees the forkserver's pid here; its own
#: pid means the preload failed and the sandbox imported repro itself.
_IMPORTED_IN = os.getpid()

#: Printed once per manager when a sandbox reports a failed preload.
_PRELOAD_WARNING = (
    "repro serve: the sandbox forkserver could not import repro, so "
    "every sandbox imports it again (about 0.15 s per job); put {src} on "
    "PYTHONPATH or install the package\n")


class ServeError(RuntimeError):
    """The service cannot run as configured (an unmigrated cache, ...)."""


class DrainingError(ServeError):
    """A submission arrived after drain began (HTTP 503)."""


def _serve_job_task(payload: bytes) -> Tuple[Dict[str, Any], bool]:
    """Supervised-worker entry point: run one service job in a sandbox.

    The child appends its engine events *live* to the job's
    ``events.jsonl`` (per-event flush), which is what the daemon's
    streaming endpoint tails — a client watches verification progress
    while the state space is still being explored.  Returns the record
    and whether this sandbox started with repro preloaded.
    """
    spec, events_path, cache_dir, interval = pickle.loads(payload)
    failpoints.hit("serve.run", token=spec.get("system") or spec.get("space"))
    reporter = JsonlReporter(events_path, interval=interval)
    try:
        record = run_job(spec, reporter=reporter, cache_dir=cache_dir)
    finally:
        reporter.close()
    return record, _IMPORTED_IN != os.getpid()


def _sandbox_context():
    """The multiprocessing context sandboxes start from."""
    if "forkserver" not in multiprocessing.get_all_start_methods():
        return None  # non-POSIX host: the platform default
    context = multiprocessing.get_context("forkserver")
    context.set_forkserver_preload(_SANDBOX_PRELOAD)
    return context


class _Built(NamedTuple):
    """What a job needs of :func:`build_job` (memoized per spec)."""

    kind: str
    spec: Dict[str, Any]
    fingerprint: str
    command: str


class _Job:
    """In-memory state of one submission (views are plain dicts)."""

    __slots__ = ("id", "kind", "spec", "fingerprint", "command", "status",
                 "submitted_at", "started_at", "finished_at", "cached",
                 "coalesced_with", "attached", "record", "error", "done")

    def __init__(self, job_id: str, kind: str, spec: Dict[str, Any],
                 fingerprint: str, command: str, submitted_at: float) -> None:
        self.id = job_id
        self.kind = kind
        self.spec = spec
        self.fingerprint = fingerprint
        self.command = command
        self.status = STATUS_QUEUED
        self.submitted_at = submitted_at
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.cached = False
        self.coalesced_with: Optional[str] = None
        self.attached: List[str] = []
        self.record: Optional[Dict[str, Any]] = None
        self.error: Optional[str] = None
        self.done = threading.Event()


class JobManager:
    """Schedules service jobs over a shared verdict store.

    ``cache_dir`` holds the sqlite/WAL verdict store (created when
    absent).  A directory with an unmigrated JSONL journal is refused
    with a pointer at ``repro cache migrate``, by the rule
    :func:`~repro.design.sqlcache.open_cache` applies.  Service state
    (job journal + event streams) lives under ``<cache_dir>/serve``
    unless ``state_dir`` says otherwise.
    """

    def __init__(self, cache_dir: str, *, state_dir: Optional[str] = None,
                 workers: int = 2, supervised: bool = True,
                 retry: Optional[RetryPolicy] = None,
                 job_timeout: Optional[float] = None,
                 interval: int = DEFAULT_INTERVAL) -> None:
        self._cache_dir = str(cache_dir)
        refusal = unmigrated_journal(self._cache_dir)
        if refusal is not None:
            raise ServeError(refusal)
        os.makedirs(self._cache_dir, exist_ok=True)
        self.state_dir = state_dir or os.path.join(self._cache_dir, "serve")
        self._jobs_dir = os.path.join(self.state_dir, "jobs")
        os.makedirs(self._jobs_dir, exist_ok=True)
        self.workers = max(1, int(workers))
        self.supervised = supervised
        self.retry = retry if retry is not None else RetryPolicy()
        self.job_timeout = job_timeout
        self.interval = interval

        self._lock = threading.Lock()
        self._build_lock = threading.Lock()
        self._memo: "OrderedDict[str, _Built]" = OrderedDict()
        self._context = _sandbox_context() if supervised else None
        self._tls = threading.local()
        self._jobs: Dict[str, _Job] = {}
        self._inflight: Dict[str, str] = {}  # fingerprint -> primary job id
        self._queue: "queue.Queue[Optional[str]]" = queue.Queue()
        self._draining = False
        self._stop_starting = threading.Event()
        self._skipped_on_drain: List[str] = []
        self._preload_warned = False
        self.counters: Dict[str, int] = {
            "submitted": 0, "cache_hits": 0, "coalesced": 0,
            "computed": 0, "failed": 0, "recovered": 0,
        }

        self._recover()
        self._threads = [
            threading.Thread(target=self._worker_loop, daemon=True,
                             name=f"serve-worker-{i}")
            for i in range(self.workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- cache handles ----------------------------------------------------

    def _cache(self):
        """This thread's handle on the shared sqlite/WAL store."""
        cache = getattr(self._tls, "cache", None)
        if cache is None:
            cache = open_cache(self._cache_dir)
            self._tls.cache = cache
        return cache

    # -- the spec memo ----------------------------------------------------

    def _build(self, spec: Any) -> _Built:
        """What a job needs of ``build_job(spec)``, built once per spec.

        Validation runs every time (a bad spec raises
        :class:`~repro.serve.jobs.JobSpecError` on each submission); only
        a canonical spec not in the memo is elaborated and fingerprinted.
        """
        key = json.dumps(canonical_spec(spec), sort_keys=True)
        with self._build_lock:
            built = self._memo.get(key)
            if built is None:
                job = build_job(spec)
                built = _Built(job.kind, job.spec, job.fingerprint,
                               job.command)
                self._memo[key] = built
                if len(self._memo) > SPEC_MEMO_SIZE:
                    self._memo.popitem(last=False)
            else:
                self._memo.move_to_end(key)
            return built

    # -- submission (HTTP handler threads) --------------------------------

    def submit(self, spec: Any) -> Dict[str, Any]:
        """Accept one job submission; returns its view immediately.

        Resolution order: warm cache hit (terminal at once), coalesce
        onto an identical in-flight job, or enqueue a new computation.
        Raises :class:`~repro.serve.jobs.JobSpecError` on a bad spec
        and :class:`DrainingError` once drain has begun.
        """
        if self._draining:
            raise DrainingError("the service is draining; "
                                "no new submissions accepted")
        built = self._build(spec)
        now = time.time()
        record = self._cache().get(built.fingerprint)
        with self._lock:
            if self._draining:
                raise DrainingError("the service is draining; "
                                    "no new submissions accepted")
            self.counters["submitted"] += 1
            job = _Job(self._new_id(), built.kind, built.spec,
                       built.fingerprint, built.command, now)
            self._jobs[job.id] = job

            if record is not None:
                clean = dict(record)
                for key in _CACHE_STAMPS:
                    clean.pop(key, None)
                job.record = clean
                job.cached = True
                job.status = STATUS_DONE
                job.started_at = job.finished_at = now
                self.counters["cache_hits"] += 1
                self._append_event(job, obs_events.job_queued(
                    job.id, kind=job.kind, fingerprint=job.fingerprint,
                    cached=True))
                self._append_event(job, obs_events.job_finished(
                    job.id, verdict=clean.get("verdict", "ERROR"),
                    seconds=0.0, cached=True,
                    exit_code=clean.get("exit_code", 3)))
                self._persist(job)
                job.done.set()
                return self._view(job)

            primary_id = self._inflight.get(built.fingerprint)
            if primary_id is not None:
                primary = self._jobs[primary_id]
                job.coalesced_with = primary_id
                job.status = primary.status
                primary.attached.append(job.id)
                self.counters["coalesced"] += 1
                self._append_event(job, obs_events.job_queued(
                    job.id, kind=job.kind, fingerprint=job.fingerprint,
                    coalesced=True))
                self._persist(job)
                return self._view(job)

            self._inflight[built.fingerprint] = job.id
            self._append_event(job, obs_events.job_queued(
                job.id, kind=job.kind, fingerprint=job.fingerprint))
            self._persist(job)
            self._queue.put(job.id)
            return self._view(job)

    def job(self, job_id: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            job = self._jobs.get(job_id)
            return None if job is None else self._view(job)

    def jobs(self) -> List[Dict[str, Any]]:
        with self._lock:
            ordered = sorted(self._jobs.values(),
                             key=lambda j: (j.submitted_at, j.id))
            return [self._view(j) for j in ordered]

    def wait(self, job_id: str,
             timeout: Optional[float] = None) -> Optional[Dict[str, Any]]:
        """Block until the job is terminal (or ``timeout``); its view."""
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            return None
        job.done.wait(timeout)
        with self._lock:
            return self._view(job)

    def report(self, job_id: str) -> Optional[Dict[str, Any]]:
        """The job's full run-report payload, once it is done."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.record is None:
                return None
            return job.record.get("report")

    def events_path(self, job_id: str) -> Optional[str]:
        """Path of the job's NDJSON event stream (its own, always)."""
        with self._lock:
            if job_id not in self._jobs:
                return None
        return os.path.join(self._jobs_dir, job_id, "events.jsonl")

    def is_terminal(self, job_id: str) -> bool:
        with self._lock:
            job = self._jobs.get(job_id)
            return job is not None and job.status in TERMINAL_STATUSES

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            by_status: Dict[str, int] = {}
            for job in self._jobs.values():
                by_status[job.status] = by_status.get(job.status, 0) + 1
            counters = dict(self.counters)
            inflight = len(self._inflight)
            draining = self._draining
        cache_stats = self._cache().stats()
        return {
            "counters": counters,
            "jobs": by_status,
            "inflight": inflight,
            "draining": draining,
            "workers": self.workers,
            "supervised": self.supervised,
            "cache": {
                "backend": cache_stats.get("backend"),
                "records": cache_stats.get("records"),
                "results_bytes": cache_stats.get("results_bytes"),
            },
        }

    # -- drain / shutdown -------------------------------------------------

    def drain(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        """Stop accepting work; wait for in-flight jobs to finish.

        Jobs still running (or queued) when ``timeout`` expires are
        journaled for resume: workers stop starting queued jobs, their
        ``job.json`` stays non-terminal on disk, and the next manager
        on this state directory re-enqueues them.  Returns a summary;
        ``drained`` is True only if nothing was left behind.
        """
        with self._lock:
            self._draining = True
            active = [j for j in self._jobs.values()
                      if j.status not in TERMINAL_STATUSES]
            running = sum(1 for j in active if j.status == STATUS_RUNNING)
            self._append_server_event(obs_events.server_drain(
                running=running, queued=len(active) - running))
        deadline = None if timeout is None else time.monotonic() + timeout
        for job in active:
            remaining = None
            if deadline is not None:
                remaining = max(0.0, deadline - time.monotonic())
            job.done.wait(remaining)
        self._stop_starting.set()
        with self._lock:
            leftover = sorted(j.id for j in active
                              if j.status not in TERMINAL_STATUSES)
        return {
            "drained": not leftover,
            "finished": len(active) - len(leftover),
            "leftover": leftover,
        }

    def close(self) -> None:
        """Stop the worker threads (does not wait for queued jobs)."""
        self._stop_starting.set()
        for _ in self._threads:
            self._queue.put(None)
        for thread in self._threads:
            thread.join(timeout=5.0)

    # -- worker side ------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            job_id = self._queue.get()
            if job_id is None:
                return
            if self._stop_starting.is_set():
                # Journal-for-resume: the job's queued job.json stays on
                # disk; the next manager on this state dir re-enqueues.
                with self._lock:
                    self._skipped_on_drain.append(job_id)
                continue
            try:
                self._execute(job_id)
            except Exception as exc:  # defensive: a worker never dies
                self._finalize(job_id, error=f"internal error: {exc!r}",
                               seconds=0.0)

    def _execute(self, job_id: str) -> None:
        with self._lock:
            job = self._jobs[job_id]
            now = time.time()
            job.status = STATUS_RUNNING
            job.started_at = now
            for aid in job.attached:
                attached = self._jobs[aid]
                attached.status = STATUS_RUNNING
                attached.started_at = now
                self._persist(attached)
            self._append_event(job, obs_events.job_started(
                job.id, kind=job.kind, fingerprint=job.fingerprint))
            self._persist(job)
        events_path = os.path.join(self._jobs_dir, job.id, "events.jsonl")
        t0 = time.monotonic()
        record: Optional[Dict[str, Any]] = None
        error: Optional[str] = None
        if self.supervised:
            payload = pickle.dumps((job.spec, events_path, self._cache_dir,
                                    self.interval))
            pool = SupervisedPool(1, timeout=self.job_timeout,
                                  retry=self.retry, context=self._context)
            outcomes = pool.run(_serve_job_task, [payload], keys=[job.id])
            outcome = outcomes[0] if outcomes else None
            if outcome is not None and outcome.ok:
                record, preloaded = outcome.result
                if not preloaded:
                    self._warn_preload()
            elif outcome is not None:
                error = outcome.failure.describe()
            else:  # pragma: no cover - stop never set here
                error = "supervision returned no outcome"
        else:
            record, error = self._run_inline(job, events_path)
        seconds = time.monotonic() - t0
        if record is not None:
            self._cache().put(job.fingerprint, dict(record))
        self._finalize(job_id, record=record, error=error, seconds=seconds)

    def _warn_preload(self) -> None:
        """Say once that sandboxes start without repro preloaded.

        On Python up to 3.13 the forkserver ignores the ``sys.path`` it
        is handed and swallows the preload's ``ImportError``, so a daemon
        that put repro on ``sys.path`` only at run time gets sandboxes
        that each import it again.
        """
        with self._lock:
            if self._preload_warned:
                return
            self._preload_warned = True
        src = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        sys.stderr.write(_PRELOAD_WARNING.format(src=src))
        sys.stderr.flush()

    def _run_inline(self, job: _Job, events_path: str):
        """Run the job on this worker thread, with exception retries.

        Inline mode trades the sandbox for speed: ``serve.run=raise``
        failpoints and checker exceptions are still retried per the
        policy, but a ``kill`` failpoint would take the daemon with it
        — chaos kill tests require supervised mode.
        """
        attempt = 0
        while True:
            attempt += 1
            try:
                failpoints.hit("serve.run",
                               token=job.spec.get("system")
                               or job.spec.get("space"))
                reporter = JsonlReporter(events_path, interval=self.interval)
                try:
                    return run_job(job.spec, reporter=reporter,
                                   cache_dir=self._cache_dir), None
                finally:
                    reporter.close()
            except Exception as exc:
                if self.retry.should_retry(CAUSE_EXCEPTION, attempt):
                    time.sleep(self.retry.backoff(attempt, seed=job.id))
                    continue
                return None, (f"{CAUSE_EXCEPTION} after {attempt} "
                              f"attempt{'s' if attempt != 1 else ''}: {exc}")

    def _finalize(self, job_id: str, *, record: Optional[Dict[str, Any]]
                  = None, error: Optional[str] = None,
                  seconds: float = 0.0) -> None:
        with self._lock:
            job = self._jobs[job_id]
            now = time.time()
            job.finished_at = now
            job.record = record
            job.error = error
            job.status = STATUS_DONE if record is not None else STATUS_FAILED
            if record is not None:
                self.counters["computed"] += 1
            else:
                self.counters["failed"] += 1
            verdict = (record.get("verdict", "ERROR") if record is not None
                       else "ERROR")
            exit_code = (record.get("exit_code", 3) if record is not None
                         else 3)
            self._append_event(job, obs_events.job_finished(
                job.id, verdict=verdict, seconds=seconds,
                exit_code=exit_code))
            self._persist(job)
            attached_jobs = [self._jobs[aid] for aid in job.attached]
            for attached in attached_jobs:
                attached.record = record
                attached.error = error
                attached.status = job.status
                attached.finished_at = now
                self._append_event(attached, obs_events.job_finished(
                    attached.id, verdict=verdict, seconds=seconds,
                    coalesced=True, exit_code=exit_code))
                self._persist(attached)
            self._inflight.pop(job.fingerprint, None)
        job.done.set()
        for attached in attached_jobs:
            attached.done.set()

    # -- persistence / recovery -------------------------------------------

    def _new_id(self) -> str:
        return "j" + uuid.uuid4().hex[:12]

    def _job_dir(self, job_id: str) -> str:
        path = os.path.join(self._jobs_dir, job_id)
        os.makedirs(path, exist_ok=True)
        return path

    def _view(self, job: _Job) -> Dict[str, Any]:
        record = job.record
        view: Dict[str, Any] = {
            "job_id": job.id,
            "kind": job.kind,
            "status": job.status,
            "fingerprint": job.fingerprint,
            "spec": job.spec,
            "command": job.command,
            "submitted_at": job.submitted_at,
            "started_at": job.started_at,
            "finished_at": job.finished_at,
            "cached": job.cached,
            "coalesced_with": job.coalesced_with,
            "verdict": None,
            "exit_code": None,
            "detail": None,
            "error": job.error,
        }
        if record is not None:
            view["verdict"] = record.get("verdict")
            view["exit_code"] = record.get("exit_code")
            view["detail"] = record.get("detail")
        elif job.status == STATUS_FAILED:
            view["verdict"] = "ERROR"
            view["exit_code"] = 3
            view["detail"] = job.error
        return view

    def _persist(self, job: _Job) -> None:
        """Atomically journal the job's state (view + record) to disk."""
        state = self._view(job)
        state["record"] = job.record
        path = os.path.join(self._job_dir(job.id), "job.json")
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            # One json.dumps call runs the C encoder; json.dump streams
            # through the pure-Python one, ~3x slower on a full report.
            fh.write(json.dumps(state, sort_keys=True, separators=(",", ":")))
        os.replace(tmp, path)

    def _append_event(self, job: _Job, event) -> None:
        self._append_line(os.path.join(self._job_dir(job.id),
                                       "events.jsonl"), event)

    def _append_server_event(self, event) -> None:
        self._append_line(os.path.join(self.state_dir, "server.jsonl"),
                          event)

    @staticmethod
    def _append_line(path: str, event) -> None:
        # Same line format as JsonlReporter, so a job's stream mixes
        # parent lifecycle events and child engine events seamlessly.
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(event.to_dict(), sort_keys=True,
                                separators=(",", ":")) + "\n")
            fh.flush()

    def _recover(self) -> None:
        """Reload journaled jobs; re-enqueue every non-terminal one.

        Terminal jobs come back queryable (status/report endpoints
        survive a restart); queued/running jobs are resubmitted through
        the normal path, so duplicates re-coalesce and warm verdicts
        (a job that finished between crash and restart) hit the cache.
        """
        try:
            entries = sorted(os.listdir(self._jobs_dir))
        except OSError:
            return
        pending: List[Dict[str, Any]] = []
        for name in entries:
            path = os.path.join(self._jobs_dir, name, "job.json")
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    state = json.load(fh)
            except (OSError, ValueError):
                continue
            job_id = state.get("job_id") or name
            job = _Job(job_id, state.get("kind", "verify"),
                       state.get("spec") or {},
                       state.get("fingerprint", ""),
                       state.get("command", ""),
                       state.get("submitted_at") or 0.0)
            job.started_at = state.get("started_at")
            job.finished_at = state.get("finished_at")
            job.cached = bool(state.get("cached"))
            job.coalesced_with = state.get("coalesced_with")
            job.record = state.get("record")
            job.error = state.get("error")
            status = state.get("status", STATUS_QUEUED)
            if status in TERMINAL_STATUSES:
                job.status = status
                job.done.set()
                self._jobs[job.id] = job
            else:
                pending.append(state)
        for state in sorted(pending,
                            key=lambda s: s.get("submitted_at") or 0.0):
            job_id = state.get("job_id")
            spec = state.get("spec")
            if not job_id or not isinstance(spec, dict):
                continue
            self._requeue(job_id, spec, state)

    def _requeue(self, job_id: str, spec: Dict[str, Any],
                 state: Dict[str, Any]) -> None:
        """Resubmit one journaled job under its original id."""
        try:
            built = self._build(spec)
        except Exception:
            return
        record = self._cache().get(built.fingerprint)
        job = _Job(job_id, built.kind, built.spec, built.fingerprint,
                   built.command, state.get("submitted_at") or time.time())
        self._jobs[job.id] = job
        self.counters["recovered"] += 1
        if record is not None:
            clean = dict(record)
            for key in _CACHE_STAMPS:
                clean.pop(key, None)
            job.record = clean
            job.cached = True
            job.status = STATUS_DONE
            job.finished_at = time.time()
            self.counters["cache_hits"] += 1
            self._persist(job)
            job.done.set()
            return
        primary_id = self._inflight.get(built.fingerprint)
        if primary_id is not None:
            job.coalesced_with = primary_id
            self._jobs[primary_id].attached.append(job.id)
            self.counters["coalesced"] += 1
            self._persist(job)
            return
        job.status = STATUS_QUEUED
        self._inflight[built.fingerprint] = job.id
        self._persist(job)
        self._queue.put(job.id)
