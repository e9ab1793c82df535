"""Supervised worker pools: timeouts, retries, and crash classification.

``concurrent.futures.ProcessPoolExecutor`` treats one dead worker as a
pool-wide catastrophe: every pending future is poisoned with
``BrokenProcessPool`` and nothing tells you *which* job killed the
worker.  For a verification platform meant to run for hours over
thousands of jobs that is the wrong failure model, so this module
manages one :mod:`multiprocessing` process **per job** instead:

* a dead worker is attributed to exactly the job it was running and
  classified (:data:`CAUSE_WORKER_DIED`, :data:`CAUSE_TIMEOUT`,
  :data:`CAUSE_EXCEPTION`, :data:`CAUSE_UNPICKLABLE`);
* the failed job is retried with exponential backoff and deterministic
  jitter (seeded per job, so two runs back off identically) up to a
  bounded attempt count, while other jobs keep flowing through the
  remaining slots;
* a job that exhausts its retries yields a :class:`JobFailure` outcome
  — the *caller* decides what a failed job means (``explore`` degrades
  it to an ``INCOMPLETE`` verdict) instead of the run aborting;
* a per-job wall-clock ``timeout`` terminates stuck workers;
* a ``stop`` event (set by a signal handler) drains the pool
  gracefully: running workers are terminated, finalized outcomes are
  returned, unfinished jobs are simply absent from the result.

Outcomes are returned in submission order, which is what lets the
exploration scheduler keep its determinism contract (identical event
streams and tables for fault-free serial and parallel runs).

The worker side ignores ``SIGINT`` so a terminal Ctrl-C (delivered to
the whole foreground process group) reaches only the supervisor, which
then shuts workers down deliberately.
"""

from __future__ import annotations

import gc
import multiprocessing
import random
import signal
import time
import traceback
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as _wait_connections
from typing import (
    Any,
    Callable,
    FrozenSet,
    List,
    Optional,
    Sequence,
)

__all__ = [
    "CAUSE_EXCEPTION",
    "CAUSE_TIMEOUT",
    "CAUSE_UNPICKLABLE",
    "CAUSE_WORKER_DIED",
    "JobFailure",
    "JobOutcome",
    "RetryPolicy",
    "SupervisedPool",
]

#: Crash classification: why a job did not produce a result.
CAUSE_WORKER_DIED = "worker-died"
CAUSE_TIMEOUT = "timeout"
CAUSE_EXCEPTION = "checker-exception"
CAUSE_UNPICKLABLE = "unpicklable"

#: How often the supervisor wakes to check timeouts/backoffs/stop (s).
_POLL_SECONDS = 0.05


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and deterministic jitter.

    ``backoff(attempt, seed)`` for attempt 1, 2, ... grows as
    ``base * 2**(attempt-1)`` capped at ``backoff_max``, times a jitter
    factor in ``[1-jitter, 1+jitter]`` drawn from a per-job seeded RNG —
    retries spread out, yet two runs of the same job back off
    identically.  Timeouts are not retried by default: a job that blew
    its wall-clock budget once will almost surely blow it again.

    The policy is cause-agnostic: besides the worker-supervision causes
    here, :mod:`repro.design.sqlcache` reuses it (with its own
    ``CAUSE_DB_LOCKED``) to pace retries on SQLite writer contention,
    so every retry loop in the runtime backs off with one discipline.
    """

    max_retries: int = 1
    backoff_base: float = 0.05
    backoff_max: float = 2.0
    jitter: float = 0.25
    retry_on: FrozenSet[str] = frozenset({CAUSE_WORKER_DIED,
                                          CAUSE_EXCEPTION})

    @property
    def max_attempts(self) -> int:
        return self.max_retries + 1

    def should_retry(self, cause: str, attempts: int) -> bool:
        return cause in self.retry_on and attempts < self.max_attempts

    def backoff(self, attempt: int, seed: str = "") -> float:
        delay = min(self.backoff_base * (2 ** max(0, attempt - 1)),
                    self.backoff_max)
        if self.jitter <= 0:
            return delay
        rng = random.Random(f"{seed}:{attempt}")
        return delay * (1.0 - self.jitter + 2.0 * self.jitter * rng.random())


@dataclass(frozen=True)
class JobFailure:
    """Why a job is finally failed, after supervision gave up."""

    cause: str
    detail: str
    attempts: int

    def describe(self) -> str:
        tries = f"{self.attempts} attempt" + ("s" if self.attempts != 1
                                              else "")
        return f"{self.cause} after {tries}: {self.detail}"


@dataclass
class JobOutcome:
    """Final supervision outcome for one job: a result or a failure."""

    key: Any
    result: Any = None
    failure: Optional[JobFailure] = None
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.failure is None


def _worker_main(task: Callable[[Any], Any], payload: Any, conn) -> None:
    """Run ``task`` in the child; ship the result (or traceback) back."""
    # A forked child inherits the parent's uncollected garbage.  Collecting
    # it here would run finalizers that may wait on locks another parent
    # thread held at fork time and that nobody will ever release; frozen
    # objects are never collected, so the child's first GC pass cannot hang.
    gc.freeze()
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    try:
        result = task(payload)
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        finally:
            conn.close()
        return
    try:
        conn.send(("ok", result))
    finally:
        conn.close()


@dataclass
class _Slot:
    """One supervised job's mutable bookkeeping."""

    order: int
    key: Any
    payload: Any
    attempts: int = 0
    proc: Any = None
    conn: Any = None
    started_at: float = 0.0
    not_before: float = 0.0
    outcome: Optional[JobOutcome] = None


class SupervisedPool:
    """Run jobs in supervised one-process-per-job workers.

    Parameters
    ----------
    workers:
        Maximum concurrently live worker processes.
    timeout:
        Per-job wall-clock limit in seconds (None = unlimited); a job
        past it is terminated and classified :data:`CAUSE_TIMEOUT`.
    retry:
        The :class:`RetryPolicy` for failed jobs.
    context:
        A :mod:`multiprocessing` context or start-method name (default:
        the platform default, ``fork`` on Linux).
    """

    def __init__(self, workers: int, *, timeout: Optional[float] = None,
                 retry: Optional[RetryPolicy] = None,
                 context: Any = None) -> None:
        self.workers = max(1, int(workers))
        self.timeout = timeout
        self.retry = retry if retry is not None else RetryPolicy()
        if isinstance(context, str):
            context = multiprocessing.get_context(context)
        self._ctx = context or multiprocessing.get_context()

    # -- lifecycle of one slot -------------------------------------------

    def _launch(self, task: Callable[[Any], Any], slot: _Slot) -> None:
        recv, send = self._ctx.Pipe(duplex=False)
        slot.proc = self._ctx.Process(
            target=_worker_main, args=(task, slot.payload, send),
            daemon=True)
        slot.proc.start()
        send.close()  # the child's end; parent keeps the receiving half
        slot.conn = recv
        slot.attempts += 1
        slot.started_at = time.monotonic()

    def _reap(self, slot: _Slot) -> None:
        """Close the pipe and join the (already finished) process."""
        if slot.conn is not None:
            slot.conn.close()
            slot.conn = None
        if slot.proc is not None:
            slot.proc.join(timeout=5.0)
            slot.proc = None

    def _terminate(self, slot: _Slot) -> None:
        if slot.proc is not None and slot.proc.is_alive():
            slot.proc.terminate()
            slot.proc.join(timeout=1.0)
            if slot.proc.is_alive():  # pragma: no cover - stubborn child
                slot.proc.kill()
                slot.proc.join(timeout=1.0)
        self._reap(slot)

    # -- the supervision loop --------------------------------------------

    def run(
        self,
        task: Callable[[Any], Any],
        payloads: Sequence[Any],
        *,
        keys: Optional[Sequence[Any]] = None,
        stop: Optional[Any] = None,
        stop_after: Optional[Callable[[JobOutcome], bool]] = None,
        on_retry: Optional[Callable[[Any, str, int, float], None]] = None,
    ) -> List[JobOutcome]:
        """Supervise ``task(payload)`` for every payload.

        Returns :class:`JobOutcome` values **in submission order**.
        ``keys`` (default: the payload index) label outcomes and seed
        the retry jitter.  ``stop`` is an optional event-like object
        (``is_set()``); once set, running workers are terminated and
        only already-finalized outcomes are returned.  ``stop_after``
        is evaluated on finalized outcomes *in submission order*; the
        first True cancels everything behind it and truncates the
        result to that prefix (the scheduler's first-pass policy).
        ``on_retry(key, cause, attempt, delay)`` observes each retry.
        """
        keys = list(keys) if keys is not None else list(range(len(payloads)))
        slots = [_Slot(order=i, key=key, payload=payload)
                 for i, (key, payload) in enumerate(zip(keys, payloads))]
        pending: deque[_Slot] = deque(slots)
        running: List[_Slot] = []
        emitted = 0  # submission-order prefix already checked by stop_after
        truncate_at: Optional[int] = None

        def fail_or_retry(slot: _Slot, cause: str, detail: str) -> None:
            if self.retry.should_retry(cause, slot.attempts):
                delay = self.retry.backoff(slot.attempts, seed=str(slot.key))
                slot.not_before = time.monotonic() + delay
                if on_retry is not None:
                    on_retry(slot.key, cause, slot.attempts, delay)
                pending.append(slot)
            else:
                slot.outcome = JobOutcome(
                    key=slot.key,
                    failure=JobFailure(cause=cause, detail=detail,
                                       attempts=slot.attempts),
                    attempts=slot.attempts)

        try:
            while pending or running:
                if stop is not None and stop.is_set():
                    break
                now = time.monotonic()

                # Fill free slots with jobs whose backoff has elapsed.
                if pending and len(running) < self.workers:
                    waiting = len(pending)
                    while waiting and len(running) < self.workers:
                        slot = pending.popleft()
                        waiting -= 1
                        if slot.not_before > now:
                            pending.append(slot)  # still backing off
                            continue
                        self._launch(task, slot)
                        running.append(slot)

                if not running:
                    # Everything left is backing off; sleep to the first.
                    wake = min(s.not_before for s in pending)
                    time.sleep(max(0.0, min(wake - now, _POLL_SECONDS)))
                    continue

                ready = _wait_connections([s.conn for s in running],
                                          timeout=_POLL_SECONDS)
                now = time.monotonic()
                for slot in list(running):
                    finalized_here = False
                    if slot.conn in ready or slot.conn.poll():
                        try:
                            status, value = slot.conn.recv()
                        except (EOFError, OSError):
                            # Pipe EOF can arrive before the exit status
                            # is reapable; join first so the code is real.
                            slot.proc.join(timeout=5.0)
                            exitcode = slot.proc.exitcode
                            self._reap(slot)
                            fail_or_retry(
                                slot, CAUSE_WORKER_DIED,
                                "worker closed its pipe without a result "
                                f"(exit code {exitcode})")
                        else:
                            self._reap(slot)
                            if status == "ok":
                                slot.outcome = JobOutcome(
                                    key=slot.key, result=value,
                                    attempts=slot.attempts)
                            else:
                                fail_or_retry(slot, CAUSE_EXCEPTION,
                                              str(value))
                        finalized_here = True
                    elif slot.proc.exitcode is not None:
                        exitcode = slot.proc.exitcode
                        self._reap(slot)
                        fail_or_retry(
                            slot, CAUSE_WORKER_DIED,
                            f"worker exited with code {exitcode} before "
                            "reporting a result")
                        finalized_here = True
                    elif (self.timeout is not None
                          and now - slot.started_at > self.timeout):
                        self._terminate(slot)
                        fail_or_retry(
                            slot, CAUSE_TIMEOUT,
                            f"job exceeded its {self.timeout:g}s wall-clock "
                            "timeout and was terminated")
                        finalized_here = True
                    if finalized_here:
                        running.remove(slot)

                # Evaluate the first-pass predicate on the finalized
                # submission-order prefix.
                if stop_after is not None:
                    while (emitted < len(slots)
                           and slots[emitted].outcome is not None):
                        if stop_after(slots[emitted].outcome):
                            truncate_at = emitted + 1
                            break
                        emitted += 1
                    if truncate_at is not None:
                        break
        finally:
            for slot in running:
                self._terminate(slot)

        if truncate_at is not None:
            # First-pass: everything up to the trigger is finalized by
            # construction; jobs behind it are dropped, matching the
            # serial loop's break-after-PASS semantics.
            return [s.outcome for s in slots[:truncate_at]]
        return [s.outcome for s in slots if s.outcome is not None]
