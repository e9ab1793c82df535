"""Engine events: the vocabulary of the observability layer.

Every checker in :mod:`repro.mc` (and the sweep drivers in
:mod:`repro.core`) can narrate its run as a stream of
:class:`EngineEvent` values — run started, frontier progress every N
expansions, cache phase transitions, a counterexample found, a budget
exhausted, run finished — delivered to any object implementing the
:class:`~repro.obs.reporters.Reporter` protocol.

Design constraints, in order:

1. **Near-zero overhead when nobody listens.**  Checkers accept
   ``reporter=None`` and guard every emission site with a single
   ``is not None`` test; with no reporter attached the hot loops run
   the exact pre-instrumentation path (pinned under 3% by
   ``benchmarks/test_obs_overhead.py``).
2. **Events are plain data.**  ``data`` holds only JSON primitives, so
   every event pickles across the resilience process pool and
   serializes to one JSONL line without a custom encoder.
3. **Determinism.**  Progress ticks fire on expansion *counts*, never
   wall-clock, so two runs of the same bounded workload produce the
   same event sequence (the property the parallel-sweep tests pin).

The per-run bookkeeping (tick counting, cold/warm cache phase
detection) lives in :class:`RunInstrument` so each checker adds only
three or four guarded calls.

A minimal round-trip::

    >>> e = progress("safety-bfs", states_stored=10, states_expanded=8,
    ...              transitions=40, frontier=2, elapsed=0.5)
    >>> e.type, e.data["states_stored"]
    ('progress', 10)
    >>> import json; json.loads(json.dumps(e.to_dict()))["type"]
    'progress'
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us)
    from ..mc.engine import StateGraph
    from ..mc.result import Statistics
    from .reporters import Reporter

__all__ = [
    "EngineEvent",
    "RunInstrument",
    "EVENT_RUN_STARTED",
    "EVENT_COMPILE",
    "EVENT_PROGRESS",
    "EVENT_PHASE",
    "EVENT_COUNTEREXAMPLE",
    "EVENT_BUDGET_EXHAUSTED",
    "EVENT_RUN_FINISHED",
    "EVENT_SCENARIO_STARTED",
    "EVENT_SCENARIO_FINISHED",
    "EVENT_SWEEP_STARTED",
    "EVENT_SWEEP_FINISHED",
    "EVENT_VARIANT_STARTED",
    "EVENT_VARIANT_FINISHED",
    "EVENT_EXPLORATION_STARTED",
    "EVENT_EXPLORATION_FINISHED",
    "EVENT_JOB_RETRY",
    "EVENT_JOB_FAILED",
    "EVENT_CHECKPOINT",
    "EVENT_WARNING",
    "EVENT_JOB_QUEUED",
    "EVENT_JOB_STARTED",
    "EVENT_JOB_FINISHED",
    "EVENT_SERVER_DRAIN",
    "PHASE_COLD",
    "PHASE_WARM",
    "budget_exhausted",
    "checkpoint",
    "compile_phase",
    "counterexample",
    "exploration_finished",
    "exploration_started",
    "job_failed",
    "job_finished",
    "job_queued",
    "job_retry",
    "job_started",
    "server_drain",
    "phase",
    "progress",
    "run_finished",
    "run_started",
    "scenario_finished",
    "scenario_started",
    "sweep_finished",
    "sweep_started",
    "variant_finished",
    "variant_started",
    "warning",
]

#: Event taxonomy (see docs/observability.md).
EVENT_RUN_STARTED = "run_started"
EVENT_COMPILE = "compile"
EVENT_PROGRESS = "progress"
EVENT_PHASE = "phase"
EVENT_COUNTEREXAMPLE = "counterexample"
EVENT_BUDGET_EXHAUSTED = "budget_exhausted"
EVENT_RUN_FINISHED = "run_finished"
EVENT_SCENARIO_STARTED = "scenario_started"
EVENT_SCENARIO_FINISHED = "scenario_finished"
EVENT_SWEEP_STARTED = "sweep_started"
EVENT_SWEEP_FINISHED = "sweep_finished"
EVENT_VARIANT_STARTED = "variant_started"
EVENT_VARIANT_FINISHED = "variant_finished"
EVENT_EXPLORATION_STARTED = "exploration_started"
EVENT_EXPLORATION_FINISHED = "exploration_finished"
EVENT_JOB_RETRY = "job_retry"
EVENT_JOB_FAILED = "job_failed"
EVENT_CHECKPOINT = "checkpoint"
EVENT_WARNING = "warning"
EVENT_JOB_QUEUED = "job_queued"
EVENT_JOB_STARTED = "job_started"
EVENT_JOB_FINISHED = "job_finished"
EVENT_SERVER_DRAIN = "server_drain"

#: Cache phases: *cold* = the run is computing new successor lists,
#: *warm* = it is replaying the shared graph's memoized relation.
PHASE_COLD = "cold"
PHASE_WARM = "warm"


@dataclass(frozen=True)
class EngineEvent:
    """One observation from a verification run.

    ``type`` is one of the ``EVENT_*`` constants; ``checker`` names the
    emitting algorithm (``"safety-bfs"``, ``"safety-por"``, ``"ndfs"``,
    ``"count-states"``, ``"find-state"``, ``"engine-explore"``, or a
    sweep driver); ``scenario`` tags events that belong to one fault
    scenario of a resilience sweep; ``data`` carries the payload as
    JSON primitives only, so every event pickles and serializes as-is.
    """

    type: str
    checker: str = ""
    scenario: Optional[str] = None
    data: Mapping[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready dict (used by the JSONL reporter and reports)."""
        out: Dict[str, Any] = {"type": self.type}
        if self.checker:
            out["checker"] = self.checker
        if self.scenario is not None:
            out["scenario"] = self.scenario
        out.update(self.data)
        return out


# -- constructors ---------------------------------------------------------
#
# Checkers build events through these helpers so the payload keys stay
# consistent across the codebase (and documented in one place).

def run_started(checker: str, *, system: str = "", processes: int = 0,
                cache: str = PHASE_COLD,
                max_states: Optional[int] = None,
                max_seconds: Optional[float] = None) -> EngineEvent:
    """A checker began exploring.  ``cache`` is the graph's start phase."""
    return EngineEvent(EVENT_RUN_STARTED, checker, data={
        "system": system,
        "processes": processes,
        "cache": cache,
        "max_states": max_states,
        "max_seconds": max_seconds,
    })


def compile_phase(checker: str, *, programs_compiled: int,
                  compile_cache_hits: int,
                  compile_seconds: float) -> EngineEvent:
    """The run's interpreter was JIT-compiled (or served from cache).

    Emitted once per compiled interpreter, by the first instrumented
    run that uses it, right before ``run_finished``, from the counters
    the run's :class:`~repro.mc.result.Statistics` carry — so it also
    counts programs compiled mid-run (the plain-mode programs partial
    order reduction uses) and programs read from a program store.
    """
    return EngineEvent(EVENT_COMPILE, checker, data={
        "programs_compiled": programs_compiled,
        "compile_cache_hits": compile_cache_hits,
        "compile_seconds": round(compile_seconds, 6),
    })


def progress(checker: str, *, states_stored: int, states_expanded: int,
             transitions: int, frontier: int, elapsed: float) -> EngineEvent:
    """Periodic frontier progress (every ``reporter.interval`` expansions)."""
    rate = states_stored / elapsed if elapsed > 0 else 0.0
    return EngineEvent(EVENT_PROGRESS, checker, data={
        "states_stored": states_stored,
        "states_expanded": states_expanded,
        "transitions": transitions,
        "frontier": frontier,
        "elapsed": round(elapsed, 6),
        "states_per_second": round(rate, 1),
    })


def phase(checker: str, *, from_phase: str, to_phase: str,
          states_expanded: int) -> EngineEvent:
    """The transition cache switched between cold and warm."""
    return EngineEvent(EVENT_PHASE, checker, data={
        "from": from_phase,
        "to": to_phase,
        "states_expanded": states_expanded,
    })


def counterexample(checker: str, *, kind: str, message: str,
                   trace_length: int) -> EngineEvent:
    """A violation was found (the trace itself travels on the result)."""
    return EngineEvent(EVENT_COUNTEREXAMPLE, checker, data={
        "kind": kind,
        "message": message,
        "trace_length": trace_length,
    })


def budget_exhausted(checker: str, *, budget: str, states_stored: int,
                     elapsed: float) -> EngineEvent:
    """An exploration budget ran out; the run returns a partial result."""
    return EngineEvent(EVENT_BUDGET_EXHAUSTED, checker, data={
        "budget": budget,
        "states_stored": states_stored,
        "elapsed": round(elapsed, 6),
    })


def run_finished(checker: str, *, ok: bool, verdict: str, states_stored: int,
                 transitions: int, elapsed: float,
                 incomplete: bool = False) -> EngineEvent:
    """The checker returned.  ``verdict`` is PASS / FAIL / INCOMPLETE."""
    return EngineEvent(EVENT_RUN_FINISHED, checker, data={
        "ok": ok,
        "verdict": verdict,
        "states_stored": states_stored,
        "transitions": transitions,
        "elapsed": round(elapsed, 6),
        "incomplete": incomplete,
    })


def scenario_started(name: str, *, faults: str,
                     index: int, total: int) -> EngineEvent:
    return EngineEvent(EVENT_SCENARIO_STARTED, "resilience", scenario=name,
                       data={"faults": faults, "index": index, "total": total})


def scenario_finished(name: str, *, verdict: str, detail: str,
                      states_stored: int, seconds: float) -> EngineEvent:
    return EngineEvent(EVENT_SCENARIO_FINISHED, "resilience", scenario=name,
                       data={"verdict": verdict, "detail": detail,
                             "states_stored": states_stored,
                             "seconds": round(seconds, 6)})


def sweep_started(architecture: str, *, scenarios: int,
                  jobs: int) -> EngineEvent:
    return EngineEvent(EVENT_SWEEP_STARTED, "resilience", data={
        "architecture": architecture, "scenarios": scenarios, "jobs": jobs,
    })


def sweep_finished(architecture: str, *, worst: str, ok: bool,
                   complete: bool) -> EngineEvent:
    return EngineEvent(EVENT_SWEEP_FINISHED, "resilience", data={
        "architecture": architecture, "worst": worst, "ok": ok,
        "complete": complete,
    })


def variant_started(name: str, *, index: int, total: int,
                    cached: bool) -> EngineEvent:
    """A design-space variant's verification began (or was served cached)."""
    return EngineEvent(EVENT_VARIANT_STARTED, "explore", scenario=name,
                       data={"index": index, "total": total,
                             "cached": cached})


def variant_finished(name: str, *, verdict: str, states_stored: int,
                     seconds: float, cached: bool) -> EngineEvent:
    return EngineEvent(EVENT_VARIANT_FINISHED, "explore", scenario=name,
                       data={"verdict": verdict,
                             "states_stored": states_stored,
                             "seconds": round(seconds, 6),
                             "cached": cached})


def exploration_started(space: str, *, variants: int, jobs: int,
                        cached: int, to_run: int) -> EngineEvent:
    return EngineEvent(EVENT_EXPLORATION_STARTED, "explore", data={
        "space": space, "variants": variants, "jobs": jobs,
        "cached": cached, "to_run": to_run,
    })


def exploration_finished(space: str, *, best: Optional[str], complete: bool,
                         cache_hits: int, cache_misses: int) -> EngineEvent:
    return EngineEvent(EVENT_EXPLORATION_FINISHED, "explore", data={
        "space": space, "best": best, "complete": complete,
        "cache_hits": cache_hits, "cache_misses": cache_misses,
    })


def job_retry(name: str, *, cause: str, attempt: int, max_attempts: int,
              backoff: float) -> EngineEvent:
    """A supervised job failed and is being retried after ``backoff``s."""
    return EngineEvent(EVENT_JOB_RETRY, "explore", scenario=name, data={
        "cause": cause, "attempt": attempt, "max_attempts": max_attempts,
        "backoff": round(backoff, 6),
    })


def job_failed(name: str, *, cause: str, attempts: int,
               detail: str) -> EngineEvent:
    """A supervised job exhausted its retries; the variant degrades to
    an INCOMPLETE verdict instead of aborting the run."""
    return EngineEvent(EVENT_JOB_FAILED, "explore", scenario=name, data={
        "cause": cause, "attempts": attempts, "detail": detail,
    })


def checkpoint(run_id: str, *, completed: int, failed: int, pending: int,
               path: str) -> EngineEvent:
    """The run journal absorbed another job outcome (resume point)."""
    return EngineEvent(EVENT_CHECKPOINT, "explore", data={
        "run_id": run_id, "completed": completed, "failed": failed,
        "pending": pending, "path": path,
    })


def warning(source: str, *, message: str) -> EngineEvent:
    """A non-fatal degradation the run wants on the record (e.g. a
    parallel sweep silently falling back to serial is now audible)."""
    return EngineEvent(EVENT_WARNING, source, data={"message": message})


# -- verification-service (repro.serve) lifecycle --------------------------
#
# The daemon narrates every job's lifecycle with these events; they open
# and close the job's NDJSON event stream, bracketing whatever engine
# events the computation itself emits in between.

def job_queued(job_id: str, *, kind: str, fingerprint: str,
               coalesced: bool = False, cached: bool = False) -> EngineEvent:
    """A service job was accepted.  ``coalesced`` marks a submission that
    attached to an identical in-flight computation; ``cached`` one that
    was answered straight from the shared verdict store."""
    return EngineEvent(EVENT_JOB_QUEUED, "serve", scenario=job_id, data={
        "kind": kind, "fingerprint": fingerprint,
        "coalesced": coalesced, "cached": cached,
    })


def job_started(job_id: str, *, kind: str, fingerprint: str) -> EngineEvent:
    """A service job's computation began on a worker."""
    return EngineEvent(EVENT_JOB_STARTED, "serve", scenario=job_id, data={
        "kind": kind, "fingerprint": fingerprint,
    })


def job_finished(job_id: str, *, verdict: str, seconds: float,
                 cached: bool = False, coalesced: bool = False,
                 exit_code: int = 0) -> EngineEvent:
    """A service job reached a terminal state (verdict or failure)."""
    return EngineEvent(EVENT_JOB_FINISHED, "serve", scenario=job_id, data={
        "verdict": verdict, "seconds": round(seconds, 6),
        "cached": cached, "coalesced": coalesced, "exit_code": exit_code,
    })


def server_drain(*, running: int, queued: int) -> EngineEvent:
    """The daemon began a graceful drain (SIGTERM or an admin request)."""
    return EngineEvent(EVENT_SERVER_DRAIN, "serve", data={
        "running": running, "queued": queued,
    })


# -- per-run instrumentation ----------------------------------------------

class RunInstrument:
    """Per-run event bookkeeping shared by all checkers.

    Construction emits :data:`EVENT_RUN_STARTED`; :meth:`tick` counts
    expansions and emits a progress event every ``reporter.interval``
    of them, detecting cold/warm cache phase flips between ticks via
    the shared graph's miss counter.  Checkers only ever construct one
    of these when a reporter is attached, so the no-reporter path pays
    a single ``is not None`` test per emission site.
    """

    __slots__ = ("reporter", "checker", "graph", "interval", "started_at",
                 "_ticks", "_phase", "_last_misses")

    def __init__(self, reporter: "Reporter", checker: str,
                 graph: "StateGraph", *,
                 max_states: Optional[int] = None,
                 max_seconds: Optional[float] = None,
                 started_at: Optional[float] = None) -> None:
        self.reporter = reporter
        self.checker = checker
        self.graph = graph
        self.interval = max(1, int(getattr(reporter, "interval", 1000)))
        self.started_at = (time.perf_counter() if started_at is None
                           else started_at)
        self._ticks = 0
        self._last_misses = graph.cache.misses
        self._phase = PHASE_WARM if graph.n_states_expanded > 0 else PHASE_COLD
        reporter.emit(run_started(
            checker,
            system=graph.system.name,
            processes=len(graph.system.instances),
            cache=self._phase,
            max_states=max_states,
            max_seconds=max_seconds,
        ))

    def elapsed(self) -> float:
        return time.perf_counter() - self.started_at

    def tick(self, states_stored: int, states_expanded: int,
             transitions: int, frontier: int) -> None:
        """Count one expansion; emit progress on every interval-th."""
        self._ticks += 1
        if self._ticks % self.interval:
            return
        misses = self.graph.cache.misses
        now_phase = PHASE_COLD if misses > self._last_misses else PHASE_WARM
        if now_phase != self._phase:
            self.reporter.emit(phase(
                self.checker, from_phase=self._phase, to_phase=now_phase,
                states_expanded=states_expanded,
            ))
            self._phase = now_phase
        self._last_misses = misses
        self.reporter.emit(progress(
            self.checker, states_stored=states_stored,
            states_expanded=states_expanded, transitions=transitions,
            frontier=frontier, elapsed=self.elapsed(),
        ))

    def counterexample(self, *, kind: Optional[str], message: str,
                       trace_length: int) -> None:
        self.reporter.emit(counterexample(
            self.checker, kind=kind or "violation", message=message,
            trace_length=trace_length,
        ))

    def budget(self, marker: str, states_stored: int) -> None:
        self.reporter.emit(budget_exhausted(
            self.checker, budget=marker, states_stored=states_stored,
            elapsed=self.elapsed(),
        ))

    def finish(self, *, ok: bool, stats: "Statistics",
               incomplete: bool = False) -> None:
        # One-shot compile event: the first instrumented run on a
        # compiled interpreter reports its codegen bill, so a report's
        # timeline shows compilation exactly once.
        interp = self.graph.interp
        if (self.graph.compile_stats
                and not getattr(interp, "_compile_reported", False)):
            interp._compile_reported = True
            self.reporter.emit(compile_phase(
                self.checker,
                programs_compiled=stats.programs_compiled,
                compile_cache_hits=stats.compile_cache_hits,
                compile_seconds=stats.compile_seconds,
            ))
        verdict = "FAIL" if not ok else ("INCOMPLETE" if incomplete
                                         else "PASS")
        self.reporter.emit(run_finished(
            self.checker, ok=ok, verdict=verdict,
            states_stored=stats.states_stored,
            transitions=stats.transitions, elapsed=self.elapsed(),
            incomplete=incomplete,
        ))
