"""Parallel, cached, fault-tolerant execution of design-space explorations.

``explore`` drives a :class:`~repro.design.space.DesignSpace` end to
end: enumerate variants, fingerprint each one's verification job
(:mod:`repro.design.fingerprint`), serve what it can from the
content-addressed cache (:mod:`repro.design.sqlcache`), and fan the
remaining jobs out — cheapest-first — over supervised worker processes
(:mod:`repro.design.supervise`) with an optional stop-on-first-pass
policy.

The execution layer tolerates its own failures:

* **Worker supervision** — every pooled job runs in its own supervised
  process with a per-job wall-clock ``job_timeout`` and bounded,
  jittered retries (``retry``).  A worker that dies mid-job is
  classified (worker killed / timeout / checker exception) and, once
  retries are exhausted, degrades *that one variant* to an
  ``INCOMPLETE`` verdict with the cause on the record — the rest of
  the run proceeds on fresh workers instead of aborting.
* **Checkpoint / resume** — when a cache (or explicit ``journal_dir``)
  is present, per-job lifecycle records are appended to a checksummed
  run journal (:mod:`repro.design.journal`).  ``resume=RUN_ID`` serves
  every journaled ``done`` record without re-verifying (and without
  touching the cache) and re-runs only pending or failed fingerprints.
* **Graceful interrupt** — SIGINT/SIGTERM set a stop flag that drains
  the worker pool, stops a serial check at its next stored state (via
  the budget's interrupt marker), journals everything finalized, and
  returns a partial :class:`~repro.design.rank.ExplorationReport` with
  ``interrupted=True`` (the CLI maps it to exit code 2).
* **No silent degradation** — falling back from the process pool to a
  serial run (unpicklable work) emits a ``warning`` engine event and
  lands in ``report.warnings``; retries and failures are narrated by
  ``job_retry`` / ``job_failed`` events and journal appends by
  ``checkpoint`` events.

Determinism contract (pinned by the design tests):

* results are reported in **enumeration order** regardless of
  ``jobs``, caching, or submission order, so serial and parallel
  explorations produce identical ranked output;
* engine events are streamed per variant in a fixed order — cache hits
  and resumed records first (enumeration order, bracketed with
  ``cached=True``), then each executed variant's buffered stream in
  submission order between its ``variant_started`` /
  ``variant_finished`` brackets;
* two variants whose jobs share a fingerprint are verified once; the
  duplicate is served the same record, marked as deduplicated.

Each variant's verdict is one of ``PASS`` (safety, optional LTL, and
optional goal reachability all hold; fault scenarios are then swept and
their worst resilience verdict recorded), ``FAIL`` (a property is
violated or the goal is unreachable), ``UNKNOWN`` (a budget ran out
first), ``INCOMPLETE`` (the platform failed — the worker died, timed
out, or the checker raised — with the cause recorded), or ``SKIPPED``
(the first-pass policy or an interrupt stopped the exploration before
this variant ran).
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
import time
import traceback
from typing import (
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..core.resilience import (
    Fault,
    FaultScenario,
    _as_scenario,
    verify_resilience,
)
from ..core.spec import ModelLibrary
from ..mc.budget import BudgetExceeded
from ..mc.engine import StateGraph
from ..mc.explore import check_safety, find_state
from ..mc.ndfs import check_ltl
from ..mc.props import Prop
from ..obs.events import (
    EngineEvent,
    checkpoint,
    exploration_finished,
    exploration_started,
    job_failed,
    job_retry,
    variant_finished,
    variant_started,
    warning,
)
from ..obs.report import _stats_payload
from ..obs.reporters import CollectingReporter, Reporter, ScenarioScope
from ..psl.jit import program_store
from . import failpoints
from .fingerprint import fingerprint_job
from .journal import RunJournal
from .rank import ExplorationReport, rank_records
from .space import DesignSpace, Variant
from .sqlcache import SqliteResultCache
from .supervise import (
    CAUSE_EXCEPTION,
    JobFailure,
    RetryPolicy,
    SupervisedPool,
)

__all__ = [
    "EXHAUSTIVE",
    "FIRST_PASS",
    "PASS",
    "FAIL",
    "UNKNOWN",
    "INCOMPLETE",
    "SKIPPED",
    "explore",
]

#: Early-exit policies.
EXHAUSTIVE = "exhaustive"
FIRST_PASS = "first_pass"

#: Variant verdicts.
PASS = "PASS"
FAIL = "FAIL"
UNKNOWN = "UNKNOWN"
INCOMPLETE = "INCOMPLETE"
SKIPPED = "SKIPPED"


def _result_payload(result) -> Dict[str, Any]:
    """The JSON-able slice of a VerificationResult a record keeps."""
    return {
        "ok": result.ok,
        "kind": result.kind,
        "message": result.message,
        "incomplete": result.incomplete,
        "budget_exhausted": result.budget_exhausted,
        "statistics": _stats_payload(result.stats),
    }


def _verify_variant(
    variant: Variant,
    invariants: Sequence[Prop],
    check_deadlock: bool,
    goal: Optional[Prop],
    ltl: Optional[str],
    ltl_props: Optional[Mapping[str, Prop]],
    scenarios: Sequence[FaultScenario],
    library: ModelLibrary,
    max_states: Optional[int],
    max_seconds: Optional[float],
    reporter: Optional[Reporter] = None,
    stop: Optional[Any] = None,
) -> Dict[str, Any]:
    """Verify one variant; the unit of work for serial and pooled runs.

    Safety, the optional LTL check, and the optional goal search all
    run on one shared :class:`~repro.mc.engine.StateGraph`, so they pay
    successor generation once between them.  Fault scenarios are swept
    (serially, with the same library) only for variants that PASS —
    resilience is a tie-breaker between survivors, not a verdict input.
    ``stop`` is a zero-argument callable polled by the safety budget so
    an interrupt ends the check gracefully mid-BFS.
    Returns a plain JSON-able record, ready for the result cache.
    """
    scoped: Optional[Reporter] = None
    if reporter is not None:
        scoped = ScenarioScope(reporter, variant.name)
    hits0, misses0 = library.stats.hits, library.stats.misses
    t0 = time.perf_counter()
    arch = variant.build()
    system = arch.to_system(library, fused=variant.fused)
    graph = StateGraph(system)
    safety = check_safety(
        graph, invariants=invariants, check_deadlock=check_deadlock,
        max_states=max_states, max_seconds=max_seconds, reporter=scoped,
        stop=stop,
    )

    verdict = PASS
    detail = "all properties hold"
    budget_hit = bool(safety.incomplete)
    if not safety.ok:
        verdict, detail = FAIL, f"safety violated: {safety.message}"
    elif safety.incomplete:
        verdict = UNKNOWN
        detail = (f"{safety.budget_exhausted or 'budget'} exhausted "
                  "before a safety verdict")

    ltl_payload: Optional[Dict[str, Any]] = None
    if ltl is not None:
        # Always checked (on the same shared graph): a variant's record
        # carries both verdicts even when safety already failed, so
        # tables can show the two columns independently.
        ltl_result = check_ltl(
            graph, ltl, ltl_props or {}, max_states=max_states,
            max_seconds=max_seconds, reporter=scoped,
        )
        ltl_payload = _result_payload(ltl_result)
        ltl_payload["formula"] = ltl
        budget_hit = budget_hit or ltl_result.incomplete
        if verdict is PASS:
            if not ltl_result.ok:
                verdict, detail = FAIL, f"LTL violated: {ltl_result.message}"
            elif ltl_result.incomplete:
                verdict = UNKNOWN
                detail = (f"{ltl_result.budget_exhausted or 'budget'} "
                          "exhausted before an LTL verdict")

    goal_payload: Optional[Dict[str, Any]] = None
    if goal is not None and verdict is PASS:
        try:
            witness = find_state(graph, goal, max_states=max_states,
                                 max_seconds=max_seconds, reporter=scoped)
        except BudgetExceeded as exc:
            budget_hit = True
            verdict = UNKNOWN
            detail = f"goal search stopped early: {exc}"
            goal_payload = {"name": goal.name, "reachable": None}
        else:
            reachable = witness is not None
            goal_payload = {"name": goal.name, "reachable": reachable}
            if not reachable:
                verdict = FAIL
                detail = f"goal {goal.name!r} is unreachable"

    resilience_payload: Optional[Dict[str, Any]] = None
    if scenarios and verdict is PASS:
        sweep = verify_resilience(
            arch, list(scenarios), invariants=invariants, goal=goal,
            check_deadlock=check_deadlock, library=library,
            max_states=max_states, max_seconds=max_seconds,
            fused=variant.fused, include_baseline=False, jobs=1,
        )
        budget_hit = budget_hit or not sweep.complete
        resilience_payload = {
            "worst": sweep.worst,
            "complete": sweep.complete,
            "scenarios": [
                {"name": s.name, "verdict": s.verdict, "detail": s.detail}
                for s in sweep.scenarios
            ],
        }
        detail = f"{detail}; worst fault verdict {sweep.worst}"

    return {
        "space": variant.space,
        "variant": variant.name,
        "index": variant.index,
        "base": variant.base_label,
        "labels": variant.labels,
        "fused": variant.fused,
        "verdict": verdict,
        "detail": detail,
        "states": safety.stats.states_stored,
        "seconds": round(time.perf_counter() - t0, 6),
        "budget_hit": budget_hit,
        "safety": _result_payload(safety),
        "ltl": ltl_payload,
        "goal": goal_payload,
        "resilience": resilience_payload,
        "models_reused": library.stats.hits - hits0,
        "models_built": library.stats.misses - misses0,
    }


def _run_variant_task(payload: bytes) -> Tuple[Dict[str, Any],
                                               List[EngineEvent]]:
    """Supervised-worker entry point: unpickle one variant's job, run it.

    Each worker holds a private :class:`ModelLibrary` (reuse accounting
    becomes per-variant), and when the parent has a reporter its
    progress interval travels in the payload so the worker buffers
    events in a :class:`~repro.obs.reporters.CollectingReporter` for
    deterministic replay after the join.  So does the verdict store's
    directory, whose compiled programs the worker reads and adds to.
    The ``worker.run`` failpoint (keyed by variant index) lets the chaos
    suite kill or stall this worker mid-job.
    """
    (variant, invariants, check_deadlock, goal, ltl, ltl_props, scenarios,
     max_states, max_seconds, interval, store_dir) = pickle.loads(payload)
    failpoints.hit("worker.run", token=variant.index)
    collector = None if interval is None else CollectingReporter(interval)
    with program_store(store_dir):
        record = _verify_variant(
            variant, invariants, check_deadlock, goal, ltl, ltl_props,
            scenarios, ModelLibrary(), max_states, max_seconds,
            reporter=collector,
        )
    return record, ([] if collector is None else collector.events)


def _base_record(variant: Variant, verdict: str, detail: str) -> Dict[str, Any]:
    return {
        "space": variant.space,
        "variant": variant.name,
        "index": variant.index,
        "base": variant.base_label,
        "labels": variant.labels,
        "fused": variant.fused,
        "verdict": verdict,
        "detail": detail,
        "states": 0,
        "seconds": 0.0,
        "budget_hit": False,
        "safety": None,
        "ltl": None,
        "goal": None,
        "resilience": None,
        "models_reused": 0,
        "models_built": 0,
    }


def _skipped_record(variant: Variant, reason: str) -> Dict[str, Any]:
    return _base_record(variant, SKIPPED, reason)


def _failed_record(variant: Variant, failure: JobFailure) -> Dict[str, Any]:
    """An INCOMPLETE verdict for a variant whose job the platform lost."""
    record = _base_record(variant, INCOMPLETE,
                          f"incomplete: {failure.describe()}")
    record["failure"] = {
        "cause": failure.cause,
        "detail": failure.detail,
        "attempts": failure.attempts,
    }
    return record


def _install_interrupt(flag: threading.Event):
    """Route SIGINT/SIGTERM into ``flag``; return handlers to restore.

    Only possible from the main thread; elsewhere the exploration still
    works, it just keeps the default signal behaviour.
    """
    if threading.current_thread() is not threading.main_thread():
        return None
    previous = {}

    def _handler(signum, frame):
        flag.set()

    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[sig] = signal.signal(sig, _handler)
        except (ValueError, OSError):  # pragma: no cover - exotic host
            pass
    return previous


def _restore_interrupt(previous) -> None:
    if not previous:
        return
    for sig, handler in previous.items():
        try:
            signal.signal(sig, handler)
        except (ValueError, OSError):  # pragma: no cover - exotic host
            pass


def explore(
    space: DesignSpace,
    *,
    invariants: Sequence[Prop] = (),
    check_deadlock: bool = True,
    goal: Optional[Prop] = None,
    ltl: Optional[str] = None,
    ltl_props: Optional[Mapping[str, Prop]] = None,
    faults: Sequence[Union[Fault, FaultScenario]] = (),
    library: Optional[ModelLibrary] = None,
    cache: Optional[SqliteResultCache] = None,
    jobs: int = 1,
    max_states: Optional[int] = None,
    max_seconds: Optional[float] = None,
    policy: str = EXHAUSTIVE,
    reporter: Optional[Reporter] = None,
    run_id: Optional[str] = None,
    resume: Optional[str] = None,
    journal_dir: Optional[str] = None,
    retry: Optional[RetryPolicy] = None,
    job_timeout: Optional[float] = None,
) -> ExplorationReport:
    """Explore a design space and rank the surviving variants.

    Every variant is elaborated once in the parent (through the shared
    ``library``, so block/component models are reused across the whole
    space) to compute its job fingerprint.  Fingerprints then decide the
    work: resumed jobs are served from the run journal, cached jobs from
    ``cache``, duplicated jobs are verified once, and the rest are
    submitted cheapest-first — serially, or over a supervised worker
    pool when ``jobs > 1`` (falling back to serial, with a warning
    event, when the work does not pickle).

    ``policy=FIRST_PASS`` stops after the first PASS in submission
    order; variants that never ran are reported as ``SKIPPED``.  Fresh
    verdicts are written back to ``cache`` (the SQLite store from
    :func:`~repro.design.sqlcache.open_cache`) and journaled as they
    finalize; the cache is flushed and closed before returning (it
    transparently reopens if used again).  The JIT keeps its
    compiled programs in the cache's directory too (see
    :func:`~repro.psl.jit.program_store`), so a variant compiles only the
    process programs that no earlier run on this store compiled.

    Fault tolerance knobs: ``retry`` (a
    :class:`~repro.design.supervise.RetryPolicy`; default one retry
    with jittered backoff), ``job_timeout`` (per-job wall clock for
    pooled workers), ``run_id`` / ``resume`` / ``journal_dir`` (the
    checkpoint/resume journal; defaults to ``<cache dir>/runs``).
    SIGINT/SIGTERM interrupt the exploration gracefully: the report
    comes back partial with ``interrupted=True``.
    """
    if policy not in (EXHAUSTIVE, FIRST_PASS):
        raise ValueError(f"unknown exploration policy {policy!r}")
    retry_policy = retry if retry is not None else RetryPolicy()
    library = library if library is not None else ModelLibrary()
    scenarios = tuple(_as_scenario(f) for f in faults)
    fault_names = [f"{s.name}={s.describe()}" for s in scenarios]
    variants = space.variants()
    total = len(variants)

    # Fingerprint every variant's job up front (cheap: elaboration reuses
    # the shared library; verification is where the time goes).
    fingerprints: List[str] = []
    for variant in variants:
        system = variant.build().to_system(library, fused=variant.fused)
        fingerprints.append(fingerprint_job(
            system, invariants=invariants, check_deadlock=check_deadlock,
            goal=goal, ltl=ltl, ltl_props=ltl_props, faults=fault_names,
            max_states=max_states, max_seconds=max_seconds,
        ))

    # Checkpoint/resume journal: default location rides with the cache.
    jdir = journal_dir
    if jdir is None and cache is not None:
        jdir = os.path.join(cache.directory, "runs")
    prior = None
    if resume is not None:
        if jdir is None:
            raise ValueError(
                "resume requires a cache or an explicit journal_dir "
                "(the journal lives under the cache directory)")
        prior = RunJournal.load(jdir, resume)
        run_id = resume
    journal = RunJournal(jdir, run_id=run_id) if jdir is not None else None
    if journal is not None:
        run_id = journal.run_id

    records: List[Optional[Dict[str, Any]]] = [None] * total
    served_from_cache = [False] * total
    resumed = [False] * total

    # Resumed jobs resolve first (no cache traffic), then cache hits;
    # the rest dedupe by fingerprint.
    first_for: Dict[str, int] = {}
    to_run: List[int] = []
    for i, fp in enumerate(fingerprints):
        if prior is not None and fp in prior.completed:
            records[i] = _rebind(prior.completed[fp], variants[i])
            resumed[i] = True
            continue
        cached = cache.get(fp) if cache is not None else None
        if cached is not None:
            records[i] = _rebind(cached, variants[i])
            served_from_cache[i] = True
            continue
        if fp in first_for:
            continue  # verified once; filled in from the twin's record
        first_for[fp] = i
        to_run.append(i)

    # Cheapest-first submission order (stable on enumeration index).
    to_run.sort(key=lambda i: (variants[i].cost_hint(), i))

    interrupt = threading.Event()
    previous_handlers = _install_interrupt(interrupt)
    warnings: List[str] = []
    try:
        if journal is not None:
            journal.record(
                "run_started", run_id=run_id, space=space.name, total=total,
                policy=policy, jobs=jobs, resumed=sum(resumed),
                cached=sum(served_from_cache), to_run=len(to_run))
            for i in to_run:
                journal.record("scheduled", fingerprint=fingerprints[i],
                               variant=variants[i].name, index=i)

        if reporter is not None:
            reporter.emit(exploration_started(
                space.name, variants=total, jobs=jobs,
                cached=sum(served_from_cache) + sum(resumed),
                to_run=len(to_run)))
            for i in range(total):
                if served_from_cache[i] or resumed[i]:
                    _emit_brackets(reporter, variants[i], records[i], i,
                                   total, cached=True)

        stopped_early = False
        if to_run and not interrupt.is_set():
            ran: Optional[List[Tuple[int, Dict[str, Any],
                                     List[EngineEvent],
                                     Optional[JobFailure]]]] = None
            # Compiled programs live beside the verdict store, so a
            # variant compiles only the process programs no earlier run
            # on this store has compiled.
            store_dir = cache.directory if cache is not None else None
            if jobs > 1 and len(to_run) > 1:
                ran = _explore_supervised(
                    variants, to_run, invariants, check_deadlock, goal, ltl,
                    ltl_props, scenarios, max_states, max_seconds, jobs,
                    policy, reporter, retry_policy, job_timeout, interrupt,
                    store_dir,
                )
                if ran is None:
                    message = ("parallel exploration degraded to a serial "
                               "run: the verification jobs do not pickle "
                               "across the worker pool")
                    warnings.append(message)
                    if reporter is not None:
                        reporter.emit(warning("explore", message=message))
            if ran is None:
                with program_store(store_dir):
                    ran = _explore_serial(
                        variants, to_run, invariants, check_deadlock, goal,
                        ltl, ltl_props, scenarios, library, max_states,
                        max_seconds, policy, reporter, total, retry_policy,
                        interrupt,
                    )
            done_count = sum(resumed)
            failed_count = 0
            for i, record, _events, failure in ran:
                records[i] = record
                if failure is None:
                    done_count += 1
                    if cache is not None:
                        cache.put(fingerprints[i], record)
                    if journal is not None:
                        journal.record("done", fingerprint=fingerprints[i],
                                       variant=variants[i].name,
                                       record=record)
                else:
                    failed_count += 1
                    if journal is not None:
                        journal.record(
                            "failed", fingerprint=fingerprints[i],
                            variant=variants[i].name, cause=failure.cause,
                            attempts=failure.attempts, detail=failure.detail)
                if journal is not None and reporter is not None:
                    reporter.emit(checkpoint(
                        run_id or "", completed=done_count,
                        failed=failed_count,
                        pending=len(to_run) - len(ran), path=journal.path))
            completed = {i for i, _, _, _ in ran}
            stopped_early = (len(completed) < len(to_run)
                             and not interrupt.is_set())
    finally:
        _restore_interrupt(previous_handlers)

    interrupted = interrupt.is_set()
    if journal is not None:
        if interrupted:
            journal.record("interrupted", run_id=run_id)
        else:
            journal.record("run_finished", run_id=run_id)
        journal.close()

    # Twin variants (same fingerprint) share the executed record.
    skip_reason = (
        "skipped: the exploration was interrupted before this variant ran"
        if interrupted else
        "skipped: first-pass policy stopped the exploration before this "
        "variant ran")
    for i, fp in enumerate(fingerprints):
        if records[i] is not None:
            continue
        twin = first_for.get(fp)
        if twin is not None and records[twin] is not None:
            records[i] = _rebind(records[twin], variants[i],
                                 deduplicated=True)
        else:
            records[i] = _skipped_record(variants[i], skip_reason)

    final: List[Dict[str, Any]] = []
    for i, record in enumerate(records):
        assert record is not None
        record = dict(record)
        record["cached"] = served_from_cache[i]
        if resumed[i]:
            record["resumed"] = True
        final.append(record)

    ranked = rank_records(final)
    report = ExplorationReport(
        space=space.name,
        results=final,
        ranked=ranked,
        policy=policy,
        jobs=jobs,
        stopped_early=stopped_early,
        cache_stats=(cache.stats() if cache is not None else None),
        library_snapshot=library.snapshot(),
        run_id=run_id,
        interrupted=interrupted,
        warnings=warnings,
    )
    if cache is not None:
        cache.flush()
        # Release the connection eagerly; the store transparently
        # reopens if the caller keeps using the instance, and
        # long-lived processes stop leaking handles.
        cache.close()
    if reporter is not None:
        reporter.emit(exploration_finished(
            space.name, best=(report.best["variant"] if report.best else None),
            complete=report.complete,
            cache_hits=(cache.hits if cache is not None else 0),
            cache_misses=(cache.misses if cache is not None else 0)))
    return report


def _rebind(record: Mapping[str, Any], variant: Variant,
            deduplicated: bool = False) -> Dict[str, Any]:
    """A cached/twin record re-labelled with *this* variant's identity.

    The verdict and evidence are content-addressed (same fingerprint =
    same job), but the variant name/index/labels belong to the current
    enumeration, not to whoever first produced the record.
    """
    out = dict(record)
    out.pop("schema", None)
    out.pop("fingerprint", None)
    out.pop("crc", None)
    out["space"] = variant.space
    out["variant"] = variant.name
    out["index"] = variant.index
    out["base"] = variant.base_label
    out["labels"] = variant.labels
    out["fused"] = variant.fused
    if deduplicated:
        out["deduplicated"] = True
    return out


def _emit_brackets(reporter: Reporter, variant: Variant,
                   record: Mapping[str, Any], index: int, total: int, *,
                   cached: bool,
                   events: Sequence[EngineEvent] = (),
                   failure: Optional[JobFailure] = None) -> None:
    reporter.emit(variant_started(
        variant.name, index=index, total=total, cached=cached))
    for event in events:
        reporter.emit(event)
    if failure is not None:
        reporter.emit(job_failed(
            variant.name, cause=failure.cause, attempts=failure.attempts,
            detail=failure.detail))
    reporter.emit(variant_finished(
        variant.name, verdict=record["verdict"],
        states_stored=record["states"], seconds=record["seconds"],
        cached=cached))


def _explore_serial(
    variants: Sequence[Variant],
    to_run: Sequence[int],
    invariants: Sequence[Prop],
    check_deadlock: bool,
    goal: Optional[Prop],
    ltl: Optional[str],
    ltl_props: Optional[Mapping[str, Prop]],
    scenarios: Sequence[FaultScenario],
    library: ModelLibrary,
    max_states: Optional[int],
    max_seconds: Optional[float],
    policy: str,
    reporter: Optional[Reporter],
    total: int,
    retry_policy: RetryPolicy,
    interrupt: threading.Event,
) -> List[Tuple[int, Dict[str, Any], List[EngineEvent],
                Optional[JobFailure]]]:
    """The in-process execution path, with the same failure contract as
    the pool: checker exceptions are retried then degraded, an interrupt
    stops the current check at its next stored state and the partial
    record is discarded (resume re-runs that variant)."""
    out: List[Tuple[int, Dict[str, Any], List[EngineEvent],
                    Optional[JobFailure]]] = []
    stop = interrupt.is_set
    for i in to_run:
        if interrupt.is_set():
            break
        variant = variants[i]
        if reporter is not None:
            reporter.emit(variant_started(
                variant.name, index=i, total=total, cached=False))
        record: Optional[Dict[str, Any]] = None
        failure: Optional[JobFailure] = None
        attempts = 0
        while True:
            attempts += 1
            try:
                record = _verify_variant(
                    variant, invariants, check_deadlock, goal, ltl,
                    ltl_props, scenarios, library, max_states, max_seconds,
                    reporter=reporter, stop=stop,
                )
            except Exception:
                detail = traceback.format_exc(limit=8)
                if retry_policy.should_retry(CAUSE_EXCEPTION, attempts):
                    delay = retry_policy.backoff(attempts, seed=str(i))
                    if reporter is not None:
                        reporter.emit(job_retry(
                            variant.name, cause=CAUSE_EXCEPTION,
                            attempt=attempts,
                            max_attempts=retry_policy.max_attempts,
                            backoff=delay))
                    time.sleep(delay)
                    continue
                failure = JobFailure(cause=CAUSE_EXCEPTION, detail=detail,
                                     attempts=attempts)
            break
        if failure is None and interrupt.is_set():
            # The check was cut short by the interrupt marker (or the
            # signal landed between variants): drop the partial record
            # so resume re-runs this fingerprint from scratch.
            if reporter is not None:
                reporter.emit(variant_finished(
                    variant.name, verdict=SKIPPED, states_stored=0,
                    seconds=0.0, cached=False))
            break
        if failure is not None:
            record = _failed_record(variants[i], failure)
            if reporter is not None:
                reporter.emit(job_failed(
                    variant.name, cause=failure.cause,
                    attempts=failure.attempts, detail=failure.detail))
        assert record is not None
        out.append((i, record, [], failure))
        if reporter is not None:
            reporter.emit(variant_finished(
                variant.name, verdict=record["verdict"],
                states_stored=record["states"], seconds=record["seconds"],
                cached=False))
        if policy == FIRST_PASS and record["verdict"] == PASS:
            break
    return out


def _explore_supervised(
    variants: Sequence[Variant],
    to_run: Sequence[int],
    invariants: Sequence[Prop],
    check_deadlock: bool,
    goal: Optional[Prop],
    ltl: Optional[str],
    ltl_props: Optional[Mapping[str, Prop]],
    scenarios: Sequence[FaultScenario],
    max_states: Optional[int],
    max_seconds: Optional[float],
    jobs: int,
    policy: str,
    reporter: Optional[Reporter],
    retry_policy: RetryPolicy,
    job_timeout: Optional[float],
    interrupt: threading.Event,
    store_dir: Optional[str],
) -> Optional[List[Tuple[int, Dict[str, Any], List[EngineEvent],
                         Optional[JobFailure]]]]:
    """Fan variant jobs over the supervised pool; None = fall back serial.

    Outcomes come back in submission order, so the lazily evaluated
    first-pass predicate stops without waiting for (or starting) the
    jobs queued behind the first PASS.  Workers buffer their event
    streams; the parent replays each between its variant brackets, in
    submission order, matching the serial sweep's sequence.  A worker
    the supervisor gave up on yields an INCOMPLETE record (plus a
    ``job_failed`` event) instead of poisoning the run.
    """
    interval = None
    if reporter is not None:
        interval = int(getattr(reporter, "interval", 1000))
    try:
        payloads = [
            pickle.dumps((
                variants[i], tuple(invariants), check_deadlock, goal, ltl,
                dict(ltl_props) if ltl_props else None, tuple(scenarios),
                max_states, max_seconds, interval, store_dir,
            ))
            for i in to_run
        ]
    except Exception:
        return None

    def on_retry(key: int, cause: str, attempt: int, delay: float) -> None:
        if reporter is not None:
            reporter.emit(job_retry(
                variants[key].name, cause=cause, attempt=attempt,
                max_attempts=retry_policy.max_attempts, backoff=delay))

    stop_after = None
    if policy == FIRST_PASS:
        def stop_after(outcome):
            return (outcome.ok
                    and outcome.result[0]["verdict"] == PASS)

    pool = SupervisedPool(min(jobs, len(to_run)), timeout=job_timeout,
                          retry=retry_policy)
    try:
        outcomes = pool.run(
            _run_variant_task, payloads, keys=list(to_run), stop=interrupt,
            stop_after=stop_after, on_retry=on_retry)
    except Exception:
        return None

    out: List[Tuple[int, Dict[str, Any], List[EngineEvent],
                    Optional[JobFailure]]] = []
    total = len(variants)
    for outcome in outcomes:
        i = outcome.key
        if outcome.ok:
            record, events = outcome.result
            out.append((i, record, list(events), None))
        else:
            record = _failed_record(variants[i], outcome.failure)
            out.append((i, record, [], outcome.failure))
    if reporter is not None:
        for i, record, events, failure in out:
            _emit_brackets(reporter, variants[i], record, i, total,
                           cached=False, events=events, failure=failure)
    return out
