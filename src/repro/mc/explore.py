"""Exhaustive safety exploration: assertions, invariants, deadlocks.

This is the reproduction's stand-in for a SPIN safety run.  It performs a
breadth-first search over the reachable state space of a PSL system,
checking:

* **embedded assertions** — ``Assert`` statements inside process bodies
  (reported when the asserting transition executes);
* **invariants** — named :class:`~repro.mc.props.Prop` predicates that
  must hold in every reachable state;
* **deadlock** — a state with no outgoing transitions in which at least
  one process is not at a valid end location (Promela's "invalid end
  state").

BFS yields shortest counterexamples, mirroring SPIN's ``-i`` iterative
shortening in spirit.  Exploration stops at the first violation unless
``stop_at_first=False``, in which case all violations are collected and
the full space is swept.

Every entry point here — :func:`sweep_safety` / :func:`check_safety`,
:func:`count_states`, :func:`find_state`, :func:`reachable_states` and
:meth:`StateGraph.explore <repro.mc.engine.StateGraph.explore>` — runs
the same breadth-first walk and differs only in what it does when the
walk stores a state, meets a deadlock or executes a failing assertion.
On a cold graph the walk uses dense discovery (see :func:`_bfs`), so a
first check costs the same whatever entry point runs it.

All entry points accept an exploration budget (``max_states``,
``max_seconds``).  An exhausted budget stops the sweep where it is and
returns a *partial* result flagged ``incomplete=True``; passing
``raise_on_limit=True`` restores the historical hard
:class:`StateLimitExceeded` stop.

Every entry point also accepts a shared
:class:`~repro.mc.engine.StateGraph` in place of a system or
interpreter.  The graph memoizes successor generation, so running
several checks against the same graph pays the exploration cost once —
the state-space analogue of the paper's model reuse.
"""

from __future__ import annotations

import gc
import sys
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..obs.events import RunInstrument
from ..obs.reporters import Reporter
from ..psl.interp import Interpreter, TransitionLabel
from ..psl.state import State
from ..psl.system import System
from .budget import (  # noqa: F401  (re-exported for backward compatibility)
    Budget,
    BudgetExceeded,
    StateLimitExceeded,
    TimeLimitExceeded,
)
from .engine import CachedTransition, StateGraph, as_graph
from .props import Prop, StateView
from .result import (
    Statistics,
    Trace,
    TraceStep,
    VerificationResult,
    VIOLATION_ASSERTION,
    VIOLATION_DEADLOCK,
    VIOLATION_INVARIANT,
)

#: Any object the safety checkers can explore.
Target = Union[System, Interpreter, StateGraph]

#: A walk's parent links: stored id -> (parent id, label that reached it).
#: A dense walk keeps them in a list indexed by id, a general one in a dict.
_Parents = Union[List[Tuple[Optional[int], Optional[TransitionLabel]]],
                 Dict[int, Tuple[Optional[int], Optional[TransitionLabel]]]]


@dataclass
class SafetyReport:
    """Full report of a safety sweep (possibly multiple violations).

    ``incomplete``/``budget_exhausted`` mirror the flags on
    :class:`~repro.mc.result.VerificationResult`: set when the sweep
    stopped on an exhausted exploration budget.
    """

    results: List[VerificationResult] = field(default_factory=list)
    stats: Statistics = field(default_factory=Statistics)
    incomplete: bool = False
    budget_exhausted: Optional[str] = None

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results) if self.results else True


@contextmanager
def _gc_paused(pause: bool):
    """Pause the cyclic GC for the duration of a dense (cold) walk.

    States and transitions are immutable tuples — acyclic by
    construction — so plain reference counting reclaims every dropped
    object; all the cyclic collector does during a cold walk is
    repeatedly re-scan the steadily growing retained graph (measured at
    ~30% of a cold sweep on the gas-station workload).  Collection
    resumes as soon as the walk finishes, so user predicates that do
    build cycles are still reclaimed — just after the sweep instead of
    during it.  A warm walk grows nothing and is not paused: a pause
    folds many collections into one, which delays the full collections
    that free dead graphs (peak RSS rose by a third on cold bridge
    explorations when warm walks were paused too).
    """
    was_enabled = pause and gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _sample_frontier(stats: Statistics, queue: "deque[int]") -> None:
    """Record the frontier's approximate byte footprint at a new peak."""
    size = sys.getsizeof(queue)
    if queue:
        size += len(queue) * sys.getsizeof(queue[0])
    if size > stats.peak_frontier_bytes:
        stats.peak_frontier_bytes = size


def _rebuild_trace(
    graph: StateGraph,
    initial: int,
    violating: int,
    parents: _Parents,
    extra: Optional[TraceStep] = None,
) -> Trace:
    steps: List[TraceStep] = []
    cur: Optional[int] = violating
    while cur is not None and cur != initial:
        prev, label = parents[cur]
        assert label is not None
        steps.append(TraceStep(label, graph.state(cur)))
        cur = prev
    steps.reverse()
    if extra is not None:
        steps.append(extra)
    return Trace(initial=graph.state(initial), steps=steps)


def _bfs(
    graph: StateGraph,
    stats: Statistics,
    budget: Budget,
    obs: Optional[RunInstrument] = None,
    on_state: Optional[Callable[[int, _Parents], bool]] = None,
    on_deadlock: Optional[Callable[[int, _Parents], bool]] = None,
    on_violation: Optional[
        Callable[[int, CachedTransition, _Parents], bool]] = None,
) -> Optional[str]:
    """The breadth-first walk behind every entry point of this module.

    Expands each stored state once, in discovery order, and calls the
    optional hooks: ``on_state(sid, parents)`` for every newly stored
    state (the initial state first), ``on_deadlock(sid, parents)`` for
    every expanded state without successors, and ``on_violation(sid,
    transition, parents)`` for every transition that carries an
    assertion violation.  A hook returning true stops the walk;
    ``parents`` feeds :func:`_rebuild_trace`.

    The budget is polled before each expansion — an exhausted budget
    must not silently discard a frontier state whose expansion would
    then be missing from the partial statistics — and after each newly
    stored state, which is then neither passed to ``on_state`` nor
    queued.  Progress ticks go to ``obs``; the cyclic GC is paused while
    a dense walk runs (see :func:`_gc_paused`).  The walk's counters
    land in ``stats``; the return value is the exhausted-budget marker,
    or ``None`` when the walk completed or a hook stopped it.

    Dense discovery: on a *cold* graph (only the initial state interned,
    nothing expanded) BFS discovery order is exactly interning order —
    every newly seen target receives the next dense id — so the frontier
    is the id range ``[expanded, stored)``, "is this target new?" is a
    single integer comparison, and ``parents`` is an append-only list.
    A warm graph's interning order may stem from another walk, so there
    the frontier is a deque and ``parents`` a dict.  Verdicts, traces,
    and state/transition counts are identical either way (the
    differential and cold≡warm suites pin this).
    """
    initial = graph.initial_id
    cache = graph.cache
    cached_succ = cache._succ
    compute_transitions = cache.transitions
    drive = cache._drive
    store_states = graph.store._states
    dense = len(store_states) == 1 and not cached_succ
    bounded = not budget.unbounded
    exceeded = budget.exceeded
    check_violations = on_violation is not None

    queue: deque[int] = deque([initial])
    popleft = queue.popleft
    push = queue.append
    parents: _Parents
    if dense:
        parents = [(None, None)]
        append_parent = parents.append
    else:
        parents = {initial: (None, None)}
    stats.apply_compile_stats(graph.compile_stats)
    _sample_frontier(stats, queue)

    # Counters live in plain locals while the walk runs — dataclass
    # attribute read-modify-write is measurable at ~100k transitions/s —
    # and are published to ``stats`` once the walk ends.
    n_stored = max_frontier = 1
    n_expanded = n_trans = 0
    exhausted: Optional[str] = None
    stopped = on_state is not None and on_state(initial, parents)
    if not stopped:
        with _gc_paused(dense):
            while n_expanded < n_stored:
                if bounded:
                    exhausted = exceeded(n_stored)
                    if exhausted is not None:
                        break
                if dense:
                    sid = n_expanded
                    transitions = None
                else:
                    sid = popleft()
                    transitions = cached_succ.get(sid)
                if transitions is None:
                    # The compiled driver (when present) is called
                    # directly instead of through the cache's method.
                    if drive is None:
                        transitions = compute_transitions(sid)
                    else:
                        transitions = cached_succ[sid] = tuple(
                            drive(store_states[sid]))
                        cache.misses += 1
                n_expanded += 1
                n_trans += len(transitions)
                if obs is not None:
                    obs.tick(n_stored, n_expanded, n_trans,
                             n_stored - n_expanded)
                if not transitions and on_deadlock is not None \
                        and on_deadlock(sid, parents):
                    stopped = True
                    break
                for t in transitions:
                    if check_violations and t.violation \
                            and on_violation(sid, t, parents):
                        break
                    target = t.target
                    if dense:
                        if target < n_stored:
                            continue
                        append_parent((sid, t.label))
                    elif target in parents:
                        continue
                    else:
                        parents[target] = (sid, t.label)
                    n_stored += 1
                    if bounded:
                        exhausted = exceeded(n_stored)
                        if exhausted is not None:
                            break
                    if on_state is not None and on_state(target, parents):
                        break
                    if not dense:
                        push(target)
                        if len(queue) > max_frontier:
                            max_frontier = len(queue)
                            _sample_frontier(stats, queue)
                else:
                    if dense and n_stored - n_expanded > max_frontier:
                        max_frontier = n_stored - n_expanded
                    continue
                # A hook or the budget stopped the walk mid-expansion.
                # On a budget stop the states queued before it count
                # towards the peak frontier, as they do on the general
                # path.
                if exhausted is None:
                    stopped = True
                elif dense and n_stored - 1 - n_expanded > max_frontier:
                    max_frontier = n_stored - 1 - n_expanded
                break
    # A dense walk samples its peak frontier once, unless a hook stopped
    # it (a counterexample run reports the initial sample).
    if dense and not stopped and max_frontier > 1:
        _sample_frontier(stats, deque(range(max_frontier)))

    stats.states_stored = n_stored
    stats.states_expanded = n_expanded
    stats.transitions = n_trans
    stats.max_frontier = max_frontier
    if exhausted is not None:
        stats.incomplete = True
        stats.budget_exhausted = exhausted
        if obs is not None:
            obs.budget(exhausted, n_stored)
    return exhausted


def check_safety(
    target: Target,
    invariants: Sequence[Prop] = (),
    check_deadlock: bool = True,
    check_assertions: bool = True,
    max_states: Optional[int] = None,
    max_seconds: Optional[float] = None,
    stop_at_first: bool = True,
    raise_on_limit: bool = False,
    reporter: Optional[Reporter] = None,
    stop: Optional[Callable[[], bool]] = None,
) -> VerificationResult:
    """Run a safety sweep and return the first (or only) result.

    When ``stop_at_first`` is false and several violations exist, the
    returned result is the first one found; use :func:`sweep_safety` for
    the full report.  ``reporter`` receives the run's engine events
    (see :mod:`repro.obs`).  ``stop`` is polled like a budget limit so
    an external interrupt (Ctrl-C in an exploration) yields a graceful
    partial result.
    """
    report = sweep_safety(
        target,
        invariants=invariants,
        check_deadlock=check_deadlock,
        check_assertions=check_assertions,
        max_states=max_states,
        max_seconds=max_seconds,
        stop_at_first=stop_at_first,
        raise_on_limit=raise_on_limit,
        reporter=reporter,
        stop=stop,
    )
    for r in report.results:
        if not r.ok:
            return r
    if report.incomplete:
        return VerificationResult(
            ok=True,
            message=(
                "exploration stopped early "
                f"({report.budget_exhausted} exhausted); "
                "no violations found so far"
            ),
            stats=report.stats,
            property_text=_property_text(invariants, check_deadlock),
            incomplete=True,
            budget_exhausted=report.budget_exhausted,
        )
    return VerificationResult(
        ok=True,
        message="no assertion, invariant, or deadlock violations",
        stats=report.stats,
        property_text=_property_text(invariants, check_deadlock),
    )


def _property_text(invariants: Sequence[Prop], check_deadlock: bool) -> str:
    parts = [f"invariant {p.name}" for p in invariants]
    if check_deadlock:
        parts.append("deadlock-freedom")
    return ", ".join(parts) if parts else "assertions"


def sweep_safety(
    target: Target,
    invariants: Sequence[Prop] = (),
    check_deadlock: bool = True,
    check_assertions: bool = True,
    max_states: Optional[int] = None,
    max_seconds: Optional[float] = None,
    stop_at_first: bool = True,
    raise_on_limit: bool = False,
    reporter: Optional[Reporter] = None,
    stop: Optional[Callable[[], bool]] = None,
) -> SafetyReport:
    """Breadth-first safety exploration; see :func:`check_safety`."""
    graph = as_graph(target)
    system = graph.system
    initial = graph.initial_id
    state_of = graph.store.state
    budget = Budget(max_states=max_states, max_seconds=max_seconds,
                    raise_on_limit=raise_on_limit, stop=stop)
    obs = None if reporter is None else RunInstrument(
        reporter, "safety-bfs", graph, max_states=max_states,
        max_seconds=max_seconds, started_at=budget.started_at)
    report = SafetyReport()
    stats = report.stats

    def fail(kind: str, message: str, trace: Trace) -> bool:
        """Record a violation; return True if exploration should stop."""
        report.results.append(
            VerificationResult(
                ok=False,
                kind=kind,
                message=message,
                trace=trace,
                stats=stats,
                property_text=_property_text(invariants, check_deadlock),
            )
        )
        if obs is not None:
            obs.counterexample(kind=kind, message=message,
                               trace_length=len(trace.steps))
        return stop_at_first

    def on_state(sid: int, parents: _Parents) -> bool:
        view = StateView(system, state_of(sid))
        where = " in the initial state" if sid == initial else ""
        for p in invariants:
            if not p.fn(view) and fail(
                VIOLATION_INVARIANT,
                f"invariant {p.name!r} violated{where}",
                _rebuild_trace(graph, initial, sid, parents),
            ):
                return True
        return False

    def on_deadlock(sid: int, parents: _Parents) -> bool:
        if graph.is_valid_end_state(sid):
            return False
        blocked = ", ".join(i.name for i in graph.blocked_processes(sid))
        return fail(
            VIOLATION_DEADLOCK,
            f"invalid end state (deadlock); blocked processes: {blocked}",
            _rebuild_trace(graph, initial, sid, parents),
        )

    def on_violation(sid: int, t: CachedTransition, parents: _Parents) -> bool:
        trace = _rebuild_trace(graph, initial, sid, parents,
                               extra=TraceStep(t.label, state_of(t.target)))
        return fail(VIOLATION_ASSERTION, t.violation, trace)

    exhausted = _bfs(
        graph, stats, budget, obs,
        on_state=on_state if invariants else None,
        on_deadlock=on_deadlock if check_deadlock else None,
        on_violation=on_violation if check_assertions else None,
    )
    stats.elapsed_seconds = time.perf_counter() - budget.started_at
    report.incomplete = exhausted is not None
    report.budget_exhausted = exhausted
    if obs is not None:
        obs.finish(ok=report.ok, stats=stats, incomplete=report.incomplete)
    return report


def count_states(
    target: Target,
    max_states: Optional[int] = None,
    max_seconds: Optional[float] = None,
    raise_on_limit: bool = False,
    reporter: Optional[Reporter] = None,
) -> Statistics:
    """Count reachable states/transitions without checking anything.

    On an exhausted budget the partial tally is returned with
    ``stats.incomplete`` set (or :class:`StateLimitExceeded` /
    :class:`TimeLimitExceeded` raised in ``raise_on_limit`` mode).
    """
    graph = as_graph(target)
    budget = Budget(max_states=max_states, max_seconds=max_seconds,
                    raise_on_limit=raise_on_limit)
    obs = None if reporter is None else RunInstrument(
        reporter, "count-states", graph, max_states=max_states,
        max_seconds=max_seconds, started_at=budget.started_at)
    stats = Statistics()
    _bfs(graph, stats, budget, obs)
    stats.elapsed_seconds = time.perf_counter() - budget.started_at
    if obs is not None:
        obs.finish(ok=True, stats=stats, incomplete=stats.incomplete)
    return stats


def reachable_states(
    target: Target,
    max_states: Optional[int] = None,
    max_seconds: Optional[float] = None,
) -> List[State]:
    """Materialize the reachable state set (testing/analysis helper).

    A silently truncated state list would be a trap, so this helper
    always raises on an exhausted budget.
    """
    graph = as_graph(target)
    budget = Budget(max_states=max_states, max_seconds=max_seconds,
                    raise_on_limit=True)
    order: List[int] = []
    _bfs(graph, Statistics(), budget,
         on_state=lambda sid, parents: order.append(sid))
    return [graph.state(sid) for sid in order]


def find_state(
    target: Target,
    predicate: Prop,
    max_states: Optional[int] = None,
    max_seconds: Optional[float] = None,
    reporter: Optional[Reporter] = None,
) -> Optional[Trace]:
    """Search for a reachable state satisfying *predicate*.

    Returns the shortest trace to such a state, or ``None`` if no
    reachable state satisfies it.  This is the existential dual of an
    invariant check and is used by the Figure-4 scenario experiments
    ("there exists an execution where SEND_SUCC precedes delivery").

    ``None`` is a definite answer, so an exhausted budget always raises
    (:class:`StateLimitExceeded` / :class:`TimeLimitExceeded`) rather
    than degrading to a misleading "not found".
    """
    graph = as_graph(target)
    system = graph.system
    state_of = graph.store.state
    budget = Budget(max_states=max_states, max_seconds=max_seconds,
                    raise_on_limit=True)
    obs = None if reporter is None else RunInstrument(
        reporter, "find-state", graph, max_states=max_states,
        max_seconds=max_seconds, started_at=budget.started_at)
    pred_fn = predicate.fn
    found: List[Trace] = []

    def on_state(sid: int, parents: _Parents) -> bool:
        if pred_fn(StateView(system, state_of(sid))):
            found.append(
                _rebuild_trace(graph, graph.initial_id, sid, parents))
            return True
        return False

    stats = Statistics()
    _bfs(graph, stats, budget, obs, on_state=on_state)
    if obs is not None:
        stats.elapsed_seconds = time.perf_counter() - budget.started_at
        obs.finish(ok=True, stats=stats)
    return found[0] if found else None
