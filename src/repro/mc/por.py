"""Partial-order reduction for safety exploration.

The paper's Section 6 observes that decomposing connectors into ports and
channels "introduces additional concurrency into the model, exacerbating
the state explosion", and calls for optimization techniques.  This module
implements one such technique: an *ample-set* partial-order reduction in
the style of Peled, restricted to safety properties.

The reduction expands, where possible, only the transitions of a single
process instead of all interleavings.  A process's enabled transition set
is an acceptable ample set in a state when:

* **C0 (non-emptiness)** — the process has at least one enabled edge;
* **C1 (independence)** — every enabled edge of the process is *purely
  local*: no channel operation and no read/write of any global variable,
  so it can neither enable/disable other processes nor be affected by
  them;
* **C2 (invisibility)** — no edge writes state any tracked proposition
  depends on.  A :class:`~repro.mc.props.Prop` with declared
  dependencies is visible only through them; an undeclared prop makes
  every write visible (no reduction around it);
* **C3 (cycle proviso)** — no edge closes a cycle on the current DFS
  stack (checked dynamically, as in SPIN).

Because ample expansion preserves reachability of local states and of
all visible valuations, assertion, invariant, and deadlock results are
preserved.  The reduction is deliberately conservative; its purpose in
the reproduction is the T-opt/T-scale experiments measuring how much of
the building-block concurrency can be collapsed.

The checker runs over a shared :class:`~repro.mc.engine.StateGraph`:
states are interned ids, and *full* expansions (needed whenever no
ample set exists) go through the graph's memoized transition cache —
so a POR run after a full sweep on the same graph recomputes nothing.
Per-process ample candidates are derived by filtering the cached full
relation when it is already present, and by asking the interpreter for
just that process otherwise (never forcing a full expansion).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ..obs.events import RunInstrument
from ..obs.reporters import Reporter
from ..psl.compiler import Edge, OpAssert, OpAssign, OpDStep, OpElse, OpGuard, OpSkip
from ..psl.interp import Interpreter, TransitionLabel
from ..psl.system import ProcessInstance, System
from .budget import Budget
from .engine import CachedTransition, StateGraph, as_graph
from .explore import _rebuild_trace
from .props import Prop
from .result import (
    Statistics,
    Trace,
    TraceStep,
    VerificationResult,
    VIOLATION_ASSERTION,
    VIOLATION_DEADLOCK,
    VIOLATION_INVARIANT,
)

_LOCAL_OPS = (OpAssign, OpGuard, OpSkip, OpAssert, OpDStep)


def _edge_is_local(inst: ProcessInstance, edge: Edge) -> bool:
    """C1: the edge touches no channel and no global variable."""
    op = edge.op
    if isinstance(op, OpElse):
        # `else` depends on sibling enabledness, which may involve
        # channels; treat as non-local unless all siblings are local too.
        return False
    if not isinstance(op, _LOCAL_OPS):
        return False
    for name in op.reads() | op.writes():
        if name == "_pid":
            continue
        if name not in inst.local_index:
            return False  # global access
    return True


def _edge_is_invisible(
    inst: ProcessInstance, edge: Edge, invariants: Sequence[Prop]
) -> bool:
    """C2: the edge cannot change the valuation of any tracked prop.

    Local edges only write the process's own locals (and its control
    location), so the edge is visible exactly to props that declared a
    dependency on this process — or props with undeclared dependencies.
    """
    for p in invariants:
        if p.globals_read is None or p.locals_read is None:
            return False
        if inst.name in p.locals_read:
            return False
    return True


class AmpleInterpreter:
    """Ample-set successor generation over a shared state graph."""

    def __init__(
        self,
        target: Union[System, Interpreter, StateGraph],
        invariants: Sequence[Prop] = (),
    ) -> None:
        self.graph = as_graph(target)
        self.interp = self.graph.interp
        self.invariants = invariants
        # Static per-(definition, location) classification: True when every
        # outgoing edge is local & invisible (candidate for ample sets).
        self._ample_loc_cache: Dict[Tuple[int, int], bool] = {}

    def _location_is_ample_candidate(self, pid: int, loc: int) -> bool:
        key = (pid, loc)
        cached = self._ample_loc_cache.get(key)
        if cached is not None:
            return cached
        inst = self.interp.system.instances[pid]
        edges = inst.automaton.edges_from[loc]
        ok = bool(edges) and all(
            _edge_is_local(inst, e) and _edge_is_invisible(inst, e, self.invariants)
            for e in edges
        )
        self._ample_loc_cache[key] = ok
        return ok

    def ample_transitions(
        self, sid: int, on_stack: Set[int]
    ) -> Tuple[List[CachedTransition], bool]:
        """Successor transitions, reduced when a valid ample set exists.

        Returns ``(transitions, reduced)``.  ``on_stack`` is the set of
        state ids on the current DFS stack, used for the C3 cycle
        proviso.
        """
        graph = self.graph
        state = graph.state(sid)
        cached_full = graph.cache.peek(sid)
        intern = graph.store.intern
        for pid in range(len(self.interp.system.instances)):
            if not self._location_is_ample_candidate(pid, state.locs[pid]):
                continue
            if cached_full is not None:
                # The full relation is pid-ordered, so filtering by pid
                # yields exactly the per-process transition list.
                candidate = [t for t in cached_full if t.label.pid == pid]
            else:
                candidate = [
                    CachedTransition(t.label, intern(t.target), t.violation)
                    for t in self.interp._process_transitions(state, pid)
                ]
            if not candidate:
                continue  # C0 fails (e.g. all guards false)
            if any(t.target in on_stack for t in candidate):
                continue  # C3 fails: would close a stack cycle
            return candidate, True
        return list(graph.transitions(sid)), False


def check_safety_por(
    target: Union[System, Interpreter, StateGraph],
    invariants: Sequence[Prop] = (),
    check_deadlock: bool = True,
    max_states: Optional[int] = None,
    max_seconds: Optional[float] = None,
    raise_on_limit: bool = False,
    reporter: Optional[Reporter] = None,
) -> VerificationResult:
    """Depth-first safety check with ample-set partial-order reduction.

    Verifies the same properties as
    :func:`repro.mc.explore.check_safety` (assertions, invariants,
    deadlock-freedom) but explores a reduced state graph.
    Counterexamples are valid executions but not necessarily shortest.
    An exhausted budget yields a partial ``incomplete=True`` result
    unless ``raise_on_limit`` is set.
    """
    graph = as_graph(target)
    ample = AmpleInterpreter(graph, invariants)
    system = graph.system
    budget = Budget(max_states=max_states, max_seconds=max_seconds,
                    raise_on_limit=raise_on_limit)
    start = budget.started_at
    obs = None if reporter is None else RunInstrument(
        reporter, "safety-por", graph, max_states=max_states,
        max_seconds=max_seconds, started_at=start)

    initial = graph.initial_id
    stats = Statistics(states_stored=1)

    def finish(result: VerificationResult) -> VerificationResult:
        stats.elapsed_seconds = time.perf_counter() - start
        # Read at the end: ample sets compile the plain programs mid-run.
        stats.apply_compile_stats(graph.compile_stats)
        result.stats = stats
        if obs is not None:
            if not result.ok:
                trace_length = len(result.trace.steps) if result.trace else 0
                obs.counterexample(kind=result.kind, message=result.message,
                                   trace_length=trace_length)
            if result.budget_exhausted is not None:
                obs.budget(result.budget_exhausted, stats.states_stored)
            obs.finish(ok=result.ok, stats=stats,
                       incomplete=result.incomplete)
        return result

    for p in invariants:
        if not p.evaluate(system, graph.state(initial)):
            return finish(
                VerificationResult(
                    ok=False,
                    kind=VIOLATION_INVARIANT,
                    message=f"invariant {p.name!r} violated in the initial state",
                    trace=Trace(initial=graph.state(initial)),
                )
            )

    parents: Dict[int, Tuple[Optional[int], Optional[TransitionLabel]]] = {
        initial: (None, None)
    }
    on_stack: Set[int] = {initial}
    # DFS stack: (state id, pending transition list, next index)
    trans0, _ = ample.ample_transitions(initial, on_stack)
    stats.transitions += len(trans0)
    stats.states_expanded += 1
    if obs is not None:
        obs.tick(stats.states_stored, stats.states_expanded,
                 stats.transitions, len(trans0))
    if not trans0 and check_deadlock and not graph.is_valid_end_state(initial):
        blocked = ", ".join(i.name for i in graph.blocked_processes(initial))
        return finish(
            VerificationResult(
                ok=False,
                kind=VIOLATION_DEADLOCK,
                message=f"invalid end state (deadlock); blocked: {blocked}",
                trace=Trace(initial=graph.state(initial)),
            )
        )
    stack: List[Tuple[int, List[CachedTransition], int]] = [(initial, trans0, 0)]

    while stack:
        sid, transitions, idx = stack[-1]
        if idx >= len(transitions):
            stack.pop()
            on_stack.discard(sid)
            continue
        stack[-1] = (sid, transitions, idx + 1)
        t = transitions[idx]

        if t.violation:
            trace = _rebuild_trace(
                graph, initial, sid, parents,
                extra=TraceStep(t.label, graph.state(t.target)),
            )
            return finish(
                VerificationResult(
                    ok=False, kind=VIOLATION_ASSERTION, message=t.violation, trace=trace
                )
            )
        if t.target in parents:
            continue
        parents[t.target] = (sid, t.label)
        stats.states_stored += 1
        exhausted = budget.exceeded(stats.states_stored)
        if exhausted is not None:
            stats.incomplete = True
            stats.budget_exhausted = exhausted
            return finish(
                VerificationResult(
                    ok=True,
                    message=(
                        f"exploration stopped early ({exhausted} "
                        "exhausted); no violations found so far"
                    ),
                    property_text=", ".join(p.name for p in invariants)
                    or "assertions",
                    incomplete=True,
                    budget_exhausted=exhausted,
                )
            )

        for p in invariants:
            if not p.evaluate(system, graph.state(t.target)):
                trace = _rebuild_trace(graph, initial, t.target, parents)
                return finish(
                    VerificationResult(
                        ok=False,
                        kind=VIOLATION_INVARIANT,
                        message=f"invariant {p.name!r} violated",
                        trace=trace,
                    )
                )

        on_stack.add(t.target)
        succ, _ = ample.ample_transitions(t.target, on_stack)
        stats.transitions += len(succ)
        stats.states_expanded += 1
        if obs is not None:
            obs.tick(stats.states_stored, stats.states_expanded,
                     stats.transitions, len(stack))
        if not succ and check_deadlock and not graph.is_valid_end_state(t.target):
            blocked = ", ".join(i.name for i in graph.blocked_processes(t.target))
            trace = _rebuild_trace(graph, initial, t.target, parents)
            return finish(
                VerificationResult(
                    ok=False,
                    kind=VIOLATION_DEADLOCK,
                    message=f"invalid end state (deadlock); blocked: {blocked}",
                    trace=trace,
                )
            )
        stack.append((t.target, succ, 0))

    props_txt = ", ".join(p.name for p in invariants) or "assertions"
    return finish(
        VerificationResult(
            ok=True,
            message=f"no violations found (POR exploration, {props_txt})",
            property_text=props_txt,
        )
    )
