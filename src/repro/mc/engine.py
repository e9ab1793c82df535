"""The shared state-space engine: interned states and a memoized relation.

The paper's core pitch is *reuse across design iterations*, yet the
checkers historically threw all exploration work away between runs:
``check_safety``, ``find_state``, NDFS, fairness, and every resilience
scenario re-walked the state space from scratch, rebuilding every
:class:`~repro.psl.interp.Transition` per visit.  This module makes the
state space itself a reusable artifact:

* :class:`StateStore` — interns :class:`~repro.psl.state.State` tuples
  to dense integer ids.  A state's (expensive) deep-tuple hash is
  computed once, at interning time; every downstream structure — BFS
  frontiers, parent maps, NDFS color sets, POR stacks — then keys on
  small ints whose hashes are free.
* :class:`TransitionCache` — memoizes the transition relation.  The
  interpreter runs once per distinct state; repeat visits (and repeat
  *checks*) get the compact :class:`CachedTransition` tuples back.
* :class:`StateGraph` — the façade the checkers share.  Build one per
  system, pass it to as many checkers as you like: checking N
  properties or N fault phases on the same architecture pays the
  exploration cost once.

All checkers in :mod:`repro.mc` accept a ``StateGraph`` wherever they
accept a ``System`` or ``Interpreter``; passing a plain system simply
builds a private graph, so single-shot calls behave exactly as before.
The breadth-first checkers and :meth:`StateGraph.explore` fill a graph
through one walk (``repro.mc.explore._bfs``), which discovers states
densely while the graph is cold.
Transition order is the interpreter's deterministic order, which is why
cached and uncached runs produce identical verdicts, shortest
counterexamples, and statistics (see
``tests/mc/test_engine_equivalence.py``).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from ..psl.interp import Interpreter, TransitionLabel
from ..psl.state import State
from ..psl.system import ProcessInstance, System

__all__ = ["CachedTransition", "StateGraph", "StateStore", "TransitionCache"]


class StateStore:
    """Interns states to dense integer ids (hash once, compare by int)."""

    __slots__ = ("_ids", "_states")

    def __init__(self) -> None:
        self._ids: Dict[State, int] = {}
        self._states: List[State] = []

    def intern(self, state: State) -> int:
        """The id of *state*, assigning the next free id on first sight."""
        sid = self._ids.get(state)
        if sid is None:
            sid = len(self._states)
            self._ids[state] = sid
            self._states.append(state)
        return sid

    def id_of(self, state: State) -> Optional[int]:
        """The id of *state* if it has been interned, else ``None``."""
        return self._ids.get(state)

    def state(self, sid: int) -> State:
        """The state interned under *sid*."""
        return self._states[sid]

    def __len__(self) -> int:
        return len(self._states)

    def __contains__(self, state: State) -> bool:
        return state in self._ids


class CachedTransition(NamedTuple):
    """One memoized transition: like ``Transition`` but with an int target."""

    label: TransitionLabel
    target: int
    violation: Optional[str]


class TransitionCache:
    """Memoizes ``Interpreter.transitions`` over interned state ids.

    Successor lists are computed at most once per distinct state, in the
    interpreter's deterministic order, with targets interned into the
    shared :class:`StateStore`.
    """

    __slots__ = ("interp", "store", "_succ", "_drive", "misses")

    def __init__(self, interp: Interpreter, store: StateStore) -> None:
        self.interp = interp
        self.store = store
        self._succ: Dict[int, Tuple[CachedTransition, ...]] = {}
        #: Number of distinct states actually expanded by the interpreter.
        self.misses = 0
        # A compiled interpreter provides a fused driver that interns
        # targets and emits CachedTransition directly, skipping the
        # wrap-and-intern second pass below.
        bind_engine = getattr(interp, "bind_engine", None)
        self._drive = None if bind_engine is None else bind_engine(store)

    def transitions(self, sid: int) -> Tuple[CachedTransition, ...]:
        cached = self._succ.get(sid)
        if cached is None:
            if self._drive is not None:
                cached = tuple(self._drive(self.store.state(sid)))
            else:
                intern = self.store.intern
                cached = tuple([
                    CachedTransition(label, intern(target), violation)
                    for label, target, violation
                    in self.interp.transitions(self.store.state(sid))
                ])
            self._succ[sid] = cached
            self.misses += 1
        return cached

    def peek(self, sid: int) -> Optional[Tuple[CachedTransition, ...]]:
        """The cached successor list, or ``None`` without computing it."""
        return self._succ.get(sid)

    def __len__(self) -> int:
        return len(self._succ)


class StateGraph:
    """A system's state space, explored lazily and shared across checkers.

    Wraps an :class:`~repro.psl.interp.Interpreter` with a
    :class:`StateStore` and a :class:`TransitionCache`.  The graph is a
    *cache*, not a snapshot: checkers pull transitions through
    :meth:`transitions` and the first checker to visit a state pays for
    it; later checkers (or later visits) get memoized results.  Budgeted
    runs therefore stay budgeted — nothing is explored eagerly.
    """

    __slots__ = ("interp", "store", "cache", "initial_id")

    def __init__(self, target: Union[System, Interpreter],
                 jit: Optional[bool] = None) -> None:
        if isinstance(target, Interpreter):
            self.interp = target
        else:
            from ..psl.jit import make_interpreter
            self.interp = make_interpreter(target, jit=jit)
        self.store = StateStore()
        self.cache = TransitionCache(self.interp, self.store)
        self.initial_id = self.store.intern(self.interp.initial_state())

    # -- delegation ---------------------------------------------------------

    @property
    def system(self) -> System:
        return self.interp.system

    def state(self, sid: int) -> State:
        return self.store.state(sid)

    def transitions(self, sid: int) -> Tuple[CachedTransition, ...]:
        return self.cache.transitions(sid)

    def successors(self, sid: int) -> List[int]:
        return [t.target for t in self.cache.transitions(sid)]

    def is_valid_end_state(self, sid: int) -> bool:
        return self.interp.is_valid_end_state(self.store.state(sid))

    def blocked_processes(self, sid: int) -> List[ProcessInstance]:
        return self.interp.blocked_processes(self.store.state(sid))

    # -- introspection ------------------------------------------------------

    @property
    def compile_stats(self) -> Optional[Dict[str, float]]:
        """JIT compilation counters, or ``None`` on the tree-walk path."""
        return getattr(self.interp, "compile_stats", None)

    @property
    def n_states_seen(self) -> int:
        """Distinct states interned so far (explored plus frontier)."""
        return len(self.store)

    @property
    def n_states_expanded(self) -> int:
        """Distinct states whose successor lists have been computed."""
        return len(self.cache)

    def explore(self, max_states: Optional[int] = None,
                reporter=None) -> int:
        """Eagerly expand the reachable graph breadth-first (pre-warming).

        Returns the number of distinct states interned.  ``max_states``
        stops the walk like a checker's state budget; the graph stays
        usable (and lazily completable) either way.  The walk is the one
        every breadth-first checker runs, so a pre-warmed graph interns
        its states in the order a cold check would.  ``reporter``
        receives engine events for the warm-up sweep (see
        :mod:`repro.obs`).
        """
        from .budget import Budget
        from .explore import _bfs
        from .result import Statistics
        obs = None
        if reporter is not None:
            from ..obs.events import RunInstrument
            obs = RunInstrument(reporter, "engine-explore", self,
                                max_states=max_states)
        stats = Statistics()
        _bfs(self, stats, Budget(max_states=max_states), obs)
        if obs is not None:
            stats.elapsed_seconds = obs.elapsed()
            obs.finish(ok=True, stats=stats, incomplete=stats.incomplete)
        return len(self.store)


def as_graph(target: Union[System, Interpreter, StateGraph]) -> StateGraph:
    """Coerce any checker target to a :class:`StateGraph`."""
    if isinstance(target, StateGraph):
        return target
    return StateGraph(target)
