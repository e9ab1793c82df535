"""LTL model checking: product construction and nested depth-first search.

To check a system against an LTL formula φ we follow SPIN's automata-
theoretic recipe:

1. translate ¬φ to a Büchi automaton (:mod:`repro.mc.buchi`);
2. build the synchronous product of the system's transition system with
   that automaton on the fly;
3. search the product for a reachable *accepting cycle* with the nested
   depth-first search of Courcoubetis, Vardi, Wolper & Yannakakis (in
   the improved formulation of Schwoon & Esparza that detects cycles
   against the blue-DFS stack).

A reachable accepting cycle is a system execution violating φ; it is
reported as a *lasso* counterexample (stem + cycle).  If no accepting
cycle exists, φ holds on all (infinite) executions.

Finite executions are handled by *stutter extension*: a state with no
successors repeats itself forever, which is the standard way to give
LTL semantics to deadlocking runs (SPIN's "trailing stutter").
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from ..obs.events import RunInstrument
from ..obs.reporters import Reporter
from ..psl.interp import Interpreter, TransitionLabel
from ..psl.system import System
from .buchi import BuchiAutomaton, BuchiState, ltl_to_buchi
from .budget import Budget
from .engine import StateGraph, as_graph
from .ltl import Formula, negate, parse_ltl
from .props import Prop
from .result import (
    Statistics,
    Trace,
    TraceStep,
    VerificationResult,
    VIOLATION_ACCEPTANCE_CYCLE,
)

#: A product node: (interned system state id, Büchi state id).
ProductNode = Tuple[int, int]

_STUTTER = TransitionLabel(
    pid=-1, process="(system)", kind="stutter", desc="deadlock stutter"
)


class _BudgetHit(Exception):
    """Internal: unwinds the NDFS when a graceful budget runs out."""

    def __init__(self, marker: str) -> None:
        super().__init__(marker)
        self.marker = marker


class _Product:
    """On-the-fly product of a system with a state-labeled Büchi automaton.

    System states are handled as interned ids of a shared
    :class:`~repro.mc.engine.StateGraph`, so product nodes are cheap
    ``(int, int)`` pairs and successor generation hits the graph's
    memoized transition relation.
    """

    def __init__(
        self,
        graph: StateGraph,
        automaton: BuchiAutomaton,
        props: Mapping[str, Prop],
        budget: Optional[Budget] = None,
        instrument: Optional[RunInstrument] = None,
    ) -> None:
        self.graph = graph
        self.interp = graph.interp
        self.automaton = automaton
        self.props = props
        self.budget = budget
        self.instrument = instrument
        self.by_id: Dict[int, BuchiState] = {s.id: s for s in automaton.states}
        self._val_cache: Dict[int, Dict[str, bool]] = {}
        self.stats = Statistics()

    def valuation(self, sid: int) -> Dict[str, bool]:
        cached = self._val_cache.get(sid)
        if cached is None:
            state = self.graph.state(sid)
            cached = {
                name: p.evaluate(self.interp.system, state)
                for name, p in self.props.items()
            }
            self._val_cache[sid] = cached
            if self.instrument is not None:
                stored = len(self._val_cache)
                self.instrument.tick(stored, stored,
                                     self.stats.transitions, 0)
            if self.budget is not None:
                # Every distinct system state passes through here exactly
                # once, so the valuation cache is the stored-state count.
                marker = self.budget.exceeded(len(self._val_cache))
                if marker is not None:
                    raise _BudgetHit(marker)
        return cached

    def initial_nodes(self) -> List[ProductNode]:
        s0 = self.graph.initial_id
        self.stats.states_stored += 1
        v0 = self.valuation(s0)
        return [
            (s0, q.id) for q in self.automaton.initial if q.satisfied_by(v0)
        ]

    def successors(
        self, node: ProductNode
    ) -> Iterator[Tuple[TransitionLabel, ProductNode]]:
        sid, qid = node
        transitions = self.graph.transitions(sid)
        self.stats.transitions += len(transitions)
        if transitions:
            moves: Iterable[Tuple[TransitionLabel, int]] = (
                (t.label, t.target) for t in transitions
            )
        else:
            moves = [(_STUTTER, sid)]  # stutter extension
        buchi_next = self.automaton.successors[qid]
        for label, target in moves:
            valuation = self.valuation(target)
            for q in buchi_next:
                if q.satisfied_by(valuation):
                    yield label, (target, q.id)

    def is_accepting(self, node: ProductNode) -> bool:
        return self.by_id[node[1]].accepting


@dataclass
class _Lasso:
    stem: List[Tuple[TransitionLabel, ProductNode]]
    cycle: List[Tuple[TransitionLabel, ProductNode]]


def _ndfs(product: _Product) -> Optional[_Lasso]:
    """Iterative nested DFS; returns a lasso if an accepting cycle exists."""
    blue: set = set()
    red: set = set()

    for init in product.initial_nodes():
        if init in blue:
            continue
        lasso = _blue_dfs(product, init, blue, red)
        if lasso is not None:
            return lasso
    return None


def _blue_dfs(
    product: _Product, root: ProductNode, blue: set, red: set
) -> Optional[_Lasso]:
    # Stack entries: (node, iterator over successors)
    cyan: set = {root}
    path: List[Tuple[TransitionLabel, ProductNode]] = []  # edge into each node
    stack: List[Tuple[ProductNode, Iterator]] = [(root, product.successors(root))]

    while stack:
        node, it = stack[-1]
        advanced = False
        for label, succ in it:
            if succ in cyan and (product.is_accepting(node) or product.is_accepting(succ)):
                # Early cycle detection against the blue stack.
                cycle = _cut_cycle(path, root, succ) + [(label, succ)]
                stem = _cut_stem(path, root, succ)
                return _Lasso(stem=stem, cycle=cycle)
            if succ not in blue and succ not in cyan:
                cyan.add(succ)
                path.append((label, succ))
                stack.append((succ, product.successors(succ)))
                advanced = True
                break
        if advanced:
            continue
        # Post-order on `node`.
        stack.pop()
        if product.is_accepting(node):
            hit = _red_dfs(product, node, cyan, red)
            if hit is not None:
                red_path, target = hit
                # stem: root -> node ; cycle: node ->(red) target ->(blue) node
                stem = list(path)
                back = _cut_cycle(path, root, target) if target != node else []
                # `back` walks target -> ... -> node along the blue stack.
                cycle = red_path + back
                return _Lasso(stem=stem, cycle=cycle)
        blue.add(node)
        cyan.discard(node)
        if path:
            path.pop()
    return None


def _cut_stem(
    path: List[Tuple[TransitionLabel, ProductNode]], root: ProductNode, target: ProductNode
) -> List[Tuple[TransitionLabel, ProductNode]]:
    """Prefix of the blue path from root up to (and including) target."""
    if target == root:
        return []
    out = []
    for label, node in path:
        out.append((label, node))
        if node == target:
            break
    return out


def _cut_cycle(
    path: List[Tuple[TransitionLabel, ProductNode]], root: ProductNode, start: ProductNode
) -> List[Tuple[TransitionLabel, ProductNode]]:
    """Suffix of the blue path strictly after `start` (start -> ... -> top)."""
    if start == root:
        return list(path)
    for i, (_, node) in enumerate(path):
        if node == start:
            return list(path[i + 1:])
    return list(path)


def _red_dfs(
    product: _Product, seed: ProductNode, cyan: set, red: set
) -> Optional[Tuple[List[Tuple[TransitionLabel, ProductNode]], ProductNode]]:
    """Search from an accepting seed for the seed itself or any cyan node.

    Returns the red path (edges from seed) and the node hit, or None.
    """
    path: List[Tuple[TransitionLabel, ProductNode]] = []
    on_path: set = {seed}
    stack: List[Tuple[ProductNode, Iterator]] = [(seed, product.successors(seed))]
    visited: set = set()

    while stack:
        node, it = stack[-1]
        advanced = False
        for label, succ in it:
            if succ == seed or succ in cyan:
                path.append((label, succ))
                return path, succ
            if succ not in red and succ not in visited and succ not in on_path:
                visited.add(succ)
                on_path.add(succ)
                path.append((label, succ))
                stack.append((succ, product.successors(succ)))
                advanced = True
                break
        if advanced:
            continue
        stack.pop()
        on_path.discard(node)
        red.add(node)
        if path:
            path.pop()
    return None


def check_ltl(
    target: Union[System, Interpreter, StateGraph],
    formula: Union[str, Formula],
    props: Union[Mapping[str, Prop], Sequence[Prop]],
    weak_fairness: bool = False,
    max_states: Optional[int] = None,
    max_seconds: Optional[float] = None,
    raise_on_limit: bool = False,
    reporter: Optional[Reporter] = None,
) -> VerificationResult:
    """Check that every execution of the system satisfies the LTL formula.

    ``props`` binds the formula's atomic propositions to state
    predicates; it may be a mapping ``name -> Prop`` or a sequence of
    props (bound by their own names).

    ``weak_fairness=True`` restricts attention to weakly fair runs — a
    process that is continuously enabled must eventually execute — via
    the counter construction of :mod:`repro.mc.fairness` (SPIN's ``-f``).
    This multiplies the product by roughly the process count; use it for
    liveness properties that an unfair scheduler could trivially defeat.

    ``max_states`` / ``max_seconds`` bound the search over distinct
    *system* states; an exhausted budget returns a partial
    ``incomplete=True`` result (no counterexample found so far) unless
    ``raise_on_limit`` is set.
    """
    graph = as_graph(target)
    parsed = parse_ltl(formula) if isinstance(formula, str) else formula
    prop_map = _as_prop_map(props)
    missing = parsed.atoms() - set(prop_map)
    if missing:
        raise KeyError(f"formula uses unbound propositions: {sorted(missing)}")

    budget: Optional[Budget] = None
    if max_states is not None or max_seconds is not None:
        budget = Budget(max_states=max_states, max_seconds=max_seconds,
                        raise_on_limit=raise_on_limit)
    start = time.perf_counter()
    obs = None if reporter is None else RunInstrument(
        reporter, "ltl-ndfs-fair" if weak_fairness else "ltl-ndfs", graph,
        max_states=max_states, max_seconds=max_seconds, started_at=start)
    automaton = ltl_to_buchi(negate(parsed))
    if weak_fairness:
        from .fairness import FairProduct
        product = FairProduct(graph, automaton, prop_map, budget=budget,
                              instrument=obs)
        val_cache = product._plain._val_cache
    else:
        product = _Product(graph, automaton, prop_map, budget=budget,
                           instrument=obs)
        val_cache = product._val_cache
    exhausted: Optional[str] = None
    try:
        lasso = _ndfs(product)
    except _BudgetHit as hit:
        lasso = None
        exhausted = hit.marker
    stats = product.stats
    stats.states_stored = len(val_cache)
    stats.elapsed_seconds = time.perf_counter() - start
    stats.apply_compile_stats(graph.compile_stats)

    fairness_note = " (under weak fairness)" if weak_fairness else ""
    if exhausted is not None:
        stats.incomplete = True
        stats.budget_exhausted = exhausted
        if obs is not None:
            obs.budget(exhausted, stats.states_stored)
            obs.finish(ok=True, stats=stats, incomplete=True)
        return VerificationResult(
            ok=True,
            message=(f"search stopped early ({exhausted} exhausted); "
                     "no accepting cycle found so far" + fairness_note),
            stats=stats,
            property_text=str(parsed),
            incomplete=True,
            budget_exhausted=exhausted,
        )
    if lasso is None:
        if obs is not None:
            obs.finish(ok=True, stats=stats)
        return VerificationResult(
            ok=True,
            message=("no accepting cycle: property holds on all executions"
                     + fairness_note),
            stats=stats,
            property_text=str(parsed),
        )
    initial = graph.state(graph.initial_id)
    steps = [
        TraceStep(label, graph.state(node[0]))
        for label, node in lasso.stem + lasso.cycle
    ]
    trace = Trace(initial=initial, steps=steps, cycle_start=len(lasso.stem))
    if obs is not None:
        obs.counterexample(kind=VIOLATION_ACCEPTANCE_CYCLE,
                           message=f"execution violating {parsed} found",
                           trace_length=len(steps))
        obs.finish(ok=False, stats=stats)
    return VerificationResult(
        ok=False,
        kind=VIOLATION_ACCEPTANCE_CYCLE,
        message=(f"execution violating {parsed} found (lasso counterexample)"
                 + fairness_note),
        trace=trace,
        stats=stats,
        property_text=str(parsed),
    )


def _as_prop_map(
    props: Union[Mapping[str, Prop], Sequence[Prop]]
) -> Dict[str, Prop]:
    if isinstance(props, Mapping):
        return dict(props)
    return {p.name: p for p in props}
