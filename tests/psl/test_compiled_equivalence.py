"""Differential suite: compiled execution ≡ tree-walk on every system.

Every architecture shipped in ``repro.systems`` runs through both
backends, fused and composed: identical transition labels, identical
successor sets, and identical ``check_safety`` verdicts (down to
``states_expanded``).  The compiled side is checked in both of its
modes: the plain ``transitions()`` API and the engine-mode programs a
``StateGraph`` walk runs.  This is the safety net behind ``--no-jit`` —
the flag may change speed, never a verdict.

Exploration is capped per case so the whole suite stays fast; both
backends get the same cap, so any divergence still trips the asserts.
One case fails an assertion within its cap, so violations are compared
too.  Programs read back from a program store are checked against
freshly compiled ones on every case.
"""

import pytest

from repro.core import SingleSlotBuffer, SynBlockingSend
from repro.mc import StateGraph, check_safety
from repro.psl import Assign, ProcessDef, System, V
from repro.psl.expr import Expr
from repro.psl.interp import Interpreter
from repro.psl.jit import (
    CompiledInterpreter,
    clear_program_cache,
    make_interpreter,
    program_store,
)
from repro.systems.abp import build_abp
from repro.systems.bridge import (
    bridge_safety_prop,
    build_exactly_n_bridge,
    fix_exactly_n_bridge,
)
from repro.systems.dining import build_dining
from repro.systems.gas_station import build_gas_station
from repro.systems.producer_consumer import simple_pair
from repro.systems.pubsub import build_pubsub
from repro.systems.rpc import build_rpc

ARCHES = {
    "bridge": lambda: fix_exactly_n_bridge(build_exactly_n_bridge()),
    "bridge_buggy": lambda: build_exactly_n_bridge(),
    "abp": lambda: build_abp(messages=1, max_sends=2),
    "gas_station": lambda: build_gas_station(customers=2,
                                             selective_delivery=True),
    "gas_station_failing": lambda: build_gas_station(
        customers=2, selective_delivery=False),
    "producer_consumer": lambda: simple_pair(
        SynBlockingSend(), SingleSlotBuffer(), messages=2),
    "dining": lambda: build_dining(philosophers=2),
    "pubsub": lambda: build_pubsub(),
    "rpc": lambda: build_rpc(),
}

#: Cases whose composed form is too large to walk here: the failing gas
#: station's composed system needs ~682k states to reach its violation.
FUSED_ONLY = {"gas_station_failing"}

CASES = [
    pytest.param(name, fused, id=f"{name}-{'fused' if fused else 'composed'}")
    for name in ARCHES for fused in (True, False)
    if fused or name not in FUSED_ONLY
]

#: State budget per case — big enough to cover whole small systems and
#: a meaningful prefix of the large ones, small enough to keep the
#: 34-case matrix under a few seconds per backend.
CAP = 2000

#: Larger budgets.  The failing gas station's breadth-first walk fails
#: ``assert((delivery == 1))`` in Customer1 while expanding its 7,901st
#: state, with 8,280 stored.
CAPS = {"gas_station_failing": 9000}


class Twice(Expr):
    """A node outside the core grammar: neither canon nor the JIT knows it."""

    __slots__ = ("operand",)

    def __init__(self, operand):
        self.operand = operand

    def eval(self, ctx):
        return 2 * self.operand.eval(ctx)

    def free_vars(self):
        return self.operand.free_vars()

    def to_promela(self):
        return f"(2 * {self.operand.to_promela()})"


def _label_key(label):
    return (label.pid, label.process, label.kind, label.desc, label.chan,
            label.message, label.partner_pid, label.partner)


def _walk(interp, limit=CAP):
    """Deterministic bounded BFS: (edge list, number of distinct states).

    States are numbered in encounter order, so two interpreters with
    identical per-state transition lists produce identical edge lists —
    any reordering, relabeling, or divergent successor shows up as a
    plain list inequality.
    """
    init = interp.initial_state()
    ids = {init: 0}
    order = [init]
    edges = []
    frontier = 0
    while frontier < len(order) and frontier < limit:
        state = order[frontier]
        for t in interp.transitions(state):
            tid = ids.get(t.target)
            if tid is None:
                tid = len(order)
                ids[t.target] = tid
                order.append(t.target)
            edges.append((frontier, _label_key(t.label), tid, t.violation))
        frontier += 1
    return edges, len(order)


def _engine_lists(graph, limit=CAP):
    """``_successor_lists`` of the engine-mode programs a graph walk runs."""
    def engine(state):
        for t in graph.transitions(graph.store.id_of(state)):
            yield _label_key(t.label), graph.state(t.target), t.violation

    return _successor_lists(graph.state(graph.initial_id), engine, limit)


def _successor_lists(initial, successors, limit=CAP):
    """Each state's successor list, in bounded BFS order.

    ``successors(state)`` yields ``(label key, target state, violation)``
    triples.  Targets stay full states, so a wrong component shows even
    where ``_walk``'s encounter numbering would agree.
    """
    order = [initial]
    seen = {initial}
    lists = []
    while len(lists) < len(order) and len(lists) < limit:
        succ = list(successors(order[len(lists)]))
        lists.append(succ)
        for _label, target, _violation in succ:
            if target not in seen:
                seen.add(target)
                order.append(target)
    return lists


class TestTransitionEquivalence:
    @pytest.mark.parametrize("name,fused", CASES)
    def test_same_labels_and_successors(self, name, fused):
        system = ARCHES[name]().to_system(fused=fused)
        cap = CAPS.get(name, CAP)
        compiled = make_interpreter(system, jit=True)
        treewalk = make_interpreter(system, jit=False)
        assert isinstance(compiled, CompiledInterpreter)
        assert type(treewalk) is Interpreter
        assert compiled.initial_state() == treewalk.initial_state()
        edges = _walk(treewalk, cap)
        assert _walk(compiled, cap) == edges
        if name in CAPS:
            assert any(violation for *_, violation in edges[0])

        # Third backend: the engine-mode programs a StateGraph walk runs.
        graph = StateGraph(system, jit=True)
        assert isinstance(graph.interp, CompiledInterpreter)

        def tree(state):
            for t in treewalk.transitions(state):
                yield _label_key(t.label), t.target, t.violation

        initial = graph.state(graph.initial_id)
        assert initial == treewalk.initial_state()
        assert (_engine_lists(graph, cap)
                == _successor_lists(initial, tree, cap))


class TestVerdictEquivalence:
    @pytest.mark.parametrize("name,fused", CASES)
    def test_check_safety_agrees(self, name, fused):
        arch = ARCHES[name]()
        invariants = [bridge_safety_prop()] if name.startswith("bridge") \
            else []
        results = []
        for jit in (True, False):
            graph = StateGraph(arch.to_system(fused=fused), jit=jit)
            results.append(check_safety(graph, invariants=invariants,
                                        max_states=CAPS.get(name, CAP)))
        jitted, walked = results
        if name in CAPS:
            assert jitted.kind == walked.kind == "assertion"
        assert jitted.ok == walked.ok
        assert jitted.incomplete == walked.incomplete
        assert jitted.kind == walked.kind
        assert jitted.message == walked.message
        assert jitted.stats.states_stored == walked.stats.states_stored
        assert jitted.stats.states_expanded == walked.stats.states_expanded
        assert jitted.stats.transitions == walked.stats.transitions
        if jitted.trace is not None or walked.trace is not None:
            mine = [s.label.pretty() for s in jitted.trace.steps]
            theirs = [s.label.pretty() for s in walked.trace.steps]
            assert mine == theirs

    def test_buggy_bridge_fails_identically_in_full(self):
        # One uncapped failing run: the counterexample itself must match.
        arch = build_exactly_n_bridge()
        runs = [
            check_safety(StateGraph(arch.to_system(fused=True), jit=jit),
                         invariants=[bridge_safety_prop()],
                         check_deadlock=False)
            for jit in (True, False)
        ]
        assert not runs[0].ok and not runs[1].ok
        assert runs[0].kind == runs[1].kind
        assert runs[0].message == runs[1].message
        assert ([s.label.pretty() for s in runs[0].trace.steps]
                == [s.label.pretty() for s in runs[1].trace.steps])


class TestStoredPrograms:
    @pytest.mark.parametrize("name,fused", CASES)
    def test_programs_read_from_a_store_walk_like_fresh_ones(
            self, name, fused, tmp_path):
        system = ARCHES[name]().to_system(fused=fused)
        n = len(system.instances)
        graphs = []
        for _ in range(2):
            clear_program_cache()
            with program_store(str(tmp_path)):
                graphs.append(StateGraph(system, jit=True))
        fresh, stored = graphs
        assert fresh.compile_stats["programs_compiled"] == n
        assert stored.compile_stats["programs_compiled"] == 0
        assert stored.compile_stats["digest_hits"] == n
        cap = CAPS.get(name, CAP)
        assert _engine_lists(stored, cap) == _engine_lists(fresh, cap)


class TestBackendSelection:
    def test_env_escape_hatch_forces_tree_walk(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_JIT", "1")
        system = ARCHES["rpc"]().to_system(fused=True)
        assert type(make_interpreter(system)) is Interpreter
        monkeypatch.delenv("REPRO_NO_JIT")
        assert isinstance(make_interpreter(system), CompiledInterpreter)

    def test_tree_walk_graph_reports_no_compile_stats(self):
        system = ARCHES["rpc"]().to_system(fused=True)
        assert StateGraph(system, jit=False).compile_stats is None
        assert StateGraph(system, jit=True).compile_stats is not None

    def test_definition_canon_cannot_digest_falls_back_at_construction(self):
        system = System("twice")
        system.spawn(ProcessDef("p", Assign("x", Twice(V("x") + 1)),
                                local_vars={"x": 0}), "p")
        assert type(make_interpreter(system, jit=True)) is Interpreter
        graph = StateGraph(system, jit=True)
        assert graph.compile_stats is None
        jitted = check_safety(graph)
        walked = check_safety(StateGraph(system, jit=False))
        assert jitted.ok and walked.ok
        assert jitted.stats.states_stored == walked.stats.states_stored == 2
        assert graph.state(1).frames[0] == (2,)
