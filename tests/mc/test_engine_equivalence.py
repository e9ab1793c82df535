"""Differential suite: the shared engine vs fresh-interpreter runs.

Every checker accepts either a ``System`` (a fresh interpreter is built
and the space re-explored) or a shared :class:`~repro.mc.engine.StateGraph`
(interned states + memoized transition relation).  These tests pin the
engine-overhaul contract across every ``repro.systems`` case study:

* identical verdicts, messages, and shortest counterexamples;
* identical state/transition/expansion statistics;
* whether the graph is cold, pre-warmed by a different checker, or
  reused for a second run — with or without a budget, a reporter, or
  the compiled driver;
* whether a resilience sweep runs serially or over a process pool.
"""

import pytest

from repro.core import ModelLibrary, verify_resilience
from repro.core.channels import CHANNEL_SPECS
from repro.core.ports import SEND_PORT_SPECS
from repro.mc import (
    StateGraph,
    check_ltl,
    check_safety,
    check_safety_por,
    count_states,
    find_state,
    sweep_safety,
)
from repro.obs import EVENT_PROGRESS, CollectingReporter
from repro.systems.abp import abp_delivery_prop, abp_fault_scenarios, build_abp
from repro.systems.bridge import (
    BridgeConfig,
    bridge_fault_scenarios,
    bridge_safety_prop,
    build_exactly_n_bridge,
    crash_prop,
    fix_exactly_n_bridge,
)
from repro.systems.gas_station import all_fueled_prop, build_gas_station
from repro.systems.producer_consumer import simple_pair
from repro.systems.pubsub import build_pubsub
from repro.systems.rpc import build_rpc


def _bridge_fixed():
    arch = fix_exactly_n_bridge(
        build_exactly_n_bridge(BridgeConfig(1, 1, trips=1)))
    return arch.to_system(fused=True)


def _bridge_initial():
    return build_exactly_n_bridge(
        BridgeConfig(1, 1, trips=1)).to_system(fused=True)


def _producer_consumer():
    return simple_pair(SEND_PORT_SPECS[0], CHANNEL_SPECS[0],
                       messages=2).to_system(fused=True)


def _gas_station():
    return build_gas_station(customers=2).to_system(fused=True)


def _pubsub():
    return build_pubsub().to_system(fused=True)


def _rpc():
    return build_rpc().to_system(fused=True)


def _abp():
    return build_abp(messages=1, max_sends=2,
                     receiver_polls=2).to_system(fused=True)


#: (system factory, invariants factory, check_deadlock) per case study.
CASES = [
    pytest.param(_bridge_fixed, lambda: [bridge_safety_prop()], True,
                 id="bridge-fixed"),
    pytest.param(_bridge_initial, lambda: [bridge_safety_prop()], False,
                 id="bridge-initial"),
    pytest.param(_producer_consumer, lambda: [], True,
                 id="producer-consumer"),
    pytest.param(_gas_station, lambda: [], True, id="gas-station"),
    pytest.param(_pubsub, lambda: [], True, id="pubsub"),
    pytest.param(_rpc, lambda: [], True, id="rpc"),
    pytest.param(_abp, lambda: [], False, id="abp"),
]


def _assert_same_trace(cached, fresh):
    if fresh is None or cached is None:
        assert cached is None and fresh is None
        return
    assert len(cached) == len(fresh)
    assert [s.label for s in cached.steps] == [s.label for s in fresh.steps]
    assert cached.initial == fresh.initial
    if len(fresh) > 0:
        assert cached.final_state == fresh.final_state


def _assert_same_result(cached, fresh):
    assert cached.ok == fresh.ok
    assert cached.kind == fresh.kind
    assert cached.message == fresh.message
    assert cached.stats.states_stored == fresh.stats.states_stored
    assert cached.stats.transitions == fresh.stats.transitions
    assert cached.stats.states_expanded == fresh.stats.states_expanded
    _assert_same_trace(cached.trace, fresh.trace)


@pytest.mark.parametrize("build,invariants,check_deadlock", CASES)
def test_safety_and_counting_match_fresh_runs(build, invariants,
                                              check_deadlock):
    """Cold, warm, and re-used graphs all reproduce the fresh verdicts."""
    fresh_count = count_states(build())
    fresh = check_safety(build(), invariants=invariants(),
                         check_deadlock=check_deadlock)

    graph = StateGraph(build())
    cold = check_safety(graph, invariants=invariants(),
                        check_deadlock=check_deadlock)
    # The graph now holds (at least) every state the sweep visited; both
    # re-runs below must reuse the cache yet report identical numbers.
    warm = check_safety(graph, invariants=invariants(),
                        check_deadlock=check_deadlock)
    warm_count = count_states(graph)

    _assert_same_result(cold, fresh)
    _assert_same_result(warm, fresh)
    assert warm_count.states_stored == fresh_count.states_stored
    assert warm_count.transitions == fresh_count.transitions
    assert warm_count.states_expanded == fresh_count.states_expanded


@pytest.fixture(scope="module")
def explored():
    """Fully explored graphs, one per case, shared by the budgets (the
    budgeted walks only read them)."""
    graphs = {}

    def get(build):
        if build not in graphs:
            graphs[build] = StateGraph(build())
            graphs[build].explore()
        return graphs[build]

    yield get
    graphs.clear()


def _progress(events):
    return [(e.data["states_stored"], e.data["states_expanded"],
             e.data["transitions"], e.data["frontier"])
            for e in events if e.type == EVENT_PROGRESS]


@pytest.mark.parametrize("budget", [1, 25, 777, 5000])
@pytest.mark.parametrize("build,invariants,check_deadlock", CASES)
def test_budgeted_cold_walk_matches_warm_walk(build, invariants,
                                              check_deadlock, budget,
                                              explored):
    """A budgeted, instrumented walk is dense on a cold graph; its partial
    result and progress stream must match the general walk's on a warm
    graph."""
    def walk(graph):
        rep = CollectingReporter(interval=7)
        report = sweep_safety(graph, invariants=invariants(),
                              check_deadlock=check_deadlock,
                              max_states=budget, reporter=rep)
        return report, _progress(rep.events)

    cold, cold_progress = walk(StateGraph(build()))
    warm, warm_progress = walk(explored(build))
    assert cold.incomplete == warm.incomplete
    assert cold.budget_exhausted == warm.budget_exhausted
    assert [r.kind for r in cold.results] == [r.kind for r in warm.results]
    assert cold.stats.states_stored == warm.stats.states_stored
    assert cold.stats.states_expanded == warm.stats.states_expanded
    assert cold.stats.transitions == warm.stats.transitions
    assert cold_progress == warm_progress


@pytest.mark.parametrize("build,invariants,check_deadlock", CASES)
def test_tree_walk_cold_graph_matches_warm_graph(build, invariants,
                                                 check_deadlock):
    """Without a compiled driver the cold walk is still dense."""
    graph = StateGraph(build(), jit=False)
    cold = check_safety(graph, invariants=invariants(),
                        check_deadlock=check_deadlock)
    warm = check_safety(graph, invariants=invariants(),
                        check_deadlock=check_deadlock)
    compiled = check_safety(build(), invariants=invariants(),
                            check_deadlock=check_deadlock)
    _assert_same_result(cold, warm)
    _assert_same_result(cold, compiled)


#: (system factory, goal prop factory, reachable?) for witness searches.
GOAL_CASES = [
    pytest.param(_bridge_initial, crash_prop, True, id="bridge-crash"),
    pytest.param(_bridge_fixed, crash_prop, False, id="bridge-fixed-no-crash"),
    pytest.param(_abp, lambda: abp_delivery_prop(messages=1), True,
                 id="abp-delivery"),
    pytest.param(_gas_station, lambda: all_fueled_prop(customers=2), True,
                 id="gas-all-fueled"),
]


@pytest.mark.parametrize("build,goal,reachable", GOAL_CASES)
def test_find_state_matches_fresh_runs(build, goal, reachable):
    fresh = find_state(build(), goal())
    graph = StateGraph(build())
    count_states(graph)  # fully warm the transition cache first
    cached = find_state(graph, goal())
    if not reachable:
        assert fresh is None and cached is None
        return
    assert fresh is not None and cached is not None
    assert len(cached) == len(fresh)  # shortest-witness length is preserved
    assert [s.label for s in cached.steps] == [s.label for s in fresh.steps]
    assert cached.final_state == fresh.final_state


@pytest.mark.parametrize("build,holds", [
    pytest.param(_bridge_fixed, True, id="bridge-fixed"),
    pytest.param(_bridge_initial, False, id="bridge-initial"),
])
def test_ltl_matches_fresh_runs(build, holds):
    props = {"safe": bridge_safety_prop()}
    fresh = check_ltl(build(), "G safe", props)
    graph = StateGraph(build())
    check_safety(graph, check_deadlock=False)  # warm via a different checker
    cached = check_ltl(graph, "G safe", props)
    assert fresh.ok == cached.ok == holds
    assert cached.message == fresh.message
    _assert_same_trace(cached.trace, fresh.trace)


@pytest.mark.parametrize("build,invariants,check_deadlock", CASES)
def test_por_matches_fresh_runs(build, invariants, check_deadlock):
    """POR on a warm shared graph gives the verdict of a fresh POR run."""
    fresh = check_safety_por(build(), invariants=invariants(),
                             check_deadlock=check_deadlock)
    graph = StateGraph(build())
    count_states(graph)  # cached full relation feeds the ample-set filter
    cached = check_safety_por(graph, invariants=invariants(),
                              check_deadlock=check_deadlock)
    assert cached.ok == fresh.ok
    assert cached.kind == fresh.kind
    assert cached.stats.states_stored == fresh.stats.states_stored
    assert cached.stats.transitions == fresh.stats.transitions
    _assert_same_trace(cached.trace, fresh.trace)


class TestParallelResilience:
    @pytest.fixture(autouse=True)
    def _force_parallel(self, monkeypatch):
        # The pool is CPU-gated (1 CPU => serial fallback); these tests
        # pin pool behavior itself, so they must run it even on 1-CPU CI.
        monkeypatch.setenv("REPRO_FORCE_PARALLEL", "1")

    """jobs=N must reproduce the serial sweep verdict-for-verdict."""

    def _sweep(self, jobs):
        # The fault channels inflate the abp space well past what a unit
        # test should sweep; the state budget keeps the faulted scenarios
        # cheap *and* pins that budget-bounded UNKNOWN verdicts cross the
        # process pool identically (the baseline stays complete/robust).
        return verify_resilience(
            build_abp(messages=1, max_sends=2, receiver_polls=2),
            faults=abp_fault_scenarios()[:2],
            goal=abp_delivery_prop(messages=1),
            check_deadlock=False,
            library=ModelLibrary(),
            max_states=20_000,
            fused=True,
            jobs=jobs,
        )

    def test_parallel_matches_serial(self):
        serial = self._sweep(jobs=1)
        parallel = self._sweep(jobs=2)
        assert serial.scenario("baseline").verdict == "robust"
        assert [s.name for s in parallel] == [s.name for s in serial]
        assert [s.verdict for s in parallel] == [s.verdict for s in serial]
        assert [s.detail for s in parallel] == [s.detail for s in serial]
        assert ([s.safety.stats.states_stored for s in parallel]
                == [s.safety.stats.states_stored for s in serial])
        assert ([s.safety.stats.transitions for s in parallel]
                == [s.safety.stats.transitions for s in serial])
        for p, s in zip(parallel, serial):
            _assert_same_trace(p.trace, s.trace)

    def test_parallel_bridge_matches_serial(self):
        kwargs = dict(
            faults=bridge_fault_scenarios(),
            invariants=[bridge_safety_prop()],
            fused=True,
        )
        arch = fix_exactly_n_bridge(build_exactly_n_bridge())
        serial = verify_resilience(arch, jobs=1, library=ModelLibrary(),
                                   **kwargs)
        parallel = verify_resilience(arch, jobs=2, library=ModelLibrary(),
                                     **kwargs)
        assert [s.verdict for s in parallel] == [s.verdict for s in serial]
        assert [s.detail for s in parallel] == [s.detail for s in serial]
        assert ([s.safety.stats.states_stored for s in parallel]
                == [s.safety.stats.states_stored for s in serial])

    def test_unpicklable_goal_falls_back_to_serial(self):
        from repro.mc import global_prop
        # A lambda prop cannot cross a process boundary; the sweep must
        # fall back to the serial path, still be correct, and say so.
        lam = global_prop("delivered", lambda v: v.global_("delivered") == 1,
                          "delivered")
        report = verify_resilience(
            build_abp(messages=1, max_sends=2, receiver_polls=2),
            faults=abp_fault_scenarios()[:1],
            goal=lam,
            check_deadlock=False,
            max_states=20_000,
            fused=True,
            jobs=4,
        )
        assert len(report.scenarios) == 2  # baseline + 1 fault
        assert report.ok
        assert report.scenario("baseline").verdict == "robust"
        assert any("degraded to a serial run" in w for w in report.warnings)

    def test_single_cpu_degrades_to_serial_with_warning(self, monkeypatch):
        import repro.core.resilience as resilience_mod
        monkeypatch.delenv("REPRO_FORCE_PARALLEL", raising=False)
        monkeypatch.setattr(resilience_mod.os, "cpu_count", lambda: 1)
        report = self._sweep(jobs=2)
        assert report.ok
        assert report.scenario("baseline").verdict == "robust"
        assert any("only 1 CPU" in w for w in report.warnings)


class TestExplorationEncodingEquivalence:
    """Fused vs composed inside a design-space exploration.

    The two encodings of one design are *different jobs* to the cache
    (distinct state vectors, distinct fingerprints) but must agree on
    every verdict — the fused optimization is supposed to be invisible
    to verification outcomes.  A cache-served second exploration must
    reproduce the first verdict-for-verdict.
    """

    def _space(self):
        from repro.design import (
            ChannelAxis,
            DesignSpace,
            EncodingAxis,
            SendPortAxis,
        )
        return DesignSpace(
            "pc_encodings",
            simple_pair(SEND_PORT_SPECS[0], CHANNEL_SPECS[0], messages=1),
            axes=[
                ChannelAxis("link", CHANNEL_SPECS[:2]),
                SendPortAxis("link", SEND_PORT_SPECS[:2],
                             component="Producer0"),
                EncodingAxis(),  # fastest axis: composed/fused adjacent
            ],
        )

    def test_encodings_fingerprint_apart_but_verify_alike(self):
        from repro.design import explore, fingerprint_job
        space = self._space()
        fingerprints = [
            fingerprint_job(v.build().to_system(fused=v.fused))
            for v in space.variants()
        ]
        assert len(set(fingerprints)) == len(fingerprints)

        report = explore(space)
        # The encoding axis is declared last, so records pair up as
        # (composed, fused) runs of the same port/channel design.
        for composed, fused in zip(report.results[0::2],
                                   report.results[1::2]):
            assert composed["fused"] is False and fused["fused"] is True
            assert composed["verdict"] == fused["verdict"]
            assert composed["detail"] == fused["detail"]
            assert composed["safety"]["ok"] == fused["safety"]["ok"]

    def test_cached_second_exploration_is_identical(self, tmp_path):
        from repro.design import explore, open_cache
        cold = explore(self._space(), cache=open_cache(tmp_path))
        warm = explore(self._space(), cache=open_cache(tmp_path))
        assert all(r["cached"] for r in warm.results)
        for first, second in zip(cold.results, warm.results):
            assert first["verdict"] == second["verdict"]
            assert first["states"] == second["states"]
            assert first["detail"] == second["detail"]
        assert ([(r["variant"], r["front"]) for r in warm.ranked]
                == [(r["variant"], r["front"]) for r in cold.ranked])
