"""Unit tests for engine events and the built-in reporters."""

import io
import json
import pickle

from repro.obs import (
    EVENT_COMPILE,
    EVENT_PHASE,
    EVENT_PROGRESS,
    EVENT_RUN_FINISHED,
    EVENT_RUN_STARTED,
    PHASE_COLD,
    PHASE_WARM,
    CollectingReporter,
    EngineEvent,
    JsonlReporter,
    NullReporter,
    ProgressReporter,
    ScenarioScope,
    TeeReporter,
)
from repro.obs.events import (
    RunInstrument,
    progress,
    run_started,
    scenario_finished,
    sweep_started,
)


class TestEngineEvent:
    def test_to_dict_flattens_payload(self):
        e = progress("safety-bfs", states_stored=10, states_expanded=8,
                     transitions=40, frontier=2, elapsed=0.5)
        d = e.to_dict()
        assert d["type"] == EVENT_PROGRESS
        assert d["checker"] == "safety-bfs"
        assert d["states_stored"] == 10
        assert d["states_per_second"] == 20.0
        assert "scenario" not in d

    def test_scenario_tag_serializes(self):
        e = scenario_finished("lossy", verdict="robust", detail="ok",
                              states_stored=5, seconds=0.1)
        assert e.to_dict()["scenario"] == "lossy"

    def test_events_are_picklable(self):
        e = run_started("safety-bfs", system="s", processes=3,
                        cache=PHASE_COLD, max_states=100)
        clone = pickle.loads(pickle.dumps(e))
        assert clone == e

    def test_payload_is_json_serializable(self):
        e = sweep_started("abp", scenarios=4, jobs=2)
        assert json.loads(json.dumps(e.to_dict()))["scenarios"] == 4


class TestReporters:
    def test_collecting_reporter_buffers_in_order(self):
        rep = CollectingReporter()
        events = [EngineEvent("a"), EngineEvent("b"), EngineEvent("c")]
        for e in events:
            rep.emit(e)
        assert rep.events == events

    def test_replay_into_re_emits_everything(self):
        src, dst = CollectingReporter(), CollectingReporter()
        src.emit(EngineEvent("a"))
        src.emit(EngineEvent("b"))
        src.replay_into(dst)
        assert dst.events == src.events
        src.replay_into(None)  # no-op, no crash

    def test_tee_broadcasts_and_takes_finest_interval(self):
        a = CollectingReporter(interval=100)
        b = CollectingReporter(interval=5000)
        tee = TeeReporter([a, b])
        assert tee.interval == 100
        tee.emit(EngineEvent("x"))
        assert len(a.events) == len(b.events) == 1

    def test_jsonl_reporter_writes_one_sorted_object_per_line(self):
        buf = io.StringIO()
        rep = JsonlReporter(buf)
        rep.emit(progress("c", states_stored=1, states_expanded=1,
                          transitions=2, frontier=1, elapsed=0.0))
        rep.emit(EngineEvent("run_finished", "c"))
        lines = buf.getvalue().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["type"] == "progress"
        # keys sorted -> byte-stable logs
        assert lines[0] == json.dumps(first, sort_keys=True,
                                      separators=(",", ":"))

    def test_jsonl_reporter_owns_path_stream(self, tmp_path):
        path = tmp_path / "events.jsonl"
        rep = JsonlReporter(str(path))
        rep.emit(EngineEvent("a"))
        rep.close()
        assert path.read_text().strip() == '{"type":"a"}'

    def test_scenario_scope_tags_untagged_events_only(self):
        inner = CollectingReporter()
        scope = ScenarioScope(inner, "lossy")
        scope.emit(EngineEvent("a"))
        already = EngineEvent("b", scenario="other")
        scope.emit(already)
        assert inner.events[0].scenario == "lossy"
        assert inner.events[1].scenario == "other"

    def test_null_reporter_discards(self):
        NullReporter().emit(EngineEvent("a"))  # nothing to assert: no crash


class TestProgressReporter:
    def _events(self):
        return [
            run_started("safety-bfs", system="s", processes=2,
                        cache=PHASE_COLD, max_states=1000),
            progress("safety-bfs", states_stored=500, states_expanded=400,
                     transitions=900, frontier=10, elapsed=1.0),
            EngineEvent(EVENT_RUN_FINISHED, "safety-bfs", data={
                "ok": True, "verdict": "PASS", "states_stored": 900,
                "transitions": 2000, "elapsed": 2.0, "incomplete": False}),
        ]

    def test_non_tty_stream_gets_one_line_per_update(self):
        buf = io.StringIO()
        rep = ProgressReporter(stream=buf, min_seconds=0.0)
        for e in self._events():
            rep.emit(e)
        out = buf.getvalue()
        assert "\r" not in out
        assert "exploring s" in out
        assert "500 states" in out
        assert "ETA" in out  # max_states budget -> ETA shown
        assert "PASS" in out

    def test_phase_event_updates_badge(self):
        buf = io.StringIO()
        rep = ProgressReporter(stream=buf, min_seconds=0.0)
        rep.emit(run_started("c", system="s", processes=1, cache=PHASE_COLD))
        rep.emit(EngineEvent(EVENT_PHASE, "c", data={
            "from": PHASE_COLD, "to": PHASE_WARM, "states_expanded": 10}))
        rep.emit(progress("c", states_stored=10, states_expanded=10,
                          transitions=5, frontier=1, elapsed=0.1))
        assert "warm" in buf.getvalue().splitlines()[-1]


class TestRunInstrument:
    def _graph(self):
        from repro.mc.engine import StateGraph
        from repro.systems.bridge import (
            build_exactly_n_bridge,
            fix_exactly_n_bridge,
        )
        arch = fix_exactly_n_bridge(build_exactly_n_bridge())
        return StateGraph(arch.to_system(fused=True))

    def test_emits_run_started_on_construction(self):
        rep = CollectingReporter()
        graph = self._graph()
        RunInstrument(rep, "safety-bfs", graph)
        kinds = [e.type for e in rep.events]
        # The compile event waits for the run's end (see below).
        assert kinds == [EVENT_RUN_STARTED]
        assert rep.events[0].data["cache"] == PHASE_COLD

    def test_compile_event_is_one_shot_per_interpreter(self):
        from repro.mc.result import Statistics

        graph = self._graph()
        if graph.compile_stats is None:
            return  # tree-walk fallback: nothing to report
        rep = CollectingReporter()
        for checker in ("safety-bfs", "count-states"):
            stats = Statistics()
            stats.apply_compile_stats(graph.compile_stats)
            RunInstrument(rep, checker, graph).finish(ok=True, stats=stats)
        kinds = [e.type for e in rep.events]
        # A compiled graph reports its codegen bill exactly once, right
        # before the first run's run_finished.
        assert kinds == [EVENT_RUN_STARTED, EVENT_COMPILE, EVENT_RUN_FINISHED,
                         EVENT_RUN_STARTED, EVENT_RUN_FINISHED]
        data = rep.events[1].data
        assert data["programs_compiled"] + data["compile_cache_hits"] > 0
        assert data["compile_seconds"] >= 0.0

    def test_compile_event_counts_what_the_run_statistics_count(self):
        # POR compiles the plain-mode programs mid-run; the event must
        # report the same totals as the run's Statistics, not the
        # engine-mode programs alone.
        from repro.mc.por import check_safety_por

        graph = self._graph()
        if graph.compile_stats is None:
            return  # tree-walk fallback: nothing to report
        rep = CollectingReporter()
        result = check_safety_por(graph, reporter=rep)
        events = [e for e in rep.events if e.type == EVENT_COMPILE]
        assert len(events) == 1
        data = events[0].data
        assert (data["programs_compiled"], data["compile_cache_hits"]) == (
            result.stats.programs_compiled, result.stats.compile_cache_hits)
        n = len(graph.system.instances)
        assert (result.stats.programs_compiled
                + result.stats.compile_cache_hits) == 2 * n

    def test_tick_respects_reporter_interval(self):
        rep = CollectingReporter(interval=3)
        obs = RunInstrument(rep, "c", self._graph())
        for i in range(7):
            obs.tick(i + 1, i + 1, 0, 0)
        kinds = [e.type for e in rep.events]
        assert kinds.count(EVENT_PROGRESS) == 2  # ticks 3 and 6

    def test_warm_graph_starts_in_warm_phase(self):
        graph = self._graph()
        graph.explore()
        rep = CollectingReporter()
        RunInstrument(rep, "c", graph)
        assert rep.events[0].data["cache"] == PHASE_WARM
