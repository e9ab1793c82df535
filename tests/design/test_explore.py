"""The exploration scheduler: caching, parallelism, policies, ranking.

Differential contract mirrored from the resilience sweeps: serial,
parallel, and cache-served explorations must produce identical ranked
output.
"""

import pytest

from repro.core import (
    AsynBlockingSend,
    FifoQueue,
    ModelLibrary,
    SingleSlotBuffer,
    SynBlockingSend,
)
from repro.design import (
    FIRST_PASS,
    ChannelAxis,
    DesignSpace,
    SendPortAxis,
    explore,
    open_cache,
    rank_records,
)
from repro.obs import CollectingReporter
from repro.systems.producer_consumer import simple_pair

CHANNELS = [SingleSlotBuffer(), FifoQueue(size=2)]
PORTS = [AsynBlockingSend(), SynBlockingSend()]


def _space():
    return DesignSpace(
        "pc",
        simple_pair(PORTS[0], CHANNELS[0], messages=1),
        axes=[ChannelAxis("link", CHANNELS),
              SendPortAxis("link", PORTS, component="Producer0")],
        fused=True,
    )


def _strip_volatile(record):
    # seconds is wall clock; cached/deduplicated are provenance; the
    # model-library counters depend on which process built what.
    out = {k: v for k, v in record.items()
           if k not in ("seconds", "cached", "deduplicated",
                        "models_reused", "models_built")}
    if out.get("safety"):
        out["safety"] = {k: v for k, v in out["safety"].items()
                         if k != "statistics"} | {
            "states": record["safety"]["statistics"]["states_stored"]}
    return out


class TestExhaustive:
    def test_results_follow_enumeration_order(self):
        space = _space()
        report = explore(space)
        assert [r["variant"] for r in report.results] == [
            v.name for v in space.variants()]
        assert [r["index"] for r in report.results] == [0, 1, 2, 3]
        assert all(r["verdict"] == "PASS" for r in report.results)
        assert report.complete and report.any_pass

    def test_record_shape(self):
        record = explore(_space()).results[0]
        for key in ("space", "variant", "index", "labels", "fused",
                    "verdict", "detail", "states", "seconds", "budget_hit",
                    "safety", "models_reused", "models_built", "cached"):
            assert key in record
        assert record["space"] == "pc"
        assert record["fused"] is True
        assert record["states"] > 0

    def test_shared_library_reuses_models(self):
        library = ModelLibrary()
        report = explore(_space(), library=library)
        assert library.stats.hits > 0
        assert report.library_snapshot[2] > 0  # misses: something was built

    def test_ranked_is_pareto_annotated(self):
        report = explore(_space())
        fronts = [r["front"] for r in report.ranked]
        assert fronts == sorted(fronts)
        assert report.best is report.ranked[0]
        assert report.best["verdict"] == "PASS"


class TestCache:
    def test_warm_run_serves_everything_from_cache(self, tmp_path):
        cache = open_cache(tmp_path)
        cold = explore(_space(), cache=cache)
        assert cold.cached_count == 0

        warm_cache = open_cache(tmp_path)
        warm = explore(_space(), cache=warm_cache)
        assert warm.cached_count == len(warm.results)
        hit_ratio = warm_cache.stats()["hits"] / len(warm.results)
        assert hit_ratio >= 0.9  # the headline cache claim (here: 1.0)

        # Verdict-for-verdict identical, only provenance flags differ.
        assert ([_strip_volatile(r) for r in warm.results]
                == [_strip_volatile(r) for r in cold.results])
        assert ([r["variant"] for r in warm.ranked]
                == [r["variant"] for r in cold.ranked])

    def test_cache_disabled_runs_everything(self, tmp_path):
        report = explore(_space(), cache=None)
        assert report.cache_stats is None
        assert report.cached_count == 0

    def test_identical_bases_deduplicate_within_run(self, tmp_path):
        arch = simple_pair(PORTS[1], CHANNELS[0], messages=1)
        space = DesignSpace("pc", [("a", arch), ("b", arch.copy())],
                            fused=True)
        cache = open_cache(tmp_path)
        report = explore(space, cache=cache)
        assert len(report.results) == 2
        assert report.results[1].get("deduplicated") is True
        assert report.results[0]["states"] == report.results[1]["states"]
        # The twin is served in-process: one verification, one stored record.
        assert cache.stats()["stored"] == 1
        # Identity fields still describe the twin, not the donor.
        assert report.results[1]["variant"] == "b"
        assert report.results[1]["base"] == "b"


class TestParallel:
    def test_parallel_matches_serial(self):
        serial = explore(_space(), jobs=1)
        parallel = explore(_space(), jobs=2)
        assert ([_strip_volatile(r) for r in parallel.results]
                == [_strip_volatile(r) for r in serial.results])
        assert ([(r["variant"], r["front"]) for r in parallel.ranked]
                == [(r["variant"], r["front"]) for r in serial.ranked])

    def test_unpicklable_space_falls_back_to_serial(self):
        from repro.mc import global_prop
        lam = global_prop("bound", lambda v: v.global_("consumed_0") in (0, 1),
                          "consumed_0")
        collector = CollectingReporter()
        report = explore(_space(), invariants=[lam], jobs=4,
                         reporter=collector)
        assert len(report.results) == 4
        assert all(r["verdict"] == "PASS" for r in report.results)
        # The degradation is audible: a warning on the report and an
        # engine event, not a silent serial run.
        assert any("degraded to a serial run" in w for w in report.warnings)
        warnings = [e for e in collector.events if e.type == "warning"]
        assert len(warnings) == 1
        assert "pickle" in warnings[0].data["message"]

    def test_fault_free_parallel_run_has_no_warnings(self):
        report = explore(_space(), jobs=2)
        assert report.warnings == []


class TestPolicies:
    def test_first_pass_stops_early(self):
        report = explore(_space(), policy=FIRST_PASS)
        verdicts = [r["verdict"] for r in report.results]
        assert verdicts.count("PASS") == 1
        assert verdicts.count("SKIPPED") == len(verdicts) - 1
        assert report.stopped_early
        assert not report.complete
        assert report.best["verdict"] == "PASS"
        # Cheapest-first: the single-slot buffer variants run before the
        # deeper fifo ones, so the winner is a single-slot design.
        assert "single_slot_buffer" in report.best["variant"]

    def test_first_pass_parallel_matches_serial(self):
        serial = explore(_space(), policy=FIRST_PASS, jobs=1)
        parallel = explore(_space(), policy=FIRST_PASS, jobs=2)
        assert ([r["verdict"] for r in parallel.results]
                == [r["verdict"] for r in serial.results])
        assert parallel.best["variant"] == serial.best["variant"]

    def test_budget_exhaustion_yields_unknown(self):
        report = explore(_space(), max_states=10)
        assert all(r["verdict"] == "UNKNOWN" for r in report.results)
        assert all(r["budget_hit"] for r in report.results)
        assert report.any_budget_hit
        assert not report.complete


class TestEvents:
    def test_event_stream_brackets_every_variant(self):
        reporter = CollectingReporter()
        report = explore(_space(), reporter=reporter)
        events = reporter.events
        assert events[0].type == "exploration_started"
        assert events[0].data["variants"] == 4
        assert events[-1].type == "exploration_finished"
        assert events[-1].data["best"] == report.best["variant"]
        starts = [e for e in events if e.type == "variant_started"]
        ends = [e for e in events if e.type == "variant_finished"]
        assert [e.scenario for e in starts] == [e.scenario for e in ends]
        assert [e.scenario for e in starts] == [
            r["variant"] for r in report.results]

    def test_cached_variants_are_bracketed_too(self, tmp_path):
        cache = open_cache(tmp_path)
        explore(_space(), cache=cache)
        reporter = CollectingReporter()
        explore(_space(), cache=open_cache(tmp_path), reporter=reporter)
        starts = [e for e in reporter.events if e.type == "variant_started"]
        assert len(starts) == 4
        assert all(e.data["cached"] for e in starts)


class TestRanking:
    def _record(self, name, verdict, states, worst=None):
        record = {"variant": name, "verdict": verdict, "states": states}
        if worst is not None:
            record["resilience"] = {"worst": worst}
        return record

    def test_pass_fronts_precede_fail(self):
        ranked = rank_records([
            self._record("bad", "FAIL", 10),
            self._record("good", "PASS", 100),
        ])
        assert [r["variant"] for r in ranked] == ["good", "bad"]
        assert [r["front"] for r in ranked] == [1, 1]  # neither dominates

    def test_dominated_record_falls_to_second_front(self):
        ranked = rank_records([
            self._record("small", "PASS", 10),
            self._record("dominated", "PASS", 20),
        ])
        assert [r["front"] for r in ranked] == [1, 2]

    def test_robust_outranks_degraded_within_front(self):
        ranked = rank_records([
            self._record("fragile_small", "PASS", 10, worst="degraded"),
            self._record("robust_large", "PASS", 100, worst="robust"),
        ])
        assert [r["variant"] for r in ranked] == [
            "robust_large", "fragile_small"]
        assert [r["front"] for r in ranked] == [1, 1]

    def test_rank_is_pure(self):
        records = [self._record("a", "PASS", 10)]
        ranked = rank_records(records)
        assert "front" not in records[0]
        assert ranked[0] is not records[0]


class TestTable:
    def test_table_is_deterministic_and_wall_clock_free(self, tmp_path):
        report = explore(_space(), cache=open_cache(tmp_path))
        table = report.table()
        assert table == report.table()
        assert "seconds" not in table
        assert "best:" in table
        for record in report.results:
            assert record["variant"] in table

    def test_run_report_round_trips(self, tmp_path):
        report = explore(_space())
        run = report.to_run_report(command="repro explore pc")
        path = tmp_path / "report.json"
        run.save(str(path))
        from repro.obs.report import RunReport
        loaded = RunReport.load(str(path))
        md = loaded.to_markdown()
        assert "Design-space exploration" in md
        assert report.best["variant"] in md


@pytest.mark.parametrize("jobs", [1, 2])
def test_exploration_with_faults_reports_resilience(jobs, tmp_path):
    from repro.core import DroppingBuffer
    from repro.core.resilience import ChannelFault, FaultScenario
    fault = FaultScenario(
        "lossy_link", [ChannelFault("link", DroppingBuffer(size=1))])
    report = explore(_space(), faults=[fault], jobs=jobs)
    passing = [r for r in report.results if r["verdict"] == "PASS"]
    assert passing
    for record in passing:
        assert record["resilience"]["worst"] in (
            "robust", "degraded", "broken", "unknown")
        assert [s["name"] for s in record["resilience"]["scenarios"]] == [
            "lossy_link"]
