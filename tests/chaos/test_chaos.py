"""Fault injection against the exploration runtime.

The acceptance bar: killing workers, stalling jobs, or crashing the
cache writer degrades exactly the affected variants — never the run.
Fault-free records must come out byte-identical to a fault-free run.
"""

import signal
import subprocess
import sys

from repro.core import (
    AsynBlockingSend,
    FifoQueue,
    SingleSlotBuffer,
    SynBlockingSend,
)
from repro.design import (
    INCOMPLETE,
    ChannelAxis,
    DesignSpace,
    RetryPolicy,
    RunJournal,
    SendPortAxis,
    explore,
    open_cache,
)
from repro.design.failpoints import KILL_EXIT_CODE
from repro.obs import CollectingReporter
from repro.systems.producer_consumer import simple_pair

CHANNELS = [SingleSlotBuffer(), FifoQueue(size=2)]
PORTS = [AsynBlockingSend(), SynBlockingSend()]

#: Retry fast in tests: deterministic faults fail every attempt anyway.
FAST_RETRY = RetryPolicy(max_retries=1, backoff_base=0.01, backoff_max=0.05)


def _space():
    return DesignSpace(
        "pc",
        simple_pair(PORTS[0], CHANNELS[0], messages=1),
        axes=[ChannelAxis("link", CHANNELS),
              SendPortAxis("link", PORTS, component="Producer0")],
        fused=True,
    )


def _strip_volatile(record):
    out = {k: v for k, v in record.items()
           if k not in ("seconds", "cached", "resumed", "deduplicated",
                        "models_reused", "models_built")}
    if out.get("safety"):
        out["safety"] = {k: v for k, v in out["safety"].items()
                         if k != "statistics"} | {
            "states": record["safety"]["statistics"]["states_stored"]}
    return out


class TestWorkerKill:
    def test_killed_workers_degrade_only_their_variants(self, tmp_path,
                                                        inject):
        baseline = explore(_space(), jobs=2)

        # Kill the workers running variants 1 and 2, every attempt.
        inject("worker.run=kill@1,2")
        collector = CollectingReporter()
        report = explore(_space(), cache=open_cache(tmp_path / "cache"),
                         jobs=2, retry=FAST_RETRY, reporter=collector)

        verdicts = {r["index"]: r["verdict"] for r in report.results}
        assert verdicts[1] == INCOMPLETE
        assert verdicts[2] == INCOMPLETE
        assert verdicts[0] == "PASS" and verdicts[3] == "PASS"

        for record in report.failures:
            assert record["failure"]["cause"] == "worker-died"
            assert record["failure"]["attempts"] == FAST_RETRY.max_attempts
            assert str(KILL_EXIT_CODE) in record["failure"]["detail"]

        # Surviving variants are identical to the fault-free run.
        for index in (0, 3):
            assert (_strip_volatile(report.results[index])
                    == _strip_volatile(baseline.results[index]))

        assert not report.complete
        retry_events = [e for e in collector.events if e.type == "job_retry"]
        failed_events = [e for e in collector.events
                         if e.type == "job_failed"]
        assert len(retry_events) == 2  # one retry each before giving up
        assert sorted(e.scenario for e in failed_events) == sorted(
            report.failures[i]["variant"] for i in range(2))

    def test_failed_jobs_are_not_cached_and_rerun_clean(self, tmp_path,
                                                        inject):
        cache_dir = tmp_path / "cache"
        inject("worker.run=kill@1")
        broken = explore(_space(), cache=open_cache(cache_dir), jobs=2,
                         retry=FAST_RETRY)
        assert broken.results[1]["verdict"] == INCOMPLETE

        # Fault cleared: the INCOMPLETE variant was never cached, so a
        # fresh run re-verifies it (and only it) to a real verdict.
        cache = open_cache(cache_dir)
        healed = explore(_space(), cache=cache, jobs=2)
        assert healed.results[1]["verdict"] == "PASS"
        assert cache.hits == 3 and cache.misses == 1
        assert healed.complete

    def test_transient_checker_exception_is_retried_serially(self,
                                                             monkeypatch):
        from repro.design import scheduler
        real = scheduler._verify_variant
        crashes = []

        def flaky(variant, *args, **kwargs):
            if variant.index == 1 and not crashes:
                crashes.append(variant.index)
                raise RuntimeError("transient checker glitch")
            return real(variant, *args, **kwargs)

        monkeypatch.setattr(scheduler, "_verify_variant", flaky)
        report = explore(_space(), jobs=1, retry=FAST_RETRY)
        assert crashes == [1]  # it did fail once...
        assert all(r["verdict"] == "PASS" for r in report.results)

    def test_persistent_checker_exception_degrades_serially(self,
                                                            monkeypatch):
        from repro.design import scheduler
        real = scheduler._verify_variant

        def broken(variant, *args, **kwargs):
            if variant.index == 1:
                raise RuntimeError("deterministic checker bug")
            return real(variant, *args, **kwargs)

        monkeypatch.setattr(scheduler, "_verify_variant", broken)
        report = explore(_space(), jobs=1, retry=FAST_RETRY)
        record = next(r for r in report.results if r["index"] == 1)
        assert record["verdict"] == INCOMPLETE
        assert record["failure"]["cause"] == "checker-exception"
        assert "deterministic checker bug" in record["failure"]["detail"]
        assert sum(1 for r in report.results
                   if r["verdict"] == "PASS") == 3


class TestTimeout:
    def test_stalled_worker_times_out_to_incomplete(self, inject):
        inject("worker.run=sleep:30@2")
        report = explore(_space(), jobs=2, retry=FAST_RETRY,
                         job_timeout=1.0)
        verdicts = {r["index"]: r["verdict"] for r in report.results}
        assert verdicts[2] == INCOMPLETE
        record = next(r for r in report.results if r["index"] == 2)
        assert record["failure"]["cause"] == "timeout"
        assert record["failure"]["attempts"] == 1  # timeouts not retried
        assert sum(1 for v in verdicts.values() if v == "PASS") == 3


_CRASH_SCRIPT = """
import sys
from repro.design import open_cache
cache = open_cache(sys.argv[1])
cache.put("a" * 64, {"verdict": "PASS", "states": 10})
cache.put("b" * 64, {"verdict": "FAIL", "states": 20})
cache.put("c" * 64, {"verdict": "PASS", "states": 30})  # killed here
"""


class TestCacheCrash:
    def _run(self, script, cache_dir, failpoints_spec):
        return subprocess.run(
            [sys.executable, "-c", script, str(cache_dir)],
            env={"PYTHONPATH": "src", "REPRO_FAILPOINTS": failpoints_spec},
            cwd=str(__import__("pathlib").Path(__file__).parents[2]),
            capture_output=True, text=True)

    def test_crash_mid_put_loses_only_the_inflight_record(self, tmp_path):
        proc = self._run(_CRASH_SCRIPT, tmp_path,
                         "cache.put=kill@" + "c" * 64)
        assert proc.returncode == KILL_EXIT_CODE, proc.stderr

        # The killed transaction rolls back on the next open.
        with open_cache(tmp_path) as cache:
            assert cache.get("a" * 64)["verdict"] == "PASS"
            assert cache.get("b" * 64)["verdict"] == "FAIL"
            assert cache.get("c" * 64) is None  # at most the in-flight record
            assert cache.verify()["ok"]


class TestSerialInterrupt:
    def test_sigint_mid_run_returns_partial_report(self, tmp_path):
        class InterruptAfter:
            """Raise SIGINT once N variants have finished verifying."""

            interval = 1000

            def __init__(self, n):
                self.remaining = n

            def emit(self, event):
                if event.type == "variant_finished" and \
                        not event.data.get("cached"):
                    self.remaining -= 1
                    if self.remaining == 0:
                        signal.raise_signal(signal.SIGINT)

            def close(self):
                pass

        cache = open_cache(tmp_path / "cache")
        report = explore(_space(), cache=cache, jobs=1,
                         reporter=InterruptAfter(2))
        assert report.interrupted
        assert not report.complete
        assert report.run_id is not None
        done = [r for r in report.results if r["verdict"] == "PASS"]
        skipped = [r for r in report.results if r["verdict"] == "SKIPPED"]
        assert len(done) == 2 and len(skipped) == 2
        assert "interrupted" in skipped[0]["detail"]

        state = RunJournal.load(str(tmp_path / "cache" / "runs"),
                                report.run_id)
        assert state.interrupted
        assert len(state.completed) == 2
        assert len(state.pending) == 2
