"""Budget exhaustion mid-sweep: partial results, never a crash.

A tight ``max_states`` must degrade every affected variant to UNKNOWN
while the exploration still returns a full, ranked, deterministic
report — identically for serial and parallel runs.
"""

from repro.core import (
    AsynBlockingSend,
    FifoQueue,
    SingleSlotBuffer,
    SynBlockingSend,
)
from repro.design import (
    ChannelAxis,
    DesignSpace,
    SendPortAxis,
    explore,
    open_cache,
)
from repro.mc.budget import BUDGET_INTERRUPT, Budget
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
    out = {k: v for k, v in record.items()
           if k not in ("seconds", "cached", "resumed", "deduplicated",
                        "models_reused", "models_built")}
    if out.get("safety"):
        out["safety"] = {k: v for k, v in out["safety"].items()
                         if k != "statistics"} | {
            "states": record["safety"]["statistics"]["states_stored"]}
    return out


class TestBudgetMidSweep:
    def test_partial_results_are_returned_for_every_variant(self):
        report = explore(_space(), max_states=10)
        assert len(report.results) == 4
        assert all(r["verdict"] == "UNKNOWN" for r in report.results)
        assert all(r["budget_hit"] for r in report.results)
        assert report.any_budget_hit and not report.complete
        # Partial records still carry the work done so far.
        assert all(r["safety"]["statistics"]["states_stored"] > 0
                   for r in report.results)

    def test_states_expanded_is_monotone_in_progress_events(self):
        collector = CollectingReporter(interval=5)
        explore(_space(), max_states=50, reporter=collector)
        per_variant = {}
        for event in collector.events:
            if event.type == "progress":
                per_variant.setdefault(event.scenario, []).append(
                    event.data["states_expanded"])
        assert per_variant  # the tight interval produced progress ticks
        for name, counts in per_variant.items():
            assert counts == sorted(counts), name

    def test_serial_equals_parallel_under_tight_budget(self, tmp_path):
        serial = explore(_space(), max_states=10, jobs=1)
        parallel = explore(_space(), max_states=10, jobs=2)
        assert ([_strip_volatile(r) for r in serial.results]
                == [_strip_volatile(r) for r in parallel.results])
        assert ([r["variant"] for r in serial.ranked]
                == [r["variant"] for r in parallel.ranked])

    def test_budget_partial_runs_are_not_poisoned_by_cache(self, tmp_path):
        # UNKNOWN verdicts are cached (same budget -> same fingerprint),
        # but raising the budget changes the fingerprint and re-runs.
        cache = open_cache(tmp_path)
        tight = explore(_space(), cache=cache, max_states=10)
        assert all(r["verdict"] == "UNKNOWN" for r in tight.results)
        roomy = explore(_space(), cache=open_cache(tmp_path),
                        max_states=100000)
        assert all(r["verdict"] == "PASS" for r in roomy.results)


class TestInterruptMarker:
    def test_budget_stop_callable_interrupts_gracefully(self):
        budget = Budget(max_states=1000, stop=lambda: True)
        assert budget.exceeded(0) == BUDGET_INTERRUPT
        assert not budget.unbounded

    def test_interrupt_marker_never_raises_even_under_raise_on_limit(self):
        budget = Budget(raise_on_limit=True, stop=lambda: True)
        assert budget.exceeded(10**9) == BUDGET_INTERRUPT

    def test_stop_false_defers_to_numeric_limits(self):
        budget = Budget(max_states=5, stop=lambda: False)
        assert budget.exceeded(3) is None
        assert budget.exceeded(6) == "state budget"
