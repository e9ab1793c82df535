"""T-design — the persistent verification cache on the bridge space.

The design subsystem's headline claim: re-running an untouched
exploration costs (almost) nothing, because every variant's verdict is
served from the content-addressed cache instead of re-verified.  This
benchmark explores the single-lane-bridge design space cold, re-runs
it warm against the same cache directory, asserts that the warm run
skips >= 90% of the verification work *and* reproduces the paper's
design arc (async enter sends FAIL, sync PASS, the at-most-N design
ranks best), then appends the measurements to ``BENCH_design.json``.
The cold run starts from a fresh SQLite verdict store.

Run:  pytest benchmarks/test_design_cache.py --benchmark-disable -q
"""

import json
import os
import time
from pathlib import Path

from conftest import record

from repro.design import explore, open_cache
from repro.systems.bridge import (
    BridgeConfig,
    bridge_design_space,
    bridge_fault_scenarios,
    bridge_safety_prop,
)

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_design.json"


def _record_json(workload: str, payload: dict) -> None:
    """Merge one workload's measurements into BENCH_design.json."""
    data = {}
    if BENCH_PATH.exists():
        try:
            data = json.loads(BENCH_PATH.read_text())
        except (ValueError, OSError):
            data = {}
    data.setdefault("benchmark", "T-design")
    data["date"] = time.strftime("%Y-%m-%d")
    data["cpu_count"] = os.cpu_count()
    data.setdefault("workloads", {})[workload] = payload
    BENCH_PATH.write_text(json.dumps(data, indent=2) + "\n")


def _explore(cache_dir):
    return explore(
        bridge_design_space(BridgeConfig(trips=1)),
        invariants=[bridge_safety_prop()],
        faults=bridge_fault_scenarios(),
        cache=open_cache(cache_dir),
    )


def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def test_warm_exploration_skips_verification(benchmark, tmp_path):
    cache_dir = tmp_path / "cache"
    cold, cold_seconds = _timed(lambda: _explore(cache_dir))
    warm, warm_seconds = benchmark.pedantic(
        lambda: _timed(lambda: _explore(cache_dir)), rounds=1, iterations=1)

    # The paper's design arc must come out of the exploration itself.
    by_name = {r["variant"]: r for r in cold.results}
    for name, record_ in by_name.items():
        expected = "PASS" if "=syn_blocking_send" in name else "FAIL"
        assert record_["verdict"] == expected, name
    assert cold.best["base"] == "at_most_n"
    assert cold.best["resilience"]["worst"] == "robust"

    # The cache claim: an untouched re-run serves >= 90% of the
    # variants from disk (here: all of them) and ranks identically.
    served = warm.cached_count / len(warm.results)
    assert served >= 0.9
    assert ([(r["variant"], r["verdict"], r["front"]) for r in warm.ranked]
            == [(r["variant"], r["verdict"], r["front"]) for r in cold.ranked])

    states_skipped = sum(r["states"] for r in warm.results if r["cached"])
    states_total = sum(r["states"] for r in cold.results)
    speedup = cold_seconds / warm_seconds
    record(benchmark,
           variants=len(cold.results),
           cold_seconds=round(cold_seconds, 3),
           warm_seconds=round(warm_seconds, 3),
           speedup=round(speedup, 1),
           served_from_cache=round(served, 3),
           states_skipped=states_skipped)
    _record_json("bridge_cold_vs_warm", {
        "space": "single_lane_bridge(trips=1)",
        "variants": len(cold.results),
        "cold_seconds": round(cold_seconds, 3),
        "warm_seconds": round(warm_seconds, 3),
        "speedup": round(speedup, 1),
        "served_from_cache": round(served, 3),
        "states_skipped": states_skipped,
        "states_total": states_total,
        "best": cold.best["variant"],
    })
