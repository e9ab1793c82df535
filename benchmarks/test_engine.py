"""T-engine — shared state-graph reuse (the engine-overhaul speedup).

Before the engine overhaul every checker call re-elaborated and
re-explored the state space from scratch: a design verified against
five properties paid successor generation five times.  The shared
:class:`~repro.mc.engine.StateGraph` interns states and memoizes the
transition relation, so a multi-check workload pays exploration once.

Each benchmark times the same workload both ways — fresh engine per
call (the pre-overhaul behaviour, still what you get by passing a
``System``) versus one shared graph — asserts the reuse speedup, and
appends its measurements to ``BENCH_engine.json``, the first point on
the engine performance trajectory.

Run:  pytest benchmarks/test_engine.py --benchmark-disable -q
"""

import json
import os
import time
from pathlib import Path

from conftest import record

from repro.mc import StateGraph, check_safety, count_states, find_state, global_prop
from repro.systems.abp import abp_delivery_prop, build_abp
from repro.systems.gas_station import all_fueled_prop, build_gas_station

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"


def _record_json(workload: str, payload: dict) -> None:
    """Merge one workload's measurements into BENCH_engine.json."""
    data = {}
    if BENCH_PATH.exists():
        try:
            data = json.loads(BENCH_PATH.read_text())
        except (ValueError, OSError):
            data = {}
    data.setdefault("benchmark", "T-engine")
    data["date"] = time.strftime("%Y-%m-%d")
    data["cpu_count"] = os.cpu_count()
    data.setdefault("workloads", {})[workload] = payload
    BENCH_PATH.write_text(json.dumps(data, indent=2) + "\n")


def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def _gas_system():
    # The selective-delivery variant is the race-free design (safety
    # passes), so all five checks run the full state space.
    return build_gas_station(customers=2,
                             selective_delivery=True).to_system(fused=True)


def _gas_checks():
    """Five independent checks over one design (a verification session)."""
    fueled_bound = global_prop(
        "fueled_bound", lambda v: v.global_("fueled_0") in (0, 1), "fueled_0")
    served_bound = global_prop(
        "served_bound", lambda v: v.global_("fueled_1") in (0, 1), "fueled_1")
    return [
        lambda t: check_safety(t),
        lambda t: check_safety(t, invariants=[fueled_bound]),
        lambda t: check_safety(t, invariants=[served_bound],
                               check_deadlock=False),
        lambda t: find_state(t, all_fueled_prop(customers=2)),
        lambda t: count_states(t),
    ]


def test_multi_property_reuse(benchmark):
    """One shared graph across five checks must beat five fresh engines 2x.

    This is the overhaul's headline claim: the speedup is algorithmic
    (successor generation paid once instead of five times), so it holds
    on any machine regardless of core count.
    """
    checks = _gas_checks()

    def fresh_session():
        # Passing the System builds a fresh StateGraph per call — the
        # pre-overhaul cost model.
        return [check(_gas_system()) for check in checks]

    def shared_session():
        graph = StateGraph(_gas_system())
        return [check(graph) for check in checks]

    fresh_results, fresh_seconds = _timed(fresh_session)
    shared_results, shared_seconds = benchmark.pedantic(
        lambda: _timed(shared_session), rounds=1, iterations=1)

    # Same verdicts either way (the differential suite pins this in
    # depth; the benchmark keeps itself honest).
    assert all(r.ok for r in fresh_results[:3])
    assert all(r.ok for r in shared_results[:3])
    assert len(shared_results[3]) == len(fresh_results[3])
    assert shared_results[4].states_stored == fresh_results[4].states_stored

    speedup = fresh_seconds / shared_seconds
    stats = shared_results[4]
    # Per-phase honesty: compilation is front-loaded into the first
    # graph build, exploration is the remainder of the shared session.
    compile_seconds = stats.compile_seconds
    explore_seconds = max(shared_seconds - compile_seconds, 0.0)
    record(benchmark, stats=stats, checks=len(checks),
           fresh_seconds=round(fresh_seconds, 3),
           shared_seconds=round(shared_seconds, 3),
           speedup=round(speedup, 2))
    _record_json("multi_property_reuse", {
        "system": "gas_station(customers=2, fused)",
        "checks": len(checks),
        "states": stats.states_stored,
        "transitions": stats.transitions,
        "fresh_seconds": round(fresh_seconds, 3),
        "shared_seconds": round(shared_seconds, 3),
        "speedup": round(speedup, 2),
        "states_per_second": round(stats.states_stored / shared_seconds),
        "phases": {
            "compile_seconds": round(compile_seconds, 3),
            "explore_seconds": round(explore_seconds, 3),
            "programs_compiled": stats.programs_compiled,
            "compile_cache_hits": stats.compile_cache_hits,
        },
    })
    assert speedup >= 2.0, (
        f"shared graph gave only {speedup:.2f}x over fresh engines")


def test_scenario_safety_plus_goal_fusion(benchmark):
    """A resilience scenario runs safety + goal search on one graph.

    Pre-overhaul each scenario explored twice (once per question); the
    shared graph halves that, which is where the sweep's per-scenario
    speedup comes from even before process-level parallelism.  The goal
    here is *unreachable* (two deliveries of a one-message run) — the
    degraded-verdict path, where the goal search cannot stop early and
    must scan the entire space just like the safety sweep.
    """
    goal = abp_delivery_prop(messages=2)

    def _system():
        return build_abp(messages=1, max_sends=2,
                         receiver_polls=2).to_system(fused=True)

    def fresh_pair():
        safety = check_safety(_system(), check_deadlock=False)
        witness = find_state(_system(), goal)
        return safety, witness

    def shared_pair():
        graph = StateGraph(_system())
        safety = check_safety(graph, check_deadlock=False)
        witness = find_state(graph, goal)
        return safety, witness

    (fresh_safety, fresh_witness), fresh_seconds = _timed(fresh_pair)
    ((shared_safety, shared_witness), shared_seconds) = benchmark.pedantic(
        lambda: _timed(shared_pair), rounds=1, iterations=1)

    assert shared_safety.ok == fresh_safety.ok
    assert fresh_witness is None and shared_witness is None

    speedup = fresh_seconds / shared_seconds
    record(benchmark, stats=shared_safety.stats,
           fresh_seconds=round(fresh_seconds, 3),
           shared_seconds=round(shared_seconds, 3),
           speedup=round(speedup, 2))
    _record_json("scenario_safety_plus_goal", {
        "system": "abp(messages=1, max_sends=2, receiver_polls=2, fused)",
        "states": shared_safety.stats.states_stored,
        "fresh_seconds": round(fresh_seconds, 3),
        "shared_seconds": round(shared_seconds, 3),
        "speedup": round(speedup, 2),
    })
    # Two explorations collapse into one; allow scheduling noise.
    assert speedup >= 1.3, (
        f"graph sharing gave only {speedup:.2f}x for safety+goal")

