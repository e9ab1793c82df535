"""Check the two findings NOTES.md records, on the current source.

    python3 perfbench/findings.py

(a) Cold bridge exploration does more work than its records report: the
    span recorder counts every state the checkers store (safety checks
    and the nested fault sweeps), while each record's ``states`` field
    holds only its own safety check.
(b) A finished ``StateGraph`` is freed only by the cyclic GC: dropping
    the last reference leaves its memory held until a collection runs.

Prints one JSON object.  Nothing here is gated; it is evidence for a
reader deciding where the time and the memory go.
"""

import gc
import json
import os
import resource
import sys
import tempfile
import time

sys.path.insert(1, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import catalog  # noqa: E402
import trace  # noqa: E402

from repro import core, design  # noqa: E402
from repro.psl import jit  # noqa: E402


def rss_mb() -> float:
    """Current resident set size (not the peak)."""
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * resource.getpagesize() / 2**20


def uncounted_work() -> dict:
    cold, _, kwargs = catalog.SPACES["bridge"]
    space, options = cold(), kwargs()
    jit.clear_program_cache()
    recorder = trace.Recorder()
    installed = trace.install(recorder)
    with tempfile.TemporaryDirectory() as store:
        try:
            t0 = time.monotonic()
            report = design.explore(space, cache=design.open_cache(
                store, backend="sqlite"), jobs=1, **options)
            wall = time.monotonic() - t0
        finally:
            installed.restore()
    layers = trace.layer_metrics(recorder.take(), [(t0, t0 + wall)])
    recorded = sum(r["states"] for r in report.results)
    return {
        "wall_s": wall,
        "record_states": recorded,
        "record_states_per_s": recorded / wall,
        "checked_states": layers["mc.states"],
        "checks": layers["mc.checks"],
        "checked_states_per_s": layers["mc.states"] / wall,
        "check_s": layers["mc.check_s"],
        "resilience_s": layers["core.resilience_s"],
        "compile_s": layers["psl.compile_s"],
        "other_s": layers["other_s"],
    }


def graphs_wait_for_gc() -> dict:
    gc.collect()
    base = rss_mb()
    verified = catalog.VERIFY_OPS["f14_n1"](core.ModelLibrary())
    held = rss_mb()
    states = verified.outcome["states"]
    del verified
    after_del = rss_mb()
    t0 = time.monotonic()
    freed = gc.collect()
    collect_s = time.monotonic() - t0
    return {"states": states, "rss_before_mb": base, "rss_held_mb": held,
            "rss_after_del_mb": after_del, "gc_freed_objects": freed,
            "gc_seconds": collect_s, "rss_after_gc_mb": rss_mb()}


if __name__ == "__main__":
    # (b) first, while the heap is still small enough to shrink.
    held = graphs_wait_for_gc()
    print(json.dumps({"a_uncounted_work": uncounted_work(),
                      "b_graphs_wait_for_gc": held}, indent=1))
