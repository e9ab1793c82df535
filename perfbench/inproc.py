"""The in-process workloads: ``verify`` and ``explore``.

Both are closed loops with one client: one operation at a time, in the
benchmark's own process, with ``jobs=1`` and no process pool.  Every
cold operation starts with an empty JIT program cache and a fresh
``ModelLibrary``, so it pays compile and elaboration the way a fresh CLI
process does.  The cyclic GC is left alone: a finished state graph is
freed when a collection happens to run, and whichever operation trips
it pays, as it would for a library user.

A *cycle* runs every operation of the workload once, in an order drawn
from the seed.  A run does a fixed number of cycles, one per
``CYCLE_SECONDS`` of ``--seconds``, so every run at one seed does the
same work however fast the host is.  Traced runs alternate one untraced
and one traced cycle with the same order (which of the pair goes first
alternates too), so ``trace_overhead`` compares like with like.

Peak memory depends on which large state graphs are alive together:
a finished graph is freed only by the cyclic GC, so the previous large
graph is usually still held while the next one is built.  The seed
therefore orders the small operations, while the large ones keep one
fixed relative order at fixed slots, which keeps ``peak_rss_mb``
comparable across seeds.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Tuple

import catalog
import trace
from common import OpLog, Scratch, Tally, load_known_answers, median

from repro import core, design
from repro.psl import jit

#: Nominal seconds per cycle: ``--seconds 40`` runs four cycles.
CYCLE_SECONDS = 10.0
#: A verify design whose graph has at least this many states is large.
LARGE_STATES = 20_000
#: Warm rechecks after each cold verify op, so each design's warm median
#: rests on more than one sample per cycle.
VERIFY_WARM_REPEATS = 2
#: A verify design whose graph has fewer states than this takes tens of
#: milliseconds, where one collection or scheduling hiccup moves a sample
#: most; its task runs ``SMALL_ROUNDS`` times per cycle.
SMALL_STATES = 1_000
SMALL_ROUNDS = 3


def setup(workload: str, scratch: Scratch):
    """Everything before the first timed op (imports already happened)."""
    if workload == "verify":
        return dict(catalog.VERIFY_OPS)
    spaces = {name: (cold(), incr(), kwargs())
              for name, (cold, incr, kwargs) in catalog.SPACES.items()}
    design.open_cache(scratch.fresh("store"), backend="sqlite").close()
    return spaces


class Counters:
    """JIT and model-library counter deltas across one op."""

    def __init__(self, library=None) -> None:
        self.library = library
        self.before = self._read()

    def _read(self) -> Tuple[int, ...]:
        info = jit.program_cache_info()
        lib = (() if self.library is None
               else (self.library.stats.hits, self.library.stats.misses))
        return (info["programs_compiled"], info["digest_hits"]) + lib

    def delta(self) -> Tuple[int, ...]:
        return tuple(a - b for a, b in zip(self._read(), self.before))


# -- verify --------------------------------------------------------------------

def verify_plan(ops: dict, known: dict, rng: random.Random) -> List[str]:
    """Small tasks in seeded order; large ones in catalogue order, evenly
    spaced between them."""
    states = {name: known["verify"][name]["states"] for name in ops}
    large = [name for name in ops if states[name] >= LARGE_STATES]
    small = [name for name in ops if name not in large
             for _ in range(SMALL_ROUNDS if states[name] < SMALL_STATES
                            else 1)]
    rng.shuffle(small)
    plan: List[str] = []
    placed = 0
    for i, name in enumerate(large):
        stop = round((i + 1) * len(small) / (len(large) + 1))
        plan += small[placed:stop] + [name]
        placed = stop
    return plan + small[placed:]


def run_verify_task(name: str, ops: dict, known: dict, tally: Tally,
                    log: OpLog) -> None:
    """Cold verify, warm rechecks on the kept graph, then the fix."""
    library = core.ModelLibrary()
    jit.clear_program_cache()

    def timed(key: str, cls: str, expected: str, fn, explores: bool = True):
        tally.attempted += 1
        counters = Counters(library)
        start = time.monotonic()
        try:
            result = fn()
        except Exception as exc:  # an op that raises counts as failed
            tally.fail(key, f"raised {exc!r}")
            return None
        end = time.monotonic()
        outcome = getattr(result, "outcome", result)
        if outcome != known["verify"][expected]:
            tally.fail(key, f"got {outcome}, known answer "
                       f"{known['verify'][expected]}")
            return None
        if tally.same_counts(f"{key}/{cls}",
                             (outcome["transitions"], counters.delta())):
            log.add(key, cls, start, end,
                    outcome["states"] if explores else 0)
        return result

    verified = timed(name, "cold", name, lambda: ops[name](library))
    if verified is None:
        return
    if verified.recheck is not None:
        for _ in range(VERIFY_WARM_REPEATS):
            timed(name, "warm", name, verified.recheck, explores=False)
    neighbour = catalog.VERIFY_NEIGHBOURS.get(name)
    if neighbour is not None:
        timed(f"{name}>{neighbour[0]}", "incr", neighbour[0],
              lambda: catalog.incremental(neighbour, verified, library))


# -- explore -------------------------------------------------------------------

def explore_plan(spaces: dict, rng: random.Random) -> List[Tuple[str, str]]:
    """``(space, phase)`` ops: the cold ops of each space (spaces in
    seeded order), then every warm and incremental op in seeded order, so
    the short warm ops sample the whole cycle rather than one stretch of
    it (see :class:`Stores`).  ``rng`` is the run's, not the cycle's:
    every cycle repeats the plan, so one space's large graphs never run
    back to back across a cycle boundary."""
    order = sorted(spaces)
    rng.shuffle(order)
    cold, rest = [], []
    for name in order:
        n_cold, n_warm, n_incr = catalog.SPACE_REPEATS[name]
        cold += [(name, "cold")] * n_cold
        rest += [(name, "warm")] * n_warm + [(name, "incr")] * n_incr
    rng.shuffle(rest)
    return cold + rest


class Stores:
    """Which store each explore op runs against.

    A cold op gets an empty store, a warm op the last cold store, and an
    incremental op a fresh copy of it, copied outside the timed region.
    """

    def __init__(self, scratch: Scratch) -> None:
        self.scratch = scratch
        self.cold: Dict[str, str] = {}

    def for_op(self, name: str, phase: str) -> str:
        if phase == "cold":
            self.cold[name] = self.scratch.fresh(f"{name}-cold")
            return self.cold[name]
        if phase == "warm":
            return self.cold[name]
        return self.scratch.copy(self.cold[name], f"{name}-incr")


def _phase_check(space: str, phase: str, report, known: dict,
                 tally: Tally) -> bool:
    """Verdicts per variant, best variant and store use vs known answers."""
    key = f"{space}/{phase}"
    answers = known["explore"][space]
    table = answers["incr" if phase == "incr" else "cold"]
    got = [[r["variant"], r["verdict"], r["states"]] for r in report.results]
    if got != table["variants"]:
        tally.fail(key, f"variants {got} differ from the known answers")
        return False
    best = report.best["variant"] if report.best else None
    if best != table["best"]:
        tally.fail(key, f"best variant {best}, known answer {table['best']}")
        return False
    cached = sum(1 for r in report.results if r["cached"])
    want = {"cold": 0, "warm": len(table["variants"]),
            "incr": len(answers["cold"]["variants"])}[phase]
    if cached != want:
        tally.fail(key, f"{cached} variants served from the store, "
                   f"expected {want}")
        return False
    return True


def run_explore_op(name: str, phase: str, spaces: dict, store: str,
                   known: dict, tally: Tally, log: OpLog) -> None:
    cold_space, incr_space, kwargs = spaces[name]
    space = incr_space if phase == "incr" else cold_space
    tally.attempted += 1
    jit.clear_program_cache()
    counters = Counters()
    start = time.monotonic()
    try:
        cache = design.open_cache(store, backend="sqlite")
        report = design.explore(space, cache=cache, jobs=1, **kwargs)
    except Exception as exc:  # an op that raises counts as failed
        tally.fail(f"{name}/{phase}", f"raised {exc!r}")
        return
    end = time.monotonic()
    if not _phase_check(name, phase, report, known, tally):
        return
    stats = report.cache_stats or {}
    if tally.same_counts(f"{name}/{phase}", (
            stats.get("hits"), stats.get("misses"), stats.get("stored"),
            report.library_snapshot, counters.delta())):
        explored = sum(r["states"] for r in report.results
                       if not r["cached"])
        log.add(name, phase, start, end, explored)


# -- driving cycles -----------------------------------------------------------

class InProcess:
    """One run of ``verify`` or ``explore``."""

    def __init__(self, workload: str, seed: int, scratch: Scratch) -> None:
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.known = load_known_answers()
        self.inputs = setup(workload, scratch)
        self.tally = Tally()
        self.log = OpLog()

    def plan(self, cycle: int) -> list:
        if self.workload == "verify":
            rng = random.Random(f"verify:{self.seed}:{cycle}")
            return verify_plan(self.inputs, self.known, rng)
        return explore_plan(self.inputs,
                            random.Random(f"explore:{self.seed}"))

    def cycle(self, plan, log: OpLog, recorder=None) -> None:
        stores = Stores(self.scratch)
        for index, op in enumerate(plan):
            if recorder is not None:
                recorder.op = str(index)
            if self.workload == "verify":
                run_verify_task(op, self.inputs, self.known, self.tally, log)
            else:
                name, phase = op
                run_explore_op(name, phase, self.inputs,
                               stores.for_op(name, phase), self.known,
                               self.tally, log)

    def run_untraced(self, seconds: float) -> dict:
        for cycle in range(max(1, round(seconds / CYCLE_SECONDS))):
            self.cycle(self.plan(cycle), self.log)
        self.log.wall = sum(seconds for _, _, seconds, _ in self.log.ops)
        return self.log.end_to_end()

    def run_traced(self, seconds: float) -> dict:
        recorder = trace.Recorder()
        ratios, per_cycle = [], []
        for pair in range(max(1, round(seconds / (2 * CYCLE_SECONDS)))):
            plan = self.plan(pair)
            walls = {}
            for traced in ((False, True) if pair % 2 == 0 else (True, False)):
                t0 = time.perf_counter()
                if not traced:
                    self.cycle(plan, OpLog())
                    walls[False] = time.perf_counter() - t0
                    continue
                log = OpLog()
                installed = trace.install(recorder)
                try:
                    self.cycle(plan, log, recorder)
                finally:
                    installed.restore()
                walls[True] = time.perf_counter() - t0
                per_cycle.append(trace.layer_metrics(recorder.take(),
                                                     log.windows))
            ratios.append(walls[True] / walls[False])
        counts = [trace.count_vector(m) for m in per_cycle]
        if any(c != counts[0] for c in counts):
            self.tally.fail("trace", "per-layer counts differ between "
                            f"traced cycles: {counts}")
        layers = {name: sum(m[name] for m in per_cycle) / len(per_cycle)
                  for name in trace.PER_LAYER}
        layers["trace_overhead"] = median(ratios) - 1.0
        return layers
