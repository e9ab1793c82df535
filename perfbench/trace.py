"""Outside-in span recorder for the traced run.

Spans are recorded around ``repro``'s public calls, from the benchmark's
own files: each wrapper replaces a function everywhere a caller looks it
up (every ``repro`` module that holds the same function object, since
modules import checkers by name) or a method on its class.  Wrappers are
installed only for traced cycles and restored afterwards, so untimed and
end-to-end cycles run the unmodified program.

A span is ``(name, start, end, parent, op, counts)``.  ``start``/``end``
come from ``time.monotonic()``, one clock for every process on the host,
so the daemon's spans line up with the client's round trips.  Spans stay
in memory and are written out only when the run (or the daemon) ends.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from common import declared_metrics

_REPRO_MODULES = (
    "repro.cli", "repro.core", "repro.core.verify", "repro.core.resilience",
    "repro.design", "repro.design.scheduler", "repro.design.supervise",
    "repro.mc", "repro.mc.por", "repro.mc.ndfs", "repro.psl.jit",
    "repro.serve", "repro.serve.jobs", "repro.serve.manager",
)


class Recorder:
    """Collects spans from any thread of one process.

    It takes no lock: the daemon forks sandboxes while its threads are
    recording, and a lock held at the fork would hang the child.  Span
    ids come from an ``itertools.count`` and spans are appended to a
    list, both atomic under the interpreter lock.
    """

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self.op: Optional[str] = None
        self._local = threading.local()
        self._ids = itertools.count()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Dict[str, Any]:
        stack = self._stack()
        span = {"id": next(self._ids), "name": name,
                "start": time.monotonic(), "end": None,
                "parent": stack[-1]["id"] if stack else None,
                "op": self.op, "counts": {}}
        self.spans.append(span)
        stack.append(span)
        return span

    def end(self, span: Dict[str, Any]) -> None:
        span["end"] = time.monotonic()
        self._stack().pop()

    def take(self) -> List[Dict[str, Any]]:
        """Hand over the finished spans and start a fresh list."""
        spans, self.spans = self.spans, []
        return [span for span in spans if span["end"] is not None]


# -- count annotations: (before(args, kwargs), after(args, kwargs, result,
#    before) -> counts) -------------------------------------------------------

def _compile_before(args, kwargs):
    from repro.psl.jit import program_cache_info
    return program_cache_info()


def _compile_after(args, kwargs, result, before):
    from repro.psl.jit import program_cache_info
    after = program_cache_info()
    return {"programs_compiled": (after["programs_compiled"]
                                  - before["programs_compiled"]),
            "compile_hits": after["digest_hits"] - before["digest_hits"]}


def _library_of(args, kwargs):
    library = kwargs.get("library", args[1] if len(args) > 1 else None)
    return library


def _elab_before(args, kwargs):
    library = _library_of(args, kwargs)
    if library is None:
        return None
    return library.stats.hits, library.stats.misses


def _elab_after(args, kwargs, result, before):
    counts = {"elaborations": 1}
    if before is not None:
        stats = _library_of(args, kwargs).stats
        counts["models_reused"] = stats.hits - before[0]
        counts["models_built"] = stats.misses - before[1]
    return counts


def _graph_size(target) -> Optional[int]:
    return getattr(target, "n_states_seen", None)


def _check_after(args, kwargs, result, before):
    stats = getattr(result, "stats", result)
    if hasattr(stats, "states_stored"):
        return {"checks": 1, "states": stats.states_stored,
                "transitions": stats.transitions}
    # find_state returns a trace, not statistics: count the graph it
    # searched (all of it when the goal is unreachable).
    return {"checks": 1, "states": _graph_size(args[0]) or 0}


def _resilience_after(args, kwargs, result, before):
    return {"scenarios": len(result.scenarios)} if result is not None else {}


def _get_after(args, kwargs, result, before):
    return {"cache_gets": 1, "cache_hits": int(result is not None)}


def _dispatch_after(args, kwargs, result, before):
    payloads = args[2] if len(args) > 2 else kwargs.get("payloads", ())
    inner = 0.0
    retries = 0
    for outcome in result or ():
        retries += max(0, outcome.attempts - 1)
        record = outcome.result
        if isinstance(record, tuple):
            record = record[0]
        if isinstance(record, dict):
            inner += float(record.get("seconds") or 0.0)
    return {"jobs_dispatched": len(payloads), "job_retries": retries,
            "inner_seconds": inner}


def _submit_after(args, kwargs, result, before):
    return {"job_id": result["job_id"]} if result else {}


def _wait_after(args, kwargs, result, before):
    return {"job_id": args[1] if len(args) > 1 else kwargs.get("job_id")}


def _const(**counts):
    return lambda args, kwargs, result, before: dict(counts)


#: (span name, module, attribute, class or None, before, after)
TARGETS: List[Tuple[str, str, str, Optional[str],
                    Optional[Callable], Optional[Callable]]] = [
    ("psl.compile", "repro.psl.jit", "make_interpreter", None,
     _compile_before, _compile_after),
    ("psl.compile", "repro.psl.jit", "bind_engine", "CompiledInterpreter",
     _compile_before, _compile_after),
    ("core.elaborate", "repro.core.architecture", "to_system", "Architecture",
     _elab_before, _elab_after),
    ("core.resilience", "repro.core.resilience", "verify_resilience", None,
     None, _resilience_after),
    ("mc.check", "repro.mc.explore", "check_safety", None, None,
     _check_after),
    ("mc.check", "repro.mc.explore", "find_state", None, None, _check_after),
    ("mc.check", "repro.mc.explore", "count_states", None, None,
     _check_after),
    ("mc.check", "repro.mc.ndfs", "check_ltl", None, None, _check_after),
    ("mc.check", "repro.mc.por", "check_safety_por", None, None,
     _check_after),
    ("design.space", "repro.design.space", "variants", "DesignSpace", None,
     None),
    ("design.space", "repro.design.space", "build", "Variant", None, None),
    ("design.fingerprint", "repro.design.fingerprint", "fingerprint_job",
     None, None, _const(fingerprints=1)),
    ("design.cache_get", "repro.design.sqlcache", "get", "SqliteResultCache",
     None, _get_after),
    ("design.cache_put", "repro.design.sqlcache", "put", "SqliteResultCache",
     None, _const(cache_puts=1)),
    ("design.journal", "repro.design.journal", "record", "RunJournal", None,
     _const(journal_records=1)),
    ("design.dispatch", "repro.design.supervise", "run", "SupervisedPool",
     None, _dispatch_after),
    ("serve.build_job", "repro.serve.jobs", "build_job", None, None, None),
    ("serve.submit", "repro.serve.manager", "submit", "JobManager", None,
     _submit_after),
    ("serve.wait", "repro.serve.manager", "wait", "JobManager", None,
     _wait_after),
]


def _wrapper(recorder: Recorder, name: str, fn: Callable,
             before_fn: Optional[Callable], after_fn: Optional[Callable]):
    def traced(*args, **kwargs):
        before = before_fn(args, kwargs) if before_fn is not None else None
        span = recorder.begin(name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            recorder.end(span)
            if after_fn is not None:
                span["counts"] = after_fn(args, kwargs, result, before)
    traced.__wrapped__ = fn
    traced.__name__ = getattr(fn, "__name__", name)
    return traced


class Installed:
    """The wrappers one :func:`install` put in place, for :meth:`restore`."""

    def __init__(self) -> None:
        self.patches: List[Tuple[Any, str, Any]] = []

    def restore(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()


def install(recorder: Recorder) -> Installed:
    """Wrap every target where its callers look it up."""
    for module in _REPRO_MODULES:
        importlib.import_module(module)
    installed = Installed()
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "repro" or n.startswith("repro."))]
    for name, module_name, attr, cls_name, before, after in TARGETS:
        module = importlib.import_module(module_name)
        if cls_name is not None:
            cls = getattr(module, cls_name)
            original = cls.__dict__[attr]
            installed.patches.append((cls, attr, original))
            setattr(cls, attr, _wrapper(recorder, name, original, before,
                                        after))
            continue
        original = getattr(module, attr)
        wrapped = _wrapper(recorder, name, original, before, after)
        for holder in modules:
            for key, value in list(vars(holder).items()):
                if value is original:
                    installed.patches.append((holder, key, original))
                    setattr(holder, key, wrapped)
    return installed


# -- analysis -------------------------------------------------------------------

def _union(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: List[Dict[str, Any]]) -> Dict[int, float]:
    """Each span's duration minus the part its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"]))
    return {span["id"]: (span["end"] - span["start"])
            - _union(children.get(span["id"], []))
            for span in spans}


def covered(spans: List[Dict[str, Any]], start: float, end: float) -> float:
    """Seconds of ``[start, end]`` that top-level spans cover."""
    return _union([(max(s["start"], start), min(s["end"], end))
                   for s in spans if s["parent"] is None
                   and s["end"] > start and s["start"] < end])


#: Every per-layer metric, name -> unit, in report order.
PER_LAYER = declared_metrics("per_layer")

#: Counts that may vary at one seed: arrival timing decides whether a
#: served repeat coalesces onto a running job or hits the store, and a
#: retry happens only when a sandbox fails.
ARRIVAL_DEPENDENT = {"serve.coalesced", "serve.cache_hits",
                     "design.cache_hits"}
NOT_REPEATABLE = {"design.job_retries"}

#: Span name -> self-time metric.  ``core.resilience_s`` is inclusive
#: (the sweep's nested checks are its cost) and ``design.dispatch_s`` is
#: pool wall time minus the jobs' own seconds; both are set below.
_SELF_TIME = {
    "psl.compile": "psl.compile_s",
    "core.elaborate": "core.elaborate_s",
    "mc.check": "mc.check_s",
    "design.space": "design.space_s",
    "design.fingerprint": "design.fingerprint_s",
    "design.cache_get": "design.cache_get_s",
    "design.cache_put": "design.cache_put_s",
    "design.journal": "design.journal_s",
    "serve.submit": "serve.submit_s",
    "serve.build_job": "serve.submit_s",
}

_COUNTS = {
    "programs_compiled": "psl.programs_compiled",
    "compile_hits": "psl.compile_hits",
    "elaborations": "core.elaborations",
    "models_built": "core.models_built",
    "models_reused": "core.models_reused",
    "scenarios": "core.scenarios",
    "checks": "mc.checks",
    "states": "mc.states",
    "transitions": "mc.transitions",
    "fingerprints": "design.fingerprints",
    "cache_gets": "design.cache_gets",
    "cache_hits": "design.cache_hits",
    "cache_puts": "design.cache_puts",
    "journal_records": "design.journal_records",
    "jobs_dispatched": "design.jobs_dispatched",
    "job_retries": "design.job_retries",
}


def layer_metrics(spans: List[Dict[str, Any]],
                  ops: List[Tuple[float, float]]) -> Dict[str, float]:
    """The per-layer split of one traced cycle.

    ``ops`` are the cycle's operation windows; the part of them no
    top-level span covers is ``other_s``.  Serve-only metrics and
    ``trace_overhead`` are left at zero for the caller to fill.
    """
    out = {name: 0.0 for name in PER_LAYER}
    own = self_times(spans)
    for span in spans:
        name = span["name"]
        counts = span["counts"]
        if name in _SELF_TIME:
            out[_SELF_TIME[name]] += own[span["id"]]
        elif name == "core.resilience":
            out["core.resilience_s"] += span["end"] - span["start"]
        elif name == "design.dispatch":
            out["design.dispatch_s"] += (span["end"] - span["start"]
                                         - counts.get("inner_seconds", 0.0))
        for key, metric in _COUNTS.items():
            if key in counts:
                out[metric] += counts[key]
    if out["mc.check_s"] > 0:
        out["mc.states_per_s"] = out["mc.states"] / out["mc.check_s"]
    out["other_s"] = sum((end - start) - covered(spans, start, end)
                         for start, end in ops)
    return out


def count_vector(metrics: Dict[str, float],
                 exclude=frozenset()) -> Dict[str, float]:
    """The counts that must repeat exactly at one seed."""
    skip = NOT_REPEATABLE | set(exclude)
    return {name: metrics[name] for name, unit in PER_LAYER.items()
            if unit == "count" and name not in skip}
