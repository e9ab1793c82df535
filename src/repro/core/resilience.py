"""Resilience verification: sweep fault scenarios over one architecture.

The PnP promise is that connector blocks swap without touching component
designs.  This module turns that around for *fault injection*: each
scenario swaps fault-carrying blocks (lossy channels, timing-out
receives, ...) into a copy of the design and re-verifies it, reusing the
same :class:`~repro.core.spec.ModelLibrary` across the whole sweep so
each fault block's model is built once.

Every scenario is classified on a small resilience ladder:

* ``ROBUST`` — all invariants, assertions, and (if requested) the goal
  still hold under the fault;
* ``DEGRADED`` — safety holds but liveness is lost: the system can
  deadlock, or the ``goal`` state is no longer reachable;
* ``BROKEN`` — an invariant or assertion is violated; the report carries
  the counterexample trace;
* ``UNKNOWN`` — the exploration budget ran out before a verdict.

Typical use::

    report = verify_resilience(
        build_abp(),
        faults=[ChannelFault("DataLink", LossyChannel())],
        goal=delivered_all,
    )
    print(report.table())
"""

from __future__ import annotations

import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

from ..mc.budget import BudgetExceeded
from ..mc.engine import StateGraph
from ..mc.explore import check_safety, find_state
from ..mc.props import Prop
from ..mc.result import VIOLATION_DEADLOCK, Trace, VerificationResult
from ..obs.events import (
    EngineEvent,
    scenario_finished,
    scenario_started,
    sweep_finished,
    sweep_started,
    warning,
)
from ..obs.reporters import CollectingReporter, Reporter, ScenarioScope
from .architecture import Architecture
from .channels import ChannelSpec
from .ports import ReceivePortSpec, SendPortSpec
from .spec import ModelLibrary

#: Scenario verdicts, from best to worst.
ROBUST = "robust"
DEGRADED = "degraded"
BROKEN = "broken"
UNKNOWN = "unknown"

_VERDICT_ORDER = (ROBUST, UNKNOWN, DEGRADED, BROKEN)


# -- fault descriptors ----------------------------------------------------

@dataclass(frozen=True)
class ChannelFault:
    """Replace a connector's channel block with a fault-carrying one."""

    connector: str
    spec: ChannelSpec

    def apply(self, arch: Architecture) -> None:
        arch.swap_channel(self.connector, self.spec)

    def describe(self) -> str:
        return f"{self.connector}:{self.spec.display_name()}"


@dataclass(frozen=True)
class SendPortFault:
    """Replace one component's send port on a connector."""

    connector: str
    component: str
    spec: SendPortSpec
    port: Optional[str] = None

    def apply(self, arch: Architecture) -> None:
        arch.swap_send_port(self.connector, self.component, self.spec,
                            self.port)

    def describe(self) -> str:
        return f"{self.connector}.{self.component}:{self.spec.display_name()}"


@dataclass(frozen=True)
class ReceivePortFault:
    """Replace one component's receive port on a connector."""

    connector: str
    component: str
    spec: ReceivePortSpec
    port: Optional[str] = None

    def apply(self, arch: Architecture) -> None:
        arch.swap_receive_port(self.connector, self.component, self.spec,
                               self.port)

    def describe(self) -> str:
        return f"{self.connector}.{self.component}:{self.spec.display_name()}"


Fault = Union[ChannelFault, SendPortFault, ReceivePortFault]


@dataclass(frozen=True)
class FaultScenario:
    """A named set of simultaneous faults, applied to a design copy."""

    name: str
    faults: Tuple[Fault, ...]

    def __init__(self, name: str, faults: Sequence[Fault]) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "faults", tuple(faults))

    def apply_to(self, arch: Architecture) -> Architecture:
        """A copy of ``arch`` with every fault of this scenario injected."""
        faulty = arch.copy()
        for fault in self.faults:
            fault.apply(faulty)
        return faulty

    def describe(self) -> str:
        return " + ".join(f.describe() for f in self.faults) or "(no faults)"


def _as_scenario(entry: Union[Fault, FaultScenario]) -> FaultScenario:
    if isinstance(entry, FaultScenario):
        return entry
    return FaultScenario(entry.describe(), [entry])


# -- reports --------------------------------------------------------------

@dataclass
class ScenarioReport:
    """Verdict and evidence for one fault scenario."""

    scenario: FaultScenario
    verdict: str
    detail: str
    safety: VerificationResult
    trace: Optional[Trace] = None
    models_reused: int = 0
    models_built: int = 0
    seconds: float = 0.0

    @property
    def name(self) -> str:
        return self.scenario.name

    def summary(self) -> str:
        return (
            f"{self.name}: {self.verdict.upper()} — {self.detail} "
            f"({self.safety.stats.states_stored} states, {self.seconds:.2f}s, "
            f"models: {self.models_reused} reused / {self.models_built} built)"
        )


@dataclass
class ResilienceReport:
    """Outcome of a whole fault sweep over one architecture."""

    architecture: str
    scenarios: List[ScenarioReport] = field(default_factory=list)
    #: Non-fatal degradations (e.g. a parallel sweep that fell back to
    #: the serial path because the work did not pickle).
    warnings: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no scenario is broken (degraded still counts as ok)."""
        return all(s.verdict != BROKEN for s in self.scenarios)

    @property
    def complete(self) -> bool:
        return all(s.verdict != UNKNOWN for s in self.scenarios)

    @property
    def worst(self) -> str:
        if not self.scenarios:
            return ROBUST
        return max((s.verdict for s in self.scenarios),
                   key=_VERDICT_ORDER.index)

    def __bool__(self) -> bool:
        return self.ok

    def __iter__(self):
        return iter(self.scenarios)

    def scenario(self, name: str) -> ScenarioReport:
        for s in self.scenarios:
            if s.name == name:
                return s
        raise KeyError(f"no scenario named {name!r}")

    def table(self) -> str:
        """A fixed-width scenario matrix, one row per scenario."""
        rows = [("scenario", "verdict", "states", "time", "models", "detail")]
        for s in self.scenarios:
            rows.append((
                s.name,
                s.verdict.upper(),
                str(s.safety.stats.states_stored),
                f"{s.seconds:.2f}s",
                f"{s.models_reused}r/{s.models_built}b",
                s.detail,
            ))
        widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
        lines = []
        for j, row in enumerate(rows):
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
            if j == 0:
                lines.append("  ".join("-" * w for w in widths))
        lines.append("")
        lines.append(f"overall: {self.worst.upper()}"
                     + ("" if self.complete else " (some scenarios incomplete)"))
        return "\n".join(lines)


# -- the sweep ------------------------------------------------------------

def _classify(
    result: VerificationResult,
    goal_verdict: Optional[str],
    goal_detail: str,
    deadlock_is_fatal: bool,
) -> Tuple[str, str, Optional[Trace]]:
    if not result.ok:
        if result.kind == VIOLATION_DEADLOCK and not deadlock_is_fatal:
            return DEGRADED, f"liveness lost: {result.message}", result.trace
        return BROKEN, f"safety violated: {result.message}", result.trace
    if result.incomplete:
        return (UNKNOWN,
                f"{result.budget_exhausted or 'budget'} exhausted before a "
                "verdict", None)
    if goal_verdict is not None:
        return goal_verdict, goal_detail, None
    return ROBUST, "all properties hold under the fault", None


def _run_scenario(
    architecture: Architecture,
    scenario: FaultScenario,
    invariants: Sequence[Prop],
    goal: Optional[Prop],
    check_deadlock: bool,
    deadlock_is_fatal: bool,
    library: ModelLibrary,
    max_states: Optional[int],
    max_seconds: Optional[float],
    fused: bool,
    reporter: Optional[Reporter] = None,
) -> ScenarioReport:
    """Verify one fault scenario; the unit of work for serial and parallel sweeps.

    The scenario's system is explored through a single shared
    :class:`~repro.mc.engine.StateGraph`, so the safety sweep and the
    goal-reachability search pay successor generation once between them.
    Engine events go to ``reporter`` tagged with the scenario's name.
    """
    scoped: Optional[Reporter] = None
    if reporter is not None:
        scoped = ScenarioScope(reporter, scenario.name)
    faulty = scenario.apply_to(architecture)
    hits0, misses0 = library.stats.hits, library.stats.misses
    t0 = time.perf_counter()
    system = faulty.to_system(library, fused=fused)
    graph = StateGraph(system)
    result = check_safety(
        graph, invariants=invariants, check_deadlock=check_deadlock,
        max_states=max_states, max_seconds=max_seconds, reporter=scoped,
    )

    goal_verdict: Optional[str] = None
    goal_detail = ""
    if goal is not None and result.ok and not result.incomplete:
        try:
            witness = find_state(graph, goal, max_states=max_states,
                                 max_seconds=max_seconds, reporter=scoped)
        except BudgetExceeded as exc:
            goal_verdict = UNKNOWN
            goal_detail = f"goal search stopped early: {exc}"
        else:
            if witness is None:
                goal_verdict = DEGRADED
                goal_detail = (f"liveness lost: goal "
                               f"{goal.name!r} is unreachable")

    verdict, detail, trace = _classify(
        result, goal_verdict, goal_detail, deadlock_is_fatal)
    return ScenarioReport(
        scenario=scenario,
        verdict=verdict,
        detail=detail,
        safety=result,
        trace=trace,
        models_reused=library.stats.hits - hits0,
        models_built=library.stats.misses - misses0,
        seconds=time.perf_counter() - t0,
    )


def _run_scenario_task(payload: bytes) -> Tuple[ScenarioReport, List[EngineEvent]]:
    """Process-pool entry point: unpickle one scenario's work and run it.

    Each worker builds a private :class:`ModelLibrary`, so the
    ``models_reused`` accounting in a parallel sweep reflects reuse
    *within* a scenario only; verdicts and traces are unaffected.

    When the parent sweep has a reporter attached, its progress interval
    travels in the payload; the worker buffers its events in a
    :class:`~repro.obs.reporters.CollectingReporter` (events are plain
    picklable data) and ships them back with the report, so the parent
    can re-emit them in deterministic scenario order after the join.
    """
    (architecture, scenario, invariants, goal, check_deadlock,
     deadlock_is_fatal, max_states, max_seconds, fused,
     interval) = pickle.loads(payload)
    collector = None if interval is None else CollectingReporter(interval)
    report = _run_scenario(
        architecture, scenario, invariants, goal, check_deadlock,
        deadlock_is_fatal, ModelLibrary(), max_states, max_seconds, fused,
        reporter=collector,
    )
    return report, ([] if collector is None else collector.events)


def verify_resilience(
    architecture: Architecture,
    faults: Sequence[Union[Fault, FaultScenario]],
    invariants: Sequence[Prop] = (),
    goal: Optional[Prop] = None,
    check_deadlock: bool = True,
    deadlock_is_fatal: bool = False,
    library: Optional[ModelLibrary] = None,
    max_states: Optional[int] = None,
    max_seconds: Optional[float] = None,
    fused: bool = False,
    include_baseline: bool = True,
    jobs: int = 1,
    reporter: Optional[Reporter] = None,
) -> ResilienceReport:
    """Sweep fault scenarios over a design and classify each outcome.

    Each entry of ``faults`` is a single fault descriptor (auto-wrapped
    into a one-fault scenario) or a :class:`FaultScenario` grouping
    several simultaneous faults.  Every scenario is applied to a fresh
    copy of ``architecture`` — the input design is never mutated — and
    verified against ``invariants`` (plus embedded assertions and, by
    default, deadlock-freedom) with the shared ``library``.

    ``goal``, when given, is a state predicate that must stay reachable
    (e.g. "all messages delivered"); a fault that makes it unreachable
    degrades the design even if safety holds.  Deadlocks classify as
    ``DEGRADED`` unless ``deadlock_is_fatal=True``.  Budgets
    (``max_states`` / ``max_seconds``, applied per scenario) that run
    out yield ``UNKNOWN`` rather than an exception.

    Scenarios are independent, so ``jobs > 1`` fans them out over a
    ``concurrent.futures`` process pool.  Results are identical to the
    serial sweep and arrive in the same order; only the model-reuse
    accounting changes (each worker holds a private library).  When the
    work does not pickle (e.g. a ``goal`` or invariant closing over a
    lambda) the sweep falls back to the serial path; the degradation is
    recorded in ``report.warnings`` and, when a reporter is attached,
    announced with a ``warning`` engine event.

    ``reporter`` receives the sweep's engine events.  The event sequence
    is identical for serial and parallel sweeps: per scenario, in input
    order, ``scenario_started``, the scenario's own run events (tagged
    with its name), then ``scenario_finished`` — parallel workers buffer
    their streams and the parent replays them after the join.
    """
    library = library if library is not None else ModelLibrary()
    report = ResilienceReport(architecture=architecture.name)

    scenarios = [_as_scenario(f) for f in faults]
    if include_baseline:
        scenarios.insert(0, FaultScenario("baseline", []))

    def finish_sweep() -> ResilienceReport:
        if reporter is not None:
            reporter.emit(sweep_finished(
                architecture.name, worst=report.worst, ok=report.ok,
                complete=report.complete))
        return report

    if reporter is not None:
        reporter.emit(sweep_started(
            architecture.name, scenarios=len(scenarios), jobs=jobs))

    if jobs > 1 and len(scenarios) > 1:
        if not (os.environ.get("REPRO_FORCE_PARALLEL")
                or (os.cpu_count() or 1) > 1):
            # One CPU: a process pool is pure overhead (measured 0.87x
            # on the 1-CPU bench machine).  Degrade audibly — the sweep
            # stays correct, only the fan-out is skipped.  Tests set
            # REPRO_FORCE_PARALLEL to exercise the pool on one CPU.
            message = (
                "parallel fault sweep degraded to a serial run: only "
                f"{os.cpu_count() or 1} CPU is available, so a worker "
                "pool is pure overhead (set REPRO_FORCE_PARALLEL=1 to "
                "override)")
            report.warnings.append(message)
            if reporter is not None:
                reporter.emit(warning("resilience", message=message))
        else:
            reports = _sweep_parallel(
                architecture, scenarios, invariants, goal, check_deadlock,
                deadlock_is_fatal, max_states, max_seconds, fused, jobs,
                reporter,
            )
            if reports is not None:
                report.scenarios.extend(reports)
                return finish_sweep()
            # Unpicklable work or a broken pool: degrade to the serial
            # sweep — audibly, so nobody mistakes it for a parallel run.
            message = ("parallel fault sweep degraded to a serial run: the "
                       "verification jobs do not pickle across the worker "
                       "pool")
            report.warnings.append(message)
            if reporter is not None:
                reporter.emit(warning("resilience", message=message))

    total = len(scenarios)
    for index, scenario in enumerate(scenarios):
        if reporter is not None:
            reporter.emit(scenario_started(
                scenario.name, faults=scenario.describe(),
                index=index, total=total))
        scen_report = _run_scenario(
            architecture, scenario, invariants, goal, check_deadlock,
            deadlock_is_fatal, library, max_states, max_seconds, fused,
            reporter=reporter,
        )
        report.scenarios.append(scen_report)
        if reporter is not None:
            reporter.emit(scenario_finished(
                scenario.name, verdict=scen_report.verdict,
                detail=scen_report.detail,
                states_stored=scen_report.safety.stats.states_stored,
                seconds=scen_report.seconds))
    return finish_sweep()


def _sweep_parallel(
    architecture: Architecture,
    scenarios: Sequence[FaultScenario],
    invariants: Sequence[Prop],
    goal: Optional[Prop],
    check_deadlock: bool,
    deadlock_is_fatal: bool,
    max_states: Optional[int],
    max_seconds: Optional[float],
    fused: bool,
    jobs: int,
    reporter: Optional[Reporter] = None,
) -> Optional[List[ScenarioReport]]:
    """Fan scenarios out over a process pool; ``None`` means fall back serial.

    Workers buffer their event streams; after the (order-preserving)
    ``pool.map`` join the parent replays each scenario's buffer between
    its ``scenario_started`` / ``scenario_finished`` brackets, so the
    delivered sequence matches the serial sweep's exactly.
    """
    interval = None
    if reporter is not None:
        interval = int(getattr(reporter, "interval", 1000))
    try:
        payloads = [
            pickle.dumps((
                architecture, scenario, tuple(invariants), goal,
                check_deadlock, deadlock_is_fatal, max_states, max_seconds,
                fused, interval,
            ))
            for scenario in scenarios
        ]
    except Exception:
        return None
    workers = min(jobs, len(scenarios))
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_scenario_task, payloads))
    except Exception:
        return None
    reports: List[ScenarioReport] = []
    total = len(scenarios)
    for index, (scen_report, events) in enumerate(outcomes):
        reports.append(scen_report)
        if reporter is not None:
            reporter.emit(scenario_started(
                scen_report.name, faults=scen_report.scenario.describe(),
                index=index, total=total))
            for event in events:
                reporter.emit(event)
            reporter.emit(scenario_finished(
                scen_report.name, verdict=scen_report.verdict,
                detail=scen_report.detail,
                states_stored=scen_report.safety.stats.states_stored,
                seconds=scen_report.seconds))
    return reports
