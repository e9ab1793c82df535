"""Finite-state verification engine (the reproduction's stand-in for SPIN).

Layers:

* :mod:`repro.mc.explore` — exhaustive BFS safety checking (assertions,
  invariants, deadlock) with shortest counterexamples;
* :mod:`repro.mc.ltl` / :mod:`repro.mc.buchi` / :mod:`repro.mc.ndfs` —
  full LTL model checking via the GPVW Büchi construction and nested
  depth-first search;
* :mod:`repro.mc.por` — ample-set partial-order reduction for safety;
* :mod:`repro.mc.props` — named atomic propositions over system states;
* :mod:`repro.mc.engine` — the shared state-space engine: interned
  states (:class:`StateStore`), a memoized transition relation
  (:class:`TransitionCache`), and the :class:`StateGraph` façade that
  every checker accepts in place of a system, so repeated checks on
  one system pay exploration cost once.
"""

from .buchi import BuchiAutomaton, BuchiState, ltl_to_buchi
from .budget import (
    BUDGET_STATES,
    BUDGET_TIME,
    Budget,
    BudgetExceeded,
    StateLimitExceeded,
    TimeLimitExceeded,
)
from .engine import CachedTransition, StateGraph, StateStore, TransitionCache
from .fairness import FairProduct
from .explore import (
    SafetyReport,
    check_safety,
    count_states,
    find_state,
    reachable_states,
    sweep_safety,
)
from .ltl import Formula, LtlSyntaxError, negate, nnf, parse_ltl
from .ndfs import check_ltl
from .por import AmpleInterpreter, check_safety_por
from .props import Prop, StateView, global_prop, prop
from .simulate import (
    ReplayError,
    SimulationRun,
    process_priority_scheduler,
    random_scheduler,
    replay,
    round_robin_scheduler,
    simulate,
)
from .result import (
    Statistics,
    Trace,
    TraceStep,
    VerificationResult,
    VIOLATION_ACCEPTANCE_CYCLE,
    VIOLATION_ASSERTION,
    VIOLATION_DEADLOCK,
    VIOLATION_INVARIANT,
)

__all__ = [
    "AmpleInterpreter",
    "BUDGET_STATES",
    "BUDGET_TIME",
    "Budget",
    "BudgetExceeded",
    "BuchiAutomaton",
    "BuchiState",
    "CachedTransition",
    "FairProduct",
    "TimeLimitExceeded",
    "Formula",
    "LtlSyntaxError",
    "Prop",
    "ReplayError",
    "SafetyReport",
    "SimulationRun",
    "StateGraph",
    "StateLimitExceeded",
    "StateStore",
    "StateView",
    "Statistics",
    "TransitionCache",
    "Trace",
    "TraceStep",
    "VerificationResult",
    "VIOLATION_ACCEPTANCE_CYCLE",
    "VIOLATION_ASSERTION",
    "VIOLATION_DEADLOCK",
    "VIOLATION_INVARIANT",
    "check_ltl",
    "check_safety",
    "check_safety_por",
    "count_states",
    "find_state",
    "global_prop",
    "ltl_to_buchi",
    "negate",
    "nnf",
    "parse_ltl",
    "prop",
    "process_priority_scheduler",
    "random_scheduler",
    "reachable_states",
    "replay",
    "round_robin_scheduler",
    "simulate",
    "sweep_safety",
]
