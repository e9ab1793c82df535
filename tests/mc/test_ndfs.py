"""Tests for repro.mc.ndfs: LTL model checking over PSL systems."""

import pytest

from repro.mc import StateGraph, check_ltl, global_prop
from repro.mc.result import VIOLATION_ACCEPTANCE_CYCLE
from repro.psl import Assign, Branch, Do, Guard, ProcessDef, System, V


def toggler():
    """x flips 0 -> 1 -> 0 -> ... forever."""
    s = System("toggler")
    s.add_global("x", 0)
    d = ProcessDef("t", Do(
        Branch(Guard(V("x") == 0), Assign("x", 1)),
        Branch(Guard(V("x") == 1), Assign("x", 0)),
    ))
    s.spawn(d, "t1")
    return s


def one_shot():
    """x goes 0 -> 1 and the process terminates (stutters at x=1)."""
    s = System("oneshot")
    s.add_global("x", 0)
    s.spawn(ProcessDef("p", Assign("x", 1)), "p1")
    return s


def sticky():
    """x may stay 0 forever or flip to 1 and stay."""
    s = System("sticky")
    s.add_global("x", 0)
    d = ProcessDef("p", Do(
        Branch(Guard(V("x") == 0), Assign("x", 0)),  # stay
        Branch(Guard(V("x") == 0), Assign("x", 1)),  # flip once
        Branch(Guard(V("x") == 1), Assign("x", 1)),
    ))
    s.spawn(d, "p1")
    return s


X1 = global_prop("x1", lambda v: v.global_("x") == 1, "x")
X0 = global_prop("x0", lambda v: v.global_("x") == 0, "x")
PROPS = {"x1": X1, "x0": X0}


class TestVerdicts:
    def test_gf_holds_on_toggler(self):
        assert check_ltl(toggler(), "G F x1", PROPS).ok

    def test_fg_fails_on_toggler(self):
        r = check_ltl(toggler(), "F G x1", PROPS)
        assert not r.ok
        assert r.kind == VIOLATION_ACCEPTANCE_CYCLE

    def test_g_fails_on_toggler(self):
        assert not check_ltl(toggler(), "G x0", PROPS).ok

    def test_f_holds_on_toggler(self):
        assert check_ltl(toggler(), "F x1", PROPS).ok

    def test_until_on_toggler(self):
        assert check_ltl(toggler(), "x0 U x1", PROPS).ok

    def test_next_on_toggler(self):
        # step 1 evaluates the guard, step 2 flips x to 1 deterministically
        assert not check_ltl(toggler(), "X x1", PROPS).ok
        assert check_ltl(toggler(), "X X x1", PROPS).ok

    def test_invalid_formula_prop_rejected(self):
        with pytest.raises(KeyError, match="unbound"):
            check_ltl(toggler(), "G nosuch", PROPS)


class TestStutterSemantics:
    def test_terminating_run_stutters(self):
        # after termination x stays 1 forever: F G x1 holds
        assert check_ltl(one_shot(), "F G x1", PROPS).ok

    def test_terminating_gf_holds_via_stutter(self):
        assert check_ltl(one_shot(), "G F x1", PROPS).ok

    def test_g_fails_because_initially_zero(self):
        assert not check_ltl(one_shot(), "G x1", PROPS).ok


class TestBranchingRuns:
    def test_f_fails_when_some_run_avoids(self):
        # sticky may keep x at 0 forever
        r = check_ltl(sticky(), "F x1", PROPS)
        assert not r.ok

    def test_possible_flip_not_guaranteed(self):
        # but G x0 also fails: some run flips
        assert not check_ltl(sticky(), "G x0", PROPS).ok

    def test_fg_x0_or_fg_x1_fails_piecewise(self):
        # each disjunct alone fails...
        assert not check_ltl(sticky(), "F G x0", PROPS).ok
        assert not check_ltl(sticky(), "F G x1", PROPS).ok
        # ...but every run eventually stabilizes to one of them
        assert check_ltl(sticky(), "(F G x0) || (F G x1)", PROPS).ok


class TestCounterexamples:
    def test_lasso_has_cycle_marker(self):
        r = check_ltl(toggler(), "F G x1", PROPS)
        assert r.trace is not None
        assert r.trace.cycle_start is not None
        assert 0 <= r.trace.cycle_start <= len(r.trace.steps)

    def test_lasso_cycle_returns_to_a_state(self):
        r = check_ltl(toggler(), "F G x1", PROPS)
        states = r.trace.states()
        # the final state must reappear earlier (it closes the loop)
        # at the product level; at the system level the state must
        # appear within the cycle portion
        cycle_states = states[r.trace.cycle_start:]
        assert len(cycle_states) >= 2

    def test_counterexample_violates_formula_witness(self):
        """The lasso for 'G x0' must actually visit x==1."""
        r = check_ltl(toggler(), "G x0", PROPS)
        assert any(s.globals_[0] == 1 for s in r.trace.states())

    def test_stats_populated(self):
        r = check_ltl(toggler(), "G F x1", PROPS)
        assert r.stats.states_stored > 0
        assert r.stats.transitions > 0

    def test_property_text_in_result(self):
        r = check_ltl(toggler(), "G F x1", PROPS)
        assert "x1" in r.property_text


class TestAgainstSafetyChecker:
    """G <invariant> via LTL must agree with the BFS invariant checker."""

    @pytest.mark.parametrize("limit,bound,expected", [
        (3, 5, True), (5, 3, False), (4, 4, True),
    ])
    def test_g_invariant_agrees(self, limit, bound, expected):
        from repro.mc import check_safety
        s = System("cnt")
        s.add_global("g", 0)
        s.spawn(ProcessDef("p", Do(
            Branch(Guard(V("g") < limit), Assign("g", V("g") + 1)),
        )), "i")
        prop = global_prop("ok", lambda v: v.global_("g") <= bound, "g")
        ltl_result = check_ltl(s, "G ok", {"ok": prop})
        bfs_result = check_safety(s, invariants=[prop], check_deadlock=False)
        assert ltl_result.ok == bfs_result.ok == expected


class TestBudgets:
    def test_partial_result_on_state_budget(self):
        r = check_ltl(toggler(), "G F x1", PROPS, max_states=1)
        assert r.ok and r.incomplete
        assert r.budget_exhausted == "state budget"
        assert "stopped early" in r.message

    def test_legacy_raise_on_limit(self):
        from repro.mc import StateLimitExceeded
        with pytest.raises(StateLimitExceeded):
            check_ltl(toggler(), "G F x1", PROPS, max_states=1,
                      raise_on_limit=True)

    def test_unbounded_run_is_complete(self):
        r = check_ltl(toggler(), "G F x1", PROPS)
        assert r.ok and not r.incomplete
        assert r.proved

    def test_weak_fairness_respects_budget(self):
        r = check_ltl(toggler(), "G F x1", PROPS, weak_fairness=True,
                      max_states=1)
        assert r.incomplete


class TestCompileStats:
    def test_ltl_run_reports_compile_cost(self):
        graph = StateGraph(toggler(), jit=True)
        result = check_ltl(graph, "G F x1", PROPS)
        assert result.ok
        stats = result.stats
        assert stats.programs_compiled + stats.compile_cache_hits == 1
        assert stats.compile_seconds == graph.compile_stats["compile_seconds"]
        assert stats.compile_seconds > 0.0
