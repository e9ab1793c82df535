"""Tests for repro.mc.por: ample-set partial-order reduction."""

import pytest

from repro.mc import (
    StateGraph,
    check_safety,
    check_safety_por,
    count_states,
    global_prop,
)
from repro.psl import (
    Assert,
    Assign,
    Branch,
    Do,
    Guard,
    Interpreter,
    ProcessDef,
    Recv,
    Send,
    Seq,
    System,
    V,
    buffered,
)


def local_heavy_system(workers=3, steps=4):
    """Workers do long local computations, then one global write each."""
    s = System("localheavy")
    s.add_global("done", 0)
    body = Seq(
        [Assign("x", V("x") + 1) for _ in range(steps)]
        + [Assign("done", V("done") + 1)]
    )
    d = ProcessDef("w", body, local_vars={"x": 0})
    for i in range(workers):
        s.spawn(d, f"w{i}")
    return s


def racy_system():
    """Non-atomic test-and-set: assertion violation must survive POR."""
    s = System("racy")
    s.add_global("lock", 0)
    s.add_global("crit", 0)
    body = Do(Branch(
        Guard(V("lock") == 0),
        Assign("lock", 1),
        Assign("crit", V("crit") + 1),
        Assert(V("crit") <= 1),
        Assign("crit", V("crit") - 1),
        Assign("lock", 0),
    ))
    d = ProcessDef("w", body)
    s.spawn(d, "w1")
    s.spawn(d, "w2")
    return s


class TestVerdictPreservation:
    def test_clean_local_system_passes(self):
        assert check_safety_por(local_heavy_system()).ok

    def test_assertion_violation_found(self):
        r = check_safety_por(racy_system(), check_deadlock=False)
        assert not r.ok
        assert r.kind == "assertion"

    def test_deadlock_found(self):
        s = System("d")
        s.add_global("g", 0)
        s.spawn(ProcessDef("p", Guard(V("g") == 1)), "stuck")
        r = check_safety_por(s)
        assert not r.ok
        assert r.kind == "deadlock"

    def test_invariant_with_declared_deps(self):
        s = local_heavy_system(workers=2, steps=3)
        p = global_prop("bounded", lambda v: v.global_("done") <= 2, "done")
        assert check_safety_por(s, invariants=[p]).ok

    def test_invariant_violation_found(self):
        s = local_heavy_system(workers=2, steps=2)
        p = global_prop("never_two", lambda v: v.global_("done") < 2, "done")
        r = check_safety_por(s, invariants=[p], check_deadlock=False)
        assert not r.ok
        assert r.trace is not None

    def test_counterexample_is_valid_execution(self):
        s = local_heavy_system(workers=2, steps=2)
        p = global_prop("never_two", lambda v: v.global_("done") < 2, "done")
        r = check_safety_por(s, invariants=[p], check_deadlock=False)
        # replay the trace through the interpreter
        interp = Interpreter(s)
        state = interp.initial_state()
        for step in r.trace.steps:
            targets = [t.target for t in interp.transitions(state)]
            assert step.state in targets
            state = step.state


class TestReduction:
    def test_reduces_local_interleavings(self):
        s = local_heavy_system(workers=3, steps=5)
        full = count_states(s)
        por = check_safety_por(local_heavy_system(workers=3, steps=5))
        assert por.ok
        assert por.stats.states_stored < full.states_stored

    def test_substantial_reduction_factor(self):
        s_full = count_states(local_heavy_system(workers=3, steps=6))
        por = check_safety_por(local_heavy_system(workers=3, steps=6))
        # local steps of distinct processes commute; reduction should be
        # at least 3x on this workload
        assert s_full.states_stored / por.stats.states_stored > 3

    def test_no_reduction_when_props_undeclared(self):
        """A prop without declared deps makes everything visible."""
        from repro.mc.props import Prop
        s = local_heavy_system(workers=2, steps=3)
        opaque = Prop("opaque", lambda v: True)  # no deps declared
        full = count_states(local_heavy_system(workers=2, steps=3))
        por = check_safety_por(s, invariants=[opaque])
        assert por.stats.states_stored == full.states_stored


class TestAgainstFullExploration:
    @pytest.mark.parametrize("workers,steps", [(1, 2), (2, 2), (2, 4), (3, 3)])
    def test_verdicts_agree_clean(self, workers, steps):
        full = check_safety(local_heavy_system(workers, steps))
        por = check_safety_por(local_heavy_system(workers, steps))
        assert full.ok == por.ok

    def test_verdicts_agree_racy(self):
        full = check_safety(racy_system(), check_deadlock=False)
        por = check_safety_por(racy_system(), check_deadlock=False)
        assert full.ok == por.ok == False  # noqa: E712

    def test_channel_system_unaffected(self):
        """Channel ops are never ample; verdicts and counts match."""
        c = buffered("c", 2, "v")
        s = System("chan")
        sender = ProcessDef("s", Seq([Send("out", [1]), Send("out", [2])]),
                            chan_params=("out",))
        receiver = ProcessDef(
            "r", Seq([Recv("inp", ["x"]), Recv("inp", ["y"])]),
            chan_params=("inp",), local_vars={"x": 0, "y": 0},
        )
        s.add_channel(c)
        s.spawn(sender, "s", chans={"out": c})
        s.spawn(receiver, "r", chans={"inp": c})
        full = check_safety(s)
        s2 = System("chan2")
        c2 = buffered("c", 2, "v")
        s2.add_channel(c2)
        s2.spawn(sender, "s", chans={"out": c2})
        s2.spawn(receiver, "r", chans={"inp": c2})
        por = check_safety_por(s2)
        assert full.ok == por.ok


class TestBudgets:
    def test_partial_result_on_state_budget(self):
        r = check_safety_por(local_heavy_system(workers=3, steps=4),
                             max_states=10)
        assert r.ok and r.incomplete
        assert r.budget_exhausted == "state budget"
        assert "stopped early" in r.message

    def test_legacy_raise_on_limit(self):
        from repro.mc import StateLimitExceeded
        with pytest.raises(StateLimitExceeded):
            check_safety_por(local_heavy_system(workers=3, steps=4),
                             max_states=10, raise_on_limit=True)

    def test_violation_beats_budget(self):
        r = check_safety_por(racy_system(), check_deadlock=False,
                             max_states=10**6)
        assert not r.ok
        assert not r.incomplete


class TestCompileStats:
    def test_por_run_reports_engine_and_plain_programs(self):
        # Ample sets ask the interpreter for one process's transitions,
        # which compiles the plain-mode programs mid-run: the run's
        # stats must count them beside the graph's engine programs.
        graph = StateGraph(local_heavy_system(2, 2), jit=True)
        result = check_safety_por(graph)
        assert result.ok
        stats = result.stats
        assert stats.programs_compiled + stats.compile_cache_hits == 2 * 2
        assert stats.programs_compiled == \
            graph.compile_stats["programs_compiled"]
        assert stats.compile_seconds == graph.compile_stats["compile_seconds"]
        assert stats.compile_seconds > 0.0
