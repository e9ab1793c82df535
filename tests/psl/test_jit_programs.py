"""When the JIT compiles which programs, and how they are counted.

A ``StateGraph`` walk runs only engine-mode programs, so building a
graph and checking it compiles one engine program per instance and no
plain-mode ones.  The plain ``transitions()`` API compiles its programs
on first use, once per interpreter.
"""

from repro.mc import StateGraph, check_safety
from repro.psl.jit import (
    _PROGRAM_CACHE,
    _program_key,
    clear_program_cache,
    program_cache_info,
)
from repro.systems.bridge import (
    BridgeConfig,
    build_exactly_n_bridge,
    fix_exactly_n_bridge,
)


def _system():
    arch = fix_exactly_n_bridge(
        build_exactly_n_bridge(BridgeConfig(1, 1, trips=1)))
    return arch.to_system(fused=True)


def _engine_keys(system):
    return {_program_key(pid, inst, system) + ("engine",)
            for pid, inst in enumerate(system.instances)}


class TestCompileOnUse:
    def test_graph_check_compiles_only_engine_programs(self):
        clear_program_cache()
        system = _system()
        keys = _engine_keys(system)
        graph = StateGraph(system, jit=True)
        assert check_safety(graph).ok
        stats = graph.compile_stats
        assert stats["programs_compiled"] == len(keys)
        assert stats["digest_hits"] == 0
        assert set(_PROGRAM_CACHE) == keys
        assert program_cache_info()["programs_compiled"] == len(keys)

        # Another graph of the same system binds the cached programs.
        again = StateGraph(_system(), jit=True)
        assert again.compile_stats["programs_compiled"] == 0
        assert again.compile_stats["digest_hits"] == len(keys)

    def test_first_plain_call_compiles_plain_programs_once(self):
        clear_program_cache()
        system = _system()
        n = len(_engine_keys(system))
        interp = StateGraph(system, jit=True).interp
        assert interp.compile_stats["programs_compiled"] == n
        before = interp.compile_stats["compile_seconds"]

        state = interp.initial_state()
        first = interp.transitions(state)
        assert interp.compile_stats["programs_compiled"] == 2 * n
        assert interp.compile_stats["compile_seconds"] > before
        assert program_cache_info()["programs_cached"] == 2 * n

        assert interp.transitions(state) == first
        interp._process_transitions(state, 0)
        interp.program_source(0)
        assert interp.compile_stats["programs_compiled"] == 2 * n
        assert interp.compile_stats["digest_hits"] == 0

    def test_program_source_compiles_the_plain_programs(self):
        clear_program_cache()
        system = _system()
        n = len(_engine_keys(system))
        interp = StateGraph(system, jit=True).interp
        source = interp.program_source(0)
        assert "out.append(T(" in source
        assert interp.compile_stats["programs_compiled"] == 2 * n
