"""A dropped state graph is freed by reference counting.

The engine-mode namespaces a compiled graph binds hold its store, and
each is the globals of the functions it holds.  Unless that cycle is
broken when the graph goes, its states wait for a full collection.
"""

import gc

from repro.mc import StateGraph, check_safety
from repro.psl.jit import CompiledInterpreter
from repro.systems.bridge import (
    BridgeConfig,
    build_exactly_n_bridge,
    fix_exactly_n_bridge,
)


def _live(tracked):
    """Which of the (id, length) containers the collector still tracks.

    ``StateStore`` and its dict and list take no weak references, so
    they are found by ``id()``; the length guards against a new
    container that reuses a freed one's address.
    """
    live = {id(obj): obj for obj in gc.get_objects()
            if type(obj) in (dict, list)}
    return [oid in live and len(live[oid]) == n for oid, n in tracked]


def test_dropped_graph_frees_its_store_without_a_collection():
    arch = fix_exactly_n_bridge(
        build_exactly_n_bridge(BridgeConfig(1, 1, trips=1)))
    system = arch.to_system(fused=True)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        graph = StateGraph(system, jit=True)
        assert isinstance(graph.interp, CompiledInterpreter)
        assert check_safety(graph).ok
        store = graph.store
        tracked = [(id(store._ids), len(store._ids)),
                   (id(store._states), len(store._states))]
        assert tracked[1][1] > 100
        del store
        assert _live(tracked) == [True, True]
        del graph
        assert _live(tracked) == [False, False]
    finally:
        if was_enabled:
            gc.enable()
