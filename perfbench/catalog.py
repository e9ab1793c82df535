"""The benchmark's inputs: single-design checks and design spaces.

Everything here is built through ``repro``'s public API.  Callers look
checkers up as module attributes (``mc.check_safety``, not a name
imported into this module) so the traced run's wrappers see every call.

A verify op is ``op(library) -> (outcome, recheck)``.  It verifies one
design through ``library`` and keeps its state graph, and ``recheck()``
asks the same question again of that explored graph (a warm op: the
transitions are memoized, so nothing is re-generated).  An outcome is
``{"verdict", "states", "transitions"}``:

* ``verdict`` — one token per check, joined with ``/``;
* ``states`` — distinct states stored by the op (a shared graph counts
  once, a fault sweep sums its scenarios);
* ``transitions`` — summed over the op's checks.

Both counts are pinned by ``known_answers.json``, which
``gen_known_answers.py`` writes with the tree-walk interpreter.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro import core, design, mc
from repro.core import channels, ports
from repro.psl.expr import V
from repro.psl.stmt import Assign, Branch, Break, Do, Else, Guard, If, Seq
from repro.systems import abp, bridge, gas_station, producer_consumer

Outcome = Dict[str, object]
Recheck = Callable[[], Outcome]
VerifyOp = Callable[[core.ModelLibrary], Tuple[Outcome, Recheck]]


def _verdict(result) -> str:
    if result.incomplete:
        return "INCOMPLETE"
    return "PASS" if result.ok else "FAIL"


def _single(report) -> Outcome:
    stats = report.result.stats
    return {"verdict": _verdict(report.result),
            "states": stats.states_stored,
            "transitions": stats.transitions}


class Verified:
    """A verified design: its outcome, its architecture and a warm recheck
    (``None`` when the op keeps nothing to recheck)."""

    def __init__(self, outcome: Outcome, arch,
                 recheck: Optional[Recheck]) -> None:
        self.outcome = outcome
        self.arch = arch
        self.recheck = recheck


def _op(build: Callable[[], core.Architecture], check: Callable) -> VerifyOp:
    """A one-report op: ``check(arch, library, **engine_options)``."""
    def run(library) -> Verified:
        arch = build()
        report = check(arch, library, keep_engine=True)
        return Verified(_single(report), arch,
                        lambda: _single(check(arch, library,
                                              engine=report.engine)))
    return run


def _bridge_check(deadlock: bool = True, fused: bool = True,
                  por: bool = False) -> Callable:
    def check(arch, library, **engine):
        return core.verify_safety(
            arch, invariants=[bridge.bridge_safety_prop()],
            check_deadlock=deadlock, fused=fused, use_por=por,
            library=library, **engine)
    return check


def _bridge(build, *, trips: int = 1, n: int = 1) -> Callable:
    return lambda: build(bridge.BridgeConfig(n_per_turn=n, trips=trips))


def _initial_bridge(config):
    return bridge.build_exactly_n_bridge(config)


def _fixed_bridge(config):
    return bridge.fix_exactly_n_bridge(bridge.build_exactly_n_bridge(config))


def _gas_check(arch, library, **engine):
    return core.verify_safety(arch, check_deadlock=True, fused=True,
                              library=library, **engine)


def _gas_plain(customers: int) -> Callable:
    return lambda: gas_station.build_gas_station(customers=customers,
                                                 selective_delivery=False)


def _gas_session(library):
    """Five checks over one shared graph (the engine-bench session)."""
    arch = gas_station.build_gas_station(customers=2, selective_delivery=True)
    graph = mc.StateGraph(arch.to_system(library, fused=True))
    fueled = mc.global_prop(
        "fueled_bound", lambda v: v.global_("fueled_0") in (0, 1), "fueled_0")
    served = mc.global_prop(
        "served_bound", lambda v: v.global_("fueled_1") in (0, 1), "fueled_1")

    def session() -> Outcome:
        results = [
            mc.check_safety(graph),
            mc.check_safety(graph, invariants=[fueled]),
            mc.check_safety(graph, invariants=[served], check_deadlock=False),
        ]
        witness = mc.find_state(graph,
                                gas_station.all_fueled_prop(customers=2))
        counted = mc.count_states(graph)
        verdicts = [_verdict(r) for r in results]
        verdicts.append("FOUND" if witness is not None else "UNREACHABLE")
        verdicts.append("COMPLETE" if not counted.incomplete
                        else "INCOMPLETE")
        return {"verdict": "/".join(verdicts),
                "states": counted.states_stored,
                "transitions": (sum(r.stats.transitions for r in results)
                                + counted.transitions)}
    return Verified(session(), arch, session)


def _abp_safety_goal(library):
    """ABP safety, then a goal the same graph cannot reach."""
    arch = abp.build_abp(messages=1, max_sends=2, receiver_polls=2)
    graph = mc.StateGraph(arch.to_system(library, fused=True))

    def checks() -> Outcome:
        safety = mc.check_safety(graph, check_deadlock=False)
        witness = mc.find_state(graph, abp.abp_delivery_prop(messages=2))
        return {"verdict": _verdict(safety) + "/"
                + ("FOUND" if witness is not None else "UNREACHABLE"),
                "states": graph.n_states_seen,
                "transitions": safety.stats.transitions}
    return Verified(checks(), arch, checks)


K_MESSAGES = 2


def quickstart_pair() -> core.Architecture:
    """A producer that must deliver K messages over a one-slot buffer.

    Fire-and-forget sends can lose a message against the full buffer,
    so ``F delivered`` fails until the send port is made synchronous.
    """
    arch = core.Architecture("quickstart")
    arch.add_global("sent", 0)
    arch.add_global("received", 0)
    producer = core.Component(
        "Producer",
        ports={"out": core.SEND},
        body=Seq([Do(
            Branch(Guard(V("sent") < K_MESSAGES),
                   Assign("sent", V("sent") + 1),
                   core.send_message("out", V("sent"))),
            Branch(Guard(V("sent") == K_MESSAGES), Break()),
        )]),
    )
    consumer = core.Component(
        "Consumer",
        ports={"inp": core.RECEIVE},
        body=Seq([Do(
            Branch(Guard(V("received") < K_MESSAGES),
                   core.receive_message("inp", into="msg"),
                   If(Branch(Guard(V("recv_status") == "RECV_SUCC"),
                             Assign("received", V("received") + 1)),
                      Branch(Else()))),
            Branch(Guard(V("received") == K_MESSAGES), Break()),
        )]),
        local_vars={"msg": 0},
    )
    arch.add_component(producer)
    arch.add_component(consumer)
    link = arch.add_connector("link", channels.SingleSlotBuffer())
    link.attach_sender(producer, "out", ports.AsynNonblockingSend())
    link.attach_receiver(consumer, "inp", ports.BlockingReceive())
    return arch


def _delivered() -> mc.Prop:
    return mc.global_prop(
        "delivered", lambda v: v.global_("received") == K_MESSAGES,
        "received")


def _ltl_check(arch, library, **engine):
    return core.verify_ltl(arch, "F delivered", {"delivered": _delivered()},
                           library=library, **engine)


def _sync_sends(arch):
    arch.swap_send_port("link", "Producer", ports.SynBlockingSend())
    return arch


def _bridge_resilience(library):
    """The serial sweep ``repro resilience bridge`` runs.

    A sweep keeps no graphs, so it has nothing to recheck warm.
    """
    arch = _fixed_bridge(bridge.BridgeConfig())
    report = core.verify_resilience(
        arch, faults=bridge.bridge_fault_scenarios(),
        invariants=[bridge.bridge_safety_prop()],
        library=library, fused=True, jobs=1)
    return Verified({"verdict": report.worst.upper(),
                     "states": sum(s.safety.stats.states_stored
                                   for s in report),
                     "transitions": sum(s.safety.stats.transitions
                                        for s in report)}, arch, None)


#: Single-design checks in catalogue order (the run shuffles by seed).
VERIFY_OPS: Dict[str, VerifyOp] = {
    "f13_initial_fused": _op(_bridge(_initial_bridge),
                             _bridge_check(deadlock=False)),
    "f13_fixed": _op(_bridge(_fixed_bridge), _bridge_check()),
    "f13_fixed_trips2": _op(_bridge(_fixed_bridge, trips=2), _bridge_check()),
    "f14_n1": _op(_bridge(bridge.build_at_most_n_bridge), _bridge_check()),
    "f14_n2": _op(_bridge(bridge.build_at_most_n_bridge, n=2),
                  _bridge_check()),
    "f13_initial_composed": _op(_bridge(_initial_bridge),
                                _bridge_check(deadlock=False, fused=False)),
    "f13_fixed_por": _op(_bridge(_fixed_bridge), _bridge_check(por=True)),
    "gas_plain_2": _op(_gas_plain(2), _gas_check),
    "gas_plain_3": _op(_gas_plain(3), _gas_check),
    "gas_session_2": _gas_session,
    "abp_safety_goal": _abp_safety_goal,
    "pc_delivery_async": _op(quickstart_pair, _ltl_check),
    "pc_delivery_sync": _op(lambda: _sync_sends(quickstart_pair()),
                            _ltl_check),
    "bridge_resilience": _bridge_resilience,
}

#: The paper's connector-only fixes, as incremental ops: after verifying
#: the key, apply ``fix`` to the same architecture and verify it again
#: through the same library.  The outcome is the named design's.
VERIFY_NEIGHBOURS: Dict[str, Tuple[str, Callable, Callable]] = {
    "f13_initial_fused": ("f13_fixed", bridge.fix_exactly_n_bridge,
                          _bridge_check()),
    "pc_delivery_async": ("pc_delivery_sync", _sync_sends, _ltl_check),
}


def incremental(neighbour: Tuple[str, Callable, Callable],
                verified: Verified, library) -> Outcome:
    _, fix, check = neighbour
    return _single(check(fix(verified.arch), library))


# -- design spaces ----------------------------------------------------------

def pc_space(extra_channel: bool = False) -> design.DesignSpace:
    """Producer/consumer: every channel x send-port pairing (20 variants).

    ``extra_channel`` adds a one-slot FIFO queue as the incremental
    connector option (5 new variants).
    """
    chans = list(channels.CHANNEL_SPECS)
    if extra_channel:
        chans.append(channels.FifoQueue(size=1))
    return design.DesignSpace(
        "producer_consumer",
        producer_consumer.simple_pair(ports.SEND_PORT_SPECS[0], chans[0],
                                      messages=2),
        axes=[
            design.ChannelAxis("link", chans),
            design.SendPortAxis("link", ports.SEND_PORT_SPECS,
                                component="Producer0"),
        ],
        fused=True,
    )


def bridge_space(extra_send: bool = False) -> design.DesignSpace:
    """The paper's bridge arc as a space (4 variants, nested fault sweeps).

    ``extra_send`` adds asynchronous checking sends on both enter
    connectors as the incremental option (2 new variants).
    """
    space = bridge.bridge_design_space(bridge.BridgeConfig(trips=1))
    if not extra_send:
        return space
    sends = [ports.AsynBlockingSend(), ports.SynBlockingSend(),
             ports.AsynCheckingSend()]
    return design.DesignSpace(
        space.name,
        bases=list(space.bases),
        axes=[design.SendPortAxis("BlueEnter", sends),
              design.SendPortAxis("RedEnter", sends)],
        constraints=list(space.constraints),
        fused=True,
    )


def bridge_explore_kwargs() -> dict:
    return {"invariants": [bridge.bridge_safety_prop()],
            "faults": bridge.bridge_fault_scenarios()}


#: name -> (cold/warm space, incremental space, explore() keyword arguments)
SPACES = {
    "bridge": (lambda: bridge_space(False), lambda: bridge_space(True),
               bridge_explore_kwargs),
    "pc": (lambda: pc_space(False), lambda: pc_space(True), dict),
}

#: Explore ops per cycle and space: (cold, warm, incremental).  A cold
#: bridge exploration takes seconds and everything else tens to hundreds
#: of milliseconds, so the short ops repeat until each (space, phase)
#: has enough samples per run for its median.
SPACE_REPEATS = {"bridge": (1, 30, 3), "pc": (3, 30, 3)}


# -- served jobs ---------------------------------------------------------------

#: Job specs the ``serve`` workload submits (each with its own budget,
#: see ``served.py``).  All are small enough that no miss dominates.
SERVE_SPECS = {
    "verify_gas_plain": {"kind": "verify", "system": "gas",
                         "options": {"customers": 2, "selective": False}},
    "verify_gas_selective": {"kind": "verify", "system": "gas",
                             "options": {"customers": 2, "selective": True}},
    "verify_bridge_initial": {"kind": "verify", "system": "bridge",
                              "options": {"variant": "initial"}},
    "verify_bridge_fixed": {"kind": "verify", "system": "bridge",
                            "options": {"variant": "fixed"}},
    "verify_abp": {"kind": "verify", "system": "abp", "options": {}},
    "explore_pc_first": {"kind": "explore", "space": "pc",
                         "options": {"first_pass": True}},
    "explore_bridge_first": {"kind": "explore", "space": "bridge",
                             "options": {"first_pass": True}},
}

#: Served explorations and the space (in ``SPACES``) each one explores:
#: every variant a served report lists must match that space's table.
SERVE_SPACES = {"explore_pc_first": "pc", "explore_bridge_first": "bridge",
                "explore_pc_all": "pc"}

#: An incremental served session: the exhaustive exploration, then the
#: first-pass exploration of the same space and budget.  The second is a
#: new job whose variants all come from the store the first one filled.
SERVE_SESSION = (
    ("explore_pc_all", {"kind": "explore", "space": "pc", "options": {}}),
    ("explore_pc_first", SERVE_SPECS["explore_pc_first"]),
)
