"""A parameterized producer/consumer system.

The workhorse system for the block-semantics experiments (F1, F2, F4,
T-opt): one or more producers send K messages each through a connector
to one or more consumers.  Global counters expose the observables the
experiments need:

* ``produced_<i>`` / ``acked_<i>`` — messages sent / send-confirmations
  received by producer *i*;
* ``consumed_<j>`` — messages successfully received by consumer *j*;
* ``last_<j>`` — the last payload consumer *j* received (for ordering
  checks: FIFO vs priority).

Producers send payloads ``base + 1, base + 2, ...`` with a configurable
tag, so priority-queue and selective-receive behaviour is observable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..core import (
    Architecture,
    BlockingReceive,
    CHANNEL_SPECS,
    ChannelSpec,
    Component,
    RECEIVE,
    ReceivePortSpec,
    SEND,
    SEND_PORT_SPECS,
    SendPortSpec,
    SingleSlotBuffer,
    SynBlockingSend,
    receive_message,
    send_message,
)
from ..psl.expr import V
from ..psl.stmt import Assign, Branch, Break, Do, DStep, Else, Guard, If, Seq


@dataclass
class ProducerSpec:
    """One producer: how many messages, with what payloads and tags."""

    messages: int = 1
    payload_base: int = 10
    tag: int = 0
    port: SendPortSpec = field(default_factory=SynBlockingSend)


@dataclass
class ConsumerSpec:
    """One consumer: how many successful receives it needs."""

    receives: int = 1
    port: ReceivePortSpec = field(default_factory=BlockingReceive)
    selective_tag: Optional[int] = None
    #: stop issuing requests after this many attempts (0 = unlimited);
    #: useful with nonblocking ports, which may fail and must not spin
    #: forever in a finite experiment.
    max_attempts: int = 0
    #: wait until every producer has had all sends confirmed before the
    #: first receive — lets ordering experiments pin down what was queued.
    start_after_acks: bool = False


def build_producer_consumer(
    producers: Sequence[ProducerSpec],
    channel: ChannelSpec = SingleSlotBuffer(),
    consumers: Sequence[ConsumerSpec] = (ConsumerSpec(),),
    name: str = "producer_consumer",
) -> Architecture:
    """Assemble the producer/consumer architecture."""
    arch = Architecture(name)
    conn = arch.add_connector("link", channel)

    for i, spec in enumerate(producers):
        acked = arch.add_global(f"acked_{i}", 0)
        produced = arch.add_global(f"produced_{i}", 0)
        body = Seq([
            Do(
                Branch(
                    Guard(V(produced) < spec.messages),
                    Assign(produced, V(produced) + 1),
                    send_message("out", V(produced) + (spec.payload_base - 1),
                                 tag=spec.tag),
                    If(
                        Branch(Guard(V("send_status") == "SEND_SUCC"),
                               Assign(acked, V(acked) + 1)),
                        Branch(Else()),  # checking ports may report SEND_FAIL
                    ),
                ),
                Branch(Guard(V(produced) == spec.messages), Break()),
            ),
        ])
        comp = Component(f"Producer{i}", ports={"out": SEND}, body=body)
        arch.add_component(comp)
        conn.attach_sender(comp, "out", spec.port)

    for j, spec in enumerate(consumers):
        consumed = arch.add_global(f"consumed_{j}", 0)
        last = arch.add_global(f"last_{j}", 0)
        attempts = arch.add_global(f"attempts_{j}", 0)
        want_more = V(consumed) < spec.receives
        if spec.max_attempts:
            want_more = want_more & (V(attempts) < spec.max_attempts)
        done = V(consumed) == spec.receives
        if spec.max_attempts:
            done = done | (V(attempts) == spec.max_attempts)
        prologue = []
        if spec.start_after_acks:
            all_acked = None
            for i, pspec in enumerate(producers):
                clause = V(f"acked_{i}") == pspec.messages
                all_acked = clause if all_acked is None else (all_acked & clause)
            prologue.append(Guard(all_acked,
                                  comment="waits for all sends to be confirmed"))
        # `last` is written before `consumed` is bumped, so any state with
        # consumed == n shows the n-th payload in `last`.
        # Only track attempts when a bound is requested; an unbounded
        # counter would make the state space infinite for polling ports.
        count_attempt = (
            [Assign(attempts, V(attempts) + 1)] if spec.max_attempts else []
        )
        body = Seq(prologue + [
            Do(
                Branch(
                    Guard(want_more),
                    *count_attempt,
                    receive_message("inp", into="msg",
                                    selective_tag=spec.selective_tag),
                    If(
                        Branch(Guard(V("recv_status") == "RECV_SUCC"),
                               # one atomic step, so `last` and `consumed`
                               # are always mutually consistent
                               DStep([Assign(last, V("msg")),
                                      Assign(consumed, V(consumed) + 1)])),
                        Branch(Else()),
                    ),
                ),
                Branch(Guard(done), Break()),
            ),
        ])
        comp = Component(
            f"Consumer{j}", ports={"inp": RECEIVE}, body=body,
            local_vars={"msg": 0},
        )
        arch.add_component(comp)
        conn.attach_receiver(comp, "inp", spec.port)

    return arch


def simple_pair(
    send_port: SendPortSpec,
    channel: ChannelSpec,
    recv_port: ReceivePortSpec = None,
    messages: int = 1,
    receives: Optional[int] = None,
    max_attempts: int = 0,
) -> Architecture:
    """One producer, one consumer — the Figure 2 shape."""
    recv_port = recv_port if recv_port is not None else BlockingReceive()
    return build_producer_consumer(
        producers=[ProducerSpec(messages=messages, port=send_port)],
        channel=channel,
        consumers=[ConsumerSpec(
            receives=receives if receives is not None else messages,
            port=recv_port,
            max_attempts=max_attempts,
        )],
    )


def pc_design_space(messages: int = 2):
    """The producer/consumer port x channel design space (``explore pc``).

    One producer sending ``messages`` messages to one consumer, with the
    connector's channel block and the producer's send port as the two
    axes, checked against the fused connector models.
    """
    from ..design import ChannelAxis, DesignSpace, SendPortAxis

    return DesignSpace(
        "producer_consumer",
        simple_pair(SEND_PORT_SPECS[0], CHANNEL_SPECS[0], messages=messages),
        axes=[
            ChannelAxis("link", CHANNEL_SPECS),
            SendPortAxis("link", SEND_PORT_SPECS, component="Producer0"),
        ],
        fused=True,
    )
