#!/usr/bin/env python3
"""Sweep the connector design space and tabulate verification verdicts.

The PnP approach exists to make "experimenting with alternative design
choices of interaction semantics" cheap.  This example takes one fixed
pair of components (a producer that must deliver 2 messages and a
consumer that expects them) and verifies *every* send-port/channel
combination from the library against three requirements:

* no deadlock / invalid end state;
* no assertion failures;
* completion — every execution eventually delivers both messages (LTL).

The combinations are declared as a :class:`repro.design.DesignSpace`
(one channel axis, one send-port axis) and executed by
:func:`repro.design.explore`, which shares one model library across all
20 verification runs — the sweep costs a handful of block models plus
two component models, the paper's reuse claim working at
design-exploration scale.  Pass a ``cache=open_cache(dir)`` to
``explore`` and a re-run of this script would serve every verdict from
disk; the ``repro explore`` command wires that up.

Run:  python examples/design_space_exploration.py
"""

import time

from repro.core import (
    AsynBlockingSend,
    AsynCheckingSend,
    AsynNonblockingSend,
    DroppingBuffer,
    FifoQueue,
    ModelLibrary,
    SingleSlotBuffer,
    SynBlockingSend,
    SynCheckingSend,
)
from repro.design import ChannelAxis, DesignSpace, SendPortAxis, explore
from repro.mc import global_prop
from repro.systems.producer_consumer import simple_pair

SEND_PORTS = [
    AsynNonblockingSend(),
    AsynBlockingSend(),
    AsynCheckingSend(),
    SynBlockingSend(),
    SynCheckingSend(),
]
CHANNELS = [
    SingleSlotBuffer(),
    FifoQueue(size=2),
    DroppingBuffer(size=1),
    DroppingBuffer(size=2),
]

K = 2


def main() -> None:
    library = ModelLibrary()
    delivered = global_prop(
        "delivered", lambda v: v.global_("consumed_0") == K, "consumed_0")

    # ONE architecture, revised plug-and-play style for every combination:
    # the components are designed once and their models built once.  The
    # channel axis is declared first, so it varies slowest (channel outer
    # loop, send port inner), matching the table below.
    space = DesignSpace(
        "producer_consumer",
        simple_pair(SEND_PORTS[0], CHANNELS[0], messages=K),
        axes=[
            ChannelAxis("link", CHANNELS),
            SendPortAxis("link", SEND_PORTS, component="Producer0"),
        ],
        fused=True,
    )

    header = f"{'send port':26s}{'channel':22s}{'safety':10s}{'completion':12s}{'states':>8s}"
    print(header)
    print("-" * len(header))
    t0 = time.perf_counter()
    report = explore(
        space,
        ltl="F delivered",
        ltl_props={"delivered": delivered},
        library=library,
    )
    results = iter(report.results)
    for channel in CHANNELS:
        for port in SEND_PORTS:
            record = next(results)
            print(
                f"{port.kind:26s}{channel.display_name():22s}"
                f"{'ok' if record['safety']['ok'] else 'DEADLOCK':10s}"
                f"{'ok' if record['ltl']['ok'] else 'CAN HANG':12s}"
                f"{record['states']:8d}"
            )
    elapsed = time.perf_counter() - t0
    built, hits = library.stats.misses, library.stats.hits
    print("-" * len(header))
    print(f"{len(CHANNELS) * len(SEND_PORTS) * 2} verification runs in "
          f"{elapsed:.1f}s; models built {built}, reused {hits}")
    print("\nReading the table: only blocking/checking sends over lossless")
    print("channels guarantee completion; dropping buffers silently defeat")
    print("even synchronous senders (they hang, which safety flags), and")
    print("fire-and-forget sends can lose messages on any bounded channel.")


if __name__ == "__main__":
    main()
