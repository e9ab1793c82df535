"""Content fingerprints for verification jobs.

A verification *job* is fully determined by four ingredients: the
elaborated system (process definitions, wiring, channels, globals), the
properties checked against it, the exploration budget, and the checker
configuration.  :func:`fingerprint_job` hashes exactly those — nothing
else — so that:

* two structurally identical variants inside one exploration share a
  fingerprint and are verified once (within-run dedup);
* re-running an exploration after editing one connector changes only
  the fingerprints of the variants that elaborate differently, so the
  disk cache (:mod:`repro.design.sqlcache`) re-verifies only those
  (cross-run incrementality);
* fused and composed elaborations of the same design hash differently
  (their process definitions differ), so a cached composed verdict can
  never be served for a fused job or vice versa.

Everything feeds through :func:`repro.psl.canon.digest_payload` —
sorted-keys JSON into SHA-256 — so fingerprints are independent of
``PYTHONHASHSEED``, dict insertion order, and object identity.

Property fingerprints deserve a note: a :class:`~repro.mc.props.Prop`
carries a Python callable, which has no portable content hash.  The
fingerprint uses the function's qualified name plus the prop's declared
dependencies — editing a predicate in place without renaming it will
*not* change the fingerprint, which is the standard content-addressing
compromise (same as build systems keying on declared inputs).  The
cache docs call this out as an invalidation rule.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Sequence, Union

from ..mc.props import Prop
from ..psl.canon import digest_payload
from ..psl.system import System

__all__ = [
    "FINGERPRINT_SCHEMA",
    "fingerprint_prop",
    "fingerprint_system",
    "fingerprint_job",
]

#: Folded into every job hash; bump when the fingerprint shape changes
#: (all previously cached results then miss, which is the safe failure).
FINGERPRINT_SCHEMA = "repro.design-fingerprint/1"


def fingerprint_prop(prop: Prop) -> Dict[str, Any]:
    """The hash-relevant content of one atomic proposition."""
    fn = prop.fn
    return {
        "name": prop.name,
        "fn": f"{getattr(fn, '__module__', '?')}.{getattr(fn, '__qualname__', repr(fn))}",
        "globals_read": (sorted(prop.globals_read)
                         if prop.globals_read is not None else None),
        "locals_read": (sorted(prop.locals_read)
                        if prop.locals_read is not None else None),
    }


def _system_payload(system: System) -> Dict[str, Any]:
    """The hash-relevant content of an elaborated system.

    Process definitions are deduplicated through their canonical
    digests; instances reference them by digest, so the payload size is
    proportional to distinct models, not instances.
    """
    system.finalize()
    digests: Dict[int, str] = {}
    for definition in system.definitions():
        digests[id(definition)] = definition.canonical_digest()
    return {
        "globals": sorted(
            [name, system.global_vars[name]] for name in system.global_vars
        ),
        "channels": [
            [ch.name, list(ch.fields), ch.capacity] for ch in system.channels
        ],
        "instances": [
            {
                "name": inst.name,
                "definition": digests[id(inst.definition)],
                "chans": sorted(
                    [param, chan.name]
                    for param, chan in inst.chan_bindings.items()
                ),
                "args": sorted(
                    [param, value]
                    for param, value in inst.value_bindings.items()
                ),
            }
            for inst in system.instances
        ],
    }


def fingerprint_system(system: System) -> str:
    """SHA-256 fingerprint of an elaborated system's structure."""
    return digest_payload(_system_payload(system), schema=FINGERPRINT_SCHEMA)


def fingerprint_job(
    system: System,
    *,
    invariants: Sequence[Prop] = (),
    check_deadlock: bool = True,
    goal: Optional[Prop] = None,
    ltl: Optional[str] = None,
    ltl_props: Optional[Union[Mapping[str, Prop], Sequence[Prop]]] = None,
    faults: Sequence[str] = (),
    max_states: Optional[int] = None,
    max_seconds: Optional[float] = None,
) -> str:
    """SHA-256 fingerprint of one complete verification job.

    ``faults`` names the resilience scenarios a surviving variant will
    additionally be swept under (scenario names, applied to this same
    system); budgets are part of the job because an ``UNKNOWN`` verdict
    under a small budget must not be served for a larger one.
    """
    if ltl_props is None:
        prop_list = []
    elif isinstance(ltl_props, Mapping):
        prop_list = [ltl_props[name] for name in sorted(ltl_props)]
    else:
        prop_list = sorted(ltl_props, key=lambda p: p.name)
    payload = {
        "system": _system_payload(system),
        "invariants": [fingerprint_prop(p) for p in invariants],
        "check_deadlock": bool(check_deadlock),
        "goal": fingerprint_prop(goal) if goal is not None else None,
        "ltl": ltl,
        "ltl_props": [fingerprint_prop(p) for p in prop_list],
        "faults": sorted(faults),
        "max_states": max_states,
        "max_seconds": max_seconds,
    }
    return digest_payload(payload, schema=FINGERPRINT_SCHEMA)
