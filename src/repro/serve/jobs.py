"""Service job specifications: JSON in, verification work out.

A *job* is the unit the verification service accepts over HTTP: a plain
JSON object naming what to verify and under which options.  This module
owns the whole lifecycle of that object short of scheduling:

* :func:`canonical_spec` validates a submission and fills defaults, so
  two requests that mean the same job serialize identically;
* :func:`build_job` elaborates the spec into architectures/systems and
  computes the job's **content fingerprint** — the coalescing and cache
  key;
* :func:`run_job` executes a spec to completion and returns the plain
  JSON *record* (verdict, exit code, full
  :class:`~repro.obs.report.RunReport` payload) that the shared cache
  stores and every attached client receives.

Fingerprints wrap the ``repro.design-fingerprint/1`` job scheme: a
``verify`` job hashes exactly what :func:`repro.design.fingerprint_job`
hashes for the same system/properties/budgets, re-wrapped under
``repro.serve-job/1`` so a serve record and an ``explore`` variant
record can never collide by shape in a shared cache directory.  An
``explore`` job hashes the sorted variant fingerprints of its design
space plus the early-exit policy.

Both the CLI (``repro verify gas``, ``repro submit gas``) and the
daemon build jobs through this module, which is what makes a served
verdict render the same report as a local run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core import ModelLibrary, verify_safety
from ..design.fingerprint import fingerprint_job
from ..mc.props import Prop
from ..obs.reporters import Reporter
from ..psl.canon import digest_payload
from ..psl.jit import program_store

__all__ = [
    "JOB_SCHEMA",
    "JOB_KINDS",
    "VERIFY_SYSTEMS",
    "EXPLORE_SPACES",
    "BuiltJob",
    "JobSpecError",
    "build_job",
    "canonical_spec",
    "run_job",
]

#: Folded into every serve-job fingerprint (bump on record-shape change:
#: previously cached serve records then miss, the safe failure).
JOB_SCHEMA = "repro.serve-job/1"

JOB_KINDS = ("verify", "explore")
VERIFY_SYSTEMS = ("gas", "bridge", "abp")
EXPLORE_SPACES = ("bridge", "pc")


class JobSpecError(ValueError):
    """A submission does not describe a runnable job (HTTP 400)."""


def _opt_int(options: Dict[str, Any], key: str, default: Optional[int],
             minimum: Optional[int] = None) -> Optional[int]:
    value = options.get(key, default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise JobSpecError(f"option {key!r} must be an integer, "
                           f"got {value!r}")
    if minimum is not None and value < minimum:
        raise JobSpecError(f"option {key!r} must be >= {minimum}, "
                           f"got {value}")
    return value


def _opt_number(options: Dict[str, Any], key: str) -> Optional[float]:
    value = options.get(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise JobSpecError(f"option {key!r} must be a number, got {value!r}")
    return float(value)


def _opt_bool(options: Dict[str, Any], key: str, default: bool) -> bool:
    value = options.get(key, default)
    if not isinstance(value, bool):
        raise JobSpecError(f"option {key!r} must be a boolean, got {value!r}")
    return value


def _opt_choice(options: Dict[str, Any], key: str, default: str,
                choices: Sequence[str]) -> str:
    value = options.get(key, default)
    if value not in choices:
        raise JobSpecError(f"option {key!r} must be one of {list(choices)}, "
                           f"got {value!r}")
    return value


def canonical_spec(spec: Any) -> Dict[str, Any]:
    """Validate a raw submission and return its canonical form.

    The canonical spec is a plain JSON object with every option present
    (defaults filled), unknown options rejected, so equal jobs have
    equal canonical specs regardless of how sparse the submission was.
    Raises :class:`JobSpecError` on anything unrunnable.
    """
    if not isinstance(spec, dict):
        raise JobSpecError(f"a job spec must be a JSON object, "
                           f"got {type(spec).__name__}")
    kind = spec.get("kind", "verify")
    if kind not in JOB_KINDS:
        raise JobSpecError(f"unknown job kind {kind!r} "
                           f"(expected one of {list(JOB_KINDS)})")
    options = spec.get("options", {})
    if not isinstance(options, dict):
        raise JobSpecError("'options' must be a JSON object")

    if kind == "verify":
        system = spec.get("system")
        if system not in VERIFY_SYSTEMS:
            raise JobSpecError(f"unknown system {system!r} "
                               f"(expected one of {list(VERIFY_SYSTEMS)})")
        out_options: Dict[str, Any] = {
            "max_states": _opt_int(options, "max_states", None, minimum=1),
            "max_seconds": _opt_number(options, "max_seconds"),
        }
        known = {"max_states", "max_seconds"}
        if system == "gas":
            out_options["customers"] = _opt_int(options, "customers", 2,
                                                minimum=1)
            out_options["selective"] = _opt_bool(options, "selective", False)
            known |= {"customers", "selective"}
        elif system == "bridge":
            out_options["variant"] = _opt_choice(
                options, "variant", "fixed", ("initial", "fixed", "atmostn"))
            out_options["cars"] = _opt_int(options, "cars", 1, minimum=1)
            out_options["n"] = _opt_int(options, "n", 1, minimum=1)
            out_options["trips"] = _opt_int(options, "trips", 1, minimum=0)
            known |= {"variant", "cars", "n", "trips"}
        unknown = set(options) - known
        if unknown:
            raise JobSpecError(f"unknown options for verify/{system}: "
                               f"{sorted(unknown)}")
        return {"kind": "verify", "system": system, "options": out_options}

    space = spec.get("space")
    if space not in EXPLORE_SPACES:
        raise JobSpecError(f"unknown design space {space!r} "
                           f"(expected one of {list(EXPLORE_SPACES)})")
    out_options = {
        "max_states": _opt_int(options, "max_states", None, minimum=1),
        "max_seconds": _opt_number(options, "max_seconds"),
        "first_pass": _opt_bool(options, "first_pass", False),
    }
    known = {"max_states", "max_seconds", "first_pass"}
    if space == "bridge":
        out_options["cars"] = _opt_int(options, "cars", 1, minimum=1)
        out_options["n"] = _opt_int(options, "n", 1, minimum=1)
        out_options["trips"] = _opt_int(options, "trips", 1, minimum=0)
        known |= {"cars", "n", "trips"}
    else:
        out_options["messages"] = _opt_int(options, "messages", 2, minimum=1)
        known |= {"messages"}
    unknown = set(options) - known
    if unknown:
        raise JobSpecError(f"unknown options for explore/{space}: "
                           f"{sorted(unknown)}")
    return {"kind": "explore", "space": space, "options": out_options}


@dataclass
class BuiltJob:
    """A canonical spec elaborated far enough to fingerprint and run."""

    kind: str
    spec: Dict[str, Any]
    fingerprint: str
    #: The underlying ``repro.design-fingerprint/1`` job fingerprints
    #: (one for a verify job, one per variant for an explore job).
    job_fingerprints: List[str]
    #: The equivalent local CLI invocation, recorded in the report.
    command: str
    #: Executes the job; wired by the builder so :func:`run_job` never
    #: re-elaborates.  Signature: ``runner(reporter, cache_dir)``.
    runner: Callable[[Optional[Reporter], Optional[str]],
                     Dict[str, Any]] = field(repr=False, default=None)


def _verify_pieces(spec: Dict[str, Any]) -> Tuple[Any, List[Prop], bool,
                                                  bool, str]:
    """(architecture, invariants, check_deadlock, expect_ok, command)."""
    system = spec["system"]
    options = spec["options"]
    if system == "gas":
        from ..systems.gas_station import build_gas_station
        arch = build_gas_station(customers=options["customers"],
                                 selective_delivery=options["selective"])
        command = (f"repro verify gas --customers {options['customers']}"
                   + (" --selective" if options["selective"] else ""))
        return arch, [], True, options["selective"], command
    if system == "bridge":
        from ..systems.bridge import (
            BridgeConfig,
            bridge_safety_prop,
            build_at_most_n_bridge,
            build_exactly_n_bridge,
            fix_exactly_n_bridge,
        )
        config = BridgeConfig(cars_per_side=options["cars"],
                              n_per_turn=options["n"],
                              trips=options["trips"])
        variant = options["variant"]
        if variant == "initial":
            arch = build_exactly_n_bridge(config)
        elif variant == "fixed":
            arch = fix_exactly_n_bridge(build_exactly_n_bridge(config))
        else:
            arch = build_at_most_n_bridge(config)
        command = (f"repro verify bridge --variant {variant} "
                   f"--cars {options['cars']} --n {options['n']} "
                   f"--trips {options['trips']}")
        return (arch, [bridge_safety_prop()], variant != "initial",
                variant != "initial", command)
    from ..systems.abp import build_abp
    arch = build_abp(messages=1, max_sends=2, receiver_polls=2)
    # Bounded polls terminate by design: termination is not a deadlock.
    return arch, [], False, True, "repro verify abp"


def _explore_pieces(spec: Dict[str, Any]):
    """(design space, explore kwargs, command) for an explore job."""
    options = spec["options"]
    if spec["space"] == "bridge":
        from ..systems.bridge import (
            BridgeConfig,
            bridge_design_space,
            bridge_fault_scenarios,
            bridge_safety_prop,
        )
        space = bridge_design_space(BridgeConfig(
            cars_per_side=options["cars"], n_per_turn=options["n"],
            trips=options["trips"]))
        kwargs = {
            "invariants": [bridge_safety_prop()],
            "faults": bridge_fault_scenarios(),
        }
        command = (f"repro explore bridge --cars {options['cars']} "
                   f"--n {options['n']} --trips {options['trips']}")
    else:
        from ..systems.producer_consumer import pc_design_space
        space = pc_design_space(options["messages"])
        kwargs = {}
        command = f"repro explore pc --messages {options['messages']}"
    if options["first_pass"]:
        command += " --first-pass"
    return space, kwargs, command


def _verify_record(spec: Dict[str, Any], built: "BuiltJob",
                   arch, invariants: Sequence[Prop], check_deadlock: bool,
                   expect_ok: bool,
                   reporter: Optional[Reporter]) -> Dict[str, Any]:
    from ..obs.report import RunReport

    options = spec["options"]
    t0 = time.perf_counter()
    report = verify_safety(
        arch,
        invariants=invariants,
        check_deadlock=check_deadlock,
        fused=True,
        max_states=options["max_states"],
        max_seconds=options["max_seconds"],
        reporter=reporter,
    )
    seconds = time.perf_counter() - t0
    result = report.result
    system = arch.to_system(fused=True)
    run = RunReport.from_verification(arch, system, result,
                                      command=built.command)
    if result.incomplete:
        verdict, exit_code = "INCOMPLETE", 2
    elif not result.ok:
        verdict, exit_code = "FAIL", 0 if not expect_ok else 1
    else:
        verdict, exit_code = "PASS", 0 if expect_ok else 1
    detail = result.message
    if verdict != "INCOMPLETE" and (result.ok != expect_ok):
        detail = f"unexpected outcome: {result.message}"
    return {
        "kind": "verify",
        "spec": spec,
        "verdict": verdict,
        "ok": result.ok,
        "expected": expect_ok,
        "exit_code": exit_code,
        "detail": detail,
        "states": result.stats.states_stored,
        "seconds": round(seconds, 6),
        "report": run.payload,
    }


def _explore_record(spec: Dict[str, Any], built: "BuiltJob", space, kwargs,
                    reporter: Optional[Reporter],
                    cache_dir: Optional[str]) -> Dict[str, Any]:
    from ..design import EXHAUSTIVE, FIRST_PASS, explore, open_cache
    from ..design.scheduler import PASS

    options = spec["options"]
    cache = None
    if cache_dir is not None:
        # The service's shared store: variant verdicts land in the same
        # sqlite/WAL cache the daemon answers warm submissions from.
        cache = open_cache(cache_dir)
    t0 = time.perf_counter()
    report = explore(
        space,
        cache=cache,
        max_states=options["max_states"],
        max_seconds=options["max_seconds"],
        policy=FIRST_PASS if options["first_pass"] else EXHAUSTIVE,
        reporter=reporter,
        **kwargs,
    )
    seconds = time.perf_counter() - t0
    run = report.to_run_report(command=built.command)
    if report.interrupted or report.any_budget_hit or report.failures:
        verdict, exit_code = "INCOMPLETE", 2
    elif report.any_pass:
        verdict, exit_code = "PASS", 0
    else:
        verdict, exit_code = "FAIL", 1
    best = report.best["variant"] if report.best else None
    passed = sum(1 for r in report.results if r["verdict"] == PASS)
    return {
        "kind": "explore",
        "spec": spec,
        "verdict": verdict,
        "ok": report.any_pass,
        "expected": True,
        "exit_code": exit_code,
        "detail": (f"{passed}/{len(report.results)} variants pass"
                   + (f"; best {best}" if best else "")),
        "states": sum(r.get("states") or 0 for r in report.results),
        "seconds": round(seconds, 6),
        "report": run.payload,
    }


def build_job(spec: Any) -> BuiltJob:
    """Canonicalize, elaborate, and fingerprint a job (without running it).

    Elaboration through a fresh :class:`ModelLibrary` is cheap next to
    verification; the expensive part — state-space exploration — happens
    only in :func:`run_job` (equivalently, ``built.runner(...)``).
    """
    spec = canonical_spec(spec)
    library = ModelLibrary()
    options = spec["options"]
    if spec["kind"] == "verify":
        arch, invariants, check_deadlock, expect_ok, command = \
            _verify_pieces(spec)
        system = arch.to_system(library, fused=True)
        inner = fingerprint_job(
            system, invariants=invariants, check_deadlock=check_deadlock,
            max_states=options["max_states"],
            max_seconds=options["max_seconds"],
        )
        fingerprint = digest_payload({"kind": "verify", "job": inner},
                                     schema=JOB_SCHEMA)
        built = BuiltJob(kind="verify", spec=spec, fingerprint=fingerprint,
                         job_fingerprints=[inner], command=command)

        def runner(reporter: Optional[Reporter],
                   cache_dir: Optional[str]) -> Dict[str, Any]:
            return _verify_record(spec, built, arch, invariants,
                                  check_deadlock, expect_ok, reporter)

        built.runner = runner
        return built

    space, kwargs, command = _explore_pieces(spec)
    from ..core.resilience import _as_scenario
    scenarios = tuple(_as_scenario(f) for f in kwargs.get("faults", ()))
    fault_names = [f"{s.name}={s.describe()}" for s in scenarios]
    inner_fps = []
    for variant in space.variants():
        vsystem = variant.build().to_system(library, fused=variant.fused)
        inner_fps.append(fingerprint_job(
            vsystem, invariants=kwargs.get("invariants", ()),
            check_deadlock=True, faults=fault_names,
            max_states=options["max_states"],
            max_seconds=options["max_seconds"],
        ))
    policy = "first_pass" if options["first_pass"] else "exhaustive"
    fingerprint = digest_payload(
        {"kind": "explore", "space": space.name, "policy": policy,
         "variants": sorted(inner_fps)},
        schema=JOB_SCHEMA)
    built = BuiltJob(kind="explore", spec=spec, fingerprint=fingerprint,
                     job_fingerprints=inner_fps, command=command)

    def runner(reporter: Optional[Reporter],
               cache_dir: Optional[str]) -> Dict[str, Any]:
        return _explore_record(spec, built, space, kwargs, reporter,
                               cache_dir)

    built.runner = runner
    return built


def run_job(spec: Any, *, reporter: Optional[Reporter] = None,
            cache_dir: Optional[str] = None) -> Dict[str, Any]:
    """Execute a job spec to completion and return its verdict record.

    The record is plain JSON: verdict (PASS / FAIL / INCOMPLETE), the
    CLI-compatible exit code, timing, and the full run-report payload —
    exactly what the service caches by fingerprint and what every
    coalesced client receives.  ``cache_dir`` is the service's shared
    store: explore jobs keep their variant verdicts there, and every job
    reads and adds to the compiled programs kept beside it.
    """
    built = build_job(spec)
    with program_store(cache_dir):
        return built.runner(reporter, cache_dir)
