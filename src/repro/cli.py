"""Command-line interface: ``python -m repro.cli <command>``.

Commands:

* ``catalog`` — print the building-block library (the paper's Figure 1);
* ``verify {bridge | abp | gas} [--report PATH] [--progress]
  [--log-jsonl PATH]`` — verify a case study and optionally write a
  self-contained run report (verdict, statistics, counterexample MSC,
  block-level explanation); ``gas`` takes ``--customers N`` and
  ``--selective`` (the fixed design; plain delivery is expected to
  FAIL on the crossed-delivery race);
* ``report PATH [--format {md,html,json}] [--out FILE]`` — re-render a
  saved run report (renders are pure functions of the JSON payload, so
  re-rendering is byte-identical);
* ``bridge [--variant V] [--cars N] [--trips T] [--composed]
  [--max-states S] [--max-seconds T]`` — build and verify one of the
  single-lane-bridge designs;
* ``resilience {abp | bridge} [--max-states S] [--max-seconds T]
  [--jobs N]`` — sweep fault-injection scenarios over a system and
  print the verdict matrix; ``--jobs`` fans independent scenarios out
  over a process pool;
* ``explore {bridge | pc} [--jobs N] [--cache-dir DIR] [--no-cache]
  [--backend {auto,jsonl,sqlite}] [--cache-max-mb MB] [--first-pass]
  [--max-states S] [--max-seconds T] [--run-id ID] [--resume ID]
  [--retries N] [--job-timeout T]`` — enumerate a design space, verify
  every variant (served from the persistent content-addressed cache
  when fingerprints match a previous run), and print the Pareto-ranked
  verdict table.  ``--cache-dir`` defaults to ``$REPRO_CACHE_DIR`` or
  ``.repro-cache``; ``--backend`` picks the verdict store (default
  auto-detect: an existing directory keeps its format, a fresh one
  gets the concurrent-safe sqlite store).  Every cached run journals
  per-job progress under ``<cache>/runs/<run-id>``; an interrupted run
  (Ctrl-C exits with code 2) resumes with ``--resume ID``, re-running
  only the jobs that never finished;
* ``cache {info | verify | compact | migrate | fsck} [--cache-dir DIR]
  [--backend B] [--cache-max-mb MB]`` — inspect the result cache,
  audit its checksums and integrity, compact/vacuum it, convert a
  JSONL cache to the sqlite backend verdict-equivalently, or repair
  damage (``fsck`` drops corrupt records, or quarantines an unreadable
  sqlite store and starts fresh — verdicts degrade to misses, never to
  wrong answers);
* ``serve [--host H] [--port P] [--cache-dir DIR] [--workers N]
  [--inline] [--retries N] [--job-timeout T] [--drain-timeout T]`` —
  run the verification service: a stdlib HTTP daemon that schedules
  submitted jobs on a worker pool, coalesces identical in-flight
  submissions onto one computation, serves warm verdicts from the
  shared sqlite cache, and streams per-job events as NDJSON.  SIGTERM
  drains gracefully: in-flight jobs finish (bounded by
  ``--drain-timeout``), the rest stay journaled for the next daemon
  (exit 0 on a clean drain, 2 when jobs were left behind);
* ``submit {gas | bridge | abp | explore-bridge | explore-pc}
  [--url U] [--no-wait] [--follow] [--report PATH] ...`` — submit a
  job to a running service and (by default) wait for its verdict; the
  exit code is the job's own, and ``--report`` saves the same run
  report a local run would have written;
* ``status [JOB_ID] [--url U] [--events]`` — service summary and job
  list, or one job's detail (``--events`` dumps its event stream);
* ``export [--out FILE]`` — emit the Promela model of a Figure 2(a)
  connector system;
* ``graph {block KIND | bridge} [--out FILE]`` — emit Graphviz/DOT for
  a block's state machine or the bridge topology.

``verify``, ``bridge``, ``resilience``, and ``explore`` all take the
observability flags ``--progress`` (live status line on stderr),
``--log-jsonl PATH`` (append engine events as JSON lines), and
``--report PATH`` (write a run report; ``.json`` is the canonical
re-renderable format).

The CLI is a thin veneer over the library — everything it does is two
or three calls on the public API.

Exit codes (pinned by the integration tests):

====  =====================================================================
code  meaning
====  =====================================================================
0     the run completed and the outcome was the expected one
1     a property violation (or an unexpected pass) — the *model* failed
2     partial result: an exploration budget ran out, or the run was
      interrupted (SIGINT/SIGTERM) — resumable where a journal exists
3     internal failure: the *tool* (not the model) errored out
====  =====================================================================
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Tuple


def _add_jit_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--no-jit", action="store_true",
                   help="force the tree-walk interpreter instead of the "
                        "compiled hot path (debugging fallback; equivalent "
                        "to REPRO_NO_JIT=1, verdicts are identical)")


def _add_obs_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--progress", action="store_true",
                   help="live progress line on stderr while exploring")
    p.add_argument("--log-jsonl", metavar="PATH", default=None,
                   help="append engine events to PATH, one JSON object "
                        "per line")
    p.add_argument("--report", metavar="PATH", default=None,
                   help="write a self-contained run report; .json is "
                        "canonical (re-render with 'repro report'), "
                        ".md/.html save renderings directly")


def _build_reporter(args: argparse.Namespace) -> Tuple[object, object]:
    """Assemble the reporter stack the observability flags ask for.

    Returns ``(reporter, collector)``; ``collector`` buffers the event
    stream for ``--report`` and is None unless that flag was given.
    """
    reporters = []
    collector = None
    if getattr(args, "progress", False):
        from repro.obs import ProgressReporter
        reporters.append(ProgressReporter())
    if getattr(args, "log_jsonl", None):
        from repro.obs import JsonlReporter
        reporters.append(JsonlReporter(args.log_jsonl))
    if getattr(args, "report", None):
        from repro.obs import CollectingReporter
        collector = CollectingReporter()
        reporters.append(collector)
    if not reporters:
        return None, None
    if len(reporters) == 1:
        return reporters[0], collector
    from repro.obs import TeeReporter
    return TeeReporter(reporters), collector


def _command_line(args: argparse.Namespace) -> str:
    """The invocation recorded in run reports."""
    return "repro " + " ".join(getattr(args, "argv", []))


def _cmd_catalog(args: argparse.Namespace) -> int:
    from repro.core import figure1_table
    print(figure1_table())
    return 0


def _compile_line(stats) -> Optional[str]:
    """One-line JIT accounting, or ``None`` on the tree-walk path."""
    if stats.programs_compiled == 0 and stats.compile_cache_hits == 0:
        return None
    return (f"compile: {stats.programs_compiled} programs lowered, "
            f"{stats.compile_cache_hits} served from cache, "
            f"{stats.compile_seconds * 1000:.1f} ms")


def _bridge_arch(args: argparse.Namespace):
    from repro.systems.bridge import (
        BridgeConfig,
        build_at_most_n_bridge,
        build_exactly_n_bridge,
        fix_exactly_n_bridge,
    )

    config = BridgeConfig(cars_per_side=args.cars, n_per_turn=args.n,
                          trips=args.trips)
    if args.variant == "initial":
        return build_exactly_n_bridge(config)
    if args.variant == "fixed":
        return fix_exactly_n_bridge(build_exactly_n_bridge(config))
    return build_at_most_n_bridge(config)


def _write_verification_report(args: argparse.Namespace, arch, system,
                               result, collector) -> None:
    from repro.obs.report import RunReport
    run = RunReport.from_verification(
        arch, system, result,
        command=_command_line(args),
        events=collector.events if collector is not None else None,
    )
    run.save(args.report)
    print(f"report written to {args.report}")


def _cmd_bridge(args: argparse.Namespace) -> int:
    from repro.core import verify_safety
    from repro.systems.bridge import bridge_safety_prop

    arch = _bridge_arch(args)
    print(arch.describe())
    reporter, collector = _build_reporter(args)
    try:
        report = verify_safety(
            arch,
            invariants=[bridge_safety_prop()],
            check_deadlock=args.variant != "initial",
            fused=not args.composed,
            max_states=args.max_states,
            max_seconds=args.max_seconds,
            reporter=reporter,
        )
        print()
        print(report.summary())
        stats = report.result.stats
        print(f"throughput: {stats.states_per_second:,.0f} states/s, "
              f"peak frontier ≈ {stats.peak_frontier_bytes} bytes")
        compile_line = _compile_line(stats)
        if compile_line:
            print(compile_line)
        if not report.ok and report.result.trace is not None:
            from repro.core import explain_trace
            print("\ncounterexample:")
            system = arch.to_system(fused=not args.composed)
            print(explain_trace(report.result.trace, arch, system,
                                max_steps=20))
        if args.report:
            system = arch.to_system(fused=not args.composed)
            _write_verification_report(args, arch, system, report.result,
                                       collector)
    finally:
        if reporter is not None:
            reporter.close()
    if report.result.incomplete:
        return 2
    return 0 if report.ok == (args.variant != "initial") else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.core import verify_safety

    if args.system == "bridge":
        from repro.systems.bridge import bridge_safety_prop
        arch = _bridge_arch(args)
        invariants = [bridge_safety_prop()]
        check_deadlock = args.variant != "initial"
        expect_ok = args.variant != "initial"
    elif args.system == "gas":
        from repro.systems.gas_station import build_gas_station
        arch = build_gas_station(customers=args.customers,
                                 selective_delivery=args.selective)
        invariants = []
        check_deadlock = True
        # Plain delivery races crossed deliveries into an assertion
        # violation; selective delivery is the paper's fix.
        expect_ok = args.selective
    else:
        from repro.systems.abp import build_abp
        arch = build_abp(messages=1, max_sends=2, receiver_polls=2)
        invariants = []
        check_deadlock = False  # bounded polls terminate by design
        expect_ok = True
    fused = not args.composed
    reporter, collector = _build_reporter(args)
    try:
        report = verify_safety(
            arch,
            invariants=invariants,
            check_deadlock=check_deadlock,
            fused=fused,
            max_states=args.max_states,
            max_seconds=args.max_seconds,
            reporter=reporter,
        )
        print(report.summary())
        compile_line = _compile_line(report.result.stats)
        if compile_line:
            print(compile_line)
        if args.report:
            system = arch.to_system(fused=fused)
            _write_verification_report(args, arch, system, report.result,
                                       collector)
    finally:
        if reporter is not None:
            reporter.close()
    if report.result.incomplete:
        return 2
    return 0 if report.ok == expect_ok else 1


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs.report import RunReport

    run = RunReport.load(args.path)
    if args.format == "json":
        text = run.to_json()
    elif args.format == "html":
        text = run.to_html()
    else:
        text = run.to_markdown()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_resilience(args: argparse.Namespace) -> int:
    from repro.core import ModelLibrary, verify_resilience

    library = ModelLibrary()
    reporter, collector = _build_reporter(args)
    try:
        if args.system == "abp":
            from repro.systems.abp import (
                abp_delivery_prop,
                abp_fault_scenarios,
                build_abp,
            )
            arch = build_abp(messages=1, max_sends=2, receiver_polls=2)
            report = verify_resilience(
                arch,
                faults=abp_fault_scenarios(),
                goal=abp_delivery_prop(messages=1),
                check_deadlock=False,  # bounded polls terminate by design
                library=library,
                max_states=args.max_states,
                max_seconds=args.max_seconds,
                fused=True,
                jobs=args.jobs,
                reporter=reporter,
            )
        else:
            from repro.systems.bridge import (
                bridge_fault_scenarios,
                bridge_safety_prop,
                build_exactly_n_bridge,
                fix_exactly_n_bridge,
            )
            arch = fix_exactly_n_bridge(build_exactly_n_bridge())
            report = verify_resilience(
                arch,
                faults=bridge_fault_scenarios(),
                invariants=[bridge_safety_prop()],
                library=library,
                max_states=args.max_states,
                max_seconds=args.max_seconds,
                fused=True,
                jobs=args.jobs,
                reporter=reporter,
            )
        if args.report:
            from repro.obs.report import RunReport
            run = RunReport.from_resilience(
                arch, report, fused=True,
                command=_command_line(args),
                events=collector.events if collector is not None else None,
            )
            run.save(args.report)
            print(f"report written to {args.report}")
    finally:
        if reporter is not None:
            reporter.close()
    print(f"resilience sweep: {report.architecture}")
    print()
    print(report.table())
    for message in report.warnings:
        print(f"warning: {message}")
    total_states = sum(s.safety.stats.states_stored for s in report)
    total_seconds = sum(s.safety.stats.elapsed_seconds for s in report)
    peak_frontier = max(
        (s.safety.stats.peak_frontier_bytes for s in report), default=0)
    if total_seconds > 0:
        print(f"throughput: {total_states / total_seconds:,.0f} states/s "
              f"across {len(report.scenarios)} scenarios "
              f"(jobs={args.jobs}), peak frontier ≈ {peak_frontier} bytes")
    broken = [s for s in report if s.verdict == "broken"]
    if broken and broken[0].trace is not None:
        print(f"\ncounterexample for {broken[0].name!r}:")
        print(broken[0].trace.pretty(max_steps=20))
    if not report.complete:
        return 2
    return 0 if report.ok else 1


def _pc_space(messages: int):
    """The producer/consumer port x channel design space (``explore pc``)."""
    from repro.core.channels import CHANNEL_SPECS
    from repro.core.ports import SEND_PORT_SPECS
    from repro.design import ChannelAxis, DesignSpace, SendPortAxis
    from repro.systems.producer_consumer import simple_pair

    return DesignSpace(
        "producer_consumer",
        simple_pair(SEND_PORT_SPECS[0], CHANNEL_SPECS[0], messages=messages),
        axes=[
            ChannelAxis("link", CHANNEL_SPECS),
            SendPortAxis("link", SEND_PORT_SPECS, component="Producer0"),
        ],
        fused=True,
    )


def _cmd_explore(args: argparse.Namespace) -> int:
    import os

    from repro.design import (
        EXHAUSTIVE,
        FIRST_PASS,
        RetryPolicy,
        explore,
        open_cache,
    )

    if args.space == "bridge":
        from repro.systems.bridge import (
            BridgeConfig,
            bridge_design_space,
            bridge_fault_scenarios,
            bridge_safety_prop,
        )
        space = bridge_design_space(
            BridgeConfig(cars_per_side=args.cars, n_per_turn=args.n,
                         trips=args.trips))
        kwargs = {
            "invariants": [bridge_safety_prop()],
            "faults": bridge_fault_scenarios(),
        }
    else:
        space = _pc_space(args.messages)
        kwargs = {}

    cache = None
    if not args.no_cache:
        cache_dir = args.cache_dir or os.environ.get(
            "REPRO_CACHE_DIR") or ".repro-cache"
        cache = open_cache(cache_dir, backend=args.backend,
                           max_bytes=_cache_max_bytes(args))

    retry = None
    if args.retries is not None:
        retry = RetryPolicy(max_retries=args.retries)

    reporter, collector = _build_reporter(args)
    try:
        report = explore(
            space,
            cache=cache,
            jobs=args.jobs,
            max_states=args.max_states,
            max_seconds=args.max_seconds,
            policy=FIRST_PASS if args.first_pass else EXHAUSTIVE,
            reporter=reporter,
            run_id=args.run_id,
            resume=args.resume,
            retry=retry,
            job_timeout=args.job_timeout,
            **kwargs,
        )
        if args.report:
            run = report.to_run_report(
                command=_command_line(args),
                events=collector.events if collector is not None else None,
            )
            run.save(args.report)
            print(f"report written to {args.report}")
    finally:
        if cache is not None:
            cache.close()  # explore() closes too; this covers errors
        if reporter is not None:
            reporter.close()
    print(f"design-space exploration: {report.space} "
          f"({len(report.results)} variants, jobs={report.jobs})")
    if report.run_id is not None:
        print(f"run id: {report.run_id}")
    print()
    print(report.table())
    if report.interrupted or report.any_budget_hit or report.failures:
        return 2
    return 0 if report.any_pass else 1


def _cache_max_bytes(args: argparse.Namespace) -> Optional[int]:
    """``--cache-max-mb`` converted to bytes (None = uncapped)."""
    max_mb = getattr(args, "cache_max_mb", None)
    if max_mb is None:
        return None
    return int(max_mb * 1024 * 1024)


def _print_kv(mapping, *, skip=("ok", "backend")) -> None:
    for key, value in mapping.items():
        if key in skip or value is None:
            continue
        print(f"  {key.replace('_', ' ')}: {value}")


def _cmd_cache(args: argparse.Namespace) -> int:
    import os

    from repro.design import (
        detect_backend,
        list_runs,
        migrate_jsonl_to_sqlite,
        open_cache,
    )

    cache_dir = args.cache_dir or os.environ.get(
        "REPRO_CACHE_DIR") or ".repro-cache"

    if args.action == "migrate":
        if detect_backend(cache_dir) == "sqlite":
            print(f"cache: {cache_dir}\n  already on the sqlite backend; "
                  "nothing to migrate")
            return 0
        summary = migrate_jsonl_to_sqlite(cache_dir)
        print(f"migrated {cache_dir} to sqlite:")
        _print_kv(summary)
        return 0

    with open_cache(cache_dir, backend=args.backend,
                    max_bytes=_cache_max_bytes(args)) as cache:
        if args.action == "verify":
            audit = cache.verify()
            print(f"cache: {cache.directory} ({audit['backend']} backend)")
            _print_kv(audit)
            print("ok" if audit["ok"] else "NOT OK")
            return 0 if audit["ok"] else 3
        if args.action == "compact":
            outcome = cache.compact()
            print(f"compacted {cache.directory}: "
                  f"{outcome['before_lines']} -> "
                  f"{outcome['after_lines']} records")
            return 0
        if args.action == "fsck":
            outcome = cache.fsck()
            print(f"fsck {cache.directory} ({outcome['backend']} backend):")
            _print_kv(outcome)
            if outcome.get("quarantined"):
                print(f"  damaged store quarantined to "
                      f"{outcome['quarantined']}; verdicts degrade to "
                      "misses")
            print("ok")
            return 0
        stats = cache.stats()
        print(f"cache: {cache.directory} ({stats['backend']} backend)")
        _print_kv(stats, skip=("ok", "backend", "hits", "misses", "stored"))
        runs = list_runs(os.path.join(cache.directory, "runs"))
        print(f"  runs journaled: {len(runs)}")
        for run in runs:
            print(f"    {run}")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.codegen import system_to_promela
    from repro.core import AsynBlockingSend, SingleSlotBuffer
    from repro.systems.producer_consumer import simple_pair

    arch = simple_pair(AsynBlockingSend(), SingleSlotBuffer(), messages=1)
    source = system_to_promela(arch.to_system())
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(source + "\n")
        print(f"wrote {len(source.splitlines())} lines to {args.out}")
    else:
        print(source)
    return 0


def _cmd_graph(args: argparse.Namespace) -> int:
    from repro.codegen import architecture_to_dot, automaton_to_dot

    if args.what == "bridge":
        from repro.systems.bridge import BridgeConfig, build_exactly_n_bridge
        dot = architecture_to_dot(
            build_exactly_n_bridge(BridgeConfig(1, 1, trips=1)))
    else:
        from repro.core import make_block
        dot = automaton_to_dot(make_block(args.what).build_def())
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(dot + "\n")
        print(f"wrote {args.out}")
    else:
        print(dot)
    return 0


def _serve_cache_dir(args: argparse.Namespace) -> str:
    return (args.cache_dir or os.environ.get("REPRO_CACHE_DIR")
            or ".repro-cache")


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.design import RetryPolicy
    from repro.serve import JobManager, VerificationServer, serve_until

    cache_dir = _serve_cache_dir(args)
    retry = (RetryPolicy(max_retries=args.retries)
             if args.retries is not None else None)
    manager = JobManager(
        cache_dir,
        workers=args.workers,
        supervised=not args.inline,
        retry=retry,
        job_timeout=args.job_timeout,
    )
    server = VerificationServer((args.host, args.port), manager)
    host, port = server.server_address[:2]
    stop = threading.Event()

    def _request_stop(signum: int, frame: object) -> None:
        stop.set()

    # Handlers go in before the ready line: a supervisor may signal as
    # soon as it reads it, and that signal must still drain.
    old_term = signal.signal(signal.SIGTERM, _request_stop)
    old_int = signal.signal(signal.SIGINT, _request_stop)
    mode = "inline" if args.inline else "supervised"
    print(f"repro serve: listening on http://{host}:{port} "
          f"(cache {cache_dir}, {args.workers} workers, {mode} jobs)")
    sys.stdout.flush()
    try:
        serve_until(server, stop)
    finally:
        signal.signal(signal.SIGTERM, old_term)
        signal.signal(signal.SIGINT, old_int)
    print("repro serve: draining...")
    sys.stdout.flush()
    summary = manager.drain(timeout=args.drain_timeout)
    server.server_close()
    manager.close()
    if summary["drained"]:
        print(f"repro serve: drained cleanly "
              f"({summary['finished']} in-flight jobs finished)")
        return 0
    print(f"repro serve: drain timed out; {len(summary['leftover'])} "
          f"jobs journaled for resume", file=sys.stderr)
    return 2


def _submit_spec(args: argparse.Namespace) -> dict:
    """The JSON job spec a ``repro submit`` invocation describes."""
    budgets = {}
    if args.max_states is not None:
        budgets["max_states"] = args.max_states
    if args.max_seconds is not None:
        budgets["max_seconds"] = args.max_seconds
    if args.target == "gas":
        return {"kind": "verify", "system": "gas",
                "options": {"customers": args.customers,
                            "selective": args.selective, **budgets}}
    if args.target == "bridge":
        return {"kind": "verify", "system": "bridge",
                "options": {"variant": args.variant, "cars": args.cars,
                            "n": args.n, "trips": args.trips, **budgets}}
    if args.target == "abp":
        return {"kind": "verify", "system": "abp", "options": budgets}
    if args.target == "explore-bridge":
        return {"kind": "explore", "space": "bridge",
                "options": {"cars": args.cars, "n": args.n,
                            "trips": args.trips,
                            "first_pass": args.first_pass, **budgets}}
    return {"kind": "explore", "space": "pc",
            "options": {"messages": args.messages,
                        "first_pass": args.first_pass, **budgets}}


def _describe_view(view: dict) -> str:
    """One status line for a job view (submit/status output)."""
    line = f"job {view['job_id']}: {view['status']}"
    if view.get("cached"):
        line += " (served from cache)"
    elif view.get("coalesced_with"):
        line += f" (coalesced with {view['coalesced_with']})"
    if view.get("verdict"):
        line += f" — {view['verdict']}"
        if view.get("detail"):
            line += f": {view['detail']}"
    return line


def _cmd_submit(args: argparse.Namespace) -> int:
    import json as _json

    from repro.serve import ServeClient

    client = ServeClient(args.url)
    view = client.submit(_submit_spec(args))
    job_id = view["job_id"]
    terminal = view["status"] in ("done", "failed")
    if args.no_wait or not terminal:
        print(_describe_view(view))
    if args.no_wait:
        return 0
    if args.follow:
        for event in client.events(job_id):
            print(_json.dumps(event, sort_keys=True))
    view = client.wait(job_id, timeout=args.timeout)
    if view["status"] not in ("done", "failed"):
        print(f"job {job_id} still {view['status']} after "
              f"{args.timeout}s", file=sys.stderr)
        return 2
    print(_describe_view(view))
    if args.report:
        from repro.obs.report import RunReport
        RunReport(client.report(job_id)).save(args.report)
        print(f"report written to {args.report}")
    exit_code = view.get("exit_code")
    return exit_code if exit_code is not None else 3


def _cmd_status(args: argparse.Namespace) -> int:
    import json as _json

    from repro.serve import ServeClient

    client = ServeClient(args.url)
    if args.job_id:
        view = client.job(args.job_id)
        print(_describe_view(view))
        for key in ("kind", "fingerprint", "command", "exit_code", "error"):
            if view.get(key) is not None:
                print(f"  {key.replace('_', ' ')}: {view[key]}")
        if args.events:
            for event in client.events(args.job_id, follow=False):
                print(_json.dumps(event, sort_keys=True))
        return 0
    stats = client.stats()
    counters = stats.get("counters", {})
    print(f"repro serve at http://{client.host}:{client.port} "
          f"(version {stats.get('repro_version', '?')}, "
          f"{'draining' if stats.get('draining') else 'accepting'})")
    print(f"  workers: {stats.get('workers')} "
          f"({'supervised' if stats.get('supervised') else 'inline'}), "
          f"in-flight fingerprints: {stats.get('inflight')}")
    print("  jobs: " + (", ".join(
        f"{status} {count}"
        for status, count in sorted(stats.get("jobs", {}).items()))
        or "none"))
    print("  counters: " + ", ".join(
        f"{key} {value}" for key, value in sorted(counters.items())))
    cache = stats.get("cache", {})
    print(f"  cache: {cache.get('records')} records "
          f"({cache.get('backend')} backend)")
    for view in client.jobs():
        print("  " + _describe_view(view))
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Plug-and-Play architectural design and verification",
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("catalog", help="print the block library (Figure 1)")

    def _add_design_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--variant",
                       choices=["initial", "fixed", "atmostn"],
                       default="initial",
                       help="bridge design variant (bridge only)")
        p.add_argument("--cars", type=int, default=1,
                       help="cars per side (default 1)")
        p.add_argument("--n", type=int, default=1,
                       help="cars per turn (default 1)")
        p.add_argument("--trips", type=int, default=1,
                       help="trips per car; 0 = cycle forever (default 1)")
        p.add_argument("--composed", action="store_true",
                       help="use composed block models instead of fused")
        p.add_argument("--max-states", type=int, default=None,
                       help="state budget; exceeding it yields exit code 2")
        p.add_argument("--max-seconds", type=float, default=None,
                       help="time budget; exceeding it yields exit code 2")

    verify = sub.add_parser(
        "verify", help="verify a case study, optionally writing a report")
    verify.add_argument("system", choices=["bridge", "abp", "gas"],
                        help="bridge: single-lane bridge (--variant picks "
                             "the design); abp: alternating-bit protocol; "
                             "gas: the gas-station case study "
                             "(--selective picks the fixed design)")
    _add_design_flags(verify)
    verify.add_argument("--customers", type=int, default=2,
                        help="gas station: customers at the pump (default 2)")
    verify.add_argument("--selective", action="store_true",
                        help="gas station: selective delivery (the fix; "
                             "expected PASS, plain delivery expected FAIL)")
    _add_jit_flag(verify)
    _add_obs_flags(verify)

    rep = sub.add_parser(
        "report", help="re-render a saved run report")
    rep.add_argument("path", help="a .json report written by --report")
    rep.add_argument("--format", choices=["md", "html", "json"],
                     default="md", help="output format (default md)")
    rep.add_argument("--out", default=None,
                     help="write to a file instead of stdout")

    bridge = sub.add_parser("bridge", help="verify a single-lane bridge design")
    _add_design_flags(bridge)
    _add_jit_flag(bridge)
    _add_obs_flags(bridge)

    res = sub.add_parser(
        "resilience", help="sweep fault scenarios over a system")
    res.add_argument("system", choices=["abp", "bridge"],
                     help="abp: fault channels on the data link; "
                          "bridge: timing-out controller receives")
    res.add_argument("--max-states", type=int, default=None,
                     help="per-scenario state budget (UNKNOWN verdict when hit)")
    res.add_argument("--max-seconds", type=float, default=None,
                     help="per-scenario time budget (UNKNOWN verdict when hit)")
    res.add_argument("--jobs", type=int, default=1,
                     help="verify scenarios in parallel over N worker "
                          "processes (default 1 = serial; falls back to "
                          "serial when the design does not pickle or "
                          "only 1 CPU is available)")
    _add_jit_flag(res)
    _add_obs_flags(res)

    exp = sub.add_parser(
        "explore", help="enumerate and verify a design space (cached)")
    exp.add_argument("space", choices=["bridge", "pc"],
                     help="bridge: enter-send axes over the exactly-n and "
                          "at-most-n designs; pc: every send-port/channel "
                          "combination on a producer/consumer pair")
    exp.add_argument("--jobs", type=int, default=1,
                     help="verify variants in parallel over N worker "
                          "processes (default 1 = serial; falls back to "
                          "serial when the design does not pickle)")
    exp.add_argument("--cache-dir", default=None,
                     help="persistent result cache directory (default "
                          "$REPRO_CACHE_DIR or .repro-cache)")
    exp.add_argument("--no-cache", action="store_true",
                     help="verify every variant afresh, touch no cache")
    exp.add_argument("--backend", choices=["auto", "jsonl", "sqlite"],
                     default="auto",
                     help="cache backend: jsonl (single-writer journal), "
                          "sqlite (concurrent multi-process WAL store), or "
                          "auto (default: whatever the directory already "
                          "holds; sqlite for a fresh one)")
    exp.add_argument("--cache-max-mb", type=float, default=None,
                     metavar="MB",
                     help="cap the sqlite cache size; coldest records "
                          "(LRU by last hit) are evicted past the cap")
    exp.add_argument("--first-pass", action="store_true",
                     help="stop at the first PASS verdict (cheapest-first "
                          "order) instead of exploring exhaustively")
    exp.add_argument("--max-states", type=int, default=None,
                     help="per-variant state budget; any hit yields exit "
                          "code 2")
    exp.add_argument("--max-seconds", type=float, default=None,
                     help="per-variant time budget; any hit yields exit "
                          "code 2")
    exp.add_argument("--cars", type=int, default=1,
                     help="bridge space: cars per side (default 1)")
    exp.add_argument("--n", type=int, default=1,
                     help="bridge space: crossings per turn (default 1)")
    exp.add_argument("--trips", type=int, default=1,
                     help="bridge space: trips per car, 0 = forever "
                          "(default 1)")
    exp.add_argument("--messages", type=int, default=2,
                     help="pc space: messages to deliver (default 2)")
    exp.add_argument("--run-id", default=None,
                     help="name this run's journal (default: a minted "
                          "timestamped id)")
    exp.add_argument("--resume", metavar="RUN_ID", default=None,
                     help="resume a journaled run: completed variants are "
                          "served from the journal, only pending or failed "
                          "ones re-run")
    exp.add_argument("--retries", type=int, default=None,
                     help="retries per failed job before it degrades to an "
                          "INCOMPLETE verdict (default 1)")
    exp.add_argument("--job-timeout", type=float, default=None,
                     help="per-job wall-clock timeout in seconds for "
                          "parallel workers (default: none)")
    _add_jit_flag(exp)
    _add_obs_flags(exp)

    cache = sub.add_parser(
        "cache",
        help="inspect, audit, repair, or migrate the result cache")
    cache.add_argument("action",
                       choices=["info", "verify", "compact", "migrate",
                                "fsck"],
                       help="info: summary + journaled runs; verify: audit "
                            "record checksums and store integrity; "
                            "compact: rewrite/vacuum to live records only; "
                            "migrate: convert a JSONL cache to sqlite, "
                            "verdict-equivalently; fsck: repair damage "
                            "(drop corrupt records, or quarantine an "
                            "unreadable sqlite store)")
    cache.add_argument("--cache-dir", default=None,
                       help="cache directory (default $REPRO_CACHE_DIR or "
                            ".repro-cache)")
    cache.add_argument("--backend", choices=["auto", "jsonl", "sqlite"],
                       default="auto",
                       help="cache backend (default auto: detect from the "
                            "directory)")
    cache.add_argument("--cache-max-mb", type=float, default=None,
                       metavar="MB",
                       help="sqlite size cap applied while this command "
                            "has the store open (LRU eviction)")

    serve = sub.add_parser(
        "serve",
        help="run the verification service daemon (HTTP, stdlib only)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=7477,
                       help="listen port; 0 picks a free one "
                            "(default 7477)")
    serve.add_argument("--cache-dir", default=None,
                       help="shared verdict store, sqlite backend required "
                            "(default $REPRO_CACHE_DIR or .repro-cache)")
    serve.add_argument("--workers", type=int, default=2,
                       help="concurrent job slots (default 2)")
    serve.add_argument("--inline", action="store_true",
                       help="run jobs on worker threads instead of "
                            "supervised sandbox processes (faster startup, "
                            "no crash isolation)")
    serve.add_argument("--retries", type=int, default=None,
                       help="retries per failed job (default 1)")
    serve.add_argument("--job-timeout", type=float, default=None,
                       help="per-job wall-clock timeout for supervised "
                            "jobs (default: none)")
    serve.add_argument("--drain-timeout", type=float, default=30.0,
                       help="seconds to let in-flight jobs finish on "
                            "SIGTERM before journaling the rest "
                            "(default 30)")

    def _add_submit_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--url", default="http://127.0.0.1:7477",
                       help="service URL (default http://127.0.0.1:7477)")

    submit = sub.add_parser(
        "submit", help="submit a job to a running verification service")
    submit.add_argument("target",
                        choices=["gas", "bridge", "abp",
                                 "explore-bridge", "explore-pc"],
                        help="what to verify: a case study (gas/bridge/abp) "
                             "or a design space to explore")
    _add_submit_flags(submit)
    submit.add_argument("--customers", type=int, default=2,
                        help="gas: customers at the pump (default 2)")
    submit.add_argument("--selective", action="store_true",
                        help="gas: selective delivery (the fixed design)")
    submit.add_argument("--variant",
                        choices=["initial", "fixed", "atmostn"],
                        default="fixed",
                        help="bridge: design variant (default fixed)")
    submit.add_argument("--cars", type=int, default=1,
                        help="bridge: cars per side (default 1)")
    submit.add_argument("--n", type=int, default=1,
                        help="bridge: cars per turn (default 1)")
    submit.add_argument("--trips", type=int, default=1,
                        help="bridge: trips per car (default 1)")
    submit.add_argument("--messages", type=int, default=2,
                        help="explore-pc: messages to deliver (default 2)")
    submit.add_argument("--first-pass", action="store_true",
                        help="explore: stop at the first PASS verdict")
    submit.add_argument("--max-states", type=int, default=None,
                        help="state budget (INCOMPLETE verdict when hit)")
    submit.add_argument("--max-seconds", type=float, default=None,
                        help="time budget (INCOMPLETE verdict when hit)")
    submit.add_argument("--no-wait", action="store_true",
                        help="return after submission; poll with "
                             "'repro status JOB_ID'")
    submit.add_argument("--follow", action="store_true",
                        help="stream the job's events (NDJSON) while "
                             "waiting")
    submit.add_argument("--timeout", type=float, default=None,
                        help="give up waiting after this many seconds "
                             "(exit code 2)")
    submit.add_argument("--report", metavar="PATH", default=None,
                        help="save the finished job's run report (same "
                             "format as a local run's --report)")

    status = sub.add_parser(
        "status", help="inspect a running verification service")
    status.add_argument("job_id", nargs="?", default=None,
                        help="a job id (default: service summary + job "
                             "list)")
    _add_submit_flags(status)
    status.add_argument("--events", action="store_true",
                        help="with a job id: dump its event stream "
                             "snapshot (NDJSON)")

    export = sub.add_parser("export", help="emit Promela for Figure 2(a)")
    export.add_argument("--out", default=None)

    graph = sub.add_parser("graph", help="emit Graphviz DOT")
    graph.add_argument("what",
                       help="a block kind (e.g. syn_blocking_send) or 'bridge'")
    graph.add_argument("--out", default=None)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(argv) if argv is not None else sys.argv[1:]
    args = build_parser().parse_args(argv)
    args.argv = argv  # recorded in run reports as the invocation line
    handlers = {
        "catalog": _cmd_catalog,
        "verify": _cmd_verify,
        "report": _cmd_report,
        "bridge": _cmd_bridge,
        "resilience": _cmd_resilience,
        "explore": _cmd_explore,
        "cache": _cmd_cache,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "status": _cmd_status,
        "export": _cmd_export,
        "graph": _cmd_graph,
    }
    if getattr(args, "no_jit", False):
        # The flag travels as the documented environment escape hatch so
        # worker processes (resilience/explore pools) inherit it too.
        os.environ["REPRO_NO_JIT"] = "1"
    try:
        return handlers[args.command](args)
    except KeyboardInterrupt:
        # A graceful interrupt inside explore() never gets here (the
        # handler flag drains the run); this is the blunt path.
        print("interrupted", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - the CLI's last line of defense
        print(f"repro: internal failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
