"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload {verify|explore|serve} \\
        --seed N --seconds S --trace {0|1}

Run it from the root of a checkout.  The package is pure Python and is
imported from ``src/``; the only build step compiles it to bytecode.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics with
``--trace 0``, the per-layer split with ``--trace 1``.  Everything else (host drift probe, errors)
goes to standard error and to ``.perfbench_work/runs.jsonl``.

See ``NOTES.md`` beside this file for what each workload and metric
means.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import subprocess
import sys
import time

from common import (HERE, ROOT, SRC, WORK, Scratch, declared_metrics,
                    median, peak_rss_mb, probe_argv, time_setup)

WORKLOADS = ("verify", "explore", "serve")
#: Set-up samples per run for the in-process workloads.
SETUP_SAMPLES = 5


def build() -> bool:
    """Compile the package and the benchmark to bytecode, as installing
    them would.  Without it, a checkout run under
    ``PYTHONDONTWRITEBYTECODE=1`` compiles every module from source in
    every process it starts, and set-up and first imports in a sandbox
    would time the compiler.  Up-to-date files are skipped."""
    return all(compileall.compile_dir(folder, quiet=1)
               for folder in (SRC, HERE))


def drift_probe() -> float:
    """Milliseconds for a fixed pure-Python loop (median of five)."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        times.append((time.perf_counter() - t0) * 1000.0)
    return median(times)


def source_identity() -> dict:
    """The commit when the checkout is a git work tree, and a digest of
    the package source either way."""
    digest = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    commit = None
    try:
        top, _, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10).stdout.partition("\n")
        if os.path.realpath(top) == os.path.realpath(ROOT):
            commit = head.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def run(workload: str, seed: int, seconds: float, traced: bool):
    """Returns ``(metrics, tally)``; the tally has ``attempted``,
    ``failed``, ``errors`` and ``notes``."""
    scratch = Scratch(workload)
    try:
        if workload == "serve":
            import served
            bench = served.Served(seed, scratch)
            metrics = (bench.run_traced(seconds) if traced
                       else bench.run_untraced(seconds))
            setup_times = bench.setup_times
        else:
            import inproc
            setup_times = ([] if traced else time_setup(
                probe_argv(workload), "ready", samples=SETUP_SAMPLES))
            bench = inproc.InProcess(workload, seed, scratch)
            metrics = (bench.run_traced(seconds) if traced
                       else bench.run_untraced(seconds))
    finally:
        scratch.close()
    if not traced:
        metrics["setup_s"] = median(setup_times)
        metrics["peak_rss_mb"] = peak_rss_mb()
    return metrics, bench.tally


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro package under {SRC}; run from the root of "
              "a checkout", file=sys.stderr)
        return 2
    sys.path.insert(1, SRC)
    if not build():
        print("error: the package does not compile", file=sys.stderr)
        return 2

    drift_before = drift_probe()
    metrics, tally = run(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    drift_after = drift_probe()

    units = declared_metrics("per_layer" if args.trace else "end_to_end")
    diagnostics = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "drift_ms_before": round(drift_before, 3),
        "drift_ms_after": round(drift_after, 3),
        "cpu_count": os.cpu_count(), "python": platform.python_version(),
        **source_identity(), "errors": tally.errors, "notes": tally.notes,
    }
    os.makedirs(WORK, exist_ok=True)
    with open(os.path.join(WORK, "runs.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps({**diagnostics, "metrics": metrics}) + "\n")
    print(json.dumps(diagnostics), file=sys.stderr)
    print(json.dumps({
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
