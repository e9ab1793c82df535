"""Shared helpers: statistics, memory, scratch space, known answers."""

from __future__ import annotations

import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Dict, Iterable, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch stores and run logs, inside the checkout (ignored by git).
WORK = os.path.join(ROOT, ".perfbench_work")


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def geomean(values: Iterable[float]) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def peak_rss_mb() -> float:
    """Highest RSS of this process or any waited-for descendant."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.pop("REPRO_NO_JIT", None)
    env.pop("REPRO_FAILPOINTS", None)
    return env


class Scratch:
    """Fresh directories under the work area; removed on close."""

    def __init__(self, label: str) -> None:
        self.base = os.path.join(WORK, f"{label}-{os.getpid()}")
        shutil.rmtree(self.base, ignore_errors=True)
        os.makedirs(self.base)
        self._n = 0

    def fresh(self, name: str = "d") -> str:
        self._n += 1
        path = os.path.join(self.base, f"{name}{self._n}")
        os.makedirs(path)
        return path

    def copy(self, source: str, name: str = "copy") -> str:
        self._n += 1
        path = os.path.join(self.base, f"{name}{self._n}")
        shutil.copytree(source, path)
        return path

    def close(self) -> None:
        shutil.rmtree(self.base, ignore_errors=True)


class Tally:
    """Attempted/failed ops, error messages, notes and per-key count checks.

    Every wrong answer or broken check leaves an error; the run is
    correct when there is none.  A served job whose sandbox hung and was
    retried fails without one: its answer was right, but late.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.notes: List[str] = []
        self.counts: Dict[str, Any] = {}

    def fail(self, key: str, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{key}: {message}")

    def same_counts(self, key: str, counts: Any) -> bool:
        """Counts of one op must repeat exactly within a run."""
        first = self.counts.setdefault(key, counts)
        if first != counts:
            self.fail(key, f"counts changed between repeats: {first} "
                      f"then {counts}")
            return False
        return True


def declared_metrics(kind: str) -> Dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics that
    ``BENCHMARK.json`` declares, in its order."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def load_known_answers() -> dict:
    with open(os.path.join(HERE, "known_answers.json"), encoding="utf-8") as fh:
        return json.load(fh)


def time_setup(argv: List[str], ready: str, *,
               samples: int) -> List[float]:
    """Start ``argv`` ``samples`` times; seconds until ``ready`` is printed.

    The ready line is read from the child's stdout as it arrives; nothing
    sleeps or polls.  Each child exits by itself and is waited for.
    """
    times = []
    for _ in range(samples):
        child = Child(argv, ready)
        code = child.stop(terminate=False)
        if code != 0:
            raise RuntimeError(f"set-up process exited {code}: "
                               + child.output())
        times.append(child.setup_seconds)
    return times


class Child:
    """A subprocess timed from launch until it prints its ready line.

    After the ready line its output is drained on a thread (kept as a
    tail for error messages) so a chatty child never blocks on a full
    pipe.
    """

    def __init__(self, argv: List[str], ready: str, *,
                 timeout: float = 60.0) -> None:
        t0 = time.monotonic()
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True)
        self.lines: List[str] = []
        while True:
            line = self.proc.stdout.readline()
            self.lines.append(line)
            if ready in line:
                self.setup_seconds = time.monotonic() - t0
                self.ready_line = line
                break
            if not line or time.monotonic() - t0 > timeout:
                self.stop()
                raise RuntimeError(f"{argv[1:3]} never printed {ready!r}: "
                                   + "".join(self.lines)[-2000:])
        self._drain = threading.Thread(target=self._read, daemon=True)
        self._drain.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.append(line)
            del self.lines[:-200]

    def output(self) -> str:
        return "".join(self.lines)[-4000:]

    def stop(self, timeout: float = 60.0, *,
             terminate: bool = True) -> Optional[int]:
        """SIGTERM the child if asked, then wait for it (kill if stuck)."""
        proc = self.proc
        if terminate and proc.poll() is None:
            proc.terminate()
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        drain = getattr(self, "_drain", None)
        if drain is not None:
            drain.join(timeout=10.0)
        proc.stdout.close()
        return proc.returncode


def probe_argv(workload: str) -> List[str]:
    return [sys.executable, os.path.join(HERE, "probe.py"), workload]


class OpLog:
    """Every timed op of a run: ``(question, class, seconds, states)``.

    Ops are timed with ``time.monotonic()``; their windows are kept so a
    traced cycle can tell which part of each op no span covers.

    ``class`` is ``cold`` (first time asked, nothing reusable), ``warm``
    (the same question again with everything reusable kept) or ``incr``
    (a neighbouring question with everything reusable kept).

    Every timing statistic is taken per question first and then combined
    with a geometric mean, so each question weighs the same however long
    it takes and however often it runs, and no rank of a pooled
    distribution can land on the edge between two questions.
    """

    CLASSES = ("cold", "warm", "incr")

    def __init__(self) -> None:
        self.ops: List[tuple] = []
        self.windows: List[tuple] = []
        self.wall = 0.0
        #: Completed ops for ``jobs_per_s`` when some are in no class
        #: (a served submission that coalesced onto a running job).
        self.completed: Optional[int] = None

    def add(self, question: str, cls: str, start: float, end: float,
            explored: int) -> None:
        self.ops.append((question, cls, end - start, explored))
        self.windows.append((start, end))

    def _groups(self) -> Dict[tuple, List[tuple]]:
        groups: Dict[tuple, List[tuple]] = {}
        for question, cls, seconds, explored in self.ops:
            groups.setdefault((question, cls), []).append((seconds, explored))
        return groups

    def _per_question(self, cls: str, stat) -> float:
        return geomean(stat([s for s, _ in group])
                       for (_, c), group in self._groups().items()
                       if c == cls)

    def _explored(self) -> float:
        """States per second of a typical op of each (question, class)
        that explores: summed median states over summed median times."""
        groups = [g for g in self._groups().values()
                  if any(n > 0 for _, n in g)]
        return (sum(median(n for _, n in g) for g in groups)
                / sum(median(s for s, _ in g) for g in groups))

    def end_to_end(self) -> Dict[str, float]:
        out = {
            "verdict_s": geomean(median(s for s, _ in g)
                                 for g in self._groups().values()),
            "states_per_s": self._explored(),
            "hit_p50_s": self._per_question("warm", median),
            "miss_p50_s": self._per_question("cold", median),
            "jobs_per_s": (len(self.ops) if self.completed is None
                           else self.completed) / self.wall,
        }
        for cls in self.CLASSES:
            out[f"{cls}_s"] = self._per_question(cls, median)
        return out
