"""Checkpoint/resume: an interrupted exploration picks up where it left.

Acceptance: interrupt a run after K jobs; ``explore(resume=RUN_ID)``
re-runs only the remaining jobs, performs zero cache traffic for the
completed K (they are served from the run journal), and the final
report equals the uninterrupted run's.
"""

import signal

import pytest

from repro.core import (
    AsynBlockingSend,
    FifoQueue,
    SingleSlotBuffer,
    SynBlockingSend,
)
from repro.design import (
    ChannelAxis,
    DesignSpace,
    RunJournal,
    SendPortAxis,
    explore,
    open_cache,
)
from repro.systems.producer_consumer import simple_pair

CHANNELS = [SingleSlotBuffer(), FifoQueue(size=2)]
PORTS = [AsynBlockingSend(), SynBlockingSend()]


def _space():
    return DesignSpace(
        "pc",
        simple_pair(PORTS[0], CHANNELS[0], messages=1),
        axes=[ChannelAxis("link", CHANNELS),
              SendPortAxis("link", PORTS, component="Producer0")],
        fused=True,
    )


def _strip_volatile(record):
    out = {k: v for k, v in record.items()
           if k not in ("seconds", "cached", "resumed", "deduplicated",
                        "models_reused", "models_built")}
    if out.get("safety"):
        out["safety"] = {k: v for k, v in out["safety"].items()
                         if k != "statistics"} | {
            "states": record["safety"]["statistics"]["states_stored"]}
    return out


class InterruptAfter:
    """A reporter that raises SIGINT once N fresh variants finished."""

    interval = 1000

    def __init__(self, n):
        self.remaining = n

    def emit(self, event):
        if (event.type == "variant_finished"
                and not event.data.get("cached")):
            self.remaining -= 1
            if self.remaining == 0:
                signal.raise_signal(signal.SIGINT)

    def close(self):
        pass


class TestResume:
    def test_resume_runs_only_the_remaining_jobs(self, tmp_path):
        cache_dir = tmp_path / "cache"
        partial = explore(_space(), cache=open_cache(cache_dir), jobs=1,
                          reporter=InterruptAfter(2))
        assert partial.interrupted
        run_id = partial.run_id

        cache = open_cache(cache_dir)
        resumed = explore(_space(), cache=cache, resume=run_id)
        assert not resumed.interrupted
        assert resumed.complete
        assert resumed.run_id == run_id

        # The completed K came from the journal: zero cache traffic for
        # them, and the two remaining jobs were fresh misses.
        assert sum(1 for r in resumed.results if r.get("resumed")) == 2
        assert cache.hits == 0
        assert cache.misses == 2

        # The resumed report equals an uninterrupted run's.
        baseline = explore(_space(), cache=open_cache(tmp_path / "b"))
        assert ([_strip_volatile(r) for r in resumed.results]
                == [_strip_volatile(r) for r in baseline.results])
        assert ([r["variant"] for r in resumed.ranked]
                == [r["variant"] for r in baseline.ranked])

        state = RunJournal.load(str(cache_dir / "runs"), run_id)
        assert state.finished
        assert state.attempts == 2
        assert state.pending == []
        assert len(state.completed) == 4

    def test_resume_of_a_finished_run_reverifies_nothing(self, tmp_path):
        cache_dir = tmp_path / "cache"
        first = explore(_space(), cache=open_cache(cache_dir))
        assert first.complete

        cache = open_cache(cache_dir)
        again = explore(_space(), cache=cache, resume=first.run_id)
        assert again.complete
        assert all(r.get("resumed") for r in again.results)
        assert cache.hits == 0 and cache.misses == 0
        assert ([_strip_volatile(r) for r in again.results]
                == [_strip_volatile(r) for r in first.results])

    def test_resume_unknown_run_id_raises_with_known_runs(self, tmp_path):
        cache_dir = tmp_path / "cache"
        report = explore(_space(), cache=open_cache(cache_dir))
        with pytest.raises(FileNotFoundError, match=report.run_id):
            explore(_space(), cache=open_cache(cache_dir),
                    resume="no-such-run")

    def test_resume_without_journal_dir_is_an_error(self):
        with pytest.raises(ValueError, match="journal_dir"):
            explore(_space(), resume="r1")

    def test_explicit_run_id_names_the_journal(self, tmp_path):
        cache_dir = tmp_path / "cache"
        report = explore(_space(), cache=open_cache(cache_dir),
                         run_id="nightly-7")
        assert report.run_id == "nightly-7"
        state = RunJournal.load(str(cache_dir / "runs"), "nightly-7")
        assert state.finished
