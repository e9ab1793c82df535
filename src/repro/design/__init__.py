"""repro.design — design-space exploration with a persistent result cache.

The paper makes "experimenting with alternative design choices of
interaction semantics" cheap by reusing block and component models
across design iterations.  This package makes the experiment itself a
first-class, resumable object:

* :mod:`~repro.design.space` — declare a :class:`DesignSpace`: base
  architecture(s) plus per-connector variation axes and constraints;
* :mod:`~repro.design.fingerprint` — content-hash each variant's
  verification job so identical jobs run once;
* :mod:`~repro.design.sqlcache` — persist verdicts on disk, keyed by
  fingerprint, so re-runs only verify what changed: one SQLite/WAL
  store that many reader/writer processes share, with LRU eviction and
  quarantine-on-corruption; :func:`open_cache` opens it;
* :mod:`~repro.design.scheduler` — :func:`explore`: parallel,
  cheapest-first, cache-aware execution with early-exit policies;
* :mod:`~repro.design.supervise` — the fault-tolerant worker pool:
  per-job timeouts, bounded retries, crash classification;
* :mod:`~repro.design.journal` — the checksummed per-run journal
  behind checkpoint/resume (``explore(resume=RUN_ID)``);
* :mod:`~repro.design.rank` — Pareto-rank the surviving variants by
  (verdict, states explored, resilience).

Typical use::

    from repro.design import (ChannelAxis, DesignSpace, SendPortAxis,
                              explore, open_cache)

    space = DesignSpace("pc", simple_pair(...), axes=[
        ChannelAxis("link", [SingleSlotBuffer(), FifoQueue(size=2)]),
        SendPortAxis("link", [AsynBlockingSend(), SynBlockingSend()]),
    ])
    report = explore(space, invariants=[safe], jobs=4,
                     cache=open_cache(".repro-cache"))
    print(report.table())
"""

from .fingerprint import (
    FINGERPRINT_SCHEMA,
    fingerprint_job,
    fingerprint_prop,
    fingerprint_system,
)
from .journal import (
    JOURNAL_SCHEMA,
    FileLockedError,
    JournalState,
    RunJournal,
    list_runs,
)
from .rank import ExplorationReport, rank_records, resilience_rank, verdict_rank
from .scheduler import (
    EXHAUSTIVE,
    FAIL,
    FIRST_PASS,
    INCOMPLETE,
    PASS,
    SKIPPED,
    UNKNOWN,
    explore,
)
from .supervise import (
    CAUSE_EXCEPTION,
    CAUSE_TIMEOUT,
    CAUSE_UNPICKLABLE,
    CAUSE_WORKER_DIED,
    JobFailure,
    JobOutcome,
    RetryPolicy,
    SupervisedPool,
)
from .sqlcache import (
    CACHE_SCHEMA,
    CAUSE_DB_LOCKED,
    SQLITE_CONTAINER_SCHEMA,
    CacheCorruptionWarning,
    SqliteResultCache,
    migrate_jsonl_to_sqlite,
    open_cache,
)
from .space import (
    COMPOSED,
    FUSED,
    Axis,
    ChannelAxis,
    DesignSpace,
    DesignSpaceError,
    EncodingAxis,
    FaultAxis,
    ReceivePortAxis,
    SendPortAxis,
    Variant,
)

__all__ = [
    "CACHE_SCHEMA",
    "FINGERPRINT_SCHEMA",
    "JOURNAL_SCHEMA",
    "SQLITE_CONTAINER_SCHEMA",
    "CAUSE_DB_LOCKED",
    "CAUSE_EXCEPTION",
    "CAUSE_TIMEOUT",
    "CAUSE_UNPICKLABLE",
    "CAUSE_WORKER_DIED",
    "CacheCorruptionWarning",
    "FileLockedError",
    "JobFailure",
    "JobOutcome",
    "JournalState",
    "RetryPolicy",
    "RunJournal",
    "SqliteResultCache",
    "SupervisedPool",
    "list_runs",
    "migrate_jsonl_to_sqlite",
    "open_cache",
    "fingerprint_job",
    "fingerprint_prop",
    "fingerprint_system",
    "ExplorationReport",
    "rank_records",
    "resilience_rank",
    "verdict_rank",
    "EXHAUSTIVE",
    "FIRST_PASS",
    "PASS",
    "FAIL",
    "UNKNOWN",
    "INCOMPLETE",
    "SKIPPED",
    "explore",
    "COMPOSED",
    "FUSED",
    "Axis",
    "ChannelAxis",
    "DesignSpace",
    "DesignSpaceError",
    "EncodingAxis",
    "FaultAxis",
    "ReceivePortAxis",
    "SendPortAxis",
    "Variant",
]
