"""The supervised worker pool: classification, retries, timeouts."""

import gc
import os
import threading

from repro.design import (
    CAUSE_EXCEPTION,
    CAUSE_TIMEOUT,
    CAUSE_WORKER_DIED,
    RetryPolicy,
    SupervisedPool,
)


# Worker tasks must be importable from the child process.

def _double(payload):
    return payload * 2


def _die_if_odd(payload):
    if payload % 2:
        os._exit(77)
    return payload


def _raise_if_negative(payload):
    if payload < 0:
        raise ValueError(f"bad payload {payload}")
    return payload


def _collect_garbage(payload):
    gc.collect()
    return payload


class _LocksOnDel:
    """A reference cycle whose finalizer takes a lock."""

    def __init__(self, lock):
        self.lock = lock
        self.cycle = self

    def __del__(self):
        with self.lock:
            pass


def _sleep_for(payload):
    import time
    time.sleep(payload)
    return payload


class TestHappyPath:
    def test_results_in_submission_order(self):
        pool = SupervisedPool(3)
        outcomes = pool.run(_double, [3, 1, 2])
        assert [o.result for o in outcomes] == [6, 2, 4]
        assert all(o.ok and o.attempts == 1 for o in outcomes)

    def test_keys_label_outcomes(self):
        pool = SupervisedPool(2)
        outcomes = pool.run(_double, [1, 2], keys=["x", "y"])
        assert [o.key for o in outcomes] == ["x", "y"]


class TestCrashClassification:
    def test_dead_worker_fails_only_its_job(self):
        pool = SupervisedPool(2, retry=RetryPolicy(max_retries=0))
        outcomes = pool.run(_die_if_odd, [0, 1, 2, 3, 4])
        assert [o.ok for o in outcomes] == [True, False, True, False, True]
        for bad in (outcomes[1], outcomes[3]):
            assert bad.failure.cause == CAUSE_WORKER_DIED
            assert "77" in bad.failure.detail

    def test_worker_exception_is_classified_with_traceback(self):
        pool = SupervisedPool(2, retry=RetryPolicy(max_retries=0))
        outcomes = pool.run(_raise_if_negative, [1, -1])
        assert outcomes[0].ok
        failure = outcomes[1].failure
        assert failure.cause == CAUSE_EXCEPTION
        assert "bad payload -1" in failure.detail

    def test_timeout_terminates_and_classifies(self):
        pool = SupervisedPool(2, timeout=0.3,
                              retry=RetryPolicy(max_retries=0))
        outcomes = pool.run(_sleep_for, [0.0, 30.0])
        assert outcomes[0].ok
        assert outcomes[1].failure.cause == CAUSE_TIMEOUT

    def test_timeouts_are_not_retried_by_default(self):
        pool = SupervisedPool(1, timeout=0.3)
        outcomes = pool.run(_sleep_for, [30.0])
        assert outcomes[0].failure.attempts == 1


class TestRetries:
    def test_deterministic_death_exhausts_retries(self):
        retries = []
        pool = SupervisedPool(
            1, retry=RetryPolicy(max_retries=2, backoff_base=0.01))
        outcomes = pool.run(
            _die_if_odd, [1],
            on_retry=lambda key, cause, attempt, delay:
                retries.append((key, cause, attempt)))
        assert outcomes[0].failure.attempts == 3
        assert retries == [(0, CAUSE_WORKER_DIED, 1),
                           (0, CAUSE_WORKER_DIED, 2)]

    def test_backoff_jitter_is_deterministic_per_seed(self):
        policy = RetryPolicy()
        assert policy.backoff(1, seed="k") == policy.backoff(1, seed="k")
        assert policy.backoff(1, seed="k") != policy.backoff(1, seed="j")

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_max=0.3, jitter=0.0)
        assert policy.backoff(1) == 0.1
        assert policy.backoff(2) == 0.2
        assert policy.backoff(5) == 0.3


class TestStopping:
    def test_stop_after_truncates_at_trigger(self):
        pool = SupervisedPool(1)
        outcomes = pool.run(
            _double, [1, 2, 3, 4],
            stop_after=lambda o: o.result == 4)
        assert [o.result for o in outcomes] == [2, 4]

    def test_stop_event_drains_gracefully(self):
        import threading
        flag = threading.Event()
        flag.set()
        pool = SupervisedPool(2)
        outcomes = pool.run(_double, [1, 2, 3])
        assert len(outcomes) == 3  # sanity: unset flag runs everything
        assert pool.run(_double, [1, 2, 3], stop=flag) == []


class TestForkedGarbage:
    def test_sandbox_never_finalizes_garbage_inherited_at_fork(self):
        # A lock held by another parent thread at fork time stays held in
        # the child forever; a finalizer waiting on it would hang the
        # sandbox's first GC pass.
        lock = threading.Lock()
        held, release = threading.Event(), threading.Event()

        def hold():
            with lock:
                held.set()
                release.wait(10)

        holder = threading.Thread(target=hold)
        gc.disable()
        try:
            _LocksOnDel(lock)  # unreachable, uncollected until the fork
            holder.start()
            held.wait(10)
            pool = SupervisedPool(1, timeout=3.0, context="fork",
                                  retry=RetryPolicy(max_retries=0))
            outcomes = pool.run(_collect_garbage, [7])
        finally:
            release.set()
            holder.join()
            gc.enable()
            gc.collect()
        assert outcomes[0].ok, outcomes[0].failure
        assert outcomes[0].result == 7
