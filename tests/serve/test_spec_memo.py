"""The job manager's spec memo: one elaboration per canonical spec.

A repeat submission is validated again but not re-elaborated or
re-fingerprinted; the proof counts the manager's calls to ``build_job``.
"""

import pytest

from repro.serve import JobManager, JobSpecError
from repro.serve import manager as manager_module

SPARSE = {"system": "gas"}
EXPLICIT = {"kind": "verify", "system": "gas",
            "options": {"customers": 2, "selective": False,
                        "max_states": None, "max_seconds": None}}
BUDGETED = {"kind": "verify", "system": "gas",
            "options": {"max_states": 100_000}}


@pytest.fixture
def manager(tmp_path):
    manager = JobManager(str(tmp_path / "cache"), workers=1,
                         supervised=False)
    yield manager
    manager.close()


@pytest.fixture
def builds(monkeypatch):
    """Every spec the manager elaborates, in call order."""
    calls = []
    build_job = manager_module.build_job

    def counting(spec):
        calls.append(spec)
        return build_job(spec)

    monkeypatch.setattr(manager_module, "build_job", counting)
    return calls


def _fingerprint(manager, spec):
    return manager.submit(spec)["fingerprint"]


class TestSpecMemo:
    def test_repeats_and_respellings_share_one_elaboration(self, manager,
                                                           builds):
        sparse = _fingerprint(manager, SPARSE)
        assert _fingerprint(manager, EXPLICIT) == sparse
        assert _fingerprint(manager, SPARSE) == sparse
        budgeted = _fingerprint(manager, BUDGETED)
        assert budgeted != sparse
        assert _fingerprint(manager, BUDGETED) == budgeted
        assert len(builds) == 2

    def test_an_invalid_spec_is_rejected_on_every_submission(self,
                                                             manager):
        bad = {"system": "abp", "options": {"max_states": 0}}
        for _ in range(3):
            with pytest.raises(JobSpecError):
                manager.submit(bad)
        assert manager.counters["submitted"] == 0

    def test_the_memo_never_exceeds_its_bound(self, manager, builds,
                                              monkeypatch):
        monkeypatch.setattr(manager_module, "SPEC_MEMO_SIZE", 3)
        specs = [{"system": "abp", "options": {"max_states": 1_000 + i}}
                 for i in range(5)]
        for spec in specs:
            manager.submit(spec)
            assert len(manager._memo) <= 3
        assert len(builds) == 5
        manager.submit(specs[-1])  # recently used: still remembered
        assert len(builds) == 5
        manager.submit(specs[0])  # least recently used: evicted
        assert len(builds) == 6
        assert len(manager._memo) == 3
