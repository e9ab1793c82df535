"""A sandbox forkserver that could not preload repro says so, once.

On Python up to 3.13 the forkserver ignores the ``sys.path`` it is
handed and swallows the preload's ``ImportError``.  A daemon that puts
repro on ``sys.path`` only at run time then gets sandboxes that each
import repro themselves, which works but costs every job; the manager
must say so on stderr, once.  The driver runs with ``-S``, which the
forkserver inherits, so an installed copy of the package cannot mask
the failure.
"""

import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

DRIVER = """
import sys
sys.path.insert(0, sys.argv[1])
from repro.serve import JobManager

if __name__ == "__main__":
    manager = JobManager(sys.argv[2], workers=1)
    try:
        for max_states in (10_000, 10_001):
            view = manager.submit({"kind": "verify", "system": "abp",
                                   "options": {"max_states": max_states}})
            final = manager.wait(view["job_id"], timeout=120)
            assert final["status"] == "done", final
    finally:
        manager.close()
"""

WARNING = "the sandbox forkserver could not import repro"


def _drive(tmp_path, pythonpath):
    script = tmp_path / "drive.py"
    script.write_text(DRIVER)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    if pythonpath:
        env["PYTHONPATH"] = SRC
    return subprocess.run(
        [sys.executable, "-S", str(script), SRC, str(tmp_path / "cache")],
        env=env, cwd=str(tmp_path), capture_output=True, text=True,
        timeout=300)


@pytest.mark.skipif(sys.version_info >= (3, 14),
                    reason="the preload failure is known up to Python 3.13")
def test_failed_preload_is_reported_once(tmp_path):
    run = _drive(tmp_path, pythonpath=False)
    assert run.returncode == 0, run.stderr
    assert run.stderr.count(WARNING) == 1, run.stderr
    assert "PYTHONPATH" in run.stderr


def test_working_preload_is_silent(tmp_path):
    run = _drive(tmp_path, pythonpath=True)
    assert run.returncode == 0, run.stderr
    assert WARNING not in run.stderr
