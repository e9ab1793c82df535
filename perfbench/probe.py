"""Set-up probe: a fresh process does a workload's set-up, then says so.

``run.py`` starts this several times per run and times each start until
the ``ready`` line, which is how ``setup_s`` is measured for the
in-process workloads (the ``serve`` workload times daemon starts the same
way).  Set-up is everything before the first timed operation: imports,
building the catalogue or the design spaces, and creating the store.

    python3 perfbench/probe.py {verify|explore}
"""

import os
import sys

sys.path.insert(1, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import inproc  # noqa: E402
from common import Scratch  # noqa: E402


def main(workload: str) -> int:
    scratch = Scratch(f"probe-{workload}")
    try:
        inproc.setup(workload, scratch)
        print("ready", flush=True)
    finally:
        scratch.close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
