"""Run ``repro serve`` with the benchmark's span wrappers installed.

    python3 perfbench/daemon.py --spans PATH -- SERVE-ARGS...

The traced passes of the ``serve`` workload start the daemon through
this file: it installs the span wrappers of ``trace.py``, runs
``repro serve SERVE-ARGS...`` in this process (``repro.cli.main``), and
writes the daemon's spans to ``PATH`` as JSON once the daemon has
drained.  Sandboxes inherit the wrappers, but their spans die with them:
the ``verify`` workload covers what runs inside a sandbox.  Untraced
passes run ``repro serve`` itself.
"""

import argparse
import json
import os
import sys

sys.path.insert(1, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--spans", required=True)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args[1:] if args.serve_args[:1] == ["--"] \
        else args.serve_args

    import trace
    from repro import cli

    recorder = trace.Recorder()
    installed = trace.install(recorder)
    try:
        return cli.main(["serve", *serve_args])
    finally:
        installed.restore()
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump(recorder.take(), fh)


if __name__ == "__main__":
    sys.exit(main())
