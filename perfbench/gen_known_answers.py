"""Write ``known_answers.json`` with the tree-walk interpreter.

The table is the benchmark's oracle: every verdict and state count a run
produces is compared against it.  It is generated once, with the JIT
switched off (``REPRO_NO_JIT=1``), so the compiled engine under test
never grades itself.  Regenerate only when an input changes:

    python3 perfbench/gen_known_answers.py
"""

import json
import os
import shutil
import sys
import tempfile

os.environ["REPRO_NO_JIT"] = "1"
sys.path.insert(1, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import catalog  # noqa: E402
from common import HERE  # noqa: E402

from repro import core, design  # noqa: E402
from repro.psl.jit import program_cache_info  # noqa: E402
from repro.serve.jobs import run_job  # noqa: E402


def verify_answers() -> dict:
    out = {}
    for name, op in catalog.VERIFY_OPS.items():
        library = core.ModelLibrary()
        verified = op(library)
        if verified.recheck and verified.recheck() != verified.outcome:
            raise SystemExit(f"{name}: a recheck changed the outcome")
        out[name] = verified.outcome
        neighbour = catalog.VERIFY_NEIGHBOURS.get(name)
        if neighbour is not None:
            out[f"{name}>{neighbour[0]}"] = catalog.incremental(
                neighbour, verified, library)
        print(f"verify {name}: {verified.outcome}", flush=True)
    for name, (neighbour, _, _) in catalog.VERIFY_NEIGHBOURS.items():
        if out.pop(f"{name}>{neighbour}") != out[neighbour]:
            raise SystemExit(f"{name}: the fix disagrees with {neighbour}")
    return out


def explore_table(space, kwargs, workdir) -> dict:
    store = tempfile.mkdtemp(dir=workdir)
    report = design.explore(space, cache=design.open_cache(
        store, backend="sqlite"), jobs=1, **kwargs)
    return {"variants": [[r["variant"], r["verdict"], r["states"]]
                         for r in report.results],
            "best": report.best["variant"] if report.best else None}


def serve_answer(record: dict) -> dict:
    return {key: record[key]
            for key in ("verdict", "exit_code", "detail", "states")}


def main() -> int:
    workdir = tempfile.mkdtemp(prefix="perfbench-oracle-")
    try:
        table = {
            "generated_with": "tree-walk interpreter (REPRO_NO_JIT=1)",
            "verify": verify_answers(),
            "explore": {},
            "serve": {},
        }
        for name, (cold, incr, kwargs) in catalog.SPACES.items():
            table["explore"][name] = {
                "cold": explore_table(cold(), kwargs(), workdir),
                "incr": explore_table(incr(), kwargs(), workdir),
            }
            print(f"explore {name}: {table['explore'][name]}", flush=True)
        for name, spec in catalog.SERVE_SPECS.items():
            store = tempfile.mkdtemp(dir=workdir)
            table["serve"][name] = serve_answer(run_job(spec,
                                                        cache_dir=store))
        store = tempfile.mkdtemp(dir=workdir)
        (first_name, first), (then_name, then) = catalog.SERVE_SESSION
        table["serve"][first_name] = serve_answer(run_job(first,
                                                          cache_dir=store))
        table["serve"][f"{then_name}@incr"] = serve_answer(
            run_job(then, cache_dir=store))
        print(f"serve: {table['serve']}", flush=True)
        if program_cache_info()["programs_compiled"]:
            raise SystemExit("the JIT compiled programs; the oracle must "
                             "use the tree-walk interpreter")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(HERE, "known_answers.json"), "w",
              encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
