"""The program store: compiled programs kept beside a verdict store.

A program read back from the store behaves like a fresh compile (the
jit≡tree-walk suite checks that on every case).  Here: a damaged or
foreign file, or one in a directory other users could write to, is
never executed and degrades to a compile with identical verdicts;
concurrent writers leave only loadable files; and a second exploration
on the same store compiles only the programs its new variants changed.
"""

import contextlib
import json
import marshal
import os
import subprocess
import sys
import textwrap

import pytest

from repro import design
from repro.core import ports
from repro.mc import StateGraph, check_safety
from repro.psl import jit
from repro.psl.jit import clear_program_cache, program_store
from repro.systems.bridge import (
    BridgeConfig,
    bridge_design_space,
    bridge_safety_prop,
    build_exactly_n_bridge,
    fix_exactly_n_bridge,
)
from repro.systems.producer_consumer import pc_design_space

#: Set by the planted programs below if anything ever executes them.
MARKER = "REPRO_TEST_PLANTED_PROGRAM_RAN"
PLANTED = compile(f"import os\nos.environ[{MARKER!r}] = '1'\n_STEPS = ()\n",
                  "<planted>", "exec")


def _system():
    return fix_exactly_n_bridge(build_exactly_n_bridge(
        BridgeConfig(1, 1, trips=1))).to_system(fused=True)


def _engine_keys(system):
    return [jit._program_key(pid, inst, system) + ("engine",)
            for pid, inst in enumerate(system.instances)]


def _check(store):
    """A check as a fresh process would run it: empty in-memory cache."""
    clear_program_cache()
    with program_store(str(store)):
        graph = StateGraph(_system(), jit=True)
    result = check_safety(graph, invariants=[bridge_safety_prop()])
    return graph.compile_stats, (result.ok, result.message,
                                 result.stats.states_stored,
                                 result.stats.transitions)


def _codegen_dir(store):
    return os.path.join(str(store), "programs", jit._CODEGEN)


def _open_codegen_dir(store, codegen=None):
    """A writer on *store*'s codegen directory, stamping *codegen*."""
    fd = os.open(_codegen_dir(store), os.O_RDONLY | os.O_DIRECTORY)
    return jit._ProgramStore(fd, codegen or jit._CODEGEN)


def _plant(store, codegen=None):
    """Replace every engine program of ``_system()`` with marker code."""
    writer = _open_codegen_dir(store, codegen)
    try:
        for key in _engine_keys(_system()):
            writer.save(jit._Program(key, "planted", PLANTED, (), (), (),
                                     (), 1))
    finally:
        writer.close()


def _loadable(store):
    """Each file's key, after checking it loads under its own name."""
    reader = _open_codegen_dir(store)
    keys = []
    try:
        for name in sorted(os.listdir(_codegen_dir(store))):
            with open(os.path.join(_codegen_dir(store), name), "rb") as f:
                key = marshal.loads(f.read()[jit._HEAD:])[0]
            assert jit._file_name(key) == name
            assert reader.load(key) is not None, name
            keys.append(key)
    finally:
        reader.close()
    return keys


@pytest.fixture
def reference(tmp_path):
    """Verdict of a run without a store, and a store one run filled."""
    clear_program_cache()
    graph = StateGraph(_system(), jit=True)
    result = check_safety(graph, invariants=[bridge_safety_prop()])
    verdict = (result.ok, result.message, result.stats.states_stored,
               result.stats.transitions)
    store = tmp_path / "store"
    store.mkdir()
    stats, filled = _check(store)
    assert filled == verdict
    assert stats["programs_compiled"] == len(_engine_keys(_system()))
    return store, verdict


class TestRoundTrip:
    def test_a_second_process_reads_every_program(self, reference):
        store, verdict = reference
        n = len(_engine_keys(_system()))
        assert len(_loadable(store)) == n
        stats, again = _check(store)
        assert (stats["programs_compiled"], stats["digest_hits"]) == (0, n)
        assert again == verdict

    def test_directories_are_owner_only(self, reference):
        store, _ = reference
        for path in (store / "programs", _codegen_dir(store)):
            assert os.stat(path).st_mode & 0o777 == 0o700


def _truncate(path):
    with open(path, "rb") as f:
        blob = f.read()
    with open(path, "wb") as f:
        f.write(blob[:len(blob) // 2])


def _flip_a_byte(path):
    with open(path, "rb") as f:
        blob = bytearray(f.read())
    blob[len(blob) // 2] ^= 0x40
    with open(path, "wb") as f:
        f.write(bytes(blob))


class TestDamagedFilesCompile:
    @pytest.mark.parametrize("damage", [_truncate, _flip_a_byte],
                             ids=["truncated", "corrupted"])
    def test_damaged_file_degrades_to_a_compile(self, reference, damage):
        store, verdict = reference
        for name in os.listdir(_codegen_dir(store)):
            damage(os.path.join(_codegen_dir(store), name))
        stats, again = _check(store)
        assert stats["programs_compiled"] == len(_engine_keys(_system()))
        assert again == verdict
        # The compile rewrote each damaged file whole.
        assert len(_loadable(store)) == len(_engine_keys(_system()))

    def test_file_under_another_programs_name_degrades_to_a_compile(
            self, reference):
        store, verdict = reference
        paths = [os.path.join(_codegen_dir(store), name)
                 for name in sorted(os.listdir(_codegen_dir(store)))]
        blobs = []
        for path in paths:
            with open(path, "rb") as f:
                blobs.append(f.read())
        for path, blob in zip(paths, blobs[1:] + blobs[:1]):
            with open(path, "wb") as f:
                f.write(blob)
        stats, again = _check(store)
        assert stats["programs_compiled"] == len(paths)
        assert again == verdict

    def test_file_from_another_codegen_digest_is_never_executed(
            self, reference, monkeypatch):
        store, verdict = reference
        monkeypatch.delenv(MARKER, raising=False)
        _plant(store, codegen="0" * 32)
        stats, again = _check(store)
        assert MARKER not in os.environ
        assert stats["programs_compiled"] == len(_engine_keys(_system()))
        assert again == verdict


class TestUntrustedDirectories:
    @pytest.mark.parametrize("where", ["programs", "codegen"])
    @pytest.mark.parametrize("bits", [0o020, 0o002],
                             ids=["group-writable", "world-writable"])
    def test_writable_by_others_is_never_read(self, reference, monkeypatch,
                                               where, bits):
        store, verdict = reference
        monkeypatch.delenv(MARKER, raising=False)
        _plant(store)
        path = (str(store / "programs") if where == "programs"
                else _codegen_dir(store))
        os.chmod(path, 0o700 | bits)
        stats, again = _check(store)
        assert MARKER not in os.environ
        assert stats["programs_compiled"] == len(_engine_keys(_system()))
        assert again == verdict

        # The planted files are live: in a private directory they run
        # (and then fail, being no process programs).
        os.chmod(path, 0o700)
        clear_program_cache()
        with program_store(str(store)), contextlib.suppress(Exception):
            StateGraph(_system(), jit=True)
        assert os.environ.get(MARKER) == "1"

    def test_owned_by_another_user_is_never_read(self, reference,
                                                  monkeypatch):
        store, verdict = reference
        monkeypatch.delenv(MARKER, raising=False)
        _plant(store)
        uid = os.getuid()
        monkeypatch.setattr(os, "getuid", lambda: uid + 1)
        stats, again = _check(store)
        assert MARKER not in os.environ
        assert stats["programs_compiled"] == len(_engine_keys(_system()))
        assert again == verdict


_EXPLORE_PC = textwrap.dedent("""
    import sys
    from repro import design
    from repro.systems.producer_consumer import pc_design_space
    design.explore(pc_design_space(),
                   cache=design.open_cache(sys.argv[1]))
""")

_EXPLORE_BRIDGE = textwrap.dedent("""
    import json, sys
    from repro import design
    from repro.psl import jit
    from repro.systems.bridge import bridge_safety_prop
    sys.path.insert(0, sys.argv[2])
    from test_program_store import bridge_space
    report = design.explore(
        bridge_space(extra_send=True), invariants=[bridge_safety_prop()],
        cache=design.open_cache(sys.argv[1]))
    print(json.dumps({"info": jit.program_cache_info(),
                      "results": [[r["variant"], r["verdict"], r["states"],
                                   r["detail"], r["cached"]]
                                  for r in report.results]}))
""")


def bridge_space(extra_send=False):
    """The paper's bridge arc; ``extra_send`` adds asynchronous checking
    sends on both enter connectors (2 new variants)."""
    space = bridge_design_space(BridgeConfig(trips=1))
    if not extra_send:
        return space
    sends = [ports.AsynBlockingSend(), ports.SynBlockingSend(),
             ports.AsynCheckingSend()]
    return design.DesignSpace(
        space.name, bases=list(space.bases),
        axes=[design.SendPortAxis("BlueEnter", sends),
              design.SendPortAxis("RedEnter", sends)],
        constraints=list(space.constraints), fused=True)


class TestAcrossProcesses:
    def test_two_concurrent_writers_leave_only_loadable_files(
            self, tmp_path):
        procs = [subprocess.Popen([sys.executable, "-c", _EXPLORE_PC,
                                   str(tmp_path)])
                 for _ in range(2)]
        for proc in procs:
            assert proc.wait(timeout=120) == 0
        keys = _loadable(tmp_path)
        assert len(keys) == len(set(keys)) > 0

    def test_second_explore_compiles_only_the_changed_programs(
            self, tmp_path):
        invariants = [bridge_safety_prop()]
        clear_program_cache()
        design.explore(bridge_space(), invariants=invariants,
                       cache=design.open_cache(str(tmp_path)))
        out = subprocess.run(
            [sys.executable, "-c", _EXPLORE_BRIDGE, str(tmp_path),
             os.path.dirname(__file__)],
            capture_output=True, text=True, timeout=120, check=True)
        second = json.loads(out.stdout)
        info = second["info"]
        assert (info["programs_compiled"], info["digest_hits"]) == (4, 14)

        clear_program_cache()
        alone = design.explore(bridge_space(extra_send=True),
                               invariants=invariants)
        assert [row[:4] for row in second["results"]] == [
            [r["variant"], r["verdict"], r["states"], r["detail"]]
            for r in alone.results]
        assert sum(row[4] for row in second["results"]) == 4

    def test_pooled_workers_fill_the_store(self, tmp_path):
        clear_program_cache()
        cache = design.open_cache(str(tmp_path))
        report = design.explore(pc_design_space(), cache=cache, jobs=2)
        assert not report.warnings
        filled = _loadable(tmp_path)

        # A serial run compiles exactly the programs the workers wrote.
        clear_program_cache()
        design.explore(pc_design_space())
        assert len(filled) == jit.program_cache_info()["programs_cached"]
