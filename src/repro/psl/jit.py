"""Compiled execution: lowering process automata to Python bytecode.

The tree-walk :class:`~repro.psl.interp.Interpreter` resolves every
guard, assignment, and channel operation through nested closures and
per-edge dispatch on every visit — fine for correctness, but successor
generation is where a model checker spends essentially all of its time.
This module removes that per-step dispatch entirely:

* Each :class:`~repro.psl.system.ProcessDef` control-flow automaton is
  lowered to **Python source**: one specialized function per control
  location, with every outgoing edge inlined — guards become plain
  comparisons over frame/global slots, assignments become single-slot
  tuple surgery, and ``else``/rendezvous enabledness is resolved with
  the minimum number of checks the location actually needs (a location
  without an ``else`` edge performs *no* rendezvous-readiness scans).
* Rendezvous handshakes are linked at bind time: each send edge gets a
  precomputed candidate list of ``(partner pid, location, handler)``
  tuples, so pairing a sender with ready receivers is a scan of a
  short static tuple instead of a walk over every process's edge table.
* Transition labels for state-independent edges are built **once** at
  bind time; message-carrying labels are memoized per edge keyed by the
  message tuple.
* The generated source is ``compile()``d once per *program key* and the
  resulting code object is cached process-wide.  The key is the
  :mod:`repro.psl.canon` digest of the definition — the same
  content-addressed identity the design-space verdict cache uses — plus
  everything the code bakes in: the pid, the local slot order, the
  global slot indices, the channel indices/capacities, the system's
  shape and the mode.  So the same definition at the same pid and
  numbering in a system of the same shape reuses its program (the same
  design checked again, a fault scenario of it); a differently shaped
  variant compiles its own.
* Inside a :func:`program_store` block the cache has a second level on
  disk, beside a verdict store: a program missing from memory is read
  from ``<store>/programs/<codegen digest>/<key digest>``, and every
  program compiled is written there, so one process's compile is the
  next one's cache hit.
* A program is lowered in one of two modes.  *Engine-mode* programs,
  the only ones a :class:`~repro.mc.engine.StateGraph` walk runs,
  intern successors straight into the graph's store; they are compiled
  when the :class:`CompiledInterpreter` is built.  *Plain-mode*
  programs, behind the :class:`~repro.psl.interp.Transition` API, are
  compiled on the first call that needs them.  A definition the
  lowering (or :mod:`repro.psl.canon`) cannot handle raises
  :class:`JitUnsupported` at construction, and :func:`make_interpreter`
  falls back to the tree-walk interpreter.

Semantics are pinned to the tree-walk interpreter by the differential
suite in ``tests/psl/test_compiled_equivalence.py``: identical
transition labels, identical successor order, identical violations.
Set ``REPRO_NO_JIT=1`` (or pass ``--no-jit`` on the CLI) to force the
tree-walk path — the debugging fallback.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import marshal
import os
import re
import stat
import threading
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

from .compiler import (
    OpAssert,
    OpAssign,
    OpDStep,
    OpElse,
    OpGuard,
    OpRecv,
    OpSend,
    OpSkip,
)
from .errors import CompileError, EvalError, ExecutionError
from .expr import BinOp, Const, Expr, Not, Var, _int_div, _int_mod
from .interp import Interpreter, Transition, TransitionLabel, _arith
from .state import State
from .stmt import AnyField, Bind, MatchEq
from .system import ProcessInstance, System
from .values import truthy

__all__ = [
    "CompiledInterpreter",
    "JitUnsupported",
    "clear_program_cache",
    "jit_enabled",
    "make_interpreter",
    "program_cache_info",
    "program_store",
]


class JitUnsupported(Exception):
    """Raised when a model uses a construct the compiler cannot lower.

    :func:`make_interpreter` catches this and falls back to the
    tree-walk interpreter, so new AST nodes degrade gracefully.
    """


def jit_enabled() -> bool:
    """Default JIT policy: on unless ``REPRO_NO_JIT`` is set non-empty."""
    return os.environ.get("REPRO_NO_JIT", "") in ("", "0")


# ---------------------------------------------------------------------------
# Runtime helpers referenced by generated code
# ---------------------------------------------------------------------------


def _jdiv(a, b):
    if type(a) is int and type(b) is int:
        return _int_div(a, b)
    raise EvalError(f"arithmetic on non-integers: {a!r} / {b!r}")


def _jmod(a, b):
    if type(a) is int and type(b) is int:
        return _int_mod(a, b)
    raise EvalError(f"arithmetic on non-integers: {a!r} % {b!r}")


def _plain_transition(label, target, violation=None,
                      _tr=Transition, _mk=State._make):
    """Default transition constructor for generated code.

    Generated code hands the target over as a plain 4-tuple of state
    components; this factory rebuilds the :class:`State` NamedTuple for
    the public API.  Engine-mode programs intern the raw tuple inline
    instead (see :func:`_emit_T`) — on an intern hit (the common case in
    a dense graph) no State object is built at all.
    """
    return _tr(label, _mk(target), violation)


#: Names every generated namespace receives.
_RUNTIME = {
    "T": _plain_transition,
    "State": State,
    "EvalError": EvalError,
    "ExecutionError": ExecutionError,
    "_t": truthy,
    "_arith": _arith,
    "_idiv": _int_div,
    "_imod": _int_mod,
    "_jdiv": _jdiv,
    "_jmod": _jmod,
}


# ---------------------------------------------------------------------------
# Expression lowering
# ---------------------------------------------------------------------------

_CMP_OPS = ("==", "!=", "<", "<=", ">", ">=")


def _int_locals(inst: ProcessInstance) -> frozenset:
    """Local variables provably int-valued in every reachable state.

    A non-parameter local whose declared initial value is an int stays
    int as long as every assignment to it is provably int and no
    receive pattern binds a message field into it.  Parameters are
    excluded outright: instantiation values are not part of the program
    cache key, so a cached program must stay correct for a variant that
    binds a symbol.  Computed as a shrinking fixpoint (variable-copy
    assignments may depend on other candidates).
    """
    defn = inst.definition
    proven = {name for name, v in defn.local_vars.items()
              if isinstance(v, int)}
    assigns = []

    def visit(op) -> None:
        if isinstance(op, OpAssign):
            assigns.append((op.name, op.expr))
        elif isinstance(op, OpDStep):
            for sub in op.ops:
                visit(sub)
        elif isinstance(op, OpRecv):
            for p in op.patterns:
                if isinstance(p, Bind):
                    proven.discard(p.name)

    for edges in defn.automaton.edges_from:
        for edge in edges:
            visit(edge.op)

    def provable(e: Expr) -> bool:
        if isinstance(e, Const):
            return isinstance(e.value, int)
        if isinstance(e, Var):
            return e.name == "_pid" or e.name in proven
        return isinstance(e, (Not, BinOp))

    changed = True
    while changed:
        changed = False
        for name, expr in assigns:
            if name in proven and not provable(expr):
                proven.discard(name)
                changed = True
    return frozenset(proven)


class _ExprGen:
    """Lowers expressions to Python source over frame/global slots."""

    def __init__(self, pid: int, inst: ProcessInstance, system: System,
                 local: str = "L", glob: str = "G",
                 int_locals: frozenset = frozenset()) -> None:
        self.pid = pid
        self.inst = inst
        self.system = system
        self.local = local
        self.glob = glob
        self.int_locals = int_locals

    def renamed(self, local: str, glob: str) -> "_ExprGen":
        return _ExprGen(self.pid, self.inst, self.system, local, glob,
                        self.int_locals)

    def provably_int(self, e: Expr) -> bool:
        """True when the expression, if it evaluates at all, is an int."""
        if isinstance(e, Const):
            return isinstance(e.value, int)
        if isinstance(e, Var):
            return e.name == "_pid" or (e.name in self.int_locals
                                        and e.name in self.inst.local_index)
        # Not and every BinOp either raise or produce an int.
        return isinstance(e, (Not, BinOp))

    def value(self, e: Expr) -> str:
        """Source yielding the expression's Value (int or str)."""
        if isinstance(e, Const):
            return repr(e.value)
        if isinstance(e, Var):
            return self._slot(e.name)
        if isinstance(e, Not):
            return f"(0 if {self.boolean(e.operand)} else 1)"
        if isinstance(e, BinOp):
            op = e.op
            if op in ("&&", "||"):
                return f"(1 if {self.boolean(e)} else 0)"
            if op in _CMP_OPS:
                return (f"(1 if {self.value(e.left)} {op} "
                        f"{self.value(e.right)} else 0)")
            lhs, rhs = self.value(e.left), self.value(e.right)
            both_int = self.provably_int(e.left) and self.provably_int(e.right)
            if op in ("+", "-", "*"):
                if both_int:
                    return f"({lhs} {op} {rhs})"
                return f"_arith({lhs}, {rhs}, {op!r})"
            if op == "/":
                return (f"_idiv({lhs}, {rhs})" if both_int
                        else f"_jdiv({lhs}, {rhs})")
            if op == "%":
                return (f"_imod({lhs}, {rhs})" if both_int
                        else f"_jmod({lhs}, {rhs})")
        raise JitUnsupported(f"cannot lower expression {e!r}")

    def boolean(self, e: Expr) -> str:
        """Source usable in a boolean context (Promela truthiness)."""
        if isinstance(e, Const):
            return repr(truthy(e.value))
        if isinstance(e, Not):
            return f"(not {self.boolean(e.operand)})"
        if isinstance(e, BinOp):
            op = e.op
            if op == "&&":
                return f"({self.boolean(e.left)} and {self.boolean(e.right)})"
            if op == "||":
                return f"({self.boolean(e.left)} or {self.boolean(e.right)})"
            if op in _CMP_OPS:
                return f"({self.value(e.left)} {op} {self.value(e.right)})"
            # Arithmetic result: an int, so Python truthiness == Promela.
            return self.value(e)
        if isinstance(e, Var):
            if e.name == "_pid":
                return repr(truthy(self.pid))
            if self.provably_int(e):
                # Int truthiness is Python truthiness — no helper call.
                return self._slot(e.name)
            # A bare variable may hold a symbol; symbols are always true.
            return f"_t({self._slot(e.name)})"
        raise JitUnsupported(f"cannot lower expression {e!r}")

    def _slot(self, name: str) -> str:
        if name == "_pid":
            return repr(self.pid)
        idx = self.inst.local_index.get(name)
        if idx is not None:
            return f"{self.local}[{idx}]"
        gidx = self.system.global_index.get(name)
        if gidx is not None:
            return f"{self.glob}[{gidx}]"
        raise EvalError(
            f"process {self.inst.name!r}: unknown variable {name!r}"
        )


def _tset(tup: str, idx: int, val: str, n: Optional[int] = None) -> str:
    """Source for single-slot tuple surgery (one new tuple, no helper).

    With a known width *n* (part of the program cache key), elements are
    indexed explicitly, so no intermediate slice tuples are allocated on
    the hot path; slice splicing is the fallback for wide tuples.
    """
    if n is not None and n <= 16:
        parts = [val if i == idx else f"{tup}[{i}]" for i in range(n)]
        return "(" + ", ".join(parts) + ("," if n == 1 else "") + ")"
    if idx == 0:
        return f"({val}, *{tup}[1:])"
    return f"(*{tup}[:{idx}], {val}, *{tup}[{idx + 1}:])"


# ---------------------------------------------------------------------------
# Program generation (cached per definition + binding layout)
# ---------------------------------------------------------------------------


class _Program:
    """One compiled process program: code object plus bind-time recipe."""

    __slots__ = ("key", "source", "code", "ns_specs", "rv_sends",
                 "rv_recvs", "rdy_fns", "n_locations")

    def __init__(self, key, source, code, ns_specs, rv_sends, rv_recvs,
                 rdy_fns, n_locations):
        self.key = key
        self.source = source
        self.code = code
        #: Recipe for bind-time namespace constants (labels, memos, ...).
        self.ns_specs = ns_specs
        #: (eid, chan_param, dst, desc) per rendezvous send edge.
        self.rv_sends = rv_sends
        #: (eid, chan_param, loc) per rendezvous recv edge, in edge order.
        self.rv_recvs = rv_recvs
        #: (eid, chan_param) per generated readiness checker.
        self.rdy_fns = rdy_fns
        self.n_locations = n_locations


_PROGRAM_CACHE: Dict[tuple, _Program] = {}
_CACHE_LOCK = threading.Lock()
_CACHE_STATS = {"programs_compiled": 0, "digest_hits": 0,
                "compile_seconds": 0.0}

_DIGEST_MEMO: "Dict[int, Tuple[object, str]]" = {}


def _digest_of(defn) -> str:
    """Memoized canonical digest (keyed by identity, holds a strong ref)."""
    hit = _DIGEST_MEMO.get(id(defn))
    if hit is not None and hit[0] is defn:
        return hit[1]
    digest = defn.canonical_digest()
    _DIGEST_MEMO[id(defn)] = (defn, digest)
    return digest


def program_cache_info() -> Dict[str, float]:
    """Process-wide compilation-cache counters (for stats surfacing)."""
    with _CACHE_LOCK:
        out = dict(_CACHE_STATS)
        out["programs_cached"] = len(_PROGRAM_CACHE)
        return out


def clear_program_cache() -> None:
    """Drop all cached programs (testing helper)."""
    with _CACHE_LOCK:
        _PROGRAM_CACHE.clear()
        _DIGEST_MEMO.clear()
        _CACHE_STATS.update(programs_compiled=0, digest_hits=0,
                            compile_seconds=0.0)


def _program_key(pid: int, inst: ProcessInstance, system: System) -> tuple:
    defn = inst.definition
    try:
        digest = _digest_of(defn)
    except CompileError as exc:
        # canon knows the same node types the lowering does: a definition
        # it cannot canonicalize is one the tree-walk interpreter runs.
        raise JitUnsupported(str(exc)) from exc
    names = inst.automaton.bound_names()
    globals_sig = tuple(sorted(
        (n, system.global_index[n])
        for n in names
        if n != "_pid" and n not in inst.local_index
        and n in system.global_index
    ))
    chans_sig = tuple(
        (p, ch.index, ch.capacity, ch.arity)
        for p, ch in sorted(
            ((p, inst.channel_for(p)) for p in defn.chan_params),
            key=lambda item: item[0],
        )
    )
    # State-tuple widths: generated code indexes components explicitly
    # (see ``_tset``), so programs are only shareable between systems
    # with the same shape.
    shape = (len(system.instances), len(system.channels),
             len(system.global_index))
    return (digest, pid, defn.local_names, globals_sig, chans_sig, shape)


# ---------------------------------------------------------------------------
# Program store: the on-disk level of the program cache
# ---------------------------------------------------------------------------

#: A program file: this tag, a SHA-256 checksum, the payload (the
#: marshalled key, source, code object and bind-time recipe).  The
#: checksum covers the codegen digest and the payload, so a file moved in
#: from another codegen directory never loads.
_FILE_TAG = b"repro-psl-program/1\n"
_HEAD = len(_FILE_TAG) + hashlib.sha256().digest_size


def _codegen_digest() -> Optional[str]:
    """Digest of the code generator: every source file of :mod:`repro.psl`
    and the interpreter's bytecode magic number (``None`` without them).

    Any change to the lowering (or a different Python) names a fresh
    ``programs/`` subdirectory, so a stored program is only ever read by
    the code that could have written it.
    """
    h = hashlib.sha256(importlib.util.MAGIC_NUMBER)
    package = os.path.dirname(os.path.abspath(__file__))
    try:
        for name in sorted(os.listdir(package)):
            if name.endswith(".py"):
                with open(os.path.join(package, name), "rb") as f:
                    data = f.read()
                h.update(f"{name}\0{len(data)}\0".encode() + data)
    except OSError:
        return None
    return h.hexdigest()[:32]


#: Taken as the code loads, not when a store first opens: it must
#: describe the code this process runs, even after its sources change
#: under a long-lived process (a daemon's forkserver, say).
_CODEGEN = _codegen_digest()
_LOCAL = threading.local()


def _private_dir(name: str, dir_fd: Optional[int]) -> int:
    """Create (owner-only) and open the directory *name*; refuse it unless
    this user owns it and neither group nor others can write to it."""
    try:
        os.mkdir(name, 0o700, dir_fd=dir_fd)
    except FileExistsError:
        pass
    fd = os.open(name, os.O_RDONLY | os.O_DIRECTORY, dir_fd=dir_fd)
    st = os.fstat(fd)
    if st.st_uid != os.getuid() or st.st_mode & 0o022:
        os.close(fd)
        raise PermissionError(f"{name!r} is not private to this user")
    return fd


def _file_name(key: tuple) -> str:
    """A program's file name: the digest of its key (ints and strings)."""
    return hashlib.sha256(repr(key).encode()).hexdigest()


class _ProgramStore:
    """Compiled programs under ``<directory>/programs/<codegen digest>/``.

    The files hold executable code, so the directories are owner-only
    and checked once, when the store opens; reads and writes then go
    through the checked directory's descriptor.  Every failure — a
    missing, truncated, corrupt or foreign file, an unwritable disk —
    only means the program gets compiled.
    """

    def __init__(self, fd: int, codegen: str) -> None:
        self._fd = fd
        self._codegen = codegen.encode()

    @classmethod
    def open(cls, directory: str) -> Optional["_ProgramStore"]:
        if _CODEGEN is None:
            return None
        try:
            root = _private_dir(os.path.join(directory, "programs"), None)
            try:
                return cls(_private_dir(_CODEGEN, root), _CODEGEN)
            finally:
                os.close(root)
        except OSError:
            return None

    def _checksum(self, payload) -> bytes:
        return hashlib.sha256(self._codegen + payload).digest()

    def close(self) -> None:
        os.close(self._fd)

    def _opener(self, name: str, flags: int) -> int:
        return os.open(name, flags | os.O_NOFOLLOW, 0o600, dir_fd=self._fd)

    def load(self, key: tuple) -> Optional[_Program]:
        try:
            with open(_file_name(key), "rb", opener=self._opener) as f:
                st = os.fstat(f.fileno())
                if st.st_uid != os.getuid() or not stat.S_ISREG(st.st_mode):
                    return None
                blob = f.read()
        except OSError:
            return None
        payload = blob[_HEAD:]
        if (blob[:len(_FILE_TAG)] != _FILE_TAG
                or self._checksum(payload) != blob[len(_FILE_TAG):_HEAD]):
            return None
        # The checksum vouches that save() wrote this payload; the key
        # check catches a file copied in under another program's name.
        fields = marshal.loads(payload)
        return _Program(*fields) if fields[0] == key else None

    def save(self, program: _Program) -> None:
        try:
            payload = marshal.dumps(tuple(getattr(program, slot)
                                          for slot in _Program.__slots__))
        except ValueError:
            return
        name = _file_name(program.key)
        temp = f".{name}.{os.urandom(8).hex()}.tmp"
        try:
            with open(temp, "xb", opener=self._opener) as f:
                f.write(_FILE_TAG + self._checksum(payload) + payload)
            os.replace(temp, name, src_dir_fd=self._fd, dst_dir_fd=self._fd)
        except OSError:
            with contextlib.suppress(OSError):
                os.unlink(temp, dir_fd=self._fd)


@contextlib.contextmanager
def program_store(directory: Optional[str]) -> Iterator[None]:
    """Keep compiled programs under ``<directory>/programs`` in this block.

    While the block runs, this thread's :class:`CompiledInterpreter`\\ s
    read a program missing from the in-memory cache from the store (a
    cache hit, its read time counted as compile time) and write every
    program they compile to it.  ``directory`` is a verdict store's
    directory; ``None``, or a ``programs/`` directory that another user
    owns or that group or others can write to, leaves the caller's
    setting in force.
    """
    store = None if directory is None else _ProgramStore.open(directory)
    if store is None:
        yield
        return
    previous = getattr(_LOCAL, "store", None)
    _LOCAL.store = store
    try:
        yield
    finally:
        _LOCAL.store = previous
        store.close()


def _emit_T(body: "_SourceWriter", ind: int, label: str, target: str,
            viol: str, engine: bool) -> None:
    """Emit one transition append.

    Plain mode routes through the namespace's ``T`` constructor (a
    :class:`~repro.psl.interp.Transition` factory).  Engine mode inlines
    the state-store intern *and* the ``CachedTransition`` build into the
    generated code — the model checker's single hottest operation runs
    with no per-transition function call at all, and on an intern hit
    (the common case in a dense graph) no State object is built either:
    raw component tuples hash and compare equal to the State NamedTuple,
    so they share the store's id map.
    """
    if not engine:
        body.line(ind, f"out.append(T({label}, {target}, {viol}))")
        return
    body.line(ind, f"_tg = {target}")
    body.line(ind, "_si = _I.get(_tg)")
    body.line(ind, "if _si is None:")
    body.line(ind + 1, "_si = len(_S)")
    body.line(ind + 1, "_I[_tg] = _si")
    body.line(ind + 1, "_SA(_MKS(_tg))")
    body.line(ind, f"out.append(_NT(_CT, ({label}, _si, {viol})))")


class _SourceWriter:
    def __init__(self) -> None:
        self.lines: List[str] = []

    def line(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _generate_program(key: tuple, pid: int, inst: ProcessInstance,
                      system: System, engine: bool = False) -> _Program:
    auto = inst.automaton
    gen = _ExprGen(pid, inst, system, int_locals=_int_locals(inst))
    w = _SourceWriter()
    ns_specs: List[tuple] = []
    rv_sends: List[tuple] = []
    rv_recvs: List[tuple] = []
    rdy_fns: List[tuple] = []

    # Assign stable edge ids in enumeration order (loc asc, edge order).
    edge_ids: Dict[Tuple[int, int], int] = {}
    eid = 0
    for loc in range(auto.n_locations):
        for j, _e in enumerate(auto.edges_from[loc]):
            edge_ids[(loc, j)] = eid
            eid += 1

    defined: List[bool] = []
    for loc in range(auto.n_locations):
        edges = auto.edges_from[loc]
        defined.append(_emit_location(
            w, gen, pid, inst, system, loc, edges,
            lambda j, loc=loc: edge_ids[(loc, j)],
            ns_specs, rv_sends, rv_recvs, rdy_fns, engine))

    steps = ", ".join(
        f"_loc_{loc}" if defined[loc] else "_noop"
        for loc in range(auto.n_locations)
    )
    w.line(0, "def _noop(state, out):")
    w.line(1, "return None")
    w.line(0, f"_STEPS = ({steps}{',' if auto.n_locations == 1 else ''})")

    source = w.text()
    code = compile(source, f"<psl-jit:{inst.definition.name}>", "exec")
    return _Program(key, source, code, tuple(ns_specs), tuple(rv_sends),
                    tuple(rv_recvs), tuple(rdy_fns), auto.n_locations)


def _match_cond(gen: _ExprGen, patterns, msg_var: str) -> str:
    """Conjunction source for the MatchEq fields of a pattern tuple."""
    conds = []
    for k, p in enumerate(patterns):
        if isinstance(p, MatchEq):
            conds.append(f"{msg_var}[{k}] == {gen.value(p.expr)}")
        elif not isinstance(p, (Bind, AnyField)):
            raise JitUnsupported(f"unknown pattern {p!r}")
    return " and ".join(conds)


def _emit_binds(w: _SourceWriter, ind: int, gen: _ExprGen, pid: int,
                patterns, msg_var: str, frames_var: str,
                globals_var: str) -> Tuple[str, str]:
    """Emit pattern-bind code; returns (frames-source, globals-source)."""
    local_binds: List[Tuple[int, int]] = []
    global_binds: List[Tuple[int, int]] = []
    for k, p in enumerate(patterns):
        if isinstance(p, Bind):
            idx = gen.inst.local_index.get(p.name)
            if idx is not None:
                local_binds.append((idx, k))
            else:
                gidx = gen.system.global_index.get(p.name)
                if gidx is None:
                    raise EvalError(
                        f"process {gen.inst.name!r}: cannot assign unknown "
                        f"variable {p.name!r}"
                    )
                global_binds.append((gidx, k))

    f_src = frames_var
    if local_binds:
        if len(local_binds) == 1:
            idx, k = local_binds[0]
            new_frame = _tset("L", idx, f"{msg_var}[{k}]",
                              len(gen.inst.local_index))
        else:
            w.line(ind, "_f = list(L)")
            for idx, k in local_binds:
                w.line(ind, f"_f[{idx}] = {msg_var}[{k}]")
            new_frame = "tuple(_f)"
        f_src = _tset(frames_var, pid, new_frame,
                      len(gen.system.instances))

    g_src = globals_var
    if global_binds:
        if len(global_binds) == 1:
            gidx, k = global_binds[0]
            g_src = _tset(globals_var, gidx, f"{msg_var}[{k}]",
                          len(gen.system.global_index))
        else:
            w.line(ind, f"_g = list({globals_var})")
            for gidx, k in global_binds:
                w.line(ind, f"_g[{gidx}] = {msg_var}[{k}]")
            g_src = "tuple(_g)"
    return f_src, g_src


def _static_enabled(op) -> Optional[bool]:
    """Statically known enabledness of an edge, or ``None`` if dynamic.

    Skips, assignments, and asserts always execute; constant guards
    (and ``d_step``s opening on one) fold at compile time.  Channel
    operations and non-constant guards stay dynamic.
    """
    if isinstance(op, (OpSkip, OpAssign, OpAssert)):
        return True
    if isinstance(op, OpGuard):
        if isinstance(op.expr, Const):
            return truthy(op.expr.value)
        return None
    if isinstance(op, OpDStep):
        subs = op.ops
        if subs and isinstance(subs[0], OpGuard):
            if isinstance(subs[0].expr, Const):
                return truthy(subs[0].expr.value)
            return None
        return True
    return None


def _emit_location(w, gen, pid, inst, system, loc, edges, eid_of,
                   ns_specs, rv_sends, rv_recvs, rdy_fns,
                   engine: bool = False) -> bool:
    """Emit one location's step function; returns True if one was defined.

    A location whose only edges are rendezvous receives emits no step
    function at all (handshakes fire from the sender's side), which also
    skips the readiness scans the tree-walk interpreter performs even
    when no ``else`` edge could consume the answer.
    """
    if not edges:
        return False
    # `else` tracking is only worth emitting when the else edge could
    # actually fire: a sibling that is *statically* enabled (skip,
    # assignment, constant-true guard, ...) suppresses it in every
    # state, so both the `any_enabled` bookkeeping and the else branch
    # fold away entirely.
    has_else = any(isinstance(e.op, OpElse) for e in edges)
    if has_else and any(_static_enabled(e.op) is True for e in edges):
        has_else = False
    body = _SourceWriter()
    used_chans = False

    def locs_to(dst: int) -> str:
        return _tset("locs", pid, str(dst), len(system.instances))

    for j, edge in enumerate(edges):
        op = edge.op
        eid = eid_of(j)
        dst = edge.dst
        ind = 1
        if isinstance(op, OpElse):
            continue  # emitted after enabledness is known
        if isinstance(op, OpGuard):
            cond = gen.boolean(op.expr)
            if cond == "False":
                continue  # statically disabled edge: no code at all
            ns_specs.append(("label", f"LBL_{eid}", "local", op.desc))
            if cond != "True":
                body.line(ind, f"if {cond}:")
                ind += 1
            if has_else:
                body.line(ind, "any_enabled = True")
            _emit_T(body, ind, f"LBL_{eid}",
                    f"({locs_to(dst)}, frames, chans, G)", "None", engine)
        elif isinstance(op, OpSkip):
            ns_specs.append(("label", f"LBL_{eid}", "local", op.desc))
            if has_else:
                body.line(ind, "any_enabled = True")
            _emit_T(body, ind, f"LBL_{eid}",
                    f"({locs_to(dst)}, frames, chans, G)", "None", engine)
        elif isinstance(op, OpAssign):
            ns_specs.append(("label", f"LBL_{eid}", "local", op.desc))
            if has_else:
                body.line(ind, "any_enabled = True")
            body.line(ind, f"_v = {gen.value(op.expr)}")
            lidx = inst.local_index.get(op.name)
            if lidx is not None:
                frames_src = _tset(
                    "frames", pid,
                    _tset("L", lidx, "_v", len(inst.local_index)),
                    len(system.instances))
                _emit_T(body, ind, f"LBL_{eid}",
                        f"({locs_to(dst)}, {frames_src}, chans, G)",
                        "None", engine)
            else:
                gidx = system.global_index.get(op.name)
                if gidx is None:
                    raise EvalError(
                        f"process {inst.name!r}: cannot assign unknown "
                        f"variable {op.name!r}"
                    )
                g_src = _tset('G', gidx, '_v', len(system.global_index))
                _emit_T(body, ind, f"LBL_{eid}",
                        f"({locs_to(dst)}, frames, chans, {g_src})",
                        "None", engine)
        elif isinstance(op, OpAssert):
            ns_specs.append(("label", f"LBL_{eid}", "assert", op.desc))
            ns_specs.append(("vmsg", f"VMSG_{eid}", "assert", op.desc))
            if has_else:
                body.line(ind, "any_enabled = True")
            body.line(ind, f"if {gen.boolean(op.expr)}:")
            _emit_T(body, ind + 1, f"LBL_{eid}",
                    f"({locs_to(dst)}, frames, chans, G)", "None", engine)
            body.line(ind, "else:")
            _emit_T(body, ind + 1, f"LBL_{eid}",
                    f"({locs_to(dst)}, frames, chans, G)", f"VMSG_{eid}",
                    engine)
        elif isinstance(op, OpDStep):
            _emit_dstep(body, ind, gen, pid, inst, op, eid, dst, has_else,
                        ns_specs, locs_to, engine)
        elif isinstance(op, OpSend):
            used_chans = True
            chan = inst.channel_for(op.chan_param)
            args = ", ".join(gen.value(a) for a in op.args)
            msg_src = f"({args},)" if op.args else "()"
            body.line(ind, f"_m = {msg_src}")
            if chan.is_buffered:
                ns_specs.append(("chanlabel", f"LMEMO_{eid}", f"MKLBL_{eid}",
                                 "send", op.desc, op.chan_param))
                body.line(ind, f"_c = chans[{chan.index}]")
                body.line(ind, f"if len(_c) < {chan.capacity}:")
                if has_else:
                    body.line(ind + 1, "any_enabled = True")
                body.line(ind + 1, f"_lb = LMEMO_{eid}.get(_m)")
                body.line(ind + 1, "if _lb is None:")
                body.line(ind + 2, f"_lb = LMEMO_{eid}[_m] = MKLBL_{eid}(_m)")
                chans_src = _tset("chans", chan.index, "_c + (_m,)",
                                  len(system.channels))
                _emit_T(body, ind + 1, "_lb",
                        f"({locs_to(dst)}, frames, {chans_src}, G)",
                        "None", engine)
            else:
                rv_sends.append((eid, op.chan_param, loc, dst, op.desc))
                ns_specs.append(("box", f"RVC_{eid}"))
                body.line(ind, f"for _rv in RVC_{eid}:")
                body.line(ind + 1, "if locs[_rv[0]] == _rv[1] and "
                                   f"_rv[2](state, _m, out, _rv[3], _rv[4], "
                                   f"{pid}, {dst}):")
                if has_else:
                    body.line(ind + 2, "any_enabled = True")
                else:
                    body.line(ind + 2, "pass")
        elif isinstance(op, OpRecv):
            chan = inst.channel_for(op.chan_param)
            if chan.is_rendezvous:
                # Handshakes fire from the sender's side; the receiver's
                # location body contributes nothing here.  Readiness only
                # matters when an `else` sibling must be suppressed.
                rv_recvs.append((eid, op.chan_param, loc))
                continue
            used_chans = True
            _emit_buffered_recv(body, ind, gen, pid, inst, op, chan, eid,
                                dst, has_else, ns_specs, locs_to, engine)
        else:
            raise JitUnsupported(f"unknown op {op!r}")

    # else edges: enabled only when nothing else is — including
    # rendezvous receives, whose readiness is checked lazily here.
    if has_else:
        rdy_calls = []
        for j, edge in enumerate(edges):
            op = edge.op
            if isinstance(op, OpRecv):
                chan = inst.channel_for(op.chan_param)
                if chan.is_rendezvous:
                    eid = eid_of(j)
                    rdy_fns.append((eid, op.chan_param))
                    ns_specs.append(("box", f"RDY_{eid}"))
                    rdy_calls.append(f"_rdy_{eid}(state)")
                    _emit_rdy_fn(w, gen, pid, inst, op, eid)
        if rdy_calls:
            cond = " or ".join(rdy_calls)
            body.line(1, f"if not any_enabled and not ({cond}):")
        else:
            body.line(1, "if not any_enabled:")
        for j, edge in enumerate(edges):
            if isinstance(edge.op, OpElse):
                eid = eid_of(j)
                ns_specs.append(("label", f"LBL_{eid}", "else",
                                 edge.op.desc))
                _emit_T(body, 2, f"LBL_{eid}",
                        f"({locs_to(edge.dst)}, frames, chans, G)",
                        "None", engine)

    # Rendezvous receive handlers are emitted per edge regardless of
    # `else` presence — senders elsewhere link against them.
    for j, edge in enumerate(edges):
        op = edge.op
        if isinstance(op, OpRecv):
            chan = inst.channel_for(op.chan_param)
            if chan.is_rendezvous:
                _emit_rv_handler(w, gen, pid, inst, op, eid_of(j), edge.dst,
                                 engine)

    # Sender message builders for rendezvous sends (used by partners'
    # readiness checks).
    for j, edge in enumerate(edges):
        op = edge.op
        if isinstance(op, OpSend):
            chan = inst.channel_for(op.chan_param)
            if chan.is_rendezvous:
                _emit_msg_fn(w, gen, pid, op, eid_of(j))

    if not body.lines:
        return False
    # Bind only the state components the body actually reads — hot
    # locations are often a single unconditional edge that touches two
    # of the five names.
    body_text = "\n".join(body.lines)

    def used(name: str) -> bool:
        return re.search(rf"\b{name}\b", body_text) is not None

    w.line(0, f"def _loc_{loc}(state, out):")
    if used("locs"):
        w.line(1, "locs = state[0]")
    need_frames = used("frames")
    if need_frames:
        w.line(1, "frames = state[1]")
    if used_chans or used("chans"):
        w.line(1, "chans = state[2]")
    if used("G"):
        w.line(1, "G = state[3]")
    if used("L"):
        w.line(1, f"L = frames[{pid}]" if need_frames
               else f"L = state[1][{pid}]")
    if has_else:
        w.line(1, "any_enabled = False")
    w.lines.extend(body.lines)
    return True


def _emit_dstep(body, ind, gen, pid, inst, op, eid, dst, has_else,
                ns_specs, locs_to, engine: bool = False) -> None:
    mgen = gen.renamed("_Lm", "_Gm")
    subs = list(op.ops)
    first_guard = subs and isinstance(subs[0], OpGuard)
    inner = ind
    start = 0
    if first_guard:
        cond = gen.boolean(subs[0].expr)
        if cond == "False":
            return  # opening guard statically false: edge never enabled
        start = 1
        if cond != "True":
            body.line(ind, f"if {cond}:")
            inner = ind + 1
    ns_specs.append(("label", f"LBL_{eid}", "dstep", op.desc))
    if has_else:
        body.line(inner, "any_enabled = True")
    body.line(inner, "_Lm = list(L)")
    body.line(inner, "_Gm = list(G)")
    body.line(inner, "_viol = None")
    body.line(inner, "while True:")
    emitted = False
    for i in range(start, len(subs)):
        sub = subs[i]
        if isinstance(sub, OpGuard):
            name = f"DBLK_{eid}_{i}"
            ns_specs.append(("dblk", name, i, sub.desc))
            body.line(inner + 1, f"if not {mgen.boolean(sub.expr)}:")
            body.line(inner + 2, f"raise ExecutionError({name})")
            emitted = True
        elif isinstance(sub, OpAssign):
            lidx = inst.local_index.get(sub.name)
            val = mgen.value(sub.expr)
            if lidx is not None:
                body.line(inner + 1, f"_Lm[{lidx}] = {val}")
            else:
                gidx = gen.system.global_index.get(sub.name)
                if gidx is None:
                    raise EvalError(
                        f"process {inst.name!r}: cannot assign unknown "
                        f"variable {sub.name!r}"
                    )
                body.line(inner + 1, f"_Gm[{gidx}] = {val}")
            emitted = True
        elif isinstance(sub, OpAssert):
            name = f"VMSG_{eid}_{i}"
            ns_specs.append(("vmsg", name, "dstep", sub.desc))
            body.line(inner + 1, f"if not {mgen.boolean(sub.expr)}:")
            body.line(inner + 2, f"_viol = {name}")
            body.line(inner + 2, "break")
            emitted = True
        elif isinstance(sub, OpSkip):
            continue
        else:
            raise JitUnsupported(f"illegal op in d_step: {sub!r}")
    if not emitted:
        body.line(inner + 1, "pass")
    body.line(inner + 1, "break")
    frames_src = _tset("frames", pid, "tuple(_Lm)",
                       len(gen.system.instances))
    _emit_T(body, inner, f"LBL_{eid}",
            f"({locs_to(dst)}, {frames_src}, chans, tuple(_Gm))", "_viol",
            engine)


def _emit_buffered_recv(body, ind, gen, pid, inst, op, chan, eid, dst,
                        has_else, ns_specs, locs_to,
                        engine: bool = False) -> None:
    ns_specs.append(("chanlabel", f"LMEMO_{eid}", f"MKLBL_{eid}",
                     "recv", op.desc, op.chan_param))
    if op.when is not None:
        body.line(ind, f"if {gen.boolean(op.when)}:")
        ind += 1
    body.line(ind, f"_c = chans[{chan.index}]")
    body.line(ind, "if _c:")
    ind += 1
    cond = _match_cond(gen, op.patterns, "_m")
    if op.matching:
        body.line(ind, "_i = 0")
        body.line(ind, "for _m in _c:")
        if cond:
            body.line(ind + 1, f"if {cond}:")
            body.line(ind + 2, "break")
            body.line(ind + 1, "_i += 1")
        else:
            body.line(ind + 1, "break")
        body.line(ind, "else:")
        body.line(ind + 1, "_i = -1")
        body.line(ind, "if _i >= 0:")
        ind += 1
        if op.peek:
            chans_src = "chans"
        else:
            body.line(ind, "_c2 = _c[:_i] + _c[_i + 1:]")
            chans_src = _tset("chans", chan.index, "_c2",
                              len(gen.system.channels))
    else:
        body.line(ind, "_m = _c[0]")
        if cond:
            body.line(ind, f"if {cond}:")
            ind += 1
        chans_src = ("chans" if op.peek
                     else _tset("chans", chan.index, "_c[1:]",
                                len(gen.system.channels)))
    if has_else:
        body.line(ind, "any_enabled = True")
    f_src, g_src = _emit_binds(body, ind, gen, pid, op.patterns, "_m",
                               "frames", "G")
    body.line(ind, f"_lb = LMEMO_{eid}.get(_m)")
    body.line(ind, "if _lb is None:")
    body.line(ind + 1, f"_lb = LMEMO_{eid}[_m] = MKLBL_{eid}(_m)")
    _emit_T(body, ind, "_lb",
            f"({locs_to(dst)}, {f_src}, {chans_src}, {g_src})", "None",
            engine)


def _emit_rv_handler(w, gen, pid, inst, op, eid, dst,
                     engine: bool = False) -> None:
    """Receiver-side handshake handler, called from a sender's program.

    Signature: (state, msg, out, memo, mklbl, spid, sdst) -> bool.
    """
    w.line(0, f"def _rvh_{eid}(state, _m, out, _memo, _mk, _spid, _sdst):")
    w.line(1, "frames = state[1]")
    w.line(1, "G = state[3]")
    w.line(1, f"L = frames[{pid}]")
    if op.when is not None:
        w.line(1, f"if not {gen.boolean(op.when)}:")
        w.line(2, "return False")
    cond = _match_cond(gen, op.patterns, "_m")
    if cond:
        w.line(1, f"if not ({cond}):")
        w.line(2, "return False")
    f_src, g_src = _emit_binds(w, 1, gen, pid, op.patterns, "_m",
                               "frames", "G")
    w.line(1, "_locs = list(state[0])")
    w.line(1, "_locs[_spid] = _sdst")
    w.line(1, f"_locs[{pid}] = {dst}")
    w.line(1, "_lb = _memo.get(_m)")
    w.line(1, "if _lb is None:")
    w.line(2, "_lb = _memo[_m] = _mk(_m)")
    _emit_T(w, 1, "_lb",
            f"(tuple(_locs), {f_src}, state[2], {g_src})", "None", engine)
    w.line(1, "return True")


def _emit_rdy_fn(w, gen, pid, inst, op, eid) -> None:
    """Readiness probe for a rendezvous receive (suppresses `else`)."""
    w.line(0, f"def _rdy_{eid}(state):")
    w.line(1, "frames = state[1]")
    w.line(1, "G = state[3]")
    w.line(1, f"L = frames[{pid}]")
    if op.when is not None:
        w.line(1, f"if not {gen.boolean(op.when)}:")
        w.line(2, "return False")
    w.line(1, "locs = state[0]")
    w.line(1, f"for _sc in RDY_{eid}:")
    w.line(2, "if locs[_sc[0]] == _sc[1]:")
    w.line(3, "_m = _sc[2](state)")
    cond = _match_cond(gen, op.patterns, "_m")
    if cond:
        w.line(3, f"if {cond}:")
        w.line(4, "return True")
    else:
        w.line(3, "return True")
    w.line(1, "return False")


def _emit_msg_fn(w, gen, pid, op, eid) -> None:
    """Sender-side message builder for partners' readiness probes."""
    w.line(0, f"def _msg_{eid}(state):")
    w.line(1, "frames = state[1]")
    w.line(1, "G = state[3]")
    w.line(1, f"L = frames[{pid}]")
    args = ", ".join(gen.value(a) for a in op.args)
    w.line(1, f"return ({args},)" if op.args else "return ()")


# ---------------------------------------------------------------------------
# Binding and linking
# ---------------------------------------------------------------------------


def _label_factory(pid, process, kind, desc, chan=None, partner_pid=None,
                   partner=None):
    def make(msg):
        return TransitionLabel(pid=pid, process=process, kind=kind,
                               desc=desc, chan=chan, message=msg,
                               partner_pid=partner_pid, partner=partner)
    return make


def _make_driver(tables: List[tuple]):
    """Build an unrolled whole-state driver over per-pid location tables.

    ``drive(state)`` calls one compiled location function per process —
    generated as straight-line code (no ``zip``, no loop) because the
    process count is fixed per system and this wrapper runs once per
    expanded state.
    """
    names = [f"_t{i}" for i in range(len(tables))]
    lines = ["def _drive(state):",
             "    locs = state[0]",
             "    out = []"]
    lines += [f"    {name}[locs[{i}]](state, out)"
              for i, name in enumerate(names)]
    lines.append("    return out")
    ns = dict(zip(names, tables))
    exec(compile("\n".join(lines), "<psl-jit:driver>", "exec"), ns)
    return ns["_drive"]


class CompiledInterpreter(Interpreter):
    """Drop-in :class:`Interpreter` running compiled process programs.

    A program is lowered in one of two modes.  *Engine-mode* programs
    intern successors straight into a :class:`~repro.mc.engine.StateGraph`'s
    store; they are the only code a graph walk runs, so construction
    lowers (or fetches from the process-wide program cache) one per
    instance, and :class:`JitUnsupported` surfaces here, where
    :func:`make_interpreter` falls back to the tree-walk interpreter.
    :meth:`bind_engine` then only binds them to a store.  *Plain-mode*
    programs emit :class:`~repro.psl.interp.Transition` objects for
    :meth:`transitions` and the per-process API that partial order
    reduction uses; they are lowered, bound and linked on the first call
    that needs them, once per interpreter.  The tree-walk machinery is
    still built by the base class, so ``blocked_processes`` and every
    other consumer of interpreter internals keeps working unchanged.

    ``compile_stats`` records this interpreter's share of compilation
    work in both modes: ``programs_compiled`` (cache misses),
    ``digest_hits`` (cache hits, in memory or in an active
    :func:`program_store`), and ``compile_seconds`` (codegen, store
    reads and writes, bind and link time).
    """

    def __init__(self, system: System) -> None:
        t0 = time.perf_counter()
        super().__init__(system)
        self.compile_stats = {"programs_compiled": 0, "digest_hits": 0,
                              "compile_seconds": 0.0}
        self._engine_programs = [
            self._obtain_program(pid, inst, system, engine=True)
            for pid, inst in enumerate(system.instances)
        ]
        # Plain mode, built by _compile_plain on first use.
        self._plain_programs: Optional[List[_Program]] = None
        self._steps: Optional[List[tuple]] = None
        self._drive = None
        self._add_compile_time(time.perf_counter() - t0)

    # -- construction -------------------------------------------------------

    def _add_compile_time(self, elapsed: float) -> None:
        self.compile_stats["compile_seconds"] += elapsed
        with _CACHE_LOCK:
            _CACHE_STATS["compile_seconds"] += elapsed

    def _obtain_program(self, pid: int, inst: ProcessInstance,
                        system: System, engine: bool = False) -> _Program:
        key = _program_key(pid, inst, system)
        if engine:
            # Engine-mode programs inline the state-store intern into the
            # generated code; they share the plain programs' metadata but
            # not their code objects.
            key = key + ("engine",)
        with _CACHE_LOCK:
            program = _PROGRAM_CACHE.get(key)
        counter = "digest_hits"
        if program is None:
            # Second level: the program store, when one is active.
            store = getattr(_LOCAL, "store", None)
            program = store.load(key) if store is not None else None
            if program is None:
                program = _generate_program(key, pid, inst, system, engine)
                counter = "programs_compiled"
                if store is not None:
                    store.save(program)
        with _CACHE_LOCK:
            _PROGRAM_CACHE[key] = program
            self.compile_stats[counter] += 1
            _CACHE_STATS[counter] += 1
        return program

    def _bind(self, program: _Program, pid: int, inst: ProcessInstance,
              system: System, extra: Optional[dict] = None) -> dict:
        ns: dict = dict(_RUNTIME)
        if extra:
            ns.update(extra)
        name = inst.name
        for spec in program.ns_specs:
            tag = spec[0]
            if tag == "label":
                _, var, kind, desc = spec
                ns[var] = TransitionLabel(pid=pid, process=name, kind=kind,
                                          desc=desc)
            elif tag == "chanlabel":
                _, memo_var, mk_var, kind, desc, chan_param = spec
                chan = inst.channel_for(chan_param)
                ns[memo_var] = {}
                ns[mk_var] = _label_factory(pid, name, kind, desc,
                                            chan=chan.name)
            elif tag == "vmsg":
                _, var, where, desc = spec
                if where == "assert":
                    ns[var] = f"assertion violated in {name}: {desc}"
                else:
                    ns[var] = (f"assertion violated in d_step of "
                               f"{name}: {desc}")
            elif tag == "dblk":
                _, var, i, desc = spec
                ns[var] = (f"d_step in {name} blocked at statement "
                           f"{i}: {desc}")
            elif tag == "box":
                ns[spec[1]] = ()
            else:  # pragma: no cover - exhaustive
                raise JitUnsupported(f"unknown ns spec {spec!r}")
        exec(program.code, ns)
        return ns

    def _link(self, system: System, namespaces: List[dict]) -> None:
        """Fill rendezvous candidate tables across bound programs.

        Both modes lower an instance to the same rendezvous metadata, so
        the engine-mode programs describe the plain ones too.
        """
        programs = self._engine_programs
        n = self.n_procs
        # Receiver handlers per (channel index): (rpid, loc, eid).
        recvs_by_chan: Dict[int, List[Tuple[int, int, int]]] = {}
        sends_by_chan: Dict[int, List[Tuple[int, int, int]]] = {}
        for pid in range(n):
            inst = system.instances[pid]
            for eid, chan_param, loc in programs[pid].rv_recvs:
                cidx = inst.channel_for(chan_param).index
                recvs_by_chan.setdefault(cidx, []).append((pid, loc, eid))
            for eid, chan_param, loc, _dst, _desc in programs[pid].rv_sends:
                cidx = inst.channel_for(chan_param).index
                sends_by_chan.setdefault(cidx, []).append((pid, loc, eid))

        for spid in range(n):
            inst = system.instances[spid]
            sns = namespaces[spid]
            for eid, chan_param, _loc, _dst, desc in programs[spid].rv_sends:
                chan = inst.channel_for(chan_param)
                candidates = []
                for rpid, rloc, reid in recvs_by_chan.get(chan.index, ()):
                    if rpid == spid:
                        continue
                    handler = namespaces[rpid][f"_rvh_{reid}"]
                    mk = _label_factory(
                        spid, inst.name, "handshake", desc,
                        chan=chan.name, partner_pid=rpid,
                        partner=system.instances[rpid].name,
                    )
                    candidates.append((rpid, rloc, handler, {}, mk))
                # Tree-walk pairing order: partner pid ascending, then
                # edge order at the partner's current location.
                candidates.sort(key=lambda c: c[0])
                sns[f"RVC_{eid}"] = tuple(candidates)

        for rpid in range(n):
            inst = system.instances[rpid]
            rns = namespaces[rpid]
            for eid, chan_param in programs[rpid].rdy_fns:
                chan = inst.channel_for(chan_param)
                probes = []
                for spid, sloc, seid in sends_by_chan.get(chan.index, ()):
                    if spid == rpid:
                        continue
                    probes.append(
                        (spid, sloc, namespaces[spid][f"_msg_{seid}"])
                    )
                probes.sort(key=lambda c: c[0])
                rns[f"RDY_{eid}"] = tuple(probes)

    def _bind_all(self, programs: List[_Program],
                  extra: Optional[dict] = None
                  ) -> Tuple[List[dict], Callable]:
        """Bind one program per instance, link them, and build a driver."""
        system = self.system
        namespaces = [self._bind(program, pid, inst, system, extra)
                      for pid, (program, inst)
                      in enumerate(zip(programs, system.instances))]
        self._link(system, namespaces)
        return namespaces, _make_driver([ns["_STEPS"] for ns in namespaces])

    def _compile_plain(self) -> Callable:
        """Lower, bind and link the plain-mode programs (first use only)."""
        t0 = time.perf_counter()
        system = self.system
        programs = [self._obtain_program(pid, inst, system)
                    for pid, inst in enumerate(system.instances)]
        namespaces, drive = self._bind_all(programs)
        self._plain_programs = programs
        self._steps = [ns["_STEPS"] for ns in namespaces]
        self._drive = drive
        self._add_compile_time(time.perf_counter() - t0)
        return drive

    # -- hot path -----------------------------------------------------------

    def transitions(self, state: State) -> List[Transition]:
        drive = self._drive
        if drive is None:
            drive = self._compile_plain()
        return drive(state)

    def _append_process_transitions(self, state: State, pid: int,
                                    out: List[Transition]) -> None:
        if self._steps is None:
            self._compile_plain()
        self._steps[pid][state.locs[pid]](state, out)

    def bind_engine(self, store) -> Tuple[Callable, List[dict]]:
        """Bind the engine-mode programs to *store*.

        Returns ``(drive, namespaces)``.  ``drive(state) -> list`` of
        :class:`~repro.mc.engine.CachedTransition` with targets already
        interned into *store*.  The driver runs *engine-mode* programs:
        the same lowering as :meth:`transitions`, but with the
        state-store intern and the ``CachedTransition`` build generated
        inline (see :func:`_emit_T`), so the engine's wrap-and-intern
        second pass disappears without even a per-transition call frame
        — and on an intern hit no :class:`State` object is allocated at
        all (raw tuples hash and compare equal to the NamedTuple, so
        they share the store's id map; only first-seen states are
        materialized).  Each :class:`~repro.mc.engine.StateGraph` gets
        its own driver bound to its own store.

        ``namespaces`` are the dicts this binding made, the driver's
        included.  They hold *store*, and each holds the functions it
        defines, whose globals it is; the owner clears them when it is
        done with the driver, so the store is freed by reference
        counting rather than by a full collection.
        """
        from ..mc.engine import CachedTransition

        t0 = time.perf_counter()
        extra = {
            "_I": store._ids,
            "_S": store._states,
            "_SA": store._states.append,
            "_MKS": State._make,
            "_NT": tuple.__new__,
            "_CT": CachedTransition,
        }
        namespaces, drive = self._bind_all(self._engine_programs, extra)
        namespaces.append(drive.__globals__)
        self._add_compile_time(time.perf_counter() - t0)
        return drive, namespaces

    # -- introspection ------------------------------------------------------

    def program_source(self, pid: int) -> str:
        """Generated plain-mode source of one instance's program."""
        if self._plain_programs is None:
            self._compile_plain()
        return self._plain_programs[pid].source


def make_interpreter(target: Union[System, Interpreter],
                     jit: Optional[bool] = None) -> Interpreter:
    """Build the fastest interpreter available for *target*.

    ``jit=None`` follows :func:`jit_enabled` (the ``REPRO_NO_JIT``
    environment escape hatch); ``jit=False`` forces the tree-walk path;
    ``jit=True`` forces compilation.  Models using constructs the
    compiler cannot lower fall back to the tree-walk interpreter
    silently — semantics first, speed second.
    """
    if isinstance(target, Interpreter):
        return target
    use_jit = jit_enabled() if jit is None else jit
    if use_jit:
        try:
            return CompiledInterpreter(target)
        except JitUnsupported:
            return Interpreter(target)
    return Interpreter(target)
