"""The native simulation backend: compile NV to Python (paper §5.1).

The original system translates NV's computational core to OCaml, compiles it
natively and links it with the simulator.  The analogue here is compiling NV
to Python source, ``compile()``-ing it and executing the resulting closures —
removing the per-node interpretive overhead of the interpreter (one closure
call and one environment lookup per AST node), which is exactly the
architectural split the paper measures (fig 13c/14).

Two pieces of the embedding/unembedding story carry over directly:

* compiled closures still exchange the same runtime values (``VRecord``,
  ``VSome``, ``NVMap``), so MTBDD leaves hold compiled-world values without
  conversion; and
* functions that cross into the MTBDD layer carry their NV AST
  (``nv_body``/``nv_param``/``nv_env`` attributes), so the symbolic
  evaluator can interpret ``mapIte`` predicates, and the interpreter's
  :class:`~repro.eval.keys.ClosureKeys` (``nv_keys``) keys their
  diagram-operation memos on what the body observes, exactly as it keys
  interpreter closures.
"""

from __future__ import annotations

import itertools
from time import perf_counter
from typing import Any

from .. import metrics
from .._struct import struct
from ..lang import ast as A
from ..lang import types as T
from ..lang.errors import NvEncodingError, NvRuntimeError
from . import ops
from .interp import Interpreter, constant_arms, eta_reduct
from .maps import MapContext, NVMap
from .values import VRecord, VSome


@struct
class CompiledProgram:
    env: dict[str, Any]
    source: str
    compile_seconds: float


class _Emitter:
    def __init__(self) -> None:
        self.lines: list[str] = []
        self.indent = 0

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


class PyCompiler:
    def __init__(self, ctx: MapContext) -> None:
        self.ctx = ctx
        self._tmp = itertools.count()
        self._fn = itertools.count()
        # Compile-time constant pools passed to the generated module.
        self.types: list[T.Type] = []
        self.asts: list[A.Expr] = []
        self.tables: list[dict[Any, Any]] = []

    def fresh(self, base: str = "t") -> str:
        return f"__{base}{next(self._tmp)}"

    def type_index(self, ty: T.Type) -> int:
        for i, existing in enumerate(self.types):
            if existing == ty:
                return i
        self.types.append(ty)
        return len(self.types) - 1

    def ast_index(self, e: A.Expr) -> int:
        self.asts.append(e)
        return len(self.asts) - 1

    # ------------------------------------------------------------------
    # Program compilation
    # ------------------------------------------------------------------

    def compile_program(self, program: A.Program,
                        symbolics: dict[str, Any] | None = None) -> CompiledProgram:
        t0 = perf_counter()
        symbolics = symbolics or {}
        # Alpha-rename first: NV lets may shadow, but Python closures capture
        # by cell, so shadowed reassignments would corrupt earlier captures.
        from ..transform.rename import rename_program
        program = rename_program(program)
        em = _Emitter()
        top_names: list[str] = []
        for d in program.decls:
            if isinstance(d, A.DSymbolic):
                if d.name not in symbolics:
                    raise NvRuntimeError(
                        f"symbolic {d.name!r} needs a concrete value for compilation")
                top_names.append(d.name)
            elif isinstance(d, A.DLet):
                result = self.compile_expr(d.expr, em)
                em.emit(f"{_mangle(d.name)} = {result}")
                top_names.append(d.name)
            elif isinstance(d, A.DRequire):
                result = self.compile_expr(d.expr, em)
                em.emit(f"if not ({result}):")
                em.indent += 1
                em.emit("raise NvRuntimeError('require clause violated')")
                em.indent -= 1

        source = em.source()
        try:
            code = compile(source, "<nv-compiled>", "exec")
        except SyntaxError as exc:
            # CPython's tokenizer allows 100 indentation levels, and an
            # `else if` chain becomes one nested `if` block per arm.
            raise NvEncodingError(
                "program is nested past the native back end's limit "
                f"(Python: {exc.msg}); run it on the interpreter (drop "
                "--native)") from None
        interp = Interpreter(self.ctx)
        memos: dict[Any, dict] = {}
        module_globals: dict[str, Any] = {
            "VSome": VSome,
            "VRecord": VRecord,
            "NVMap": NVMap,
            "NvRuntimeError": NvRuntimeError,
            "__ctx": self.ctx,
            "__types": self.types,
            "__asts": self.asts,
            "__tables": self.tables,
            "__miss": ops.MISS,
            "__interp": interp,
            "__keys": interp._closure_key,
            "__memos": memos,
            "__map_op": _map_op,
            "__combine_op": _combine_op,
            "__mapite_op": _mapite_op(interp, memos),
        }
        for name, value in symbolics.items():
            module_globals[_mangle(name)] = value
        exec(code, module_globals)
        env = {name: module_globals[_mangle(name)] for name in top_names}
        return CompiledProgram(env, source, perf_counter() - t0)

    # ------------------------------------------------------------------
    # Expression compilation: returns a Python expression string, emitting
    # any supporting statements into the emitter.
    # ------------------------------------------------------------------

    def compile_expr(self, e: A.Expr, em: _Emitter) -> str:
        if isinstance(e, A.EVar):
            return _mangle(e.name)
        literal = ops.LITERALS.get(type(e))
        if literal is not None:
            return repr(literal(e))
        if isinstance(e, A.ESome):
            return f"VSome({self.compile_expr(e.sub, em)})"
        if isinstance(e, A.ETuple):
            inner = ", ".join(self.compile_expr(x, em) for x in e.elts)
            return f"({inner},)" if len(e.elts) == 1 else f"({inner})"
        if isinstance(e, A.ETupleGet):
            return f"{self.compile_expr(e.sub, em)}[{e.index}]"
        if isinstance(e, A.ERecord):
            inner = ", ".join(f"({name!r}, {self.compile_expr(x, em)})"
                              for name, x in e.fields)
            return f"VRecord(({inner},))"
        if isinstance(e, A.ERecordWith):
            base = self.compile_expr(e.base, em)
            updates = ", ".join(f"{name!r}: {self.compile_expr(x, em)}"
                                for name, x in e.updates)
            return f"{base}.with_updates({{{updates}}})"
        if isinstance(e, A.EProj):
            sub = self.compile_expr(e.sub, em)
            # Resolve the field offset at compile time when the record type
            # is known: `proj` is a bounds-checked positional access, far
            # cheaper than a name lookup on the BGP-style hot paths.
            sub_ty = getattr(e.sub, "ty", None)
            if isinstance(sub_ty, T.TRecord):
                for i, (name, _) in enumerate(sub_ty.fields):
                    if name == e.label:
                        return f"{sub}.proj({i}, {e.label!r})"
            return f"{sub}.get({e.label!r})"
        if isinstance(e, A.EIf):
            cond = self.compile_expr(e.cond, em)
            out = self.fresh("if")
            em.emit(f"if {cond}:")
            em.indent += 1
            then = self.compile_expr(e.then, em)
            em.emit(f"{out} = {then}")
            em.indent -= 1
            em.emit("else:")
            em.indent += 1
            els = self.compile_expr(e.els, em)
            em.emit(f"{out} = {els}")
            em.indent -= 1
            return out
        if isinstance(e, A.ELet):
            bound = self.compile_expr(e.bound, em)
            em.emit(f"{_mangle(e.name)} = {bound}")
            return self.compile_expr(e.body, em)
        if isinstance(e, A.ELetPat):
            bound = self.compile_expr(e.bound, em)
            tmp = self.fresh("lp")
            em.emit(f"{tmp} = {bound}")
            cond, bindings = self.compile_pattern(e.pat, tmp)
            if cond != "True":
                em.emit(f"if not ({cond}):")
                em.indent += 1
                em.emit("raise NvRuntimeError('let pattern failed')")
                em.indent -= 1
            for stmt in bindings:
                em.emit(stmt)
            return self.compile_expr(e.body, em)
        if isinstance(e, A.EFun):
            return self.compile_fun(e, em)
        if isinstance(e, A.EApp):
            fn = self.compile_expr(e.fn, em)
            arg = self.compile_expr(e.arg, em)
            return f"{fn}({arg})"
        if isinstance(e, A.EMatch):
            return self.compile_match(e, em)
        if isinstance(e, A.EOp):
            return self.compile_op(e, em)
        raise NvEncodingError(f"cannot compile {type(e).__name__}")

    def compile_fun(self, e: A.EFun, em: _Emitter) -> str:
        wrapped = eta_reduct(e)
        if wrapped is not None:
            return self.compile_expr(wrapped, em)
        name = f"__fn{next(self._fn)}"
        em.emit(f"def {name}({_mangle(e.param)}):")
        em.indent += 1
        result = self.compile_expr(e.body, em)
        em.emit(f"return {result}")
        em.indent -= 1
        # Attach the NV AST and captured environment so the MTBDD layer can
        # interpret this function symbolically (mapIte predicates) and the
        # memo tables can key it on what its body observes.
        free = sorted(A.free_vars(e.body) - {e.param})
        env_items = ", ".join(f"{v!r}: {_mangle(v)}" for v in free)
        em.emit(f"{name}.nv_param = {e.param!r}")
        em.emit(f"{name}.nv_body = __asts[{self.ast_index(e.body)}]")
        em.emit(f"{name}.nv_env = {{{env_items}}}")
        em.emit(f"{name}.nv_keys = __keys")
        return name

    def compile_match(self, e: A.EMatch, em: _Emitter) -> str:
        scrut = self.compile_expr(e.scrutinee, em)
        tmp = self.fresh("m")
        em.emit(f"{tmp} = {scrut}")
        out = self.fresh("r")
        table = _value_table(e.branches)
        if table is not None:
            # A constant table (the per-edge tables of translated configs):
            # one dict probe instead of a test per arm.
            values, default = table
            self.tables.append(values)
            em.emit(f"{out} = __tables[{len(self.tables) - 1}].get({tmp}, __miss)")
            em.emit(f"if {out} is __miss:")
            em.indent += 1
            if default is None:
                em.emit(f"raise NvRuntimeError('match failure on %r' % ({tmp},))")
            else:
                pat, body = e.branches[default]
                for stmt in self.compile_pattern(pat, tmp)[1]:
                    em.emit(stmt)
                em.emit(f"{out} = {self.compile_expr(body, em)}")
            em.indent -= 1
            return out
        first = True
        for pat, body in e.branches:
            cond, bindings = self.compile_pattern(pat, tmp)
            keyword = "if" if first else "elif"
            first = False
            em.emit(f"{keyword} {cond}:")
            em.indent += 1
            for stmt in bindings:
                em.emit(stmt)
            result = self.compile_expr(body, em)
            em.emit(f"{out} = {result}")
            em.indent -= 1
        em.emit("else:")
        em.indent += 1
        em.emit(f"raise NvRuntimeError('match failure on %r' % ({tmp},))")
        em.indent -= 1
        return out

    def compile_pattern(self, pat: A.Pattern, path: str
                        ) -> tuple[str, list[str]]:
        """Returns (condition expression, binding statements)."""
        conds: list[str] = []
        bindings: list[str] = []

        def walk(p: A.Pattern, access: str) -> None:
            if isinstance(p, A.PWild):
                return
            if isinstance(p, A.PVar):
                bindings.append(f"{_mangle(p.name)} = {access}")
                return
            if isinstance(p, A.PBool):
                conds.append(f"{access} is {p.value}")
                return
            if isinstance(p, A.PInt):
                conds.append(f"{access} == {p.value}")
                return
            if isinstance(p, A.PNode):
                conds.append(f"{access} == {p.value}")
                return
            if isinstance(p, A.PNone):
                conds.append(f"{access} is None")
                return
            if isinstance(p, A.PSome):
                conds.append(f"{access} is not None")
                walk(p.sub, f"{access}.value")
                return
            if isinstance(p, A.PTuple):
                for i, sp in enumerate(p.elts):
                    walk(sp, f"{access}[{i}]")
                return
            if isinstance(p, A.PRecord):
                for name, sp in p.fields:
                    walk(sp, f"{access}.get({name!r})")
                return
            raise NvEncodingError(f"cannot compile pattern {p}")

        walk(pat, path)
        cond = " and ".join(conds) if conds else "True"
        return cond, bindings

    def compile_op(self, e: A.EOp, em: _Emitter) -> str:
        op = e.op
        args = [self.compile_expr(x, em) for x in e.args]
        if op == "and":
            return f"({args[0]} and {args[1]})"
        if op == "or":
            return f"({args[0]} or {args[1]})"
        if op == "not":
            return f"(not {args[0]})"
        if op in ("add", "sub"):
            sign = "+" if op == "add" else "-"
            return f"(({args[0]} {sign} {args[1]}) & {ops.mask(ops.width_of(e))})"
        if op == "eq":
            return f"({args[0]} == {args[1]})"
        if op == "lt":
            return f"({args[0]} < {args[1]})"
        if op == "le":
            return f"({args[0]} <= {args[1]})"
        if op == "mcreate":
            if not isinstance(e.ty, T.TDict):
                raise NvEncodingError("createDict requires a typed AST")
            ix = self.type_index(e.ty.key)
            return f"NVMap.create(__ctx, __types[{ix}], {args[0]})"
        if op == "mget":
            return f"{args[0]}.get({args[1]})"
        if op == "mset":
            return f"{args[0]}.set({args[1]}, {args[2]})"
        if op == "mmap":
            return f"__map_op(__memos, {args[0]}, {args[1]})"
        if op == "mcombine":
            return f"__combine_op(__memos, {args[0]}, {args[1]}, {args[2]})"
        if op == "mmapite":
            return f"__mapite_op({args[0]}, {args[1]}, {args[2]}, {args[3]})"
        raise NvEncodingError(f"cannot compile operator {op!r}")


def _value_table(branches: Any) -> tuple[dict[Any, Any], int | None] | None:
    """``(constant -> value, default arm)`` for a match over constants whose
    arms, but a final wildcard or variable, are all literal values."""
    arms = constant_arms(branches)
    if arms is None:
        return None
    first, default = arms
    values = {key: ops.literal_value(branches[i][1]) for key, i in first.items()}
    if any(v is ops.MISS for v in values.values()):
        return None
    return values, default


def _mangle(name: str) -> str:
    """NV identifiers may contain quotes (b') and tilde suffixes from
    alpha-renaming; map them to valid Python identifiers."""
    out = name.replace("'", "_pr_").replace("~", "_u_")
    if out in ("and", "or", "not", "if", "else", "in", "is", "def", "return",
               "lambda", "None", "True", "False", "assert", "match", "init",
               "class", "for", "while", "import", "from", "pass", "raise"):
        return out + "_nv"
    return out


def _memo_for(memos: dict[Any, dict], key: Any) -> dict:
    """The shared diagram-op memo for a semantic operation key.

    ``key`` is e.g. ``("map", *_key(fn))``; an unhashable key falls back to
    a private dict — still correct, just no cross-call sharing.
    """
    try:
        memo = memos.get(key)
    except TypeError:
        return {}
    if memo is None:
        memo = {}
        memos[key] = memo
    return memo


# Per-call-site memo hit-rate attribution (kernel telemetry, recorded while
# the metrics registry is on).  Each semantic diagram op (__map_op /
# __combine_op / __mapite_op) runs once per AST call site per invocation, so
# sampling the manager's apply_hits/apply_misses around the op and charging
# the delta to the site label is exact and adds zero per-node cost;
# disabled, each op pays one boolean check.
_site_stats: dict[str, list[int]] = {}


def take_site_stats() -> dict[str, tuple[int, int, int]]:
    """Snapshot-and-clear ``site -> (calls, hits, misses)`` accumulated
    while the metrics registry was on (see :func:`repro.metrics.flush_kernel`)."""
    out = {site: (c[0], c[1], c[2]) for site, c in _site_stats.items()}
    _site_stats.clear()
    return out


def _site_label(kind: str, fn: Any) -> str:
    return f"{kind}:{getattr(fn, '__name__', 'fn').lstrip('_')}"


def _charge_site(site: str, manager: Any, hits0: int, misses0: int) -> None:
    cell = _site_stats.get(site)
    if cell is None:
        cell = _site_stats[site] = [0, 0, 0]
    cell[0] += 1
    cell[1] += manager.apply_hits - hits0
    cell[2] += manager.apply_misses - misses0


def _map_op(memos: dict[Any, dict], fn: Any, m: NVMap) -> NVMap:
    if not metrics.is_enabled():
        return m.map(fn, _memo_for(memos, ("map", *_key(fn))))
    mgr = m.ctx.manager
    hits0, misses0 = mgr.apply_hits, mgr.apply_misses
    out = m.map(fn, _memo_for(memos, ("map", *_key(fn))))
    _charge_site(_site_label("map", fn), mgr, hits0, misses0)
    return out


def _combine_op(memos: dict[Any, dict], fn: Any, m1: NVMap, m2: NVMap) -> NVMap:
    # Cache the partial application fn(x) per distinct left leaf: curried
    # compiled closures attach nv_* metadata on every call, and combine
    # pairs each left leaf with many right leaves.  Leaf values are owned by
    # the (interning) BDD manager, so their ids are stable cache keys.
    partial: dict[int, Any] = {}

    def fn2(x: Any, y: Any) -> Any:
        fx = partial.get(id(x))
        if fx is None:
            fx = fn(x)
            partial[id(x)] = fx
        return fx(y)

    if not metrics.is_enabled():
        return m1.combine(fn2, m2, _memo_for(memos, ("combine", *_key(fn))))
    mgr = m1.ctx.manager
    hits0, misses0 = mgr.apply_hits, mgr.apply_misses
    out = m1.combine(fn2, m2, _memo_for(memos, ("combine", *_key(fn))))
    _charge_site(_site_label("combine", fn), mgr, hits0, misses0)
    return out


def _key(fn: Any) -> tuple:
    """``(key,)``: a compiled closure's key is what its body observes
    (``nv_keys``, the interpreter's :class:`~repro.eval.keys.ClosureKeys`).
    A callable without one keys on the function object itself, not id(fn):
    the memo table then keeps fn alive, so a collected closure's id can
    never be recycled onto a different function and serve it memo entries
    computed for the old one."""
    keys = getattr(fn, "nv_keys", None)
    key = None if keys is None else keys(fn)
    return (fn,) if key is None else (key,)


def _mapite_op(interp: Interpreter, memos: dict[Any, dict]):
    # The main memo is keyed by the function pair (the pred's node id is
    # packed into each memo key, so one table serves every predicate); the
    # branch memos use apply1 keying and share the ("map", key) tables with
    # plain ``map`` calls of the same closure.
    def run(pred: Any, fn_true: Any, fn_false: Any, m: NVMap) -> NVMap:
        pred_bdd = interp.predicate_bdd(pred, m.key_ty)
        memo = _memo_for(
            memos, ("mapite", *_key(fn_true), *_key(fn_false)))
        if not metrics.is_enabled():
            return m.map_ite(pred_bdd, fn_true, fn_false, memo,
                             _memo_for(memos, ("map", *_key(fn_true))),
                             _memo_for(memos, ("map", *_key(fn_false))))
        mgr = m.ctx.manager
        hits0, misses0 = mgr.apply_hits, mgr.apply_misses
        out = m.map_ite(pred_bdd, fn_true, fn_false, memo,
                        _memo_for(memos, ("map", *_key(fn_true))),
                        _memo_for(memos, ("map", *_key(fn_false))))
        _charge_site(_site_label("mapite", fn_true), mgr, hits0, misses0)
        return out
    return run


def compile_network_functions(net: Any, symbolics: dict[str, Any] | None = None,
                              ctx: MapContext | None = None,
                              interp: Interpreter | None = None):
    """Drop-in replacement for
    :func:`repro.srp.network.functions_from_program` using the compiled
    backend (the ``functions_factory`` hook of the analysis drivers)."""
    from ..srp.network import NetworkFunctions

    if ctx is None:
        ctx = MapContext(net.num_nodes, net.edges)
    compiler = PyCompiler(ctx)
    compiled = compiler.compile_program(net.program, symbolics)
    env = compiled.env

    init_f = env["init"]
    trans_f = env["trans"]
    merge_f = env["merge"]
    assert_f = env.get("assert")

    # Partially-applied closures per edge/node, created once: closure
    # creation in compiled code attaches nv_* metadata, which is wasted work
    # when the simulator calls the same edge/node millions of times.
    trans_partials: dict[tuple[int, int], Any] = {}
    merge_partials: dict[int, Any] = {}

    def trans(edge: tuple[int, int], x: Any) -> Any:
        f = trans_partials.get(edge)
        if f is None:
            f = trans_partials[edge] = trans_f(edge)
        return f(x)

    def merge(u: int, x: Any, y: Any) -> Any:
        f = merge_partials.get(u)
        if f is None:
            f = merge_partials[u] = merge_f(u)
        return f(x)(y)

    assert_fn = None
    if assert_f is not None:
        def assert_fn(u: int, x: Any) -> bool:  # noqa: F811
            return bool(assert_f(u)(x))

    funcs = NetworkFunctions(net.num_nodes, net.edges, init_f, trans, merge,
                             assert_fn, ctx, net.attr_ty)
    funcs.compile_seconds = compiled.compile_seconds  # type: ignore[attr-defined]
    funcs.compiled_source = compiled.source           # type: ignore[attr-defined]
    return funcs
