"""The NV interpreter.

Evaluates typed NV expressions to the runtime values of
:mod:`repro.eval.values`.  The interpreter is the paper's baseline execution
engine; the compiled path (:mod:`repro.eval.compile_py`) generates host-language
source for the same semantics.

Map operations require type annotations on the AST (run
:func:`repro.lang.typecheck.check_program` first) so that key layouts are
known; ``mapIte`` key predicates are translated to BDDs by symbolically
interpreting the predicate closure over the key bits.
"""

from __future__ import annotations

from typing import Any, Callable

from ..lang import ast as A
from ..lang import types as T
from ..lang.errors import NvEncodingError, NvRuntimeError
from .keys import ClosureKeys
from .maps import MapContext, NVMap
from .values import VClosure, VRecord, VSome

Code = Callable[[dict[str, Any]], Any]      # a compiled expression: code(env)


def eta_reduct(e: A.EFun) -> A.Expr | None:
    """``f`` when ``e`` is ``fun x -> f x`` with ``x`` not free in ``f``.

    Both evaluators compile such a wrapper to ``f`` itself.  NV is pure and
    non-recursive, so evaluating ``f`` when the closure is made is sound, and
    it saves a call per application.  (Unreduced, wrappers around the same
    ``f`` would still share one memo with each other, not with ``f``: a
    wrapper's one hole is ``f``; see :mod:`repro.eval.keys`.)"""
    body = e.body
    if (type(body) is A.EApp and type(body.arg) is A.EVar
            and body.arg.name == e.param
            and e.param not in A.free_vars(body.fn)):
        return body.fn
    return None


class Interpreter:
    def __init__(self, ctx: MapContext | None = None,
                 enable_cache: bool = True) -> None:
        self.ctx = ctx if ctx is not None else MapContext()
        # The paper amortises diagram-operation cost by caching across calls;
        # `enable_cache=False` turns that off (ablation benchmark).
        self.enable_cache = enable_cache
        # Cross-call memo tables for map/combine, keyed by ``_closure_key`` —
        # the paper caches diagram operations because simulation applies the
        # same transfer/merge repeatedly.
        self._map_memo: dict[Any, dict[int, int]] = {}
        self._combine_memo: dict[Any, dict[tuple[int, int], int]] = {}
        # mapIte's main memo is keyed by the (fn_true, fn_false) pair; the
        # pred node id is part of each packed memo key, so one table serves
        # every predicate.  Branch memos use apply1 keying and live in
        # _map_memo, shared with plain ``map`` calls of the same closure.
        self._mapite_memo: dict[Any, dict[int, int]] = {}
        self._pred_cache: dict[Any, int] = {}
        # Holds the node beside its code, so its address is never reused.
        self._code: dict[int, tuple[A.Expr, Code]] = {}
        self._consts: dict[tuple[type, Any], Code] = {}
        # A function value's memo key: what its body observes of the
        # environment it captured (``repro.eval.keys``).
        self._closure_key = ClosureKeys(self._eval)

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def eval(self, e: A.Expr, env: dict[str, Any] | None = None) -> Any:
        return self._eval(e, env or {})

    def apply(self, fn: Any, arg: Any) -> Any:
        """Apply a function value (closure or host callable)."""
        if isinstance(fn, VClosure):
            if fn.code is None:     # built by the symbolic evaluator / SMT encoder
                fn.code = self._code_for(fn.body)
            return fn.code({**fn.env, fn.param: arg})
        if callable(fn):
            return fn(arg)
        raise NvRuntimeError(f"cannot apply non-function value {fn!r}")

    def as_callable(self, fn: Any) -> Callable[[Any], Any]:
        if isinstance(fn, VClosure):
            return lambda arg: self.apply(fn, arg)
        if callable(fn):
            return fn
        raise NvRuntimeError(f"cannot apply non-function value {fn!r}")

    # ------------------------------------------------------------------
    # Core evaluator: each AST node is compiled, once, to a closure ``code(env)``
    # over its children's closures; node class, operator, labels, masks and
    # pattern shape are decided then.  Errors are raised only by the closures.
    # ------------------------------------------------------------------

    def _eval(self, e: A.Expr, env: dict[str, Any]) -> Any:
        return self._code_for(e)(env)

    def _code_for(self, e: A.Expr) -> Code:
        """The code of an evaluation root (only roots have a table entry)."""
        entry = self._code.get(id(e))
        if entry is None:
            entry = self._code[id(e)] = (e, self._compile(e))
        return entry[1]

    def _compile(self, e: A.Expr) -> Code:
        literal = _LITERALS.get(type(e))
        if literal is not None:         # one shared closure per distinct constant
            value = literal(e)
            return self._consts.setdefault((type(value), value), lambda env: value)
        build = getattr(self, "_c_" + type(e).__name__, None)
        if build is None:
            return _raiser(f"cannot evaluate {type(e).__name__}")
        return build(e)

    def _c_EVar(self, e: A.EVar) -> Code:
        name, at = e.name, e.span

        def var(env):
            try:
                return env[name]
            except KeyError:
                raise NvRuntimeError(f"unbound variable {name!r} at {at}") from None
        return var

    def _c_ESome(self, e: A.ESome) -> Code:
        sub = self._compile(e.sub)
        return lambda env: VSome(sub(env))

    def _c_ETuple(self, e: A.ETuple) -> Code:
        subs = [self._compile(x) for x in e.elts]
        return lambda env: tuple([f(env) for f in subs])

    def _c_ETupleGet(self, e: A.ETupleGet) -> Code:
        sub, index = self._compile(e.sub), e.index
        return lambda env: sub(env)[index]

    def _c_ERecord(self, e: A.ERecord) -> Code:
        fields = [(n, self._compile(x)) for n, x in e.fields]
        return lambda env: VRecord(tuple([(n, f(env)) for n, f in fields]))

    def _c_ERecordWith(self, e: A.ERecordWith) -> Code:
        sub = self._compile(e.base)
        updates = [(n, self._compile(x)) for n, x in e.updates]

        def record_with(env):
            base = sub(env)
            if not isinstance(base, VRecord):
                raise NvRuntimeError(f"record update on non-record {base!r}")
            return base.with_updates({n: f(env) for n, f in updates})
        return record_with

    def _c_EProj(self, e: A.EProj) -> Code:
        sub, label = self._compile(e.sub), e.label

        def proj(env):
            base = sub(env)
            if not isinstance(base, VRecord):
                raise NvRuntimeError(f"field access .{label} on non-record {base!r}")
            return base.get(label)
        return proj

    def _c_EIf(self, e: A.EIf) -> Code:
        cond, then, els = map(self._compile, (e.cond, e.then, e.els))
        return lambda env: then(env) if cond(env) else els(env)

    def _c_ELet(self, e: A.ELet) -> Code:
        name, bound, body = e.name, self._compile(e.bound), self._compile(e.body)
        return lambda env: body({**env, name: bound(env)})

    def _c_ELetPat(self, e: A.ELetPat) -> Code:
        return self._branches(e.bound, ((e.pat, e.body),),
                              "irrefutable let pattern failed on {!r}")

    def _c_EMatch(self, e: A.EMatch) -> Code:
        return self._branches(e.scrutinee, e.branches,
                              f"match failure on {{!r}} at {e.span}")

    def _branches(self, scrutinee: A.Expr, branches: Any, failure: str) -> Code:
        subject = self._compile(scrutinee)
        table = constant_arms(branches)
        if table is not None:
            return _dispatch(subject, table, [self._compile(body) for _, body in branches],
                             branches, failure)
        arms = [(_matcher(pat), self._compile(body)) for pat, body in branches]

        def match(env):
            value = subject(env)
            for matches, body in arms:
                bindings = matches(value)
                if bindings is not None:
                    return body({**env, **bindings}) if bindings else body(env)
            raise NvRuntimeError(failure.format(value))
        return match

    def _c_EFun(self, e: A.EFun) -> Code:
        wrapped = eta_reduct(e)
        if wrapped is not None:
            return self._compile(wrapped)
        param, body, param_ty, code = e.param, e.body, e.param_ty, self._compile(e.body)
        return lambda env: VClosure(param, body, env, param_ty, code)

    def _c_EApp(self, e: A.EApp) -> Code:
        fn, arg, apply = self._compile(e.fn), self._compile(e.arg), self.apply
        return lambda env: apply(fn(env), arg(env))

    def _c_EOp(self, e: A.EOp) -> Code:
        build = _OPS.get(e.op)
        if build is None:
            return _raiser(f"unknown operator {e.op!r}")
        return build(self, e, *map(self._compile, e.args))

    def _op_mcreate(self, e: A.EOp, default: Code) -> Code:
        def create(env):
            value = default(env)
            if not isinstance(e.ty, T.TDict):
                raise NvEncodingError(
                    "createDict requires a type-annotated AST (run the type checker "
                    "before evaluation) so the key layout is known")
            return NVMap.create(self.ctx, e.ty.key, value)
        return create

    def _op_mmap(self, e: A.EOp, f: Code, m: Code) -> Code:
        def map_(env):
            fn = f(env)
            return _as_map(m(env)).map(self.as_callable(fn),
                                       self._memo_for(fn, self._map_memo))
        return map_

    def _op_mcombine(self, e: A.EOp, f: Code, a: Code, b: Code) -> Code:
        def combine(env):
            fn = f(env)
            m1, m2 = _as_map(a(env)), _as_map(b(env))
            call, apply = self.as_callable(fn), self.apply
            # Cache the partial application ``fn x`` per distinct left leaf:
            # combine pairs each left leaf with many right leaves, and leaf
            # values are owned by the manager's leaf table, so their ids are
            # stable keys for the duration of the call.
            partial: dict[int, Any] = {}

            def fn2(x: Any, y: Any) -> Any:
                fx = partial.get(id(x))
                if fx is None:
                    fx = call(x)
                    partial[id(x)] = fx
                return apply(fx, y)

            return m1.combine(fn2, m2, self._memo_for(fn, self._combine_memo))
        return combine

    def _op_mmapite(self, e: A.EOp, p: Code, t: Code, f: Code, a: Code) -> Code:
        def map_ite(env):
            pred, fn_true, fn_false = p(env), t(env), f(env)
            m = _as_map(a(env))
            pred_bdd = self.predicate_bdd(pred, m.key_ty)
            kt = self._closure_key(fn_true) if self.enable_cache else None
            kf = self._closure_key(fn_false) if self.enable_cache else None
            if kt is None or kf is None:
                memo = {}
            else:
                memo = self._mapite_memo.setdefault((kt, kf), {})
            return m.map_ite(pred_bdd, self.as_callable(fn_true),
                             self.as_callable(fn_false), memo,
                             self._memo_for(fn_true, self._map_memo),
                             self._memo_for(fn_false, self._map_memo))
        return map_ite

    def _memo_for(self, fn: Any, table: dict[Any, dict]) -> dict:
        """The memo table of ``fn``'s semantic function, shared across calls
        and across closures with one ``_closure_key`` (what their body
        observes); a private memo when ``fn`` has no key."""
        if not self.enable_cache:
            return {}
        key = self._closure_key(fn)
        if key is None:
            return {}
        memo = table.get(key)
        if memo is None:
            memo = {}
            table[key] = memo
        return memo

    # ------------------------------------------------------------------
    # Key predicates
    # ------------------------------------------------------------------

    def predicate_bdd(self, pred: Any, key_ty: T.Type) -> int:
        """Build the BDD of a key predicate closure (fig 11b).

        The closure body is interpreted symbolically over the key's bit
        variables.  Results are cached per ``_closure_key`` because
        simulation evaluates the same predicates repeatedly.
        """
        from .symbolic import SymbolicEvaluator  # local import to avoid a cycle

        cache_key = self._pred_cache_key(pred, key_ty) if self.enable_cache else None
        if cache_key is not None:
            cached = self._pred_cache.get(cache_key)
            if cached is not None:
                return cached
        sym = SymbolicEvaluator(self, self.ctx)
        result = sym.predicate_to_bdd(pred, key_ty)
        if cache_key is not None:
            self._pred_cache[cache_key] = result
        return result

    def _pred_cache_key(self, pred: Any, key_ty: T.Type) -> Any:
        closure_key = self._closure_key(pred)
        if closure_key is None:
            return None
        return (closure_key, key_ty)


def _raiser(message: str) -> Callable[[Any], Any]:
    """Code (or a matcher) for an ill-formed node: fails when reached."""
    def fail(_):
        raise NvRuntimeError(message)
    return fail


def _mask(e: A.EOp) -> int:
    return (1 << (e.ty.width if isinstance(e.ty, T.TInt) else 32)) - 1


def _as_map(m: Any) -> NVMap:
    if not isinstance(m, NVMap):
        raise NvRuntimeError(f"expected a map, got {m!r}")
    return m


_LITERALS = {
    A.EBool: lambda e: e.value, A.ENode: lambda e: e.value,
    A.EInt: lambda e: e.value & ((1 << e.width) - 1),
    A.EEdge: lambda e: (e.src, e.dst), A.ENone: lambda e: None,
}

# Operator name -> ``build(interp, e, *argument code) -> code``.  A default
# argument binds what the builder precomputes.
_OPS = {
    "and": lambda interp, e, a, b: lambda env: a(env) and b(env),
    "or": lambda interp, e, a, b: lambda env: a(env) or b(env),
    "not": lambda interp, e, a: lambda env: not a(env),
    "add": lambda interp, e, a, b: lambda env, mask=_mask(e): (a(env) + b(env)) & mask,
    "sub": lambda interp, e, a, b: lambda env, mask=_mask(e): (a(env) - b(env)) & mask,
    "eq": lambda interp, e, a, b: lambda env: a(env) == b(env),
    "lt": lambda interp, e, a, b: lambda env: a(env) < b(env),
    "le": lambda interp, e, a, b: lambda env: a(env) <= b(env),
    "mget": lambda interp, e, m, k: lambda env: _as_map(m(env)).get(k(env)),
    "mset": lambda interp, e, m, k, v: lambda env: _as_map(m(env)).set(k(env), v(env)),
    "mcreate": Interpreter._op_mcreate, "mmap": Interpreter._op_mmap,
    "mcombine": Interpreter._op_mcombine, "mmapite": Interpreter._op_mmapite,
}


def constant_arms(branches: Any) -> tuple[dict[Any, int], int | None] | None:
    """``(first arm of each constant, default arm)`` when every pattern is a
    constant — a boolean, integer or node, or a tuple or edge of them — except
    at most a final wildcard or variable; ``None`` otherwise.  Such a match
    (the per-edge tables of translated configurations) dispatches with one
    dict probe, however many arms it has."""
    table: dict[Any, int] = {}
    last = len(branches) - 1
    for i, (pat, _) in enumerate(branches):
        key = _constant(pat)
        if key is not _NOT_CONSTANT:
            table.setdefault(key, i)
        elif i == last and type(pat) in (A.PWild, A.PVar):
            return table, i
        else:
            return None
    return table, None


_NOT_CONSTANT = object()


def _constant(pat: A.Pattern) -> Any:
    t = type(pat)
    if t in (A.PBool, A.PInt, A.PNode):
        return pat.value
    if t is not A.PTuple:
        return _NOT_CONSTANT
    key = tuple(map(_constant, pat.elts))
    return _NOT_CONSTANT if _NOT_CONSTANT in key else key


def _dispatch(subject: Code, table: tuple[dict[Any, int], int | None],
              codes: list[Code], branches: Any, failure: str) -> Code:
    """The code of a match over constants: first-match semantics, by lookup."""
    first, default = table
    targets = {key: codes[i] for key, i in first.items()}
    if default is None:
        def otherwise(env, value):
            raise NvRuntimeError(failure.format(value))
    elif type(branches[default][0]) is A.PVar:
        def otherwise(env, value, name=branches[default][0].name, code=codes[default]):
            return code({**env, name: value})
    else:
        def otherwise(env, value, code=codes[default]):
            return code(env)

    def match(env):
        value = subject(env)
        code = targets.get(value)
        return otherwise(env, value) if code is None else code(env)
    return match


def match_pattern(pat: A.Pattern, value: Any) -> dict[str, Any] | None:
    """Match ``value`` against ``pat``; return bindings or None on failure."""
    return _matcher(pat)(value)


def _matcher(pat: A.Pattern) -> Callable[[Any], dict[str, Any] | None]:
    """Compile ``pat`` to ``match(value) -> bindings | None``."""
    build = _MATCHERS.get(type(pat))
    if build is None:
        return _raiser(f"unsupported pattern {pat}")
    return build(pat)


def _match_any(value):
    return {}


def _match_none(value):
    return {} if value is None else None


def _m_some(pat):
    sub = _matcher(pat.sub)
    return lambda value: sub(value.value) if isinstance(value, VSome) else None


def _m_tuple(elts):
    subs = [_matcher(p) for p in elts]

    def match(value):
        if not isinstance(value, tuple) or len(value) != len(subs):
            return None
        bindings: dict[str, Any] = {}
        for sub, v in zip(subs, value):
            sub_bindings = sub(v)
            if sub_bindings is None:
                return None
            bindings.update(sub_bindings)
        return bindings
    return match


def _m_record(pat):
    subs = [(name, _matcher(p)) for name, p in pat.fields]

    def match(value):
        if not isinstance(value, VRecord):
            return None
        bindings: dict[str, Any] = {}
        for name, sub in subs:
            sub_bindings = sub(value.get(name))
            if sub_bindings is None:
                return None
            bindings.update(sub_bindings)
        return bindings
    return match


_MATCHERS = {
    A.PWild: lambda pat: _match_any, A.PNone: lambda pat: _match_none,
    A.PVar: lambda pat: lambda value, name=pat.name: {name: value},
    **dict.fromkeys((A.PBool, A.PInt, A.PNode), lambda pat: (
        lambda value, const=pat.value: {} if value == const else None)),
    A.PSome: _m_some, A.PRecord: _m_record, A.PTuple: lambda pat: _m_tuple(pat.elts),
}


def program_env(program: A.Program, interp: Interpreter,
                symbolics: dict[str, Any] | None = None) -> dict[str, Any]:
    """Evaluate a program's declarations in order, producing a value
    environment.  ``symbolics`` supplies concrete values for symbolic
    variables (the normalisation-based analyses require them, §3)."""
    env: dict[str, Any] = {}
    symbolics = symbolics or {}
    for decl in program.decls:
        if isinstance(decl, A.DSymbolic):
            if decl.name not in symbolics:
                raise NvRuntimeError(
                    f"symbolic {decl.name!r} needs a concrete value for evaluation")
            env[decl.name] = symbolics[decl.name]
        elif isinstance(decl, A.DLet):
            env[decl.name] = interp.eval(decl.expr, env)
        elif isinstance(decl, A.DRequire):
            if not interp.eval(decl.expr, env):
                raise NvRuntimeError("require clause violated by symbolic assignment")
    return env
