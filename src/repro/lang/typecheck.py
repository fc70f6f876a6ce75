"""Type inference for NV.

Hindley-Milner style unification with let-polymorphism (the paper's §3).
Every expression node is annotated in place with its inferred type (``.ty``);
back ends rely on the annotations for integer wrap widths, record layouts and
map encodings.  Messages exchanged between nodes must end up with a concrete
type — :func:`check_network` verifies the fig 8 signature of a program.

Record field projection is resolved nominally against the record types
declared in the program (``type bgp = {...}``), like OCaml: the unique
declared record containing the projected label determines the type.
"""

from __future__ import annotations

import itertools
from typing import Callable

from .._struct import struct
from . import ast as A
from . import types as T
from .errors import NvTypeError


@struct
class Scheme:
    """A type scheme: ``forall vars. ty``."""

    vars: tuple[str, ...]
    ty: T.Type
    # Cached by ``generalize``: no variable is free in ``ty`` outside
    # ``vars``.  Quantified variables are never bound afterwards, so a closed
    # scheme stays closed and environment scans skip it.
    closed: bool = False


def _children(ty: T.Type) -> tuple[T.Type, ...]:
    if isinstance(ty, T.TOption):
        return (ty.elt,)
    if isinstance(ty, T.TTuple):
        return ty.elts
    if isinstance(ty, T.TRecord):
        return tuple(t for _, t in ty.fields)
    if isinstance(ty, T.TDict):
        return (ty.key, ty.value)
    if isinstance(ty, T.TArrow):
        return (ty.arg, ty.result)
    return ()


def _rebuild(ty: T.Type, f: Callable[[T.Type], T.Type]) -> T.Type:
    """``ty`` with ``f`` applied to each child — the *same object* when no
    child changed, so unchanged (in particular ground) subterms stay shared
    between annotations instead of being copied per node."""
    old = _children(ty)
    new = tuple(map(f, old))
    if all(a is b for a, b in zip(new, old)):
        return ty
    if isinstance(ty, T.TRecord):
        return T.TRecord(tuple(zip(ty.labels(), new)))
    if isinstance(ty, T.TTuple):
        return T.TTuple(new)
    return type(ty)(*new)


def _default(ty: T.Type) -> T.Type:
    """Default every remaining unification variable to ``int``."""
    if ty.ground:
        return ty
    return T.TInt(32) if isinstance(ty, T.TVar) else _rebuild(ty, _default)


class TypeChecker:
    def __init__(self, record_types: list[T.TRecord] | None = None) -> None:
        self._counter = itertools.count()
        self.subst: dict[str, T.Type] = {}
        # Declared record types, used to resolve projections and literals.
        self.record_types: list[T.TRecord] = list(record_types or [])

    # ------------------------------------------------------------------
    # Unification machinery
    # ------------------------------------------------------------------

    def fresh(self, hint: str = "t") -> T.TVar:
        return T.TVar(f"{hint}{next(self._counter)}")

    def resolve(self, ty: T.Type) -> T.Type:
        """Follow substitution links one level."""
        while isinstance(ty, T.TVar) and ty.name in self.subst:
            ty = self.subst[ty.name]
        return ty

    def zonk(self, ty: T.Type) -> T.Type:
        """Fully apply the substitution.  Ground types come back as is, and a
        solved variable's binding is replaced by its zonked form, so every
        later visit shares that one object."""
        if ty.ground:
            return ty
        if isinstance(ty, T.TVar):
            end = self.resolve(ty)
            if end is not ty:
                end = self.subst[ty.name] = self.zonk(end)
            return end
        return _rebuild(ty, self.zonk)

    def occurs(self, name: str, ty: T.Type) -> bool:
        if ty.ground:
            return False
        ty = self.resolve(ty)
        if isinstance(ty, T.TVar):
            return ty.name == name
        return any(self.occurs(name, t) for t in _children(ty))

    def unify(self, a: T.Type, b: T.Type, where: str = "") -> None:
        a = self.resolve(a)
        b = self.resolve(b)
        if a is b or a == b:
            return
        if isinstance(a, T.TVar):
            if self.occurs(a.name, b):
                raise NvTypeError(f"occurs check failed: {a} in {self.zonk(b)} {where}")
            self.subst[a.name] = b
            return
        if isinstance(b, T.TVar):
            self.unify(b, a, where)
            return
        if isinstance(a, T.TOption) and isinstance(b, T.TOption):
            self.unify(a.elt, b.elt, where)
            return
        # An edge is interchangeable with a pair of nodes: edge literals are
        # written `(0n, 1n)` and edges destructure as pairs (paper fig 3).
        if isinstance(a, T.TEdge) and isinstance(b, T.TTuple) and len(b.elts) == 2:
            for elt in b.elts:
                self.unify(elt, T.TNode(), where)
            return
        if isinstance(b, T.TEdge) and isinstance(a, T.TTuple) and len(a.elts) == 2:
            self.unify(b, a, where)
            return
        if isinstance(a, T.TTuple) and isinstance(b, T.TTuple) and len(a.elts) == len(b.elts):
            for x, y in zip(a.elts, b.elts):
                self.unify(x, y, where)
            return
        if isinstance(a, T.TRecord) and isinstance(b, T.TRecord) and a.labels() == b.labels():
            for (_, x), (_, y) in zip(a.fields, b.fields):
                self.unify(x, y, where)
            return
        if isinstance(a, T.TDict) and isinstance(b, T.TDict):
            self.unify(a.key, b.key, where)
            self.unify(a.value, b.value, where)
            return
        if isinstance(a, T.TArrow) and isinstance(b, T.TArrow):
            self.unify(a.arg, b.arg, where)
            self.unify(a.result, b.result, where)
            return
        raise NvTypeError(f"cannot unify {self.zonk(a)} with {self.zonk(b)} {where}")

    # ------------------------------------------------------------------
    # Generalisation
    # ------------------------------------------------------------------

    def free_tvars(self, ty: T.Type) -> set[str]:
        if ty.ground:
            return set()
        ty = self.resolve(ty)
        if isinstance(ty, T.TVar):
            return {ty.name}
        return set().union(*(self.free_tvars(t) for t in _children(ty)))

    def generalize(self, env: dict[str, Scheme], ty: T.Type) -> Scheme:
        ty = self.zonk(ty)
        gen = self.free_tvars(ty)
        if gen:
            # Only an open type needs the environment's free variables, and
            # only the environment's open schemes can have any.
            for scheme in env.values():
                if not scheme.closed:
                    free = self.free_tvars(scheme.ty).difference(scheme.vars)
                    scheme.closed = not free
                    gen -= free
        return Scheme(tuple(sorted(gen)), ty)

    def instantiate(self, scheme: Scheme) -> T.Type:
        if not scheme.vars:
            return scheme.ty
        mapping = {v: self.fresh("i") for v in scheme.vars}

        def sub(ty: T.Type) -> T.Type:
            if ty.ground:
                return ty
            if isinstance(ty, T.TVar):
                return mapping.get(ty.name, ty)
            return _rebuild(ty, sub)

        return sub(scheme.ty)

    # ------------------------------------------------------------------
    # Record resolution
    # ------------------------------------------------------------------

    def record_with_label(self, label: str) -> T.TRecord | None:
        matches = [r for r in self.record_types if label in r.labels()]
        if len(matches) == 1:
            return matches[0]
        if len(matches) > 1:
            # Prefer the most recently declared, like OCaml's shadowing rule.
            return matches[-1]
        return None

    def record_with_labels(self, labels: frozenset[str]) -> T.TRecord | None:
        matches = [r for r in self.record_types if frozenset(r.labels()) == labels]
        if matches:
            return matches[-1]
        return None

    # ------------------------------------------------------------------
    # Expression inference
    # ------------------------------------------------------------------

    def infer(self, env: dict[str, Scheme], e: A.Expr) -> T.Type:
        ty = self._infer(env, e)
        e.ty = ty
        return ty

    def _infer(self, env: dict[str, Scheme], e: A.Expr) -> T.Type:
        if isinstance(e, A.EVar):
            scheme = env.get(e.name)
            if scheme is None:
                raise NvTypeError(f"unbound variable {e.name!r} at {e.span}")
            return self.instantiate(scheme)
        if isinstance(e, A.EBool):
            return T.TBool()
        if isinstance(e, A.EInt):
            return T.TInt(e.width)
        if isinstance(e, A.ENode):
            return T.TNode()
        if isinstance(e, A.EEdge):
            return T.TEdge()
        if isinstance(e, A.ENone):
            return T.TOption(self.fresh("o"))
        if isinstance(e, A.ESome):
            return T.TOption(self.infer(env, e.sub))
        if isinstance(e, A.ETuple):
            return T.TTuple(tuple(self.infer(env, x) for x in e.elts))
        if isinstance(e, A.ETupleGet):
            sub_ty = self.resolve(self.infer(env, e.sub))
            if isinstance(sub_ty, T.TVar) and e.arity > 0:
                # Arity is known (transform-introduced projection): pin the
                # subject to a tuple of fresh component types.
                want = T.TTuple(tuple(self.fresh("g") for _ in range(e.arity)))
                self.unify(sub_ty, want, "in tuple projection")
                sub_ty = want
            if isinstance(sub_ty, T.TEdge) and e.index in (0, 1):
                e.arity = 2
                return T.TNode()
            if not isinstance(sub_ty, T.TTuple):
                raise NvTypeError(f"projection .{e.index} applied to non-tuple {self.zonk(sub_ty)}")
            if not (0 <= e.index < len(sub_ty.elts)):
                raise NvTypeError(f"tuple index {e.index} out of range for {self.zonk(sub_ty)}")
            e.arity = len(sub_ty.elts)
            return sub_ty.elts[e.index]
        if isinstance(e, A.ERecord):
            labels = frozenset(n for n, _ in e.fields)
            declared = self.record_with_labels(labels)
            if declared is not None:
                # Reorder the literal's fields to the declared order.
                by_name = dict(e.fields)
                e.fields = tuple((n, by_name[n]) for n in declared.labels())
                for (name, sub_e), (_, want) in zip(e.fields, declared.fields):
                    self.unify(self.infer(env, sub_e), want, f"in field {name!r}")
                return declared
            return T.TRecord(tuple((n, self.infer(env, x)) for n, x in e.fields))
        if isinstance(e, A.ERecordWith):
            base_ty = self.resolve(self.infer(env, e.base))
            if isinstance(base_ty, T.TVar):
                declared = self.record_with_label(e.updates[0][0])
                if declared is None:
                    raise NvTypeError(
                        f"cannot determine record type for update at {e.span}")
                self.unify(base_ty, declared)
                base_ty = declared
            if not isinstance(base_ty, T.TRecord):
                raise NvTypeError(f"record update applied to {self.zonk(base_ty)}")
            for name, sub_e in e.updates:
                self.unify(self.infer(env, sub_e), base_ty.field_type(name),
                           f"in update of {name!r}")
            return base_ty
        if isinstance(e, A.EProj):
            sub_ty = self.resolve(self.infer(env, e.sub))
            if isinstance(sub_ty, T.TVar):
                declared = self.record_with_label(e.label)
                if declared is None:
                    raise NvTypeError(f"no record type with field {e.label!r}")
                self.unify(sub_ty, declared)
                sub_ty = declared
            if not isinstance(sub_ty, T.TRecord):
                raise NvTypeError(f"field access .{e.label} on {self.zonk(sub_ty)}")
            return sub_ty.field_type(e.label)
        if isinstance(e, A.EIf):
            self.unify(self.infer(env, e.cond), T.TBool(), "in if condition")
            then_ty = self.infer(env, e.then)
            els_ty = self.infer(env, e.els)
            self.unify(then_ty, els_ty, "in if branches")
            return then_ty
        if isinstance(e, A.ELet):
            bound_ty = self.infer(env, e.bound)
            if e.annot is not None:
                self.unify(bound_ty, e.annot, f"in annotation of {e.name!r}")
            if _is_generalizable(e.bound):
                scheme = self.generalize(env, bound_ty)
            else:
                scheme = Scheme((), bound_ty)
            new_env = dict(env)
            new_env[e.name] = scheme
            return self.infer(new_env, e.body)
        if isinstance(e, A.ELetPat):
            bound_ty = self.infer(env, e.bound)
            new_env = dict(env)
            self.check_pattern(new_env, e.pat, bound_ty)
            return self.infer(new_env, e.body)
        if isinstance(e, A.EFun):
            arg_ty: T.Type = e.param_ty if e.param_ty is not None else self.fresh("a")
            new_env = dict(env)
            new_env[e.param] = Scheme((), arg_ty)
            body_ty = self.infer(new_env, e.body)
            return T.TArrow(arg_ty, body_ty)
        if isinstance(e, A.EApp):
            fn_ty = self.infer(env, e.fn)
            arg_ty = self.infer(env, e.arg)
            result = self.fresh("r")
            self.unify(fn_ty, T.TArrow(arg_ty, result), "in application")
            return result
        if isinstance(e, A.EMatch):
            scrut_ty = self.infer(env, e.scrutinee)
            result = self.fresh("m")
            for pat, body in e.branches:
                branch_env = dict(env)
                self.check_pattern(branch_env, pat, scrut_ty)
                self.unify(self.infer(branch_env, body), result, "in match branch")
            return result
        if isinstance(e, A.EOp):
            return self.infer_op(env, e)
        raise NvTypeError(f"cannot infer type of {type(e).__name__}")

    def infer_op(self, env: dict[str, Scheme], e: A.EOp) -> T.Type:
        op = e.op
        args = e.args
        if op in ("and", "or"):
            for a in args:
                self.unify(self.infer(env, a), T.TBool(), f"in {op}")
            return T.TBool()
        if op == "not":
            self.unify(self.infer(env, args[0]), T.TBool(), "in not")
            return T.TBool()
        if op in ("add", "sub"):
            lhs = self.infer(env, args[0])
            rhs = self.infer(env, args[1])
            self.unify(lhs, rhs, f"in {op}")
            resolved = self.resolve(lhs)
            if isinstance(resolved, T.TVar):
                self.unify(resolved, T.TInt(32))
                resolved = T.TInt(32)
            if not isinstance(resolved, T.TInt):
                raise NvTypeError(f"{op} requires integers, got {self.zonk(resolved)}")
            return resolved
        if op == "eq":
            lhs = self.infer(env, args[0])
            rhs = self.infer(env, args[1])
            self.unify(lhs, rhs, "in =")
            return T.TBool()
        if op in ("lt", "le"):
            lhs = self.infer(env, args[0])
            rhs = self.infer(env, args[1])
            self.unify(lhs, rhs, f"in {op}")
            resolved = self.resolve(lhs)
            # An unresolved operand type stays polymorphic (e.g. a generic
            # `min` helper); it must resolve to an integer at each use site.
            if not isinstance(resolved, (T.TInt, T.TNode, T.TVar)):
                raise NvTypeError(f"{op} requires integers, got {self.zonk(resolved)}")
            return T.TBool()
        if op == "mcreate":
            value_ty = self.infer(env, args[0])
            return T.TDict(self.fresh("k"), value_ty)
        if op == "mget":
            key = self.fresh("k")
            value = self.fresh("v")
            self.unify(self.infer(env, args[0]), T.TDict(key, value), "in map get")
            self.unify(self.infer(env, args[1]), key, "in map get key")
            return value
        if op == "mset":
            key = self.fresh("k")
            value = self.fresh("v")
            map_ty = T.TDict(key, value)
            self.unify(self.infer(env, args[0]), map_ty, "in map set")
            self.unify(self.infer(env, args[1]), key, "in map set key")
            self.unify(self.infer(env, args[2]), value, "in map set value")
            return map_ty
        if op == "mmap":
            key = self.fresh("k")
            value = self.fresh("v")
            out = self.fresh("w")
            self.unify(self.infer(env, args[0]), T.TArrow(value, out), "in map fn")
            self.unify(self.infer(env, args[1]), T.TDict(key, value), "in map")
            return T.TDict(key, out)
        if op == "mmapite":
            key = self.fresh("k")
            value = self.fresh("v")
            out = self.fresh("w")
            self.unify(self.infer(env, args[0]), T.TArrow(key, T.TBool()), "in mapIte predicate")
            self.unify(self.infer(env, args[1]), T.TArrow(value, out), "in mapIte then")
            self.unify(self.infer(env, args[2]), T.TArrow(value, out), "in mapIte else")
            self.unify(self.infer(env, args[3]), T.TDict(key, value), "in mapIte")
            return T.TDict(key, out)
        if op == "mcombine":
            key = self.fresh("k")
            value = self.fresh("v")
            out = self.fresh("w")
            self.unify(self.infer(env, args[0]),
                       T.TArrow(value, T.TArrow(value, out)), "in combine fn")
            self.unify(self.infer(env, args[1]), T.TDict(key, value), "in combine")
            self.unify(self.infer(env, args[2]), T.TDict(key, value), "in combine")
            return T.TDict(key, out)
        raise NvTypeError(f"unknown operator {op!r}")

    # ------------------------------------------------------------------
    # Patterns
    # ------------------------------------------------------------------

    def check_pattern(self, env: dict[str, Scheme], pat: A.Pattern, ty: T.Type) -> None:
        """Bind pattern variables in ``env`` and unify against ``ty``."""
        resolved = self.resolve(ty)
        if isinstance(pat, A.PWild):
            return
        if isinstance(pat, A.PVar):
            env[pat.name] = Scheme((), ty)
            return
        if isinstance(pat, A.PBool):
            self.unify(ty, T.TBool(), "in pattern")
            return
        if isinstance(pat, A.PInt):
            self.unify(ty, T.TInt(pat.width), "in pattern")
            return
        if isinstance(pat, A.PNode):
            self.unify(ty, T.TNode(), "in pattern")
            return
        if isinstance(pat, A.PNone):
            self.unify(ty, T.TOption(self.fresh("p")), "in pattern")
            return
        if isinstance(pat, A.PSome):
            elt = self.fresh("p")
            self.unify(ty, T.TOption(elt), "in pattern")
            self.check_pattern(env, pat.sub, elt)
            return
        if isinstance(pat, A.PTuple):
            if isinstance(resolved, T.TEdge) and len(pat.elts) == 2:
                # Edge destructuring: `let (u, v) = e`.
                self.check_pattern(env, pat.elts[0], T.TNode())
                self.check_pattern(env, pat.elts[1], T.TNode())
                return
            elts = tuple(self.fresh("p") for _ in pat.elts)
            self.unify(ty, T.TTuple(elts), "in tuple pattern")
            for p, t in zip(pat.elts, elts):
                self.check_pattern(env, p, t)
            return
        if isinstance(pat, A.PEdge):
            self.unify(ty, T.TEdge(), "in edge pattern")
            self.check_pattern(env, pat.src, T.TNode())
            self.check_pattern(env, pat.dst, T.TNode())
            return
        if isinstance(pat, A.PRecord):
            if isinstance(resolved, T.TVar):
                declared = self.record_with_label(pat.fields[0][0])
                if declared is None:
                    raise NvTypeError(f"no record type with field {pat.fields[0][0]!r}")
                self.unify(resolved, declared)
                resolved = declared
            if not isinstance(resolved, T.TRecord):
                raise NvTypeError(f"record pattern against {self.zonk(resolved)}")
            for name, sub in pat.fields:
                self.check_pattern(env, sub, resolved.field_type(name))
            return
        raise NvTypeError(f"unsupported pattern {pat}")

    # ------------------------------------------------------------------
    # Final annotation pass
    # ------------------------------------------------------------------

    def annotate(self, e: A.Expr, default_unsolved: bool = True) -> None:
        """Replace every ``.ty`` annotation with its zonked form; optionally
        default any remaining unification variable to ``int``."""
        stack = [e]
        while stack:
            x = stack.pop()
            if x.ty is not None:
                ty = self.zonk(x.ty)
                x.ty = _default(ty) if default_unsolved else ty
            stack.extend(x.children())


def _is_generalizable(e: A.Expr) -> bool:
    """The ML value restriction, specialised to NV: only generalise function
    expressions.  Generalising map-typed values (e.g. ``createDict 0``) would
    detach the declaration's own type annotation from its later uses, so the
    interpreter could build a map with the wrong key layout."""
    return isinstance(e, A.EFun)


def _infer_decls(program: A.Program) -> tuple[TypeChecker, dict[str, Scheme]]:
    """Infer every declaration of ``program`` in order; annotations are left
    un-zonked for :func:`_annotate_decls`, which runs once the whole program
    (and any signature constraint) is processed, so later uses refine earlier
    declarations."""
    record_types = [ty for ty in program.type_decls().values()
                    if isinstance(ty, T.TRecord)]
    checker = TypeChecker(record_types)
    env: dict[str, Scheme] = {}
    for decl in program.decls:
        if isinstance(decl, A.DSymbolic):
            env[decl.name] = Scheme((), decl.ty)
        elif isinstance(decl, A.DRequire):
            checker.unify(checker.infer(env, decl.expr), T.TBool(), "in require")
        elif isinstance(decl, A.DLet):
            ty = checker.infer(env, decl.expr)
            if decl.annot is not None:
                checker.unify(ty, decl.annot, f"in annotation of {decl.name!r}")
            if _is_generalizable(decl.expr):
                env[decl.name] = checker.generalize(env, ty)
            else:
                env[decl.name] = Scheme((), ty)
    return checker, env


def _annotate_decls(checker: TypeChecker, program: A.Program) -> None:
    for decl in program.decls:
        if isinstance(decl, (A.DLet, A.DRequire)):
            checker.annotate(decl.expr)


def check_program(program: A.Program) -> dict[str, Scheme]:
    """Infer types for every declaration of ``program`` in order.

    Returns the final environment mapping names to schemes.  Every expression
    in the program is annotated in place.
    """
    checker, env = _infer_decls(program)
    _annotate_decls(checker, program)
    return env


def check_network(program: A.Program) -> T.Type:
    """Check the fig 8 network signature and return the attribute type.

    ``init : node -> α``, ``trans : edge -> α -> α``,
    ``merge : node -> α -> α -> α``, ``assert : node -> α -> bool``.
    Each declaration's scheme is instantiated and *unified* with the expected
    shape (so e.g. a merge generalised over a map's key type is fine as long
    as the other declarations pin it down); the resolved attribute type α
    must come out concrete, as §3 requires of exchanged messages.
    """
    checker, env = _infer_decls(program)
    attr: T.Type = checker.fresh("attr")

    def require(name: str, want: T.Type, optional: bool = False) -> None:
        scheme = env.get(name)
        if scheme is None:
            if optional:
                return
            raise NvTypeError(f"program is missing the {name!r} declaration")
        checker.unify(checker.instantiate(scheme), want,
                      f"in the network signature of {name!r}")

    require("init", T.TArrow(T.TNode(), attr))
    require("trans", T.TArrow(T.TEdge(), T.TArrow(attr, attr)))
    require("merge", T.TArrow(T.TNode(), T.TArrow(attr, T.TArrow(attr, attr))))
    require("assert", T.TArrow(T.TNode(), T.TArrow(attr, T.TBool())),
            optional=True)

    _annotate_decls(checker, program)
    attr = checker.zonk(attr)
    if not attr.ground:
        raise NvTypeError(f"the attribute type must be concrete, got {attr}")
    return attr
