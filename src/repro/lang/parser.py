"""Recursive-descent parser for the NV surface syntax.

Produces the :mod:`repro.lang.ast` representation.  The parser resolves type
aliases eagerly (so the AST contains structural types only), desugars set
literals into map operations, and turns the fully-applied builtin map
functions (``createDict``, ``map``, ``mapIte``, ``combine``) into ``EOp``
nodes.  ``include`` declarations are resolved through a caller-supplied module
registry (the :mod:`repro.protocols` package registers the models from the
paper's figures).
"""

from __future__ import annotations

from typing import Callable

from . import ast as A
from . import types as T
from .errors import NvSyntaxError
from .lexer import Token, tokenize

# Builtin map functions (fig 7) and their arities.
BUILTIN_OPS = {
    "createDict": ("mcreate", 1),
    "map": ("mmap", 2),
    "mapIte": ("mmapite", 4),
    "combine": ("mcombine", 3),
}


class Parser:
    def __init__(self, tokens: list[Token],
                 type_env: dict[str, T.Type] | None = None) -> None:
        self.tokens = tokens
        self.pos = 0
        # Type alias environment, threaded through declarations.
        self.type_env: dict[str, T.Type] = dict(type_env or {})

    # ------------------------------------------------------------------
    # Token helpers
    # ------------------------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        # The list ends in `eof` and `next` never steps past it, so only a
        # lookahead can run off the end.
        if offset:
            return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, kind: str, text: str | None = None) -> bool:
        tok = self.tokens[self.pos]
        return tok.kind == kind and (text is None or tok.text == text)

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        if self.at(kind, text):
            return self.next()
        return None

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.peek()
        if not self.at(kind, text):
            want = text or kind
            raise NvSyntaxError(f"expected {want!r}, found {tok.text!r}", tok.line, tok.col)
        return self.next()

    def error(self, message: str) -> NvSyntaxError:
        tok = self.peek()
        return NvSyntaxError(message + f" (found {tok.text!r})", tok.line, tok.col)

    # ------------------------------------------------------------------
    # Declarations
    # ------------------------------------------------------------------

    def parse_program(self, include_resolver: Callable[[str], str] | None = None,
                      _included: set[str] | None = None) -> A.Program:
        included = _included if _included is not None else set()
        decls: list[A.Decl] = []
        while not self.at("eof"):
            decls.extend(self.parse_decl(include_resolver, included))
        return A.Program(decls)

    def parse_decl(self, include_resolver, included: set[str]) -> list[A.Decl]:
        if self.accept("keyword", "include"):
            name = self.expect("ident").text
            if name in included:
                return []
            included.add(name)
            if include_resolver is None:
                raise self.error(f"no include resolver for module {name!r}")
            sub = Parser(tokenize(include_resolver(name)), self.type_env)
            subprog = sub.parse_program(include_resolver, included)
            self.type_env.update(sub.type_env)
            return [A.DInclude(name)] + subprog.decls
        if self.accept("keyword", "type"):
            name = self.expect("ident").text
            self.expect("=")
            ty = self.parse_type()
            self.type_env[name] = ty
            return [A.DType(name, ty)]
        if self.accept("keyword", "symbolic"):
            name = self.expect("ident").text
            self.expect(":")
            ty = self.parse_type()
            return [A.DSymbolic(name, ty)]
        if self.accept("keyword", "require"):
            return [A.DRequire(self.parse_expr())]
        if self.at("keyword", "let"):
            return [self.parse_let_decl()]
        raise self.error("expected a declaration")

    def parse_let_decl(self) -> A.Decl:
        self.expect("keyword", "let")
        name = self.expect("ident").text
        if name == "nodes" and self.at("="):
            self.expect("=")
            count = self.expect("int")
            return A.DNodes(count.value)
        if name == "edges" and self.at("="):
            self.expect("=")
            return A.DEdges(self.parse_edge_set())
        params = self.parse_params()
        annot: T.Type | None = None
        if self.accept(":"):
            annot = self.parse_type()
        self.expect("=")
        body = self.parse_expr()
        expr = _make_funs(params, body)
        return A.DLet(name, expr, annot=annot)

    def parse_edge_set(self) -> tuple[tuple[int, int], ...]:
        """Parse the topology literal ``{0n=1n; 1n=2n; ...}``.

        Each entry declares a bidirectional physical link; the network model
        turns it into two directed edges.
        """
        self.expect("{")
        edges: list[tuple[int, int]] = []
        while not self.at("}"):
            src = self.expect("node")
            self.expect("=")
            dst = self.expect("node")
            edges.append((src.value, dst.value))
            if not self.accept(";"):
                break
        self.expect("}")
        return tuple(edges)

    def parse_params(self) -> list[tuple[str, T.Type | None]]:
        """Zero or more parameters: ``x`` or ``(x y : ty)``."""
        params: list[tuple[str, T.Type | None]] = []
        while True:
            if self.at("ident") and not self.at("="):
                # A bare parameter name (but not the `=` that ends the header).
                params.append((self.next().text, None))
                continue
            if self.at("(") and self.peek(1).kind == "ident" and (
                self.peek(2).kind in (":", "ident") or self.peek(2).text == ")"
            ):
                # Possibly `(x : ty)` or `(x y : ty)` or `(x)`.
                save = self.pos
                self.next()  # (
                names = []
                while self.at("ident"):
                    names.append(self.next().text)
                if self.accept(":"):
                    ty = self.parse_type()
                    self.expect(")")
                    params.extend((n, ty) for n in names)
                    continue
                if len(names) == 1 and self.accept(")"):
                    params.append((names[0], None))
                    continue
                self.pos = save  # not a parameter list; treat as expression
                break
            break
        return params

    # ------------------------------------------------------------------
    # Types
    # ------------------------------------------------------------------

    def parse_type(self) -> T.Type:
        ty = self.parse_type_atom()
        if self.accept("->"):
            return T.TArrow(ty, self.parse_type())
        return ty

    def parse_type_atom(self) -> T.Type:
        tok = self.peek()
        if tok.kind == "ident":
            name = self.next().text
            if name == "bool":
                return T.TBool()
            if name == "node":
                return T.TNode()
            if name == "edge":
                return T.TEdge()
            if name == "int":
                return T.TInt(32)
            if name.startswith("int") and name[3:].isdigit():
                return T.TInt(int(name[3:]))
            if name == "option":
                self.expect("[")
                elt = self.parse_type()
                self.expect("]")
                return T.TOption(elt)
            if name == "set":
                self.expect("[")
                elt = self.parse_type()
                self.expect("]")
                return T.tset(elt)
            if name == "dict":
                self.expect("[")
                key = self.parse_type()
                self.expect(",")
                value = self.parse_type()
                self.expect("]")
                return T.TDict(key, value)
            if name in self.type_env:
                return self.type_env[name]
            raise NvSyntaxError(f"unknown type {name!r}", tok.line, tok.col)
        if self.accept("("):
            tys = [self.parse_type()]
            while self.accept(","):
                tys.append(self.parse_type())
            self.expect(")")
            if len(tys) == 1:
                return tys[0]
            return T.TTuple(tuple(tys))
        if self.accept("{"):
            fields: list[tuple[str, T.Type]] = []
            while not self.at("}"):
                label = self.expect("ident").text
                self.expect(":")
                fields.append((label, self.parse_type()))
                if not self.accept(";"):
                    break
            self.expect("}")
            return T.TRecord(tuple(fields))
        raise NvSyntaxError(f"expected a type, found {tok.text!r}", tok.line, tok.col)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def parse_expr(self) -> A.Expr:
        tok = self.peek()
        if tok.kind == "keyword" and tok.text == "let":
            return self.parse_let_expr()
        if tok.kind == "keyword" and tok.text == "fun":
            return self.parse_fun()
        if tok.kind == "keyword" and tok.text == "if":
            return self.parse_if()
        if tok.kind == "keyword" and tok.text == "match":
            return self.parse_match()
        return self.parse_or()

    def parse_let_expr(self) -> A.Expr:
        tok = self.expect("keyword", "let")
        span = (tok.line, tok.col)
        if self.at("("):
            # Destructuring let: `let (u, v) = e1 in e2`.
            pat = self.parse_pattern()
            self.expect("=")
            bound = self.parse_expr()
            self.expect("keyword", "in")
            body = self.parse_expr()
            return A.ELetPat(pat, bound, body, span=span)
        name = self.expect("ident").text
        params = self.parse_params()
        annot = None
        if self.accept(":"):
            annot = self.parse_type()
        self.expect("=")
        bound = _make_funs(params, self.parse_expr())
        self.expect("keyword", "in")
        body = self.parse_expr()
        return A.ELet(name, bound, body, annot=annot, span=span)

    def parse_fun(self) -> A.Expr:
        tok = self.expect("keyword", "fun")
        params = self.parse_params()
        if not params:
            raise self.error("fun requires at least one parameter")
        self.expect("->")
        body = self.parse_expr()
        e = _make_funs(params, body)
        if isinstance(e, A.EFun):
            e.span = (tok.line, tok.col)
        return e

    def parse_if(self) -> A.Expr:
        tok = self.expect("keyword", "if")
        cond = self.parse_expr()
        self.expect("keyword", "then")
        then = self.parse_expr()
        self.expect("keyword", "else")
        els = self.parse_expr()
        return A.EIf(cond, then, els, span=(tok.line, tok.col))

    def parse_match(self) -> A.Expr:
        tok = self.expect("keyword", "match")
        scrutinee = self.parse_expr()
        if self.at(","):
            elts = [scrutinee]
            while self.accept(","):
                elts.append(self.parse_expr())
            scrutinee = A.ETuple(tuple(elts), span=(tok.line, tok.col))
        self.expect("keyword", "with")
        branches: list[tuple[A.Pattern, A.Expr]] = []
        self.accept("|")
        while True:
            pat = self.parse_pattern_list()
            self.expect("->")
            body = self.parse_expr()
            branches.append((pat, body))
            if not self.accept("|"):
                break
        return A.EMatch(scrutinee, tuple(branches), span=(tok.line, tok.col))

    def parse_or(self) -> A.Expr:
        e = self.parse_and()
        while self.at("||"):
            tok = self.next()
            rhs = self.parse_and()
            e = A.EOp("or", (e, rhs), span=(tok.line, tok.col))
        return e

    def parse_and(self) -> A.Expr:
        e = self.parse_cmp()
        while self.at("&&"):
            tok = self.next()
            rhs = self.parse_cmp()
            e = A.EOp("and", (e, rhs), span=(tok.line, tok.col))
        return e

    def parse_cmp(self) -> A.Expr:
        e = self.parse_add()
        tok = self.peek()
        if tok.kind in ("=", "<>", "<", "<=", ">", ">="):
            self.next()
            rhs = self.parse_add()
            span = (tok.line, tok.col)
            if tok.kind == "=":
                return A.EOp("eq", (e, rhs), span=span)
            if tok.kind == "<>":
                return A.EOp("not", (A.EOp("eq", (e, rhs), span=span),), span=span)
            if tok.kind == "<":
                return A.EOp("lt", (e, rhs), span=span)
            if tok.kind == "<=":
                return A.EOp("le", (e, rhs), span=span)
            if tok.kind == ">":
                return A.EOp("lt", (rhs, e), span=span)
            return A.EOp("le", (rhs, e), span=span)
        return e

    def parse_add(self) -> A.Expr:
        e = self.parse_unary()
        while self.peek().kind in ("+", "-"):
            tok = self.next()
            rhs = self.parse_unary()
            op = "add" if tok.kind == "+" else "sub"
            e = A.EOp(op, (e, rhs), span=(tok.line, tok.col))
        return e

    def parse_unary(self) -> A.Expr:
        if self.at("!"):
            tok = self.next()
            return A.EOp("not", (self.parse_unary(),), span=(tok.line, tok.col))
        return self.parse_app()

    def parse_app(self) -> A.Expr:
        head = self.parse_postfix()
        args: list[A.Expr] = []
        while self.starts_atom():
            args.append(self.parse_postfix())
        if not args:
            return head
        # Fully-applied builtin map functions become operators.
        if isinstance(head, A.EVar) and head.name in BUILTIN_OPS:
            opname, arity = BUILTIN_OPS[head.name]
            if len(args) != arity:
                raise self.error(
                    f"builtin {head.name!r} expects {arity} arguments, got {len(args)}"
                )
            return A.EOp(opname, tuple(args), span=head.span)
        e = head
        for arg in args:
            e = A.EApp(e, arg, span=head.span)
        return e

    def starts_atom(self) -> bool:
        tok = self.peek()
        if tok.kind in ("ident", "int", "node", "(", "{"):
            return True
        if tok.kind == "keyword" and tok.text in ("true", "false", "None", "Some"):
            return True
        return False

    def parse_postfix(self) -> A.Expr:
        e = self.parse_atom()
        while True:
            if self.at("."):
                self.next()
                tok = self.peek()
                if tok.kind == "int":
                    self.next()
                    e = A.ETupleGet(e, tok.value, -1, span=(tok.line, tok.col))
                else:
                    label = self.expect("ident").text
                    e = A.EProj(e, label, span=(tok.line, tok.col))
                continue
            if self.at("["):
                tok = self.next()
                key = self.parse_expr()
                if self.accept(":="):
                    value = self.parse_expr()
                    self.expect("]")
                    e = A.EOp("mset", (e, key, value), span=(tok.line, tok.col))
                else:
                    self.expect("]")
                    e = A.EOp("mget", (e, key), span=(tok.line, tok.col))
                continue
            break
        return e

    def parse_atom(self) -> A.Expr:
        tok = self.peek()
        span = (tok.line, tok.col)
        if tok.kind == "ident":
            self.next()
            return A.EVar(tok.text, span=span)
        if tok.kind == "int":
            self.next()
            return A.EInt(tok.value, tok.width or 32, span=span)
        if tok.kind == "node":
            self.next()
            return A.ENode(tok.value, span=span)
        if tok.kind == "keyword":
            if tok.text == "true":
                self.next()
                return A.EBool(True, span=span)
            if tok.text == "false":
                self.next()
                return A.EBool(False, span=span)
            if tok.text == "None":
                self.next()
                return A.ENone(span=span)
            if tok.text == "Some":
                self.next()
                return A.ESome(self.parse_postfix(), span=span)
            # `let`, `if`, `match`, `fun` appearing as an atom (e.g. as a
            # function argument) must be parenthesised.
            raise self.error("expected an expression atom")
        if self.accept("("):
            elts = [self.parse_expr()]
            while self.accept(","):
                elts.append(self.parse_expr())
            self.expect(")")
            if len(elts) == 1:
                return elts[0]
            return A.ETuple(tuple(elts), span=span)
        if self.at("{"):
            return self.parse_brace(span)
        raise self.error("expected an expression")

    def parse_brace(self, span: tuple[int, int]) -> A.Expr:
        """Disambiguate ``{}`` (empty set), ``{e1, e2}`` (set literal),
        ``{l = e; ...}`` (record), and ``{e with l = e; ...}`` (update)."""
        self.expect("{")
        if self.accept("}"):
            return _empty_set(span)
        if self.at("ident") and self.peek(1).kind == "=":
            fields: list[tuple[str, A.Expr]] = []
            while not self.at("}"):
                label = self.expect("ident").text
                self.expect("=")
                fields.append((label, self.parse_expr()))
                if not self.accept(";"):
                    break
            self.expect("}")
            return A.ERecord(tuple(fields), span=span)
        first = self.parse_expr()
        if self.at("keyword", "with") or (self.at("ident") and self.peek().text == "with"):
            self.next()
            updates: list[tuple[str, A.Expr]] = []
            while not self.at("}"):
                label = self.expect("ident").text
                self.expect("=")
                updates.append((label, self.parse_expr()))
                if not self.accept(";"):
                    break
            self.expect("}")
            return A.ERecordWith(first, tuple(updates), span=span)
        elts = [first]
        while self.accept(","):
            elts.append(self.parse_expr())
        self.expect("}")
        e: A.Expr = _empty_set(span)
        for elt in elts:
            e = A.EOp("mset", (e, elt, A.EBool(True, span=span)), span=span)
        return e

    # ------------------------------------------------------------------
    # Patterns
    # ------------------------------------------------------------------

    def parse_pattern_list(self) -> A.Pattern:
        """A comma-separated pattern list (for multi-scrutinee matches)."""
        pat = self.parse_pattern()
        if self.at(","):
            pats = [pat]
            while self.accept(","):
                pats.append(self.parse_pattern())
            return A.PTuple(tuple(pats))
        return pat

    def parse_pattern(self) -> A.Pattern:
        tok = self.peek()
        if tok.kind == "_":
            self.next()
            return A.PWild()
        if tok.kind == "ident":
            self.next()
            if tok.text == "_":
                return A.PWild()
            return A.PVar(tok.text)
        if tok.kind == "int":
            self.next()
            return A.PInt(tok.value, tok.width or 32)
        if tok.kind == "node":
            self.next()
            return A.PNode(tok.value)
        if tok.kind == "keyword":
            if tok.text == "true":
                self.next()
                return A.PBool(True)
            if tok.text == "false":
                self.next()
                return A.PBool(False)
            if tok.text == "None":
                self.next()
                return A.PNone()
            if tok.text == "Some":
                self.next()
                return A.PSome(self.parse_pattern())
        if self.accept("("):
            pats = [self.parse_pattern()]
            while self.accept(","):
                pats.append(self.parse_pattern())
            self.expect(")")
            if len(pats) == 1:
                return pats[0]
            return A.PTuple(tuple(pats))
        if self.accept("{"):
            fields: list[tuple[str, A.Pattern]] = []
            while not self.at("}"):
                label = self.expect("ident").text
                self.expect("=")
                fields.append((label, self.parse_pattern()))
                if not self.accept(";"):
                    break
            self.expect("}")
            return A.PRecord(tuple(fields))
        raise self.error("expected a pattern")


def _make_funs(params: list[tuple[str, T.Type | None]], body: A.Expr) -> A.Expr:
    e = body
    for name, ty in reversed(params):
        e = A.EFun(name, e, param_ty=ty)
    return e


def _empty_set(span: tuple[int, int]) -> A.Expr:
    return A.EOp("mcreate", (A.EBool(False, span=span),), span=span)


def parse_program(source: str,
                  include_resolver: Callable[[str], str] | None = None) -> A.Program:
    """Parse a complete NV program from source text."""
    return Parser(tokenize(source)).parse_program(include_resolver)


def parse_expr(source: str,
               type_env: dict[str, T.Type] | None = None) -> A.Expr:
    """Parse a single NV expression (handy in tests and the REPL).

    ``type_env`` supplies type aliases (e.g. a program's ``attribute``) so
    ascriptions like ``fun (x : attribute) -> ...`` parse outside a full
    program — interface annotations in cut files rely on this.
    """
    parser = Parser(tokenize(source), type_env=dict(type_env or {}))
    e = parser.parse_expr()
    parser.expect("eof")
    return e
