"""Lexer tests: token kinds, literals, comments, error positions."""

import pytest

from repro.lang.errors import NvSyntaxError
from repro.lang.lexer import tokenize


def kinds(src):
    return [t.kind for t in tokenize(src)]


def texts(src):
    return [t.text for t in tokenize(src) if t.kind != "eof"]


class TestLiterals:
    def test_plain_int(self):
        (tok, _) = tokenize("42")
        assert tok.kind == "int" and tok.value == 42 and tok.width is None

    def test_sized_int(self):
        (tok, _) = tokenize("5u8")
        assert tok.kind == "int" and tok.value == 5 and tok.width == 8

    def test_wide_sized_int(self):
        (tok, _) = tokenize("1000u16")
        assert tok.value == 1000 and tok.width == 16

    def test_node_literal(self):
        (tok, _) = tokenize("3n")
        assert tok.kind == "node" and tok.value == 3

    def test_node_vs_identifier(self):
        # `3nodes` is not a node literal: 'n' continues into an identifier,
        # which makes the whole run one malformed number.
        toks = tokenize("3 nodes")
        assert toks[0].kind == "int"
        assert toks[1].kind == "ident" and toks[1].text == "nodes"
        with pytest.raises(NvSyntaxError, match="malformed number literal '3nodes'"):
            tokenize("3nodes")

    def test_zero_width_rejected(self):
        with pytest.raises(NvSyntaxError):
            tokenize("5u0")


class TestIdentifiers:
    def test_keywords(self):
        assert kinds("let match with fun if then else")[:-1] == ["keyword"] * 7

    def test_primed_identifier(self):
        toks = tokenize("b' e'")
        assert toks[0].text == "b'" and toks[1].text == "e'"

    def test_underscore_identifier(self):
        toks = tokenize("_foo")
        assert toks[0].kind == "ident" and toks[0].text == "_foo"

    def test_bare_underscore_is_symbol(self):
        toks = tokenize("_ x")
        assert toks[0].kind == "_"


class TestOperators:
    def test_multichar_operators(self):
        assert texts("-> := <> <= >= && ||") == ["->", ":=", "<>", "<=", ">=", "&&", "||"]

    def test_brackets(self):
        assert texts("m[k := v]") == ["m", "[", "k", ":=", "v", "]"]


class TestComments:
    def test_line_comment(self):
        assert texts("x // the rest\ny") == ["x", "y"]

    def test_block_comment(self):
        assert texts("a (* b c *) d") == ["a", "d"]

    def test_nested_block_comment(self):
        assert texts("a (* x (* y *) z *) b") == ["a", "b"]

    def test_unterminated_comment(self):
        with pytest.raises(NvSyntaxError):
            tokenize("a (* never closed")


class TestPositions:
    def test_line_tracking(self):
        toks = tokenize("a\nb\n  c")
        assert toks[0].line == 1
        assert toks[1].line == 2
        assert toks[2].line == 3 and toks[2].col == 3

    def test_error_has_position(self):
        with pytest.raises(NvSyntaxError) as exc:
            tokenize("x\n  $")
        assert exc.value.line == 2
