"""The pattern lexer against the character-at-a-time oracle
(``lexer_oracle.py``): the same ``(kind, text, value, width, line, col)``
tokens, the same error text at the same position, on every bundled program
and on generated token soup.  The one divergence is a number run into word
characters (``12abc``), which the lexer rejects as one malformed literal
where the oracle split it."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend.to_nv import translate
from repro.lang.errors import NvSyntaxError
from repro.lang.lexer import tokenize
from repro.topology import leaf_nodes
from tests import helpers
from tests.lang import lexer_oracle as oracle
from tests.lang.test_annotation_digests import corpus, fattree_configs

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"
MALFORMED = re.compile(r"malformed number literal (.+) \(line (\d+), column (\d+)\)")


def lex(source: str):
    try:
        return [(t.kind, t.text, t.value, t.width, t.line, t.col)
                for t in tokenize(source)]
    except NvSyntaxError as exc:
        return str(exc)


def lex_oracle(source: str):
    try:
        return oracle.tokenize(source)
    except oracle.OracleError as exc:
        return str(NvSyntaxError(exc.message, exc.line, exc.col))


def offset(source: str, line: int, col: int) -> int:
    """Where a position is (only `\n` ends a line: `\r` is a blank)."""
    return sum(len(s) + 1 for s in source.split("\n")[:line - 1]) + col - 1


def assert_same(source: str) -> None:
    ours, theirs = lex(source), lex_oracle(source)
    found = MALFORMED.fullmatch(ours) if isinstance(ours, str) else None
    if found is None:
        assert ours == theirs, source
        return
    # Both lexers agree on everything before the run, and the oracle lexed
    # the run as a number and a word right behind it (or stopped inside it:
    # `5u0x` is a zero width to the oracle).
    text, line, col = ast.literal_eval(found[1]), int(found[2]), int(found[3])
    at = offset(source, line, col)
    assert source[at:at + len(text)] == text
    assert lex(source[:at]) == lex_oracle(source[:at])
    theirs = lex_oracle(source[:at + len(text)])
    if isinstance(theirs, str):
        err = re.search(r"\(line (\d+), column (\d+)\)$", theirs)
        assert int(err[1]) == line and col <= int(err[2]) <= col + len(text)
        return
    number, word, _eof = theirs[-3:]
    assert number[0] in ("int", "node") and word[0] in ("ident", "keyword", "_")
    assert (number[4], number[5]) == (line, col) and word[5] == col + len(number[1])
    assert number[1] + word[1] == text


def programs() -> dict[str, str]:
    out = {name: source for name, (source, _) in corpus().items()}
    out["translate(fattree_configs(4))"] = translate(
        fattree_configs(4), assert_prefix=f"10.0.{leaf_nodes(4)[0]}.0/24").source
    for name in dir(helpers):
        value = getattr(helpers, name)
        if isinstance(value, str) and name.isupper():
            out[f"helpers.{name}"] = value
    for path in sorted(EXAMPLES.glob("*.py")):     # NV sources and configs alike
        for i, node in enumerate(ast.walk(ast.parse(path.read_text()))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                out[f"{path.name}:{i}"] = node.value
    return out


PROGRAMS = programs()


def test_the_corpus_covers_every_source_kind():
    assert {"protocols/bgp", "protocols/rip", "translate(fattree_configs(4))",
            "wan_program(20,30)", "helpers.RIP_TRIANGLE"} <= set(PROGRAMS)
    assert sum(".py:" in name for name in PROGRAMS) > 20
    # No bundled program has a malformed literal (or any other lexical error).
    assert all(isinstance(lex(source), list) for name, source in PROGRAMS.items()
               if ".py:" not in name)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_bundled_sources_lex_as_before(name):
    assert_same(PROGRAMS[name])


#: Pieces of NV and of what is not NV: comments (nested, unterminated, at
#: the end of the input), CRLF and tabs, `_` words and primes, sized ints
#: and node literals (also run into words), every symbol, bad characters.
PIECES = [
    "let", "in", "match", "Some", "x", "x'", "b'", "'a", "_y", "_'", "_", "é",
    "(*", "*)", "(* c *)", "(* a (* b *)\n c *)", "(*)", "// c", "// (*\n",
    "\n", "\r\n", "\t", " ", "  ", "0", "12", "5u8", "1000u16", "0n", "3n",
    "7u0", "5u08", "12abc", "0n1", "5u", "3u8x", "1_000", "7'",
    ":=", "->", "<>", "<=", ">=", "&&", "||", "(", ")", "{", "}", "[", "]",
    ";", ":", ",", ".", "|", "=", "<", ">", "+", "-", "*", "!", "~",
    "$", "#", "@", "/", "?", "\x0c", " ",
]


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    st.lists(st.sampled_from(PIECES), max_size=30).map("".join),
    st.text(alphabet="ab_'019nu (*)/\n\r\t;:=<>-|&$é", max_size=40)))
def test_token_soup_lexes_as_before(source):
    assert_same(source)


@pytest.mark.parametrize("source, text, col", [
    ("x = 12abc", "12abc", 5), ("1_000", "1_000", 1), ("f 3u8x", "3u8x", 3),
    ("0n1", "0n1", 1), ("a\n  5u", "5u", 3), ("7'", "7'", 1),
])
def test_malformed_literals_are_one_error(source, text, col):
    """The divergence itself: one error at the run's first character."""
    found = MALFORMED.fullmatch(lex(source))
    assert found and ast.literal_eval(found[1]) == text and int(found[3]) == col
    assert isinstance(lex_oracle(source), list)      # the oracle split it
