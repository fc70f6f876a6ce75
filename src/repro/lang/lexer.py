"""Lexer for the NV surface syntax.

Token kinds mirror the paper's examples: OCaml-flavoured keywords, sized
integer literals (``5u8``), node literals (``0n``), and the operator set used
by figs 2, 3, 5 and 10.  Comments are ``(* ... *)`` (nesting) and ``//`` to
end of line.

One compiled alternation walks the source (DESIGN.md "Start-up path"); only
a block comment, which nests, leaves it for a small scan.  A number run into identifier
characters (``12abc``, ``1_000``, ``3u8x``, ``0n1``, ``5u``) is one malformed
literal, not a number followed by an identifier.
"""

from __future__ import annotations

import re

from .._struct import struct
from .errors import NvSyntaxError

KEYWORDS = {
    "let", "in", "fun", "if", "then", "else", "match", "with",
    "true", "false", "None", "Some", "symbolic", "require", "type",
    "include",
}

# Multi-character operators must be listed before their prefixes.
SYMBOLS = [
    ":=", "->", "<>", "<=", ">=", "&&", "||",
    "(", ")", "{", "}", "[", "]",
    ";", ":", ",", ".", "|", "=", "<", ">", "+", "-", "*", "!", "~", "_",
]

# Blanks ride along in front of the token they precede, so each match is one
# token (or a newline, a comment, or a bad character).  Alternatives are
# tried in order: `(*` before the symbol `(`, a word before the symbol `_`.
# A word starts with a letter or a prime, or with `_` and one more word
# character; a number is the whole run of word characters after a digit.
_TOKEN = re.compile(r"[ \t\r]*(?:"
                    r"(?P<comment>\(\*)"
                    r"|(?P<word>(?:[^\W\d_]|')[\w']*|_[\w']+)"
                    r"|(?P<symbol>" + "|".join(map(re.escape, SYMBOLS)) + ")"
                    r"|(?P<newline>\n)"
                    r"|(?P<number>\d[\w']*)"
                    r"|(?P<line_comment>//[^\n]*)"
                    r"|(?P<bad>[^ \t\r]))", re.DOTALL)
_NUMBER = re.compile(r"(\d+)(?:(n)|u(\d+))?")
_NESTING = re.compile(r"\(\*|\*\)|\n")


@struct(slots=True)
class Token:
    kind: str      # 'ident' | 'int' | 'node' | 'keyword' | symbol text | 'eof'
    text: str
    value: int | None = None   # for int/node literals
    width: int | None = None   # for sized int literals
    line: int = 0
    col: int = 0


def tokenize(source: str) -> list[Token]:
    """Turn NV source text into a token list ending with an ``eof`` token."""
    tokens: list[Token] = []
    append = tokens.append
    line, line_start = 1, 0     # a column is ``offset - line_start + 1``
    eof_col = None              # a `//` comment at the very end keeps its column
    pos, n = 0, len(source)
    while pos < n:              # one pass per block comment
        for m in _TOKEN.finditer(source, pos):
            kind = m.lastgroup
            if kind == "symbol":
                text = m.group(kind)
                append(Token(text, text, None, None, line,
                             m.start(kind) - line_start + 1))
            elif kind == "word":
                text = m.group(kind)
                append(Token("keyword" if text in KEYWORDS else "ident", text,
                             None, None, line, m.start(kind) - line_start + 1))
            elif kind == "newline":
                line += 1
                line_start = m.end()
            elif kind == "number":
                text = m.group(kind)
                start = m.start(kind)
                col = start - line_start + 1
                num = _NUMBER.fullmatch(text)
                if num is None:
                    raise NvSyntaxError(f"malformed number literal {text!r}", line, col)
                digits, node, width = num.groups()
                if node:
                    append(Token("node", text, int(digits), None, line, col))
                elif width is None:
                    append(Token("int", text, int(digits), None, line, col))
                elif int(width) <= 0:
                    raise NvSyntaxError("integer width must be positive",
                                        line, col + len(text))
                else:
                    append(Token("int", text, int(digits), int(width), line, col))
            elif kind == "comment":
                pos, line, line_start = _skip_comment(
                    source, m.start(kind), line, line_start)
                break
            elif kind == "line_comment":
                if m.end() == n:
                    eof_col = m.start(kind) - line_start + 1
            elif kind == "bad":
                start = m.start(kind)
                raise NvSyntaxError(f"unexpected character {source[start]!r}",
                                    line, start - line_start + 1)
        else:
            break
    append(Token("eof", "", None, None, line,
                 eof_col if eof_col is not None else n - line_start + 1))
    return tokens


def _skip_comment(source: str, start: int, line: int,
                  line_start: int) -> tuple[int, int, int]:
    """Past the block comment opening at ``start``: ``(offset, line,
    line_start)`` after its closing ``*)``."""
    depth, first_line, first_col = 0, line, start - line_start + 1
    for m in _NESTING.finditer(source, start):
        mark = m.group()
        if mark == "\n":
            line += 1
            line_start = m.end()
        elif mark == "(*":
            depth += 1
        else:
            depth -= 1
            if not depth:
                return m.end(), line, line_start
    raise NvSyntaxError("unterminated comment", first_line, first_col)
