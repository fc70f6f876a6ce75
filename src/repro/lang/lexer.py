"""Lexer for the NV surface syntax.

Token kinds mirror the paper's examples: OCaml-flavoured keywords, sized
integer literals (``5u8``), node literals (``0n``), and the operator set used
by figs 2, 3, 5 and 10.  Comments are ``(* ... *)`` (nesting) and ``//`` to
end of line.
"""

from __future__ import annotations

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


@struct(slots=True)
class Token:
    kind: str      # 'ident' | 'int' | 'node' | 'keyword' | symbol text | 'eof'
    text: str
    value: int | None = None   # for int/node literals
    width: int | None = None   # for sized int literals
    line: int = 0
    col: int = 0

    def __repr__(self) -> str:
        return f"Token({self.kind!r}, {self.text!r})"


def tokenize(source: str) -> list[Token]:
    """Turn NV source text into a token list ending with an ``eof`` token."""
    tokens: list[Token] = []
    i = 0
    line = 1
    col = 1
    n = len(source)

    def error(message: str) -> NvSyntaxError:
        return NvSyntaxError(message, line, col)

    while i < n:
        ch = source[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        if source.startswith("(*", i):
            depth = 1
            start_line, start_col = line, col
            i += 2
            col += 2
            while i < n and depth:
                if source.startswith("(*", i):
                    depth += 1
                    i += 2
                    col += 2
                elif source.startswith("*)", i):
                    depth -= 1
                    i += 2
                    col += 2
                elif source[i] == "\n":
                    i += 1
                    line += 1
                    col = 1
                else:
                    i += 1
                    col += 1
            if depth:
                raise NvSyntaxError("unterminated comment", start_line, start_col)
            continue
        if ch.isdigit():
            start = i
            start_col = col
            while i < n and source[i].isdigit():
                i += 1
                col += 1
            value = int(source[start:i])
            if i < n and source[i] == "n" and not _ident_continues(source, i + 1):
                i += 1
                col += 1
                tokens.append(Token("node", source[start:i], value=value,
                                    line=line, col=start_col))
            elif i < n and source[i] == "u" and i + 1 < n and source[i + 1].isdigit():
                i += 1
                col += 1
                wstart = i
                while i < n and source[i].isdigit():
                    i += 1
                    col += 1
                width = int(source[wstart:i])
                if width <= 0:
                    raise error("integer width must be positive")
                tokens.append(Token("int", source[start:i], value=value,
                                    width=width, line=line, col=start_col))
            else:
                tokens.append(Token("int", source[start:i], value=value,
                                    width=None, line=line, col=start_col))
            continue
        if ch.isalpha() or ch == "'":
            start = i
            start_col = col
            while i < n and (source[i].isalnum() or source[i] in "_'"):
                i += 1
                col += 1
            text = source[start:i]
            kind = "keyword" if text in KEYWORDS else "ident"
            tokens.append(Token(kind, text, line=line, col=start_col))
            continue
        if ch == "_" and _ident_continues(source, i + 1):
            # An identifier starting with underscore.
            start = i
            start_col = col
            while i < n and (source[i].isalnum() or source[i] in "_'"):
                i += 1
                col += 1
            tokens.append(Token("ident", source[start:i], line=line, col=start_col))
            continue
        for sym in SYMBOLS:
            if source.startswith(sym, i):
                tokens.append(Token(sym, sym, line=line, col=col))
                i += len(sym)
                col += len(sym)
                break
        else:
            raise error(f"unexpected character {ch!r}")

    tokens.append(Token("eof", "", line=line, col=col))
    return tokens


def _ident_continues(source: str, i: int) -> bool:
    return i < len(source) and (source[i].isalnum() or source[i] in "_'")
