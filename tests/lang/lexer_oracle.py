"""Reference oracle for ``repro.lang.lexer``: the character-at-a-time
tokenizer as it stood before the lexer became one compiled pattern.  It is
the specification ``test_lexer_oracle.py`` holds the pattern lexer to, token
by token and error by error.  Slow and obvious on purpose — do not optimise,
and share no code with ``repro.lang.lexer``.

Tokens are ``(kind, text, value, width, line, col)`` tuples; a lexical error
is :class:`OracleError` with the message and position the lexer reports.
The one divergence, kept out of the comparison by the test, is a number run
into identifier characters (``12abc``): the oracle splits it into a number
and an identifier, the lexer rejects it as a malformed number literal."""

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


class OracleError(Exception):
    def __init__(self, message, line, col):
        super().__init__(message, line, col)
        self.message, self.line, self.col = message, line, col


def tokenize(source):
    tokens = []
    i = 0
    line = 1
    col = 1
    n = len(source)

    def tok(kind, text, value=None, width=None, line_=None, col_=None):
        tokens.append((kind, text, value, width, line_, col_))

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
                raise OracleError("unterminated comment", start_line, start_col)
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
                tok("node", source[start:i], value, None, line, start_col)
            elif i < n and source[i] == "u" and i + 1 < n and source[i + 1].isdigit():
                i += 1
                col += 1
                wstart = i
                while i < n and source[i].isdigit():
                    i += 1
                    col += 1
                width = int(source[wstart:i])
                if width <= 0:
                    raise OracleError("integer width must be positive", line, col)
                tok("int", source[start:i], value, width, line, start_col)
            else:
                tok("int", source[start:i], value, None, line, start_col)
            continue
        if ch.isalpha() or ch == "'":
            start = i
            start_col = col
            while i < n and (source[i].isalnum() or source[i] in "_'"):
                i += 1
                col += 1
            text = source[start:i]
            tok("keyword" if text in KEYWORDS else "ident", text, None, None,
                line, start_col)
            continue
        if ch == "_" and _ident_continues(source, i + 1):
            start = i
            start_col = col
            while i < n and (source[i].isalnum() or source[i] in "_'"):
                i += 1
                col += 1
            tok("ident", source[start:i], None, None, line, start_col)
            continue
        for sym in SYMBOLS:
            if source.startswith(sym, i):
                tok(sym, sym, None, None, line, col)
                i += len(sym)
                col += len(sym)
                break
        else:
            raise OracleError(f"unexpected character {ch!r}", line, col)

    tok("eof", "", None, None, line, col)
    return tokens


def _ident_continues(source, i):
    return i < len(source) and (source[i].isalnum() or source[i] in "_'")
