"""Error types shared by the NV language front end and back ends."""

from __future__ import annotations


class NvError(Exception):
    """Base class for all errors raised by the NV toolchain."""


class NvSyntaxError(NvError):
    """Raised by the lexer or parser on malformed NV source."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"{message} (line {line}, column {col})"
        super().__init__(message)


class NvTypeError(NvError):
    """Raised by the type checker on ill-typed NV programs."""


class NvRuntimeError(NvError):
    """Raised by the interpreter on dynamic failures (e.g. match failure)."""


class NvEncodingError(NvError):
    """Raised when a program cannot be encoded for a given back end
    (e.g. a non-constant map key in the MTBDD/SMT pipelines)."""


class NvPartitionError(NvError):
    """Raised by the modular-verification cutter/driver on invalid
    partitions, cut files or interface annotations."""
