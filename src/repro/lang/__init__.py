"""The NV language front end: syntax, parsing, types (paper §3, fig 6)."""

from .errors import (NvEncodingError, NvError, NvRuntimeError, NvSyntaxError,
                     NvTypeError)

__all__ = [
    "parse_program", "parse_expr", "check_program", "check_network",
    "NvError", "NvSyntaxError", "NvTypeError", "NvRuntimeError",
    "NvEncodingError",
]


def __getattr__(name: str):
    # PEP 562, as in ``repro/__init__.py``: importing ``repro.lang.errors``
    # (every CLI command does) loads no parser, checker, AST or type class.
    if name in ("parse_program", "parse_expr"):
        from . import parser as module
    elif name in ("check_program", "check_network"):
        from . import typecheck as module
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(module, name)
    return value
