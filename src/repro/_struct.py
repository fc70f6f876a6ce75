"""Record classes without :mod:`dataclasses` (DESIGN.md "Start-up path").

``@struct`` is the subset of ``@dataclass`` this package uses: ``frozen``,
``slots``, ``eq=False``; ``field(default=, default_factory=, init=, repr=,
compare=)``; ``__post_init__``; inheritance; ``__match_args__``; pickling of
frozen slotted classes; :func:`replace`.  ``__init__`` / ``__eq__`` /
``__hash__`` are the ones ``dataclasses`` would write, without ``inspect``;
a method the class body defines wins.  Left out: ``order``, ``unsafe_hash``,
``kw_only``, ``InitVar`` / ``ClassVar``, the signature ``__doc__``, the
recursive-``repr`` guard (no record is cyclic).

Each class's methods are written out as Python text, and that text is
compiled when the package is, not in every process: the ``_records.py`` of
the class's package (``repro/lang/_records.py`` for ``repro.lang.ast``) maps
it to a function that defines the methods, so a process unmarshals only the
packages it imports.  This module generates those files (``python -m
repro._struct``; ``--check`` only compares).  A class whose text is not
there fails its import with that command in the message — there is no
fallback that compiles at run time.
"""

_MISSING = object()
_FACTORY = object()     # __init__ default of a field that has a default_factory
_set = object.__setattr__
_built = None           # under `compiling()`: (text, names, class) per class
_tables = {}            # package -> its generated METHODS

REGENERATE = "PYTHONPATH=src python -m repro._struct"


class field:
    __slots__ = ("default", "default_factory", "init", "repr", "compare")

    def __init__(self, *, default=_MISSING, default_factory=_MISSING, init=True,
                 repr=True, compare=True):
        if default is not _MISSING and default_factory is not _MISSING:
            raise ValueError("cannot specify both default and default_factory")
        self.default, self.default_factory = default, default_factory
        self.init, self.repr, self.compare = init, repr, compare


def replace(obj, /, **changes):
    """A new ``type(obj)`` from ``obj``'s init fields with ``changes`` on top."""
    for name, f in obj.__struct_fields__.items():
        if not f.init:
            if name in changes:
                raise ValueError(f"field {name} has init=False: replace() cannot set it")
        elif name not in changes:
            changes[name] = getattr(obj, name)
    return obj.__class__(**changes)


def _repr(self):      # shared: a record's repr is never on a hot path
    shown = (f"{n}={getattr(self, n)!r}" for n, f in self.__struct_fields__.items() if f.repr)
    return f"{self.__class__.__qualname__}({', '.join(shown)})"


_FROZEN = '''
def __setattr__(self, name, value): raise AttributeError(f"cannot assign to field {name!r}")
def __delattr__(self, name): raise AttributeError(f"cannot delete field {name!r}")'''
# Default slot pickling restores through setattr, which _FROZEN refuses.
_PICKLE = '''
def __getstate__(self): return [getattr(self, n) for n in self.__struct_fields__]
def __setstate__(self, state):
  for n, v in zip(self.__struct_fields__, state): _set(self, n, v)'''


def struct(cls=None, /, *, frozen=False, slots=False, eq=True):
    if cls is None:
        return lambda c: struct(c, frozen=frozen, slots=slots, eq=eq)
    own, fields = cls.__dict__, {}
    for base in cls.__mro__[-1:0:-1]:
        fields.update(getattr(base, "__struct_fields__", {}))
    for name in own.get("__annotations__", {}):
        f = own.get(name, _MISSING)
        if not isinstance(f, field):
            f = field(default=f)
        elif f.default is _MISSING:
            delattr(cls, name)
        else:
            setattr(cls, name, f.default)
        if f.default.__class__.__hash__ is None:
            raise ValueError(f"mutable default for field {name}: use default_factory")
        fields[name] = f
    cls.__struct_fields__ = fields

    # The names the text reads besides `self`: its defaults and factories.
    ns = {"_FACTORY": _FACTORY, "_set": _set}
    params, body, defaulted = [], [], None
    for name, f in fields.items():
        default, value = "", name
        if f.default_factory is not _MISSING:
            ns[f"_f_{name}"] = f.default_factory
            default, value = "=_FACTORY", f"_f_{name}()"
            if f.init:
                value += f" if {name} is _FACTORY else {name}"
        elif f.default is not _MISSING:
            ns[f"_d_{name}"] = f.default
            default, value = f"=_d_{name}", name if f.init else f"_d_{name}"
        elif not f.init:
            continue        # __post_init__ assigns it
        if f.init:
            if default:
                defaulted = name
            elif defaulted:
                raise TypeError(f"non-default argument {name!r} follows default argument")
            params.append(name + default)
        body.append(f"_set(self, {name!r}, {value})" if frozen else f"self.{name} = {value}")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    src = f"def __init__({', '.join(['self', *params])}):\n  " + "\n  ".join(body or ["pass"])
    made = {"__repr__": _repr, "__match_args__": tuple(n for n, f in fields.items() if f.init)}
    if eq:
        mine, theirs = ("".join(f"{who}.{n}," for n, f in fields.items() if f.compare)
                        for who in ("self", "other"))
        src += f"""
def __eq__(self, other):
  if other.__class__ is self.__class__: return ({mine}) == ({theirs})
  return NotImplemented"""
        if frozen:
            src += f"\ndef __hash__(self): return hash(({mine}))"
        else:
            made["__hash__"] = None
    src += _FROZEN * frozen + _PICKLE * (frozen and slots)
    if _built is not None:
        _built.append((src, tuple(ns), cls))
        methods = _compile(src, tuple(ns))
    else:
        package = _package(cls.__module__)
        table = _tables.get(package)
        if table is None:
            table = _tables[package] = _load(package)
        methods = table.get(src)
        if methods is None:
            raise ImportError(
                f"record class {cls.__module__}.{cls.__qualname__} has no "
                f"generated methods in {package}._records (new or edited since "
                f"it was generated): run `{REGENERATE}`")
    for name, value in methods(**ns).items():
        value.__qualname__ = f"{cls.__qualname__}.{name}"
        value.__module__ = cls.__module__
        made[name] = value
    for name, value in made.items():
        if name not in own:
            setattr(cls, name, value)
    if not slots:
        return cls
    inherited = {s for base in cls.__mro__[1:-1] for s in base.__dict__.get("__slots__", ())}
    namespace = {k: v for k, v in cls.__dict__.items()
                 if k not in fields and k not in ("__dict__", "__weakref__")}
    namespace["__slots__"] = tuple(n for n in fields if n not in inherited)
    slotted = type(cls)(cls.__name__, cls.__bases__, namespace)
    slotted.__qualname__ = cls.__qualname__
    return slotted


def _package(module):
    """The package whose ``_records.py`` holds ``module``'s record methods."""
    return module.rpartition(".")[0]


def _load(package):
    try:
        return __import__(f"{package}._records", fromlist=["METHODS"]).METHODS
    except ModuleNotFoundError:
        return {}


# ----------------------------------------------------------------------
# Build time: the generator of the _records.py files
# ----------------------------------------------------------------------

def _maker(name, src, names):
    """The text of the function that defines ``src``'s methods from
    ``names`` (a class's defaults and factories) and returns them by name."""
    methods = [line[4:line.index("(")] for line in src.splitlines()
               if line.startswith("def ")]
    lines = [f"def {name}({', '.join(names)}):"]
    lines += [f"  {line}" for line in src.splitlines() if line]
    lines.append("  return {" + ", ".join(f"{m!r}: {m}" for m in methods) + "}")
    return "\n".join(lines) + "\n"


def _compile(src, names):
    scope = {}
    exec(_maker("methods", src, names), scope)
    return scope["methods"]


class compiling:
    """Build-time only: inside this block ``struct`` compiles each class's
    methods from their text itself and records ``(text, names, class)`` in
    the list ``with`` binds, instead of reading a ``_records.py``.  The
    generator imports the package under it; tests build throwaway record
    classes under it."""

    def __enter__(self):
        global _built
        self._outer, _built = _built, []
        return _built

    def __exit__(self, *exc):
        global _built
        _built = self._outer


_HEADER = '''"""Record methods of `{package}`, generated by `{command}`;
do not edit.  After adding or editing an `@struct` class, run that command.

Each function defines one method text of `repro/_struct.py` from a class's
defaults (`_d_*`) and factories (`_f_*`); `METHODS` maps the text to it.
Compiled with the package, this file spares every process one `exec` per
record class.
"""
'''


def generate():
    """``{path: text}`` of the ``_records.py`` file of every package of
    ``repro`` (``None``: the package defines no record class, so it has no
    such file).  Run in a fresh process: a class imported before this call
    is not seen."""
    import importlib
    import os
    import pkgutil

    import repro

    packages = {"repro": repro.__path__[0]}
    with compiling() as built:
        for mod in pkgutil.walk_packages(repro.__path__, "repro."):
            if mod.name != "repro.__main__":
                module = importlib.import_module(mod.name)
                if mod.ispkg:
                    packages[mod.name] = module.__path__[0]
    users = {}
    for src, names, cls in built:
        key = (_package(cls.__module__), src, names)
        users.setdefault(key, []).append(f"{cls.__module__}.{cls.__qualname__}")
    makers = {package: [] for package in packages}
    for (package, src, names), classes in users.items():
        classes.sort()
        name = classes[0].removeprefix(package + ".").replace(".", "_")
        makers[package].append((name, src, names, classes))
    files = {}
    for package, found in makers.items():
        path = os.path.join(packages[package], "_records.py")
        if not found:
            files[path] = None
            continue
        found.sort()
        out = [_HEADER.format(package=package, command=REGENERATE)]
        for name, src, names, classes in found:
            out.append("\n# " + ", ".join(classes) + "\n" + _maker(name, src, names))
        out.append("\nMETHODS = {\n")
        out += [f"    {src!r}:\n        {name},\n" for name, src, _, _ in found]
        out.append("}\n")
        files[path] = "".join(out)
    return files


def main(argv):
    import os
    import sys

    if argv not in ([], ["--check"]):
        print(f"usage: {REGENERATE} [--check]", file=sys.stderr)
        return 2
    stale = []
    for path, text in sorted(generate().items()):
        current = None
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                current = fh.read()
        if text == current:
            continue
        stale.append(path)
        if argv:
            continue
        if text is None:
            os.remove(path)
        else:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
    if argv:
        for path in stale:
            print(f"{path} is stale: run `{REGENERATE}`", file=sys.stderr)
        return int(bool(stale))
    print("\n".join(f"wrote {path}" for path in stale) or "up to date")
    return 0


if __name__ == "__main__":
    import sys

    from repro import _struct      # the package's copy, not this __main__ one
    raise SystemExit(_struct.main(sys.argv[1:]))
