"""Record classes without :mod:`dataclasses` (DESIGN.md "Start-up path").

``@struct`` is the subset of ``@dataclass`` this package uses: ``frozen``,
``slots``, ``eq=False``; ``field(default=, default_factory=, init=, repr=,
compare=)``; ``__post_init__``; inheritance; ``__match_args__``; pickling of
frozen slotted classes; :func:`replace`.  ``__init__`` / ``__eq__`` /
``__hash__`` are the ones ``dataclasses`` would write, built by one ``exec``
per class and without ``inspect``; a method the class body defines wins.
Left out: ``order``, ``unsafe_hash``, ``kw_only``, ``InitVar`` / ``ClassVar``,
the signature ``__doc__``, the recursive-``repr`` guard (no record is cyclic).
"""

_MISSING = object()
_FACTORY = object()     # __init__ default of a field that has a default_factory
_set = object.__setattr__


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

    ns = {"__name__": cls.__module__, "_FACTORY": _FACTORY, "_set": _set}
    params, body = [], []
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
        if f.init:      # a required one after a defaulted one: SyntaxError from exec
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
    exec(src + _FROZEN * frozen + _PICKLE * (frozen and slots), ns, made)
    for name, value in made.items():
        if name not in own:
            if getattr(value, "__globals__", None) is ns:
                value.__qualname__ = f"{cls.__qualname__}.{name}"
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
