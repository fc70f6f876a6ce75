"""`repro._struct` against its specification: the same class bodies built
with ``@struct`` and with the stdlib ``@dataclass`` must behave alike."""

from __future__ import annotations

import copy
import dataclasses
import importlib
import os
import pickle
import subprocess
import sys
import types
from pathlib import Path

import pytest

from repro import _struct

#: Every option combination `src/` uses.  Executed twice, once per builder,
#: each in its own registered module so the classes pickle by name.
SHAPES = '''
@record
class Plain:
    x: int
    y: str = "a"

@record(frozen=True)
class Frozen:
    x: int
    y: tuple = ()

@record(slots=True)
class Slotted:
    x: int
    y: int = 2

@record(frozen=True, slots=True)
class FrozenSlotted:
    x: int
    y: int = 2

@record(slots=True, eq=False)
class Identity:
    x: int

@record
class Factory:
    x: int
    items: list = field(default_factory=list)
    hidden: int = field(default=0, repr=False)
    ignored: int = field(default=0, compare=False)

@record(frozen=True, slots=True)
class Derived:                      # lang.types.TOption
    elt: int
    ground: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "ground", self.elt > 0)

@record(frozen=True)
class Checked:                      # partition.interfaces.Annotation
    x: int

    def __post_init__(self):
        if self.x < 0:
            raise ValueError("negative")

class Base:
    __slots__ = ()

@record(slots=True)
class Node(Base):                   # lang.ast.Expr: a fieldless base ...
    def children(self):
        return ()

@record(slots=True)
class Leaf(Node):                   # ... with field-adding subclasses
    value: int
    ty: object = None

@record(slots=True)
class Pair(Node):
    left: Node
    right: Node
    ty: object = None

    def children(self):
        return (self.left, self.right)

@record
class OwnRepr:                      # eval.values.VSome
    x: int

    def __repr__(self):
        return "own"

@record
class Child(Plain):
    z: int = 3

@record(frozen=True, slots=True)
class Empty(Base):                  # lang.types.TBool
    pass
'''


def _module(name: str, record, field) -> types.ModuleType:
    mod = types.ModuleType(name)
    mod.record, mod.field = record, field
    sys.modules[name] = mod
    exec(SHAPES, mod.__dict__)
    return mod


with _struct.compiling():      # no generated methods for these classes
    S = _module("_shapes_struct", _struct.struct, _struct.field)
D = _module("_shapes_dataclass", dataclasses.dataclass, dataclasses.field)
NAMES = [n for n, v in vars(D).items() if dataclasses.is_dataclass(v)]

#: Constructor calls per shape: positional, keyword, defaults, too few, too
#: many, unknown keyword, a rejecting ``__post_init__``.
CALLS = {
    "Plain": [((1,), {}), ((1, "b"), {}), ((), {"x": 1, "y": "c"}), ((), {}),
              ((1, 2, 3), {}), ((1,), {"z": 2}), ((1,), {"x": 2})],
    "Frozen": [((1,), {}), ((1, (2,)), {}), ((), {})],
    "Slotted": [((1,), {}), ((), {"y": 5, "x": 1}), ((), {"y": 5})],
    "FrozenSlotted": [((1,), {}), ((1, 3), {}), ((), {})],
    "Identity": [((1,), {}), ((), {})],
    "Factory": [((1,), {}), ((1, [2]), {}), ((1,), {"hidden": 4, "ignored": 5}),
                ((1, [2], 3, 4, 5), {})],
    "Derived": [((1,), {}), ((-1,), {}), ((1, True), {}), ((), {"ground": True})],
    "Checked": [((1,), {}), ((-1,), {})],
    "Node": [((), {}), ((1,), {})],
    "Leaf": [((1,), {}), ((1, "t"), {}), ((), {})],
    "Pair": [((1, 2), {}), ((1,), {})],
    "OwnRepr": [((1,), {})],
    "Child": [((1,), {}), ((1, "b", 4), {}), ((), {"z": 1})],
    "Empty": [((), {}), ((1,), {})],
}


def outcome(fn):
    try:
        return fn()
    except Exception as exc:                # compared, not swallowed
        return type(exc), str(exc)


def built(mod, name):
    """The instances (or the errors) `CALLS[name]` produces in `mod`."""
    return [outcome(lambda: getattr(mod, name)(*a, **k)) for a, k in CALLS[name]]


def instances(mod):
    return [v for name in NAMES for v in built(mod, name)
            if not isinstance(v, tuple)]


def test_the_table_covers_every_shape():
    assert set(CALLS) == set(NAMES)
    assert all(hasattr(getattr(S, n), "__struct_fields__") for n in NAMES)
    assert not any(dataclasses.is_dataclass(getattr(S, n)) for n in NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_construction_and_repr(name):
    ours, theirs = built(S, name), built(D, name)
    for (args, kwargs), a, b in zip(CALLS[name], ours, theirs):
        if isinstance(b, tuple):
            assert a == b, (args, kwargs)        # same exception, same message
        else:
            assert repr(a) == repr(b), (args, kwargs)
            assert [getattr(a, f.name) for f in dataclasses.fields(b)] == \
                   [getattr(b, f.name) for f in dataclasses.fields(b)]


def test_equality_and_hash_agree_pairwise():
    ours, theirs = instances(S), instances(D)
    assert len(ours) == len(theirs) > 20
    for a1, b1 in zip(ours, theirs):
        assert outcome(lambda: hash(a1) == hash(a1)) == outcome(lambda: hash(b1) == hash(b1))
        for a2, b2 in zip(ours, theirs):
            assert (a1 == a2) is (b1 == b2), (a1, a2)
            assert (a1 != a2) is (b1 != b2), (a1, a2)
            if isinstance(hash(b1) if type(b1).__hash__ else None, int) and b1 == b2:
                assert hash(a1) == hash(a2)
    # compare=False fields take no part; a different class is never equal.
    assert S.Factory(1, ignored=1) == S.Factory(1, ignored=2)
    assert S.Factory(1, hidden=1) != S.Factory(1, hidden=2)
    assert S.Plain(1) != S.Child(1) and S.Plain(1).__eq__(S.Child(1)) is NotImplemented
    assert S.Identity(1) != S.Identity(1)            # eq=False: identity
    assert hash(S.Frozen(1, (2,))) == hash((1, (2,)))
    assert S.Plain.__hash__ is None and S.Leaf.__hash__ is None


@pytest.mark.parametrize("name", NAMES)
def test_class_surface(name):
    ours, theirs = getattr(S, name), getattr(D, name)
    assert ours.__match_args__ == theirs.__match_args__
    assert ours.__qualname__ == theirs.__qualname__ == name
    assert getattr(ours, "__slots__", None) == getattr(theirs, "__slots__", None)
    assert ours.__init__.__qualname__ == theirs.__init__.__qualname__
    assert list(ours.__struct_fields__) == [f.name for f in dataclasses.fields(theirs)]
    for a, b in zip(built(S, name), built(D, name)):
        if not isinstance(b, tuple):
            assert hasattr(a, "__dict__") == hasattr(b, "__dict__")


@pytest.mark.parametrize("name", ["Frozen", "FrozenSlotted", "Derived", "Checked", "Empty"])
def test_frozen_instances_reject_assignment(name):
    for mod in (S, D):
        obj = next(v for v in built(mod, name) if not isinstance(v, tuple))
        for attr in getattr(mod, name).__match_args__:
            with pytest.raises(AttributeError):
                setattr(obj, attr, 0)
            with pytest.raises(AttributeError):
                delattr(obj, attr)
        if mod is S:    # the stdlib's frozen + slots raises TypeError here (3.11)
            with pytest.raises(AttributeError):
                obj.brand_new = 0


def test_slots_reject_unknown_attributes_and_match_statements_work():
    for mod in (S, D):
        with pytest.raises(AttributeError):
            mod.Slotted(1).other = 2
        match mod.Pair(mod.Leaf(1), mod.Leaf(2, "t")):
            case mod.Pair(mod.Leaf(a), mod.Leaf(b, ty)):
                assert (a, b, ty) == (1, 2, "t")
            case _:
                raise AssertionError("no match")
        assert mod.Derived(3).ground is True and mod.Derived(-3).ground is False
        assert mod.Factory(1).items is not mod.Factory(1).items


def test_replace():
    for mod, replace in ((S, _struct.replace), (D, dataclasses.replace)):
        leaf = mod.Leaf(1, "t")
        assert replace(leaf) == leaf and replace(leaf) is not leaf
        assert replace(leaf, value=2) == mod.Leaf(2, "t")
        assert replace(mod.Derived(1), elt=-1).ground is False
        assert type(replace(mod.Child(1))) is mod.Child
        with pytest.raises(ValueError):
            replace(mod.Derived(1), ground=True)
        with pytest.raises(TypeError):
            replace(leaf, nope=1)


@pytest.mark.parametrize("name", NAMES)
def test_pickle_and_deepcopy_round_trip(name):
    for mod in (S, D):
        for obj in built(mod, name):
            if isinstance(obj, tuple):
                continue
            for proto in (2, pickle.HIGHEST_PROTOCOL):
                back = pickle.loads(pickle.dumps(obj, proto))
                assert type(back) is type(obj) and repr(back) == repr(obj)
            clone = copy.deepcopy(obj)
            assert clone is not obj and repr(clone) == repr(obj)
            if name != "Identity":
                assert back == obj == clone
    tree = S.Pair(S.Leaf(1), S.Pair(S.Leaf(2), S.Leaf(3)))
    assert pickle.loads(pickle.dumps(tree)) == tree
    assert pickle.loads(pickle.dumps(S.Derived(1))).ground is True


def test_declaration_errors():
    for record, field in ((_struct.struct, _struct.field),
                          (dataclasses.dataclass, dataclasses.field)):
        with pytest.raises(ValueError):
            field(default=1, default_factory=list)
        with pytest.raises(ValueError):
            record(type("Mutable", (), {"__annotations__": {"x": "list"}, "x": []}))
        with pytest.raises((TypeError, SyntaxError), match="non-default argument"):
            record(type("Order", (), {"__annotations__": {"x": "int", "y": "int"}, "x": 1}))


#: Record classes per module at the parent commit, and whether each had slots.
def _records(module_name: str) -> dict[str, type]:
    mod = importlib.import_module(module_name)
    return {n: v for n, v in vars(mod).items()
            if isinstance(v, type) and v.__module__ == module_name
            and "__struct_fields__" in vars(v)}


@pytest.mark.parametrize("module_name, count, slotted", [
    ("repro.lang.ast", 38, "all"),
    ("repro.lang.types", 10, "all"),
    ("repro.eval.values", 2, "all"),
    ("repro.srp.network", 2, "none"),
])
def test_core_modules_declare_struct_records(module_name, count, slotted):
    records = _records(module_name)
    assert len(records) == count, sorted(records)
    for name, cls in records.items():
        assert not dataclasses.is_dataclass(cls), name
        assert ("__slots__" in vars(cls)) == (slotted == "all"), name
        if slotted == "all":
            assert "__dict__" not in dir(cls), name


# -- the generated methods (DESIGN.md "Start-up path") -----------------------

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _child(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)


def test_generated_records_are_up_to_date():
    """Regenerating every ``_records.py`` reproduces the checked-in files."""
    proc = _child("from repro import _struct; raise SystemExit(_struct.main(['--check']))")
    assert proc.returncode == 0, proc.stderr


#: Count the code ``repro/_struct.py`` compiles, then import what the three
#: analysis commands run, then build one class under ``compiling()`` (the
#: positive control: the hook does see ``_struct`` compile).
AUDIT = '''
import sys
compiles = []
def hook(event, args):
    if event == "compile" and sys._getframe(1).f_code.co_filename.endswith("_struct.py"):
        compiles.append(args[1])
sys.addaudithook(hook)
import repro.cli, repro.analysis.simulation, repro.analysis.verify
import repro.analysis.fault, repro.eval.interp, repro.lang.parser, repro.lang.typecheck
print(len([m for m in sys.modules if m.startswith("repro")]), len(compiles))
from repro import _struct
with _struct.compiling():
    _struct.struct(type("Fresh", (), {"__annotations__": {"x": "int"}}))
print(len(compiles))
'''


def test_no_record_method_is_compiled_on_the_cli_path():
    proc = _child(AUDIT)
    assert proc.returncode == 0, proc.stderr
    imported, built = proc.stdout.splitlines()
    modules, compiled = map(int, imported.split())
    assert modules > 40 and compiled == 0
    assert int(built) == 1


def test_a_class_without_generated_methods_fails_its_import():
    fresh = type("Fresh", (), {"__annotations__": {"not_generated": "int"},
                               "__module__": "repro.lang.fresh"})
    with pytest.raises(ImportError, match=r"repro\.lang\.fresh\.Fresh .* "
                                          r"run `PYTHONPATH=src python -m repro\._struct`"):
        _struct.struct(fresh)
