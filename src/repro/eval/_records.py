"""Record methods of `repro.eval`, generated by `PYTHONPATH=src python -m repro._struct`;
do not edit.  After adding or editing an `@struct` class, run that command.

Each function defines one method text of `repro/_struct.py` from a class's
defaults (`_d_*`) and factories (`_f_*`); `METHODS` maps the text to it.
Compiled with the package, this file spares every process one `exec` per
record class.
"""

# repro.eval.compile_py.CompiledProgram
def compile_py_CompiledProgram(_FACTORY, _set):
  def __init__(self, env, source, compile_seconds):
    self.env = env
    self.source = source
    self.compile_seconds = compile_seconds
  def __eq__(self, other):
    if other.__class__ is self.__class__: return (self.env,self.source,self.compile_seconds,) == (other.env,other.source,other.compile_seconds,)
    return NotImplemented
  return {'__init__': __init__, '__eq__': __eq__}

# repro.eval.maps.DecodedMap
def maps_DecodedMap(_FACTORY, _set):
  def __init__(self, entries, default):
    _set(self, 'entries', entries)
    _set(self, 'default', default)
  def __eq__(self, other):
    if other.__class__ is self.__class__: return (self.entries,self.default,) == (other.entries,other.default,)
    return NotImplemented
  def __hash__(self): return hash((self.entries,self.default,))
  def __setattr__(self, name, value): raise AttributeError(f"cannot assign to field {name!r}")
  def __delattr__(self, name): raise AttributeError(f"cannot delete field {name!r}")
  return {'__init__': __init__, '__eq__': __eq__, '__hash__': __hash__, '__setattr__': __setattr__, '__delattr__': __delattr__}

# repro.eval.maps.FrozenMap
def maps_FrozenMap(_FACTORY, _set):
  def __init__(self, key_ty, nodes, leaves):
    _set(self, 'key_ty', key_ty)
    _set(self, 'nodes', nodes)
    _set(self, 'leaves', leaves)
  def __eq__(self, other):
    if other.__class__ is self.__class__: return (self.key_ty,self.nodes,self.leaves,) == (other.key_ty,other.nodes,other.leaves,)
    return NotImplemented
  def __hash__(self): return hash((self.key_ty,self.nodes,self.leaves,))
  def __setattr__(self, name, value): raise AttributeError(f"cannot assign to field {name!r}")
  def __delattr__(self, name): raise AttributeError(f"cannot delete field {name!r}")
  return {'__init__': __init__, '__eq__': __eq__, '__hash__': __hash__, '__setattr__': __setattr__, '__delattr__': __delattr__}

# repro.eval.values.VClosure
def values_VClosure(_FACTORY, _set, _d_param_ty, _d_code):
  def __init__(self, param, body, env, param_ty=_d_param_ty, code=_d_code):
    self.param = param
    self.body = body
    self.env = env
    self.param_ty = param_ty
    self.code = code
  return {'__init__': __init__}

# repro.eval.values.VSome
def values_VSome(_FACTORY, _set):
  def __init__(self, value):
    _set(self, 'value', value)
  def __eq__(self, other):
    if other.__class__ is self.__class__: return (self.value,) == (other.value,)
    return NotImplemented
  def __hash__(self): return hash((self.value,))
  def __setattr__(self, name, value): raise AttributeError(f"cannot assign to field {name!r}")
  def __delattr__(self, name): raise AttributeError(f"cannot delete field {name!r}")
  def __getstate__(self): return [getattr(self, n) for n in self.__struct_fields__]
  def __setstate__(self, state):
    for n, v in zip(self.__struct_fields__, state): _set(self, n, v)
  return {'__init__': __init__, '__eq__': __eq__, '__hash__': __hash__, '__setattr__': __setattr__, '__delattr__': __delattr__, '__getstate__': __getstate__, '__setstate__': __setstate__}

METHODS = {
    'def __init__(self, env, source, compile_seconds):\n  self.env = env\n  self.source = source\n  self.compile_seconds = compile_seconds\ndef __eq__(self, other):\n  if other.__class__ is self.__class__: return (self.env,self.source,self.compile_seconds,) == (other.env,other.source,other.compile_seconds,)\n  return NotImplemented':
        compile_py_CompiledProgram,
    'def __init__(self, entries, default):\n  _set(self, \'entries\', entries)\n  _set(self, \'default\', default)\ndef __eq__(self, other):\n  if other.__class__ is self.__class__: return (self.entries,self.default,) == (other.entries,other.default,)\n  return NotImplemented\ndef __hash__(self): return hash((self.entries,self.default,))\ndef __setattr__(self, name, value): raise AttributeError(f"cannot assign to field {name!r}")\ndef __delattr__(self, name): raise AttributeError(f"cannot delete field {name!r}")':
        maps_DecodedMap,
    'def __init__(self, key_ty, nodes, leaves):\n  _set(self, \'key_ty\', key_ty)\n  _set(self, \'nodes\', nodes)\n  _set(self, \'leaves\', leaves)\ndef __eq__(self, other):\n  if other.__class__ is self.__class__: return (self.key_ty,self.nodes,self.leaves,) == (other.key_ty,other.nodes,other.leaves,)\n  return NotImplemented\ndef __hash__(self): return hash((self.key_ty,self.nodes,self.leaves,))\ndef __setattr__(self, name, value): raise AttributeError(f"cannot assign to field {name!r}")\ndef __delattr__(self, name): raise AttributeError(f"cannot delete field {name!r}")':
        maps_FrozenMap,
    'def __init__(self, param, body, env, param_ty=_d_param_ty, code=_d_code):\n  self.param = param\n  self.body = body\n  self.env = env\n  self.param_ty = param_ty\n  self.code = code':
        values_VClosure,
    'def __init__(self, value):\n  _set(self, \'value\', value)\ndef __eq__(self, other):\n  if other.__class__ is self.__class__: return (self.value,) == (other.value,)\n  return NotImplemented\ndef __hash__(self): return hash((self.value,))\ndef __setattr__(self, name, value): raise AttributeError(f"cannot assign to field {name!r}")\ndef __delattr__(self, name): raise AttributeError(f"cannot delete field {name!r}")\ndef __getstate__(self): return [getattr(self, n) for n in self.__struct_fields__]\ndef __setstate__(self, state):\n  for n, v in zip(self.__struct_fields__, state): _set(self, n, v)':
        values_VSome,
}
