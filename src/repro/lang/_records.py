"""Record methods of `repro.lang`, generated by `PYTHONPATH=src python -m repro._struct`;
do not edit.  After adding or editing an `@struct` class, run that command.

Each function defines one method text of `repro/_struct.py` from a class's
defaults (`_d_*`) and factories (`_f_*`); `METHODS` maps the text to it.
Compiled with the package, this file spares every process one `exec` per
record class.
"""

# repro.lang.ast.DEdges
def ast_DEdges(_FACTORY, _set):
  def __init__(self, edges):
    self.edges = edges
  def __eq__(self, other):
    if other.__class__ is self.__class__: return (self.edges,) == (other.edges,)
    return NotImplemented
  return {'__init__': __init__, '__eq__': __eq__}

# repro.lang.ast.DInclude
def ast_DInclude(_FACTORY, _set):
  def __init__(self, module):
    self.module = module
  def __eq__(self, other):
    if other.__class__ is self.__class__: return (self.module,) == (other.module,)
    return NotImplemented
  return {'__init__': __init__, '__eq__': __eq__}

# repro.lang.ast.DLet
def ast_DLet(_FACTORY, _set, _d_annot):
  def __init__(self, name, expr, annot=_d_annot):
    self.name = name
    self.expr = expr
    self.annot = annot
  def __eq__(self, other):
    if other.__class__ is self.__class__: return (self.name,self.expr,self.annot,) == (other.name,other.expr,other.annot,)
    return NotImplemented
  return {'__init__': __init__, '__eq__': __eq__}

# repro.lang.ast.DNodes
def ast_DNodes(_FACTORY, _set):
  def __init__(self, count):
    self.count = count
  def __eq__(self, other):
    if other.__class__ is self.__class__: return (self.count,) == (other.count,)
    return NotImplemented
  return {'__init__': __init__, '__eq__': __eq__}

# repro.lang.ast.DRequire
def ast_DRequire(_FACTORY, _set):
  def __init__(self, expr):
    self.expr = expr
  def __eq__(self, other):
    if other.__class__ is self.__class__: return (self.expr,) == (other.expr,)
    return NotImplemented
  return {'__init__': __init__, '__eq__': __eq__}

# repro.lang.ast.DSymbolic, repro.lang.ast.DType
def ast_DSymbolic(_FACTORY, _set):
  def __init__(self, name, ty):
    self.name = name
    self.ty = ty
  def __eq__(self, other):
    if other.__class__ is self.__class__: return (self.name,self.ty,) == (other.name,other.ty,)
    return NotImplemented
  return {'__init__': __init__, '__eq__': __eq__}

# repro.lang.ast.EApp
def ast_EApp(_FACTORY, _set, _d_ty, _d_span):
  def __init__(self, fn, arg, ty=_d_ty, span=_d_span):
    self.fn = fn
    self.arg = arg
    self.ty = ty
    self.span = span
  def __eq__(self, other):
    if other.__class__ is self.__class__: return (self.fn,self.arg,self.ty,self.span,) == (other.fn,other.arg,other.ty,other.span,)
    return NotImplemented
  return {'__init__': __init__, '__eq__': __eq__}

# repro.lang.ast.EBool, repro.lang.ast.ENode
def ast_EBool(_FACTORY, _set, _d_ty, _d_span):
  def __init__(self, value, ty=_d_ty, span=_d_span):
    self.value = value
    self.ty = ty
    self.span = span
  def __eq__(self, other):
    if other.__class__ is self.__class__: return (self.value,self.ty,self.span,) == (other.value,other.ty,other.span,)
    return NotImplemented
  return {'__init__': __init__, '__eq__': __eq__}

# repro.lang.ast.EEdge
def ast_EEdge(_FACTORY, _set, _d_ty, _d_span):
  def __init__(self, src, dst, ty=_d_ty, span=_d_span):
    self.src = src
    self.dst = dst
    self.ty = ty
    self.span = span
  def __eq__(self, other):
    if other.__class__ is self.__class__: return (self.src,self.dst,self.ty,self.span,) == (other.src,other.dst,other.ty,other.span,)
    return NotImplemented
  return {'__init__': __init__, '__eq__': __eq__}

# repro.lang.ast.EFun
def ast_EFun(_FACTORY, _set, _d_param_ty, _d_ty, _d_span):
  def __init__(self, param, body, param_ty=_d_param_ty, ty=_d_ty, span=_d_span):
    self.param = param
    self.body = body
    self.param_ty = param_ty
    self.ty = ty
    self.span = span
  def __eq__(self, other):
    if other.__class__ is self.__class__: return (self.param,self.body,self.param_ty,self.ty,self.span,) == (other.param,other.body,other.param_ty,other.ty,other.span,)
    return NotImplemented
  return {'__init__': __init__, '__eq__': __eq__}

# repro.lang.ast.EIf
def ast_EIf(_FACTORY, _set, _d_ty, _d_span):
  def __init__(self, cond, then, els, ty=_d_ty, span=_d_span):
    self.cond = cond
    self.then = then
    self.els = els
    self.ty = ty
    self.span = span
  def __eq__(self, other):
    if other.__class__ is self.__class__: return (self.cond,self.then,self.els,self.ty,self.span,) == (other.cond,other.then,other.els,other.ty,other.span,)
    return NotImplemented
  return {'__init__': __init__, '__eq__': __eq__}

# repro.lang.ast.EInt
def ast_EInt(_FACTORY, _set, _d_width, _d_ty, _d_span):
  def __init__(self, value, width=_d_width, ty=_d_ty, span=_d_span):
    self.value = value
    self.width = width
    self.ty = ty
    self.span = span
  def __eq__(self, other):
    if other.__class__ is self.__class__: return (self.value,self.width,self.ty,self.span,) == (other.value,other.width,other.ty,other.span,)
    return NotImplemented
  return {'__init__': __init__, '__eq__': __eq__}

# repro.lang.ast.ELet
def ast_ELet(_FACTORY, _set, _d_annot, _d_ty, _d_span):
  def __init__(self, name, bound, body, annot=_d_annot, ty=_d_ty, span=_d_span):
    self.name = name
    self.bound = bound
    self.body = body
    self.annot = annot
    self.ty = ty
    self.span = span
  def __eq__(self, other):
    if other.__class__ is self.__class__: return (self.name,self.bound,self.body,self.annot,self.ty,self.span,) == (other.name,other.bound,other.body,other.annot,other.ty,other.span,)
    return NotImplemented
  return {'__init__': __init__, '__eq__': __eq__}

# repro.lang.ast.ELetPat
def ast_ELetPat(_FACTORY, _set, _d_ty, _d_span):
  def __init__(self, pat, bound, body, ty=_d_ty, span=_d_span):
    self.pat = pat
    self.bound = bound
    self.body = body
    self.ty = ty
    self.span = span
  def __eq__(self, other):
    if other.__class__ is self.__class__: return (self.pat,self.bound,self.body,self.ty,self.span,) == (other.pat,other.bound,other.body,other.ty,other.span,)
    return NotImplemented
  return {'__init__': __init__, '__eq__': __eq__}

# repro.lang.ast.EMatch
def ast_EMatch(_FACTORY, _set, _d_ty, _d_span):
  def __init__(self, scrutinee, branches, ty=_d_ty, span=_d_span):
    self.scrutinee = scrutinee
    self.branches = branches
    self.ty = ty
    self.span = span
  def __eq__(self, other):
    if other.__class__ is self.__class__: return (self.scrutinee,self.branches,self.ty,self.span,) == (other.scrutinee,other.branches,other.ty,other.span,)
    return NotImplemented
  return {'__init__': __init__, '__eq__': __eq__}

# repro.lang.ast.ENone
def ast_ENone(_FACTORY, _set, _d_ty, _d_span):
  def __init__(self, ty=_d_ty, span=_d_span):
    self.ty = ty
    self.span = span
  def __eq__(self, other):
    if other.__class__ is self.__class__: return (self.ty,self.span,) == (other.ty,other.span,)
    return NotImplemented
  return {'__init__': __init__, '__eq__': __eq__}

# repro.lang.ast.EOp
def ast_EOp(_FACTORY, _set, _d_ty, _d_span):
  def __init__(self, op, args, ty=_d_ty, span=_d_span):
    self.op = op
    self.args = args
    self.ty = ty
    self.span = span
    self.__post_init__()
  def __eq__(self, other):
    if other.__class__ is self.__class__: return (self.op,self.args,self.ty,self.span,) == (other.op,other.args,other.ty,other.span,)
    return NotImplemented
  return {'__init__': __init__, '__eq__': __eq__}

# repro.lang.ast.EProj
def ast_EProj(_FACTORY, _set, _d_ty, _d_span):
  def __init__(self, sub, label, ty=_d_ty, span=_d_span):
    self.sub = sub
    self.label = label
    self.ty = ty
    self.span = span
  def __eq__(self, other):
    if other.__class__ is self.__class__: return (self.sub,self.label,self.ty,self.span,) == (other.sub,other.label,other.ty,other.span,)
    return NotImplemented
  return {'__init__': __init__, '__eq__': __eq__}

# repro.lang.ast.ERecord
def ast_ERecord(_FACTORY, _set, _d_ty, _d_span):
  def __init__(self, fields, ty=_d_ty, span=_d_span):
    self.fields = fields
    self.ty = ty
    self.span = span
  def __eq__(self, other):
    if other.__class__ is self.__class__: return (self.fields,self.ty,self.span,) == (other.fields,other.ty,other.span,)
    return NotImplemented
  return {'__init__': __init__, '__eq__': __eq__}

# repro.lang.ast.ERecordWith
def ast_ERecordWith(_FACTORY, _set, _d_ty, _d_span):
  def __init__(self, base, updates, ty=_d_ty, span=_d_span):
    self.base = base
    self.updates = updates
    self.ty = ty
    self.span = span
  def __eq__(self, other):
    if other.__class__ is self.__class__: return (self.base,self.updates,self.ty,self.span,) == (other.base,other.updates,other.ty,other.span,)
    return NotImplemented
  return {'__init__': __init__, '__eq__': __eq__}

# repro.lang.ast.ESome
def ast_ESome(_FACTORY, _set, _d_ty, _d_span):
  def __init__(self, sub, ty=_d_ty, span=_d_span):
    self.sub = sub
    self.ty = ty
    self.span = span
  def __eq__(self, other):
    if other.__class__ is self.__class__: return (self.sub,self.ty,self.span,) == (other.sub,other.ty,other.span,)
    return NotImplemented
  return {'__init__': __init__, '__eq__': __eq__}

# repro.lang.ast.ETuple
def ast_ETuple(_FACTORY, _set, _d_ty, _d_span):
  def __init__(self, elts, ty=_d_ty, span=_d_span):
    self.elts = elts
    self.ty = ty
    self.span = span
  def __eq__(self, other):
    if other.__class__ is self.__class__: return (self.elts,self.ty,self.span,) == (other.elts,other.ty,other.span,)
    return NotImplemented
  return {'__init__': __init__, '__eq__': __eq__}

# repro.lang.ast.ETupleGet
def ast_ETupleGet(_FACTORY, _set, _d_ty, _d_span):
  def __init__(self, sub, index, arity, ty=_d_ty, span=_d_span):
    self.sub = sub
    self.index = index
    self.arity = arity
    self.ty = ty
    self.span = span
  def __eq__(self, other):
    if other.__class__ is self.__class__: return (self.sub,self.index,self.arity,self.ty,self.span,) == (other.sub,other.index,other.arity,other.ty,other.span,)
    return NotImplemented
  return {'__init__': __init__, '__eq__': __eq__}

# repro.lang.ast.EVar
def ast_EVar(_FACTORY, _set, _d_ty, _d_span):
  def __init__(self, name, ty=_d_ty, span=_d_span):
    self.name = name
    self.ty = ty
    self.span = span
  def __eq__(self, other):
    if other.__class__ is self.__class__: return (self.name,self.ty,self.span,) == (other.name,other.ty,other.span,)
    return NotImplemented
  return {'__init__': __init__, '__eq__': __eq__}

# repro.lang.ast.Expr, repro.lang.ast.PNone, repro.lang.ast.PWild
def ast_Expr(_FACTORY, _set):
  def __init__(self):
    pass
  def __eq__(self, other):
    if other.__class__ is self.__class__: return () == ()
    return NotImplemented
  return {'__init__': __init__, '__eq__': __eq__}

# repro.lang.ast.PBool, repro.lang.ast.PNode
def ast_PBool(_FACTORY, _set):
  def __init__(self, value):
    self.value = value
  def __eq__(self, other):
    if other.__class__ is self.__class__: return (self.value,) == (other.value,)
    return NotImplemented
  return {'__init__': __init__, '__eq__': __eq__}

# repro.lang.ast.PInt
def ast_PInt(_FACTORY, _set, _d_width):
  def __init__(self, value, width=_d_width):
    self.value = value
    self.width = width
  def __eq__(self, other):
    if other.__class__ is self.__class__: return (self.value,self.width,) == (other.value,other.width,)
    return NotImplemented
  return {'__init__': __init__, '__eq__': __eq__}

# repro.lang.ast.PRecord
def ast_PRecord(_FACTORY, _set):
  def __init__(self, fields):
    self.fields = fields
  def __eq__(self, other):
    if other.__class__ is self.__class__: return (self.fields,) == (other.fields,)
    return NotImplemented
  return {'__init__': __init__, '__eq__': __eq__}

# repro.lang.ast.PSome
def ast_PSome(_FACTORY, _set):
  def __init__(self, sub):
    self.sub = sub
  def __eq__(self, other):
    if other.__class__ is self.__class__: return (self.sub,) == (other.sub,)
    return NotImplemented
  return {'__init__': __init__, '__eq__': __eq__}

# repro.lang.ast.PTuple
def ast_PTuple(_FACTORY, _set):
  def __init__(self, elts):
    self.elts = elts
  def __eq__(self, other):
    if other.__class__ is self.__class__: return (self.elts,) == (other.elts,)
    return NotImplemented
  return {'__init__': __init__, '__eq__': __eq__}

# repro.lang.ast.PVar
def ast_PVar(_FACTORY, _set):
  def __init__(self, name):
    self.name = name
  def __eq__(self, other):
    if other.__class__ is self.__class__: return (self.name,) == (other.name,)
    return NotImplemented
  return {'__init__': __init__, '__eq__': __eq__}

# repro.lang.ast.Program
def ast_Program(_FACTORY, _set, _f_decls):
  def __init__(self, decls=_FACTORY):
    self.decls = _f_decls() if decls is _FACTORY else decls
  def __eq__(self, other):
    if other.__class__ is self.__class__: return (self.decls,) == (other.decls,)
    return NotImplemented
  return {'__init__': __init__, '__eq__': __eq__}

# repro.lang.lexer.Token
def lexer_Token(_FACTORY, _set, _d_value, _d_width, _d_line, _d_col):
  def __init__(self, kind, text, value=_d_value, width=_d_width, line=_d_line, col=_d_col):
    self.kind = kind
    self.text = text
    self.value = value
    self.width = width
    self.line = line
    self.col = col
  def __eq__(self, other):
    if other.__class__ is self.__class__: return (self.kind,self.text,self.value,self.width,self.line,self.col,) == (other.kind,other.text,other.value,other.width,other.line,other.col,)
    return NotImplemented
  return {'__init__': __init__, '__eq__': __eq__}

# repro.lang.typecheck.Scheme
def typecheck_Scheme(_FACTORY, _set, _d_closed):
  def __init__(self, vars, ty, closed=_d_closed):
    self.vars = vars
    self.ty = ty
    self.closed = closed
  def __eq__(self, other):
    if other.__class__ is self.__class__: return (self.vars,self.ty,self.closed,) == (other.vars,other.ty,other.closed,)
    return NotImplemented
  return {'__init__': __init__, '__eq__': __eq__}

# repro.lang.types.TArrow
def types_TArrow(_FACTORY, _set):
  def __init__(self, arg, result):
    _set(self, 'arg', arg)
    _set(self, 'result', result)
    self.__post_init__()
  def __eq__(self, other):
    if other.__class__ is self.__class__: return (self.arg,self.result,) == (other.arg,other.result,)
    return NotImplemented
  def __hash__(self): return hash((self.arg,self.result,))
  def __setattr__(self, name, value): raise AttributeError(f"cannot assign to field {name!r}")
  def __delattr__(self, name): raise AttributeError(f"cannot delete field {name!r}")
  def __getstate__(self): return [getattr(self, n) for n in self.__struct_fields__]
  def __setstate__(self, state):
    for n, v in zip(self.__struct_fields__, state): _set(self, n, v)
  return {'__init__': __init__, '__eq__': __eq__, '__hash__': __hash__, '__setattr__': __setattr__, '__delattr__': __delattr__, '__getstate__': __getstate__, '__setstate__': __setstate__}

# repro.lang.types.TBool, repro.lang.types.TEdge, repro.lang.types.TNode
def types_TBool(_FACTORY, _set):
  def __init__(self):
    pass
  def __eq__(self, other):
    if other.__class__ is self.__class__: return () == ()
    return NotImplemented
  def __hash__(self): return hash(())
  def __setattr__(self, name, value): raise AttributeError(f"cannot assign to field {name!r}")
  def __delattr__(self, name): raise AttributeError(f"cannot delete field {name!r}")
  def __getstate__(self): return [getattr(self, n) for n in self.__struct_fields__]
  def __setstate__(self, state):
    for n, v in zip(self.__struct_fields__, state): _set(self, n, v)
  return {'__init__': __init__, '__eq__': __eq__, '__hash__': __hash__, '__setattr__': __setattr__, '__delattr__': __delattr__, '__getstate__': __getstate__, '__setstate__': __setstate__}

# repro.lang.types.TDict
def types_TDict(_FACTORY, _set):
  def __init__(self, key, value):
    _set(self, 'key', key)
    _set(self, 'value', value)
    self.__post_init__()
  def __eq__(self, other):
    if other.__class__ is self.__class__: return (self.key,self.value,) == (other.key,other.value,)
    return NotImplemented
  def __hash__(self): return hash((self.key,self.value,))
  def __setattr__(self, name, value): raise AttributeError(f"cannot assign to field {name!r}")
  def __delattr__(self, name): raise AttributeError(f"cannot delete field {name!r}")
  def __getstate__(self): return [getattr(self, n) for n in self.__struct_fields__]
  def __setstate__(self, state):
    for n, v in zip(self.__struct_fields__, state): _set(self, n, v)
  return {'__init__': __init__, '__eq__': __eq__, '__hash__': __hash__, '__setattr__': __setattr__, '__delattr__': __delattr__, '__getstate__': __getstate__, '__setstate__': __setstate__}

# repro.lang.types.TInt
def types_TInt(_FACTORY, _set, _d_width):
  def __init__(self, width=_d_width):
    _set(self, 'width', width)
    self.__post_init__()
  def __eq__(self, other):
    if other.__class__ is self.__class__: return (self.width,) == (other.width,)
    return NotImplemented
  def __hash__(self): return hash((self.width,))
  def __setattr__(self, name, value): raise AttributeError(f"cannot assign to field {name!r}")
  def __delattr__(self, name): raise AttributeError(f"cannot delete field {name!r}")
  def __getstate__(self): return [getattr(self, n) for n in self.__struct_fields__]
  def __setstate__(self, state):
    for n, v in zip(self.__struct_fields__, state): _set(self, n, v)
  return {'__init__': __init__, '__eq__': __eq__, '__hash__': __hash__, '__setattr__': __setattr__, '__delattr__': __delattr__, '__getstate__': __getstate__, '__setstate__': __setstate__}

# repro.lang.types.TOption
def types_TOption(_FACTORY, _set):
  def __init__(self, elt):
    _set(self, 'elt', elt)
    self.__post_init__()
  def __eq__(self, other):
    if other.__class__ is self.__class__: return (self.elt,) == (other.elt,)
    return NotImplemented
  def __hash__(self): return hash((self.elt,))
  def __setattr__(self, name, value): raise AttributeError(f"cannot assign to field {name!r}")
  def __delattr__(self, name): raise AttributeError(f"cannot delete field {name!r}")
  def __getstate__(self): return [getattr(self, n) for n in self.__struct_fields__]
  def __setstate__(self, state):
    for n, v in zip(self.__struct_fields__, state): _set(self, n, v)
  return {'__init__': __init__, '__eq__': __eq__, '__hash__': __hash__, '__setattr__': __setattr__, '__delattr__': __delattr__, '__getstate__': __getstate__, '__setstate__': __setstate__}

# repro.lang.types.TRecord
def types_TRecord(_FACTORY, _set):
  def __init__(self, fields):
    _set(self, 'fields', fields)
    self.__post_init__()
  def __eq__(self, other):
    if other.__class__ is self.__class__: return (self.fields,) == (other.fields,)
    return NotImplemented
  def __hash__(self): return hash((self.fields,))
  def __setattr__(self, name, value): raise AttributeError(f"cannot assign to field {name!r}")
  def __delattr__(self, name): raise AttributeError(f"cannot delete field {name!r}")
  def __getstate__(self): return [getattr(self, n) for n in self.__struct_fields__]
  def __setstate__(self, state):
    for n, v in zip(self.__struct_fields__, state): _set(self, n, v)
  return {'__init__': __init__, '__eq__': __eq__, '__hash__': __hash__, '__setattr__': __setattr__, '__delattr__': __delattr__, '__getstate__': __getstate__, '__setstate__': __setstate__}

# repro.lang.types.TTuple
def types_TTuple(_FACTORY, _set):
  def __init__(self, elts):
    _set(self, 'elts', elts)
    self.__post_init__()
  def __eq__(self, other):
    if other.__class__ is self.__class__: return (self.elts,) == (other.elts,)
    return NotImplemented
  def __hash__(self): return hash((self.elts,))
  def __setattr__(self, name, value): raise AttributeError(f"cannot assign to field {name!r}")
  def __delattr__(self, name): raise AttributeError(f"cannot delete field {name!r}")
  def __getstate__(self): return [getattr(self, n) for n in self.__struct_fields__]
  def __setstate__(self, state):
    for n, v in zip(self.__struct_fields__, state): _set(self, n, v)
  return {'__init__': __init__, '__eq__': __eq__, '__hash__': __hash__, '__setattr__': __setattr__, '__delattr__': __delattr__, '__getstate__': __getstate__, '__setstate__': __setstate__}

# repro.lang.types.TVar
def types_TVar(_FACTORY, _set):
  def __init__(self, name):
    _set(self, 'name', name)
  def __eq__(self, other):
    if other.__class__ is self.__class__: return (self.name,) == (other.name,)
    return NotImplemented
  def __hash__(self): return hash((self.name,))
  def __setattr__(self, name, value): raise AttributeError(f"cannot assign to field {name!r}")
  def __delattr__(self, name): raise AttributeError(f"cannot delete field {name!r}")
  def __getstate__(self): return [getattr(self, n) for n in self.__struct_fields__]
  def __setstate__(self, state):
    for n, v in zip(self.__struct_fields__, state): _set(self, n, v)
  return {'__init__': __init__, '__eq__': __eq__, '__hash__': __hash__, '__setattr__': __setattr__, '__delattr__': __delattr__, '__getstate__': __getstate__, '__setstate__': __setstate__}

METHODS = {
    'def __init__(self, edges):\n  self.edges = edges\ndef __eq__(self, other):\n  if other.__class__ is self.__class__: return (self.edges,) == (other.edges,)\n  return NotImplemented':
        ast_DEdges,
    'def __init__(self, module):\n  self.module = module\ndef __eq__(self, other):\n  if other.__class__ is self.__class__: return (self.module,) == (other.module,)\n  return NotImplemented':
        ast_DInclude,
    'def __init__(self, name, expr, annot=_d_annot):\n  self.name = name\n  self.expr = expr\n  self.annot = annot\ndef __eq__(self, other):\n  if other.__class__ is self.__class__: return (self.name,self.expr,self.annot,) == (other.name,other.expr,other.annot,)\n  return NotImplemented':
        ast_DLet,
    'def __init__(self, count):\n  self.count = count\ndef __eq__(self, other):\n  if other.__class__ is self.__class__: return (self.count,) == (other.count,)\n  return NotImplemented':
        ast_DNodes,
    'def __init__(self, expr):\n  self.expr = expr\ndef __eq__(self, other):\n  if other.__class__ is self.__class__: return (self.expr,) == (other.expr,)\n  return NotImplemented':
        ast_DRequire,
    'def __init__(self, name, ty):\n  self.name = name\n  self.ty = ty\ndef __eq__(self, other):\n  if other.__class__ is self.__class__: return (self.name,self.ty,) == (other.name,other.ty,)\n  return NotImplemented':
        ast_DSymbolic,
    'def __init__(self, fn, arg, ty=_d_ty, span=_d_span):\n  self.fn = fn\n  self.arg = arg\n  self.ty = ty\n  self.span = span\ndef __eq__(self, other):\n  if other.__class__ is self.__class__: return (self.fn,self.arg,self.ty,self.span,) == (other.fn,other.arg,other.ty,other.span,)\n  return NotImplemented':
        ast_EApp,
    'def __init__(self, value, ty=_d_ty, span=_d_span):\n  self.value = value\n  self.ty = ty\n  self.span = span\ndef __eq__(self, other):\n  if other.__class__ is self.__class__: return (self.value,self.ty,self.span,) == (other.value,other.ty,other.span,)\n  return NotImplemented':
        ast_EBool,
    'def __init__(self, src, dst, ty=_d_ty, span=_d_span):\n  self.src = src\n  self.dst = dst\n  self.ty = ty\n  self.span = span\ndef __eq__(self, other):\n  if other.__class__ is self.__class__: return (self.src,self.dst,self.ty,self.span,) == (other.src,other.dst,other.ty,other.span,)\n  return NotImplemented':
        ast_EEdge,
    'def __init__(self, param, body, param_ty=_d_param_ty, ty=_d_ty, span=_d_span):\n  self.param = param\n  self.body = body\n  self.param_ty = param_ty\n  self.ty = ty\n  self.span = span\ndef __eq__(self, other):\n  if other.__class__ is self.__class__: return (self.param,self.body,self.param_ty,self.ty,self.span,) == (other.param,other.body,other.param_ty,other.ty,other.span,)\n  return NotImplemented':
        ast_EFun,
    'def __init__(self, cond, then, els, ty=_d_ty, span=_d_span):\n  self.cond = cond\n  self.then = then\n  self.els = els\n  self.ty = ty\n  self.span = span\ndef __eq__(self, other):\n  if other.__class__ is self.__class__: return (self.cond,self.then,self.els,self.ty,self.span,) == (other.cond,other.then,other.els,other.ty,other.span,)\n  return NotImplemented':
        ast_EIf,
    'def __init__(self, value, width=_d_width, ty=_d_ty, span=_d_span):\n  self.value = value\n  self.width = width\n  self.ty = ty\n  self.span = span\ndef __eq__(self, other):\n  if other.__class__ is self.__class__: return (self.value,self.width,self.ty,self.span,) == (other.value,other.width,other.ty,other.span,)\n  return NotImplemented':
        ast_EInt,
    'def __init__(self, name, bound, body, annot=_d_annot, ty=_d_ty, span=_d_span):\n  self.name = name\n  self.bound = bound\n  self.body = body\n  self.annot = annot\n  self.ty = ty\n  self.span = span\ndef __eq__(self, other):\n  if other.__class__ is self.__class__: return (self.name,self.bound,self.body,self.annot,self.ty,self.span,) == (other.name,other.bound,other.body,other.annot,other.ty,other.span,)\n  return NotImplemented':
        ast_ELet,
    'def __init__(self, pat, bound, body, ty=_d_ty, span=_d_span):\n  self.pat = pat\n  self.bound = bound\n  self.body = body\n  self.ty = ty\n  self.span = span\ndef __eq__(self, other):\n  if other.__class__ is self.__class__: return (self.pat,self.bound,self.body,self.ty,self.span,) == (other.pat,other.bound,other.body,other.ty,other.span,)\n  return NotImplemented':
        ast_ELetPat,
    'def __init__(self, scrutinee, branches, ty=_d_ty, span=_d_span):\n  self.scrutinee = scrutinee\n  self.branches = branches\n  self.ty = ty\n  self.span = span\ndef __eq__(self, other):\n  if other.__class__ is self.__class__: return (self.scrutinee,self.branches,self.ty,self.span,) == (other.scrutinee,other.branches,other.ty,other.span,)\n  return NotImplemented':
        ast_EMatch,
    'def __init__(self, ty=_d_ty, span=_d_span):\n  self.ty = ty\n  self.span = span\ndef __eq__(self, other):\n  if other.__class__ is self.__class__: return (self.ty,self.span,) == (other.ty,other.span,)\n  return NotImplemented':
        ast_ENone,
    'def __init__(self, op, args, ty=_d_ty, span=_d_span):\n  self.op = op\n  self.args = args\n  self.ty = ty\n  self.span = span\n  self.__post_init__()\ndef __eq__(self, other):\n  if other.__class__ is self.__class__: return (self.op,self.args,self.ty,self.span,) == (other.op,other.args,other.ty,other.span,)\n  return NotImplemented':
        ast_EOp,
    'def __init__(self, sub, label, ty=_d_ty, span=_d_span):\n  self.sub = sub\n  self.label = label\n  self.ty = ty\n  self.span = span\ndef __eq__(self, other):\n  if other.__class__ is self.__class__: return (self.sub,self.label,self.ty,self.span,) == (other.sub,other.label,other.ty,other.span,)\n  return NotImplemented':
        ast_EProj,
    'def __init__(self, fields, ty=_d_ty, span=_d_span):\n  self.fields = fields\n  self.ty = ty\n  self.span = span\ndef __eq__(self, other):\n  if other.__class__ is self.__class__: return (self.fields,self.ty,self.span,) == (other.fields,other.ty,other.span,)\n  return NotImplemented':
        ast_ERecord,
    'def __init__(self, base, updates, ty=_d_ty, span=_d_span):\n  self.base = base\n  self.updates = updates\n  self.ty = ty\n  self.span = span\ndef __eq__(self, other):\n  if other.__class__ is self.__class__: return (self.base,self.updates,self.ty,self.span,) == (other.base,other.updates,other.ty,other.span,)\n  return NotImplemented':
        ast_ERecordWith,
    'def __init__(self, sub, ty=_d_ty, span=_d_span):\n  self.sub = sub\n  self.ty = ty\n  self.span = span\ndef __eq__(self, other):\n  if other.__class__ is self.__class__: return (self.sub,self.ty,self.span,) == (other.sub,other.ty,other.span,)\n  return NotImplemented':
        ast_ESome,
    'def __init__(self, elts, ty=_d_ty, span=_d_span):\n  self.elts = elts\n  self.ty = ty\n  self.span = span\ndef __eq__(self, other):\n  if other.__class__ is self.__class__: return (self.elts,self.ty,self.span,) == (other.elts,other.ty,other.span,)\n  return NotImplemented':
        ast_ETuple,
    'def __init__(self, sub, index, arity, ty=_d_ty, span=_d_span):\n  self.sub = sub\n  self.index = index\n  self.arity = arity\n  self.ty = ty\n  self.span = span\ndef __eq__(self, other):\n  if other.__class__ is self.__class__: return (self.sub,self.index,self.arity,self.ty,self.span,) == (other.sub,other.index,other.arity,other.ty,other.span,)\n  return NotImplemented':
        ast_ETupleGet,
    'def __init__(self, name, ty=_d_ty, span=_d_span):\n  self.name = name\n  self.ty = ty\n  self.span = span\ndef __eq__(self, other):\n  if other.__class__ is self.__class__: return (self.name,self.ty,self.span,) == (other.name,other.ty,other.span,)\n  return NotImplemented':
        ast_EVar,
    'def __init__(self):\n  pass\ndef __eq__(self, other):\n  if other.__class__ is self.__class__: return () == ()\n  return NotImplemented':
        ast_Expr,
    'def __init__(self, value):\n  self.value = value\ndef __eq__(self, other):\n  if other.__class__ is self.__class__: return (self.value,) == (other.value,)\n  return NotImplemented':
        ast_PBool,
    'def __init__(self, value, width=_d_width):\n  self.value = value\n  self.width = width\ndef __eq__(self, other):\n  if other.__class__ is self.__class__: return (self.value,self.width,) == (other.value,other.width,)\n  return NotImplemented':
        ast_PInt,
    'def __init__(self, fields):\n  self.fields = fields\ndef __eq__(self, other):\n  if other.__class__ is self.__class__: return (self.fields,) == (other.fields,)\n  return NotImplemented':
        ast_PRecord,
    'def __init__(self, sub):\n  self.sub = sub\ndef __eq__(self, other):\n  if other.__class__ is self.__class__: return (self.sub,) == (other.sub,)\n  return NotImplemented':
        ast_PSome,
    'def __init__(self, elts):\n  self.elts = elts\ndef __eq__(self, other):\n  if other.__class__ is self.__class__: return (self.elts,) == (other.elts,)\n  return NotImplemented':
        ast_PTuple,
    'def __init__(self, name):\n  self.name = name\ndef __eq__(self, other):\n  if other.__class__ is self.__class__: return (self.name,) == (other.name,)\n  return NotImplemented':
        ast_PVar,
    'def __init__(self, decls=_FACTORY):\n  self.decls = _f_decls() if decls is _FACTORY else decls\ndef __eq__(self, other):\n  if other.__class__ is self.__class__: return (self.decls,) == (other.decls,)\n  return NotImplemented':
        ast_Program,
    'def __init__(self, kind, text, value=_d_value, width=_d_width, line=_d_line, col=_d_col):\n  self.kind = kind\n  self.text = text\n  self.value = value\n  self.width = width\n  self.line = line\n  self.col = col\ndef __eq__(self, other):\n  if other.__class__ is self.__class__: return (self.kind,self.text,self.value,self.width,self.line,self.col,) == (other.kind,other.text,other.value,other.width,other.line,other.col,)\n  return NotImplemented':
        lexer_Token,
    'def __init__(self, vars, ty, closed=_d_closed):\n  self.vars = vars\n  self.ty = ty\n  self.closed = closed\ndef __eq__(self, other):\n  if other.__class__ is self.__class__: return (self.vars,self.ty,self.closed,) == (other.vars,other.ty,other.closed,)\n  return NotImplemented':
        typecheck_Scheme,
    'def __init__(self, arg, result):\n  _set(self, \'arg\', arg)\n  _set(self, \'result\', result)\n  self.__post_init__()\ndef __eq__(self, other):\n  if other.__class__ is self.__class__: return (self.arg,self.result,) == (other.arg,other.result,)\n  return NotImplemented\ndef __hash__(self): return hash((self.arg,self.result,))\ndef __setattr__(self, name, value): raise AttributeError(f"cannot assign to field {name!r}")\ndef __delattr__(self, name): raise AttributeError(f"cannot delete field {name!r}")\ndef __getstate__(self): return [getattr(self, n) for n in self.__struct_fields__]\ndef __setstate__(self, state):\n  for n, v in zip(self.__struct_fields__, state): _set(self, n, v)':
        types_TArrow,
    'def __init__(self):\n  pass\ndef __eq__(self, other):\n  if other.__class__ is self.__class__: return () == ()\n  return NotImplemented\ndef __hash__(self): return hash(())\ndef __setattr__(self, name, value): raise AttributeError(f"cannot assign to field {name!r}")\ndef __delattr__(self, name): raise AttributeError(f"cannot delete field {name!r}")\ndef __getstate__(self): return [getattr(self, n) for n in self.__struct_fields__]\ndef __setstate__(self, state):\n  for n, v in zip(self.__struct_fields__, state): _set(self, n, v)':
        types_TBool,
    'def __init__(self, key, value):\n  _set(self, \'key\', key)\n  _set(self, \'value\', value)\n  self.__post_init__()\ndef __eq__(self, other):\n  if other.__class__ is self.__class__: return (self.key,self.value,) == (other.key,other.value,)\n  return NotImplemented\ndef __hash__(self): return hash((self.key,self.value,))\ndef __setattr__(self, name, value): raise AttributeError(f"cannot assign to field {name!r}")\ndef __delattr__(self, name): raise AttributeError(f"cannot delete field {name!r}")\ndef __getstate__(self): return [getattr(self, n) for n in self.__struct_fields__]\ndef __setstate__(self, state):\n  for n, v in zip(self.__struct_fields__, state): _set(self, n, v)':
        types_TDict,
    'def __init__(self, width=_d_width):\n  _set(self, \'width\', width)\n  self.__post_init__()\ndef __eq__(self, other):\n  if other.__class__ is self.__class__: return (self.width,) == (other.width,)\n  return NotImplemented\ndef __hash__(self): return hash((self.width,))\ndef __setattr__(self, name, value): raise AttributeError(f"cannot assign to field {name!r}")\ndef __delattr__(self, name): raise AttributeError(f"cannot delete field {name!r}")\ndef __getstate__(self): return [getattr(self, n) for n in self.__struct_fields__]\ndef __setstate__(self, state):\n  for n, v in zip(self.__struct_fields__, state): _set(self, n, v)':
        types_TInt,
    'def __init__(self, elt):\n  _set(self, \'elt\', elt)\n  self.__post_init__()\ndef __eq__(self, other):\n  if other.__class__ is self.__class__: return (self.elt,) == (other.elt,)\n  return NotImplemented\ndef __hash__(self): return hash((self.elt,))\ndef __setattr__(self, name, value): raise AttributeError(f"cannot assign to field {name!r}")\ndef __delattr__(self, name): raise AttributeError(f"cannot delete field {name!r}")\ndef __getstate__(self): return [getattr(self, n) for n in self.__struct_fields__]\ndef __setstate__(self, state):\n  for n, v in zip(self.__struct_fields__, state): _set(self, n, v)':
        types_TOption,
    'def __init__(self, fields):\n  _set(self, \'fields\', fields)\n  self.__post_init__()\ndef __eq__(self, other):\n  if other.__class__ is self.__class__: return (self.fields,) == (other.fields,)\n  return NotImplemented\ndef __hash__(self): return hash((self.fields,))\ndef __setattr__(self, name, value): raise AttributeError(f"cannot assign to field {name!r}")\ndef __delattr__(self, name): raise AttributeError(f"cannot delete field {name!r}")\ndef __getstate__(self): return [getattr(self, n) for n in self.__struct_fields__]\ndef __setstate__(self, state):\n  for n, v in zip(self.__struct_fields__, state): _set(self, n, v)':
        types_TRecord,
    'def __init__(self, elts):\n  _set(self, \'elts\', elts)\n  self.__post_init__()\ndef __eq__(self, other):\n  if other.__class__ is self.__class__: return (self.elts,) == (other.elts,)\n  return NotImplemented\ndef __hash__(self): return hash((self.elts,))\ndef __setattr__(self, name, value): raise AttributeError(f"cannot assign to field {name!r}")\ndef __delattr__(self, name): raise AttributeError(f"cannot delete field {name!r}")\ndef __getstate__(self): return [getattr(self, n) for n in self.__struct_fields__]\ndef __setstate__(self, state):\n  for n, v in zip(self.__struct_fields__, state): _set(self, n, v)':
        types_TTuple,
    'def __init__(self, name):\n  _set(self, \'name\', name)\ndef __eq__(self, other):\n  if other.__class__ is self.__class__: return (self.name,) == (other.name,)\n  return NotImplemented\ndef __hash__(self): return hash((self.name,))\ndef __setattr__(self, name, value): raise AttributeError(f"cannot assign to field {name!r}")\ndef __delattr__(self, name): raise AttributeError(f"cannot delete field {name!r}")\ndef __getstate__(self): return [getattr(self, n) for n in self.__struct_fields__]\ndef __setstate__(self, state):\n  for n, v in zip(self.__struct_fields__, state): _set(self, n, v)':
        types_TVar,
}
