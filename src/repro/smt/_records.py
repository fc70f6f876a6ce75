"""Record methods of `repro.smt`, generated by `PYTHONPATH=src python -m repro._struct`;
do not edit.  After adding or editing an `@struct` class, run that command.

Each function defines one method text of `repro/_struct.py` from a class's
defaults (`_d_*`) and factories (`_f_*`); `METHODS` maps the text to it.
Compiled with the package, this file spares every process one `exec` per
record class.
"""

# repro.smt.cnf.Cnf
def cnf_Cnf(_FACTORY, _set, _d_num_vars, _f_clauses, _f_term_lit, _f_name_var, _d_duplicates_dropped, _d_tautologies_dropped, _f__seen):
  def __init__(self, num_vars=_d_num_vars, clauses=_FACTORY, term_lit=_FACTORY, name_var=_FACTORY, duplicates_dropped=_d_duplicates_dropped, tautologies_dropped=_d_tautologies_dropped, _seen=_FACTORY):
    self.num_vars = num_vars
    self.clauses = _f_clauses() if clauses is _FACTORY else clauses
    self.term_lit = _f_term_lit() if term_lit is _FACTORY else term_lit
    self.name_var = _f_name_var() if name_var is _FACTORY else name_var
    self.duplicates_dropped = duplicates_dropped
    self.tautologies_dropped = tautologies_dropped
    self._seen = _f__seen() if _seen is _FACTORY else _seen
  def __eq__(self, other):
    if other.__class__ is self.__class__: return (self.num_vars,self.clauses,self.term_lit,self.name_var,self.duplicates_dropped,self.tautologies_dropped,self._seen,) == (other.num_vars,other.clauses,other.term_lit,other.name_var,other.duplicates_dropped,other.tautologies_dropped,other._seen,)
    return NotImplemented
  return {'__init__': __init__, '__eq__': __eq__}

# repro.smt.encode_nv.VerificationResult
def encode_nv_VerificationResult(_FACTORY, _set, _f_counterexample, _f_node_attrs):
  def __init__(self, verified, status, smt, encode_seconds, counterexample=_FACTORY, node_attrs=_FACTORY):
    self.verified = verified
    self.status = status
    self.smt = smt
    self.encode_seconds = encode_seconds
    self.counterexample = _f_counterexample() if counterexample is _FACTORY else counterexample
    self.node_attrs = _f_node_attrs() if node_attrs is _FACTORY else node_attrs
  def __eq__(self, other):
    if other.__class__ is self.__class__: return (self.verified,self.status,self.smt,self.encode_seconds,self.counterexample,self.node_attrs,) == (other.verified,other.status,other.smt,other.encode_seconds,other.counterexample,other.node_attrs,)
    return NotImplemented
  return {'__init__': __init__, '__eq__': __eq__}

# repro.smt.preprocess.PreprocessStats
def preprocess_PreprocessStats(_FACTORY, _set, _d_clauses_in, _d_clauses_out, _d_units_fixed, _d_duplicates_dropped, _d_tautologies_dropped, _d_subsumed, _d_strengthened, _d_vars_eliminated, _d_rounds):
  def __init__(self, clauses_in=_d_clauses_in, clauses_out=_d_clauses_out, units_fixed=_d_units_fixed, duplicates_dropped=_d_duplicates_dropped, tautologies_dropped=_d_tautologies_dropped, subsumed=_d_subsumed, strengthened=_d_strengthened, vars_eliminated=_d_vars_eliminated, rounds=_d_rounds):
    self.clauses_in = clauses_in
    self.clauses_out = clauses_out
    self.units_fixed = units_fixed
    self.duplicates_dropped = duplicates_dropped
    self.tautologies_dropped = tautologies_dropped
    self.subsumed = subsumed
    self.strengthened = strengthened
    self.vars_eliminated = vars_eliminated
    self.rounds = rounds
  def __eq__(self, other):
    if other.__class__ is self.__class__: return (self.clauses_in,self.clauses_out,self.units_fixed,self.duplicates_dropped,self.tautologies_dropped,self.subsumed,self.strengthened,self.vars_eliminated,self.rounds,) == (other.clauses_in,other.clauses_out,other.units_fixed,other.duplicates_dropped,other.tautologies_dropped,other.subsumed,other.strengthened,other.vars_eliminated,other.rounds,)
    return NotImplemented
  return {'__init__': __init__, '__eq__': __eq__}

# repro.smt.solver.SmtResult
def solver_SmtResult(_FACTORY, _set, _f_model_bools, _f_model_bvs, _d_num_vars, _d_num_clauses, _d_encode_seconds, _d_solve_seconds, _d_conflicts, _d_decisions, _d_propagations, _d_restarts, _f_stats, _f_core):
  def __init__(self, status, model_bools=_FACTORY, model_bvs=_FACTORY, num_vars=_d_num_vars, num_clauses=_d_num_clauses, encode_seconds=_d_encode_seconds, solve_seconds=_d_solve_seconds, conflicts=_d_conflicts, decisions=_d_decisions, propagations=_d_propagations, restarts=_d_restarts, stats=_FACTORY, core=_FACTORY):
    self.status = status
    self.model_bools = _f_model_bools() if model_bools is _FACTORY else model_bools
    self.model_bvs = _f_model_bvs() if model_bvs is _FACTORY else model_bvs
    self.num_vars = num_vars
    self.num_clauses = num_clauses
    self.encode_seconds = encode_seconds
    self.solve_seconds = solve_seconds
    self.conflicts = conflicts
    self.decisions = decisions
    self.propagations = propagations
    self.restarts = restarts
    self.stats = _f_stats() if stats is _FACTORY else stats
    self.core = _f_core() if core is _FACTORY else core
  def __eq__(self, other):
    if other.__class__ is self.__class__: return (self.status,self.model_bools,self.model_bvs,self.num_vars,self.num_clauses,self.encode_seconds,self.solve_seconds,self.conflicts,self.decisions,self.propagations,self.restarts,self.stats,self.core,) == (other.status,other.model_bools,other.model_bvs,other.num_vars,other.num_clauses,other.encode_seconds,other.solve_seconds,other.conflicts,other.decisions,other.propagations,other.restarts,other.stats,other.core,)
    return NotImplemented
  return {'__init__': __init__, '__eq__': __eq__}

# repro.smt.terms.TermData
def terms_TermData(_FACTORY, _set):
  def __init__(self, op, args, payload, width):
    _set(self, 'op', op)
    _set(self, 'args', args)
    _set(self, 'payload', payload)
    _set(self, 'width', width)
  def __eq__(self, other):
    if other.__class__ is self.__class__: return (self.op,self.args,self.payload,self.width,) == (other.op,other.args,other.payload,other.width,)
    return NotImplemented
  def __hash__(self): return hash((self.op,self.args,self.payload,self.width,))
  def __setattr__(self, name, value): raise AttributeError(f"cannot assign to field {name!r}")
  def __delattr__(self, name): raise AttributeError(f"cannot delete field {name!r}")
  def __getstate__(self): return [getattr(self, n) for n in self.__struct_fields__]
  def __setstate__(self, state):
    for n, v in zip(self.__struct_fields__, state): _set(self, n, v)
  return {'__init__': __init__, '__eq__': __eq__, '__hash__': __hash__, '__setattr__': __setattr__, '__delattr__': __delattr__, '__getstate__': __getstate__, '__setstate__': __setstate__}

METHODS = {
    'def __init__(self, num_vars=_d_num_vars, clauses=_FACTORY, term_lit=_FACTORY, name_var=_FACTORY, duplicates_dropped=_d_duplicates_dropped, tautologies_dropped=_d_tautologies_dropped, _seen=_FACTORY):\n  self.num_vars = num_vars\n  self.clauses = _f_clauses() if clauses is _FACTORY else clauses\n  self.term_lit = _f_term_lit() if term_lit is _FACTORY else term_lit\n  self.name_var = _f_name_var() if name_var is _FACTORY else name_var\n  self.duplicates_dropped = duplicates_dropped\n  self.tautologies_dropped = tautologies_dropped\n  self._seen = _f__seen() if _seen is _FACTORY else _seen\ndef __eq__(self, other):\n  if other.__class__ is self.__class__: return (self.num_vars,self.clauses,self.term_lit,self.name_var,self.duplicates_dropped,self.tautologies_dropped,self._seen,) == (other.num_vars,other.clauses,other.term_lit,other.name_var,other.duplicates_dropped,other.tautologies_dropped,other._seen,)\n  return NotImplemented':
        cnf_Cnf,
    'def __init__(self, verified, status, smt, encode_seconds, counterexample=_FACTORY, node_attrs=_FACTORY):\n  self.verified = verified\n  self.status = status\n  self.smt = smt\n  self.encode_seconds = encode_seconds\n  self.counterexample = _f_counterexample() if counterexample is _FACTORY else counterexample\n  self.node_attrs = _f_node_attrs() if node_attrs is _FACTORY else node_attrs\ndef __eq__(self, other):\n  if other.__class__ is self.__class__: return (self.verified,self.status,self.smt,self.encode_seconds,self.counterexample,self.node_attrs,) == (other.verified,other.status,other.smt,other.encode_seconds,other.counterexample,other.node_attrs,)\n  return NotImplemented':
        encode_nv_VerificationResult,
    'def __init__(self, clauses_in=_d_clauses_in, clauses_out=_d_clauses_out, units_fixed=_d_units_fixed, duplicates_dropped=_d_duplicates_dropped, tautologies_dropped=_d_tautologies_dropped, subsumed=_d_subsumed, strengthened=_d_strengthened, vars_eliminated=_d_vars_eliminated, rounds=_d_rounds):\n  self.clauses_in = clauses_in\n  self.clauses_out = clauses_out\n  self.units_fixed = units_fixed\n  self.duplicates_dropped = duplicates_dropped\n  self.tautologies_dropped = tautologies_dropped\n  self.subsumed = subsumed\n  self.strengthened = strengthened\n  self.vars_eliminated = vars_eliminated\n  self.rounds = rounds\ndef __eq__(self, other):\n  if other.__class__ is self.__class__: return (self.clauses_in,self.clauses_out,self.units_fixed,self.duplicates_dropped,self.tautologies_dropped,self.subsumed,self.strengthened,self.vars_eliminated,self.rounds,) == (other.clauses_in,other.clauses_out,other.units_fixed,other.duplicates_dropped,other.tautologies_dropped,other.subsumed,other.strengthened,other.vars_eliminated,other.rounds,)\n  return NotImplemented':
        preprocess_PreprocessStats,
    'def __init__(self, status, model_bools=_FACTORY, model_bvs=_FACTORY, num_vars=_d_num_vars, num_clauses=_d_num_clauses, encode_seconds=_d_encode_seconds, solve_seconds=_d_solve_seconds, conflicts=_d_conflicts, decisions=_d_decisions, propagations=_d_propagations, restarts=_d_restarts, stats=_FACTORY, core=_FACTORY):\n  self.status = status\n  self.model_bools = _f_model_bools() if model_bools is _FACTORY else model_bools\n  self.model_bvs = _f_model_bvs() if model_bvs is _FACTORY else model_bvs\n  self.num_vars = num_vars\n  self.num_clauses = num_clauses\n  self.encode_seconds = encode_seconds\n  self.solve_seconds = solve_seconds\n  self.conflicts = conflicts\n  self.decisions = decisions\n  self.propagations = propagations\n  self.restarts = restarts\n  self.stats = _f_stats() if stats is _FACTORY else stats\n  self.core = _f_core() if core is _FACTORY else core\ndef __eq__(self, other):\n  if other.__class__ is self.__class__: return (self.status,self.model_bools,self.model_bvs,self.num_vars,self.num_clauses,self.encode_seconds,self.solve_seconds,self.conflicts,self.decisions,self.propagations,self.restarts,self.stats,self.core,) == (other.status,other.model_bools,other.model_bvs,other.num_vars,other.num_clauses,other.encode_seconds,other.solve_seconds,other.conflicts,other.decisions,other.propagations,other.restarts,other.stats,other.core,)\n  return NotImplemented':
        solver_SmtResult,
    'def __init__(self, op, args, payload, width):\n  _set(self, \'op\', op)\n  _set(self, \'args\', args)\n  _set(self, \'payload\', payload)\n  _set(self, \'width\', width)\ndef __eq__(self, other):\n  if other.__class__ is self.__class__: return (self.op,self.args,self.payload,self.width,) == (other.op,other.args,other.payload,other.width,)\n  return NotImplemented\ndef __hash__(self): return hash((self.op,self.args,self.payload,self.width,))\ndef __setattr__(self, name, value): raise AttributeError(f"cannot assign to field {name!r}")\ndef __delattr__(self, name): raise AttributeError(f"cannot delete field {name!r}")\ndef __getstate__(self): return [getattr(self, n) for n in self.__struct_fields__]\ndef __setstate__(self, state):\n  for n, v in zip(self.__struct_fields__, state): _set(self, n, v)':
        terms_TermData,
}
