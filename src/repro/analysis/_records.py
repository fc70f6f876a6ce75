"""Record methods of `repro.analysis`, generated by `PYTHONPATH=src python -m repro._struct`;
do not edit.  After adding or editing an `@struct` class, run that command.

Each function defines one method text of `repro/_struct.py` from a class's
defaults (`_d_*`) and factories (`_f_*`); `METHODS` maps the text to it.
Compiled with the package, this file spares every process one `exec` per
record class.
"""

# repro.analysis.fault.FaultReport
def fault_FaultReport(_FACTORY, _set, _f_witnesses):
  def __init__(self, num_link_failures, node_failures, nodes, simulate_seconds, transform_seconds, witnesses=_FACTORY):
    self.num_link_failures = num_link_failures
    self.node_failures = node_failures
    self.nodes = nodes
    self.simulate_seconds = simulate_seconds
    self.transform_seconds = transform_seconds
    self.witnesses = _f_witnesses() if witnesses is _FACTORY else witnesses
  def __eq__(self, other):
    if other.__class__ is self.__class__: return (self.num_link_failures,self.node_failures,self.nodes,self.simulate_seconds,self.transform_seconds,self.witnesses,) == (other.num_link_failures,other.node_failures,other.nodes,other.simulate_seconds,other.transform_seconds,other.witnesses,)
    return NotImplemented
  return {'__init__': __init__, '__eq__': __eq__}

# repro.analysis.fault.NodeFaultReport
def fault_NodeFaultReport(_FACTORY, _set):
  def __init__(self, node, classes):
    self.node = node
    self.classes = classes
  def __eq__(self, other):
    if other.__class__ is self.__class__: return (self.node,self.classes,) == (other.node,other.classes,)
    return NotImplemented
  return {'__init__': __init__, '__eq__': __eq__}

# repro.analysis.fault.SmtFaultReport
def fault_SmtFaultReport(_FACTORY, _set):
  def __init__(self, num_link_failures, scenarios, encode_seconds, solve_seconds):
    self.num_link_failures = num_link_failures
    self.scenarios = scenarios
    self.encode_seconds = encode_seconds
    self.solve_seconds = solve_seconds
  def __eq__(self, other):
    if other.__class__ is self.__class__: return (self.num_link_failures,self.scenarios,self.encode_seconds,self.solve_seconds,) == (other.num_link_failures,other.scenarios,other.encode_seconds,other.solve_seconds,)
    return NotImplemented
  return {'__init__': __init__, '__eq__': __eq__}

# repro.analysis.fault.SmtScenarioResult
def fault_SmtScenarioResult(_FACTORY, _set, _f_node_attrs):
  def __init__(self, failed_links, status, node_attrs=_FACTORY):
    self.failed_links = failed_links
    self.status = status
    self.node_attrs = _f_node_attrs() if node_attrs is _FACTORY else node_attrs
  def __eq__(self, other):
    if other.__class__ is self.__class__: return (self.failed_links,self.status,self.node_attrs,) == (other.failed_links,other.status,other.node_attrs,)
    return NotImplemented
  return {'__init__': __init__, '__eq__': __eq__}

# repro.analysis.partition.ConcreteInterface
def partition_ConcreteInterface(_FACTORY, _set):
  def __init__(self, value):
    _set(self, 'value', value)
  def __eq__(self, other):
    if other.__class__ is self.__class__: return (self.value,) == (other.value,)
    return NotImplemented
  def __hash__(self): return hash((self.value,))
  def __setattr__(self, name, value): raise AttributeError(f"cannot assign to field {name!r}")
  def __delattr__(self, name): raise AttributeError(f"cannot delete field {name!r}")
  return {'__init__': __init__, '__eq__': __eq__, '__hash__': __hash__, '__setattr__': __setattr__, '__delattr__': __delattr__}

# repro.analysis.partition.ExprInterface, repro.analysis.partition.PredInterface
def partition_ExprInterface(_FACTORY, _set):
  def __init__(self, let_name):
    _set(self, 'let_name', let_name)
  def __eq__(self, other):
    if other.__class__ is self.__class__: return (self.let_name,) == (other.let_name,)
    return NotImplemented
  def __hash__(self): return hash((self.let_name,))
  def __setattr__(self, name, value): raise AttributeError(f"cannot assign to field {name!r}")
  def __delattr__(self, name): raise AttributeError(f"cannot delete field {name!r}")
  return {'__init__': __init__, '__eq__': __eq__, '__hash__': __hash__, '__setattr__': __setattr__, '__delattr__': __delattr__}

# repro.analysis.partition.FragmentResult
def partition_FragmentResult(_FACTORY, _set):
  def __init__(self, index, nodes, result, guarantees, encode_seconds, seconds):
    self.index = index
    self.nodes = nodes
    self.result = result
    self.guarantees = guarantees
    self.encode_seconds = encode_seconds
    self.seconds = seconds
  def __eq__(self, other):
    if other.__class__ is self.__class__: return (self.index,self.nodes,self.result,self.guarantees,self.encode_seconds,self.seconds,) == (other.index,other.nodes,other.result,other.guarantees,other.encode_seconds,other.seconds,)
    return NotImplemented
  return {'__init__': __init__, '__eq__': __eq__}

# repro.analysis.partition.InterfaceCheck
def partition_InterfaceCheck(_FACTORY, _set, _d_witness):
  def __init__(self, edge, kind, status, seconds, witness=_d_witness):
    self.edge = edge
    self.kind = kind
    self.status = status
    self.seconds = seconds
    self.witness = witness
  def __eq__(self, other):
    if other.__class__ is self.__class__: return (self.edge,self.kind,self.status,self.seconds,self.witness,) == (other.edge,other.kind,other.status,other.seconds,other.witness,)
    return NotImplemented
  return {'__init__': __init__, '__eq__': __eq__}

# repro.analysis.partition.PartitionReport
def partition_PartitionReport(_FACTORY, _set, _f_refuted_interfaces, _d_counterexample, _d_node_attrs, _d_stitched, _d_escalated, _d_monolithic, _f_inferred, _d_infer_seconds, _d_wall_seconds):
  def __init__(self, status, verified, plan, fragments, kinds, refuted_interfaces=_FACTORY, counterexample=_d_counterexample, node_attrs=_d_node_attrs, stitched=_d_stitched, escalated=_d_escalated, monolithic=_d_monolithic, inferred=_FACTORY, infer_seconds=_d_infer_seconds, wall_seconds=_d_wall_seconds):
    self.status = status
    self.verified = verified
    self.plan = plan
    self.fragments = fragments
    self.kinds = kinds
    self.refuted_interfaces = _f_refuted_interfaces() if refuted_interfaces is _FACTORY else refuted_interfaces
    self.counterexample = counterexample
    self.node_attrs = node_attrs
    self.stitched = stitched
    self.escalated = escalated
    self.monolithic = monolithic
    self.inferred = _f_inferred() if inferred is _FACTORY else inferred
    self.infer_seconds = infer_seconds
    self.wall_seconds = wall_seconds
  def __eq__(self, other):
    if other.__class__ is self.__class__: return (self.status,self.verified,self.plan,self.fragments,self.kinds,self.refuted_interfaces,self.counterexample,self.node_attrs,self.stitched,self.escalated,self.monolithic,self.inferred,self.infer_seconds,self.wall_seconds,) == (other.status,other.verified,other.plan,other.fragments,other.kinds,other.refuted_interfaces,other.counterexample,other.node_attrs,other.stitched,other.escalated,other.monolithic,other.inferred,other.infer_seconds,other.wall_seconds,)
    return NotImplemented
  return {'__init__': __init__, '__eq__': __eq__}

# repro.analysis.simulation.SimulationReport
def simulation_SimulationReport(_FACTORY, _set, _d_funcs):
  def __init__(self, solution, backend, setup_seconds, simulate_seconds, violations, funcs=_d_funcs):
    self.solution = solution
    self.backend = backend
    self.setup_seconds = setup_seconds
    self.simulate_seconds = simulate_seconds
    self.violations = violations
    self.funcs = funcs
  def __eq__(self, other):
    if other.__class__ is self.__class__: return (self.solution,self.backend,self.setup_seconds,self.simulate_seconds,self.violations,) == (other.solution,other.backend,other.setup_seconds,other.simulate_seconds,other.violations,)
    return NotImplemented
  return {'__init__': __init__, '__eq__': __eq__}

METHODS = {
    'def __init__(self, num_link_failures, node_failures, nodes, simulate_seconds, transform_seconds, witnesses=_FACTORY):\n  self.num_link_failures = num_link_failures\n  self.node_failures = node_failures\n  self.nodes = nodes\n  self.simulate_seconds = simulate_seconds\n  self.transform_seconds = transform_seconds\n  self.witnesses = _f_witnesses() if witnesses is _FACTORY else witnesses\ndef __eq__(self, other):\n  if other.__class__ is self.__class__: return (self.num_link_failures,self.node_failures,self.nodes,self.simulate_seconds,self.transform_seconds,self.witnesses,) == (other.num_link_failures,other.node_failures,other.nodes,other.simulate_seconds,other.transform_seconds,other.witnesses,)\n  return NotImplemented':
        fault_FaultReport,
    'def __init__(self, node, classes):\n  self.node = node\n  self.classes = classes\ndef __eq__(self, other):\n  if other.__class__ is self.__class__: return (self.node,self.classes,) == (other.node,other.classes,)\n  return NotImplemented':
        fault_NodeFaultReport,
    'def __init__(self, num_link_failures, scenarios, encode_seconds, solve_seconds):\n  self.num_link_failures = num_link_failures\n  self.scenarios = scenarios\n  self.encode_seconds = encode_seconds\n  self.solve_seconds = solve_seconds\ndef __eq__(self, other):\n  if other.__class__ is self.__class__: return (self.num_link_failures,self.scenarios,self.encode_seconds,self.solve_seconds,) == (other.num_link_failures,other.scenarios,other.encode_seconds,other.solve_seconds,)\n  return NotImplemented':
        fault_SmtFaultReport,
    'def __init__(self, failed_links, status, node_attrs=_FACTORY):\n  self.failed_links = failed_links\n  self.status = status\n  self.node_attrs = _f_node_attrs() if node_attrs is _FACTORY else node_attrs\ndef __eq__(self, other):\n  if other.__class__ is self.__class__: return (self.failed_links,self.status,self.node_attrs,) == (other.failed_links,other.status,other.node_attrs,)\n  return NotImplemented':
        fault_SmtScenarioResult,
    'def __init__(self, value):\n  _set(self, \'value\', value)\ndef __eq__(self, other):\n  if other.__class__ is self.__class__: return (self.value,) == (other.value,)\n  return NotImplemented\ndef __hash__(self): return hash((self.value,))\ndef __setattr__(self, name, value): raise AttributeError(f"cannot assign to field {name!r}")\ndef __delattr__(self, name): raise AttributeError(f"cannot delete field {name!r}")':
        partition_ConcreteInterface,
    'def __init__(self, let_name):\n  _set(self, \'let_name\', let_name)\ndef __eq__(self, other):\n  if other.__class__ is self.__class__: return (self.let_name,) == (other.let_name,)\n  return NotImplemented\ndef __hash__(self): return hash((self.let_name,))\ndef __setattr__(self, name, value): raise AttributeError(f"cannot assign to field {name!r}")\ndef __delattr__(self, name): raise AttributeError(f"cannot delete field {name!r}")':
        partition_ExprInterface,
    'def __init__(self, index, nodes, result, guarantees, encode_seconds, seconds):\n  self.index = index\n  self.nodes = nodes\n  self.result = result\n  self.guarantees = guarantees\n  self.encode_seconds = encode_seconds\n  self.seconds = seconds\ndef __eq__(self, other):\n  if other.__class__ is self.__class__: return (self.index,self.nodes,self.result,self.guarantees,self.encode_seconds,self.seconds,) == (other.index,other.nodes,other.result,other.guarantees,other.encode_seconds,other.seconds,)\n  return NotImplemented':
        partition_FragmentResult,
    'def __init__(self, edge, kind, status, seconds, witness=_d_witness):\n  self.edge = edge\n  self.kind = kind\n  self.status = status\n  self.seconds = seconds\n  self.witness = witness\ndef __eq__(self, other):\n  if other.__class__ is self.__class__: return (self.edge,self.kind,self.status,self.seconds,self.witness,) == (other.edge,other.kind,other.status,other.seconds,other.witness,)\n  return NotImplemented':
        partition_InterfaceCheck,
    'def __init__(self, status, verified, plan, fragments, kinds, refuted_interfaces=_FACTORY, counterexample=_d_counterexample, node_attrs=_d_node_attrs, stitched=_d_stitched, escalated=_d_escalated, monolithic=_d_monolithic, inferred=_FACTORY, infer_seconds=_d_infer_seconds, wall_seconds=_d_wall_seconds):\n  self.status = status\n  self.verified = verified\n  self.plan = plan\n  self.fragments = fragments\n  self.kinds = kinds\n  self.refuted_interfaces = _f_refuted_interfaces() if refuted_interfaces is _FACTORY else refuted_interfaces\n  self.counterexample = counterexample\n  self.node_attrs = node_attrs\n  self.stitched = stitched\n  self.escalated = escalated\n  self.monolithic = monolithic\n  self.inferred = _f_inferred() if inferred is _FACTORY else inferred\n  self.infer_seconds = infer_seconds\n  self.wall_seconds = wall_seconds\ndef __eq__(self, other):\n  if other.__class__ is self.__class__: return (self.status,self.verified,self.plan,self.fragments,self.kinds,self.refuted_interfaces,self.counterexample,self.node_attrs,self.stitched,self.escalated,self.monolithic,self.inferred,self.infer_seconds,self.wall_seconds,) == (other.status,other.verified,other.plan,other.fragments,other.kinds,other.refuted_interfaces,other.counterexample,other.node_attrs,other.stitched,other.escalated,other.monolithic,other.inferred,other.infer_seconds,other.wall_seconds,)\n  return NotImplemented':
        partition_PartitionReport,
    'def __init__(self, solution, backend, setup_seconds, simulate_seconds, violations, funcs=_d_funcs):\n  self.solution = solution\n  self.backend = backend\n  self.setup_seconds = setup_seconds\n  self.simulate_seconds = simulate_seconds\n  self.violations = violations\n  self.funcs = funcs\ndef __eq__(self, other):\n  if other.__class__ is self.__class__: return (self.solution,self.backend,self.setup_seconds,self.simulate_seconds,self.violations,) == (other.solution,other.backend,other.setup_seconds,other.simulate_seconds,other.violations,)\n  return NotImplemented':
        simulation_SimulationReport,
}
