"""Record methods of `repro`, generated by `PYTHONPATH=src python -m repro._struct`;
do not edit.  After adding or editing an `@struct` class, run that command.

Each function defines one method text of `repro/_struct.py` from a class's
defaults (`_d_*`) and factories (`_f_*`); `METHODS` maps the text to it.
Compiled with the package, this file spares every process one `exec` per
record class.
"""

# repro.critpath.ChainEntry
def critpath_ChainEntry(_FACTORY, _set, _d_proc, _d_unit):
  def __init__(self, name, t0, dur, depth, proc=_d_proc, unit=_d_unit):
    self.name = name
    self.t0 = t0
    self.dur = dur
    self.depth = depth
    self.proc = proc
    self.unit = unit
  def __eq__(self, other):
    if other.__class__ is self.__class__: return (self.name,self.t0,self.dur,self.depth,self.proc,self.unit,) == (other.name,other.t0,other.dur,other.depth,other.proc,other.unit,)
    return NotImplemented
  return {'__init__': __init__, '__eq__': __eq__}

# repro.critpath.CriticalPathReport
def critpath_CriticalPathReport(_FACTORY, _set, _d_lpt_bound_seconds, _d_lpt_gap_pct, _f_chain):
  def __init__(self, wall_seconds, total_work_seconds, critical_seconds, lanes, span_count, unit_count, speedup, efficiency_pct, cp_ratio_pct, lpt_bound_seconds=_d_lpt_bound_seconds, lpt_gap_pct=_d_lpt_gap_pct, chain=_FACTORY):
    self.wall_seconds = wall_seconds
    self.total_work_seconds = total_work_seconds
    self.critical_seconds = critical_seconds
    self.lanes = lanes
    self.span_count = span_count
    self.unit_count = unit_count
    self.speedup = speedup
    self.efficiency_pct = efficiency_pct
    self.cp_ratio_pct = cp_ratio_pct
    self.lpt_bound_seconds = lpt_bound_seconds
    self.lpt_gap_pct = lpt_gap_pct
    self.chain = _f_chain() if chain is _FACTORY else chain
  def __eq__(self, other):
    if other.__class__ is self.__class__: return (self.wall_seconds,self.total_work_seconds,self.critical_seconds,self.lanes,self.span_count,self.unit_count,self.speedup,self.efficiency_pct,self.cp_ratio_pct,self.lpt_bound_seconds,self.lpt_gap_pct,self.chain,) == (other.wall_seconds,other.total_work_seconds,other.critical_seconds,other.lanes,other.span_count,other.unit_count,other.speedup,other.efficiency_pct,other.cp_ratio_pct,other.lpt_bound_seconds,other.lpt_gap_pct,other.chain,)
    return NotImplemented
  return {'__init__': __init__, '__eq__': __eq__}

# repro.ledger.UnitRecord
def ledger_UnitRecord(_FACTORY, _set, _d_label, _d_worker, _d_t_submitted, _d_t_started, _d_t_finished, _d_task_bytes, _d_result_bytes, _d_status):
  def __init__(self, unit, label=_d_label, worker=_d_worker, t_submitted=_d_t_submitted, t_started=_d_t_started, t_finished=_d_t_finished, task_bytes=_d_task_bytes, result_bytes=_d_result_bytes, status=_d_status):
    self.unit = unit
    self.label = label
    self.worker = worker
    self.t_submitted = t_submitted
    self.t_started = t_started
    self.t_finished = t_finished
    self.task_bytes = task_bytes
    self.result_bytes = result_bytes
    self.status = status
  def __eq__(self, other):
    if other.__class__ is self.__class__: return (self.unit,self.label,self.worker,self.t_submitted,self.t_started,self.t_finished,self.task_bytes,self.result_bytes,self.status,) == (other.unit,other.label,other.worker,other.t_submitted,other.t_started,other.t_finished,other.task_bytes,other.result_bytes,other.status,)
    return NotImplemented
  return {'__init__': __init__, '__eq__': __eq__}

# repro.obs.Span
def obs_Span(_FACTORY, _set, _d_id, _d_parent_id, _d_t0, _d_dur, _d_n_events, _f_children, _f_counters, _d_partial, _d__perf0):
  def __init__(self, name, attrs, id=_d_id, parent_id=_d_parent_id, t0=_d_t0, dur=_d_dur, n_events=_d_n_events, children=_FACTORY, counters=_FACTORY, partial=_d_partial, _perf0=_d__perf0):
    self.name = name
    self.attrs = attrs
    self.id = id
    self.parent_id = parent_id
    self.t0 = t0
    self.dur = dur
    self.n_events = n_events
    self.children = _f_children() if children is _FACTORY else children
    self.counters = _f_counters() if counters is _FACTORY else counters
    self.partial = partial
    self._perf0 = _perf0
  def __eq__(self, other):
    if other.__class__ is self.__class__: return (self.name,self.attrs,self.id,self.parent_id,self.t0,self.dur,self.n_events,self.children,self.counters,self.partial,self._perf0,) == (other.name,other.attrs,other.id,other.parent_id,other.t0,other.dur,other.n_events,other.children,other.counters,other.partial,other._perf0,)
    return NotImplemented
  return {'__init__': __init__, '__eq__': __eq__}

METHODS = {
    'def __init__(self, name, t0, dur, depth, proc=_d_proc, unit=_d_unit):\n  self.name = name\n  self.t0 = t0\n  self.dur = dur\n  self.depth = depth\n  self.proc = proc\n  self.unit = unit\ndef __eq__(self, other):\n  if other.__class__ is self.__class__: return (self.name,self.t0,self.dur,self.depth,self.proc,self.unit,) == (other.name,other.t0,other.dur,other.depth,other.proc,other.unit,)\n  return NotImplemented':
        critpath_ChainEntry,
    'def __init__(self, wall_seconds, total_work_seconds, critical_seconds, lanes, span_count, unit_count, speedup, efficiency_pct, cp_ratio_pct, lpt_bound_seconds=_d_lpt_bound_seconds, lpt_gap_pct=_d_lpt_gap_pct, chain=_FACTORY):\n  self.wall_seconds = wall_seconds\n  self.total_work_seconds = total_work_seconds\n  self.critical_seconds = critical_seconds\n  self.lanes = lanes\n  self.span_count = span_count\n  self.unit_count = unit_count\n  self.speedup = speedup\n  self.efficiency_pct = efficiency_pct\n  self.cp_ratio_pct = cp_ratio_pct\n  self.lpt_bound_seconds = lpt_bound_seconds\n  self.lpt_gap_pct = lpt_gap_pct\n  self.chain = _f_chain() if chain is _FACTORY else chain\ndef __eq__(self, other):\n  if other.__class__ is self.__class__: return (self.wall_seconds,self.total_work_seconds,self.critical_seconds,self.lanes,self.span_count,self.unit_count,self.speedup,self.efficiency_pct,self.cp_ratio_pct,self.lpt_bound_seconds,self.lpt_gap_pct,self.chain,) == (other.wall_seconds,other.total_work_seconds,other.critical_seconds,other.lanes,other.span_count,other.unit_count,other.speedup,other.efficiency_pct,other.cp_ratio_pct,other.lpt_bound_seconds,other.lpt_gap_pct,other.chain,)\n  return NotImplemented':
        critpath_CriticalPathReport,
    'def __init__(self, unit, label=_d_label, worker=_d_worker, t_submitted=_d_t_submitted, t_started=_d_t_started, t_finished=_d_t_finished, task_bytes=_d_task_bytes, result_bytes=_d_result_bytes, status=_d_status):\n  self.unit = unit\n  self.label = label\n  self.worker = worker\n  self.t_submitted = t_submitted\n  self.t_started = t_started\n  self.t_finished = t_finished\n  self.task_bytes = task_bytes\n  self.result_bytes = result_bytes\n  self.status = status\ndef __eq__(self, other):\n  if other.__class__ is self.__class__: return (self.unit,self.label,self.worker,self.t_submitted,self.t_started,self.t_finished,self.task_bytes,self.result_bytes,self.status,) == (other.unit,other.label,other.worker,other.t_submitted,other.t_started,other.t_finished,other.task_bytes,other.result_bytes,other.status,)\n  return NotImplemented':
        ledger_UnitRecord,
    'def __init__(self, name, attrs, id=_d_id, parent_id=_d_parent_id, t0=_d_t0, dur=_d_dur, n_events=_d_n_events, children=_FACTORY, counters=_FACTORY, partial=_d_partial, _perf0=_d__perf0):\n  self.name = name\n  self.attrs = attrs\n  self.id = id\n  self.parent_id = parent_id\n  self.t0 = t0\n  self.dur = dur\n  self.n_events = n_events\n  self.children = _f_children() if children is _FACTORY else children\n  self.counters = _f_counters() if counters is _FACTORY else counters\n  self.partial = partial\n  self._perf0 = _perf0\ndef __eq__(self, other):\n  if other.__class__ is self.__class__: return (self.name,self.attrs,self.id,self.parent_id,self.t0,self.dur,self.n_events,self.children,self.counters,self.partial,self._perf0,) == (other.name,other.attrs,other.id,other.parent_id,other.t0,other.dur,other.n_events,other.children,other.counters,other.partial,other._perf0,)\n  return NotImplemented':
        obs_Span,
}
