"""Analysis drivers: simulation, SMT verification, fault tolerance (paper §5-6).

Each driver lives in its own submodule, so one analysis does not load the
others' back ends: import from :mod:`repro.analysis.simulation`,
:mod:`~repro.analysis.verify`, :mod:`~repro.analysis.fault` or
:mod:`~repro.analysis.partition`.
"""
