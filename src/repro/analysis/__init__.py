"""Analysis drivers: simulation, SMT verification, fault tolerance (paper §5-6).

Each driver lives in its own submodule and is imported on first use, so one
analysis does not load the others' back ends.  ``verify`` names the
submodule; the function is :func:`repro.analysis.verify.verify`.
"""

from importlib import import_module

__all__ = ["run_simulation", "SimulationReport", "verify",
           "fault_tolerance_analysis", "naive_fault_tolerance", "FaultReport"]

_HOME = {"run_simulation": "simulation", "SimulationReport": "simulation",
         "fault_tolerance_analysis": "fault", "naive_fault_tolerance": "fault",
         "FaultReport": "fault"}


def __getattr__(name: str):
    if name in _HOME:
        value = globals()[name] = getattr(
            import_module(f"{__name__}.{_HOME[name]}"), name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
