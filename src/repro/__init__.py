"""NV: an intermediate language for verification of network control planes.

A from-scratch Python reproduction of Giannarakis, Loehr, Beckett & Walker,
PLDI 2020.  See :mod:`repro.api` for the high-level entry points:

    >>> import repro
    >>> net = repro.load('''
    ... include rip
    ... let nodes = 3
    ... let edges = {0n=1n; 1n=2n; 0n=2n}
    ... let trans e x = transRip e x
    ... let merge u x y = mergeRip u x y
    ... let init (u : node) = if u = 0n then Some 0u8 else None
    ... ''')
    >>> repro.simulate(net).solution.labels[2]
    Some(1)
"""

__all__ = ["load", "simulate", "simulate_many", "verify", "verify_many",
           "check_fault_tolerance"]
__version__ = "0.1.0"


def __getattr__(name: str):
    # PEP 562: the entry points load :mod:`repro.api` (and through it every
    # back end) on first use, so ``import repro.topology`` or one CLI
    # command pays only for the modules it runs.
    if name in __all__:
        from . import api
        value = globals()[name] = getattr(api, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
