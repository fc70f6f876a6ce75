"""High-level public API for the NV reproduction.

Typical use::

    import repro

    net = repro.load("include bgp ...")          # parse + type check
    report = repro.simulate(net)                 # MTBDD simulation
    result = repro.verify(net)                   # SMT verification
    faults = repro.check_fault_tolerance(net)    # fig 5 meta-protocol

NV source can ``include`` any module from :mod:`repro.protocols`
(``bgp``, ``bgpNarrow``, ``bgpTraversed``, ``ospf``, ``rip``, ``static``).
"""

from __future__ import annotations

from typing import Any, Sequence

from .analysis.fault import FaultReport, fault_tolerance_analysis
from .analysis.simulation import SimulationReport, run_simulation
# SMT verification (paper §5.2), in this process: one network is one query,
# several are one shared-encoding batch, as in ``python -m repro verify``.
from .analysis.verify import verify, verify_many
from .lang.parser import parse_program
from .protocols import resolve as _resolve
from .srp.network import Network


def load(source: str) -> Network:
    """Parse, type check and structure an NV program as a network."""
    return Network.from_program(parse_program(source, _resolve))


def simulate(net: Network, symbolics: dict[str, Any] | None = None,
             backend: str = "interp") -> SimulationReport:
    """Compute the network's stable state by simulation (paper §5.1).

    Symbolic values must be given concrete assignments via ``symbolics``.
    ``backend="native"`` compiles NV to Python first; counting that
    compilation, it is no faster than the interpreter on fig 14's programs
    (DESIGN.md "Expected shapes", finding 4).
    """
    return run_simulation(net, symbolics, backend)


def simulate_many(nets: Sequence[Network],
                  symbolics: dict[str, Any] | None = None,
                  backend: str = "interp") -> list[SimulationReport]:
    """Simulate several networks (e.g. one per destination prefix), one
    after another in this process; reports come back in input order, each
    what :func:`simulate` returns for its network."""
    return [run_simulation(net, symbolics, backend) for net in nets]


def check_fault_tolerance(net: Network, symbolics: dict[str, Any] | None = None,
                          link_failures: int = 1, node_failures: bool = False,
                          witnesses: bool = False,
                          drop: str | None = None) -> FaultReport:
    """Run the fault-tolerance meta-protocol (paper fig 5): simulate every
    combination of up to ``link_failures`` link failures (plus optionally one
    node failure) at once and check the assertion under each.

    ``drop`` is NV source for the dropped-route value with the pre-failure
    route bound to ``__v`` (default: ``None``, for option-typed attributes).

    The analysis is one simulation, in-process: the scenarios share their
    per-link sub-diagrams, so there is no worker count to choose.  Class
    values in the report are live NV values.  To fan out over workers,
    split by destination prefix
    (:func:`repro.analysis.fault.per_prefix_fault_tolerance`).
    """
    drop_body = None
    if drop is not None:
        from .lang.parser import parse_expr
        drop_body = parse_expr(drop)
    return fault_tolerance_analysis(net, symbolics,
                                    num_link_failures=link_failures,
                                    node_failures=node_failures,
                                    with_witnesses=witnesses,
                                    drop_body=drop_body)
