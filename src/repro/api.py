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

from .analysis.fault import (FaultReport, fault_tolerance_analysis,
                             fault_tolerance_sharded)
from .analysis.simulation import (SimulationReport, run_simulation,
                                  run_simulations)
from .analysis.verify import verify as _verify
from .analysis.verify import verify_many as _verify_many
from .lang.parser import parse_program
from .protocols import resolve as _resolve
from .smt.encode_nv import VerificationResult
from .srp.network import Network


def load(source: str) -> Network:
    """Parse, type check and structure an NV program as a network."""
    return Network.from_program(parse_program(source, _resolve))


def simulate(net: Network, symbolics: dict[str, Any] | None = None,
             backend: str = "interp") -> SimulationReport:
    """Compute the network's stable state by simulation (paper §5.1).

    Symbolic values must be given concrete assignments via ``symbolics``.
    ``backend="native"`` compiles NV to Python first (faster for complex
    policy; pays a compilation cost).
    """
    return run_simulation(net, symbolics, backend)


def simulate_many(nets: Sequence[Network],
                  symbolics: dict[str, Any] | None = None,
                  backend: str = "interp",
                  jobs: int | None = 1) -> list[SimulationReport]:
    """Simulate several networks (e.g. one per destination prefix), sharded
    over ``jobs`` worker processes.  ``jobs=None`` resolves ``NV_JOBS`` /
    CPU count; reports come back in input order with frozen (picklable)
    labels, identical in content to serial runs."""
    return run_simulations(nets, symbolics, backend, jobs=jobs)


def verify(net: Network, **kwargs: Any) -> VerificationResult:
    """Verify the network's assertion over *all* stable states and *all*
    symbolic-value assignments via SMT (paper §5.2).

    ``portfolio=k`` races ``k`` diversified CDCL strategies on the query
    (first answer wins); ``jobs`` bounds the racer processes.
    """
    return _verify(net, **kwargs)


def verify_many(nets: Sequence[Network], jobs: int | None = 1,
                **kwargs: Any) -> list[VerificationResult]:
    """Verify several networks as independent SMT queries sharded over
    ``jobs`` worker processes (results in input order)."""
    return _verify_many(nets, jobs=jobs, **kwargs)


def check_fault_tolerance(net: Network, symbolics: dict[str, Any] | None = None,
                          link_failures: int = 1, node_failures: bool = False,
                          witnesses: bool = False,
                          drop: str | None = None,
                          jobs: int | None = 1) -> FaultReport:
    """Run the fault-tolerance meta-protocol (paper fig 5): simulate every
    combination of up to ``link_failures`` link failures (plus optionally one
    node failure) at once and check the assertion under each.

    ``drop`` is NV source for the dropped-route value with the pre-failure
    route bound to ``__v`` (default: ``None``, for option-typed attributes).

    ``jobs != 1`` shards the scenario space into one link batch per worker
    process and merges the per-batch reports — same classes, counts and
    witnesses, in the same order, as the serial analysis (``jobs=None``
    resolves ``NV_JOBS`` / CPU count).  With the default ``jobs=1`` the
    classic single-process analysis runs and class values stay *live* NV
    values (sharded reports carry frozen map snapshots instead).
    """
    drop_body = None
    if drop is not None:
        from .lang.parser import parse_expr
        drop_body = parse_expr(drop)
    if jobs == 1:
        return fault_tolerance_analysis(net, symbolics,
                                        num_link_failures=link_failures,
                                        node_failures=node_failures,
                                        with_witnesses=witnesses,
                                        drop_body=drop_body)
    return fault_tolerance_sharded(net, symbolics,
                                   num_link_failures=link_failures,
                                   node_failures=node_failures,
                                   with_witnesses=witnesses,
                                   drop_body=drop_body, jobs=jobs)
