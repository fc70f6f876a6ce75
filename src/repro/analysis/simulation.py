"""Simulation analysis driver: run a network to its stable state.

Wraps the worklist simulator with backend selection (interpreted vs compiled,
§5.1's "native simulation") and returns timing/stats so the benchmark harness
can report the same splits as the paper's fig 13c/14 (compile time included
or excluded).
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Sequence

from .. import metrics, obs, parallel, perf, telemetry
from .._struct import struct
from ..srp.network import Network, functions_from_program
from ..srp.simulate import simulate
from ..srp.solution import Solution


@struct
class SimulationReport:
    solution: Solution
    backend: str
    setup_seconds: float        # interpreter env build or compilation
    simulate_seconds: float
    violations: list[int]

    @property
    def total_seconds(self) -> float:
        return self.setup_seconds + self.simulate_seconds

    def summary(self) -> str:
        status = "assertions hold" if not self.violations else (
            f"{len(self.violations)} nodes violate the assertion")
        lines = [(f"[{self.backend}] {status}; setup {self.setup_seconds:.3f}s, "
                  f"simulate {self.simulate_seconds:.3f}s, "
                  f"{self.solution.iterations} activations, "
                  f"{self.solution.messages} messages")]
        stats = self.solution.stats
        if stats:
            extras = []
            rate = perf.hit_rate(stats, "merge_cache")
            if rate is not None:
                extras.append(f"merge memo {rate:.1%}")
            skipped = stats.get("skipped_activations")
            if skipped:
                extras.append(f"{skipped} skipped activations")
            if extras:
                lines.append("  cache: " + ", ".join(extras))
        if perf.is_enabled():
            lines.append(perf.report())
        return "\n".join(lines)


def run_simulation(net: Network, symbolics: dict[str, Any] | None = None,
                   backend: str = "interp",
                   incremental: bool = True,
                   lower: bool = False) -> SimulationReport:
    """Simulate ``net`` to convergence.

    ``backend`` is ``"interp"`` (the AST interpreter) or ``"native"``
    (NV compiled to Python, the paper's native simulation).  ``incremental``
    toggles the incremental-merge optimisation of Algorithm 1 (the ablation
    benchmark measures it).  ``lower=True`` first runs the value-preserving
    subset of the §5.2 pipeline (inlining + partial evaluation; the
    shape-changing unbox/flatten passes are skipped so labels keep their
    source representation) — ``--trace`` uses this to show per-pass spans.
    """
    t0 = perf_counter()
    if lower:
        from ..transform.pipeline import lower_program
        net = lower_program(net, unbox=False, flatten=False)
    if backend == "interp":
        with obs.span("sim.setup", backend=backend):
            funcs = functions_from_program(net, symbolics)
    elif backend == "native":
        from ..eval.compile_py import compile_network_functions

        with obs.span("sim.setup", backend=backend):
            funcs = compile_network_functions(net, symbolics)
    else:
        raise ValueError(f"unknown backend {backend!r}; use 'interp' or 'native'")
    setup_seconds = perf_counter() - t0

    t0 = perf_counter()
    with metrics.phase("sim.simulate"), \
         obs.span("sim.simulate", nodes=net.num_nodes,
                  edges=len(net.edges)) as sp:
        solution = simulate(funcs, incremental=incremental)
        if sp is not None:
            sp.attrs.update(activations=solution.iterations,
                            messages=solution.messages)
    simulate_seconds = perf_counter() - t0

    if funcs.ctx is not None:
        perf.merge(funcs.ctx.manager.stats(), prefix="bdd.")
        telemetry.flush(funcs.ctx.manager)
    else:
        telemetry.flush()
    perf.merge({"setup_seconds": setup_seconds,
                "simulate_seconds": simulate_seconds}, prefix="sim.")

    with obs.span("sim.assertions"):
        violations = solution.check_assertions(funcs.assert_fn)
    return SimulationReport(solution, backend, setup_seconds,
                            simulate_seconds, violations)


# ----------------------------------------------------------------------
# Sharded execution: one simulation per destination prefix
# ----------------------------------------------------------------------

def freeze_simulation_report(report: SimulationReport) -> SimulationReport:
    """Make a report transportable across the process boundary: converged
    labels have their live :class:`~repro.eval.maps.NVMap`s replaced with
    picklable :class:`~repro.eval.maps.FrozenMap` snapshots (map-free labels
    come back unchanged)."""
    from ..eval.maps import freeze_value

    solution = report.solution
    frozen = Solution([freeze_value(v) for v in solution.labels],
                      iterations=solution.iterations,
                      messages=solution.messages,
                      stats=dict(solution.stats))
    return SimulationReport(frozen, report.backend, report.setup_seconds,
                            report.simulate_seconds, list(report.violations))


def _sim_shard_factory(payload: dict[str, Any]):
    """Worker-side factory for :func:`run_simulations`: per unit, simulate
    one network (typically one destination prefix of the same topology —
    the paper's fig 13c/14 per-prefix decomposition).  Interpreter
    environments / compiled functions / BDD managers are rebuilt here,
    once per unit, never pickled."""
    nets: list[Network] = payload["nets"]

    def run(idx: int) -> SimulationReport:
        return freeze_simulation_report(run_simulation(
            nets[idx], payload["symbolics"], payload["backend"],
            incremental=payload["incremental"], lower=payload["lower"]))

    return run


def run_simulations(nets: Sequence[Network],
                    symbolics: dict[str, Any] | None = None,
                    backend: str = "interp",
                    incremental: bool = True,
                    lower: bool = False,
                    jobs: int | None = 1,
                    start_method: str | None = None,
                    unit_labels: Sequence[str] | None = None
                    ) -> list[SimulationReport]:
    """Simulate several networks (one per destination prefix) to
    convergence, sharded over a :mod:`repro.parallel` worker pool.

    Reports come back in input order; ``jobs=1`` runs the same units
    in-process through the same code path, so parallel output is identical
    to serial.  ``jobs=None`` resolves ``NV_JOBS`` / CPU count.
    ``unit_labels`` names each network (e.g. its source file) in unit
    spans and the work ledger.
    """
    payload = {"nets": list(nets), "symbolics": symbolics,
               "backend": backend, "incremental": incremental,
               "lower": lower}
    return parallel.run_sharded(
        "repro.analysis.simulation:_sim_shard_factory", payload,
        range(len(payload["nets"])), jobs=jobs, start_method=start_method,
        label="sim", unit_labels=unit_labels)
