"""Simulation analysis driver: run a network to its stable state.

Wraps the worklist simulator with backend selection (interpreted vs compiled,
§5.1's "native simulation") and returns timing/stats so the benchmark harness
can report the same splits as the paper's fig 13c/14 (compile time included
or excluded).
"""

from __future__ import annotations

from time import perf_counter
from typing import Any

from .. import metrics, obs, perf
from .._struct import field, struct
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
    #: The network functions the simulation ran (``trans`` reads the
    #: message a converged label sends across an edge).
    funcs: Any = field(default=None, repr=False, compare=False)

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
    benchmark measures it).  ``lower=True`` first runs
    :func:`repro.transform.pipeline.lower_program` (inlining + partial
    evaluation, which keep the source value representation, so the labels
    are the unlowered program's) — ``--trace`` shows its per-pass spans.
    """
    t0 = perf_counter()
    if lower:
        from ..transform.pipeline import lower_program
        net = lower_program(net)
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
    with obs.span("sim.simulate", nodes=net.num_nodes,
                  edges=len(net.edges)) as sp:
        solution = simulate(funcs, incremental=incremental)
        if sp is not None:
            sp.attrs.update(activations=solution.iterations,
                            messages=solution.messages)
    simulate_seconds = perf_counter() - t0

    manager = funcs.ctx.manager if funcs.ctx is not None else None
    if manager is not None:
        perf.merge(manager.stats(), prefix="bdd.")
    metrics.flush_kernel(manager)
    perf.merge({"setup_seconds": setup_seconds,
                "simulate_seconds": simulate_seconds}, prefix="sim.")

    with obs.span("sim.assertions"):
        violations = solution.check_assertions(funcs.assert_fn)
    return SimulationReport(solution, backend, setup_seconds,
                            simulate_seconds, violations, funcs)
