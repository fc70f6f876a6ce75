"""Deterministic counter budgets (``repro.budgets``).

Wall-clock benchmarks are too noisy for CI to gate on, but the *work
counters* of :mod:`repro.perf` — activations, messages, memo hits, BDD
op-cache misses, SAT conflicts — are deterministic for a fixed workload.  A
semantic regression (a memo cache silently disabled, an extra re-merge, a
simplification pass dropped) moves them by orders of magnitude even when
wall-clock noise hides it.  PR 1's 29.7x fig-14 win, for example, is
entirely visible as ``sim.merge_cache_hits`` collapsing to zero when the
memo layer is turned off.

``benchmarks/budgets.json`` pins the expected counter values for a set of
quick-mode workloads; :func:`compare_counters` checks a fresh run against
them with a relative tolerance (plus a small absolute slack for tiny
counters), and ``benchmarks/check_budgets.py`` / the CI ``counter-budgets``
job fail loudly on drift, printing a diff table.

Only integer counters are budgeted — timers are exactly the noise this
module exists to avoid.

Regenerate after an intentional perf change with::

    PYTHONPATH=src python benchmarks/check_budgets.py --update
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, Mapping

from . import perf
from ._struct import struct

#: Default location of the checked-in budget file (repo checkout layout).
DEFAULT_BUDGETS = Path(__file__).resolve().parents[2] / "benchmarks" / "budgets.json"

#: Absolute slack: tiny counters (a handful of activations) may legitimately
#: wiggle by an iteration without signalling a regression.
ABS_SLACK = 2


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

_RIP_TRIANGLE = """
include rip
let nodes = 3
let edges = {0n=1n; 1n=2n; 0n=2n}
let trans e x = transRip e x
let merge u x y = mergeRip u x y
let init (u : node) = if u = 0n then Some 0u8 else None
let assert (u : node) (x : rip) =
  match x with
  | None -> false
  | Some h -> h <= 1u8
"""


def _load(source: str):
    from .lang.parser import parse_program
    from .protocols import resolve
    from .srp.network import Network
    return Network.from_program(parse_program(source, resolve))


def _wl_simulate(source_fn: Callable[[], str], backend: str,
                 ablations: frozenset[str]) -> None:
    from .srp.network import functions_from_program
    from .srp.simulate import simulate

    net = _load(source_fn())
    if backend == "native":
        from .eval.compile_py import compile_network_functions
        funcs = compile_network_functions(net)
    else:
        funcs = functions_from_program(net)
    simulate(funcs, memoize="sim-memo" not in ablations)
    if funcs.ctx is not None:
        perf.merge(funcs.ctx.manager.stats(), prefix="bdd.")


def _wl_fault(source_fn: Callable[[], str], failures: int,
              ablations: frozenset[str]) -> None:
    from .analysis.fault import fault_tolerance_analysis

    fault_tolerance_analysis(_load(source_fn()), num_link_failures=failures)


def _wl_verify(source_fn: Callable[[], str],
               ablations: frozenset[str]) -> None:
    from .analysis.verify import verify

    verify(_load(source_fn()), simplify="no-simplify" not in ablations)


def _fig14_source() -> str:
    from .topology import all_prefixes_program
    return all_prefixes_program(4, "sp")


def _fattree_sp_source() -> str:
    from .topology import sp_program
    return sp_program(4)


#: name -> runnable(ablations).  Every workload is the smallest (quick-mode)
#: instance of one evaluation figure, so the whole suite runs in seconds.
WORKLOADS: dict[str, Callable[[frozenset[str]], None]] = {
    "rip_triangle_sim":
        lambda abl: _wl_simulate(lambda: _RIP_TRIANGLE, "interp", abl),
    "fig14_sim_interp_k4":
        lambda abl: _wl_simulate(_fig14_source, "interp", abl),
    "fig14_sim_native_k4":
        lambda abl: _wl_simulate(_fig14_source, "native", abl),
    "fig13b_fault_fattree4_1link":
        lambda abl: _wl_fault(_fattree_sp_source, 1, abl),
    "fig12_verify_triangle":
        lambda abl: _wl_verify(lambda: _RIP_TRIANGLE, abl),
}

#: Ablation switches accepted by ``--ablate`` (used to demonstrate that the
#: gate actually trips; see tests/test_budgets.py).
ABLATIONS = ("sim-memo", "no-simplify")


def run_workload(name: str,
                 ablations: frozenset[str] = frozenset()) -> dict[str, int]:
    """Run one workload under an isolated perf registry; return its integer
    counters (timers are dropped — they are non-deterministic)."""
    fn = WORKLOADS[name]
    with perf.enabled():
        before = perf.snapshot()
        fn(ablations)
        after = perf.snapshot()
    return {k: int(v - before.get(k, 0)) for k, v in after.items()
            if isinstance(v, int) and v != before.get(k, 0)}


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------

@struct(frozen=True)
class CounterDrift:
    """One compared counter: expected vs actual and the verdict."""

    workload: str
    counter: str
    expected: int
    actual: int
    tolerance: float

    @property
    def drift(self) -> float:
        """Relative drift vs expected (``inf`` for expected == 0)."""
        if self.expected == 0:
            return float("inf") if self.actual else 0.0
        return (self.actual - self.expected) / self.expected

    @property
    def ok(self) -> bool:
        return abs(self.actual - self.expected) <= max(
            ABS_SLACK, self.tolerance * abs(self.expected))


def compare_counters(workload: str, expected: Mapping[str, int],
                     actual: Mapping[str, int],
                     tolerance: float) -> list[CounterDrift]:
    """Compare a fresh counter capture against a budget.  Counters that
    appear on either side only are compared against 0 (a vanished counter
    family is itself a regression signal)."""
    rows = []
    for counter in sorted(set(expected) | set(actual)):
        rows.append(CounterDrift(workload, counter,
                                 int(expected.get(counter, 0)),
                                 int(actual.get(counter, 0)), tolerance))
    return rows


def drift_table(rows: list[CounterDrift], only_failures: bool = False) -> str:
    """Render comparison rows as an aligned diff table."""
    shown = [r for r in rows if not (only_failures and r.ok)]
    if not shown:
        return "(no counter drift)"
    name_w = max(len(f"{r.workload}:{r.counter}") for r in shown)
    lines = [f"{'counter':<{name_w}} {'expected':>14} {'actual':>14} "
             f"{'drift':>9}  verdict"]
    for r in shown:
        drift = "new" if r.expected == 0 and r.actual else f"{r.drift:+.1%}"
        lines.append(f"{r.workload + ':' + r.counter:<{name_w}} "
                     f"{r.expected:>14,d} {r.actual:>14,d} {drift:>9}  "
                     f"{'ok' if r.ok else 'FAIL'}")
    return "\n".join(lines)


def load_budgets(path: Path | str = DEFAULT_BUDGETS) -> dict:
    return json.loads(Path(path).read_text())


def check_budgets(budgets: dict, workloads: list[str] | None = None,
                  ablations: frozenset[str] = frozenset()
                  ) -> list[CounterDrift]:
    """Run the budgeted workloads and compare; returns every comparison row
    (callers filter on ``.ok``)."""
    tolerance = float(budgets.get("tolerance", 0.10))
    rows: list[CounterDrift] = []
    for name, expected in budgets["workloads"].items():
        if workloads is not None and name not in workloads:
            continue
        actual = run_workload(name, ablations)
        rows.extend(compare_counters(name, expected, actual, tolerance))
    return rows


# ----------------------------------------------------------------------
# CLI (invoked via benchmarks/check_budgets.py)
# ----------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare deterministic perf counters against "
                    "benchmarks/budgets.json (>tolerance drift fails).")
    parser.add_argument("--budgets", default=str(DEFAULT_BUDGETS),
                        help="budget file (default: benchmarks/budgets.json)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the budget file from a fresh run")
    parser.add_argument("--workload", action="append", default=None,
                        help="limit to named workloads (repeatable)")
    parser.add_argument("--ablate", action="append", default=[],
                        choices=ABLATIONS,
                        help="disable an optimisation to demonstrate the "
                             "gate trips (repeatable)")
    parser.add_argument("--tolerance", type=float, default=None,
                        help="override the budget file's tolerance")
    parser.add_argument("--json", default=None, metavar="FILE",
                        help="also write the comparison report as JSON")
    args = parser.parse_args(argv)
    ablations = frozenset(args.ablate)

    if args.update:
        budgets = {
            "_comment": "Deterministic perf-counter budgets for quick-mode "
                        "workloads; regenerate with "
                        "`python benchmarks/check_budgets.py --update` "
                        "after intentional perf changes.",
            "tolerance": args.tolerance if args.tolerance is not None else 0.10,
            "workloads": {name: run_workload(name, ablations)
                          for name in (args.workload or WORKLOADS)},
        }
        Path(args.budgets).write_text(json.dumps(budgets, indent=2,
                                                 sort_keys=True) + "\n")
        print(f"wrote {args.budgets} "
              f"({len(budgets['workloads'])} workloads)")
        return 0

    budgets = load_budgets(args.budgets)
    if args.tolerance is not None:
        budgets["tolerance"] = args.tolerance
    rows = check_budgets(budgets, args.workload, ablations)
    failures = [r for r in rows if not r.ok]
    print(drift_table(rows, only_failures=bool(failures)))
    if args.json:
        Path(args.json).write_text(json.dumps({
            "tolerance": budgets.get("tolerance", 0.10),
            "failures": len(failures),
            "rows": [{"workload": r.workload, "counter": r.counter,
                      "expected": r.expected, "actual": r.actual,
                      "ok": r.ok} for r in rows],
        }, indent=2) + "\n")
    if failures:
        print(f"\ncounter budget gate FAILED: {len(failures)} counters "
              f"drifted beyond {budgets.get('tolerance', 0.10):.0%} "
              "(see table above). If the change is intentional, regenerate "
              "with --update.", file=sys.stderr)
        return 1
    print(f"\ncounter budget gate passed "
          f"({len(rows)} counters within tolerance).")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
