#!/usr/bin/env python
"""CI gate: incremental SMT must be indistinguishable from fresh solving.

Decides the same query batches twice — once as a plain loop of
single-file `verify` calls, one fresh solver each, and once as the
shared-encoding batch (`verify_many`: one ``TermManager``, per-query
selector assumptions, persistent CDCL state and CNF preprocessing) — and
fails unless:

* every query's verdict (verified / counterexample / unknown) is identical,
* for deterministic networks (no symbolic values) the decoded
  counterexample stable states are *equal* — the stable state is unique,
  so both modes must reconstruct the same attributes through the
  preprocessor's model-extension stack, and
* the SMT fault-tolerance analysis (`fault_tolerance_smt`, one persistent
  solver over every failure scenario) gives each scenario the verdict a
  fresh `verify` of the symbolic-failures network gives it with every
  ``fail{i}`` bit bound through ``symbolics``.

Batches: the fig-12 smoke set (narrow SP(4)/FAT(4) fat-trees, two
destination prefixes each) plus small crafted RIP networks covering all
three verdict shapes (verified, counterexample, symbolic-with-require).

Usage::

    python benchmarks/check_incremental_equiv.py [--json OUT]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

# Runnable from a bare checkout, like census.py.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from repro.analysis.fault import _failure_scenarios, fault_tolerance_smt
from repro.analysis.verify import verify, verify_many
from repro.lang.parser import parse_program
from repro.protocols import resolve
from repro.srp.network import Network
from repro.topology import fat_program, leaf_nodes, sp_program
from repro.transform.fault_tolerance import symbolic_failures_program

RIP_TRIANGLE = """
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

RIP_CHAIN_BAD = """
include rip
let nodes = 4
let edges = {0n=1n; 1n=2n; 2n=3n}
let trans e x = transRip e x
let merge u x y = mergeRip u x y
let init (u : node) = if u = 0n then Some 0u8 else None
let assert (u : node) (x : rip) =
  match x with
  | None -> false
  | Some h -> h <= 2u8
"""

RIP_SYMBOLIC = """
include rip
let nodes = 2
let edges = {0n=1n}
symbolic start : int8
require start < 3u8
let trans e x = transRip e x
let merge u x y = mergeRip u x y
let init (u : node) = if u = 0n then Some start else None
let assert (u : node) (x : rip) =
  match x with
  | None -> false
  | Some h -> h <= 3u8
"""


def _load(source: str) -> Network:
    return Network.from_program(parse_program(source, resolve))


def _batches() -> list[tuple[str, list[Network], bool]]:
    """(name, nets, deterministic) triples; ``deterministic`` means the
    stable state is unique so counterexample attrs must match exactly."""
    dests = leaf_nodes(4)[:2]
    return [
        ("fig12-sp4", [_load(sp_program(4, dest=d, narrow=True))
                       for d in dests], True),
        ("fig12-fat4", [_load(fat_program(4, dest=d, narrow=True))
                        for d in dests], True),
        ("rip-mixed", [_load(RIP_TRIANGLE), _load(RIP_CHAIN_BAD),
                       _load(RIP_SYMBOLIC)], False),
    ]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--json", metavar="OUT", default=None,
                    help="write a machine-readable comparison report")
    args = ap.parse_args(argv)

    failures: list[str] = []
    report: dict[str, Any] = {"checks": {}}
    print("incremental-vs-fresh equivalence gate")

    for name, nets, deterministic in _batches():
        fresh = [verify(net) for net in nets]
        inc = verify_many(nets)
        fresh_status = [r.status for r in fresh]
        inc_status = [r.status for r in inc]
        ok = fresh_status == inc_status
        attr_ok = True
        if deterministic:
            for f, i in zip(fresh, inc):
                if f.status == "counterexample" and f.node_attrs != i.node_attrs:
                    attr_ok = False
        report["checks"][name] = {
            "fresh": fresh_status, "incremental": inc_status,
            "verdicts_equal": ok, "counterexamples_equal": attr_ok,
            "first_query_clauses": inc[0].smt.num_clauses,
            "marginal_clauses": [r.smt.stats.get("inc.marginal_clauses")
                                 for r in inc],
        }
        if not ok:
            failures.append(f"{name}: verdicts differ "
                            f"(fresh {fresh_status} vs inc {inc_status})")
        if not attr_ok:
            failures.append(f"{name}: counterexample stable states differ")
        status = "ok" if ok and attr_ok else "FAIL"
        print(f"  {name:<12} fresh={fresh_status} inc={inc_status}  "
              f"[{status}]")

    # Fault tolerance: the scenario batch against one fresh verify per
    # scenario, with the failure bits bound.
    net = _load(RIP_TRIANGLE)
    links = net.links if net.links else tuple(net.edges)
    sym_net = Network.from_program(
        symbolic_failures_program(net, max_failures=1))
    f_inc = fault_tolerance_smt(net, num_link_failures=1)
    inc_s = [(s.failed_links, s.status) for s in f_inc.scenarios]
    fresh_s = [(tuple(links[i] for i in failed),
                verify(sym_net, symbolics={f"fail{i}": i in failed
                                           for i in range(len(links))}).status)
               for failed in _failure_scenarios(len(links), 1)]
    ok = inc_s == fresh_s
    report["checks"]["fault-smt"] = {
        "scenarios": len(inc_s), "verdicts_equal": ok,
        "incremental": [s for _, s in inc_s],
    }
    if not ok:
        failures.append("fault-smt: per-scenario verdicts differ")
    print(f"  {'fault-smt':<12} {len(inc_s)} scenarios  "
          f"[{'ok' if ok else 'FAIL'}]")

    if args.json:
        report["ok"] = not failures
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        print(f"comparison report written to {args.json}")

    if failures:
        print("\nFAILED:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("incremental and fresh solving are equivalent")
    return 0


if __name__ == "__main__":
    sys.exit(main())
