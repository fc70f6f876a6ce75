#!/usr/bin/env python
"""CI gate: partitioned verification must match monolithic verdicts.

Runs every benchmark network twice — once through the monolithic SMT
driver (`verify`) and once through the Kirigami-style modular driver
(`verify_partitioned`: cut the topology, verify fragments with
assume/guarantee interfaces, stitch the results) — and fails unless:

* every network's verdict (verified / counterexample / unknown) is
  identical,
* for deterministic networks (no symbolic values) a counterexample's
  *stitched* whole-network stable state equals the monolithic model — the
  stable state is unique, so fragment models merged with simulated
  context must reconstruct the same attributes, and
* no inferred interface is refuted on these networks (the simulation's
  stable state is exact for deterministic programs, so every guarantee
  must discharge rather than escalate).

Batches: the fig-12 smoke set (narrow SP(4)/FAT(4) fat-trees cut at the
spine, two destination prefixes each) plus a crafted RIP chain whose
assertion fails, exercising the counterexample-stitching path.

Usage::

    python benchmarks/check_partition_equiv.py [--json OUT]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

# Runnable from a bare checkout, like census.py.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from repro.analysis.partition import verify_partitioned
from repro.analysis.verify import verify
from repro.lang.parser import parse_program
from repro.protocols import resolve
from repro.srp.network import Network
from repro.topology import fat_program, fattree, leaf_nodes, sp_program

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


def _load(source: str) -> Network:
    return Network.from_program(parse_program(source, resolve))


def _batches() -> list[tuple[str, list[tuple[Network, dict[str, Any]]]]]:
    """(name, [(net, verify_partitioned kwargs), ...]) pairs."""
    dests = leaf_nodes(4)[:2]
    topo = fattree(4)
    return [
        ("fig12-sp4", [(_load(sp_program(4, dest=d, narrow=True)),
                        {"method": "pods", "topo": topo}) for d in dests]),
        ("fig12-fat4", [(_load(fat_program(4, dest=d, narrow=True)),
                         {"method": "pods", "topo": topo}) for d in dests]),
        ("rip-chain-bad", [(_load(RIP_CHAIN_BAD), {"partition": 2})]),
    ]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--json", metavar="OUT", default=None,
                    help="write a machine-readable comparison report")
    args = ap.parse_args(argv)

    failures: list[str] = []
    report: dict[str, Any] = {"checks": {}}
    print("partitioned-vs-monolithic equivalence gate")

    for name, cases in _batches():
        mono_status: list[str] = []
        part_status: list[str] = []
        attrs_equal = True
        stitched = True
        escalations = 0
        fragments = 0
        for net, kwargs in cases:
            mono = verify(net)
            rep = verify_partitioned(net, **kwargs)
            mono_status.append(mono.status)
            part_status.append(rep.status)
            fragments = max(fragments, len(rep.plan.fragments))
            if rep.escalated:
                escalations += 1
            if mono.status == "counterexample":
                if not rep.stitched:
                    stitched = False
                elif rep.node_attrs != mono.node_attrs:
                    attrs_equal = False
        ok = mono_status == part_status
        report["checks"][name] = {
            "monolithic": mono_status, "partitioned": part_status,
            "verdicts_equal": ok, "counterexamples_equal": attrs_equal,
            "stitched": stitched, "escalations": escalations,
            "fragments": fragments,
        }
        if not ok:
            failures.append(f"{name}: verdicts differ "
                            f"(mono {mono_status} vs part {part_status})")
        if not stitched:
            failures.append(f"{name}: counterexample not stitched to a "
                            "whole-network state")
        if not attrs_equal:
            failures.append(f"{name}: stitched stable state differs from "
                            "the monolithic model")
        if escalations:
            failures.append(f"{name}: {escalations} inferred interface(s) "
                            "refuted on a deterministic network")
        status = "ok" if name not in "".join(failures) else "FAIL"
        print(f"  {name:<14} mono={mono_status} part={part_status} "
              f"fragments={fragments}  [{status}]")

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
    print("partitioned and monolithic verification are equivalent")
    return 0


if __name__ == "__main__":
    sys.exit(main())
