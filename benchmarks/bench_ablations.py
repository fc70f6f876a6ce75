"""Ablation benchmarks for the design choices DESIGN.md calls out.

Each ablation removes one mechanism the paper credits for performance and
measures the same workload with and without it:

* **incremental merge** (alg 1 lines 15-17) — the ShapeShifter observation
  that superseding routes can be merged in place of a full re-merge;
* **diagram-operation caching** (§5.1) — memoising map/combine/mapIte across
  simulation steps ("cache hits are likely ... multiple nodes have similar
  configurations");
* **the simplification pipeline** (§5.2) — term-level partial evaluation
  before SMT (this is also the NV-vs-MineSweeper delta of fig 12);
* **sized integers** (§3) — narrow map keys shrink MTBDD depth
  ("int8 vs int32 keys" on the all-prefixes RIB).
"""

import pytest

from repro.analysis.verify import verify
from repro.baselines.minesweeper import verify_minesweeper
from repro.eval.interp import Interpreter
from repro.eval.maps import MapContext
from repro.srp.network import functions_from_program
from repro.srp.simulate import simulate
from repro.topology import all_prefixes_program, fat_program


# ---------------------------------------------------------------------------
# Incremental merge
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("incremental", [True, False],
                         ids=["incremental", "full-remerge"])
def test_ablation_incremental_merge(benchmark, incremental, networks_cache):
    net = networks_cache(all_prefixes_program(8, "sp"))

    def run():
        funcs = functions_from_program(net)
        return simulate(funcs, incremental=incremental)

    solution = benchmark.pedantic(run, iterations=1, rounds=1)
    benchmark.extra_info.update({
        "incremental": incremental,
        "activations": solution.iterations,
    })


# ---------------------------------------------------------------------------
# Diagram-operation caching
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cached", [True, False], ids=["cache", "no-cache"])
def test_ablation_mtbdd_cache(benchmark, cached, networks_cache):
    net = networks_cache(all_prefixes_program(8, "fat"))

    def run():
        ctx = MapContext(net.num_nodes, net.edges)
        interp = Interpreter(ctx, enable_cache=cached)
        funcs = functions_from_program(net, ctx=ctx, interp=interp)
        return simulate(funcs)

    solution = benchmark.pedantic(run, iterations=1, rounds=1)
    benchmark.extra_info.update({"cache": cached,
                                 "activations": solution.iterations})


# ---------------------------------------------------------------------------
# Simplification pipeline (partial evaluation during encoding)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("simplified", [True, False],
                         ids=["pipeline-on", "pipeline-off"])
def test_ablation_partial_eval(benchmark, simplified, networks_cache):
    net = networks_cache(fat_program(4, narrow=True))
    run = (lambda: verify(net)) if simplified else \
        (lambda: verify_minesweeper(net))
    result = benchmark.pedantic(run, iterations=1, rounds=1)
    assert result.verified
    benchmark.extra_info.update({
        "simplify": simplified,
        "clauses": result.smt.num_clauses,
    })


# ---------------------------------------------------------------------------
# Sized integers: map key width
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("width", [8, 16, 32],
                         ids=["int8-keys", "int16-keys", "int32-keys"])
def test_ablation_key_width(benchmark, width, networks_cache):
    net = networks_cache(all_prefixes_program(8, "sp", prefix_width=width))

    def run():
        funcs = functions_from_program(net)
        solution = simulate(funcs)
        return funcs, solution

    funcs, _ = benchmark.pedantic(run, iterations=1, rounds=1)
    benchmark.extra_info.update({
        "key_bits": width,
        "mtbdd_nodes": funcs.ctx.manager.size(),
    })
