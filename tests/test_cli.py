"""CLI tests: every subcommand end to end on temporary files."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from tests.helpers import FIG2_NETWORK, RIP_TRIANGLE, load


@pytest.fixture
def triangle_file(tmp_path):
    f = tmp_path / "triangle.nv"
    f.write_text(RIP_TRIANGLE)
    return str(f)


@pytest.fixture
def fig2_file(tmp_path):
    f = tmp_path / "fig2.nv"
    f.write_text(FIG2_NETWORK)
    return str(f)


class TestSimulate:
    def test_ok(self, triangle_file, capsys):
        assert main(["simulate", triangle_file, "--show-routes"]) == 0
        out = capsys.readouterr().out
        assert "node 0: Some 0" in out

    def test_native_backend(self, triangle_file):
        assert main(["simulate", triangle_file, "--native"]) == 0

    def test_symbolic_binding(self, fig2_file):
        assert main(["simulate", fig2_file, "--symbolic", "route=None"]) == 0

    def test_violations_exit_code(self, tmp_path):
        f = tmp_path / "bad.nv"
        f.write_text(RIP_TRIANGLE.replace("h <= 1u8", "h <= 0u8"))
        assert main(["simulate", str(f)]) == 1

    @pytest.mark.parametrize("mode", ["--no-lower", "--native", "--lower"])
    def test_integer_leaf_is_not_the_boolean_leaf(self, tmp_path, capsys, mode):
        """Python says ``1 == True``; the map's leaf for ``1`` must still
        read back as an integer, not as the manager's ``true`` leaf."""
        f = tmp_path / "one.nv"
        f.write_text(
            "let nodes = 2\nlet edges = {0n=1n}\n"
            "let init (u : node) = ((createDict 0)[3u8 := 1])[3u8]\n"
            "let trans (e : edge) (x : int) = x\n"
            "let merge (u : node) (x y : int) = if x < y then x else y\n")
        assert main(["simulate", mode, "--show-routes", str(f)]) == 0
        assert capsys.readouterr().out.splitlines()[-2:] == [
            "node 0: 1", "node 1: 1"]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_several_files_print_their_single_file_outputs(
            self, tmp_path, capsys, monkeypatch, jobs):
        """Several files run one after another in-process: each prints,
        under its ``== path`` header, what it prints alone, with the same
        ``--stats`` counters and live map labels (the sharded path printed
        ``FrozenMap(...)`` reprs and every file's summed counters)."""
        from repro import parallel
        from repro.topology import sp_program

        def masked(text):
            return re.sub(r"\d+\.\d+s\b", "T", text)

        files = []
        for dest in (0, 1, 2):
            files.append(str(tmp_path / f"p{dest}.nv"))
            Path(files[-1]).write_text(sp_program(4, dest=dest))
        argv = ["--show-routes", "--stats", "--max-nodes", "4"]
        want = ""
        for f in files:
            assert main(["simulate", f, *argv]) == 0
            want += f"== {f}\n" + capsys.readouterr().out
        assert "<NVMap key=int nodes=1>" in want

        def no_pool(*args, **kwargs):
            raise AssertionError("simulate must not start a pool")

        monkeypatch.setattr(parallel, "run_sharded", no_pool)
        monkeypatch.setenv("NV_JOBS", jobs)
        assert main(["simulate", *files, *argv]) == 0
        assert masked(capsys.readouterr().out) == masked(want)


class TestNodeLiteralRange:
    """A node literal past ``nodes`` names no node: every command refuses
    the program with one ``error:`` line, exit 3 (``simulate``, ``simulate
    --native`` and ``verify`` all accepted it without a word)."""

    @pytest.mark.parametrize("command", [["simulate"],
                                         ["simulate", "--native"],
                                         ["verify"]],
                             ids=["simulate", "native", "verify"])
    def test_node_past_nodes_is_an_error(self, command, tmp_path, capsys):
        f = tmp_path / "node5.nv"
        f.write_text("""let nodes = 3
let edges = {0n=1n; 1n=2n}
let init (u : node) = if u = 5n then 0u8 else 1u8
let trans (e : edge) (x : int8) = x
let merge (u : node) (x : int8) (y : int8) = if x < y then x else y
let assert (u : node) (x : int8) = x = 0u8
""")
        assert main([*command, str(f)]) == 3
        captured = capsys.readouterr()
        assert captured.err == ("error: node 5n out of range for 3 nodes "
                                "(line 3, column 30)\n")
        assert captured.out == ""


class TestEdgeLiteral:
    """A pair of node literals that is not an edge, as the key of an
    ``edge``-keyed map, names no edge: every command refuses the program
    with one ``error:`` line, exit 3.  Before, ``simulate`` failed at run
    time on the annotated write (exit 3, no position) and ``verify``
    failed only in the replay of a model whose encoding kept a slot for
    the non-edge."""

    NONEDGE = """type attribute = dict[edge, option[int8]]
let nodes = 3
let edges = {0n=1n; 1n=2n}
let init (u : node) =
  let m : attribute = createDict None in
  if u = 0n then m[(0n, 2n) := Some 0u8] else m
let trans (e : edge) (x : attribute) = x
let merge (u : node) (x y : attribute) = x
let assert (u : node) (x : attribute) = x[(0n, 2n)] = None
"""

    @pytest.mark.parametrize("command", [
        ["simulate"], ["simulate", "--native"], ["verify"],
        ["verify", "--partition", "2", "--jobs", "1"],
        ["fault", "--links", "1", "--drop", "createDict None"],
        ["explain", "1"]],
        ids=["simulate", "native", "verify", "partition", "fault", "explain"])
    def test_non_edge_key_is_an_error(self, command, tmp_path, capsys):
        f = tmp_path / "nonedge.nv"
        f.write_text(self.NONEDGE)
        argv = [command[0], str(f), *command[1:]]
        assert main(argv) == 3
        assert capsys.readouterr() == ("", (
            "error: edge (0, 2) is not an edge of this network "
            "(line 9, column 43)\n"))

    def test_node_error_wins(self, tmp_path, capsys):
        f = tmp_path / "nonedge.nv"
        f.write_text(self.NONEDGE.replace("x[(0n, 2n)]", "x[(0n, 7n)]"))
        assert main(["simulate", str(f)]) == 3
        assert capsys.readouterr().err == (
            "error: node 7n out of range for 3 nodes (line 9, column 48)\n")

    COMPARED = """type attribute = option[int8]
let nodes = 3
let edges = {0n=1n; 1n=2n}
let init (u : node) = if u = 0n then Some 0u8 else None
let trans e x = if TEST then None else x
let merge (u : node) (x y : attribute) = match x with | None -> y | _ -> x
"""

    @pytest.mark.parametrize("command", [
        ["simulate"], ["simulate", "--native"], ["verify"], ["fault"],
        ["explain", "1"]],
        ids=["simulate", "native", "verify", "fault", "explain"])
    @pytest.mark.parametrize("test, where", [
        ("e = (0n, 2n)", "(0, 2) is not an edge of this network (line 5, column 24)"),
        ("(2n, 0n) <> e", "(2, 0) is not an edge of this network (line 5, column 20)"),
    ], ids=["eq", "neq"])
    def test_comparison_with_a_non_edge_is_an_error(
            self, command, test, where, tmp_path, capsys):
        """``e = (0n, 2n)`` on the chain 0-1-2 is always false: the pair
        names no edge.  It was accepted by every command."""
        f = tmp_path / "compared.nv"
        f.write_text(self.COMPARED.replace("TEST", test))
        assert main([command[0], str(f), *command[1:]]) == 3
        assert capsys.readouterr() == ("", f"error: edge {where}\n")

    @pytest.mark.parametrize("test", [
        "e = (0n, 1n) || (2n, 1n) = e",
        "let (u, v) = e in (u, v) = (0n, 2n)",
        "let p = (0n, 2n) in e = p"])
    def test_edges_and_computed_pairs_are_accepted(self, test, tmp_path):
        f = tmp_path / "compared.nv"
        f.write_text(self.COMPARED.replace("TEST", f"({test})"))
        assert main(["simulate", str(f)]) == 0


class TestVerify:
    def test_verified(self, triangle_file, capsys):
        assert main(["verify", triangle_file]) == 0
        assert "verified" in capsys.readouterr().out

    def test_counterexample(self, fig2_file, capsys):
        assert main(["verify", fig2_file, "--show-routes"]) == 1
        out = capsys.readouterr().out
        assert "symbolic route" in out

    def test_negative_max_conflicts_is_a_usage_error(self, triangle_file,
                                                      capsys):
        """``--max-conflicts -5`` stopped a hard query after one conflict
        (exit 2, ``unknown``); 0 stays a valid budget."""
        assert main(["verify", triangle_file, "--max-conflicts", "-5"]) == 3
        assert capsys.readouterr().err == \
            "error: --max-conflicts must be >= 0, got -5\n"
        assert main(["verify", triangle_file, "--max-conflicts", "0"]) in (0, 2)

    @pytest.mark.parametrize("key", ["(0n, 1n)", "(0n, 2n)"],
                             ids=["edge", "not_an_edge"])
    def test_map_write_at_node_pair_key_is_not_lost(self, key, tmp_path,
                                                    capsys):
        """An edge-keyed attribute written at a node-pair literal: the
        literal types as ``(node, node)``, the attribute as ``edge``, and
        the encoder kept no slot for the write, so ``verify`` printed
        ``verified`` (exit 0) where ``simulate`` finds the violation.  A
        pair that is no edge, read from the edge-keyed attribute, is a
        static error from both commands (both reported a violation)."""
        f = tmp_path / "pairkey.nv"
        f.write_text(f"""
type attribute = dict[edge, option[int8]]
let nodes = 3
let edges = {{0n=1n; 1n=2n}}
let init (u : node) =
  if u = 0n then (createDict None)[{key} := Some 0u8] else createDict None
let trans (e : edge) (x : attribute) = x
let merge (u : node) (x : attribute) (y : attribute) = x
let assert (u : node) (x : attribute) = x[{key}] = None
""")
        if key == "(0n, 2n)":
            for command in ("simulate", "verify"):
                assert main([command, str(f)]) == 3
                assert capsys.readouterr() == ("", (
                    "error: edge (0, 2) is not an edge of this network "
                    "(line 9, column 43)\n"))
            return
        assert main(["simulate", str(f)]) == 1
        assert "assertion violated at nodes: [0]" in capsys.readouterr().out
        assert main(["verify", str(f)]) == 1
        assert capsys.readouterr().out.startswith("counterexample:")

    def test_partition_stitched_counterexample_is_replayed(
            self, tmp_path, capsys, monkeypatch):
        """``--partition``'s stitched counterexample is replayed like a
        single-file one.  A seeded stitching bug, node 0's simulated label
        one hop longer, is an internal error that names the node, exit 3
        (it printed the unstable state as a counterexample)."""
        from repro.analysis import partition
        from repro.eval.values import VSome

        f = tmp_path / "ripbad.nv"
        f.write_text("""
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
""")
        argv = ["verify", "--partition", "2", "--jobs", "1", str(f)]
        assert main(argv + ["--show-routes"]) == 1
        assert "  node 0: Some 0\n" in capsys.readouterr().out
        real = partition.infer_interfaces

        def shifted(net, edges, symbolics=None):
            messages, attrs = real(net, edges, symbolics)
            attrs[0] = VSome(attrs[0].value + 1)
            return messages, attrs

        monkeypatch.setattr(partition, "infer_interfaces", shifted)
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            "error: internal error: the counterexample does not replay: "
            "node 0's decoded attribute is not stable\n")

    STEP = """
type attribute = option[int8]
symbolic step : int8
let nodes = 5
let edges = {0n=1n; 1n=2n; 2n=3n; 0n=4n}
let init (u : node) = if u = 0n then Some 0u8 else None
let trans (e : edge) (x : attribute) =
  match x with
  | None -> None
  | Some h -> if e = (0n, 4n) then Some (h + step) else Some (h + 1u8)
let merge (u : node) (x y : attribute) =
  match (x, y) with
  | (None, _) -> y
  | (_, None) -> x
  | (Some a, Some b) -> if a <= b then x else y
let assert (u : node) (x : attribute) =
  match x with
  | None -> true
  | Some h -> h <= 2u8 || u = 4n
"""

    @pytest.mark.parametrize("partition", [[], ["--partition", "2", "--jobs", "1"]],
                             ids=["single", "partition"])
    def test_symbolic_is_bound_in_the_encoding(self, tmp_path, capsys,
                                               partition):
        """``--symbolic step=1u8`` binds ``step`` in the encoding, as
        ``simulate`` binds it.  Before, the solver still chose ``step``:
        single-file ``verify`` printed ``symbolic step = 0``, and
        ``--partition`` stitched a state simulated under ``step = 1`` to
        the model's ``step = 0`` and failed its replay (exit 3)."""
        f = tmp_path / "step.nv"
        f.write_text(self.STEP)
        argv = ["verify", str(f), "--symbolic", "step=1u8", "--show-routes"]
        assert main(argv + partition) == 1
        out = capsys.readouterr().out
        assert "  symbolic step = 1\n" in out
        assert "  node 3: Some 3\n  node 4: Some 1\n" in out

    def test_partition_simulates_once(self, tmp_path, capsys):
        """The interface inference's simulation also stitches the
        counterexample: one ``sim.simulate`` span, under
        ``partition.infer`` (the stitch simulated the network again)."""
        f = tmp_path / "step.nv"
        f.write_text(self.STEP)
        trace = tmp_path / "t.jsonl"
        assert main(["verify", str(f), "--partition", "2", "--jobs", "1",
                     "--symbolic", "step=1u8", "--trace-json",
                     str(trace)]) == 1
        capsys.readouterr()
        spans = [r for r in map(json.loads, trace.read_text().splitlines())
                 if r.get("type") == "span"]
        names = {r["id"]: r["name"] for r in spans}
        assert [names.get(r["parent"]) for r in spans
                if r["name"] == "sim.simulate"] == ["partition.infer"]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_files_of_different_sizes(self, tmp_path, capsys, monkeypatch,
                                      jobs):
        """One incremental batch over a 3- and a 5-node network: their node
        ids are 2 and 3 bits wide, so ``attr.0.val.origin`` has two sorts
        (a ``ValueError`` traceback, exit 1, before).  Each file gets the
        verdict it gets alone."""
        def chain(n, holds):
            edges = "; ".join(f"{i}n={i + 1}n" for i in range(n - 1))
            return f"""
include bgpNarrow
let nodes = {n}
let edges = {{{edges}}}
let trans e x = transBgp e x
let merge u x y = mergeBgp u x y
let init (u : node) =
  if u = 0n then
    Some {{length = 0u8; lp = 100u8; med = 80u8; comms = {{}}; origin = 0n}}
  else None
let assert (u : node) (x : attribute) =
  match x with
  | None -> false
  | Some b -> {holds}
"""
        files = [tmp_path / "reach3.nv", tmp_path / "length5.nv",
                 tmp_path / "reach5.nv"]
        files[0].write_text(chain(3, "b.origin = 0n"))
        files[1].write_text(chain(5, "b.length < 3u8"))
        files[2].write_text(chain(5, "b.origin = 0n"))
        monkeypatch.setenv("NV_JOBS", jobs)
        alone = []
        for f in files:
            alone.append(main(["verify", str(f)]))
            alone.append(capsys.readouterr().out.split(":")[0])
        assert alone == [0, "verified", 1, "counterexample", 0, "verified"]
        assert main(["verify", *map(str, files)]) == 1
        out = capsys.readouterr().out
        verdicts = re.findall(r"^== (\S+)\n(\w+):", out, re.M)
        assert verdicts == [(str(f), v) for f, v in zip(files, alone[1::2])]


class TestWidths:
    def test_unannotated_merge_compares_at_the_attribute_width(
            self, tmp_path, capsys):
        """``merge`` is generalised, so its ``<=`` on the payloads was
        annotated at the default ``int`` width while the attribute carries
        ``int8``: ``verify`` died with ``ValueError: bitvector width
        mismatch: 32 vs 8``.  Both commands now agree."""
        f = tmp_path / "width.nv"
        f.write_text("""
type attribute = option[int8]
let nodes = 2
let edges = {0n=1n}
let init (u : node) = if u = 0n then Some 0u8 else None
let trans (e : edge) (x : attribute) =
  match x with | None -> None | Some h -> Some (h + 1u8)
let merge u x y =
  match (x, y) with
  | (None, _) -> y
  | (_, None) -> x
  | (Some a, Some b) -> if a <= b then x else y
let assert (u : node) (x : attribute) =
  match x with | None -> false | Some h -> h <= 1u8
""")
        assert main(["simulate", str(f)]) == 0
        assert capsys.readouterr().out.startswith("[interp] assertions hold")
        assert main(["verify", str(f)]) == 0
        assert capsys.readouterr().out.startswith("verified: ")

    def test_open_type_in_a_network_function_is_a_static_error(
            self, tmp_path, capsys):
        """An inner helper generalised inside ``merge`` keeps its payload
        type open, and the encoder would read the default ``int`` width
        (``verify``'s traceback above).  Every command refuses it."""
        f = tmp_path / "inner.nv"
        f.write_text("""
type attribute = option[int8]
let nodes = 2
let edges = {0n=1n}
let init (u : node) = if u = 0n then Some 0u8 else None
let trans (e : edge) (x : attribute) = x
let merge u x y =
  let better = fun a b -> a <= b in
  match (x, y) with
  | (None, _) -> y
  | (_, None) -> x
  | (Some a, Some b) -> if better a b then x else y
""")
        for command in ("simulate", "verify"):
            assert main([command, str(f)]) == 3
            err = capsys.readouterr().err
            assert re.fullmatch(
                r"error: an expression in 'merge' \(line 8, column 16\) has "
                r"the open type '(\w+) -> '\1 -> bool: annotate it\n", err)


class TestVacuity:
    """``verify`` shows that a stable state exists before it prints
    ``verified`` on a network without symbolics or ``require``."""

    OSC = """
let nodes = 2
let edges = {0n=1n}
type attribute = int8
let trans e x = x + 1u8
let merge u x y = y
let init u = 0u8
let assert u x = x = 200u8
"""

    def test_no_stable_state_is_vacuous(self, tmp_path, capsys):
        """Every node takes its neighbour's route plus one, so no state is
        stable: the negated assertion was UNSAT only for that reason
        (``verified``, exit 0, before)."""
        f = tmp_path / "osc.nv"
        f.write_text(self.OSC)
        assert main(["simulate", str(f)]) == 3
        capsys.readouterr()
        assert main(["verify", str(f)]) == 4
        out = capsys.readouterr().out
        assert out.startswith("vacuous: no stable state; encode ")
        assert out.endswith(", 171 clauses, 4 conflicts\n")

    def test_every_file_of_a_batch_is_checked(self, tmp_path, capsys):
        """Two copies of the oscillating network: the shared-encoding
        batch printed ``verified`` twice (exit 0) where each file on its
        own is ``vacuous``."""
        files = [tmp_path / "osc.nv", tmp_path / "osc2.nv"]
        for f in files:
            f.write_text(self.OSC)
        assert main(["verify", *map(str, files)]) == 4
        out = capsys.readouterr().out
        assert re.findall(r"^== (\S+)\n(\w+):", out, re.M) == [
            (str(f), "vacuous") for f in files]

    def test_converging_unsat_prints_the_one_check(self, triangle_file,
                                                   capsys, monkeypatch):
        """The simulation is the witness: no second solver runs, and the
        output is the main check's verdict line alone."""
        from repro.smt.solver import Solver
        checks = []
        real = Solver.check
        monkeypatch.setattr(Solver, "check", lambda self, *a: (
            checks.append(1), real(self, *a))[1])
        assert main(["verify", triangle_file]) == 0
        out = capsys.readouterr().out
        assert re.fullmatch(r"verified: encode \d+\.\d{3}s, blast\+solve "
                            r"\d+\.\d{3}s, \d+ vars, \d+ clauses, "
                            r"\d+ conflicts\n", out)
        assert checks == [1]


class TestFault:
    def test_smt_counterexample_is_replayed(self, triangle_file, capsys,
                                            monkeypatch):
        """``fault --smt`` replays each violating scenario's decoded state
        under the scenario's failure bits; a corrupted one (every route
        decoded as ``None``) was printed as a plain counterexample line."""
        from repro.analysis import verify as verify_module
        from repro.lang import types as T

        assert main(["fault", "--smt", triangle_file]) == 1
        assert "  scenario failed=[(0, 1)]: counterexample\n" in \
            capsys.readouterr().out
        real = verify_module.decode_tval

        def routes_dropped(enc, tval, ty, assignment):
            value = real(enc, tval, ty, assignment)
            return None if isinstance(ty, T.TOption) else value

        monkeypatch.setattr(verify_module, "decode_tval", routes_dropped)
        assert main(["fault", "--smt", triangle_file]) == 3
        assert capsys.readouterr() == ("", (
            "error: internal error: the counterexample does not replay: "
            "node 0's decoded attribute is not stable\n"))

    def test_tolerant(self, tmp_path, capsys):
        f = tmp_path / "tri.nv"
        f.write_text(RIP_TRIANGLE.replace("h <= 1u8", "h <= 2u8"))
        assert main(["fault", str(f)]) == 0
        assert "FAULT TOLERANT" in capsys.readouterr().out

    def test_witnesses(self, tmp_path, capsys):
        f = tmp_path / "chain.nv"
        f.write_text("""
include rip
let nodes = 3
let edges = {0n=1n; 1n=2n}
let trans e x = transRip e x
let merge u x y = mergeRip u x y
let init (u : node) = if u = 0n then Some 0u8 else None
let assert (u : node) (x : rip) =
  match x with | None -> false | Some h -> true
""")
        assert main(["fault", str(f), "--witnesses"]) == 1
        assert "failure scenario" in capsys.readouterr().out

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_node_failures_without_links(self, tmp_path, capsys, monkeypatch,
                                         jobs):
        """``--links 0 --nodes``: the scenario key is a bare node (it used
        to trip an assertion in the transform).  Checked against the node
        analogue of ``naive_fault_tolerance`` (which enumerates links only):
        one plain simulation per failed node."""
        from repro.cli import _load_network
        from repro.srp.network import functions_from_program
        from repro.srp.simulate import simulate

        f = tmp_path / "ring.nv"
        f.write_text("""
include rip
let nodes = 4
let edges = {0n=1n; 1n=2n; 2n=3n; 3n=0n}
let trans e x = transRip e x
let merge u x y = mergeRip u x y
let init (u : node) = if u = 0n then Some 0u8 else None
let assert (u : node) (x : rip) =
  match x with | None -> false | Some h -> h <= 2u8
""")
        net = _load_network(str(f))
        violations: dict[int, int] = {}     # node -> first failed node
        total = 0
        for failed in range(net.num_nodes):
            funcs = functions_from_program(net, None)
            base = funcs.trans
            funcs.trans = lambda e, x, _n=failed, _t=base: (
                None if _n in e else _t(e, x))
            for u in simulate(funcs).check_assertions(funcs.assert_fn):
                total += 1
                violations.setdefault(u, failed)
        assert total > 0

        monkeypatch.setenv("NV_JOBS", jobs)
        assert main(["fault", str(f), "--links", "0", "--nodes",
                     "--witnesses", "--stats"]) == 1
        out = capsys.readouterr().out
        assert f"0-link+node failures: {total} violating scenario keys" in out
        for u, failed in violations.items():
            assert f"node {u} violates under failure scenario {failed}" in out
        # One in-process simulation at any worker count: no pool ran.
        assert "fault.sim" in out and "parallel." not in out

    def test_paper_size_wan_at_two_workers(self, tmp_path, capsys,
                                           monkeypatch):
        """WAN-174/410, which two link batches took past the recursion limit."""
        from repro.topology import uscarrier_like, wan_program

        f = tmp_path / "wan174.nv"
        f.write_text(wan_program(uscarrier_like(174, 410)))
        for jobs in ("1", "2"):
            monkeypatch.setenv("NV_JOBS", jobs)
            assert main(["fault", str(f), "--links", "1"]) == 0
            out, err = capsys.readouterr()
            assert err == "" and out.startswith("1-link failures: FAULT "
                                                "TOLERANT; max classes/node = 3;")


class TestTranslate:
    def test_directory_translation(self, tmp_path, capsys):
        (tmp_path / "a.cfg").write_text("""
interface E0
 ip address 10.0.0.1/30
interface Loop0
 ip address 192.168.1.0/24
router bgp 1
 network 192.168.1.0/24
 neighbor 10.0.0.2 remote-as 2
""")
        (tmp_path / "b.cfg").write_text("""
interface E0
 ip address 10.0.0.2/30
router bgp 2
 neighbor 10.0.0.1 remote-as 1
""")
        out_file = tmp_path / "net.nv"
        assert main(["translate", str(tmp_path),
                     "--assert-prefix", "192.168.1.0/24",
                     "-o", str(out_file)]) == 0
        # The emitted program is a valid, verifiable NV network.
        assert main(["verify", str(out_file)]) == 0

    def test_empty_directory(self, tmp_path):
        assert main(["translate", str(tmp_path)]) == 3


class TestObservability:
    """--stats / --trace / --trace-json and the explain subcommand."""

    def test_simulate_stats(self, triangle_file, capsys):
        assert main(["simulate", triangle_file, "--stats"]) == 0
        out = capsys.readouterr().out
        assert "perf counters:" in out
        assert "sim.activations" in out

    def test_simulate_trace_tree(self, triangle_file, capsys):
        assert main(["simulate", triangle_file, "--trace", "--lower"]) == 0
        out = capsys.readouterr().out
        # The span tree covers the frontend, the lowering pipeline's
        # individual passes, and the simulation phases.
        assert "trace (1 root span):" in out
        assert "frontend.parse" in out and "frontend.typecheck" in out
        assert "transform.lower" in out and "transform.inline" in out
        assert "sim.simulate" in out and "sim.assertions" in out

    def test_simulate_trace_json(self, triangle_file, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main(["simulate", triangle_file,
                     "--trace-json", str(trace)]) == 0
        records = [json.loads(line) for line in
                   trace.read_text().strip().splitlines()]
        kinds = {r["type"] for r in records}
        assert kinds == {"meta", "span", "event", "snapshot"}
        assert records[0]["type"] == "meta"  # epoch header comes first
        assert records[-1]["type"] == "snapshot"  # and the snapshot last
        spans = {r["name"] for r in records if r["type"] == "span"}
        assert {"simulate", "frontend.parse", "sim.simulate"} <= spans
        events = {r["name"] for r in records if r["type"] == "event"}
        assert "sim.activation" in events and "sim.converged" in events
        # Without --trace, no tree is printed.
        assert "trace (" not in capsys.readouterr().out

    def test_trace_does_not_change_routes(self, triangle_file, capsys):
        assert main(["simulate", triangle_file, "--trace",
                     "--show-routes"]) == 0
        assert "node 0: Some 0" in capsys.readouterr().out

    def test_no_lower_override(self, triangle_file, capsys):
        assert main(["simulate", triangle_file, "--trace", "--no-lower"]) == 0
        out = capsys.readouterr().out
        assert "transform.lower" not in out
        assert "sim.simulate" in out

    def test_trace_alone_does_not_lower(self, triangle_file, capsys):
        """``--trace`` describes the run it traces: the program ``simulate``
        runs without it, not a lowered one."""
        assert main(["simulate", triangle_file, "--trace"]) == 0
        out = capsys.readouterr().out
        assert "transform.lower" not in out
        assert "sim.simulate" in out

    def test_lower_infers_each_program_shape_once(self, triangle_file,
                                                  monkeypatch, capsys):
        """``simulate --lower`` runs inference twice — on the loaded program
        and on the final one (by the network signature check): neither
        inlining nor partial evaluation reads annotations, so the program
        between them is not inferred, nor the final one a second time."""
        from repro.lang import typecheck
        built = []
        init = typecheck.TypeChecker.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(typecheck.TypeChecker, "__init__", counting_init)
        assert main(["simulate", triangle_file, "--lower", "--show-routes"]) == 0
        assert len(built) == 2
        assert "node 2: Some 1" in capsys.readouterr().out

    def test_verify_trace_smt_spans(self, triangle_file, capsys):
        assert main(["verify", triangle_file, "--trace"]) == 0
        out = capsys.readouterr().out
        assert "smt.encode" in out
        assert "smt.bitblast" in out
        assert "smt.solve" in out

    def test_fault_trace(self, tmp_path, capsys):
        f = tmp_path / "tri.nv"
        f.write_text(RIP_TRIANGLE.replace("h <= 1u8", "h <= 2u8"))
        assert main(["fault", str(f), "--trace"]) == 0
        out = capsys.readouterr().out
        assert "fault.transform" in out and "fault.classes" in out

    def test_fault_trace_sharded_renders_the_serial_spans(
            self, tmp_path, capsys, monkeypatch):
        """``fault`` is one in-process simulation at any ``NV_JOBS``: the
        tree ``--trace`` renders at ``NV_JOBS=2`` is the ``NV_JOBS=1`` one."""
        f = tmp_path / "tri.nv"
        f.write_text(RIP_TRIANGLE.replace("h <= 1u8", "h <= 2u8"))
        names = {}
        for jobs in ("1", "2"):
            monkeypatch.setenv("NV_JOBS", jobs)
            assert main(["fault", str(f), "--trace"]) == 0
            tree = capsys.readouterr().out.split("trace (", 1)[1].splitlines()[1:]
            names[jobs] = {line.lstrip("│├└─ ").split()[0] for line in tree}
        assert {"fault.transform", "sim.simulate", "fault.classes"} <= names["1"]
        assert names["1"] == names["2"]


class TestExplain:
    def test_chain_to_origin(self, triangle_file, capsys):
        assert main(["explain", triangle_file, "2"]) == 0
        out = capsys.readouterr().out
        assert "provenance for node 2" in out
        assert "init (origin)" in out
        assert "trans over edge" in out

    def test_origin_node(self, triangle_file, capsys):
        assert main(["explain", triangle_file, "0"]) == 0
        out = capsys.readouterr().out
        assert "provenance for node 0" in out
        assert "init (origin)" in out
        assert "trans over edge" not in out

    def test_native_backend(self, triangle_file, capsys):
        assert main(["explain", triangle_file, "1", "--native"]) == 0
        assert "provenance for node 1" in capsys.readouterr().out

    def test_out_of_range_node(self, triangle_file):
        assert main(["explain", triangle_file, "7"]) == 3


class TestUsageText:
    """``build_parser`` builds only the invoked sub-command's arguments, yet
    every usage, help and error text is the one the whole tree printed
    (recorded before the parser was split per sub-command)."""

    GOLDEN = json.loads((Path(__file__).parent / "cli_usage_golden.json")
                        .read_text(encoding="utf-8"))

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_byte_identical(self, name, capsys, monkeypatch):
        case = self.GOLDEN[name]
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main(case["argv"])
        out = capsys.readouterr()
        assert (exc.value.code, out.out, out.err) == (
            case["exit"], case["stdout"], case["stderr"])


class TestErrors:
    @pytest.mark.parametrize("program, literal, line, col", [
        ("let nodes = 2\nlet edges = {0n=1n}\nlet init (u : node) = 12abc\n",
         "12abc", 3, 23),
        ("let f x = x\nlet abc = 1\nlet y = f 12abc\n", "12abc", 3, 11),
        ("let x = 1_000\n", "1_000", 1, 9),
        ("let x = 3u8x\n", "3u8x", 1, 9),
        ("let nodes = 2\nlet edges = {0n1=1n}\n", "0n1", 2, 14),
        ("let x = 5u\n", "5u", 1, 9),
    ], ids=["unbound", "application", "underscore", "sized", "node", "width"])
    def test_malformed_number_literal_is_one_error_line(
            self, tmp_path, capsys, program, literal, line, col):
        """A number run into identifier characters used to be split into a
        number and an identifier (`unbound variable 'abc'`, a unification
        error without a position, or a silently different program)."""
        f = tmp_path / "bad.nv"
        f.write_text(program)
        assert main(["simulate", str(f)]) == 3
        assert capsys.readouterr().err == (
            f"error: malformed number literal {literal!r} "
            f"(line {line}, column {col})\n")

    def test_nv_error_reported(self, tmp_path, capsys):
        f = tmp_path / "broken.nv"
        f.write_text("let nodes = ")
        assert main(["simulate", str(f)]) == 3
        assert "error:" in capsys.readouterr().err

    def test_deep_nesting_reported_without_traceback(self, tmp_path, capsys):
        """A 2000-arm ``else if`` dispatch exhausts the recursive front end:
        one ``error:`` line naming the limit and exit 3, like any other
        front-end failure."""
        chain = "".join(f"if u = {i}n then Some {i % 256}u8 else "
                        for i in range(2000))
        f = tmp_path / "deep.nv"
        f.write_text(RIP_TRIANGLE.replace(
            "if u = 0n then Some 0u8 else None", chain + "None"))
        assert main(["simulate", str(f)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "nesting limit" in err and str(sys.getrecursionlimit()) in err
        assert "Traceback" not in err

    def test_fault_usage_errors_reported_without_traceback(
            self, triangle_file, capsys, monkeypatch):
        """No failure to inject, and a malformed ``NV_JOBS``: one ``error:``
        line and exit 3, like every other usage failure."""
        assert main(["fault", triangle_file, "--links", "0"]) == 3
        assert capsys.readouterr().err == \
            "error: at least one link or node failure is required\n"
        monkeypatch.setenv("NV_JOBS", "abc")
        assert main(["fault", triangle_file]) == 3
        assert capsys.readouterr().err == \
            "error: NV_JOBS='abc' is not an integer\n"

    @pytest.mark.parametrize("argv", [
        ["fault", "{f}"], ["simulate", "{f}", "{f}"], ["simulate", "{f}"],
        ["verify", "{f}"], ["fault", "--smt", "{f}"]],
        ids=["fault", "simulate_two_files", "simulate", "verify", "fault_smt"])
    def test_malformed_nv_jobs_is_a_usage_error_in_every_mode(
            self, argv, triangle_file, capsys, monkeypatch):
        """``NV_JOBS`` is resolved once, before the command runs: single-file
        ``simulate`` / ``verify`` and ``fault --smt`` ran (exit 0) where the
        worker count has no effect."""
        monkeypatch.setenv("NV_JOBS", "abc")
        assert main([a.format(f=triangle_file) for a in argv]) == 3
        assert capsys.readouterr() == \
            ("", "error: NV_JOBS='abc' is not an integer\n")

    @pytest.mark.parametrize("argv", [
        ["verify", "--no-incremental", "{f}", "{f}"],
        ["verify", "--incremental", "{f}", "{f}"],
        ["simulate", "--jobs", "2", "{f}"], ["fault", "--jobs", "2", "{f}"]],
        ids=["no_incremental", "incremental", "simulate_jobs", "fault_jobs"])
    def test_removed_flags_are_usage_errors(self, argv, triangle_file,
                                            capsys):
        """``simulate`` and ``fault`` validated ``--jobs`` and ran
        in-process at any value; several files are verified one way."""
        with pytest.raises(SystemExit) as exc:
            main([a.format(f=triangle_file) for a in argv])
        assert exc.value.code == 2
        assert "error: unrecognized arguments: " in capsys.readouterr().err

    @pytest.mark.parametrize("flags, env, message", [
        (["--jobs", "0"], None, "--jobs 0"),
        (["--jobs", "-3"], None, "--jobs -3"),
        ([], "0", "NV_JOBS='0'"),
        ([], "-1", "NV_JOBS='-1'")],
        ids=["jobs_0", "jobs_negative", "nv_jobs_0", "nv_jobs_negative"])
    def test_worker_count_below_one_is_a_usage_error(
            self, flags, env, message, triangle_file, capsys, monkeypatch):
        """A worker count below 1 ran one worker, silently, where
        ``NV_JOBS=abc`` was already a usage error."""
        if env is not None:
            monkeypatch.setenv("NV_JOBS", env)
        assert main(["verify", triangle_file, *flags]) == 3
        assert capsys.readouterr() == (
            "", f"error: {message}: the worker count must be at least 1\n")

    @pytest.mark.parametrize("flags, message", [
        (["--links", "-1"], "at least one link or node failure is required"),
        (["--links", "0"], "at least one link or node failure is required"),
        (["--nodes"], "--smt checks link failures only; it does not take "
                      "--nodes"),
        (["--witnesses"], "--smt checks link failures only; it does not take "
                          "--witnesses"),
        (["--drop", "None"], "--smt checks link failures only; it does not "
                             "take --drop"),
    ], ids=["negative_links", "zero_links", "nodes", "witnesses", "drop"])
    def test_fault_smt_rejects_what_it_does_not_check(
            self, flags, message, triangle_file, capsys):
        """``fault --smt`` reported FAULT TOLERANT (exit 0) for ``--links -1``
        and ``0``, and for node failures it never checked; ``--witnesses``
        and ``--drop`` were dropped silently."""
        assert main(["fault", "--smt", triangle_file, *flags]) == 3
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("case", [
        "node_out_of_range", "symbolic_without_value", "partition_two_files",
        "no_configs", "missing_trace"])
    def test_malformed_request_is_exit_3_not_violated(
            self, case, triangle_file, tmp_path, capsys):
        """Exit 1 means "the property is violated": a request the CLI cannot
        carry out is exit 3 and one ``error:`` line."""
        argv = {
            "node_out_of_range": ["explain", triangle_file, "99"],
            "symbolic_without_value": ["simulate", triangle_file,
                                       "--symbolic", "x"],
            "partition_two_files": ["verify", "--partition", "2",
                                    triangle_file, triangle_file],
            "no_configs": ["translate", str(tmp_path)],
            "missing_trace": ["report", str(tmp_path / "missing.jsonl")],
        }[case]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    SYMBOLIC_INT8 = """
symbolic k : int8
type attribute = int8
let nodes = 2
let edges = {0n=1n}
let init (u : node) = k
let trans (e : edge) (x : attribute) = x
let merge (u : node) (x y : attribute) = x
let assert (u : node) (x : attribute) = k = 3u8
"""

    @pytest.mark.parametrize("command", [
        ["simulate"], ["verify"], ["fault", "--drop", "0u8"], ["explain"]],
        ids=["simulate", "verify", "fault", "explain"])
    @pytest.mark.parametrize("binding, message", [
        ("k=true", "--symbolic 'k=true': cannot unify bool with int8 in "
                   "annotation of 'k'"),
        ("k=259", "--symbolic 'k=259': cannot unify int with int8 in "
                  "annotation of 'k'"),
        ("k=259u8", "--symbolic 'k=259u8': integer literal 259u8 does not "
                    "fit in int8 (line 1, column 1)"),
        ("nosuch=1", "--symbolic 'nosuch=1': the program declares no "
                     "symbolic 'nosuch'"),
        ("k=4294967299", "--symbolic 'k=4294967299': integer literal "
                         "4294967299 does not fit in int32 (line 1, column 1)"),
    ], ids=["bool", "unsized", "sized", "undeclared", "unsized-past-32-bits"])
    def test_symbolic_is_typed_against_its_declaration(
            self, command, binding, message, tmp_path, capsys):
        """A ``--symbolic`` literal is typed as ``let k : int8 = literal``
        would be, and the name must be declared.  Before, each literal was
        typed on its own: ``k=true`` gave ``verify`` a counterexample with
        ``symbolic k = true``, ``k=259`` printed ``symbolic k = 259``, and
        an undeclared name was accepted silently."""
        f = tmp_path / "k.nv"
        f.write_text(self.SYMBOLIC_INT8)
        argv = [command[0], str(f), *(["1"] if command == ["explain"] else []),
                *command[1:], "--symbolic", binding]
        assert main(argv) == 3
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("command", [
        ["simulate"], ["simulate", "--native"], ["verify"],
        ["fault", "--drop", "0u8"], ["explain", "1"]],
        ids=["simulate", "native", "verify", "fault", "explain"])
    @pytest.mark.parametrize("old, new, where", [
        ("init (u : node) = k", "init (u : node) = 259u8", "line 6, column 23"),
        ("k = 3u8", "match k with | 256u8 -> true | _ -> false",
         "line 9, column 56"),
        ("init (u : node) = k", "init (u : node) = 4294967299",
         "line 6, column 23"),
        ("k = 3u8", "match k with | 4294967296 -> true | _ -> false",
         "line 9, column 56")],
        ids=["expression", "pattern", "unsized-expression", "unsized-pattern"])
    def test_sized_literal_past_its_width(self, command, old, new, where,
                                          tmp_path, capsys):
        """``259u8`` names no ``int8``, and ``4294967299`` no ``int``, 32 bits
        wide.  Each was masked to ``3``: ``simulate`` printed ``node 0: 3``."""
        f = tmp_path / "k.nv"
        f.write_text(self.SYMBOLIC_INT8.replace(old, new))
        assert main([command[0], str(f), *command[1:]]) == 3
        literal = re.search(r"\d+(u8)?\b", new)[0]
        width = "int8" if literal.endswith("u8") else "int32"
        assert capsys.readouterr() == ("", (
            f"error: integer literal {literal} does not fit in {width} "
            f"({where})\n"))

    def test_symbolic_map_takes_the_declared_key_type(self, tmp_path):
        """``createDict false`` bound to a ``dict[int8, bool]`` symbolic is
        an ``int8``-keyed map (it was keyed ``int`` before)."""
        from repro.cli import _parse_symbolics

        f = tmp_path / "m.nv"
        f.write_text(self.SYMBOLIC_INT8.replace(
            "symbolic k : int8", "symbolic k : int8\n"
            "symbolic m : dict[int8, bool]"))
        bound = _parse_symbolics(["m=createDict false"], load(f.read_text()))
        assert "key=int8" in repr(bound["m"])

    NOT_AN_EDGE = """
type attribute = dict[edge, option[int8]]
let nodes = 3
let edges = {0n=1n; 1n=2n}
let init (u : node) =
  let m : attribute = createDict None in
  if u = 0n then m[(0n, 2n) := Some 0u8] else m
let trans (e : edge) (x : attribute) = x
let merge (u : node) (x y : attribute) = x
"""

    @pytest.mark.parametrize("backend", [[], ["--native"]])
    def test_edge_key_that_is_no_edge_reported_without_traceback(
            self, backend, tmp_path, capsys):
        """An edge-keyed map indexed by a pair the topology does not have:
        the key has no code (it used to be masked into one outside the key
        domain, silently).  The pair is a literal, so the error is static
        and names its position."""
        f = tmp_path / "badedge.nv"
        f.write_text(self.NOT_AN_EDGE)
        assert main(["simulate", str(f), *backend]) == 3
        assert capsys.readouterr().err == ("error: edge (0, 2) is not an "
                                           "edge of this network (line 7, "
                                           "column 20)\n")

    # Parses and type-checks; only node 1's SMT encoding fails.
    SYMBOLIC_KEY_WRITE = """
symbolic k : int8
let nodes = 2
let edges = {0n=1n}
let init (u : node) =
  if u = 0n then 0u8 else ((createDict 0u8)[k := 9u8])[2u8]
let trans (e : edge) (x : int8) = x
let merge (u : node) (x y : int8) = if x < y then x else y
"""

    def test_failed_worker_is_one_error_line(self, tmp_path, capsys,
                                             monkeypatch):
        """A program that fails only in a worker: exit 3 and one ``error:``
        line; the worker's traceback goes to the trace file only.  The cut
        file annotates both cut edges, so nothing is simulated first, and
        only fragment 1, node 1's, fails to encode."""
        f = tmp_path / "symkey.nv"
        f.write_text(self.SYMBOLIC_KEY_WRITE)
        cuts, true = tmp_path / "cuts.json", {"pred": "fun r -> true"}
        cuts.write_text(json.dumps({"fragments": [[0], [1]], "interfaces": {
            "0->1": true, "1->0": true}}))
        trace = tmp_path / "t.jsonl"
        monkeypatch.setenv("NV_JOBS", "2")
        assert main(["verify", str(f), "--cuts", str(cuts),
                     "--trace-json", str(trace)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"error: worker \d failed on unit 1: "
                            r"NvEncodingError: map keys written with "
                            r"m\[k := v\] must be constants .*\n",
                            captured.err), captured.err
        (event,) = [r for r in map(json.loads, trace.read_text().splitlines())
                    if r.get("name") == "parallel.worker_error"]
        assert event["attrs"]["unit"] == 1
        assert event["attrs"]["traceback"].startswith("Traceback")

    # An int8 hop count: no option to drop a route to, and a 120-arm chain.
    PLAIN_ATTRIBUTE = """
let nodes = 2
let edges = {0n=1n}
let f (x : int8) = %s0u8
let init (u : node) = if u = 0n then 0u8 else 255u8
let trans (e : edge) (x : int8) = f x + 1u8
let merge (u : node) (x y : int8) = if x <= y then x else y
""" % "".join(f"if x = {i}u8 then {i}u8 else " for i in range(120))

    def test_fault_needs_a_drop_value_for_a_non_option_attribute(
            self, tmp_path, capsys):
        f = tmp_path / "plain.nv"
        f.write_text(self.PLAIN_ATTRIBUTE)
        assert main(["fault", str(f), "--links", "1"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: attribute type int8 is not an option; "
                              "pass --drop ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert main(["fault", str(f), "--links", "1", "--drop", "255u8"]) == 0

    def test_native_nesting_limit_reported_without_traceback(
            self, tmp_path, capsys):
        """CPython refuses the nested ``if`` blocks ``compile_py`` emits for a
        120-arm ``else if`` chain; the interpreter runs the same file."""
        f = tmp_path / "plain.nv"
        f.write_text(self.PLAIN_ATTRIBUTE)
        assert main(["simulate", str(f), "--native"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "native back end's limit" in err and "interpreter" in err
        assert "Traceback" not in err
        assert main(["simulate", str(f)]) == 0

    ROUTER_CFG = """
interface E0
 ip address 10.0.0.1/30
router bgp 1
 network 10.0.0.0/30
"""

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("case", [
        "missing_file", "directory", "not_utf8", "missing_configs",
        "unwritable_output", "missing_cuts", "unwritable_trace"])
    def test_unreadable_path_is_a_contract_error(
            self, case, jobs, triangle_file, tmp_path, capsys, monkeypatch):
        """A path that cannot be read or written is exit 3 with one
        ``error: <path>: <reason>`` line — not a traceback with the exit
        code that means "the property is violated"."""
        monkeypatch.setenv("NV_JOBS", jobs)
        nope = str(tmp_path / "nope.nv")
        bad = tmp_path / "bad.nv"
        bad.write_bytes(b"\xff\xfe\x00let nodes = 1")
        configs = tmp_path / "configs"
        configs.mkdir()
        (configs / "r1.cfg").write_text(self.ROUTER_CFG)
        nowhere = str(tmp_path / "no" / "such" / "dir" / "out")
        argv, path, reason = {
            "missing_file": (["simulate", nope], nope, "No such file"),
            "directory": (["fault", str(tmp_path)], str(tmp_path), "Is a directory"),
            "not_utf8": (["verify", str(bad)], str(bad), "codec can't decode"),
            "missing_configs": (["translate", nope, "-o", str(tmp_path / "x.nv")],
                                nope, "No such file"),
            "unwritable_output": (["translate", str(configs), "-o", nowhere],
                                  nowhere, "No such file"),
            "missing_cuts": (["verify", triangle_file, "--cuts", nope],
                             nope, "No such file"),
            "unwritable_trace": (["explain", triangle_file, "1", "--trace-json",
                                  nowhere], nowhere, "No such file"),
        }[case]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {path}: ") and reason in captured.err
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert captured.out == ""


class TestMetricsFlags:
    """The live-metrics CLI surface: --progress, the snapshot record that
    ends a --trace-json file, and the report subcommand."""

    def test_metrics_json_export(self, triangle_file, tmp_path):
        trace = tmp_path / "t.jsonl"
        assert main(["simulate", triangle_file,
                     "--trace-json", str(trace)]) == 0
        last = json.loads(trace.read_text().splitlines()[-1])
        assert last["type"] == "snapshot"
        assert last["counters"]["sim.activations"] > 0
        assert "gauges" in last and "histograms" in last
        assert "partial" not in last

    def test_progress_heartbeat_emits_events(self, triangle_file, tmp_path,
                                             capsys, monkeypatch):
        from repro import heartbeat

        monkeypatch.setattr(heartbeat, "PERIOD_SECONDS", 0.01)
        trace = tmp_path / "t.jsonl"
        assert main(["verify", triangle_file, "--progress",
                     "--trace-json", str(trace)]) == 0
        records = [json.loads(line) for line in
                   trace.read_text().strip().splitlines()]
        prog = [r for r in records
                if r["type"] == "event" and r["name"] == "progress"]
        assert prog, "no heartbeat progress events in the trace"
        assert any("elapsed" in p["attrs"] for p in prog)
        # The status line goes to stderr.
        assert "[" in capsys.readouterr().err

    def test_report_round_trip(self, triangle_file, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        html = tmp_path / "run.html"
        assert main(["verify", triangle_file, "--progress",
                     "--trace-json", str(trace)]) == 0
        assert main(["report", str(trace), "-o", str(html)]) == 0
        text = html.read_text()
        assert text.rstrip().endswith("</html>")
        assert "smt.solve" in text
        assert "sat.conflicts" in text  # the snapshot's counter table

    def test_metrics_disabled_after_run(self, triangle_file, tmp_path):
        from repro import metrics, perf

        assert main(["simulate", triangle_file,
                     "--trace-json", str(tmp_path / "t.jsonl")]) == 0
        assert not metrics.is_enabled()
        perf.disable()
        perf.reset()


class TestClosedStdout:
    def test_reader_that_goes_away_is_no_traceback(self, triangle_file):
        """``repro simulate f.nv | head -1``: the read end closes before the
        routes are written.  One exit code, nothing on stderr."""
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "simulate", triangle_file,
             "--show-routes"], env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 3
        assert stderr == ""


class TestImportsOnlyWhatRuns:
    """The package and the CLI load a back end when it is first used; asked
    in a fresh interpreter, where no other test has imported anything.

    Every child runs under this interpreter's flags and environment, and
    the assertions are about what ``repro`` loads *beyond* interpreter
    start-up — a ``python -c pass`` child under the same flags and
    environment — so a site ``.pth`` file that preloads a module (say,
    ``pathlib``) is not charged to ``repro``."""

    _startup: dict[str, frozenset[str]] = {}

    @staticmethod
    def _modules(code: str, *argv: str, jobs: str = "1") -> set[str]:
        """``sys.modules`` of a fresh child after ``code`` ran."""
        env = dict(os.environ, NV_JOBS=jobs)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        code += "\nimport sys\nprint('\\n' + ' '.join(sys.modules))"
        proc = subprocess.run(
            [sys.executable, *subprocess._args_from_interpreter_flags(),
             "-c", code, *argv],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return set(proc.stdout.splitlines()[-1].split())

    @classmethod
    def beyond_startup(cls, code: str, *argv: str,
                       jobs: str = "1") -> set[str]:
        """What ``code`` loads beyond a ``pass`` child's start-up."""
        if jobs not in cls._startup:
            cls._startup[jobs] = frozenset(cls._modules("pass", jobs=jobs))
        return cls._modules(code, *argv, jobs=jobs) - cls._startup[jobs]

    @classmethod
    def loaded_after(cls, code: str, *argv: str) -> set[str]:
        """The ``repro`` modules loaded after ``code`` ran."""
        return {m for m in cls.beyond_startup(code, *argv)
                if m.startswith("repro")}

    def test_topology_generators_load_no_analysis(self):
        loaded = self.loaded_after("import repro.topology")
        assert "repro.topology.fattree" in loaded
        assert not {m for m in loaded
                    if m.startswith(("repro.analysis", "repro.smt", "repro.api"))}

    def test_simulate_never_imports_the_sat_solver(self, triangle_file):
        loaded = self.loaded_after(
            "import sys\nfrom repro.cli import main\n"
            "assert main(['simulate', sys.argv[1]]) == 0", triangle_file)
        assert "repro.analysis.simulation" in loaded
        assert not {m for m in loaded if m.startswith(("repro.smt", "repro.partition"))}
        assert "repro.analysis.fault" not in loaded

    def test_package_entry_points_still_resolve(self):
        import repro
        from repro import api

        assert repro.load is api.load and repro.verify is api.verify
        with pytest.raises(AttributeError):
            repro.no_such_name

    # -- the start-up path (DESIGN.md "Start-up path") ---------------------

    #: What an untraced ``--jobs 1`` process must not pay for: the stdlib's
    #: record builder, the exporters' and the worker transport's modules,
    #: and the management half of the observability stack.
    MANAGEMENT = {"dataclasses", "inspect", "json", "pickle", "tracemalloc",
                  "pathlib", "multiprocessing", "repro.heartbeat",
                  "repro.report", "repro.critpath"}

    @classmethod
    def modules_after(cls, argv: list[str], jobs: str = "1",
                      expect: int = 0) -> set[str]:
        """The modules ``main(argv)`` loaded beyond interpreter start-up,
        asserting it returned ``expect``."""
        code = ("import sys\nfrom repro.cli import main\n"
                f"rc = main(sys.argv[1:])\nassert rc == {expect}, rc")
        return cls.beyond_startup(code, *argv, jobs=jobs)

    @pytest.mark.parametrize("command", ["simulate", "verify", "fault"])
    def test_untraced_analysis_loads_no_management_module(
            self, command, triangle_file):
        argv = {"simulate": ["simulate", triangle_file],
                "verify": ["verify", triangle_file],
                "fault": ["fault", "--links", "1", triangle_file]}[command]
        # One failed link disconnects the triangle's assertion: exit 1.
        loaded = self.modules_after(argv, expect=int(command == "fault"))
        assert not loaded & self.MANAGEMENT
        assert "repro.eval.compile_py" not in loaded       # --native only
        assert {"repro.obs", "repro.metrics", "repro.parallel",
                "repro.ledger", "repro.srp.network"} <= loaded

    def test_two_workers_load_their_transport_and_nothing_else(
            self, triangle_file):
        loaded = self.modules_after(
            ["verify", triangle_file, "--partition", "2"], jobs="2")
        assert {"pickle", "multiprocessing"} <= loaded
        assert not loaded & (self.MANAGEMENT - {"pickle", "multiprocessing"})

    def test_translate_loads_no_evaluator(self, tmp_path):
        (tmp_path / "a.cfg").write_text(
            "interface E0\n ip address 10.0.0.1/30\n"
            "router bgp 1\n network 10.0.0.0/30\n")
        loaded = self.modules_after(
            ["translate", str(tmp_path), "-o", str(tmp_path / "out.nv")])
        assert "repro.frontend.to_nv" in loaded
        assert not loaded & self.MANAGEMENT
        # repro.lang re-exports its parser and checker lazily (PEP 562).
        assert not loaded & {"repro.lang.parser", "repro.lang.typecheck",
                             "repro.lang.ast"}
        assert not {m for m in loaded if m.startswith(
            ("repro.bdd", "repro.eval.interp", "repro.srp", "repro.smt",
             "repro.analysis"))}
        assert (tmp_path / "out.nv").read_text().startswith("\n// Generated")

    def test_observability_flags_load_what_they_need(
            self, triangle_file, tmp_path):
        """The positive control: measured the same way, a traced run does
        load its exporter (so the checks above can fail)."""
        trace = tmp_path / "t.jsonl"
        loaded = self.modules_after(
            ["simulate", triangle_file, "--trace", "--stats",
             "--trace-json", str(trace)])
        assert "json" in loaded
        assert not loaded & {"dataclasses", "inspect", "tracemalloc"}
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        assert records[0]["type"] == "meta"
        assert "sim.simulate" in {r.get("name") for r in records}
        assert records[-1]["counters"]["sim.activations"] > 0

    def test_importing_the_cli_loads_fifteen_repro_modules(self):
        """``cli.import_modules`` of ``benchmarks/e2e`` (34 before PR 24):
        an upper bound, so a new eager import has to be argued for here."""
        loaded = self.loaded_after("import repro.cli")
        assert len(loaded) <= 15, sorted(loaded)
        assert "repro._struct" in loaded
