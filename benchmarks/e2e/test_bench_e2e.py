"""Tests of the end-to-end benchmark itself, on top of ``run.py --quick``.

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_bench_e2e.py -q

Not part of tier-1 (``testpaths = ["tests"]``): one quick run of all four
workloads with their traced replays takes about half a minute.
"""

from __future__ import annotations

import copy
import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(REPO / "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
RUN = [sys.executable, str(HERE / "run.py")]


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "quick.json"
    proc = subprocess.run(RUN + ["--quick", "--out", str(out)], cwd=REPO,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    with open(out) as fh:
        doc = json.load(fh)
    doc["_path"] = str(out)
    doc["_stdout"] = proc.stdout
    return doc


# ----------------------------------------------------------------------
# Schema
# ----------------------------------------------------------------------

def test_benchmark_json_matches_the_tables():
    with open(REPO / "BENCHMARK.json") as fh:
        doc = json.load(fh)
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert doc["paths"] == ["benchmarks/e2e"]
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60

    assert [(w["name"], w["why"]) for w in doc["workloads"]] == \
        [(w.name, w.why) for w in workloads.WORKLOADS.values()]
    assert 2 <= len(doc["workloads"]) <= 8
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in doc["workloads"])

    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in doc["end_to_end"]] == \
        [(name, unit, better, bound) for name, unit, better, bound, _ in run.END_TO_END]
    assert len(doc["end_to_end"]) <= 16
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= \
        doc["end_to_end"][0].items()

    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == \
        [(m.name, m.unit, m.better) for m in layers.LAYER_METRICS]
    assert len(doc["per_layer"]) <= 128

    names = [x["name"] for x in doc["workloads"] + doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])
        assert m["better"] in ("lower", "higher")


def test_every_layer_metric_names_what_it_should_move():
    e2e = {name for name, *_ in run.END_TO_END}
    for m in layers.LAYER_METRICS:
        if m.name.startswith("harness."):
            assert m.moves == "none" and m.on == ()
            continue
        assert m.moves and set(m.moves.split()) <= e2e, m.name
        assert m.on and set(m.on) <= set(workloads.WORKLOADS), m.name


# ----------------------------------------------------------------------
# The quick run
# ----------------------------------------------------------------------

def test_quick_run_is_complete_and_correct(quick):
    assert quick["schema"] == run.SCHEMA
    assert {"git_sha", "python", "nproc", "engine_hint", "seed"} <= \
        set(quick["fingerprint"])
    assert [r["workload"] for r in quick["runs"]] == list(workloads.WORKLOADS)
    layer_names = {m.name for m in layers.LAYER_METRICS}
    for r in quick["runs"]:
        assert r["failed"] == 0, r["failures"]
        assert r["attempted"] >= len(r["passes"][0])
        assert set(r["end_to_end"]) == {name for name, *_ in run.END_TO_END}
        assert all(v > 0 for v in r["end_to_end"].values())
        assert set(r["per_layer"]) == layer_names
        # every metric is printed by name with its unit
        for name in list(r["end_to_end"]) + list(r["per_layer"]):
            assert re.search(rf"^{r['workload']}\s+{re.escape(name)}\s+\S+ \S+$",
                             quick["_stdout"], re.M), name


def test_layers_show_up_where_the_table_says(quick):
    by_name = {r["workload"]: r["per_layer"] for r in quick["runs"]}
    assert by_name["verify_smt"]["smt.clauses"] > 0
    assert by_name["verify_smt"]["partition.fragments"] == 2
    assert by_name["verify_smt"]["bdd.nodes"] < 100
    assert by_name["fault_wan"]["bdd.nodes"] > 10_000
    assert by_name["fault_wan"]["smt.clauses"] == 0
    assert by_name["fault_wan"]["analysis.fault_units"] == 8
    assert by_name["fault_wan_j2"]["parallel.result_bytes"] > 0
    assert by_name["fault_wan_j2"]["parallel.speedup"] > 0
    assert by_name["sim_cfg"]["frontend.routers"] == 5
    assert by_name["sim_cfg"]["transform.ast_nodes_in"] > 0
    assert by_name["sim_cfg"]["eval.compile_s"] > 0
    # the same file at both job counts does the same symbolic work
    for count in ("bdd.nodes", "srp.activations", "srp.messages"):
        assert by_name["fault_wan"][count] == by_name["fault_wan_j2"][count]


def test_span_trees_are_well_formed(quick):
    for r in quick["runs"]:
        for inp in r["inputs"]:
            spans = inp["spans"]
            assert tracer.tree_problems(spans) == [], (r["workload"], inp["id"])
            roots = [s for s in spans if s["parent"] is None]
            assert [s["name"] for s in roots] == ["cli.main"]
            # self times add back up to the root's wall
            total = sum(tracer.self_times(spans).values())
            assert total == pytest.approx(roots[0]["busy"], rel=1e-6)


def test_tree_checker_catches_broken_trees():
    good = [
        {"id": 0, "parent": None, "name": "cli.main", "start": 0.0, "end": 10.0, "busy": 10.0, "count": 1},
        {"id": 1, "parent": 0, "name": "lang.parse", "start": 1.0, "end": 4.0, "busy": 3.0, "count": 1},
        {"id": 2, "parent": 0, "name": "bdd.op", "start": 5.0, "end": 9.0, "busy": 2.5, "count": 40},
    ]
    assert tracer.tree_problems(good) == []
    assert tracer.self_times(good) == {0: 4.5, 1: 3.0, 2: 2.5}
    dangling = copy.deepcopy(good)
    dangling[1]["parent"] = 7
    assert any("unresolved parent" in p for p in tracer.tree_problems(dangling))
    escaping = copy.deepcopy(good)
    escaping[1]["end"] = 11.0
    assert any("leaves its parent" in p for p in tracer.tree_problems(escaping))
    overfull = copy.deepcopy(good)
    overfull[1]["busy"], overfull[1]["end"] = 9.0, 10.0
    overfull[1]["start"] = 1.0
    assert any("negative self time" in p for p in tracer.tree_problems(overfull))


def test_tracer_counts_reentrant_and_aggregated_calls_once():
    t = tracer.Tracer()

    def fact(n):
        return 1 if n <= 1 else n * fact(n - 1)

    fact = t.wrap(fact, "x.fact")            # recursion goes through the wrapper
    op = t.wrap(lambda v: v + 1, "y.op", agg=True)
    outer = t.wrap(lambda: [fact(5)] + [op(i) for i in range(10)], "x.outer")
    assert outer()[0] == 120
    spans = t.take()
    assert [(s["name"], s["count"]) for s in spans] == \
        [("x.outer", 1), ("x.fact", 1), ("y.op", 10)]
    assert tracer.tree_problems(spans) == []
    assert t.spans == []


# ----------------------------------------------------------------------
# The checker
# ----------------------------------------------------------------------

def test_checker_accepts_right_and_rejects_tampered_verdicts():
    exp = checks.load_expected(quick=True)
    verify = exp["verify_smt"]["wan_unsat"]
    good = {"rc": 0, "stderr": "", "stdout":
            "verified: encode 0.006s, blast+solve 0.730s, 3315 vars, "
            "9850 clauses, 502 conflicts\n"}
    assert checks.check_result(verify, good, {}, default_seed=True) == []
    flipped = dict(good, stdout=good["stdout"].replace("verified", "counterexample"))
    assert checks.check_result(verify, flipped, {}, default_seed=True)
    wrong_exit = dict(good, rc=1)
    assert checks.check_result(verify, wrong_exit, {}, default_seed=True)
    wrong_count = dict(good, stdout=good["stdout"].replace("502 conflicts", "503 conflicts"))
    assert checks.check_result(verify, wrong_count, {}, default_seed=True)
    assert checks.check_result(verify, dict(good, timed_out=True), {}, True) == ["timed out"]


def test_fault_count_is_checked_against_the_graph_for_any_seed(tmp_path):
    inputs = workloads.generate("fault_wan", 4242, tmp_path, quick=True)
    topo = inputs.facts["topology"]
    want = checks.fault_violations_reference(
        topo["nodes"], topo["links"], topo["dest"], 2)
    fault = checks.load_expected(quick=True)["fault_wan"]["fault2"]
    line = "2-link failures: {} violating scenario keys; max classes/node = 8; simulate 1.5s\n"
    ok = {"rc": 1, "stdout": line.format(want), "stderr": ""}
    assert checks.check_result(fault, ok, inputs.facts, default_seed=False) == []
    bad = {"rc": 1, "stdout": line.format(want + 8), "stderr": ""}
    assert any("graph reference" in p for p in
               checks.check_result(fault, bad, inputs.facts, default_seed=False))


def test_fault_reference_on_a_path_graph():
    # 0 - 1 - 2, destination 0: failing (0,1) cuts two nodes off, (1,2) one.
    # keys: 4 per single link, 8 per pair of distinct links.
    assert checks.fault_violations_reference(3, [(0, 1), (1, 2)], 0, 2) == \
        4 * (2 + 1) + 8 * 2


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------

def _tree(root: Path) -> dict[str, str]:
    return {str(p.relative_to(root)): p.read_text()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_same_seed_same_inputs(tmp_path, workload):
    dirs = []
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        d = tmp_path / name
        d.mkdir()
        workloads.generate(workload, seed, d, quick=True)
        dirs.append(_tree(d))
    assert dirs[0] == dirs[1]
    assert dirs[0] != dirs[2]
    assert dirs[0].keys() == dirs[2].keys()


def test_both_fault_workloads_read_the_same_file(tmp_path):
    (tmp_path / "j1").mkdir()
    (tmp_path / "j2").mkdir()
    workloads.generate("fault_wan", 11, tmp_path / "j1", quick=True)
    workloads.generate("fault_wan_j2", 11, tmp_path / "j2", quick=True)
    assert _tree(tmp_path / "j1") == _tree(tmp_path / "j2")
    assert workloads.WORKLOADS["fault_wan"].jobs == 1
    assert workloads.WORKLOADS["fault_wan_j2"].jobs == 2


def test_generated_configs_parse_and_link_up():
    from repro.frontend.configs import infer_topology, parse_config
    from repro.topology import fattree

    configs = workloads.fattree_configs(4, random.Random(3))
    parsed = [parse_config(name[:-4], text) for name, text in sorted(configs.items())]
    _, links = infer_topology(parsed)
    assert sorted(links) == sorted(fattree(4).links)
    assert all(len(c.route_maps) == len(c.bgp.neighbors) for c in parsed)


def test_child_env_drops_every_nv_knob(monkeypatch):
    monkeypatch.setenv("NV_BDD_ENGINE", "object")
    monkeypatch.setenv("NV_TELEMETRY", "1")
    monkeypatch.setenv("NV_JOBS", "7")
    env = run.child_env(2)
    assert {k: v for k, v in env.items() if k.startswith("NV_")} == {"NV_JOBS": "2"}
    assert env["PYTHONHASHSEED"] == "0"


# ----------------------------------------------------------------------
# The driver's contract and compare
# ----------------------------------------------------------------------

def test_driver_mode_prints_one_result_object_last():
    proc = subprocess.run(
        RUN + ["--workload", "sim_cfg", "--seed", "5", "--seconds", "1",
               "--trace", "0", "--quick"],
        cwd=REPO, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 4
    assert set(result["metrics"]) == {name for name, *_ in run.END_TO_END}
    assert all(set(v) == {"value", "unit"} for v in result["metrics"].values())


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "fault_wan",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_compare_agrees_with_itself_and_flags_a_slowdown(quick, tmp_path, capsys):
    assert run.compare(quick["_path"], quick["_path"]) == 0
    assert "unresolved" not in capsys.readouterr().out

    slow = {k: v for k, v in quick.items() if not k.startswith("_")}
    slow = copy.deepcopy(slow)
    for r in slow["runs"]:
        if r["workload"] == "sim_cfg":
            r["end_to_end"]["pass_s"] *= 1.5
        if r["workload"] == "verify_smt":
            r["per_layer"]["smt.conflicts"] += 1
    path = tmp_path / "slow.json"
    path.write_text(json.dumps(slow))
    assert run.compare(quick["_path"], str(path)) == 1
    out = capsys.readouterr().out
    assert re.search(r"sim_cfg\s+pass_s.*worse", out)
    assert re.search(r"fault_wan\s+pass_s.*ok", out)
    assert "smt.conflicts" in out and "does not repeat" in out
