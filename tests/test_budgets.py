"""Counter budgets of the one counter gate (``benchmarks/check_regression.py``):
the comparison it applies, that the committed baseline matches a fresh run,
and that the gate demonstrably *fails* when an optimisation is ablated."""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.observatory import RunRecord, RunStore, diff_records, regressions

GATE = Path(__file__).resolve().parents[1] / "benchmarks" / "check_regression.py"
NARROW = ["--workload", "rip_triangle_sim", "--no-parallel-probe",
          "--repeats", "1", "--no-store"]
MEMO_HITS = "rip_triangle_sim.sim.merge_cache_hits"


def _compare(expected, actual):
    """The delta of one counter, and whether the gate fails on it."""
    (row,) = diff_records(RunRecord("a", "a", 0.0, counters=expected),
                          RunRecord("b", "b", 0.0, counters=actual))
    return row, regressions([row]) == [row]


class TestCompare:
    def test_within_tolerance_ok(self):
        row, failed = _compare({"a.x": 100}, {"a.x": 105})
        assert row.status == "ok" and not failed
        assert row.rel == pytest.approx(0.05)

    def test_beyond_tolerance_fails(self):
        row, failed = _compare({"a.x": 100}, {"a.x": 120})
        assert row.status == "regressed" and failed
        assert row.rel == pytest.approx(0.20)

    def test_absolute_slack_for_tiny_counters(self):
        # 3 -> 5 is +67% but within the +-2 absolute wiggle room.
        assert _compare({"a.x": 3}, {"a.x": 5})[1] is False
        assert _compare({"a.x": 3}, {"a.x": 6})[1] is True

    def test_vanished_counter_is_a_failure(self):
        # A counter family disappearing (e.g. a memo cache removed) fails.
        row, failed = _compare({"a.cache_hits": 1000}, {})
        assert row.b is None and row.status == "gone" and failed

    def test_new_counter_is_a_failure(self):
        row, failed = _compare({}, {"a.extra": 500})
        assert row.a is None and row.status == "new" and failed


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("check_regression", GATE)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture
def ablated(gate, monkeypatch):
    """Every workload the gate runs skips the simulator memo layer."""
    run = gate.run_workload
    monkeypatch.setattr(gate, "run_workload",
                        lambda name: run(name, frozenset({"sim-memo"})))
    return gate


def _failures(gate):
    baseline = gate.measured_part(RunStore().load(gate.BASELINE),
                                  ["rip_triangle_sim"], probe=False)
    deltas = diff_records(baseline, gate.measure(["rip_triangle_sim"], 1, "t"))
    assert any(d.kind == "counter" for d in deltas)
    return [d.name for d in regressions(deltas)]


class TestGate:
    def test_workload_counters_deterministic(self, gate):
        a = gate.run_workload("rip_triangle_sim")
        assert a and a == gate.run_workload("rip_triangle_sim")

    def test_checked_in_budgets_pass(self, gate):
        assert _failures(gate) == []

    def test_gate_trips_on_memo_ablation(self, ablated):
        assert MEMO_HITS in _failures(ablated)

    def test_cli_reports_and_exits(self, gate, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert gate.main(NARROW + ["--json", str(report)]) == 0
        assert "perf regression gate passed" in capsys.readouterr().out
        assert json.loads(report.read_text())["gated_regressions"] == 0

    def test_cli_update_roundtrip(self, gate, tmp_path, capsys):
        baseline = ["--baseline", str(tmp_path / "baseline.json")]
        assert gate.main(NARROW + baseline + ["--update"]) == 0
        assert gate.main(NARROW + baseline) == 0

    def test_cli_failure_exit_code(self, ablated, capsys):
        assert ablated.main(NARROW) == 1
        captured = capsys.readouterr()
        assert MEMO_HITS in captured.out
        assert "perf regression gate FAILED" in captured.err
