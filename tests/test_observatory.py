"""Observatory: RunRecord schema, the .nv-runs/ store, the noise-aware
differ and the ``repro runs`` CLI surface.  The counter gate built on them
(``benchmarks/check_regression.py``) is tested in ``test_budgets.py``."""

import json

import pytest

from repro import metrics, observatory, perf
from repro.observatory import (
    Delta, RunRecord, RunStore, Tolerance, diff_records, diff_table,
    regressions)


def _record(run_id, label="bench", created=1000.0, **kw):
    kw.setdefault("env", {"jobs": "2", "git_sha": "abc123"})
    return RunRecord(run_id=run_id, label=label, created=created, **kw)


class TestRunRecord:
    def test_round_trip(self):
        rec = _record(
            "20260101T000000-bench-abcdef",
            timings={"fig14.wall_seconds": [1.5, 1.2, 1.3]},
            counters={"bdd.apply_misses": 42},
            gauges={"bdd.table_fill_pct": 61.5},
            histograms={"bdd.table_entries": {"count": 3, "sum": 4.0}},
            trace_path="/tmp/trace.jsonl",
            meta={"command": "simulate"})
        back = RunRecord.from_dict(json.loads(json.dumps(rec.to_dict())))
        assert back == rec
        assert back.schema == observatory.SCHEMA

    def test_best_timing_is_min_of_n(self):
        rec = _record("r", timings={"t": [1.5, 1.2, 1.3]})
        assert rec.best_timing("t") == 1.2
        assert rec.best_timing("missing") is None

    def test_from_dict_coerces_types(self):
        rec = RunRecord.from_dict(
            {"run_id": "r", "label": "l", "created": "12.5",
             "timings": {"t": ["1", 2]}, "counters": {"c": "3"},
             "gauges": {"g": 4}})
        assert rec.timings == {"t": [1.0, 2.0]}
        assert rec.counters == {"c": 3}
        assert rec.gauges == {"g": 4.0}

    def test_new_run_id_sortable_and_slugged(self):
        rid = observatory.new_run_id("fig 14/smoke!", created=0.0)
        assert rid.startswith("19700101T000000-fig-14-smoke-")

    def test_env_fingerprint_fields(self):
        env = observatory.env_fingerprint()
        assert "python" in env and "jobs" in env


class TestCapture:
    def test_perf_split_and_metrics_gating(self):
        perf.reset()
        with perf.enabled():
            perf.merge({"work_items": 7, "phase_seconds": 0.25})
            rec = observatory.capture("t", timings={"wall": [1.0]})
        assert rec.counters == {"work_items": 7}
        assert rec.timings == {"wall": [1.0], "phase_seconds": [0.25]}
        assert rec.gauges == {} and rec.histograms == {}  # metrics off

    def test_capture_with_metrics(self):
        perf.reset()
        metrics.reset()
        with perf.enabled(), metrics.enabled():
            metrics.set_gauge("fill_pct", 50.0)
            metrics.observe("probe_len", 3.0)
            rec = observatory.capture("t")
        assert rec.gauges.get("fill_pct") == 50.0
        assert "probe_len" in rec.histograms


class TestRunStore:
    def test_save_load_list(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        a = _record("20260101T000000-a-000001", label="a", created=1.0)
        b = _record("20260102T000000-b-000002", label="b", created=2.0)
        store.save(b)
        store.save(a)
        assert [r.run_id for r in store.list()] == [a.run_id, b.run_id]
        assert store.load(store.root / f"{a.run_id}.json") == a

    def test_list_skips_foreign_files(self, tmp_path):
        store = RunStore(tmp_path)
        store.save(_record("r1"))
        (tmp_path / "junk.json").write_text("not json{")
        assert len(store.list()) == 1

    def test_resolve_exact_prefix_label(self, tmp_path):
        store = RunStore(tmp_path)
        old = _record("20260101T000000-smoke-aaaaaa", label="smoke",
                      created=1.0)
        new = _record("20260102T000000-smoke-bbbbbb", label="smoke",
                      created=2.0)
        store.save(old)
        store.save(new)
        assert store.resolve(old.run_id) == old               # exact
        assert store.resolve("20260101") == old               # unique prefix
        assert store.resolve("smoke") == new                  # label -> latest
        with pytest.raises(KeyError, match="ambiguous"):
            store.resolve("2026")
        with pytest.raises(KeyError, match="no run matching"):
            store.resolve("nope")

    def test_env_var_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NV_RUNS_DIR", str(tmp_path / "env-runs"))
        assert RunStore().root == tmp_path / "env-runs"


class TestTolerance:
    def test_within_uses_max_of_rel_and_abs(self):
        tol = Tolerance(rel=0.10, abs=2.0)
        assert tol.within(100, 110)       # exactly 10%
        assert not tol.within(100, 111)
        assert tol.within(1, 3)           # abs floor dominates small values
        assert not tol.within(1, 3.5)


class TestDiff:
    def test_statuses(self):
        a = _record("a", timings={"t": [1.0, 1.1]},
                    counters={"stable": 100, "worse": 100, "better": 100,
                              "vanishing": 5})
        b = _record("b", timings={"t": [1.05]},
                    counters={"stable": 105, "worse": 150, "better": 50,
                              "brand_new": 7})
        by_name = {d.name: d for d in diff_records(a, b)}
        assert by_name["t"].status == "ok"          # 5% < 10% timing tol
        assert by_name["stable"].status == "ok"
        assert by_name["worse"].status == "regressed"
        assert by_name["better"].status == "improved"
        assert by_name["brand_new"].status == "new"
        assert by_name["vanishing"].status == "gone"

    def test_timings_reduced_min_of_n_before_compare(self):
        a = _record("a", timings={"t": [1.0, 2.0, 3.0]})
        b = _record("b", timings={"t": [5.0, 1.01]})
        (d,) = diff_records(a, b)
        assert (d.a, d.b, d.status) == (1.0, 1.01, "ok")

    def test_custom_tolerances(self):
        a = _record("a", counters={"c": 100})
        b = _record("b", counters={"c": 104})
        (d,) = diff_records(a, b, tolerances={"counter": Tolerance(0.01, 0)})
        assert d.status == "regressed"

    def test_regressions_gate_counters_only_by_default(self):
        deltas = [Delta("timing", "t", 1.0, 9.0, "regressed"),
                  Delta("counter", "c", 10, 99, "regressed"),
                  Delta("counter", "n", None, 5, "new"),
                  Delta("counter", "ok", 10, 10, "ok"),
                  Delta("gauge", "g", 1.0, 9.0, "regressed")]
        assert [d.name for d in regressions(deltas)] == ["c", "n"]
        assert [d.name for d in regressions(deltas, kinds=("timing",))] == ["t"]

    def test_diff_table_filters_ok(self):
        deltas = [Delta("counter", "c", 10, 99, "regressed"),
                  Delta("counter", "ok", 10, 10, "ok")]
        table = diff_table(deltas, only_interesting=True)
        assert "c" in table and "ok" not in table.splitlines()[1:][0]
        assert "regressed" in table

    def test_describe_mentions_key_fields(self):
        rec = _record("r1", label="smoke", timings={"t": [1.0]},
                      counters={"c": 5})
        text = observatory.describe(rec)
        assert "r1" in text and "smoke" in text and "git_sha=abc123" in text


class TestCli:
    @pytest.fixture
    def store(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        store.save(_record("20260101T000000-a-aaaaaa", label="a", created=1.0,
                           timings={"t": [1.0]}, counters={"c": 100}))
        store.save(_record("20260102T000000-b-bbbbbb", label="b", created=2.0,
                           timings={"t": [1.01]}, counters={"c": 150}))
        return store

    def test_runs_list(self, store, capsys):
        from repro.cli import main
        assert main(["runs", "--runs-dir", str(store.root), "list"]) == 0
        out = capsys.readouterr().out
        assert "20260101T000000-a-aaaaaa" in out
        assert "20260102T000000-b-bbbbbb" in out

    def test_runs_show(self, store, capsys):
        from repro.cli import main
        assert main(["runs", "--runs-dir", str(store.root), "show", "a"]) == 0
        assert "20260101T000000-a-aaaaaa" in capsys.readouterr().out

    def test_runs_diff_and_gate(self, store, capsys):
        from repro.cli import main
        assert main(["runs", "--runs-dir", str(store.root),
                     "diff", "a", "b"]) == 0
        out = capsys.readouterr().out
        assert "regressed" in out           # counter c: 100 -> 150
        assert main(["runs", "--runs-dir", str(store.root),
                     "diff", "a", "b", "--gate"]) == 1

    def test_runs_diff_html(self, store, tmp_path, capsys):
        from repro.cli import main
        out_html = tmp_path / "diff.html"
        assert main(["runs", "--runs-dir", str(store.root),
                     "diff", "a", "b", "--html", str(out_html)]) == 0
        html = out_html.read_text()
        assert "<html" in html and "regressed" in html

    def test_runs_diff_unknown_ref(self, store, capsys):
        from repro.cli import main
        assert main(["runs", "--runs-dir", str(store.root),
                     "diff", "a", "nope"]) == 3

    def test_record_flag_writes_runrecord(self, tmp_path, capsys):
        from repro.cli import main
        from repro.topology import sp_program
        prog = tmp_path / "net.nv"
        prog.write_text(sp_program(2))
        runs = tmp_path / "cli-runs"
        assert main(["simulate", str(prog), "--record", "smoke",
                     "--runs-dir", str(runs)]) == 0
        records = RunStore(runs).list()
        assert len(records) == 1
        rec = records[0]
        assert rec.label == "smoke"
        assert "simulate.wall_seconds" in rec.timings
        assert rec.counters        # --record implies live perf counters
        assert rec.meta.get("command") == "simulate"

    def test_recorded_lpt_gap_is_the_ledgers(self, tmp_path, capsys):
        """``parallel.lpt_gap_pct`` has one producer, the work ledger: a
        sharded ``--record --trace-json`` run records the value its
        ``parallel.ledger`` event carries."""
        from repro.cli import main
        from tests.helpers import RIP_TRIANGLE
        files = []
        for i in range(4):
            files.append(tmp_path / f"p{i}.nv")
            files[-1].write_text(RIP_TRIANGLE)
        trace, runs = tmp_path / "t.jsonl", tmp_path / "cli-runs"
        assert main(["verify", *map(str, files), "--no-incremental",
                     "--jobs", "2",
                     "--trace-json", str(trace), "--record",
                     "--runs-dir", str(runs)]) == 0
        (event,) = [r for r in map(json.loads, trace.read_text().splitlines())
                    if r.get("name") == "parallel.ledger"]
        (rec,) = RunStore(runs).list()
        assert rec.gauges["parallel.lpt_gap_pct"] == event["attrs"]["lpt_gap_pct"]
