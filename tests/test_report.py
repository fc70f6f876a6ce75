"""HTML run-report generator tests (repro.report + the `repro report` CLI)."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro import metrics, obs, perf
from repro.obs import Span, load_trace
from repro.report import generate, render_html


@pytest.fixture(autouse=True)
def clean_registries():
    obs.disable()
    obs.reset()
    metrics.disable()
    metrics.reset()
    perf.disable()
    perf.reset()
    yield
    obs.disable()
    obs.reset()
    metrics.disable()
    metrics.reset()
    perf.disable()
    perf.reset()


@pytest.fixture
def session_trace(tmp_path):
    """A real trace, ended by its snapshot record, from the live stack."""
    trace = tmp_path / "t.jsonl"
    obs.enable(jsonl=str(trace))
    perf.enable()
    metrics.enable()
    with obs.span("verify", file="net.nv"):
        with obs.span("smt.encode", nodes=4):
            perf.incr("sat.clauses", 120)
        with obs.span("smt.solve"):
            perf.incr("sat.conflicts", 40)
            obs.event("progress", phase="smt.solve", elapsed=0.5,
                      **{"sat.conflicts_per_sec": 80.0})
            obs.event("sat.restart", conflicts=32)
    metrics.set_gauge("bdd.nodes", 7)
    metrics.observe_many("sat.lbd", [2, 3, 3, 9])
    metrics.write_snapshot()
    obs.disable()
    return trace


class TestLoadTrace:
    def test_tree_and_events(self, session_trace):
        trace = session_trace
        roots, events = load_trace(trace)
        assert [r.name for r in roots] == ["verify"]
        assert isinstance(roots[0], Span)  # the live tracer's span class
        assert [c.name for c in roots[0].children] == ["smt.encode", "smt.solve"]
        assert {e["name"] for e in events} == {"progress", "sat.restart"}

    def test_tolerates_truncated_garbage_lines(self, session_trace, tmp_path):
        trace = session_trace
        mangled = tmp_path / "mangled.jsonl"
        lines = trace.read_text().splitlines()
        lines.insert(1, '{"type": "span", "id": 99, "na')  # truncated write
        lines.append("not json at all")
        mangled.write_text("\n".join(lines) + "\n")
        roots, events = load_trace(mangled)
        assert [r.name for r in roots] == ["verify"]
        assert len(events) == 2

    def test_partial_record_superseded_by_complete(self, tmp_path):
        trace = tmp_path / "p.jsonl"
        recs = [
            {"type": "span", "id": 1, "parent": 0, "name": "solve",
             "t0": 0.0, "dur": 0.4, "partial": True, "attrs": {},
             "counters": {}},
            {"type": "span", "id": 1, "parent": 0, "name": "solve",
             "t0": 0.0, "dur": 1.0, "attrs": {}, "counters": {}},
        ]
        trace.write_text("\n".join(json.dumps(r) for r in recs) + "\n")
        (root,), _ = load_trace(trace)
        assert root.dur == 1.0
        assert not root.partial

    def test_children_sorted_by_start_and_orphans_kept(self, tmp_path):
        trace = tmp_path / "o.jsonl"
        recs = [(3, 1, "late", 0.5), (2, 1, "early", 0.1), (1, 0, "run", 0.0),
                (5, 4, "orphan", 2.0)]  # a span is written at close
        trace.write_text("".join(json.dumps(
            {"type": "span", "id": i, "parent": p, "name": n, "t0": t,
             "dur": 0.1}) + "\n" for i, p, n, t in recs))
        roots, _ = load_trace(trace)
        assert [r.name for r in roots] == ["run", "orphan"]
        assert [c.name for c in roots[0].children] == ["early", "late"]

    def test_partial_only_trace_is_usable(self, tmp_path):
        trace = tmp_path / "p.jsonl"
        recs = [
            {"type": "span", "id": 1, "parent": 0, "name": "solve",
             "t0": 0.0, "dur": 0.4, "partial": True, "attrs": {},
             "counters": {}},
        ]
        trace.write_text("\n".join(json.dumps(r) for r in recs) + "\n")
        (root,), _ = load_trace(trace)
        assert root.partial


class TestRenderHtml:
    def test_self_contained_html(self, session_trace, tmp_path):
        trace = session_trace
        out = generate(trace, title="unit run")
        html = out.read_text()
        assert html.lstrip().lower().startswith("<!doctype html")
        assert html.rstrip().endswith("</html>")
        assert "unit run" in html
        # Span names, counters, gauges, histograms all make it in.
        for needle in ("smt.solve", "smt.encode", "sat.conflicts",
                       "bdd.nodes", "sat.lbd", "progress"):
            assert needle in html, needle
        # Self-contained: no external scripts, stylesheets or images.
        assert not re.findall(r'(?:src|href)\s*=\s*"(?!#)[^"]+"', html)
        assert "<script" not in html.lower()

    def test_default_output_path(self, session_trace):
        trace = session_trace
        out = generate(trace)
        assert out == trace.with_suffix(".html")
        assert out.exists()

    def test_render_without_metrics(self, session_trace):
        trace = session_trace
        roots, events = load_trace(trace)
        html = render_html(roots, events, None, title="no metrics")
        assert "no metrics" in html
        assert "</html>" in html

    def test_same_bytes_in_every_process(self, session_trace, tmp_path):
        """Span colours come from a stable hash, not the per-process salted
        ``hash(str)``: two processes render byte-identical reports."""
        trace = session_trace
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        outs = []
        for seed in ("1", "2"):
            out = tmp_path / f"seed{seed}.html"
            subprocess.run(
                [sys.executable, "-m", "repro", "report", str(trace),
                 "-o", str(out)],
                env=dict(env, PYTHONHASHSEED=seed), check=True,
                capture_output=True, timeout=120)
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_attr_escaping(self, tmp_path):
        trace = tmp_path / "x.jsonl"
        rec = {"type": "span", "id": 1, "parent": 0,
               "name": "<script>alert(1)</script>", "t0": 0.0, "dur": 0.1,
               "attrs": {"note": "a<b&c"}, "counters": {}}
        trace.write_text(json.dumps(rec) + "\n")
        roots, events = load_trace(trace)
        html = render_html(roots, events, None, title="esc")
        assert "<script>alert(1)</script>" not in html
        assert "&lt;script&gt;" in html


class TestParallelSections:
    @pytest.fixture
    def sharded_trace(self, tmp_path):
        """A trace shaped like a merged jobs=2 sharded run: dispatch span
        with per-worker unit lanes plus a ledger event."""
        trace = tmp_path / "sharded.jsonl"
        recs = [
            {"type": "span", "id": 1, "parent": 0, "name": "simulate",
             "t0": 0.0, "dur": 2.0, "attrs": {}, "counters": {}},
            {"type": "span", "id": 2, "parent": 1, "name": "sim.sharded",
             "t0": 0.1, "dur": 1.8, "attrs": {"units": 2, "jobs": 2},
             "counters": {}},
            {"type": "span", "id": 3, "parent": 2, "name": "sim.unit",
             "t0": 0.2, "dur": 1.5, "attrs": {"unit": 0, "proc": 0},
             "counters": {}},
            {"type": "span", "id": 4, "parent": 2, "name": "sim.unit",
             "t0": 0.2, "dur": 1.6, "attrs": {"unit": 1, "proc": 1},
             "counters": {}},
            {"type": "event", "id": 5, "span": 2, "name": "parallel.ledger",
             "t": 1.9, "attrs": {"label": "sim", "workers": 2, "units": 2,
                                 "units_done": 2, "utilization_pct": 86.1}},
        ]
        trace.write_text("\n".join(json.dumps(r) for r in recs) + "\n")
        return trace

    def test_worker_lane_tags_rendered(self, sharded_trace):
        roots, events = load_trace(sharded_trace)
        html = render_html(roots, events, None, title="lanes")
        assert html.count('class="lane-tag"') >= 2
        assert "worker 0" in html and "worker 1" in html

    def test_critical_path_section(self, sharded_trace):
        roots, events = load_trace(sharded_trace)
        html = render_html(roots, events, None, title="cp")
        assert "Critical path" in html
        assert "efficiency" in html.lower()

    def test_ledger_section(self, sharded_trace):
        roots, events = load_trace(sharded_trace)
        html = render_html(roots, events, None, title="led")
        assert "Parallel work ledger" in html
        assert "utilization_pct" in html

    def test_sections_degrade_without_parallel_data(self, session_trace):
        trace = session_trace
        roots, events = load_trace(trace)
        html = render_html(roots, events, None, title="plain")
        # A serial trace still renders; no lane tags appear (the CSS rule
        # is always in the stylesheet, the elements are not).
        assert 'class="lane-tag"' not in html

    def test_cli_critical_path_flag(self, sharded_trace, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "r.html"
        rc = main(["report", str(sharded_trace), "-o", str(out),
                   "--critical-path"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "critical path:" in text
        assert "total work:" in text


class TestCli:
    def test_report_subcommand(self, session_trace, tmp_path, capsys):
        from repro.cli import main

        trace = session_trace
        out = tmp_path / "run.html"
        rc = main(["report", str(trace),
                   "-o", str(out), "--title", "cli report"])
        assert rc == 0
        assert "wrote" in capsys.readouterr().out
        assert "cli report" in out.read_text()

    def test_missing_trace_errors(self, tmp_path):
        from repro.cli import main

        assert main(["report", str(tmp_path / "absent.jsonl")]) == 3
