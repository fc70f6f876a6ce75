"""Merged-trace invariants for sharded analysis runs (satellite of the
cross-process tracing work): the jobs=2 merge of per-worker traces must be
structurally equivalent to the serial trace — same span-tree shape by
name — with unique remapped ids, resolvable parent links, and worker
records stamped with their lane.  One run's views — the ``--trace`` text,
the ``--trace-json`` file, ``repro report``'s flame view and the ``--stats``
table — are projections of the same records."""

import html
import json
import re
from collections import Counter

import pytest

import repro
from repro import metrics, obs, perf
from repro.analysis.fault import per_prefix_fault_tolerance
from repro.cli import main
from repro.obs import load_trace
from repro.report import load_snapshot
from repro.topology import fat_program, sp_program


@pytest.fixture(autouse=True)
def clean_registries():
    for mod in (obs, metrics, perf):
        mod.disable()
        mod.reset()
    yield
    for mod in (obs, metrics, perf):
        mod.disable()
        mod.reset()


def _run_traced(tmp_path, jobs, name):
    """Run the fig 13c per-prefix fault-tolerance smoke under a trace."""
    nets = [repro.load(sp_program(4, d)) for d in (0, 1, 2)]
    trace = tmp_path / f"{name}.jsonl"
    obs.enable(jsonl=str(trace))
    per_prefix_fault_tolerance(
        nets, jobs=jobs, unit_labels=[f"prefix{d}.nv" for d in (0, 1, 2)])
    obs.disable()
    obs.reset()
    return trace


def _edge_multiset(roots):
    """(parent name, child name) edges of the span forest, as a multiset."""
    edges = Counter()

    def walk(sp):
        for c in sp.children:
            edges[(sp.name, c.name)] += 1
            walk(c)

    for r in roots:
        edges[("<root>", r.name)] += 1
        walk(r)
    return edges


class TestSpanTreeEquivalence:
    def test_serial_and_sharded_trees_match_by_name(self, tmp_path):
        serial_roots, _ = load_trace(_run_traced(tmp_path, 1, "serial"))
        fanned_roots, _ = load_trace(_run_traced(tmp_path, 2, "fanned"))
        assert _edge_multiset(serial_roots) == _edge_multiset(fanned_roots)

    def test_unit_spans_under_dispatch(self, tmp_path):
        roots, _ = load_trace(_run_traced(tmp_path, 2, "t"))
        (dispatch,) = [r for r in roots if r.name == "fault.prefix.sharded"]
        units = [c for c in dispatch.children
                 if c.name == "fault.prefix.unit"]
        assert len(units) == 3
        assert sorted(u.attrs["unit_label"] for u in units) == \
            ["prefix0.nv", "prefix1.nv", "prefix2.nv"]


class TestMergedRecordInvariants:
    def test_ids_unique_and_parents_resolve(self, tmp_path):
        trace = _run_traced(tmp_path, 2, "inv")
        recs = [json.loads(line) for line in
                trace.read_text().splitlines() if line]
        spans = [r for r in recs if r.get("type") == "span"
                 and not r.get("partial")]
        ids = [r["id"] for r in spans]
        assert len(ids) == len(set(ids))
        id_set = set(ids)
        for r in spans:
            assert r["parent"] == 0 or r["parent"] in id_set, r["name"]
        for r in recs:
            if r.get("type") == "event" and r.get("name") != "parallel.ledger":
                assert r["span"] == 0 or r["span"] in id_set

    def test_worker_records_stamped_with_proc(self, tmp_path):
        trace = _run_traced(tmp_path, 2, "proc")
        recs = [json.loads(line) for line in
                trace.read_text().splitlines() if line]
        units = [r for r in recs if r.get("name") == "fault.prefix.unit"
                 and not r.get("partial")]
        assert len(units) == 3
        assert all(isinstance(r["attrs"].get("proc"), int) for r in units)

    def test_ledger_covers_shard_plan(self, tmp_path):
        trace = _run_traced(tmp_path, 2, "ledger")
        recs = [json.loads(line) for line in
                trace.read_text().splitlines() if line]
        (led,) = [r for r in recs if r.get("name") == "parallel.ledger"]
        assert led["attrs"]["units"] == 3
        assert led["attrs"]["units_done"] == 3


def _span_names(roots):
    """The multiset of span names in a span forest."""
    names = Counter()

    def walk(sp):
        names[sp.name] += 1
        for c in sp.children:
            walk(c)

    for r in roots:
        walk(r)
    return names


class TestOneRunEveryView:
    """``verify --partition 4 --trace --trace-json T --stats`` on FAT(4):
    each view shows the same spans, and the snapshot record that ends ``T``
    holds the counters the ``--stats`` table prints."""

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_views_are_projections_of_one_trace(self, tmp_path, capsys,
                                                monkeypatch, jobs):
        net = tmp_path / "fat4.nv"
        net.write_text(fat_program(4, narrow=True))
        trace, page = tmp_path / "t.jsonl", tmp_path / "t.html"
        monkeypatch.setenv("NV_JOBS", jobs)
        assert main(["verify", str(net), "--partition", "4", "--trace",
                     "--trace-json", str(trace), "--stats"]) == 0
        out = capsys.readouterr().out
        stats, _, tree = out.partition("\ntrace (")
        stats = stats[stats.index("perf counters:"):]

        printed = Counter(
            line.lstrip("├└─│ ").split()[0]
            for line in tree.splitlines()[1:])
        assert "… " not in tree  # no child list was elided
        forest = _span_names(load_trace(trace)[0])
        assert main(["report", str(trace), "-o", str(page)]) == 0
        flame = Counter(html.unescape(name) for name in re.findall(
            r'<div class="cell[^"]*"[^>]*>(\S+) [0-9.]+m?s</div>',
            page.read_text()))
        assert printed == forest == flame
        assert forest["partition.unit"] == 4

        records = trace.read_text().splitlines()
        snapshot = json.loads(records[-1])
        assert snapshot["type"] == "snapshot" and "partial" not in snapshot
        assert load_snapshot(trace) == snapshot
        assert perf.report(snapshot["counters"]) == stats.rstrip("\n")
