"""Unit tests for the structured tracer (repro.obs).

Covers the design rules the module docstring promises: no-op when disabled,
exception safety (spans close and the stack unwinds), nesting, perf-counter
deltas, JSONL sink record shapes, and thread separation.
"""

import io
import json
import threading

import pytest

from repro import obs, perf


@pytest.fixture(autouse=True)
def clean_tracer():
    """Every test starts and ends with a disabled, empty tracer."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()
    perf.disable()
    perf.reset()


def _sink_records(sink):
    """Parsed sink records minus the meta header ``enable()`` writes."""
    records = [json.loads(line) for line in
               sink.getvalue().strip().splitlines()]
    return [r for r in records if r.get("type") != "meta"]


class TestDisabled:
    def test_span_yields_none(self):
        with obs.span("x") as sp:
            assert sp is None
        assert obs.roots() == []

    def test_event_is_noop(self):
        obs.event("e", detail=1)
        assert obs.roots() == []

    def test_render_tree_empty_message(self):
        assert "no spans recorded" in obs.render_tree()


class TestSpans:
    def test_nesting_builds_tree(self):
        obs.enable()
        with obs.span("outer") as outer:
            with obs.span("inner.a"):
                pass
            with obs.span("inner.b") as b:
                assert obs.current() is b
        roots = obs.roots()
        assert [r.name for r in roots] == ["outer"]
        assert [c.name for c in roots[0].children] == ["inner.a", "inner.b"]
        assert outer.parent_id == 0
        assert b.parent_id == outer.id

    def test_exception_safety(self):
        obs.enable()
        with pytest.raises(ValueError):
            with obs.span("outer"):
                with obs.span("failing"):
                    raise ValueError("boom")
        # Both spans were closed and the stack fully unwound.
        assert obs.current() is None
        (outer,) = obs.roots()
        (failing,) = outer.children
        assert failing.attrs["error"] == "ValueError"
        assert outer.attrs["error"] == "ValueError"
        assert failing.dur >= 0.0

    def test_attrs_mutable_midflight(self):
        obs.enable()
        with obs.span("s", fixed=1) as sp:
            sp.attrs["result"] = "ok"
        (root,) = obs.roots()
        assert root.attrs == {"fixed": 1, "result": "ok"}

    def test_exclusive_time(self):
        obs.enable()
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        (root,) = obs.roots()
        assert 0.0 <= root.exclusive <= root.dur

    def test_events_counted_on_current_span(self):
        obs.enable()
        with obs.span("s") as sp:
            obs.event("tick")
            obs.event("tick")
        assert sp.n_events == 2

    def test_counter_deltas(self):
        perf.reset()
        perf.enable()
        perf.incr("layer.before", 5)
        obs.enable()
        with obs.span("s") as sp:
            perf.incr("layer.work", 3)
        # Only counters that moved inside the span appear, as deltas.
        assert sp.counters == {"layer.work": 3}

    def test_no_counters_when_perf_disabled(self):
        obs.enable()
        with obs.span("s") as sp:
            pass
        assert sp.counters == {}


class TestJsonl:
    def test_records_parse_and_reference_spans(self):
        sink = io.StringIO()
        obs.enable(jsonl=sink)
        with obs.span("outer", k=1):
            obs.event("mark", n=2)
            with obs.span("inner"):
                pass
        obs.disable()
        records = _sink_records(sink)
        assert len(records) == 3
        by_type = {}
        for r in records:
            by_type.setdefault(r["type"], []).append(r)
        (ev,) = by_type["event"]
        inner, outer = by_type["span"]  # spans written at close: child first
        assert inner["name"] == "inner"
        assert outer["name"] == "outer"
        assert inner["parent"] == outer["id"]
        assert ev["span"] == outer["id"]
        assert ev["attrs"] == {"n": 2}
        assert outer["attrs"] == {"k": 1}
        assert outer["events"] == 1
        assert outer["dur"] >= inner["dur"] >= 0.0

    def test_non_jsonable_attrs_repr(self):
        sink = io.StringIO()
        obs.enable(jsonl=sink)
        with obs.span("s", obj=frozenset({1})):
            pass
        obs.disable()
        (rec,) = _sink_records(sink)
        assert rec["attrs"]["obj"] == repr(frozenset({1}))

    def test_file_sink_owned_and_closed(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        obs.enable(jsonl=path)
        with obs.span("s"):
            pass
        obs.disable()
        records = [json.loads(line)
                   for line in path.read_text().strip().splitlines()]
        assert [r["name"] for r in records
                if r.get("type") != "meta"] == ["s"]


class TestThreads:
    def test_threads_get_separate_trees(self):
        obs.enable()
        errors = []

        def worker(tag):
            try:
                with obs.span(f"root.{tag}"):
                    with obs.span(f"child.{tag}"):
                        pass
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        with obs.span("main"):
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert not errors
        roots = {r.name for r in obs.roots()}
        # Worker spans are roots of their own threads, not children of "main".
        assert roots == {"main"} | {f"root.{i}" for i in range(4)}
        (main,) = [r for r in obs.roots() if r.name == "main"]
        assert main.children == []


class TestResetAcrossThreads:
    def test_reset_clears_other_threads_stacks(self):
        """A worker paused mid-span must not leak its stack into the next
        trace session (the stack registry clears every thread's stack)."""
        obs.enable()
        opened = threading.Event()
        release = threading.Event()
        results = {}

        def worker():
            with obs.span("worker.outer"):
                opened.set()
                release.wait(timeout=10)
                # After the main thread reset, our span stack was cleared:
                # current() sees no open span even though the context
                # manager has not exited yet.
                results["current_after_reset"] = obs.current()

        t = threading.Thread(target=worker)
        t.start()
        assert opened.wait(timeout=10)
        obs.reset()  # main thread wipes all stacks, including the worker's
        release.set()
        t.join(timeout=10)
        assert results["current_after_reset"] is None
        # The worker's span does not adopt into the fresh session's roots.
        assert obs.roots() == []

    def test_worker_can_trace_again_after_reset(self):
        obs.enable()
        done = threading.Event()

        def worker():
            with obs.span("again"):
                pass
            done.set()

        obs.reset()
        t = threading.Thread(target=worker)
        t.start()
        assert done.wait(timeout=10)
        t.join()
        assert [r.name for r in obs.roots()] == ["again"]


class TestJsonableContainers:
    def test_native_containers_survive(self):
        sink = io.StringIO()
        obs.enable(jsonl=sink)
        with obs.span("s",
                      buckets=[[1, 2], [4, 5]],
                      pair=(1, "two"),
                      table={"a": 1, "b": [True, None]}):
            pass
        obs.disable()
        (rec,) = _sink_records(sink)
        assert rec["attrs"]["buckets"] == [[1, 2], [4, 5]]
        assert rec["attrs"]["pair"] == [1, "two"]  # tuples become arrays
        assert rec["attrs"]["table"] == {"a": 1, "b": [True, None]}

    def test_non_string_dict_keys_reprd(self):
        assert obs._jsonable({(0, 1): "edge"}) == {"(0, 1)": "edge"}

    def test_depth_limit_falls_back_to_repr(self):
        deep = [[[[[[[["bottom"]]]]]]]]
        out = obs._jsonable(deep)
        assert isinstance(out, list)
        flat = json.dumps(out)
        assert "bottom" in flat  # still present, possibly as a repr string

    def test_sets_still_repr(self):
        assert obs._jsonable({1, 2} if False else frozenset({1})) == \
            repr(frozenset({1}))


class TestFlushPartial:
    def test_open_spans_written_as_partial(self):
        sink = io.StringIO()
        obs.enable(jsonl=sink)
        with obs.span("outer"):
            with obs.span("inner.open", stage=3):
                obs.flush_partial()
                partials = _sink_records(sink)
        assert {p["name"] for p in partials} == {"outer", "inner.open"}
        assert all(p["partial"] is True for p in partials)
        (inner,) = [p for p in partials if p["name"] == "inner.open"]
        assert inner["attrs"] == {"stage": 3}
        assert inner["dur"] >= 0.0
        obs.disable()
        # The spans close normally afterwards: complete records supersede.
        all_recs = _sink_records(sink)
        complete = [r for r in all_recs if not r.get("partial")]
        assert {r["name"] for r in complete} == {"outer", "inner.open"}

    def test_noop_when_disabled(self):
        obs.flush_partial()  # must not raise


class TestMemoryTracking:
    def test_span_records_peak_and_net(self):
        obs.enable()
        obs.track_memory(True)
        try:
            with obs.span("alloc") as sp:
                blob = bytearray(2_000_000)
                del blob
            assert sp.attrs["mem_peak_bytes"] >= 2_000_000
            assert isinstance(sp.attrs["mem_net_bytes"], int)
        finally:
            obs.track_memory(False)
            import tracemalloc
            if tracemalloc.is_tracing():
                tracemalloc.stop()

    def test_nested_child_peak_propagates_to_parent(self):
        obs.enable()
        obs.track_memory(True)
        try:
            with obs.span("outer") as outer:
                with obs.span("inner") as inner:
                    blob = bytearray(3_000_000)
                    del blob
            assert inner.attrs["mem_peak_bytes"] >= 3_000_000
            # The parent's high-water includes the child's burst.
            assert outer.attrs["mem_peak_bytes"] >= \
                inner.attrs["mem_peak_bytes"]
        finally:
            obs.track_memory(False)
            import tracemalloc
            if tracemalloc.is_tracing():
                tracemalloc.stop()


class TestRenderTree:
    def test_tree_contains_names_times_and_attrs(self):
        obs.enable()
        with obs.span("outer", mode="x"):
            with obs.span("inner.a"):
                pass
            with obs.span("inner.b"):
                pass
        out = obs.render_tree()
        assert "trace (1 root span):" in out
        assert "outer" in out and "inner.a" in out and "inner.b" in out
        assert "mode=x" in out
        assert "├─ " in out and "└─ " in out
        assert "self " in out  # exclusive time shown for parents

    def test_wide_spans_elided_past_cap(self):
        obs.enable()
        with obs.span("wide"):
            for i in range(60):
                with obs.span(f"child.{i:02d}"):
                    pass
        out = obs.render_tree()
        assert "child.49" in out
        assert "child.50" not in out
        assert "… 10 more children" in out

    def test_custom_cap_and_disabled_cap(self):
        obs.enable()
        with obs.span("wide"):
            for i in range(12):
                with obs.span(f"c{i}"):
                    pass
        assert "… 2 more children" in obs.render_tree(max_children=10)
        full = obs.render_tree(max_children=0)
        assert "more children" not in full
        assert "c11" in full


class TestMetaHeader:
    def test_enable_writes_epoch_header_first(self):
        sink = io.StringIO()
        before = __import__("time").time()
        obs.enable(jsonl=sink)
        with obs.span("s"):
            pass
        obs.disable()
        first = json.loads(sink.getvalue().splitlines()[0])
        assert first["type"] == "meta"
        assert first["version"] == 1
        assert before - 1 <= first["t_epoch"] <= before + 60
        assert first["t_epoch"] == round(obs.origin_epoch(), 6)

    def test_no_sink_no_header_but_epoch_tracked(self):
        obs.enable()
        assert obs.origin_epoch() > 0

    def test_ingest_without_meta_defaults_to_zero_offset(self):
        sink = io.StringIO()
        obs.enable(jsonl=sink)
        obs.ingest([{"type": "event", "id": 1, "span": 0, "name": "e",
                     "t": 0.4}])
        (rec,) = [r for r in _sink_records(sink) if r.get("name") == "e"]
        assert rec["t"] == pytest.approx(0.4, abs=1e-6)


class TestIngestStreaming:
    def test_fresh_map_per_call_would_collide_across_workers(self):
        """Each call remaps through the parent's id counter, so two workers
        (or two messages of one worker) that used the same local span id
        keep distinct ids."""
        sink = io.StringIO()
        obs.enable(jsonl=sink)
        for wid in (0, 1):
            obs.ingest([{"type": "span", "id": 1, "parent": 0, "name": "w",
                         "t0": 0.0, "dur": 0.1}], proc=wid)
        recs = [r for r in _sink_records(sink) if r.get("name") == "w"]
        assert recs[0]["id"] != recs[1]["id"]

    def test_parent_span_reroots_worker_roots(self):
        """Worker root spans (parent 0 locally) adopt the dispatch span as
        their parent; nested spans keep their remapped local parent."""
        sink = io.StringIO()
        obs.enable(jsonl=sink)
        with obs.span("dispatch") as sp:
            dispatch_id = sp.id
        obs.ingest([
            {"type": "span", "id": 1, "parent": 0, "name": "w.root",
             "t0": 0.0, "dur": 0.2},
            {"type": "span", "id": 2, "parent": 1, "name": "w.child",
             "t0": 0.0, "dur": 0.1},
            {"type": "event", "id": 3, "span": 0, "name": "w.note", "t": 0.0},
        ], parent_span=dispatch_id)
        recs = _sink_records(sink)
        (root,) = [r for r in recs if r.get("name") == "w.root"]
        (child,) = [r for r in recs if r.get("name") == "w.child"]
        (note,) = [r for r in recs if r.get("name") == "w.note"]
        assert root["parent"] == dispatch_id
        assert child["parent"] == root["id"]
        assert note["span"] == dispatch_id

    def test_completed_spans_join_the_live_tree(self):
        """``render_tree`` walks the in-memory tree, so ingest grafts each
        completed span under its (remapped) parent — children are written
        before their parent, and partial snapshots are not spans yet."""
        obs.enable(jsonl=io.StringIO())
        child = {"type": "span", "id": 2, "parent": 1, "name": "w.child",
                 "t0": 0.0, "dur": 0.1}
        with obs.span("dispatch") as sp:
            obs.ingest([child, {"type": "span", "id": 1, "parent": 0,
                                "name": "w.root", "t0": 0.0, "dur": 0.1,
                                "partial": True}], parent_span=sp.id)
            assert sp.children == []
            obs.ingest([child, {"type": "span", "id": 1, "parent": 0,
                                "name": "w.root", "t0": 0.0, "dur": 0.2}],
                       parent_span=sp.id, proc=1)
        (root,) = sp.children
        assert (root.name, root.dur, root.attrs) == ("w.root", 0.2, {"proc": 1})
        assert [c.name for c in root.children] == ["w.child"]
        rendered = obs.render_tree()
        assert rendered.index("dispatch") < rendered.index("w.root") \
            < rendered.index("w.child")
