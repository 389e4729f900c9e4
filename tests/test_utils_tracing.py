"""The tracer: span nesting, ring truncation, exports, worker merging."""

from __future__ import annotations

import json

import pytest

from repro.errors import ValidationError
from repro.utils.tracing import (
    EVENT,
    FORMAT_CHROME,
    FORMAT_JSONL,
    SPAN,
    TRACER,
    Tracer,
    current_tracer,
    read_trace,
)
from repro.utils.recorders import install_recorder, uninstall_recorder
from repro.utils.trace_summary import build_tree


# --------------------------------------------------------------------- #
# span nesting and ordering
# --------------------------------------------------------------------- #
def test_nested_spans_record_children_before_parents():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    names = [r["name"] for r in tracer.records()]
    assert names == ["inner", "outer"]


def test_span_parent_ids_follow_nesting():
    tracer = Tracer()
    with tracer.span("outer") as outer:
        with tracer.span("mid") as mid:
            with tracer.span("leaf") as leaf:
                pass
        with tracer.span("sibling") as sibling:
            pass
    by_name = {r["name"]: r for r in tracer.records()}
    assert by_name["outer"]["parent"] is None
    assert by_name["mid"]["parent"] == outer.id
    assert by_name["leaf"]["parent"] == mid.id
    assert by_name["sibling"]["parent"] == outer.id
    assert leaf.parent_id == mid.id
    assert sibling.parent_id == outer.id


def test_span_times_are_monotonic():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    inner, outer = tracer.records()
    assert inner["start"] <= inner["end"]
    assert outer["start"] <= inner["start"]
    assert inner["end"] <= outer["end"]


def test_span_attrs_at_open_and_via_set():
    tracer = Tracer()
    with tracer.span("solve", algo="gra") as span:
        span.set(generations=8, best=0.25)
    (record,) = tracer.records()
    assert record["attrs"] == {"algo": "gra", "generations": 8, "best": 0.25}


def test_event_attaches_to_enclosing_span():
    tracer = Tracer()
    with tracer.span("outer") as outer:
        tracer.event("tick", n=1)
    tracer.event("orphan")
    events = [r for r in tracer.records() if r["type"] == EVENT]
    assert events[0]["parent"] == outer.id
    assert events[0]["attrs"] == {"n": 1}
    assert events[1]["parent"] is None


def test_mispaired_exit_unwinds_stack():
    tracer = Tracer()
    outer = tracer.span("outer")
    outer.__enter__()
    inner = tracer.span("inner")
    inner.__enter__()
    # Exiting the outer span with the inner one still open must not
    # leave the stack corrupted.
    outer.__exit__(None, None, None)
    assert tracer.current_span_id is None
    with tracer.span("next") as nxt:
        assert nxt.parent_id is None


# --------------------------------------------------------------------- #
# ring buffer truncation
# --------------------------------------------------------------------- #
def test_ring_truncation_sets_dropped_marker(tmp_path):
    tracer = Tracer(capacity=5)
    for i in range(12):
        tracer.event("e", i=i)
    assert len(tracer) == 5
    assert tracer.dropped == 7
    # oldest records were discarded, newest survive
    kept = [r["attrs"]["i"] for r in tracer.records()]
    assert kept == [7, 8, 9, 10, 11]
    # the dropped count is carried into both export formats
    for fmt in (FORMAT_JSONL, FORMAT_CHROME):
        path = str(tmp_path / f"t.{fmt}")
        tracer.write(path, format=fmt)
        assert read_trace(path)["dropped"] == 7


def test_invalid_capacity_rejected():
    with pytest.raises(ValidationError):
        Tracer(capacity=0)


# --------------------------------------------------------------------- #
# export round-trips
# --------------------------------------------------------------------- #
def _sample_tracer() -> Tracer:
    tracer = Tracer()
    with tracer.span("outer", phase="demo"):
        with tracer.span("inner", step=1):
            tracer.event("tick", n=1)
    return tracer


def test_jsonl_round_trip(tmp_path):
    tracer = _sample_tracer()
    path = str(tmp_path / "trace.jsonl")
    tracer.write(path, format=FORMAT_JSONL)
    data = read_trace(path)
    assert data["records"] == tracer.records()


def test_jsonl_meta_line_first(tmp_path):
    tracer = _sample_tracer()
    path = str(tmp_path / "trace.jsonl")
    tracer.write(path)
    first = json.loads(open(path, encoding="utf-8").readline())
    assert first["type"] == "meta"
    assert first["records"] == len(tracer)


def test_chrome_round_trip_preserves_tree(tmp_path):
    tracer = _sample_tracer()
    path = str(tmp_path / "trace.json")
    tracer.write(path, format=FORMAT_CHROME)
    loaded = read_trace(path)["records"]
    original = tracer.records()
    assert [(r["type"], r["id"], r["parent"], r["name"]) for r in loaded] == [
        (r["type"], r["id"], r["parent"], r["name"]) for r in original
    ]
    for got, want in zip(loaded, original):
        assert got["attrs"] == want["attrs"]
        if got["type"] == SPAN:
            assert got["start"] == pytest.approx(want["start"], abs=1e-6)
            assert got["end"] == pytest.approx(want["end"], abs=1e-6)


def test_chrome_file_is_loadable_trace_event_json(tmp_path):
    tracer = _sample_tracer()
    path = str(tmp_path / "trace.json")
    tracer.write(path, format=FORMAT_CHROME)
    data = json.load(open(path, encoding="utf-8"))
    assert {e["ph"] for e in data["traceEvents"]} == {"X", "i"}
    for entry in data["traceEvents"]:
        assert entry["ts"] >= 0
        if entry["ph"] == "X":
            assert entry["dur"] >= 0


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(ValidationError):
        _sample_tracer().write(str(tmp_path / "t"), format="xml")


# --------------------------------------------------------------------- #
# worker snapshot merging
# --------------------------------------------------------------------- #
def _worker_snapshot(tag: str):
    worker = Tracer()
    with worker.span(f"{tag}.root"):
        with worker.span(f"{tag}.child"):
            worker.event(f"{tag}.tick")
    return worker.snapshot()


def test_merge_snapshot_reparents_roots_and_remaps_ids():
    parent = Tracer()
    with parent.span("sweep") as root:
        parent.merge_snapshot(_worker_snapshot("w"), parent_id=root.id)
    by_name = {r["name"]: r for r in parent.records()}
    assert by_name["w.root"]["parent"] == root.id
    # child/event links survive the remap even though children precede
    # their parents in the shipped buffer
    assert by_name["w.child"]["parent"] == by_name["w.root"]["id"]
    assert by_name["w.tick"]["parent"] == by_name["w.child"]["id"]
    ids = [r["id"] for r in parent.records()]
    assert len(ids) == len(set(ids))


def test_merge_snapshot_is_deterministic():
    def build():
        parent = Tracer()
        with parent.span("sweep") as root:
            for tag in ("a", "b"):
                parent.merge_snapshot(_worker_snapshot(tag), parent_id=root.id)
        return [(r["id"], r["parent"], r["name"]) for r in parent.records()]

    assert build() == build()


def test_merge_snapshot_accumulates_dropped():
    worker = Tracer(capacity=2)
    for i in range(5):
        worker.event("e", i=i)
    parent = Tracer()
    parent.merge_snapshot(worker.snapshot())
    assert parent.dropped == 3


# --------------------------------------------------------------------- #
# disabled tracer
# --------------------------------------------------------------------- #
def test_disabled_tracer_records_nothing():
    tracer = Tracer(enabled=False)
    with tracer.span("outer") as span:
        span.set(ignored=True)
        tracer.event("tick")
    assert tracer.records() == []
    assert span.id == -1


def test_current_tracer_is_disabled_singleton_when_off():
    assert TRACER.recorder is None
    tracer = current_tracer()
    assert tracer.enabled is False
    assert current_tracer() is tracer


def test_global_tracer_lifecycle():
    tracer = install_recorder(TRACER, Tracer)
    try:
        assert TRACER.recorder is tracer
        assert current_tracer() is tracer
        assert install_recorder(TRACER, Tracer) is tracer  # idempotent
    finally:
        uninstall_recorder(TRACER)
    assert TRACER.recorder is None


def test_reset_clears_everything():
    tracer = _sample_tracer()
    tracer.dropped = 4
    tracer.reset()
    assert len(tracer) == 0
    assert tracer.dropped == 0
    with tracer.span("fresh") as span:
        assert span.id == 0


# --------------------------------------------------------------------- #
# summary tree construction
# --------------------------------------------------------------------- #
def test_build_tree_nests_and_computes_self_time():
    tracer = _sample_tracer()
    summary = build_tree(tracer.records())
    assert len(summary.roots) == 1
    outer = summary.roots[0]
    assert outer.name == "outer"
    assert [c.name for c in outer.children] == ["inner"]
    assert outer.self_time <= outer.duration
    assert outer.self_time >= 0.0


def test_self_time_clamped_for_concurrent_children():
    # Merged worker spans can overlap: their summed durations may exceed
    # the parent's wall time.  Self time must clamp at zero, not go
    # negative.
    records = [
        {"type": "span", "id": 1, "parent": 0, "name": "a",
         "start": 0.0, "end": 1.0, "pid": 1, "attrs": {}},
        {"type": "span", "id": 2, "parent": 0, "name": "b",
         "start": 0.0, "end": 1.0, "pid": 2, "attrs": {}},
        {"type": "span", "id": 0, "parent": None, "name": "root",
         "start": 0.0, "end": 1.2, "pid": 0, "attrs": {}},
    ]
    summary = build_tree(records)
    (root,) = summary.roots
    assert root.self_time == 0.0


# --------------------------------------------------------------------- #
# per-kind drop accounting
# --------------------------------------------------------------------- #
def test_dropped_by_kind_tracks_evicted_record_kinds(tmp_path):
    tracer = Tracer(capacity=3)
    with tracer.span("sra.solve"):
        for i in range(4):
            tracer.event("msg.send", i=i)
    # Four events overflow a 3-slot ring once; closing the span evicts
    # one more event.  Both evictions were msg.* records.
    assert tracer.dropped == 2
    assert tracer.dropped_by_kind == {"msg": 2}
    for fmt in (FORMAT_JSONL, FORMAT_CHROME):
        path = str(tmp_path / f"t.{fmt}")
        tracer.write(path, format=fmt)
        data = read_trace(path)
        assert data["dropped"] == 2
        assert data["dropped_by_kind"] == {"msg": 2}


def test_dropped_by_kind_buckets_by_leading_name_segment():
    tracer = Tracer(capacity=1)
    tracer.event("msg.send")
    tracer.event("fault.site_crash")  # evicts the msg event
    tracer.event("tick")  # evicts the fault event
    tracer.event("final")  # evicts the un-dotted event
    assert tracer.dropped == 3
    assert tracer.dropped_by_kind == {"msg": 1, "fault": 1, "tick": 1}


def test_merge_snapshot_accumulates_dropped_by_kind():
    worker = Tracer(capacity=1)
    worker.event("msg.send")
    worker.event("msg.send")
    parent = Tracer(capacity=8)
    parent.event("gra.tick")
    parent_drops = Tracer(capacity=1)
    parent_drops.event("gra.tick")
    parent_drops.event("gra.tick")
    parent.merge_snapshot(parent_drops.snapshot())
    parent.merge_snapshot(worker.snapshot())
    assert parent.dropped == 2
    assert parent.dropped_by_kind == {"msg": 1, "gra": 1}


def test_reset_clears_dropped_by_kind():
    tracer = Tracer(capacity=1)
    tracer.event("a")
    tracer.event("b")
    assert tracer.dropped_by_kind
    tracer.reset()
    assert tracer.dropped_by_kind == {}


# --------------------------------------------------------------------- #
# chrome export: reserved attr names, envelope, flow arrows
# --------------------------------------------------------------------- #
def test_chrome_round_trip_with_reserved_attr_names(tmp_path):
    # Regression: attrs named `id`/`parent`/`name` used to clobber the
    # flat Chrome args and corrupt the reloaded tree.
    tracer = Tracer()
    with tracer.span("outer", id=99, parent="custom") as outer:
        tracer.event("tick", id=7, parent=3)
    path = str(tmp_path / "trace.json")
    tracer.write(path, format=FORMAT_CHROME)
    loaded = read_trace(path)["records"]
    by_name = {r["name"]: r for r in loaded}
    assert by_name["outer"]["attrs"] == {"id": 99, "parent": "custom"}
    assert by_name["outer"]["parent"] is None
    assert by_name["tick"]["attrs"] == {"id": 7, "parent": 3}
    assert by_name["tick"]["parent"] == outer.id


def test_read_trace_accepts_trace_events_envelope(tmp_path):
    # A Chrome trace is a JSON envelope; extra leading keys before
    # traceEvents must not confuse the format sniffer.
    envelope = {
        "displayTimeUnit": "ms",
        "otherData": {"tool": "repro"},
        "traceEvents": [
            {
                "name": "solo",
                "ph": "X",
                "ts": 0.0,
                "dur": 1000.0,
                "pid": 0,
                "tid": 0,
                "args": {"id": 0, "attrs": {"k": 1}},
            }
        ],
    }
    path = str(tmp_path / "envelope.json")
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(envelope, fp)
    data = read_trace(path)
    (record,) = data["records"]
    assert record["type"] == SPAN
    assert record["name"] == "solo"
    assert record["attrs"] == {"k": 1}


def test_chrome_export_emits_flow_arrows(tmp_path):
    tracer = Tracer()
    with tracer.span("round"):
        tracer.event(
            "msg.send", src=0, dst=1, flow="0->1#0", flow_phase="s"
        )
        tracer.event(
            "msg.recv", src=0, dst=1, flow="0->1#0", flow_phase="f"
        )
    path = str(tmp_path / "trace.json")
    tracer.write(path, format=FORMAT_CHROME)
    entries = json.load(open(path, encoding="utf-8"))["traceEvents"]
    flows = [e for e in entries if e.get("cat") == "flow"]
    assert [e["ph"] for e in flows] == ["s", "f"]
    assert flows[0]["id"] == flows[1]["id"]
    assert flows[1]["bp"] == "e"  # bind the arrow to the enclosing slice
    # flow arrows are presentation-only: the reloaded records are just
    # the span and the two point events
    names = [r["name"] for r in read_trace(path)["records"]]
    assert names == ["msg.send", "msg.recv", "round"]


def test_flow_ids_are_distinct_per_flow_key(tmp_path):
    tracer = Tracer()
    tracer.event("msg.send", flow="0->1#0", flow_phase="s")
    tracer.event("msg.send", flow="0->2#1", flow_phase="s")
    tracer.event("msg.recv", flow="0->1#0", flow_phase="f")
    path = str(tmp_path / "trace.json")
    tracer.write(path, format=FORMAT_CHROME)
    entries = json.load(open(path, encoding="utf-8"))["traceEvents"]
    flows = [e for e in entries if e.get("cat") == "flow"]
    ids = {e["ph"]: e["id"] for e in flows if e["ph"] == "s"}
    first, second, recv = flows
    assert first["id"] != second["id"]
    assert recv["id"] == first["id"]
