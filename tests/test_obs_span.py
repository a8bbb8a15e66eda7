"""Unit tests for span tracing and the trace_event export."""

import json

from repro.obs.export import LAYER_CATEGORIES, dumps_trace, loads_trace
from repro.obs.span import (NULL_SPAN, NULL_TRACER, SpanTracer,
                            check_well_formed)


class ManualClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def make_tracer():
    clock = ManualClock()
    tracer = SpanTracer()
    tracer.bind_clock(clock)
    return tracer, clock


class TestSpanTracer:
    def test_start_finish_records_in_finish_order(self):
        tracer, clock = make_tracer()
        outer = tracer.start("outer", "bench")
        clock.advance(1.0)
        inner = tracer.start("inner", "net.rpc", parent=outer)
        clock.advance(1.0)
        inner.finish()
        clock.advance(1.0)
        outer.finish()
        assert [s.name for s in tracer.spans] == ["inner", "outer"]
        assert inner.parent_id == outer.id
        assert inner.start == 1.0 and inner.end == 2.0
        assert outer.duration == 3.0

    def test_finish_is_idempotent(self):
        tracer, clock = make_tracer()
        span = tracer.start("s", "bench")
        clock.advance(1.0)
        span.finish()
        clock.advance(5.0)
        span.finish()
        assert span.end == 1.0
        assert len(tracer.spans) == 1

    def test_parent_accepts_span_id_and_none(self):
        tracer, _clock = make_tracer()
        root = tracer.start("r", "bench")
        by_span = tracer.start("a", "net.rpc", parent=root)
        by_id = tracer.start("b", "net.rpc", parent=root.id)
        no_parent = tracer.start("c", "net.rpc")
        via_null = tracer.start("d", "net.rpc", parent=NULL_SPAN)
        assert by_span.parent_id == root.id
        assert by_id.parent_id == root.id
        assert no_parent.parent_id is None
        assert via_null.parent_id is None

    def test_open_count(self):
        tracer, _clock = make_tracer()
        span = tracer.start("s", "bench")
        assert tracer.open_count == 1
        span.finish()
        assert tracer.open_count == 0

    def test_args_set_and_finish_merge(self):
        tracer, _clock = make_tracer()
        span = tracer.start("s", "bench", xid=1)
        span.set(block=2)
        span.finish(ok=True)
        assert span.args == {"xid": 1, "block": 2, "ok": True}


class TestNullTracer:
    def test_disabled_returns_shared_null_span(self):
        assert NULL_TRACER.enabled is False
        span = NULL_TRACER.start("s", "bench", xid=1)
        assert span is NULL_SPAN
        span.set(a=1)
        span.finish(b=2)
        assert NULL_TRACER.spans == []
        assert NULL_TRACER.open_count == 0


class TestCheckWellFormed:
    def _tree(self):
        tracer, clock = make_tracer()
        root = tracer.start("root", "bench")
        clock.advance(1.0)
        child = tracer.start("child", "net.rpc", parent=root)
        clock.advance(1.0)
        child.finish()
        clock.advance(1.0)
        root.finish()
        return tracer

    def test_clean_tree_passes(self):
        assert check_well_formed(self._tree().spans) == []

    def test_unfinished_span_detected(self):
        tracer, _clock = make_tracer()
        span = tracer.start("s", "bench")
        tracer.spans.append(span)  # forced into the stream unfinished
        problems = check_well_formed(tracer.spans)
        assert any("unfinished" in p for p in problems)

    def test_orphan_detected(self):
        tracer, clock = make_tracer()
        span = tracer.start("s", "bench", parent=999)
        clock.advance(1.0)
        span.finish()
        problems = check_well_formed(tracer.spans)
        assert any("orphan" in p for p in problems)

    def test_end_before_start_detected(self):
        tracer, clock = make_tracer()
        span = tracer.start("s", "bench")
        clock.advance(1.0)
        span.finish()
        span.end = -1.0
        problems = check_well_formed(tracer.spans)
        assert any("precedes" in p for p in problems)

    def test_finish_order_violation_detected(self):
        tracer, clock = make_tracer()
        a = tracer.start("a", "bench")
        clock.advance(1.0)
        a.finish()
        b = tracer.start("b", "bench")
        clock.advance(1.0)
        b.finish()
        tracer.spans.reverse()
        problems = check_well_formed(tracer.spans)
        assert any("finish order" in p for p in problems)

    def test_nondetached_child_outliving_parent_detected(self):
        tracer, clock = make_tracer()
        root = tracer.start("root", "bench")
        child = tracer.start("child", "net.rpc", parent=root)
        clock.advance(1.0)
        root.finish()
        clock.advance(1.0)
        child.finish()
        problems = check_well_formed(tracer.spans)
        assert any("non-detached" in p for p in problems)

    def test_detached_child_outliving_parent_allowed(self):
        tracer, clock = make_tracer()
        root = tracer.start("root", "bench")
        child = tracer.start("child", "client.nfsiod", parent=root,
                             detached=True)
        clock.advance(1.0)
        root.finish()
        clock.advance(1.0)
        child.finish()
        assert check_well_formed(tracer.spans) == []

    def test_child_starting_outside_parent_detected(self):
        tracer, clock = make_tracer()
        root = tracer.start("root", "bench")
        clock.advance(1.0)
        root.finish()
        clock.advance(1.0)
        late = tracer.start("late", "net.rpc", parent=root,
                            detached=True)
        late.finish()
        problems = check_well_formed(tracer.spans)
        assert any("outside parent" in p for p in problems)

    def test_duplicate_id_detected(self):
        tracer, clock = make_tracer()
        a = tracer.start("a", "bench")
        clock.advance(1.0)
        a.finish()
        b = tracer.start("b", "bench")
        b.id = a.id
        b.finish()
        problems = check_well_formed(tracer.spans)
        assert any("duplicate" in p for p in problems)


class TestTraceEventExport:
    def _spans(self):
        tracer, clock = make_tracer()
        root = tracer.start("reader:f0", "bench")
        clock.advance(0.5)
        rpc = tracer.start("call:ReadRequest", "net.rpc", parent=root,
                           xid=7)
        clock.advance(0.25)
        rpc.finish(ok=True)
        clock.advance(0.25)
        root.finish()
        return tracer.spans

    def test_structure(self):
        payload = json.loads(dumps_trace(self._spans()))
        assert payload["otherData"]["generator"] == "repro.obs"
        events = payload["traceEvents"]
        assert len(events) == 2
        for event in events:
            assert event["ph"] == "X"
            assert event["pid"] == 1
            assert event["ts"] >= 0
            assert event["dur"] >= 0
        by_name = {event["name"]: event for event in events}
        rpc = by_name["call:ReadRequest"]
        assert rpc["ts"] == 0.5e6
        assert rpc["dur"] == 0.25e6
        assert rpc["args"]["xid"] == 7
        assert rpc["args"]["parent_id"] == \
            by_name["reader:f0"]["args"]["span_id"]

    def test_tids_follow_layer_stack_order(self):
        payload = json.loads(dumps_trace(self._spans()))
        tids = {event["cat"]: event["tid"]
                for event in payload["traceEvents"]}
        # bench precedes net.rpc in LAYER_CATEGORIES, so its track
        # number is smaller — Perfetto renders the stack top-down.
        assert tids["bench"] < tids["net.rpc"]
        assert LAYER_CATEGORIES.index("bench") < \
            LAYER_CATEGORIES.index("net.rpc")

    def test_round_trip_is_lossless(self):
        spans = self._spans()
        back = loads_trace(dumps_trace(spans))
        assert [s.key() for s in back] == [s.key() for s in spans]

    def test_dumps_is_deterministic_and_valid_json(self):
        spans = self._spans()
        text = dumps_trace(spans)
        assert text == dumps_trace(spans)
        payload = json.loads(text)
        assert "traceEvents" in payload

    def test_export_import_export_is_byte_stable(self):
        text = dumps_trace(self._spans())
        assert dumps_trace(loads_trace(text)) == text
