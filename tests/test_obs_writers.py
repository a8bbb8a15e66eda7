"""The one-pass obs writers against the dict-building reference.

``dumps_trace`` and ``dumps_provenance`` write each trace event and
each JSONL record straight from its span's or record's fields.  The
reference below is the export they replaced: it builds the Trace Event
Format object (span events, then the provenance flow pairs bound to
them) and each provenance record as dicts, and lets ``json.dumps``
with sorted keys and compact separators write them.  The writers must
equal it byte for byte on any stream: names, categories and args that
need escaping, ``-0.0``, subnormal and huge floats, big ints, bools,
``None`` and nested lists.  Times come from the simulation clock and
are always finite, so the strategies draw finite floats for them.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.export import LAYER_CATEGORIES, dumps_trace
from repro.obs.provenance import (EDGE_KINDS, PROVENANCE_FORMAT,
                                  PROVENANCE_VERSION, ProvEdge, ProvNote,
                                  dumps_provenance)
from repro.obs.span import Span

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


# ---------------------------------------------------------------------------
# The reference: build dicts, let json.dumps write them


def dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def to_trace_events(spans):
    """The Trace Event Format object for a finished-span stream."""
    categories = sorted({span.cat for span in spans})
    tids = {}
    for cat in LAYER_CATEGORIES:
        if cat in categories:
            tids[cat] = len(tids) + 1
    for cat in categories:
        if cat not in tids:
            tids[cat] = len(tids) + 1
    events = []
    for span in spans:
        args = dict(span.args)
        args["span_id"] = span.id
        args["parent_id"] = span.parent_id
        args["detached"] = span.detached
        args["t0"] = span.start
        args["t1"] = span.end
        run = span.args.get("run", 0)
        events.append({
            "name": span.name,
            "cat": span.cat,
            "ph": "X",
            "ts": span.start * 1e6,
            "dur": (span.end - span.start) * 1e6,
            "pid": run + 1 if isinstance(run, int) else 1,
            "tid": tids[span.cat],
            "args": args,
        })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.obs",
            "clock": "simulated-seconds",
            "categories": categories,
        },
    }


def flow_events_between(records, trace_events):
    """One "s"/"f" pair per edge whose endpoints are both slices."""
    slices = {event["args"]["span_id"]: event for event in trace_events}
    events = []
    flow_id = 0
    for record in records:
        if not isinstance(record, ProvEdge):
            continue
        src = slices.get(record.src)
        dst = slices.get(record.dst)
        if src is None or dst is None:
            continue
        flow_id += 1
        common = {"cat": "provenance", "name": record.kind, "id": flow_id}
        events.append(dict(common, ph="s", pid=src["pid"],
                           tid=src["tid"], ts=src["ts"]))
        events.append(dict(common, ph="f", bp="e", pid=dst["pid"],
                           tid=dst["tid"], ts=dst["ts"]))
    return events


def record_jsonable(record):
    if isinstance(record, ProvEdge):
        return {"type": "edge", "kind": record.kind, "src": record.src,
                "dst": record.dst, "t": record.t, "run": record.run,
                "args": record.args}
    return {"type": "note", "node": record.node, "t": record.t,
            "run": record.run, "args": record.args}


def reference_trace(spans, records=()) -> str:
    payload = to_trace_events(spans)
    events = payload["traceEvents"]
    events.extend(flow_events_between(records, events))
    return dumps(payload)


def reference_provenance(records) -> str:
    lines = [dumps({"format": PROVENANCE_FORMAT,
                    "version": PROVENANCE_VERSION,
                    "records": len(records)})]
    lines.extend(dumps(record_jsonable(record)) for record in records)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Strategies


#: Characters JSON must escape or that ensure_ascii rewrites.
_awkward = st.sampled_from(['"', "\\", "/", "\n", "\t", "\x00", "\x1f",
                            "\x7f", " ", "é", "€", "\U0001f600",
                            "\ud800"])
texts = st.text(st.one_of(_awkward, st.characters()), max_size=8)

scalars = st.one_of(
    st.none(), st.booleans(),
    st.integers(), st.integers(-2**70, 2**70),
    st.floats(),                    # NaN and infinities: args only
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308,
                     1.7976931348623157e308, 1e16, 0.1 + 0.2]),
    texts)
values = st.recursive(scalars, lambda inner: st.lists(inner, max_size=3),
                      max_leaves=6)
arg_dicts = st.dictionaries(
    st.one_of(st.sampled_from(["run", "xid", "lba", "span_id", "t0"]),
              texts),
    st.one_of(values, st.integers(0, 3)), max_size=4)

#: Simulation-clock seconds: finite, ``-0.0`` and subnormals included.
times = st.one_of(st.floats(-1e12, 1e12, allow_nan=False,
                            allow_infinity=False),
                  st.sampled_from([0.0, -0.0, 5e-324, 1.0 / 3.0]))
ids = st.integers(1, 2**40)
categories = st.one_of(st.sampled_from(LAYER_CATEGORIES), texts)


@st.composite
def spans(draw):
    span = Span(None, draw(ids), draw(texts), draw(categories),
                draw(st.none() | ids), draw(times), draw(st.booleans()),
                draw(arg_dicts))
    span.end = draw(times)
    return span


def records(nodes=ids):
    """Edge and note streams whose nodes are drawn from ``nodes``."""
    edges = st.builds(ProvEdge, kind=st.one_of(st.sampled_from(EDGE_KINDS),
                                               texts),
                      src=nodes, dst=nodes, t=times, args=arg_dicts,
                      run=st.integers(0, 2**40))
    notes = st.builds(ProvNote, node=nodes, t=times, args=arg_dicts,
                      run=st.integers(0, 2**40))
    return st.lists(st.one_of(edges, notes), max_size=8)


@st.composite
def sessions(draw):
    """A span stream and a record stream naming its spans (and others)."""
    stream = draw(st.lists(spans(), max_size=8))
    nodes = st.one_of(st.sampled_from([span.id for span in stream]
                                      or [1]), ids)
    return stream, draw(records(nodes))


# ---------------------------------------------------------------------------
# The writers equal the reference


@settings(max_examples=100, deadline=None)
@given(sessions())
def test_trace_writer_equals_reference(session):
    stream, stream_records = session
    assert dumps_trace(stream, stream_records) == \
        reference_trace(stream, stream_records)


@settings(max_examples=100, deadline=None)
@given(records())
def test_provenance_writer_equals_reference(stream_records):
    assert dumps_provenance(stream_records) == \
        reference_provenance(stream_records)


def test_empty_streams_equal_reference():
    assert dumps_trace([]) == reference_trace([])
    assert dumps_provenance([]) == reference_provenance([])


def test_recorded_session_equals_reference():
    """A real lossy run: retransmit markers, detached children, every
    edge kind the stack records, and two runs' pids."""
    from repro.bench import run_nfs_once
    from repro.host.testbed import TestbedConfig
    from repro.obs import observe
    with observe(trace=True, provenance=True) as session:
        for seed in (3, 4):
            run_nfs_once(TestbedConfig(loss_rate=0.02, seed=seed), 2,
                         scale=0.02)
    assert session.prov_records
    assert session.trace_json() == reference_trace(session.spans,
                                                   session.prov_records)
    assert session.provenance_jsonl() == \
        reference_provenance(session.prov_records)
