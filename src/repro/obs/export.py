"""Chrome ``trace_event`` JSON export/import for span streams.

The exported object follows the Trace Event Format's "JSON Object
Format": a ``traceEvents`` array of complete ("ph": "X") events with
microsecond timestamps, loadable directly in Perfetto
(https://ui.perfetto.dev) or chrome://tracing.  Each request-path layer
gets its own track (``tid``) so a single NFS read renders as a stack of
nested slices: bench, client vnode, nfsiod, RPC, nfsd, read-ahead,
buffer cache, bufq, TCQ, disk mechanics.

Microseconds are a *display* unit: ``seconds * 1e6 / 1e6`` is not
float-exact, so every event also carries the raw simulation-clock
``t0``/``t1`` seconds (and the span/parent ids and detached flag) in
``args``.  :func:`loads_trace` reads those, which makes
export → import → export byte-stable and lets the property tests assert
a lossless round-trip.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from typing import Dict, Iterable, List

from .provenance import ProvEdge, ProvRecord, encode_compact
from .span import Span

#: The nine request-path layer categories the acceptance criteria name,
#: in stack order.  (Exports may contain a subset — a local run has no
#: client layers — or extras; this is the reference list.)
LAYER_CATEGORIES = (
    "bench",              # benchmark reader (root spans)
    "client.vnode",       # NFS client vnode/bioread layer
    "client.nfsiod",      # asynchronous client I/O daemons
    "net.rpc",            # RPC call/serve over UDP or TCP
    "server.nfsd",        # nfsd service pool
    "server.readahead",   # nfsheur sequentiality + FFS read-ahead
    "kernel.buffercache", # server buffer cache fetches
    "kernel.bufq",        # disk I/O scheduler queue residency
    "disk.tcq",           # drive tagged-command-queue residency
    "disk.mechanics",     # seek + rotation + media/interface transfer
)


def dumps_trace(spans: List[Span],
                records: Iterable[ProvRecord] = ()) -> str:
    """Serialize a span stream as deterministic trace_event JSON.

    Each event is written straight from its span's fields, in one pass:
    the bytes equal ``json.dumps`` of the Trace Event Format object with
    sorted keys and compact separators (names and categories through
    ``encode_basestring_ascii``, ``ts``/``dur`` through
    ``float.__repr__``, as ``json`` writes them).

    ``records`` are the run's provenance records; each edge whose two
    endpoints are spans of the stream becomes a flow ("s"/"f" pair)
    that Perfetto draws as an arrow between the two slices.  Flow ids
    are the 1-based ordinals of the drawn edges, unique per export.
    """
    categories = sorted({span.cat for span in spans})
    tids: Dict[str, int] = {}
    for cat in LAYER_CATEGORIES:
        if cat in categories:
            tids[cat] = len(tids) + 1
    for cat in categories:          # any category outside the known set
        if cat not in tids:
            tids[cat] = len(tids) + 1
    encode = encode_compact
    quote = encode_basestring_ascii
    parts: List[str] = []
    #: span id -> the event's ``,"pid":P,"tid":T,"ts":TS}`` tail, which
    #: a flow event bound to that slice ends with too.
    tails: Dict[int, str] = {}
    for span in spans:
        args = {**span.args, "span_id": span.id,
                "parent_id": span.parent_id, "detached": span.detached,
                "t0": span.start, "t1": span.end}
        # Sessions stamp each span with its run index; rendering each
        # run as its own Perfetto process keeps the restarted sim
        # clocks of successive runs from overlapping on one track.
        run = span.args.get("run", 0)
        pid = run + 1 if isinstance(run, int) else 1
        tail = (f',"pid":{pid},"tid":{tids[span.cat]},'
                f'"ts":{span.start * 1e6!r}}}')
        tails[span.id] = tail
        parts.append(f'{{"args":{encode(args)},"cat":{quote(span.cat)},'
                     f'"dur":{(span.end - span.start) * 1e6!r},'
                     f'"name":{quote(span.name)},"ph":"X"{tail}')
    flow_id = 0
    for record in records:
        if not isinstance(record, ProvEdge):
            continue
        src = tails.get(record.src)
        dst = tails.get(record.dst)
        if src is None or dst is None:
            continue
        flow_id += 1
        head = (f'"cat":"provenance","id":{flow_id},'
                f'"name":{quote(record.kind)},"ph":')
        parts.append(f'{{{head}"s"{src}')
        parts.append(f'{{"bp":"e",{head}"f"{dst}')
    return ('{"displayTimeUnit":"ms","otherData":{"categories":'
            f'{encode(categories)},"clock":"simulated-seconds",'
            '"generator":"repro.obs"},"traceEvents":['
            + ",".join(parts) + "]}")


def loads_trace(text: str, source: str = "trace") -> List[Span]:
    """Reconstruct the span stream from exported trace_event JSON.

    Uses the exact ``t0``/``t1`` seconds carried in ``args``, so
    ``loads_trace(dumps_trace(spans))`` reproduces every span key
    bit-for-bit.  Text that is not a trace_event export raises
    ``ValueError`` naming ``source`` (the file) and what is wrong.
    """
    try:
        payload = json.loads(text)
    except ValueError as error:
        raise ValueError(f"{source}: not JSON: {error}") from None
    events = (payload.get("traceEvents") if isinstance(payload, dict)
              else None)
    if not isinstance(events, list):
        raise ValueError(f"{source}: expected a trace_event object with "
                         f"a traceEvents array")
    spans: List[Span] = []
    index = 0
    try:
        for index, event in enumerate(events):
            if event.get("ph") != "X":
                continue
            args = event.get("args", {})
            span_id = args.pop("span_id")
            parent_id = args.pop("parent_id", None)
            detached = args.pop("detached", False)
            start = args.pop("t0")
            end = args.pop("t1")
            span = Span(None, span_id, event["name"], event["cat"],
                        parent_id, start, detached, args)
            span.end = end
            spans.append(span)
    except KeyError as error:
        raise ValueError(f"{source}: trace event {index}: no "
                         f"{error.args[0]!r} field") from None
    except (AttributeError, TypeError):
        raise ValueError(f"{source}: trace event {index}: expected an "
                         f"event object with an args object") from None
    return spans
