"""Causal provenance: typed lineage edges between spans.

The span tracer records *where time went*; this module records *why*.
A :class:`ProvenanceGraph` collects typed, timestamped edges between
span ids — the same ids already threaded through the stack by value as
``trace_ctx`` on :class:`~repro.net.rpc.RpcMessage` and
:class:`~repro.disk.request.DiskRequest` — so every completed op
carries its full lineage from the client vnode call through the RPC
xid, the server nfsd slot, the buffer cache, the bufq, the drive's
tagged command queue, and the disk mechanics.

Edge vocabulary (the complete, closed set):

``issued``
    The causal hand-off down the stack: vnode op → RPC call → nfsd
    serve → buffer-cache fetch → bufq residency → TCQ residency.
``retried-as``
    An RPC transmission superseded by its own retransmission (soft or
    hard mount watchdog).
``coalesced-with``
    A reader piggybacking on an I/O already in flight (client block
    cache or server buffer cache) instead of issuing its own.
``served-from-cache``
    A hit whose bytes were put there by an earlier, *named* fetch: the
    edge points at the span that warmed the block.
``queued-behind``
    A queue residency that ended only after the named other requests
    were dispatched first (kernel bufq elevator, drive TCQ firmware).
``dispatched-after``
    The per-queue total dispatch order, as a linear chain — the
    skeleton the queued-behind edges hang off.

Besides edges, the graph records **notes**: free-form annotations on a
single span-id node (the ZCAV zone/seek/rotation/transfer breakdown of
a disk transfer, nfsd pool occupancy, RPC attempt windows).  Notes are
what lets ``diagnose --op`` say "28 ms of that is outer-zone transfer"
instead of "the disk was slow".

The graph obeys the two instrumentation rules (see :mod:`repro.obs`):
recording an edge reads the sim clock and appends to a list — no
events, no randomness, no blocking — and the disabled graph is the
shared :data:`NULL_PROVENANCE` null object, so an enabled run is
bit-identical to a disabled one.

Exports: JSONL (:func:`dumps_provenance` / :func:`loads_provenance`,
byte-identical round trip), Graphviz (:func:`to_dot`), and Perfetto
flow events (:func:`flow_events`) that overlay arrows on the Chrome
trace-event export of the same run.
"""

from __future__ import annotations

import json
from collections import deque
from typing import (Any, Callable, Deque, Dict, Iterable, List, Optional,
                    Tuple, Union)

from .span import Span, _NullSpan

#: Format tag + version for the JSONL export header line.
PROVENANCE_FORMAT = "repro-provenance"
PROVENANCE_VERSION = 1

EDGE_ISSUED = "issued"
EDGE_QUEUED_BEHIND = "queued-behind"
EDGE_COALESCED_WITH = "coalesced-with"
EDGE_RETRIED_AS = "retried-as"
EDGE_SERVED_FROM_CACHE = "served-from-cache"
EDGE_DISPATCHED_AFTER = "dispatched-after"

#: The closed edge vocabulary, in stack-walk order.
EDGE_KINDS = (
    EDGE_ISSUED,
    EDGE_RETRIED_AS,
    EDGE_COALESCED_WITH,
    EDGE_SERVED_FROM_CACHE,
    EDGE_QUEUED_BEHIND,
    EDGE_DISPATCHED_AFTER,
)

#: How many queued-behind edges a single queue residency may emit; the
#: true count is always carried as the ``behind`` note/arg, the edges
#: name only the most recent culprits (bounded memory per request).
QUEUED_BEHIND_FANOUT = 8

NodeLike = Union[Span, _NullSpan, int, None]


def _node_id(node: NodeLike) -> Optional[int]:
    if node is None or isinstance(node, int):
        return node
    return node.id


class ProvEdge:
    """One typed causal edge between two span-id nodes."""

    __slots__ = ("kind", "src", "dst", "t", "run", "args")

    def __init__(self, kind: str, src: int, dst: int, t: float,
                 args: Dict[str, Any], run: int = 0):
        self.kind = kind
        self.src = src
        self.dst = dst
        self.t = t
        self.run = run
        self.args = args

    def key(self) -> tuple:
        return ("edge", self.kind, self.src, self.dst, self.t, self.run,
                tuple(sorted(self.args.items())))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProvEdge(#{self.src} -{self.kind}-> #{self.dst} @{self.t})"


class ProvNote:
    """A free-form annotation on one span-id node."""

    __slots__ = ("node", "t", "run", "args")

    def __init__(self, node: int, t: float, args: Dict[str, Any],
                 run: int = 0):
        self.node = node
        self.t = t
        self.run = run
        self.args = args

    def key(self) -> tuple:
        return ("note", self.node, self.t, self.run,
                tuple(sorted(self.args.items())))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProvNote(#{self.node} {self.args} @{self.t})"


ProvRecord = Union[ProvEdge, ProvNote]


class ProvenanceGraph:
    """Collects causal edges and notes, stamped with the sim clock.

    Like the tracer, the graph starts with a zero clock and is bound to
    a simulator by :meth:`bind_clock` (the dependency points from
    :mod:`repro.sim` to us, never back).
    """

    enabled = True

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self._clock: Callable[[], float] = clock or (lambda: 0.0)
        #: Edges and notes interleaved, in record order (deterministic
        #: for a deterministic simulation).
        self.records: List[ProvRecord] = []

    def bind_clock(self, clock: Callable[[], float]) -> None:
        self._clock = clock

    def edge(self, kind: str, src: NodeLike, dst: NodeLike,
             **args: Any) -> None:
        """Record ``src --kind--> dst`` at the current sim time.

        Either endpoint may be a :class:`Span` or a raw span id; a
        ``None`` endpoint (untraced caller, null span) drops the edge —
        lineage through an anonymous node is not lineage.
        """
        src_id = _node_id(src)
        dst_id = _node_id(dst)
        if src_id is None or dst_id is None:
            return
        self.records.append(
            ProvEdge(kind, src_id, dst_id, self._clock(), args))

    def note(self, node: NodeLike, **args: Any) -> None:
        """Annotate ``node`` at the current sim time."""
        node_id = _node_id(node)
        if node_id is None:
            return
        self.records.append(ProvNote(node_id, self._clock(), args))

    @property
    def edges(self) -> List[ProvEdge]:
        return [r for r in self.records if isinstance(r, ProvEdge)]

    @property
    def notes(self) -> List[ProvNote]:
        return [r for r in self.records if isinstance(r, ProvNote)]


class NullProvenanceGraph:
    """The disabled graph: free to call, records nothing."""

    enabled = False
    records: List[ProvRecord] = []
    edges: List[ProvEdge] = []
    notes: List[ProvNote] = []

    def bind_clock(self, clock: Callable[[], float]) -> None:
        pass

    def edge(self, kind: str, src: NodeLike, dst: NodeLike,
             **args: Any) -> None:
        pass

    def note(self, node: NodeLike, **args: Any) -> None:
        pass


#: Shared disabled graph: safe to hand to any number of simulators.
NULL_PROVENANCE = NullProvenanceGraph()


class OvertakeLog:
    """Who left a request queue ahead of whom, as provenance.

    The kernel bufq and the drive's tagged queue each hold one, and
    call it only on provenance runs.  :meth:`arrive` links the request
    to its issuer and snapshots how many requests (and writes) had
    already left; :meth:`depart` chains the request to the previous
    departure (``dispatched-after``), names the most recent requests
    that left while it waited (``queued-behind``, a bounded ring), and
    notes the exact overtake counts.
    """

    __slots__ = ("_prov", "_arrivals", "_recent", "_departed",
                 "_writes_departed", "_last")

    def __init__(self, prov: ProvenanceGraph):
        self._prov = prov
        #: request id -> (departures, write departures) at arrival.
        self._arrivals: Dict[int, Tuple[int, int]] = {}
        self._recent: Deque[tuple] = deque(maxlen=QUEUED_BEHIND_FANOUT)
        self._departed = 0
        self._writes_departed = 0
        self._last: Optional[int] = None

    def arrive(self, request, span: Span) -> None:
        if request.trace_ctx is not None:
            self._prov.edge(EDGE_ISSUED, request.trace_ctx, span)
        self._arrivals[request.id] = (self._departed,
                                      self._writes_departed)

    def depart(self, request, span: Span) -> None:
        prov = self._prov
        arrival = self._arrivals.pop(request.id, None)
        if self._last is not None:
            prov.edge(EDGE_DISPATCHED_AFTER, span, self._last)
        if arrival is not None:
            behind = self._departed - arrival[0]
            if behind:
                for index, span_id, is_write, lba in self._recent:
                    if index >= arrival[0]:
                        prov.edge(EDGE_QUEUED_BEHIND, span, span_id,
                                  write=is_write, lba=lba)
                prov.note(span, behind=behind,
                          behind_writes=(self._writes_departed
                                         - arrival[1]))
        self._recent.append((self._departed, span.id,
                             request.is_write, request.lba))
        self._last = span.id
        self._departed += 1
        if request.is_write:
            self._writes_departed += 1


# --------------------------------------------------------------------
# JSONL export / import (byte-identical round trip)

def _record_jsonable(record: ProvRecord) -> dict:
    if isinstance(record, ProvEdge):
        return {"type": "edge", "kind": record.kind, "src": record.src,
                "dst": record.dst, "t": record.t, "run": record.run,
                "args": record.args}
    return {"type": "note", "node": record.node, "t": record.t,
            "run": record.run, "args": record.args}


def dumps_provenance(records: List[ProvRecord]) -> str:
    """Serialize a record stream as deterministic JSONL.

    Line 1 is a self-describing header; each following line is one
    edge or note, in record order.  ``json.dumps`` with sorted keys and
    ``repr``-shortest floats makes
    ``dumps(loads(dumps(records)))`` byte-identical to
    ``dumps(records)``.
    """
    encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    lines = [encode({"format": PROVENANCE_FORMAT,
                     "version": PROVENANCE_VERSION,
                     "records": len(records)})]
    lines.extend(encode(_record_jsonable(record)) for record in records)
    return "\n".join(lines) + "\n"


def loads_provenance(text: str) -> List[ProvRecord]:
    """Reconstruct the record stream from :func:`dumps_provenance`."""
    lines = [line for line in text.splitlines() if line]
    if not lines:
        return []
    header = json.loads(lines[0])
    if header.get("format") != PROVENANCE_FORMAT:
        raise ValueError("not a repro-provenance JSONL file")
    if header.get("version") != PROVENANCE_VERSION:
        raise ValueError(f"unsupported provenance version "
                         f"{header.get('version')!r}")
    # One parse for every record line: they are objects, so joined by
    # commas they form one array with exactly one element per line.
    payloads = json.loads("[" + ",".join(lines[1:]) + "]")
    if len(payloads) != len(lines) - 1:
        raise ValueError("provenance records must be one JSON object "
                         "per line")
    records: List[ProvRecord] = []
    for payload in payloads:
        if payload["type"] == "edge":
            records.append(ProvEdge(payload["kind"], payload["src"],
                                    payload["dst"], payload["t"],
                                    payload.get("args", {}),
                                    payload.get("run", 0)))
        elif payload["type"] == "note":
            records.append(ProvNote(payload["node"], payload["t"],
                                    payload.get("args", {}),
                                    payload.get("run", 0)))
        else:
            raise ValueError(f"unknown provenance record type "
                             f"{payload['type']!r}")
    return records


# --------------------------------------------------------------------
# Graphviz export

def to_dot(records: List[ProvRecord],
           spans: Optional[List[Span]] = None) -> str:
    """Render the graph as a Graphviz digraph.

    When the matching span stream is supplied, nodes are labelled
    ``layer/name`` instead of bare ids.  Notes become part of their
    node's label; edge styles distinguish the hand-off skeleton
    (``issued``, solid) from the contention and cache edges (dashed).
    """
    labels: Dict[int, str] = {}
    if spans:
        for span in spans:
            labels[span.id] = f"{span.cat}/{span.name}"
    mentioned: List[int] = []
    seen = set()
    note_bits: Dict[int, List[str]] = {}
    for record in records:
        nodes = ((record.src, record.dst)
                 if isinstance(record, ProvEdge) else (record.node,))
        for node in nodes:
            if node not in seen:
                seen.add(node)
                mentioned.append(node)
        if isinstance(record, ProvNote) and record.args:
            bits = note_bits.setdefault(record.node, [])
            bits.extend(f"{k}={record.args[k]}"
                        for k in sorted(record.args))
    lines = ["digraph provenance {", "  rankdir=LR;",
             '  node [shape=box, fontsize=10];']
    for node in mentioned:
        label = labels.get(node, f"span {node}")
        extra = note_bits.get(node)
        if extra:
            label += "\\n" + "\\n".join(extra)
        lines.append(f'  n{node} [label="#{node} {label}"];')
    solid = {EDGE_ISSUED, EDGE_DISPATCHED_AFTER}
    for record in records:
        if not isinstance(record, ProvEdge):
            continue
        style = "solid" if record.kind in solid else "dashed"
        lines.append(f'  n{record.src} -> n{record.dst} '
                     f'[label="{record.kind}", style={style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------
# Perfetto flow-event export

def flow_events(records: List[ProvRecord],
                spans: List[Span]) -> List[dict]:
    """Chrome trace_event flow events ("s"/"f" pairs) for the edges.

    Appended to the ``traceEvents`` of the same run's span export,
    these render as arrows between slices in Perfetto.  Flow ids are
    the 1-based edge ordinal — unique per export by construction (the
    property tests assert it).  Edges whose endpoints are not in the
    span stream are skipped: an arrow needs two slices to bind to.
    """
    from .export import to_trace_events  # avoid cycle at import time
    return flow_events_between(records,
                               to_trace_events(spans)["traceEvents"])


def flow_events_between(records: List[ProvRecord],
                        trace_events: List[dict]) -> List[dict]:
    """The flow events of :func:`flow_events`, bound to ``trace_events``.

    ``trace_events`` is the ``traceEvents`` list of a span export the
    caller already holds (:func:`~repro.obs.export.to_trace_events`),
    so the spans are not exported a second time to find the slices.
    """
    slices: Dict[int, dict] = {}
    for event in trace_events:
        slices[event["args"]["span_id"]] = event
    events: List[dict] = []
    flow_id = 0
    for record in records:
        if not isinstance(record, ProvEdge):
            continue
        src = slices.get(record.src)
        dst = slices.get(record.dst)
        if src is None or dst is None:
            continue
        flow_id += 1
        common = {"cat": "provenance", "name": record.kind,
                  "id": flow_id}
        events.append(dict(common, ph="s", pid=src["pid"],
                           tid=src["tid"], ts=src["ts"]))
        events.append(dict(common, ph="f", bp="e", pid=dst["pid"],
                           tid=dst["tid"], ts=dst["ts"]))
    return events


# --------------------------------------------------------------------
# Query helpers (used by the diagnose root-cause engine)

def index_by_node(records: Iterable[ProvRecord]
                  ) -> Tuple[Dict[int, List[ProvEdge]],
                             Dict[int, List[ProvNote]]]:
    """(edges by src node, notes by node) — one pass, record order kept."""
    edges: Dict[int, List[ProvEdge]] = {}
    notes: Dict[int, List[ProvNote]] = {}
    for record in records:
        if isinstance(record, ProvEdge):
            edges.setdefault(record.src, []).append(record)
        else:
            notes.setdefault(record.node, []).append(record)
    return edges, notes
