"""Causal provenance: typed lineage edges between spans.

The span tracer records *where time went*; this module records *why*.
A :class:`ProvenanceGraph` collects typed, timestamped edges between
span ids — the same ids already threaded through the stack by value as
``trace_ctx`` on :class:`~repro.net.rpc.RpcMessage` and
:class:`~repro.disk.request.DiskRequest` — so every completed op
carries its full lineage from the client vnode call through the RPC
xid, the server nfsd slot, the buffer cache, the bufq, the drive's
tagged command queue, and the disk mechanics.

The hand-off down the stack (vnode op → RPC call → nfsd serve →
buffer-cache fetch → bufq residency → TCQ residency) is the span tree
itself: each layer's span names its issuer as its parent, so the graph
records no edge for it.  Edge vocabulary (the complete, closed set):

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
flow events that overlay arrows on the Chrome trace-event export of
the same run (:func:`repro.obs.export.dumps_trace` with the records).
"""

from __future__ import annotations

import json
from collections import deque
from json.encoder import encode_basestring_ascii
from typing import (Any, Callable, Deque, Dict, Iterable, List, Optional,
                    Tuple, Union)

from .span import Span, _NullSpan

#: Format tag + version for the JSONL export header line.
PROVENANCE_FORMAT = "repro-provenance"
PROVENANCE_VERSION = 2
#: Versions :func:`loads_provenance` reads.  Version 1 has the same
#: line format and also recorded ``issued`` edges, each joining a span
#: to its own parent: they load as edges of that kind, and nothing
#: reads them.
READABLE_VERSIONS = (1, 2)

EDGE_QUEUED_BEHIND = "queued-behind"
EDGE_COALESCED_WITH = "coalesced-with"
EDGE_RETRIED_AS = "retried-as"
EDGE_SERVED_FROM_CACHE = "served-from-cache"
EDGE_DISPATCHED_AFTER = "dispatched-after"

#: The closed edge vocabulary, in stack-walk order.
EDGE_KINDS = (
    EDGE_RETRIED_AS,
    EDGE_COALESCED_WITH,
    EDGE_SERVED_FROM_CACHE,
    EDGE_QUEUED_BEHIND,
    EDGE_DISPATCHED_AFTER,
)

#: The encoder every obs writer shares: ``json.dumps(...,
#: sort_keys=True, separators=(",", ":"))`` without building an encoder
#: per call.
encode_compact = json.JSONEncoder(sort_keys=True,
                                  separators=(",", ":")).encode

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
    call it only on provenance runs.  :meth:`arrive` snapshots how many
    requests (and writes) had already left; :meth:`depart` chains the
    request to the previous departure (``dispatched-after``), names the
    most recent requests that left while it waited (``queued-behind``,
    a bounded ring), and notes the exact overtake counts.
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

    def arrive(self, request) -> None:
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

def dumps_provenance(records: List[ProvRecord]) -> str:
    """Serialize a record stream as deterministic JSONL.

    Line 1 is a self-describing header; each following line is one
    edge or note, in record order, written straight from the record's
    fields in one pass.  The bytes equal ``json.dumps`` of the record's
    object with sorted keys and compact separators, whose
    ``repr``-shortest floats make ``dumps(loads(dumps(records)))``
    byte-identical to ``dumps(records)``.
    """
    encode = encode_compact
    quote = encode_basestring_ascii
    lines = [encode({"format": PROVENANCE_FORMAT,
                     "version": PROVENANCE_VERSION,
                     "records": len(records)})]
    for record in records:
        if isinstance(record, ProvEdge):
            lines.append(f'{{"args":{encode(record.args)},'
                         f'"dst":{record.dst},"kind":{quote(record.kind)},'
                         f'"run":{record.run},"src":{record.src},'
                         f'"t":{record.t!r},"type":"edge"}}')
        else:
            lines.append(f'{{"args":{encode(record.args)},'
                         f'"node":{record.node},"run":{record.run},'
                         f'"t":{record.t!r},"type":"note"}}')
    return "\n".join(lines) + "\n"


def loads_provenance(text: str,
                     source: str = "provenance") -> List[ProvRecord]:
    """Reconstruct the record stream from :func:`dumps_provenance`.

    Text that is not provenance JSONL raises ``ValueError`` naming
    ``source`` (the file), the line and what is wrong.
    """
    lines = [line for line in text.splitlines() if line]
    if not lines:
        return []

    def bad(index: int, what: str) -> ValueError:
        """The error for ``lines[index]``, by its line in ``text``."""
        numbers = [number for number, line
                   in enumerate(text.splitlines(), 1) if line]
        return ValueError(f"{source}:{numbers[index]}: {what}")

    try:
        header = json.loads(lines[0])
    except ValueError as error:
        raise bad(0, f"not JSON: {error}") from None
    if not isinstance(header, dict) \
            or header.get("format") != PROVENANCE_FORMAT:
        raise bad(0, "not a repro-provenance JSONL header")
    if header.get("version") not in READABLE_VERSIONS:
        raise bad(0, f"unsupported provenance version "
                     f"{header.get('version')!r}")
    # One parse for every record line: they are objects, so joined by
    # commas they form one array with exactly one element per line.
    try:
        payloads = json.loads("[" + ",".join(lines[1:]) + "]")
    except ValueError:
        payloads = None
    if payloads is None or len(payloads) != len(lines) - 1:
        for index in range(1, len(lines)):
            try:
                json.loads(lines[index])
            except ValueError as error:
                raise bad(index, f"not JSON: {error}") from None
        raise bad(1, "provenance records must be one JSON object "
                     "per line")
    records: List[ProvRecord] = []
    index = 0
    try:
        for index, payload in enumerate(payloads, 1):
            kind = payload["type"]
            if kind == "edge":
                records.append(ProvEdge(payload["kind"], payload["src"],
                                        payload["dst"], payload["t"],
                                        payload.get("args", {}),
                                        payload.get("run", 0)))
            elif kind == "note":
                records.append(ProvNote(payload["node"], payload["t"],
                                        payload.get("args", {}),
                                        payload.get("run", 0)))
            else:
                raise bad(index, f"unknown provenance record type "
                                 f"{kind!r}")
    except KeyError as error:
        raise bad(index, f"record has no {error.args[0]!r} "
                         f"field") from None
    except (AttributeError, TypeError):
        raise bad(index, "expected an object per line") from None
    return records


# --------------------------------------------------------------------
# Graphviz export

def to_dot(records: List[ProvRecord],
           spans: Optional[List[Span]] = None) -> str:
    """Render the graph as a Graphviz digraph.

    When the matching span stream is supplied, nodes are labelled
    ``layer/name`` instead of bare ids, and the spans' parent links are
    drawn as the hand-off skeleton (solid, unlabelled).  Notes become
    part of their node's label; the dispatch order is solid too, and
    the contention and cache edges are dashed.
    """
    labels: Dict[int, str] = {}
    for span in spans or ():
        labels[span.id] = f"{span.cat}/{span.name}"
    spine = [(span.parent_id, span.id) for span in spans or ()
             if span.parent_id in labels]
    #: Every node, in first-mention order (a dict as an ordered set).
    mentioned: Dict[int, None] = {}
    note_bits: Dict[int, List[str]] = {}
    for parent, child in spine:
        mentioned[parent] = mentioned[child] = None
    for record in records:
        if isinstance(record, ProvEdge):
            mentioned[record.src] = mentioned[record.dst] = None
            continue
        mentioned[record.node] = None
        if record.args:
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
    lines.extend(f"  n{parent} -> n{child} [style=solid];"
                 for parent, child in spine)
    for record in records:
        if not isinstance(record, ProvEdge):
            continue
        style = ("solid" if record.kind == EDGE_DISPATCHED_AFTER
                 else "dashed")
        lines.append(f'  n{record.src} -> n{record.dst} '
                     f'[label="{record.kind}", style={style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


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
