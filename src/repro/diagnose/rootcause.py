"""Per-op root cause: why was *this* operation slow?

Attribution (:mod:`repro.diagnose.attribution`) answers the aggregate
question — where did the run's time go, by layer.  This module answers
the per-op question: given one slow operation, walk its lineage down
the stack and produce an **evidence chain**, a sequence of hops whose
durations tile the op's interval exactly, each annotated from the
provenance graph ("stalled behind 3 elevator-sweep writes", "zone 13
transfer at 24 MB/s", "retransmitted twice").

The decomposition is *deepest-cover*: every instant of the op's
interval is charged to the deepest span of the op's subtree covering
it (the op itself covers everything at depth zero, so no instant goes
unowned).  Contiguous instants with the same owner merge into one hop,
so hop durations sum to the op's measured latency up to float
round-off — the property the root-cause tests pin down.

Ops are the client vnode-boundary spans (``client.vnode``); streams
without a vnode layer (a local testbed, a bare RPC trace) fall back to
RPC call spans and then to buffer-cache I/O spans, so ``diagnose
--slowest`` works on any trace the stack can produce.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..obs.provenance import (EDGE_COALESCED_WITH, EDGE_QUEUED_BEHIND,
                              EDGE_RETRIED_AS, EDGE_SERVED_FROM_CACHE,
                              ProvEdge, ProvNote, ProvRecord, index_by_node)
from ..obs.span import Span

#: Op-candidate categories, in preference order: the first category
#: with any spans in a run defines that run's op population.
OP_CATEGORIES = ("client.vnode", "net.rpc", "kernel.buffercache")


@dataclass
class EvidenceHop:
    """One segment of an op's interval, owned by one span."""

    span_id: int
    layer: str
    name: str
    start: float
    end: float
    #: Human-readable annotations mined from provenance (may be empty).
    notes: List[str] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_jsonable(self) -> dict:
        return {"span": self.span_id, "layer": self.layer,
                "name": self.name, "start": self.start, "end": self.end,
                "duration_s": self.duration, "notes": list(self.notes)}


@dataclass
class EvidenceChain:
    """An op and the hop decomposition of its latency."""

    op_id: int
    op_name: str
    op_layer: str
    run: int
    start: float
    end: float
    hops: List[EvidenceHop] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def hop_total(self) -> float:
        return sum(hop.duration for hop in self.hops)

    def to_jsonable(self) -> dict:
        return {"op": self.op_id, "name": self.op_name,
                "layer": self.op_layer, "run": self.run,
                "start": self.start, "end": self.end,
                "duration_s": self.duration,
                "hops": [hop.to_jsonable() for hop in self.hops]}

    def render(self) -> str:
        lines = [f"op #{self.op_id} {self.op_layer}/{self.op_name} "
                 f"(run {self.run}) — {_ms(self.duration)} "
                 f"at t={self.start:.6f}s"]
        for hop in self.hops:
            line = (f"  {_ms(hop.duration):>10}  "
                    f"{hop.layer}/{hop.name} #{hop.span_id}")
            if hop.notes:
                line += "  — " + "; ".join(hop.notes)
            lines.append(line)
        return "\n".join(lines)


def _ms(seconds: float) -> str:
    return f"{seconds * 1e3:.3f} ms"


def op_spans(run: List[Span]) -> List[Span]:
    """The run's op population: first OP_CATEGORIES tier present."""
    for category in OP_CATEGORIES:
        if category == "net.rpc":
            ops = [span for span in run
                   if span.cat == category and span.name.startswith("call:")]
        else:
            ops = [span for span in run if span.cat == category]
        if ops:
            return ops
    return []


def slowest_ops(runs: Sequence[List[Span]], k: int
                ) -> List[Tuple[int, Span]]:
    """The k slowest ops across all runs, as (run_index, span) pairs.

    Sorted by descending duration; ties break toward the earlier run,
    then the smaller span id, so the ranking is deterministic.
    """
    candidates: List[Tuple[float, int, int, Span]] = []
    for run_index, run in enumerate(runs):
        for span in op_spans(run):
            candidates.append((-span.duration, run_index, span.id, span))
    candidates.sort(key=lambda item: item[:3])
    return [(run_index, span)
            for _neg, run_index, _id, span in candidates[:k]]


def find_op(runs: Sequence[List[Span]], op_id: int
            ) -> Optional[Tuple[int, Span]]:
    """Locate a span by (session-wide) id; any category is accepted."""
    for run_index, run in enumerate(runs):
        for span in run:
            if span.id == op_id:
                return run_index, span
    return None


# ----------------------------------------------------------------------
# Deepest-cover decomposition


def decompose(op: Span, depth: Dict[int, int],
              members: Sequence[Span]) -> List[EvidenceHop]:
    """Tile [op.start, op.end] by the deepest covering subtree span.

    ``depth`` and ``members`` are the op's subtree, as
    :meth:`RootCauseIndex.subtree` returns it.  Descendants are clipped
    to the op's interval (detached children may outlive it; the
    overhang is not the op's latency).  Because the op itself covers
    the whole interval, every segment has an owner and the hop
    durations sum to the op's duration exactly (the segment boundaries
    are shared floats, so the sum telescopes).
    """
    if op.end is None or op.end <= op.start:
        return []
    clipped: List[Tuple[float, float, Span]] = []
    boundaries = {op.start, op.end}
    for span in members:
        if span.end is None:
            continue
        start = max(span.start, op.start)
        end = min(span.end, op.end)
        if end > start:
            clipped.append((start, end, span))
            boundaries.add(start)
            boundaries.add(end)
    cuts = sorted(boundaries)
    hops: List[EvidenceHop] = []
    for left, right in zip(cuts, cuts[1:]):
        owner: Optional[Span] = None
        owner_rank: Tuple[int, float, int] = (-1, 0.0, 0)
        for start, end, span in clipped:
            if start <= left and end >= right:
                # Deepest wins; among equals the later-started (then
                # higher-id) span — the most specific cover.
                rank = (depth[span.id], span.start, span.id)
                if rank > owner_rank:
                    owner, owner_rank = span, rank
        if owner is None:
            continue  # unreachable: op covers everything
        if hops and hops[-1].span_id == owner.id and hops[-1].end == left:
            hops[-1].end = right
        else:
            hops.append(EvidenceHop(span_id=owner.id, layer=owner.cat,
                                    name=owner.name, start=left,
                                    end=right))
    return hops


# ----------------------------------------------------------------------
# Provenance annotation


def _annotate_note(hop: EvidenceHop, note: ProvNote) -> None:
    args = note.args
    if "behind" in args:
        writes = args.get("behind_writes", 0)
        hop.notes.append(
            f"stalled behind {args['behind']} later dispatch(es), "
            f"{writes} of them writes")
    if "zone" in args:
        if args.get("cache_hit"):
            hop.notes.append(
                f"drive cache hit (zone {args['zone']}, "
                f"{_ms(args.get('transfer_s', 0.0))} transfer)")
        elif args.get("continuation"):
            rate = args.get("media_rate", 0.0)
            hop.notes.append(
                f"sequential continuation in zone {args['zone']} "
                f"at {rate / 1e6:.1f} MB/s media rate")
        else:
            rate = args.get("media_rate", 0.0)
            parts = [f"zone {args['zone']} at {rate / 1e6:.1f} MB/s"]
            if args.get("seek_s"):
                parts.append(f"seek {_ms(args['seek_s'])}")
            if args.get("rot_s"):
                parts.append(f"rotate {_ms(args['rot_s'])}")
            if args.get("transfer_s"):
                parts.append(f"transfer {_ms(args['transfer_s'])}")
            hop.notes.append(", ".join(parts))
    if "nfsds_busy" in args:
        hop.notes.append(
            f"nfsd pool: {args['nfsds_busy']} busy, "
            f"{args.get('nfsds_queued', 0)} queued at entry")
    if "closed" in args and args["closed"] != "reply":
        hop.notes.append(
            f"attempt {args.get('attempt', '?')} closed by "
            f"{args['closed']} after {_ms(args.get('elapsed_s', 0.0))}")


def _annotate_edges(hop: EvidenceHop, edges: List[ProvEdge]) -> None:
    behind = [edge for edge in edges if edge.kind == EDGE_QUEUED_BEHIND]
    if behind:
        named = ", ".join(
            f"{'write' if edge.args.get('write') else 'read'}@lba"
            f"{edge.args.get('lba', '?')}" for edge in behind[:4])
        suffix = "…" if len(behind) > 4 else ""
        hop.notes.append(f"overtaken by {named}{suffix}")
    retried = [edge for edge in edges if edge.kind == EDGE_RETRIED_AS]
    if retried:
        hop.notes.append(f"retransmitted {len(retried)}×")
    for edge in edges:
        if edge.kind == EDGE_SERVED_FROM_CACHE:
            hop.notes.append(
                f"served from cache warmed by span #{edge.dst}")
        elif edge.kind == EDGE_COALESCED_WITH:
            hop.notes.append(
                f"coalesced with in-flight fetch span #{edge.dst}")


def _longest_hops(hops: List[EvidenceHop]) -> Dict[int, EvidenceHop]:
    """Each span's longest hop, in first-hop order."""
    longest: Dict[int, EvidenceHop] = {}
    for hop in hops:
        best = longest.get(hop.span_id)
        if best is None or hop.duration > best.duration:
            longest[hop.span_id] = hop
    return longest


def _fold_marker_evidence(members: Sequence[Span],
                          hops: List[EvidenceHop]) -> None:
    """Surface retry evidence held by zero-width xmit markers.

    Attempt markers are instants, so they never own a hop; count the
    markers parented to each RPC call span in the subtree (``members``
    after the op itself) and note the retransmissions on that call's
    hop.
    """
    markers: Dict[int, int] = {}
    for span in members[1:]:
        if span.name == "xmit" and span.args.get("attempt", 0):
            markers[span.parent_id] = markers.get(span.parent_id, 0) + 1
    if not markers:
        return
    longest = _longest_hops([hop for hop in hops
                             if hop.span_id in markers])
    for span_id, hop in longest.items():
        hop.notes.append(
            f"retransmitted {markers[span_id]}× before completing")


# ----------------------------------------------------------------------
# The index: one per diagnosis


def _children_by_parent(run: List[Span]
                        ) -> Dict[Optional[int], List[Span]]:
    """Parent span id -> the run's spans with that parent, in run order."""
    children: Dict[Optional[int], List[Span]] = {}
    for span in run:
        children.setdefault(span.parent_id, []).append(span)
    return children


class RootCauseIndex:
    """What explaining ops needs, built once and shared by every op.

    The provenance graph is indexed by node on construction; each run's
    parent -> children map is built the first time one of its ops is
    explained.  Explaining an op then visits only its own subtree and
    the index entries of its hops, so explaining k ops of N spans and P
    provenance records costs O(N + P + Σ subtree), not O(k·(N + P)).
    """

    def __init__(self, runs: Sequence[List[Span]],
                 prov_records: Sequence[ProvRecord] = ()):
        self.runs = runs
        self.prov_records = prov_records
        self._edges_by_src, self._notes_by_node = index_by_node(
            prov_records)
        self._children: Dict[int, Dict[Optional[int], List[Span]]] = {}

    def subtree(self, run_index: int, op: Span
                ) -> Tuple[Dict[int, int], List[Span]]:
        """The op's subtree: (span id -> depth, spans), op first at 0."""
        children = self._children.get(run_index)
        if children is None:
            children = _children_by_parent(self.runs[run_index])
            self._children[run_index] = children
        depth = {op.id: 0}
        members = [op]
        frontier = [op]
        while frontier:
            node = frontier.pop()
            for child in children.get(node.id, ()):
                if child.id not in depth:
                    depth[child.id] = depth[node.id] + 1
                    members.append(child)
                    frontier.append(child)
        return depth, members

    def explain(self, run_index: int, op: Span) -> EvidenceChain:
        """Build the full evidence chain for one op of run ``run_index``."""
        depth, members = self.subtree(run_index, op)
        hops = decompose(op, depth, members)
        if self.prov_records:
            # A span split into several hops is annotated once, on its
            # longest hop — the one a reader looks at to see where the
            # time went.
            for hop in _longest_hops(hops).values():
                for note in self._notes_by_node.get(hop.span_id, ()):
                    _annotate_note(hop, note)
                _annotate_edges(hop, self._edges_by_src.get(hop.span_id,
                                                            []))
            # Retried-as edges hang off the instant xmit markers
            # *inside* RPC call spans, which own no interval of their
            # own; fold marker evidence onto the hop of their parent.
            _fold_marker_evidence(members, hops)
        return EvidenceChain(op_id=op.id, op_name=op.name,
                             op_layer=op.cat, run=run_index,
                             start=op.start, end=op.end, hops=hops)


def explain_op(runs: Sequence[List[Span]], run_index: int, op: Span,
               prov_records: Sequence[ProvRecord] = ()) -> EvidenceChain:
    """Build the full evidence chain for one op."""
    return RootCauseIndex(runs, prov_records).explain(run_index, op)


def explain_slowest(runs: Sequence[List[Span]], k: int,
                    prov_records: Sequence[ProvRecord] = ()
                    ) -> List[EvidenceChain]:
    """Evidence chains for the k slowest ops, from one index."""
    index = RootCauseIndex(runs, prov_records)
    return [index.explain(run_index, op)
            for run_index, op in slowest_ops(runs, k)]


def render_chains(chains: Sequence[EvidenceChain]) -> str:
    if not chains:
        return "no ops found in trace (is it a --trace export?)"
    return "\n\n".join(chain.render() for chain in chains)
