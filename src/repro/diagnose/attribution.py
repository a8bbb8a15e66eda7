"""Critical-path attribution: where did the end-to-end time go?

Walks the span tree of each run and charges every layer its
*exclusive* wall time — the part of its spans' durations not covered
by child spans.  A client read that spends 1 ms in the vnode layer, of
which 0.9 ms is an RPC that spends 0.6 ms queued in the server bufq,
charges 0.1 ms to ``client.vnode``, 0.3 ms to ``net.rpc``, 0.6 ms to
``kernel.bufq``.  Along one chain of nested spans the charges add up
to the root's duration, but the table does not partition end-to-end
time: a parent subtracts only the union of its direct children, while
each of several concurrent children is charged its whole interval (and
a detached child the part that outlives its parent), so overlapping
time counts once per child.  On one ``fig1`` run at scale 1/32 the
layers sum to 190.47 s against 71.72 s of root-span time.  A layer's
``share`` is its fraction of the table's own total.

Queue-wait vs service split: the two pure queue-residency layers
(``kernel.bufq``, ``disk.tcq``) are charged entirely to queue wait.
For layers whose wait is recorded as a metrics histogram rather than a
nested span (the nfsd and nfsiod pools), the split is refined from the
merged metrics when they are supplied alongside the trace.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..obs.export import LAYER_CATEGORIES
from ..obs.span import Span
from .report import LayerAttribution

#: Layers whose spans measure pure queue residency: every exclusive
#: second there is a second spent waiting, not being serviced.
QUEUE_CATEGORIES = frozenset({"kernel.bufq", "disk.tcq"})

#: Layers whose queue wait lives in a metrics histogram (the span
#: covers wait + service together).  Used only when metrics are given.
WAIT_HISTOGRAMS: Dict[str, str] = {
    "server.nfsd": "nfs.server.nfsd_wait_s",
    "client.nfsiod": "nfs.client.nfsiod_wait_s",
}

#: The benchmark driver's own layer: reported, but never elected the
#: "dominant bottleneck" (its exclusive time is client think time).
DRIVER_LAYER = "bench"


def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Total length of the union of (start, end) intervals."""
    if not intervals:
        return 0.0
    intervals.sort()
    total = 0.0
    current_start, current_end = intervals[0]
    for start, end in intervals[1:]:
        if start > current_end:
            total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    return total + (current_end - current_start)


def exclusive_times(spans: List[Span]) -> Dict[int, float]:
    """Per-span exclusive time: duration minus child-covered time.

    Children are clipped to the parent's interval (detached children
    may outlive it; the overhang belongs to the child's own layer).
    """
    children: Dict[Optional[int], List[Span]] = {}
    for span in spans:
        children.setdefault(span.parent_id, []).append(span)
    exclusive: Dict[int, float] = {}
    for span in spans:
        intervals = []
        for child in children.get(span.id, ()):
            start = max(child.start, span.start)
            end = min(child.end, span.end)
            if end > start:
                intervals.append((start, end))
        exclusive[span.id] = max(0.0, span.duration - _covered(intervals))
    return exclusive


def _layer_order(categories: Iterable[str]) -> List[str]:
    """Stack order for known layers, then lexical for any extras."""
    present = set(categories)
    ordered = [cat for cat in LAYER_CATEGORIES if cat in present]
    ordered += sorted(present - set(LAYER_CATEGORIES))
    return ordered


def attribute_runs(runs: List[List[Span]],
                   merged_metrics: Optional[dict] = None
                   ) -> Tuple[List[LayerAttribution], float, Optional[str]]:
    """Build the per-layer attribution table for a set of runs.

    Returns ``(table, end_to_end_s, dominant_layer)``.  ``end_to_end_s``
    is the summed duration of the root spans (one per benchmark
    reader).  The table's ``wall_s`` column is each layer's summed
    exclusive time, which counts time under concurrent children once
    per child and so can exceed ``end_to_end_s``; ``share`` divides it
    by the column's total.
    """
    wall: Dict[str, float] = {}
    count: Dict[str, int] = {}
    end_to_end = 0.0
    for run in runs:
        exclusive = exclusive_times(run)
        for span in run:
            wall[span.cat] = wall.get(span.cat, 0.0) + exclusive[span.id]
            count[span.cat] = count.get(span.cat, 0) + 1
            if span.parent_id is None:
                end_to_end += span.duration
    total = sum(wall.values())
    histograms = (merged_metrics or {}).get("histograms", {})
    table: List[LayerAttribution] = []
    for layer in _layer_order(wall):
        layer_wall = wall[layer]
        if layer in QUEUE_CATEGORIES:
            queue_wait = layer_wall
        else:
            hist = histograms.get(WAIT_HISTOGRAMS.get(layer, ""), None)
            queue_wait = min(layer_wall, hist["sum"]) if hist else 0.0
        table.append(LayerAttribution(
            layer=layer,
            wall_s=layer_wall,
            queue_wait_s=queue_wait,
            service_s=layer_wall - queue_wait,
            share=(layer_wall / total) if total > 0 else 0.0,
            spans=count[layer]))
    dominant = dominant_layer(table)
    return table, end_to_end, dominant


def dominant_layer(table: List[LayerAttribution]) -> Optional[str]:
    """The non-driver layer with the most exclusive wall time.

    Ties break toward the deeper layer (later in stack order), which
    the table already encodes.
    """
    best: Optional[LayerAttribution] = None
    for layer in table:
        if layer.layer == DRIVER_LAYER:
            continue
        if best is None or layer.wall_s >= best.wall_s:
            best = layer
    return best.layer if best else None


def dominant_by_config(runs: List[List[Span]],
                       snapshots: List[dict]) -> Dict[str, str]:
    """Dominant bottleneck per sweep configuration.

    Needs the per-run metric snapshots to line up 1:1 with the span
    runs (both are recorded per run, in run order) and to carry the
    ``_context`` stamp the sweep helpers apply; otherwise returns {}.
    """
    if len(runs) != len(snapshots):
        return {}
    grouped: Dict[str, List[List[Span]]] = {}
    for run, snapshot in zip(runs, snapshots):
        context = snapshot.get("_context")
        if not isinstance(context, dict) or "series" not in context:
            return {}
        grouped.setdefault(str(context["series"]), []).append(run)
    result: Dict[str, str] = {}
    for series, series_runs in grouped.items():
        table, _end_to_end, dominant = attribute_runs(series_runs)
        if dominant is not None:
            result[series] = dominant
    return result
