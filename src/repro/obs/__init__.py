"""Observability for the simulated NFS stack: spans + metrics.

``repro.obs`` is a zero-cost-when-disabled instrumentation layer.  A
:class:`SpanTracer` follows one logical NFS request across every layer
of the request path (bench reader, client vnode, nfsiod, RPC, nfsd,
nfsheur/read-ahead, buffer cache, bufq, TCQ, disk mechanics) and
exports the span tree as Chrome ``trace_event`` JSON for Perfetto; a
:class:`MetricsRegistry` collects queue depths, cache hit ratios,
fault/retransmit counters, per-zone disk throughput, and per-layer
latency histograms.

The load-bearing invariant, relied on by the golden determinism tests:
**instrumentation never perturbs the simulation.**  Tracing and metrics
only read the sim clock and append to Python lists — they never draw
randomness, never create or schedule events — so the same seed produces
bit-identical results with instrumentation on or off.

This package deliberately imports nothing from :mod:`repro.sim`; the
simulator imports us and binds the clock, keeping the dependency
one-way.
"""

from .core import NULL_OBS, Observability
from .export import LAYER_CATEGORIES, dumps_trace, loads_trace
from .metrics import (HISTOGRAM_BOUNDS, NULL_REGISTRY, Counter, Gauge,
                      LatencyHistogram, MetricsRegistry,
                      NullMetricsRegistry, merge_snapshots,
                      render_snapshot)
from .provenance import (EDGE_COALESCED_WITH, EDGE_DISPATCHED_AFTER,
                         EDGE_KINDS, EDGE_QUEUED_BEHIND,
                         EDGE_RETRIED_AS, EDGE_SERVED_FROM_CACHE,
                         NULL_PROVENANCE, NullProvenanceGraph, ProvEdge,
                         ProvNote, ProvenanceGraph, dumps_provenance,
                         index_by_node, loads_provenance, to_dot)
from .session import ObsSession, active_session, observe
from .span import (NULL_SPAN, NULL_TRACER, NullTracer, Span, SpanTracer,
                   check_well_formed)

__all__ = [
    "Observability", "NULL_OBS",
    "SpanTracer", "NullTracer", "Span", "NULL_TRACER", "NULL_SPAN",
    "check_well_formed",
    "MetricsRegistry", "NullMetricsRegistry", "NULL_REGISTRY",
    "Counter", "Gauge", "LatencyHistogram", "HISTOGRAM_BOUNDS",
    "merge_snapshots", "render_snapshot",
    "LAYER_CATEGORIES", "dumps_trace", "loads_trace",
    "ProvenanceGraph", "NullProvenanceGraph", "NULL_PROVENANCE",
    "ProvEdge", "ProvNote", "EDGE_KINDS",
    "EDGE_QUEUED_BEHIND", "EDGE_COALESCED_WITH", "EDGE_RETRIED_AS",
    "EDGE_SERVED_FROM_CACHE", "EDGE_DISPATCHED_AFTER",
    "dumps_provenance", "loads_provenance", "to_dot", "index_by_node",
    "ObsSession", "observe", "active_session",
]
