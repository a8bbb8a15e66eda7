"""CLI-scope observability sessions.

Experiments build their testbeds many runs deep inside
``experiment.run()``; threading a ``trace=`` flag through thirteen
experiment modules would couple every experiment to the instrumentation
layer.  Instead the CLI opens an :class:`ObsSession` around the
experiment, and :class:`~repro.host.testbed.LocalTestbed` consults
:func:`active_session` at construction time: if a session is active,
the testbed enables tracing/metrics and the bench runner records each
run's spans and metrics snapshot back into the session when it
finishes.

The session is plain module state, not simulation state — it decides
only whether instrumentation is on, which by the no-perturbation
invariant cannot change any simulated outcome.
"""

from __future__ import annotations

from contextlib import contextmanager
import json
from typing import Dict, List, Optional

from .core import Observability
from .metrics import merge_snapshots, render_snapshot
from .export import dumps_trace
from .provenance import ProvEdge, ProvRecord, dumps_provenance, to_dot
from .span import Span

_ACTIVE: Optional["ObsSession"] = None


class ObsSession:
    """Collects spans and metrics snapshots across an experiment's runs."""

    def __init__(self, trace: bool = False, metrics: bool = False,
                 provenance: bool = False):
        self.trace = trace or provenance
        self.metrics = metrics
        self.provenance = provenance
        #: Causal edges and notes from every run, in record order,
        #: node ids offset in lockstep with the span ids they name.
        self.prov_records: List[ProvRecord] = []
        #: Per-run span streams.  Each run has its own simulator (its
        #: clock restarts at zero), so runs are separate streams:
        #: well-formedness is a per-run property.
        self.runs: List[List[Span]] = []
        self.snapshots: List[dict] = []
        #: Free-form experiment context (series label, sweep x, ...)
        #: stamped into every snapshot recorded while it is set, under
        #: the ``_context`` key.  The trap-diagnosis detectors use it to
        #: group repeats of the same configuration; the metrics
        #: renderer and merger ignore it.
        self.run_context: Optional[Dict[str, object]] = None
        self._id_base = 0

    @property
    def spans(self) -> List[Span]:
        """All recorded spans, every run, in record order."""
        return [span for run in self.runs for span in run]

    def record(self, obs: Observability) -> None:
        """Fold one finished run's observability into the session.

        Every run's tracer numbers spans from 1, so ids are offset by a
        running base to stay unique across the session, and each span
        is stamped with its run index (``args["run"]``) — the export
        uses it as the Perfetto process id, one track group per run.
        """
        if obs.tracer.enabled:
            base = self._id_base
            run_index = len(self.runs)
            for span in obs.tracer.spans:
                span.id += base
                if span.parent_id is not None:
                    span.parent_id += base
                span.args.setdefault("run", run_index)
            if obs.prov.enabled:
                # Provenance records name span ids: offset them by the
                # same base so the edges keep pointing at their spans,
                # and stamp the run (the flow export's process id).
                for record in obs.prov.records:
                    if isinstance(record, ProvEdge):
                        record.src += base
                        record.dst += base
                    else:
                        record.node += base
                    record.run = run_index
                self.prov_records.extend(obs.prov.records)
            self._id_base += obs.tracer.started
            self.runs.append(obs.tracer.spans)
        if obs.registry.enabled:
            snapshot = obs.registry.snapshot()
            if self.run_context:
                snapshot["_context"] = dict(self.run_context)
            self.snapshots.append(snapshot)

    def trace_json(self) -> str:
        """Trace-event JSON; provenance runs gain flow-event arrows."""
        return dumps_trace(self.spans, self.prov_records)

    def provenance_jsonl(self) -> str:
        """The session's causal graph as provenance JSONL."""
        return dumps_provenance(self.prov_records)

    def provenance_dot(self) -> str:
        """The session's causal graph as a Graphviz digraph."""
        return to_dot(self.prov_records, self.spans)

    def metrics_json(self) -> str:
        """Per-run snapshots plus the merged view, as deterministic JSON.

        This is the machine-readable companion of
        :meth:`metrics_report`, consumed by ``repro diagnose``:
        detectors need the *per-run* snapshots (cache-warmth
        contamination is only visible run-to-run), the attribution
        report needs the merged histograms.
        """
        return json.dumps({"snapshots": self.snapshots,
                           "merged": self.merged_metrics()},
                          sort_keys=True, separators=(",", ":"))

    def merged_metrics(self) -> dict:
        return merge_snapshots(self.snapshots)

    def metrics_report(self) -> str:
        report = render_snapshot(self.merged_metrics())
        if len(self.snapshots) > 1:
            report = (f"(aggregated over {len(self.snapshots)} runs; "
                      f"counters/histograms summed, gauges averaged)\n"
                      + report)
        return report


@contextmanager
def observe(trace: bool = False, metrics: bool = False,
            provenance: bool = False):
    """Make a session active; testbeds built inside pick it up."""
    global _ACTIVE
    previous = _ACTIVE
    session = ObsSession(trace=trace, metrics=metrics,
                         provenance=provenance)
    _ACTIVE = session
    try:
        yield session
    finally:
        _ACTIVE = previous


def active_session() -> Optional[ObsSession]:
    return _ACTIVE
