"""The replay engine: drive any testbed with a captured trace.

:func:`capture_nfs_run` produces a trace from a benchmark run;
:func:`replay_trace` re-drives one against an arbitrary
:class:`~repro.host.testbed.TestbedConfig` — possibly multiplexed to
more clients first — and returns a :class:`ReplayRunResult` whose
:meth:`~ReplayRunResult.summary` is deterministic: two replays of the
same trace, target, and seed produce bit-identical summaries.

The engine builds the target with one client machine (own NIC, own
transport endpoints, own mount) per replay client, so scaled traces
contend for the same physical bottlenecks — server NIC, PCI bus, disk —
as the paper's multi-client testbed does.

When the target runs with metrics on, the engine registers the offered
side of the load next to the achieved side the stack already exports:
``replay.offered_ops`` / ``replay.offered_bytes`` (what the trace asks
for) against the ``nfs.*`` counters (what the server delivered), plus
``replay.lateness_s`` for the open-loop backlog.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

from .clients import (ClientReplayResult, closed_loop_client,
                      open_loop_client)
from .records import TraceFile, group_by_client
from .scale import multiplex_trace

MB = 1024 * 1024

OPEN_LOOP = "open"
CLOSED_LOOP = "closed"
MODES = (OPEN_LOOP, CLOSED_LOOP)


@dataclass
class ReplayRunResult:
    """One replay: per-client counters plus offered-load accounting."""

    clients: List[ClientReplayResult]
    mode: str
    time_scale: float
    offered_ops: int
    offered_bytes: int
    metrics: Optional[dict] = None

    @property
    def elapsed(self) -> float:
        return max((c.finish_time for c in self.clients), default=0.0)

    @property
    def ops_completed(self) -> int:
        return sum(c.ops for c in self.clients)

    @property
    def errors(self) -> int:
        return sum(c.errors for c in self.clients)

    @property
    def total_bytes(self) -> int:
        return sum(c.bytes_moved for c in self.clients)

    @property
    def throughput_mb_s(self) -> float:
        if self.elapsed <= 0:
            return 0.0
        return self.total_bytes / MB / self.elapsed

    @property
    def lateness_s(self) -> float:
        """Cumulative open-loop issue lag (0.0 in closed loop)."""
        return sum(c.lateness_s for c in self.clients)

    def summary(self) -> dict:
        """Every number of the run, bit-comparable across replays."""
        return {
            "mode": self.mode,
            "time_scale": self.time_scale,
            "clients": len(self.clients),
            "offered_ops": self.offered_ops,
            "offered_bytes": self.offered_bytes,
            "ops_completed": self.ops_completed,
            "errors": self.errors,
            "total_bytes": self.total_bytes,
            "elapsed": self.elapsed,
            "throughput_mb_s": self.throughput_mb_s,
            "lateness_s": self.lateness_s,
            "per_client": [
                {"name": c.name, "ops": c.ops,
                 "bytes_read": c.bytes_read,
                 "bytes_written": c.bytes_written,
                 "errors": c.errors, "lateness_s": c.lateness_s,
                 "finish_time": c.finish_time}
                for c in self.clients
            ],
        }


def capture_nfs_run(config, nreaders: int, scale: float = 1.0
                    ) -> TraceFile:
    """Run the §4.3 NFS benchmark once with capture on; return the trace.

    ``config`` is the *source* testbed configuration (transport,
    heuristic, ...); the returned trace is self-describing and can be
    replayed against any other configuration.
    """
    from ..bench.runner import run_nfs_once
    result = run_nfs_once(replace(config, capture_trace=True),
                          nreaders, scale=scale)
    if result.trace is None:
        raise RuntimeError("capture produced no trace")
    return result.trace


def replay_trace(trace: TraceFile, target, mode: str = CLOSED_LOOP,
                 time_scale: float = 1.0, clients: int = 0,
                 zipf_s: float = 1.1) -> ReplayRunResult:
    """Replay ``trace`` against the ``target`` testbed config.

    ``clients`` > 0 multiplexes the trace to that many clients first
    (Zipf-remapped clones, seeded from ``target.seed``); 0 replays the
    capture as-is.  ``time_scale`` compresses (>1) or stretches (<1)
    the open-loop schedule; closed loop ignores it.
    """
    from ..host.testbed import build_nfs_testbed
    if mode not in MODES:
        raise ValueError(f"unknown replay mode {mode!r}; "
                         f"pick one of {MODES}")
    if time_scale <= 0:
        raise ValueError("time_scale must be positive")
    if clients and clients != trace.header.clients:
        trace = multiplex_trace(trace, clients, seed=target.seed,
                                zipf_s=zipf_s)
    per_client = group_by_client(trace.records)
    if not per_client:
        raise ValueError("cannot replay an empty trace")
    nclients = len(per_client)

    config = replace(target, num_clients=nclients,
                     rsize=trace.header.block_size,
                     capture_trace=False)
    testbed = build_nfs_testbed(config)
    for name, size in trace.header.fileset:
        testbed.server.export_file(name, size)

    offered_ops = trace.ops
    offered_bytes = trace.bytes_moved
    results: List[ClientReplayResult] = []
    processes = []
    for index, (client_id, records) in enumerate(per_client.items()):
        result = ClientReplayResult(name=f"replay{client_id}")
        results.append(result)
        mount = testbed.mount_for(index)
        if mode == OPEN_LOOP:
            body = open_loop_client(testbed.sim, mount, records, result,
                                    time_scale=time_scale)
        else:
            body = closed_loop_client(testbed.sim, mount, records, result)
        processes.append(testbed.sim.spawn(body, name=result.name))

    registry = testbed.obs.registry
    if registry.enabled:
        #: Offered arrival rate of the (possibly compressed) schedule:
        #: monotone in both --clients and --scale, so sweeps of either
        #: knob read as increasing offered load in the registry.
        duration = trace.duration
        offered_rate = (offered_ops * time_scale / duration
                        if duration > 0 else 0.0)
        registry.gauge("replay.offered_ops", lambda: float(offered_ops))
        registry.gauge("replay.offered_bytes",
                       lambda: float(offered_bytes))
        registry.gauge("replay.offered_ops_s", lambda: offered_rate)
        registry.gauge("replay.clients", lambda: float(nclients))
        registry.gauge(
            "replay.completed_ops",
            lambda: float(sum(c.ops for c in results)))
        registry.gauge(
            "replay.lateness_s",
            lambda: float(sum(c.lateness_s for c in results)))

    metrics = testbed.run(processes)
    return ReplayRunResult(clients=results, mode=mode,
                           time_scale=time_scale,
                           offered_ops=offered_ops,
                           offered_bytes=offered_bytes, metrics=metrics)


# Re-exported for convenience alongside the engine entry points.
__all__ = ["ReplayRunResult", "ClientReplayResult", "capture_nfs_run",
           "replay_trace", "OPEN_LOOP", "CLOSED_LOOP", "MODES"]
