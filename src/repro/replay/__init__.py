"""Trace capture & replay (the ``repro.replay`` subsystem).

Every benchmark the repository runs is, at bottom, a stream of NFS
operations issued at the client vnode boundary.  This package makes
that stream a first-class, persistent artifact:

* **capture** (:mod:`.capture`) — hook the NFS client mounts and record
  each operation as a :class:`~repro.trace.records.TraceRecord`,
  zero-cost when disabled (the same discipline as :mod:`repro.obs`);
* **format** (:mod:`.format`) — a versioned JSONL file format with a
  self-describing header (block size, fileset, seed, source testbed
  config) and a lossless, byte-identical round trip;
* **engine** (:mod:`.engine`) — open-loop (timestamp-faithful, with a
  time-scaling factor) and closed-loop (program-ordered, as fast as the
  stack allows) replay of a trace against *any* testbed config, so a
  workload captured under one server setup can be re-driven under
  another and the deltas attributed via the metrics registry;
* **scale** (:mod:`.scale`) — multiplex one captured trace into N
  simulated clients with Zipfian file-popularity remapping and
  deterministic per-client seed derivation, growing a two-client
  capture toward production-shaped traffic without writing a new
  reader loop.
"""

from .capture import TraceCapture
from .format import (FORMAT_NAME, FORMAT_VERSION, TraceFormatError,
                     dumps_trace, loads_trace, read_trace_file,
                     write_trace_file)
from .records import TraceFile, TraceHeader, group_by_client

__all__ = [
    "TraceCapture",
    "TraceHeader",
    "TraceFile",
    "group_by_client",
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "TraceFormatError",
    "dumps_trace",
    "loads_trace",
    "read_trace_file",
    "write_trace_file",
    # engine/scale are imported lazily to keep the import graph acyclic
    # (the testbed imports capture; the engine imports the testbed).
    "replay_trace",
    "capture_nfs_run",
    "ReplayRunResult",
    "ClientReplayResult",
    "multiplex_trace",
    "zipf_weights",
]


def __getattr__(name):
    if name in ("replay_trace", "capture_nfs_run", "ReplayRunResult",
                "ClientReplayResult"):
        from . import engine
        return getattr(engine, name)
    if name in ("multiplex_trace", "zipf_weights"):
        from . import scale
        return getattr(scale, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
