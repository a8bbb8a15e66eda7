"""Capturing the client vnode boundary.

A :class:`TraceCapture` is handed to every :class:`~repro.nfs.client.NfsMount`
of a testbed; the mount calls :meth:`record` once per application-level
operation (open/read/write/getattr/commit) at issue time.  The capture
obeys the two :mod:`repro.obs` rules:

* **No perturbation.**  Recording reads the simulation clock and
  appends to a list; it draws no randomness, schedules no events, and
  blocks no process, so a captured run is bit-identical to an
  uncaptured one.
* **Zero cost when disabled.**  The mount holds ``None`` (no capture
  object at all) unless capture is on, and guards every hook with a
  single attribute test — the disabled path costs one ``is None``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..trace.records import TraceRecord
from .records import TraceFile, TraceHeader


class TraceCapture:
    """Accumulates vnode-boundary operations into a trace."""

    def __init__(self, block_size: int, seed: int, clients: int,
                 config: Optional[Dict[str, object]] = None):
        self.block_size = block_size
        self.seed = seed
        self.clients = clients
        self.config: Dict[str, object] = dict(config or {})
        self.records: List[TraceRecord] = []
        #: Per-client issue counters — the ``client_seq`` ground truth.
        self._seqs: Dict[int, int] = {}

    def record(self, time: float, client: int, op: str, path: str,
               offset: int = 0, count: int = 0,
               path2: str = "") -> None:
        """Record one operation issued by ``client`` at ``time``."""
        seq = self._seqs.get(client, 0)
        self._seqs[client] = seq + 1
        self.records.append(TraceRecord(
            time=time, fh=path, offset=offset, count=count,
            client_seq=seq, op=op, client=client, path=path,
            path2=path2))

    @property
    def ops(self) -> int:
        return len(self.records)

    def trace_file(self, fileset: Sequence[Tuple[str, int]]) -> TraceFile:
        """Freeze the capture into a self-describing trace.

        ``fileset`` is the exported namespace of the captured run — the
        replay target re-exports exactly these files.
        """
        header = TraceHeader.from_parts(
            block_size=self.block_size, fileset=fileset, seed=self.seed,
            clients=self.clients, config=self.config)
        return TraceFile(header=header, records=list(self.records))
