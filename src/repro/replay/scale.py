"""Scaling a captured trace toward production-shaped traffic.

One captured client is a sample of real traffic, not a population.
:func:`multiplex_trace` turns a capture into an N-client workload:

* client ``i`` clones the program of captured client ``i % captured``
  (program structure — run lengths, think gaps, op mix — is preserved,
  which is what makes replay scaling honest compared to synthesis);
* each *clone* (``i >= captured``) remaps its file references through a
  Zipfian popularity draw over the trace's fileset, so the scaled
  workload develops the skewed file popularity of real NFS traffic
  (a handful of hot files, a long cold tail) instead of N disjoint
  copies of the same access pattern;
* every clone draws from its own stream, derived deterministically from
  ``(seed, client index)`` with the repository's
  :func:`~repro.sim.rand.derive_seed` discipline — the scaled trace is
  a pure function of (trace, clients, seed).

Offsets remapped onto a smaller file are folded back into range on
block boundaries and counts are clamped to the target's size, so every
scaled record stays a valid request against the original fileset.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from itertools import accumulate
from typing import Dict, List, Sequence, Tuple

from ..sim.rand import derive_seed
from ..trace.records import OP_OPEN, TraceRecord
from .records import TraceFile, TraceHeader, group_by_client


def zipf_weights(n: int, s: float = 1.1) -> List[float]:
    """Unnormalised Zipf weights for ranks 1..n (rank 1 hottest)."""
    if n < 1:
        raise ValueError("need at least one rank")
    if s < 0:
        raise ValueError("Zipf exponent cannot be negative")
    return [1.0 / (rank ** s) for rank in range(1, n + 1)]


def _zipf_pick(cumulative: Sequence[float], total: float,
               rng: random.Random) -> int:
    """Sample a rank index (0-based) from the running sums of the
    weight table (``list(accumulate(weights))``; ``total`` is
    ``sum(weights)``).

    The first index whose running sum exceeds the drawn point, or the
    last index when rounding leaves the point at or past the last sum.
    """
    point = rng.random() * total
    return min(bisect_right(cumulative, point), len(cumulative) - 1)


def _remap_record(record: TraceRecord, path: str, size: int,
                  block_size: int, client: int, seq: int) -> TraceRecord:
    """Re-point one record at (path, size), keeping it a valid request."""
    offset = record.offset
    count = record.count
    if record.op != OP_OPEN:
        nblocks = max(1, -(-size // block_size))
        block = (offset // block_size) % nblocks
        offset = block * block_size
        if count > 0:
            count = max(1, min(count, size - offset))
    return TraceRecord(
        time=record.time, fh=path, offset=offset, count=count,
        client_seq=seq, op=record.op, client=client, path=path,
        path2=record.path2)


def multiplex_trace(trace: TraceFile, clients: int, seed: int,
                    zipf_s: float = 1.1) -> TraceFile:
    """Fan a captured trace out to ``clients`` simulated clients.

    Clients below the captured count replay verbatim (so
    ``clients == header.clients`` is the identity); extra clients are
    Zipf-remapped clones as described in the module docstring.  The
    result's header records the new client count and the scaling
    parameters in its config provenance.
    """
    if clients < 1:
        raise ValueError("need at least one client")
    per_client = group_by_client(trace.records)
    sources: List[List[TraceRecord]] = list(per_client.values())
    if not sources:
        raise ValueError("cannot multiplex an empty trace")
    fileset = list(trace.header.fileset)
    #: Popularity ranking: biggest files first, as the capture's fileset
    #: is laid out; rank 1 is the hottest target.
    ranked = sorted(fileset, key=lambda entry: (-entry[1], entry[0]))
    weights = zipf_weights(len(ranked), zipf_s)
    total_weight = sum(weights)
    cumulative = list(accumulate(weights))
    sizes = trace.header.file_sizes()
    block = trace.header.block_size

    records: List[TraceRecord] = []
    for index in range(clients):
        source = sources[index % len(sources)]
        if index < len(sources):
            # Verbatim replay of a captured client (renumbered so the
            # stream is self-consistent even if capture clients were
            # sparse).
            for seq, record in enumerate(source):
                records.append(TraceRecord(
                    time=record.time, fh=record.path,
                    offset=record.offset, count=record.count,
                    client_seq=seq, op=record.op, client=index,
                    path=record.path, path2=record.path2))
            continue
        rng = random.Random(derive_seed(seed, f"replay.clone{index}"))
        #: Per-clone popularity remap: every distinct source path maps
        #: to one Zipf-drawn target, so a clone's accesses stay
        #: internally coherent (a sequential scan remains a scan of
        #: *one* file, just a different — popularity-weighted — one).
        remap: Dict[str, Tuple[str, int]] = {}
        for seq, record in enumerate(source):
            target = remap.get(record.path)
            if target is None:
                rank = _zipf_pick(cumulative, total_weight, rng)
                target = ranked[rank]
                remap[record.path] = target
            path, _ = target
            records.append(_remap_record(
                record, path, sizes[path], block, index, seq))

    # Global time order (client/seq as tie-breakers), like a capture.
    records.sort(key=lambda r: (r.time, r.client, r.client_seq))
    config = trace.header.config_dict()
    config.update({"scaled_from_clients": trace.header.clients,
                   "scale_seed": seed, "zipf_s": zipf_s})
    header = TraceHeader.from_parts(
        block_size=block, fileset=fileset, seed=trace.header.seed,
        clients=clients, config=config)
    return TraceFile(header=header, records=records)
