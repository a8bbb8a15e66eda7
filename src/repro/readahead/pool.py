"""A shared cursor pool — the paper's §8 future work, implemented.

The §7 implementation reserves a small, constant number of cursors in
*every* nfsheur entry, "whether they are ever used or not", and a file
can never use more than its own reservation.  §8 sketches the fix:

> "It would be better to share a common pool of cursors among all file
> handles."

:class:`SharedCursorPool` is that design: one global pool of cursors,
each tagged with the file handle it currently serves, recycled LRU
across *all* files.  A single file with many stride arms (the Grid/MPI
case §8 names) can draw as many cursors as it needs, while idle files
hold none.

It plugs into the same slot as the per-file heuristics: the NFS server
passes the file handle along with each access, and the per-file
``ReadState`` is only mirrored for instrumentation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional

from .base import (INITIAL_SEQCOUNT, ReadState, SLOWDOWN_DIVISOR,
                   SLOWDOWN_WINDOW, clamp_seqcount)

DEFAULT_POOL_SIZE = 64


@dataclass
class PooledCursor:
    """A cursor plus the identity of the file it currently tracks."""

    fh: Any
    next_offset: int
    seq_count: int
    last_use: float


@dataclass
class PoolStats:
    observations: int = 0
    matches: int = 0
    allocations: int = 0
    recycles: int = 0
    cross_file_recycles: int = 0


class SharedCursorPool:
    """Cursor-based sequentiality with one pool for every file.

    Implements the same ``observe`` interface as the per-file
    heuristics; pass ``fh`` so cursors can be matched to their file.
    Without an ``fh`` the pool degrades to a single anonymous file.
    """

    name = "pooled-cursor"

    def __init__(self, pool_size: int = DEFAULT_POOL_SIZE):
        if pool_size < 1:
            raise ValueError("pool must hold at least one cursor")
        self.pool_size = pool_size
        self.cursors: List[PooledCursor] = []
        self.stats = PoolStats()

    # ------------------------------------------------------------------

    def observe(self, state: ReadState, offset: int, nbytes: int,
                now: float = 0.0, fh: Any = None) -> int:
        if nbytes <= 0:
            raise ValueError("access must cover at least one byte")
        self.stats.observations += 1
        cursor = self._find(fh, offset)
        if cursor is None:
            cursor = self._allocate(fh, now)
            cursor.seq_count = INITIAL_SEQCOUNT
        elif offset == cursor.next_offset:
            self.stats.matches += 1
            cursor.seq_count = clamp_seqcount(cursor.seq_count + 1)
        elif abs(offset - cursor.next_offset) <= SLOWDOWN_WINDOW:
            self.stats.matches += 1
        else:
            cursor.seq_count = clamp_seqcount(
                cursor.seq_count // SLOWDOWN_DIVISOR)
        cursor.next_offset = offset + nbytes
        cursor.last_use = now
        if state is not None:
            state.next_offset = cursor.next_offset
            state.seq_count = cursor.seq_count
        return cursor.seq_count

    # ------------------------------------------------------------------

    def cursors_of(self, fh: Any) -> List[PooledCursor]:
        return [cursor for cursor in self.cursors if cursor.fh == fh]

    def _find(self, fh: Any, offset: int) -> Optional[PooledCursor]:
        best = None
        best_distance = None
        for cursor in self.cursors:
            if cursor.fh != fh:
                continue
            distance = abs(offset - cursor.next_offset)
            if distance <= SLOWDOWN_WINDOW:
                if best is None or distance < best_distance:
                    best = cursor
                    best_distance = distance
        return best

    def _allocate(self, fh: Any, now: float) -> PooledCursor:
        self.stats.allocations += 1
        if len(self.cursors) >= self.pool_size:
            victim = min(self.cursors, key=lambda c: c.last_use)
            self.stats.recycles += 1
            if victim.fh != fh:
                self.stats.cross_file_recycles += 1
            victim.fh = fh
            victim.next_offset = 0
            victim.seq_count = INITIAL_SEQCOUNT
            victim.last_use = now
            return victim
        cursor = PooledCursor(fh=fh, next_offset=0,
                              seq_count=INITIAL_SEQCOUNT, last_use=now)
        self.cursors.append(cursor)
        return cursor
