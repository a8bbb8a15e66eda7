"""Cursor-based read-ahead for stride access patterns (§7).

A stride pattern — ``0, x, 1, x+1, 2, x+2, ...`` — is the composition of
several completely sequential sub-streams, each of which deserves
read-ahead, but a single (offset, seqCount) descriptor sees only
randomness.  The cursor heuristic keeps *several* descriptors per file:

* each read searches the file's cursors for one whose expected offset
  approximately matches (the same 64 KiB near-match as SlowDown);
* a matching cursor is updated with SlowDown's rules and its count is
  the effective seqCount for the access;
* with no match, a new cursor is allocated; when the per-file limit is
  exceeded the least recently used cursor is recycled (§7: "there is a
  limit to the number of active cursors per file").

A truly random pattern allocates many cursors whose counts never grow,
so no extra read-ahead is performed.
"""

from __future__ import annotations

from .base import (Cursor, INITIAL_SEQCOUNT, ReadState, SLOWDOWN_DIVISOR,
                   SLOWDOWN_WINDOW, clamp_seqcount)

#: Default per-file cursor budget.  §8 notes that Grid/MPI workloads
#: would want this to be unbounded and shared; the paper's
#: implementation keeps it "small and constant".
DEFAULT_CURSOR_LIMIT = 8


class CursorHeuristic:
    """Per-sub-stream sequentiality tracking with LRU cursor recycling."""

    name = "cursor"

    def __init__(self, cursor_limit: int = DEFAULT_CURSOR_LIMIT):
        if cursor_limit < 1:
            raise ValueError("need at least one cursor per file")
        self.cursor_limit = cursor_limit

    def observe(self, state: ReadState, offset: int, nbytes: int,
                now: float = 0.0, fh: object = None) -> int:
        if nbytes <= 0:
            raise ValueError("access must cover at least one byte")
        cursor = self._find(state, offset)
        if cursor is None:
            # New sub-stream: allocate a fresh cursor.  The allocating
            # access earns no sequentiality credit — a pattern that
            # recycles cursors on every read (more arms than the
            # budget, or true randomness) must stay at the initial
            # count and trigger no read-ahead (§7).
            cursor = self._allocate(state, now)
            cursor.seq_count = INITIAL_SEQCOUNT
        elif offset == cursor.next_offset:
            cursor.seq_count = clamp_seqcount(cursor.seq_count + 1)
        elif abs(offset - cursor.next_offset) <= SLOWDOWN_WINDOW:
            pass  # SlowDown's jitter rule, per cursor
        else:
            cursor.seq_count = clamp_seqcount(
                cursor.seq_count // SLOWDOWN_DIVISOR)
        cursor.next_offset = offset + nbytes
        cursor.last_use = now
        # Mirror the winning cursor into the flat fields so code that
        # inspects plain ReadState (instrumentation) sees something sane.
        state.next_offset = cursor.next_offset
        state.seq_count = cursor.seq_count
        return cursor.seq_count

    # ------------------------------------------------------------------

    def _find(self, state: ReadState, offset: int):
        best = None
        best_distance = None
        for cursor in state.cursors:
            distance = abs(offset - cursor.next_offset)
            if distance <= SLOWDOWN_WINDOW:
                if best is None or distance < best_distance:
                    best = cursor
                    best_distance = distance
        return best

    def _allocate(self, state: ReadState, now: float) -> Cursor:
        if len(state.cursors) >= self.cursor_limit:
            victim = min(state.cursors, key=lambda c: c.last_use)
            victim.next_offset = 0
            victim.seq_count = INITIAL_SEQCOUNT
            victim.last_use = now
            return victim
        cursor = Cursor(next_offset=0, seq_count=INITIAL_SEQCOUNT,
                        last_use=now)
        state.cursors.append(cursor)
        return cursor
