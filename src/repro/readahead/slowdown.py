"""The SlowDown sequentiality heuristic (§6.2).

SlowDown lets the sequentiality index *rise* exactly as the default
heuristic does, but *fall* more slowly — "nearly identical in concept to
the additive-increase/multiplicative-decrease used by TCP/IP":

* exact match of the expected offset: increment;
* within 64 KiB (eight 8 KiB NFS blocks) of the expected offset: leave
  the count alone — this could be jitter rather than randomness;
* farther away: halve the count.  A genuinely random pattern halves its
  way to zero within a few accesses, so read-ahead is not wasted.
"""

from __future__ import annotations

from .base import (ReadState, SLOWDOWN_DIVISOR, SLOWDOWN_WINDOW,
                   clamp_seqcount)


class SlowDownHeuristic:
    """Rise fast, fall slow; tolerant of small request reorderings."""

    name = "slowdown"

    def __init__(self, window: int = SLOWDOWN_WINDOW):
        if window < 0:
            raise ValueError("window cannot be negative")
        self.window = window

    def observe(self, state: ReadState, offset: int, nbytes: int,
                now: float = 0.0, fh: object = None) -> int:
        if nbytes <= 0:
            raise ValueError("access must cover at least one byte")
        if offset == state.next_offset:
            state.seq_count = clamp_seqcount(state.seq_count + 1)
        elif abs(offset - state.next_offset) <= self.window:
            pass  # jitter, not randomness: leave seqCount unchanged
        else:
            state.seq_count = clamp_seqcount(
                state.seq_count // SLOWDOWN_DIVISOR)
        state.next_offset = offset + nbytes
        return state.seq_count
