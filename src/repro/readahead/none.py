"""The no-read-ahead baseline.

Pins the sequentiality count at zero so the server never prefetches —
the lower bound that brackets the heuristics from below, as
Always-Read-ahead brackets them from above (§6.1).  Useful for
measuring the total value of read-ahead on a given workload (the aged
file system extension experiment uses it this way).
"""

from __future__ import annotations

from .base import ReadState


class NoReadAheadHeuristic:
    """seqCount pinned at zero: demand reads only."""

    name = "none"

    def observe(self, state: ReadState, offset: int, nbytes: int,
                now: float = 0.0, fh: object = None) -> int:
        if nbytes <= 0:
            raise ValueError("access must cover at least one byte")
        state.next_offset = offset + nbytes
        state.seq_count = 0
        return 0
