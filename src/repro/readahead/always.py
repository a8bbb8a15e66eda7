"""The hard-wired "Always Read-ahead" heuristic (§6.1).

Used to estimate the potential improvement available to any smarter
sequentiality metric: the metric is pinned at its maximum, so the server
always performs full read-ahead.  For a purely sequential benchmark this
is the optimum; for random access it would be the pessimum — which is
why it is an experimental yardstick, not a real policy.
"""

from __future__ import annotations

from .base import MAX_SEQCOUNT, ReadState


class AlwaysReadAheadHeuristic:
    """seqCount pinned at the maximum; state still tracked for parity."""

    name = "always"

    def observe(self, state: ReadState, offset: int, nbytes: int,
                now: float = 0.0, fh: object = None) -> int:
        if nbytes <= 0:
            raise ValueError("access must cover at least one byte")
        state.next_offset = offset + nbytes
        state.seq_count = MAX_SEQCOUNT
        return MAX_SEQCOUNT
