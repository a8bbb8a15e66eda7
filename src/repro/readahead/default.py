"""The stock FreeBSD 4.x sequentiality heuristic.

Paraphrasing §6.2 of the paper: when a new file is accessed it gets
``seqCount = 1``; on each access, if the current offset equals the
offset after the last operation the count is incremented, otherwise it
is *reset to a low value*.  A single reordered request therefore throws
away the whole accumulated score — the failure mode that motivates
SlowDown.
"""

from __future__ import annotations

from .base import INITIAL_SEQCOUNT, ReadState, clamp_seqcount


class DefaultHeuristic:
    """Reset-on-any-mismatch sequentiality metric."""

    name = "default"

    def observe(self, state: ReadState, offset: int, nbytes: int,
                now: float = 0.0, fh: object = None) -> int:
        if nbytes <= 0:
            raise ValueError("access must cover at least one byte")
        if offset == state.next_offset:
            state.seq_count = clamp_seqcount(state.seq_count + 1)
        else:
            state.seq_count = INITIAL_SEQCOUNT
        state.next_offset = offset + nbytes
        return state.seq_count
