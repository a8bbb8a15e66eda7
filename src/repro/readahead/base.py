"""Sequentiality heuristics: the interface and shared state.

The FreeBSD NFS server decides how much read-ahead to perform from a
per-file *sequentiality count* (``seqCount``).  The paper studies four
ways of maintaining it:

* the stock FreeBSD 4.x rule (reset on any out-of-order access),
* the hard-wired "Always Read-ahead" upper bound (§6.1),
* **SlowDown** — rise as usual, fall slowly (§6.2), and
* the **cursor-based** method for stride patterns (§7).

All share this interface: ``observe(state, offset, nbytes, now, fh)``
updates per-file state and returns the effective seqCount for the
access.  ``seqCount`` never exceeds :data:`MAX_SEQCOUNT` (127), "due to
the implementation of the lower levels of the operating system" (§6.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Protocol

#: The OS-imposed ceiling on the sequentiality count (§6.2).
MAX_SEQCOUNT = 127

#: Initial sequentiality count given to a freshly observed file (§6.2:
#: "it is given an initial sequentiality metric seqCount = 1").
INITIAL_SEQCOUNT = 1

#: The SlowDown near-match window: "within 64k (eight 8k NFS blocks)".
SLOWDOWN_WINDOW = 64 * 1024
#: SlowDown's decay for an access outside the window: "halve the count".
SLOWDOWN_DIVISOR = 2

#: The seqCount at which read-ahead turns on.
READAHEAD_TRIGGER = 2


@dataclass
class ReadState:
    """Per-file heuristic state (one nfsheur entry / one open file).

    ``next_offset`` is the paper's *prevOffset*: the offset immediately
    after the previous operation.  The cursor heuristic stores its
    cursors here too, so a single nfsheur slot can host either scheme.
    """

    next_offset: int = 0
    seq_count: int = INITIAL_SEQCOUNT
    cursors: List["Cursor"] = field(default_factory=list)

    def reset(self) -> None:
        self.next_offset = 0
        self.seq_count = INITIAL_SEQCOUNT
        self.cursors.clear()


@dataclass
class Cursor:
    """One sequential sub-stream within a file (§7)."""

    next_offset: int
    seq_count: int
    last_use: float = 0.0


class Heuristic(Protocol):
    """A sequentiality-metric policy."""

    name: str

    def observe(self, state: ReadState, offset: int, nbytes: int,
                now: float = 0.0, fh: object = None) -> int:
        """Update ``state`` for an access and return its seqCount.

        ``fh`` names the file; only a heuristic whose state spans
        files (the shared cursor pool) needs it.
        """
        ...


def clamp_seqcount(value: int) -> int:
    """Apply the kernel's [INITIAL, MAX] bounds."""
    return max(0, min(value, MAX_SEQCOUNT))


def readahead_blocks(seq_count: int, max_blocks: int) -> int:
    """Translate a seqCount into a read-ahead depth in blocks.

    Mirrors the kernel's behaviour: below :data:`READAHEAD_TRIGGER` no
    read-ahead is performed; above it, read-ahead grows with the count
    up to the system maximum ("the higher seqCount rises, the more
    aggressive the file system becomes", §6.2).
    """
    if max_blocks < 0:
        raise ValueError("max_blocks cannot be negative")
    if seq_count < READAHEAD_TRIGGER:
        return 0
    return min(seq_count, max_blocks)
