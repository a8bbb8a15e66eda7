"""The drive's segmented read-ahead (prefetch) cache.

Disk firmware keeps a small buffer divided into *segments*, each tracking
one sequential stream of recently read sectors.  After servicing a read
the drive keeps reading — for free, since the platter is spinning anyway —
into the stream's segment, until it is told to seek elsewhere or the
segment fills.

This mechanism matters for the paper twice over:

* It is why back-to-back sequential requests with a small host-side gap
  do not pay a full rotation each (the sectors that slid under the head
  during the gap were captured).
* It is why the *default* (no read-ahead) stride experiments in §7 still
  reach 5–9 MB/s instead of collapsing to one random I/O per block: a
  drive with enough segments keeps one prefetch stream per stride arm.
  A drive with fewer segments than stride arms thrashes — which is our
  model's explanation for the IDE drive's s=8 dip in Table 1.

A segment's fill is *lazy*: we record when filling started and at what
rate, and compute coverage on demand.  When the drive must seek away,
:meth:`SegmentedCache.freeze_fills` caps every active fill at the data
actually captured by that instant.
"""

from __future__ import annotations

from typing import List, Optional


class Segment:
    """One prefetch stream: ``[start, limit)`` with a moving fill point."""

    __slots__ = ("start", "filled", "limit", "fill_rate", "fill_start_time",
                 "active", "last_use")

    def __init__(self, start: int, filled: int, limit: int,
                 fill_rate: float, now: float):
        self.start = start          # first cached LBA
        self.filled = filled        # LBAs < filled were captured by `now`
        self.limit = limit          # fill never passes this LBA
        self.fill_rate = fill_rate  # sectors/second while active
        self.fill_start_time = now
        self.active = True
        self.last_use = now

    def coverage_end(self, now: float) -> int:
        """First LBA *not* covered as of ``now``."""
        if not self.active:
            return self.filled
        grown = self.filled + int(
            (now - self.fill_start_time) * self.fill_rate)
        return min(grown, self.limit)

    def freeze(self, now: float) -> None:
        if self.active:
            self.filled = self.coverage_end(now)
            self.active = False

    def __repr__(self) -> str:
        state = "active" if self.active else "frozen"
        return (f"<Segment [{self.start},{self.filled}..{self.limit}) "
                f"{state}>")


class CacheLookup:
    """Result of a cache probe.

    ``covered_sectors`` of the request prefix are already in the buffer;
    ``continuation`` says whether the remainder can be read by simply
    letting the active fill run on (no seek, no rotational latency).
    """

    __slots__ = ("segment", "covered_sectors", "continuation")

    def __init__(self, segment: Optional[Segment], covered_sectors: int,
                 continuation: bool):
        self.segment = segment
        self.covered_sectors = covered_sectors
        self.continuation = continuation

    @property
    def hit(self) -> bool:
        return self.segment is not None


class SegmentedCache:
    """A fixed number of prefetch segments with configurable recycling.

    ``replacement`` selects the victim policy when a new stream needs a
    segment: ``"lru"`` (server-class firmware) or ``"mru"`` (simpler
    desktop firmware; optimal-ish for cyclic stream sets).  The
    distinction matters for stride workloads: with as many LRU segments
    as stride arms every arm keeps its stream, while MRU replacement
    produces one rotating "hole" once the arms fill the cache — our
    model for the IDE drive's s=8 dip in the paper's Table 1.
    """

    def __init__(self, num_segments: int, segment_sectors: int,
                 replacement: str = "lru"):
        if num_segments < 1:
            raise ValueError("need at least one segment")
        if segment_sectors < 1:
            raise ValueError("segments must hold at least one sector")
        if replacement not in ("lru", "mru"):
            raise ValueError(f"unknown replacement policy {replacement!r}")
        self.num_segments = num_segments
        self.segment_sectors = segment_sectors
        self.replacement = replacement
        self.segments: List[Segment] = []

    # ------------------------------------------------------------------

    def lookup(self, lba: int, nsectors: int, now: float) -> CacheLookup:
        """Probe for ``[lba, lba + nsectors)``.

        A probe counts as a (possibly partial) hit when the request
        start lies inside a segment's covered range — i.e. the first
        sector can be produced from buffer immediately.
        """
        end = lba + nsectors
        for segment in self.segments:
            cov = segment.coverage_end(now)
            if segment.start <= lba <= cov and lba < segment.limit:
                covered = max(0, min(end, cov) - lba)
                if covered >= nsectors:
                    segment.last_use = now
                    return CacheLookup(segment, nsectors, False)
                # Partial: remainder readable as a continuation only if
                # the fill is still active (head still on the stream) and
                # the remainder lies inside the segment's fill window.
                continuation = segment.active and end <= segment.limit
                segment.last_use = now
                return CacheLookup(segment, covered, continuation)
        return CacheLookup(None, 0, False)

    def freeze_fills(self, now: float) -> None:
        """The head is about to move: cap all active fills."""
        for segment in self.segments:
            segment.freeze(now)

    def begin_fill(self, lba: int, nsectors_read: int, fill_rate: float,
                   now: float) -> Segment:
        """Record a media read and start prefetching past its end.

        If the read extends an existing segment's stream, the segment is
        reused; otherwise the least recently used segment is recycled.
        """
        end = lba + nsectors_read
        for segment in self.segments:
            if segment.start <= lba and end >= segment.filled and \
                    lba <= segment.coverage_end(now):
                segment.filled = max(segment.filled, end)
                segment.limit = max(
                    segment.limit, end + self.segment_sectors)
                segment.fill_rate = fill_rate
                segment.fill_start_time = now
                segment.active = True
                segment.last_use = now
                return segment

        segment = Segment(start=lba, filled=end,
                          limit=end + self.segment_sectors,
                          fill_rate=fill_rate, now=now)
        if len(self.segments) >= self.num_segments:
            # The segment currently being filled is never the victim:
            # firmware does not cannibalise the stream it is feeding.
            candidates = [s for s in self.segments if not s.active]
            if not candidates:
                candidates = self.segments
            if self.replacement == "lru":
                victim = min(candidates, key=lambda s: s.last_use)
            else:
                # Most-recently-used eviction: the classic choice for
                # cyclic stream sets, and our model of the IDE drive's
                # simpler segment management.  Under a stride pattern
                # with more arms than segments it produces one rotating
                # "hole" (miss rate ~1/arms) instead of a miss cascade.
                victim = max(candidates, key=lambda s: s.last_use)
            self.segments.remove(victim)
        self.segments.append(segment)
        return segment

    def invalidate(self) -> None:
        """Drop all cached data (power cycle / cache-flush protocol)."""
        self.segments.clear()
