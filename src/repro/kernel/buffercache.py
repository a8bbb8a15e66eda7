"""The kernel buffer cache.

Caches fixed-size blocks keyed by disk LBA, with LRU replacement and
single-flight miss handling: concurrent readers of a block that is
already being fetched wait on the same disk request instead of issuing
a duplicate.  ``flush()`` implements the benchmark protocol's
cache-defeat step (§4.3.1) — in the real testbed this was achieved by
cycling 1.25 GB of other data through memory; here we can simply drop
the clean blocks.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..disk.geometry import SECTOR_SIZE
from ..disk.request import DiskRequest
from ..obs.provenance import (EDGE_COALESCED_WITH, EDGE_ISSUED,
                              EDGE_SERVED_FROM_CACHE)
from ..sim import Event, Simulator
from .iosched import DiskIoScheduler

#: The one file-system block size: the buffer cache, the allocator, the
#: FFS read path and the NFS server's directory blocks all use it.
BLOCK_SIZE = 8 * 1024
SECTORS_PER_BLOCK = BLOCK_SIZE // SECTOR_SIZE


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    waits_on_inflight: int = 0
    disk_reads_issued: int = 0
    blocks_fetched: int = 0
    evictions: int = 0
    blocks_written: int = 0
    disk_writes_issued: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses + self.waits_on_inflight
        return self.hits / total if total else 0.0


class _Entry:
    __slots__ = ("state", "event")

    READY = "ready"
    INFLIGHT = "inflight"

    def __init__(self, state: str, event: Optional[Event]):
        self.state = state
        self.event = event


class BufferCache:
    """An LRU cache of disk blocks in front of a :class:`DiskIoScheduler`.

    Blocks are addressed by *block number* (LBA // sectors-per-block);
    callers are expected to allocate files block-aligned, which our FFS
    allocator does.
    """

    def __init__(self, sim: Simulator, iosched: DiskIoScheduler,
                 capacity_bytes: int = 64 * 1024 * 1024):
        if capacity_bytes < BLOCK_SIZE:
            raise ValueError("cache smaller than one block")
        self.sim = sim
        self.iosched = iosched
        self.capacity_blocks = capacity_bytes // BLOCK_SIZE
        self._entries: "OrderedDict[int, _Entry]" = OrderedDict()
        #: Dirty block numbers awaiting write-back.
        self._dirty: set = set()
        #: In-flight write-back completions (for sync()).
        self._writebacks: list = []
        #: Write-behind high-water mark, in blocks.
        self.writeback_threshold = 512
        self.stats = CacheStats()
        self._obs_on = sim.obs.enabled
        #: Miss fetch time, submit-to-fill.
        self._m_fetch = sim.obs.registry.histogram("kernel.cache.fetch_s")
        #: Provenance-only memory of which fetch span filled each
        #: resident block (hits cite the fetch that warmed them).
        self._fill_ctx: Dict[int, int] = {}

    # ------------------------------------------------------------------

    def __contains__(self, blkno: int) -> bool:
        entry = self._entries.get(blkno)
        return entry is not None and entry.state == _Entry.READY

    def resident_or_inflight(self, blkno: int) -> bool:
        """True if the block is cached or already being fetched.

        Pure probe: no stats, no LRU movement — used by the read-ahead
        issuer to decide whether a chunk still needs an I/O.
        """
        return blkno in self._entries

    def touch(self, blkno: int) -> bool:
        """Count a hit on a resident block without creating an event.

        Returns ``True`` (and refreshes the block's LRU position) when
        the block is ready; ``False`` when it is absent or in flight.
        The warm-metadata fast path: a namei that hits the cache costs
        only CPU, and — unlike :meth:`read`, which always yields at
        least one (already-fired) event — this cannot perturb event
        ordering in the simulation.
        """
        entry = self._entries.get(blkno)
        if entry is None or entry.state != _Entry.READY:
            return False
        self.stats.hits += 1
        self._entries.move_to_end(blkno)
        return True

    def install(self, start_blkno: int, nblocks: int = 1) -> None:
        """Insert blocks as resident and *clean*, free of charge.

        Models data the kernel just produced and already has in memory
        — freshly written directory blocks at mkfs/export time.  No
        events, no stats, no dirty marking; ``crash()``/``flush()``
        drop these like any other clean block.
        """
        if nblocks < 1:
            raise ValueError("must install at least one block")
        for blkno in range(start_blkno, start_blkno + nblocks):
            entry = self._entries.get(blkno)
            if entry is None or entry.state != _Entry.READY:
                self._entries[blkno] = _Entry(_Entry.READY, None)
            else:
                self._entries.move_to_end(blkno)
        self._evict_overflow()

    @property
    def cached_blocks(self) -> int:
        return len(self._entries)

    def flush(self) -> None:
        """Drop every clean block that is not currently being fetched.

        Dirty blocks survive: dropping unwritten data would be
        corruption, not cache management.
        """
        keep = OrderedDict(
            (blkno, entry) for blkno, entry in self._entries.items()
            if entry.state == _Entry.INFLIGHT or blkno in self._dirty)
        self._entries = keep

    def crash(self) -> None:
        """Power-loss semantics: drop *everything*, dirty blocks too.

        A reboot loses RAM — unstable data that never reached the
        platter is gone, which is exactly the hazard NFSv3's COMMIT and
        write-verifier protocol exists to recover from.  In-flight disk
        requests still complete against the new (empty) table; ``_fill``
        tolerates the missing entries.
        """
        self._entries = OrderedDict()
        self._dirty.clear()
        self._writebacks = []

    @property
    def dirty_blocks(self) -> int:
        return len(self._dirty)

    # ------------------------------------------------------------------

    def read(self, start_blkno: int, nblocks: int,
             stream: Any = None, parent=None) -> Event:
        """Ensure blocks are resident; the event fires when all are.

        Misses are coalesced into contiguous disk requests.  The caller
        may ignore the returned event to get fire-and-forget read-ahead.
        ``parent`` is an optional tracing parent for the fetch spans.
        """
        if nblocks < 1:
            raise ValueError("must read at least one block")
        waits: List[Event] = []
        run_start: Optional[int] = None
        run_len = 0
        prov = self.sim.obs.prov
        for blkno in range(start_blkno, start_blkno + nblocks):
            entry = self._entries.get(blkno)
            if entry is not None and entry.state == _Entry.READY:
                self.stats.hits += 1
                self._entries.move_to_end(blkno)
                if prov.enabled and parent is not None:
                    filler = self._fill_ctx.get(blkno)
                    if filler is not None:
                        prov.edge(EDGE_SERVED_FROM_CACHE, parent,
                                  filler, blkno=blkno)
                self._flush_run(run_start, run_len, waits, stream, parent)
                run_start, run_len = None, 0
            elif entry is not None:
                self.stats.waits_on_inflight += 1
                waits.append(entry.event)
                if prov.enabled and parent is not None:
                    filler = self._fill_ctx.get(blkno)
                    if filler is not None:
                        prov.edge(EDGE_COALESCED_WITH, parent,
                                  filler, blkno=blkno)
                self._flush_run(run_start, run_len, waits, stream, parent)
                run_start, run_len = None, 0
            else:
                self.stats.misses += 1
                if run_start is None:
                    run_start = blkno
                run_len += 1
        self._flush_run(run_start, run_len, waits, stream, parent)

        if not waits:
            done = self.sim.event(name="cache.read")
            done.succeed()
            return done
        if len(waits) == 1:
            return waits[0]
        return self.sim.all_of(waits)

    def _flush_run(self, run_start: Optional[int], run_len: int,
                   waits: List[Event], stream: Any,
                   parent=None) -> None:
        if run_start is None or run_len == 0:
            return
        request = DiskRequest(
            lba=run_start * SECTORS_PER_BLOCK,
            nsectors=run_len * SECTORS_PER_BLOCK,
            stream=stream)
        if self._obs_on:
            self._observe_io(request, "fetch", parent)
            prov = self.sim.obs.prov
            if prov.enabled and request.trace_ctx is not None:
                for blkno in range(run_start, run_start + run_len):
                    self._fill_ctx[blkno] = request.trace_ctx
        done = self.iosched.submit(request)
        self.stats.disk_reads_issued += 1
        self.stats.blocks_fetched += run_len
        for blkno in range(run_start, run_start + run_len):
            self._entries[blkno] = _Entry(_Entry.INFLIGHT, done)
        done.add_callback(
            lambda _ev, s=run_start, n=run_len: self._fill(s, n))
        waits.append(done)

    def _observe_io(self, request: DiskRequest, name: str,
                    parent=None) -> None:
        """Open a cache-level span + fetch timer for one disk request.

        Must run before the request is submitted so the scheduler and
        drive see ``trace_ctx``.  The span is detached: a read-ahead
        fill outlives the (instant) read-ahead span that requested it.
        """
        if request.done is None:
            # The same event the scheduler would create on submit;
            # constructing it early schedules nothing, so this cannot
            # perturb the simulation.
            request.done = self.sim.event(name=f"io#{request.id}")
        tracer = self.sim.obs.tracer
        if tracer.enabled:
            span = tracer.start(name, "kernel.buffercache", parent=parent,
                                detached=True, lba=request.lba,
                                nsectors=request.nsectors)
            request.trace_ctx = span.id
            if parent is not None:
                self.sim.obs.prov.edge(EDGE_ISSUED, parent, span)
        else:
            span = None
        started = self.sim.now
        request.done.add_callback(
            lambda _ev: self._finish_io(span, started))

    def _finish_io(self, span, started: float) -> None:
        self._m_fetch.observe(self.sim.now - started)
        if span is not None:
            span.finish()

    def _fill(self, start_blkno: int, nblocks: int) -> None:
        for blkno in range(start_blkno, start_blkno + nblocks):
            entry = self._entries.get(blkno)
            if entry is not None and entry.state == _Entry.INFLIGHT:
                entry.state = _Entry.READY
                entry.event = None
                self._entries.move_to_end(blkno)
        self._evict_overflow()

    def _evict_overflow(self) -> None:
        while len(self._entries) > self.capacity_blocks:
            victim = None
            for blkno, entry in self._entries.items():
                if entry.state == _Entry.READY and \
                        blkno not in self._dirty:
                    victim = blkno
                    break
            if victim is None:
                break  # everything is in flight or dirty
            del self._entries[victim]
            self.stats.evictions += 1

    # ------------------------------------------------------------------
    # Write path (write-behind)
    # ------------------------------------------------------------------

    def write(self, start_blkno: int, nblocks: int,
              stream: Any = None) -> None:
        """Store blocks in the cache and mark them dirty.

        Completes immediately (write-behind, as both FFS and the NFSv3
        unstable-write path do); data reaches the platter when the
        dirty set crosses the write-behind threshold or on
        :meth:`sync`.
        """
        if nblocks < 1:
            raise ValueError("must write at least one block")
        for blkno in range(start_blkno, start_blkno + nblocks):
            entry = self._entries.get(blkno)
            if entry is None or entry.state != _Entry.READY:
                self._entries[blkno] = _Entry(_Entry.READY, None)
            else:
                self._entries.move_to_end(blkno)
            self._dirty.add(blkno)
        self.stats.blocks_written += nblocks
        if len(self._dirty) >= self.writeback_threshold:
            self.writeback()
        self._evict_overflow()

    def writeback(self) -> None:
        """Issue disk writes for every dirty block (fire and forget)."""
        if not self._dirty:
            return
        dirty = sorted(self._dirty)
        self._dirty.clear()
        self._write_runs(dirty)

    def _write_runs(self, blknos: List[int]) -> List[Event]:
        """Write sorted ``blknos`` back, one disk write per contiguous
        run, in block order; returns the writes' completion events."""
        issued = []
        run_start = previous = blknos[0]
        for blkno in blknos[1:] + [None]:
            if blkno is not None and blkno == previous + 1:
                previous = blkno
                continue
            nblocks = previous - run_start + 1
            request = DiskRequest(
                lba=run_start * SECTORS_PER_BLOCK,
                nsectors=nblocks * SECTORS_PER_BLOCK,
                is_write=True)
            if self._obs_on:
                self._observe_io(request, "writeback")
            done = self.iosched.submit(request)
            self._writebacks.append(done)
            self.stats.disk_writes_issued += 1
            issued.append(done)
            run_start = previous = blkno
        self._writebacks = [event for event in self._writebacks
                            if not event.processed]
        return issued

    def sync_blocks(self, blknos) -> Event:
        """Force just the given blocks to the platter (targeted flush).

        The metadata journal's commit primitive: a log force must not
        piggyback a whole-cache :meth:`sync` — that would flush every
        dirty data block and couple the data path's durability timing
        to every CREATE.  Dirty targets are written back here (in
        contiguous runs, like :meth:`writeback`); targets that are
        *not* dirty may already be riding an earlier background
        write-back still in flight, so in that case the returned event
        conservatively also waits for the pending write-backs — the
        caller asked for "on the platter", not "handed to the disk".
        """
        targets = sorted(set(blknos))
        dirty_targets = [b for b in targets if b in self._dirty]
        waits: List[Event] = []
        if dirty_targets:
            self._dirty.difference_update(dirty_targets)
            waits = self._write_runs(dirty_targets)
        if len(dirty_targets) != len(targets):
            issued = {id(event) for event in waits}
            waits.extend(event for event in self._writebacks
                         if not event.processed
                         and id(event) not in issued)
        if not waits:
            done = self.sim.event(name="cache.sync_blocks")
            done.succeed()
            return done
        if len(waits) == 1:
            return waits[0]
        return self.sim.all_of(waits)

    def sync(self) -> Event:
        """Event that fires once all issued write-backs are on disk.

        Flushes the dirty set first, so after waiting on the returned
        event the cache is clean.
        """
        self.writeback()
        pending = [event for event in self._writebacks
                   if not event.processed]
        if not pending:
            done = self.sim.event(name="cache.sync")
            done.succeed()
            return done
        return self.sim.all_of(pending)
