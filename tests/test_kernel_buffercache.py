"""Unit tests for the kernel buffer cache."""

import pytest

from repro.disk import WDC_WD200BB
from repro.host.testbed import TestbedConfig, build_nfs_testbed
from repro.kernel import BLOCK_SIZE, BufferCache, DiskIoScheduler
from repro.sim import Simulator


def build(capacity_bytes=1 << 20):
    sim = Simulator()
    drive = WDC_WD200BB.build(sim)
    iosched = DiskIoScheduler(sim, drive, policy="elevator")
    cache = BufferCache(sim, iosched, capacity_bytes=capacity_bytes)
    return sim, drive, cache


def read_sync(sim, cache, start, nblocks):
    def reader(sim):
        yield cache.read(start, nblocks)

    sim.run_until_complete(sim.spawn(reader(sim)))


class TestReadPath:
    def test_miss_then_hit(self):
        sim, drive, cache = build()
        read_sync(sim, cache, 0, 4)
        assert cache.stats.misses == 4
        read_sync(sim, cache, 0, 4)
        assert cache.stats.hits == 4
        assert 0 in cache

    def test_contiguous_misses_coalesce_into_one_disk_read(self):
        sim, drive, cache = build()
        read_sync(sim, cache, 10, 8)
        assert cache.stats.disk_reads_issued == 1
        assert drive.stats.requests == 1
        assert drive.stats.bytes_read == 8 * BLOCK_SIZE

    def test_hole_splits_disk_reads(self):
        sim, drive, cache = build()
        read_sync(sim, cache, 5, 1)
        cache.stats.disk_reads_issued = 0
        read_sync(sim, cache, 3, 5)  # blocks 3,4 miss; 5 hits; 6,7 miss
        assert cache.stats.disk_reads_issued == 2

    def test_concurrent_readers_share_inflight_fetch(self):
        sim, drive, cache = build()

        def reader(sim):
            yield cache.read(0, 4)

        first = sim.spawn(reader(sim))
        second = sim.spawn(reader(sim))
        sim.run()
        assert first.processed and second.processed
        assert cache.stats.disk_reads_issued == 1
        assert cache.stats.waits_on_inflight == 4

    def test_readahead_fire_and_forget(self):
        sim, drive, cache = build()
        cache.read(0, 8)  # not awaited
        sim.run()
        assert 7 in cache

    def test_zero_blocks_rejected(self):
        sim, drive, cache = build()
        with pytest.raises(ValueError):
            cache.read(0, 0)


class TestEvictionAndFlush:
    def test_capacity_enforced_lru(self):
        sim, drive, cache = build(capacity_bytes=8 * 8192)
        read_sync(sim, cache, 0, 8)
        read_sync(sim, cache, 100, 4)
        assert cache.cached_blocks <= 8
        assert 103 in cache          # newest survive
        assert 0 not in cache        # oldest evicted
        assert cache.stats.evictions == 4

    def test_flush_drops_ready_blocks(self):
        sim, drive, cache = build()
        read_sync(sim, cache, 0, 4)
        cache.flush()
        assert cache.cached_blocks == 0
        read_sync(sim, cache, 0, 4)
        assert cache.stats.misses == 8

    def test_flush_keeps_inflight(self):
        sim, drive, cache = build()
        cache.read(0, 2)
        cache.flush()  # the fetch is still in flight
        sim.run()
        assert 0 in cache and 1 in cache

    def test_too_small_capacity_rejected(self):
        sim = Simulator()
        drive = WDC_WD200BB.build(sim)
        iosched = DiskIoScheduler(sim, drive)
        with pytest.raises(ValueError):
            BufferCache(sim, iosched, capacity_bytes=100)


class TestTargetedFlush:
    def test_settled_writebacks_are_not_kept(self):
        """Every journal commit forces its block with ``sync_blocks``;
        the write-backs the cache keeps must be just those in flight,
        or each later sync scans every commit since boot."""
        testbed = build_nfs_testbed(TestbedConfig(seed=5))
        cache = testbed.server.fs.cache
        kept = []   # (write-backs kept, of which in flight) per call
        real_sync = cache.sync_blocks

        def sync_blocks(blknos):
            done = real_sync(blknos)
            kept.append((len(cache._writebacks),
                         sum(1 for event in cache._writebacks
                             if not event.processed)))
            return done

        cache.sync_blocks = sync_blocks
        size = testbed.mount.config.read_size
        testbed.server.export_file("d/seed", size)

        def creates(sim):
            for index in range(200):
                yield from testbed.mount.create(f"d/f{index}", size)

        process = testbed.sim.spawn(creates(testbed.sim))
        testbed.sim.run()
        assert process.finished and process.error is None
        assert testbed.server.stats.meta_commits == len(kept) == 200
        assert all(total == in_flight for total, in_flight in kept)
