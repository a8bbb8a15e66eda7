"""Unit tests for the FFS layer: inodes, allocation, read path."""

import random

import pytest

from repro.disk import Partition, WDC_WD200BB
from repro.ffs import (AllocationError, Extent, FileSystem, Inode,
                       SequentialAllocator)
from repro.ffs.filesystem import MAX_READAHEAD_BLOCKS
from repro.kernel import BufferCache, DiskIoScheduler
from repro.sim import Simulator

BLOCK = 8 * 1024


class TestExtentAndInode:
    def test_extent_validation(self):
        with pytest.raises(ValueError):
            Extent(file_block=0, disk_block=0, nblocks=0)
        with pytest.raises(ValueError):
            Extent(file_block=-1, disk_block=0, nblocks=1)

    def test_map_range_single_extent(self):
        inode = Inode("f", size=10 * BLOCK,
                      extents=[Extent(0, 100, 10)])
        assert inode.map_range(2, 3) == [(102, 3)]

    def test_map_range_across_extents(self):
        inode = Inode("f", size=10 * BLOCK,
                      extents=[Extent(0, 100, 5), Extent(5, 300, 5)])
        assert inode.map_range(3, 4) == [(103, 2), (300, 2)]

    def test_map_range_merges_adjacent_disk_runs(self):
        inode = Inode("f", size=10 * BLOCK,
                      extents=[Extent(0, 100, 5), Extent(5, 105, 5)])
        assert inode.map_range(0, 10) == [(100, 10)]

    def test_map_range_out_of_bounds(self):
        inode = Inode("f", size=5 * BLOCK, extents=[Extent(0, 100, 5)])
        with pytest.raises(ValueError):
            inode.map_range(3, 5)

    def test_nblocks(self):
        inode = Inode("f", size=0,
                      extents=[Extent(0, 0, 3), Extent(3, 10, 4)])
        assert inode.nblocks == 7

    def test_inode_numbers_unique(self):
        assert Inode("a", 1).number != Inode("b", 1).number


class TestAllocator:
    def partition(self):
        return Partition("test1", first_lba=0, sectors=1_000_000)

    def test_fresh_allocation_is_contiguous(self):
        allocator = SequentialAllocator(self.partition())
        inode = allocator.allocate("f", 100 * BLOCK)
        assert len(inode.extents) == 1
        assert inode.extents[0].nblocks == 100

    def test_files_allocated_in_order(self):
        allocator = SequentialAllocator(self.partition())
        first = allocator.allocate("a", 10 * BLOCK)
        second = allocator.allocate("b", 10 * BLOCK)
        assert second.first_disk_block() == \
            first.first_disk_block() + 10

    def test_partition_offset_respected(self):
        partition = Partition("p", first_lba=160_000, sectors=100_000)
        allocator = SequentialAllocator(partition)
        inode = allocator.allocate("f", BLOCK)
        assert inode.first_disk_block() * 16 >= 160_000

    def test_partial_block_rounds_up(self):
        allocator = SequentialAllocator(self.partition())
        inode = allocator.allocate("f", BLOCK + 1)
        assert inode.nblocks == 2

    def test_full_partition_rejected(self):
        partition = Partition("tiny", first_lba=0, sectors=32)
        allocator = SequentialAllocator(partition)
        with pytest.raises(AllocationError):
            allocator.allocate("big", 100 * BLOCK)

    def test_fragmentation_splits_files(self):
        allocator = SequentialAllocator(
            self.partition(), fragmentation=1.0, rng=random.Random(7))
        inode = allocator.allocate("f", 64 * BLOCK)
        assert len(inode.extents) > 1
        assert sum(e.nblocks for e in inode.extents) == 64

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            SequentialAllocator(self.partition()).allocate("f", 0)

    def test_bad_fragmentation_rejected(self):
        with pytest.raises(ValueError):
            SequentialAllocator(self.partition(), fragmentation=1.5)


def build_fs():
    sim = Simulator()
    drive = WDC_WD200BB.build(sim)
    iosched = DiskIoScheduler(sim, drive)
    cache = BufferCache(sim, iosched, capacity_bytes=8 << 20)
    allocator = SequentialAllocator(
        Partition("p1", first_lba=0, sectors=4_000_000))
    fs = FileSystem(sim, cache, allocator)
    return sim, drive, cache, fs


class TestFileSystem:
    def test_create_and_lookup(self):
        sim, drive, cache, fs = build_fs()
        inode = fs.create_file("data", 10 * BLOCK)
        assert fs.lookup("data") is inode
        with pytest.raises(FileNotFoundError):
            fs.lookup("missing")

    def test_duplicate_name_rejected(self):
        sim, drive, cache, fs = build_fs()
        fs.create_file("data", BLOCK)
        with pytest.raises(ValueError):
            fs.create_file("data", BLOCK)

    def test_read_returns_byte_count(self):
        sim, drive, cache, fs = build_fs()
        inode = fs.create_file("data", 10 * BLOCK)
        handle = fs.open(inode)

        def reader(sim):
            got = yield from fs.read(handle, 0, 4 * BLOCK)
            return got

        assert sim.run_until_complete(sim.spawn(reader(sim))) == \
            4 * BLOCK

    def test_read_clamps_at_eof(self):
        sim, drive, cache, fs = build_fs()
        inode = fs.create_file("data", 3 * BLOCK)
        handle = fs.open(inode)

        def reader(sim):
            got = yield from fs.read(handle, 2 * BLOCK, 10 * BLOCK)
            return got

        assert sim.run_until_complete(sim.spawn(reader(sim))) == BLOCK

    def test_read_past_eof_returns_zero(self):
        sim, drive, cache, fs = build_fs()
        inode = fs.create_file("data", BLOCK)
        handle = fs.open(inode)

        def reader(sim):
            got = yield from fs.read(handle, 5 * BLOCK, BLOCK)
            return got

        assert sim.run_until_complete(sim.spawn(reader(sim))) == 0

    def test_sequential_reads_trigger_readahead(self):
        sim, drive, cache, fs = build_fs()
        inode = fs.create_file("data", 64 * BLOCK)
        handle = fs.open(inode)

        def reader(sim):
            for index in range(4):
                yield from fs.read(handle, index * BLOCK, BLOCK)

        sim.run_until_complete(sim.spawn(reader(sim)))
        # Blocks beyond the 4 demanded must have been prefetched.
        assert cache.stats.blocks_fetched > 4

    def test_nonsequential_reads_do_no_readahead(self):
        sim, drive, cache, fs = build_fs()
        inode = fs.create_file("data", 512 * BLOCK)
        handle = fs.open(inode)
        offsets = [100, 7, 450, 230, 12, 381]

        def reader(sim):
            for block in offsets:
                yield from fs.read(handle, block * BLOCK, BLOCK)

        sim.run_until_complete(sim.spawn(reader(sim)))
        assert cache.stats.blocks_fetched == len(offsets)

    def test_external_seqcount_read_path(self):
        """The NFS entry point: caller supplies the seqCount."""
        sim, drive, cache, fs = build_fs()
        inode = fs.create_file("data", 64 * BLOCK)

        def reader(sim):
            got = yield from fs.read_with_seqcount(inode, 0, BLOCK, 127)
            return got

        assert sim.run_until_complete(sim.spawn(reader(sim))) == BLOCK
        assert cache.stats.blocks_fetched >= MAX_READAHEAD_BLOCKS

    def test_readahead_stops_at_eof(self):
        sim, drive, cache, fs = build_fs()
        inode = fs.create_file("data", 4 * BLOCK)

        def reader(sim):
            yield from fs.read_with_seqcount(inode, 0, BLOCK, 127)

        sim.run_until_complete(sim.spawn(reader(sim)))
        assert cache.stats.blocks_fetched <= 4

    def test_bad_read_range_rejected(self):
        sim, drive, cache, fs = build_fs()
        inode = fs.create_file("data", 4 * BLOCK)

        def reader(sim):
            yield from fs.read_with_seqcount(inode, -1, BLOCK, 1)

        with pytest.raises(ValueError):
            sim.run_until_complete(sim.spawn(reader(sim)))

    def test_handle_tracks_stats(self):
        sim, drive, cache, fs = build_fs()
        inode = fs.create_file("data", 8 * BLOCK)
        handle = fs.open(inode)

        def reader(sim):
            yield from fs.read(handle, 0, 2 * BLOCK)

        sim.run_until_complete(sim.spawn(reader(sim)))
        assert handle.reads == 1
        assert handle.bytes_read == 2 * BLOCK
