"""Block allocation within a partition.

The paper benchmarks *fresh* file systems on purpose (§3): their files
are laid out near-contiguously from the start of the partition, which is
both the best case for read-ahead and — because read-ahead heuristics
matter more as layout degrades — the *worst* case for the improvements
being measured.

:class:`SequentialAllocator` reproduces that fresh layout.  The
``fragmentation`` knob approximates an aged file system: each file is
broken into chunks with small gaps between them, shuffling later files
into the holes a real aged FFS would exhibit.
"""

from __future__ import annotations

import itertools
import random
from typing import List, Optional

from ..disk.models import Partition
from ..kernel.buffercache import BLOCK_SIZE, SECTORS_PER_BLOCK
from .inode import Extent, Inode

#: With ``fragmentation``, a file is cut into pieces of 1 to
#: ``CHUNK_BLOCKS`` blocks, each followed by a gap of 0 to
#: ``MAX_GAP_BLOCKS`` blocks.
CHUNK_BLOCKS = 64
MAX_GAP_BLOCKS = 128

#: Directory inodes number from here; regular files keep the dense
#: 2, 3, 4, … sequence.  The nfsheur table hashes the handle id, so
#: giving directories their own number space means mounting a namespace
#: on top of an existing flat fileset cannot move any file's heuristic
#: slot.
DIR_INODE_BASE = 1 << 31


class AllocationError(Exception):
    """The partition is full (or too fragmented to satisfy a request)."""


class SequentialAllocator:
    """First-fit contiguous allocation from the front of a partition."""

    def __init__(self, partition: Partition,
                 fragmentation: float = 0.0,
                 rng: Optional[random.Random] = None):
        if not 0.0 <= fragmentation <= 1.0:
            raise ValueError("fragmentation must be within [0, 1]")
        self.partition = partition
        self.fragmentation = fragmentation
        self._rng = rng or random.Random(0xA110C)
        #: Per-file-system inode numbering (0/1 reserved).  A local
        #: counter — not the module-global ``Inode`` default — so a
        #: file system's handles are identical no matter how many other
        #: testbeds the process built first.  The nfsheur table hashes
        #: the handle id, so this is what makes a run's results a pure
        #: function of its config and seed (and lets ``--jobs`` parallel
        #: repeats reproduce serial output byte for byte).
        self._inode_numbers = itertools.count(2)
        #: Directory metadata: separate number space (see
        #: :data:`DIR_INODE_BASE`) and a block region growing *down*
        #: from the end of the partition — a stand-in for FFS keeping
        #: directories in their own cylinder-group region.  Data files
        #: land on exactly the blocks a namespace-free file system
        #: would have given them, so growing a directory tree never
        #: relocates anyone's data.
        self._dir_inode_numbers = itertools.count(DIR_INODE_BASE)

        first = -(-partition.first_lba // SECTORS_PER_BLOCK)
        last = partition.end_lba // SECTORS_PER_BLOCK
        self._next_block = first
        self._end_block = last

    # ------------------------------------------------------------------

    @property
    def free_blocks(self) -> int:
        return max(0, self._end_block - self._next_block)

    def allocate(self, name: str, size: int) -> Inode:
        """Allocate ``size`` bytes and return the resulting inode."""
        if size <= 0:
            raise ValueError("cannot allocate an empty file")
        nblocks = -(-size // BLOCK_SIZE)
        extents: List[Extent] = []
        file_block = 0
        remaining = nblocks
        while remaining > 0:
            if self.fragmentation > 0 and \
                    self._rng.random() < self.fragmentation:
                take = min(remaining,
                           max(1, self._rng.randint(1, CHUNK_BLOCKS)))
            else:
                take = remaining
            if take > self.free_blocks:
                raise AllocationError(
                    f"partition {self.partition.name} full allocating "
                    f"{name} ({nblocks} blocks, {self.free_blocks} free)")
            extents.append(Extent(file_block=file_block,
                                  disk_block=self._next_block,
                                  nblocks=take))
            self._next_block += take
            file_block += take
            remaining -= take
            if remaining > 0:
                gap = self._rng.randint(0, MAX_GAP_BLOCKS)
                self._next_block = min(self._next_block + gap,
                                       self._end_block)
        return Inode(name=name, size=size, extents=extents,
                     number=next(self._inode_numbers))

    # ------------------------------------------------------------------
    # Directory metadata (the region at the end of the partition)
    # ------------------------------------------------------------------

    def _take_meta_blocks(self, nblocks: int, name: str) -> int:
        if nblocks > self.free_blocks:
            raise AllocationError(
                f"partition {self.partition.name} full allocating "
                f"directory {name} ({nblocks} blocks, "
                f"{self.free_blocks} free)")
        self._end_block -= nblocks
        return self._end_block

    def allocate_dir(self, name: str) -> Inode:
        """Allocate a one-block directory inode in the metadata region."""
        disk_block = self._take_meta_blocks(1, name)
        extent = Extent(file_block=0, disk_block=disk_block, nblocks=1)
        return Inode(name=name, size=BLOCK_SIZE, extents=[extent],
                     number=next(self._dir_inode_numbers))

    def allocate_journal(self, name: str, nblocks: int) -> Inode:
        """Reserve a contiguous intent-log region in the metadata area.

        The metadata journal lives with the directories at the end of
        the partition (one `_take_meta_blocks` call, so the region is
        contiguous — log appends are sequential writes, as on a real
        disk).  Numbered from the directory inode space: it is
        metadata, and must never collide with a data file's handle.
        """
        if nblocks < 1:
            raise ValueError("journal needs at least one block")
        disk_block = self._take_meta_blocks(nblocks, name)
        extent = Extent(file_block=0, disk_block=disk_block,
                        nblocks=nblocks)
        return Inode(name=name, size=nblocks * BLOCK_SIZE,
                     extents=[extent],
                     number=next(self._dir_inode_numbers))

    def extend_dir(self, inode: Inode, nblocks: int = 1) -> None:
        """Grow a directory by ``nblocks`` metadata-region blocks."""
        if nblocks < 1:
            raise ValueError("must extend by at least one block")
        disk_block = self._take_meta_blocks(nblocks, inode.name)
        inode.extents.append(Extent(file_block=inode.nblocks,
                                    disk_block=disk_block,
                                    nblocks=nblocks))
        inode.size += nblocks * BLOCK_SIZE
