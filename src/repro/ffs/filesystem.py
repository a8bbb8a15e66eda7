"""The FFS read path: sequentiality metric, clustering, read-ahead.

Two entry points:

* :meth:`FileSystem.read` — the local path.  A :class:`FileHandle`
  carries per-open-file heuristic state, exactly as the vnode does in
  FFS; the default heuristic estimates sequentiality and the file system
  performs cluster read-ahead accordingly (§1: "FFS ... estimates the
  sequentiality of the access pattern and, if the pattern appears to be
  sequential, performs read-ahead").

* :meth:`FileSystem.read_with_seqcount` — the NFS server path.  NFS v2/3
  are stateless, so the *server* supplies the seqCount it derived from
  its nfsheur table and this layer just honours it.  Keeping the metric
  computation "isolated from the rest of the code" is the very property
  of the FreeBSD implementation the authors used as their testbed (§1).

Both are generator processes: callers ``yield from`` them inside a
simulation process.
"""

from __future__ import annotations

from typing import Any

from ..kernel.buffercache import BLOCK_SIZE, BufferCache
from ..readahead import DefaultHeuristic, ReadState, readahead_blocks
from ..sim import Simulator
from .allocator import SequentialAllocator
from .inode import Inode
from .namespace import Namespace

#: How far ahead of a reader the file system will fetch, in blocks (the
#: "fixed limit" of §5.4).
MAX_READAHEAD_BLOCKS = 16
#: Read-ahead I/O granularity: read-ahead is issued in cluster-sized
#: chunks (vfs_cluster style), not block by block — one 64 KiB disk
#: command per cluster instead of a dribble of 8 KiB commands.
CLUSTER_BLOCKS = 8
#: Per-read CPU cost charged before data is returned (copyout etc.).
READ_OVERHEAD = 0.00003


class FileHandle:
    """An open file: inode plus per-open heuristic state."""

    __slots__ = ("inode", "state", "reads", "bytes_read")

    def __init__(self, inode: Inode):
        self.inode = inode
        self.state = ReadState()
        self.reads = 0
        self.bytes_read = 0

    def __repr__(self) -> str:
        return f"<FileHandle {self.inode.name} seq={self.state.seq_count}>"


class FileSystem:
    """An FFS-like file system bound to one buffer cache and partition."""

    def __init__(self, sim: Simulator, cache: BufferCache,
                 allocator: SequentialAllocator):
        self.sim = sim
        self.cache = cache
        self.allocator = allocator
        self.heuristic = DefaultHeuristic()
        #: The hierarchical directory tree; ``files`` is its flat view
        #: (full path -> inode of every regular file), preserving the
        #: original flat-namespace API for all existing callers.
        self.namespace = Namespace(self)
        self.files = self.namespace.files
        #: Time a read spends parked on buffer-cache fill events.
        self._m_cache_wait = sim.obs.registry.histogram("ffs.cache_wait_s")

    # ------------------------------------------------------------------
    # Namespace
    # ------------------------------------------------------------------

    def create_file(self, name: str, size: int) -> Inode:
        """Allocate a file filled with (simulated) non-zero data.

        ``name`` may be a ``/``-separated path; missing intermediate
        directories are created (replayed traces re-export nested
        filesets this way).
        """
        if name in self.files:
            raise ValueError(f"file {name!r} already exists")
        parts = name.split("/")
        if len(parts) > 1:
            self.namespace.makedirs("/".join(parts[:-1]))
        return self.namespace.create(name, size)

    def lookup(self, name: str) -> Inode:
        try:
            return self.files[name]
        except KeyError:
            raise FileNotFoundError(name) from None

    def open(self, inode: Inode) -> FileHandle:
        return FileHandle(inode)

    # ------------------------------------------------------------------
    # Read paths
    # ------------------------------------------------------------------

    def read(self, handle: FileHandle, offset: int, nbytes: int,
             span=None):
        """Local read (generator).  Returns bytes actually read."""
        seq_count = self.heuristic.observe(
            handle.state, offset, nbytes, self.sim.now)
        got = yield from self.read_with_seqcount(
            handle.inode, offset, nbytes, seq_count,
            stream=handle.inode.name, span=span)
        handle.reads += 1
        handle.bytes_read += got
        return got

    def read_with_seqcount(self, inode: Inode, offset: int, nbytes: int,
                           seq_count: int, stream: Any = None, span=None):
        """Read with an externally supplied sequentiality count.

        Generator; returns the number of bytes read (clamped at EOF).
        Blocks the caller until the requested range is resident, and
        fires off asynchronous read-ahead according to ``seq_count``.
        ``span`` is an optional tracing parent for the cache fetches.
        """
        if offset < 0 or nbytes <= 0:
            raise ValueError("bad read range")
        if offset >= inode.size:
            return 0
        nbytes = min(nbytes, inode.size - offset)
        first_block = offset // BLOCK_SIZE
        last_block = (offset + nbytes - 1) // BLOCK_SIZE
        demand_blocks = last_block - first_block + 1

        waits = []
        for disk_block, run in inode.map_range(first_block, demand_blocks):
            waits.append(self.cache.read(disk_block, run, stream=stream,
                                         parent=span))

        self._issue_readahead(inode, last_block + 1, seq_count, stream,
                              parent=span)

        started = self.sim.now
        for wait in waits:
            yield wait
        self._m_cache_wait.observe(self.sim.now - started)
        yield self.sim.timeout(READ_OVERHEAD)
        return nbytes

    def write(self, inode: Inode, offset: int, nbytes: int,
              stream: Any = None):
        """Write into an existing file (generator; returns bytes).

        Data lands in the buffer cache and is written back
        asynchronously (write-behind); the caller pays only the copy
        cost.  Writes are clamped at the file's allocated size — the
        read benchmarks never grow files, and §8's write workloads
        overwrite in place.
        """
        if offset < 0 or nbytes <= 0:
            raise ValueError("bad write range")
        if offset >= inode.size:
            return 0
        nbytes = min(nbytes, inode.size - offset)
        first_block = offset // BLOCK_SIZE
        last_block = (offset + nbytes - 1) // BLOCK_SIZE
        for disk_block, run in inode.map_range(
                first_block, last_block - first_block + 1):
            self.cache.write(disk_block, run, stream=stream)
        yield self.sim.timeout(READ_OVERHEAD)
        return nbytes

    def sync(self):
        """Flush dirty data to disk (generator)."""
        yield self.cache.sync()
        return None

    def _issue_readahead(self, inode: Inode, next_block: int,
                         seq_count: int, stream: Any,
                         parent=None) -> None:
        """Fire-and-forget read-ahead past ``next_block``.

        Read-ahead is issued in cluster-aligned chunks: a chunk is sent
        to the cache only when none of its blocks are already resident
        or in flight, so a sequential stream generates one cluster-sized
        disk command per cluster of progress rather than a trickle of
        single-block commands.
        """
        depth = readahead_blocks(seq_count, MAX_READAHEAD_BLOCKS)
        if depth == 0:
            return
        file_blocks = -(-inode.size // BLOCK_SIZE)
        window_end = min(next_block + depth, file_blocks)
        if window_end <= next_block:
            return
        cluster = CLUSTER_BLOCKS
        first_cluster = next_block // cluster
        last_cluster = (window_end - 1) // cluster
        tracer = self.sim.obs.tracer
        for cluster_index in range(first_cluster, last_cluster + 1):
            start = max(cluster_index * cluster, next_block)
            end = min((cluster_index + 1) * cluster, file_blocks)
            if end <= start:
                continue
            if self._chunk_pending(inode, start, end - start):
                continue
            if tracer.enabled:
                ra_span = tracer.start("readahead", "server.readahead",
                                       parent=parent, blocks=end - start,
                                       seq_count=seq_count)
            else:
                ra_span = None
            for disk_block, run in inode.map_range(start, end - start):
                self.cache.read(disk_block, run, stream=stream,
                                parent=ra_span)
            if ra_span is not None:
                ra_span.finish()

    def _chunk_pending(self, inode: Inode, start: int, nblocks: int
                       ) -> bool:
        """True if every block of the chunk is resident or in flight."""
        for disk_block, run in inode.map_range(start, nblocks):
            for blkno in range(disk_block, disk_block + run):
                if not self.cache.resident_or_inflight(blkno):
                    return False
        return True
