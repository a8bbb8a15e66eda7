"""The NFS server: an nfsd pool over the FFS read path.

The request pipeline mirrors FreeBSD's ``nfsrv_read``:

1. an RPC arrives and waits for one of the ``nfsd`` daemons (the paper
   runs eight, §4.1);
2. the daemon decodes the call (CPU), looks the file handle up in the
   **nfsheur** table, and feeds the access to the configured
   sequentiality heuristic to obtain a seqCount;
3. the FFS read path fetches the data, performing read-ahead according
   to that seqCount;
4. the daemon builds the reply (CPU proportional to the data copied)
   and hands it to the transport.

Swapping the heuristic or the nfsheur parameters — the paper's §6 and §7
experiments — changes *nothing else* in this pipeline, just as the
authors exploited in the real server.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple, Union

from ..faults.server import CRASH, ServerFaultInjector
from ..ffs import (ENTRIES_PER_BLOCK, Directory, FileSystem, FsckReport,
                   Inode, MetaJournal, scan_and_heal)
from ..host.machine import Machine
from ..kernel.buffercache import BLOCK_SIZE
from ..net.rpc import RpcServer
from ..readahead import DefaultHeuristic, Heuristic
from ..sim import Resource, Simulator
from .fhandle import FileHandle
from .nfsheur import NfsHeurParams, NfsHeurTable
from .protocol import (CommitReply, CommitRequest, CreateReply,
                       CreateRequest, DIRENT_REPLY_BYTES, DirEntry,
                       Fattr, GetattrReply, GetattrRequest, LookupReply,
                       LookupRequest, MkdirReply, MkdirRequest, NFS_OK,
                       NFS_READ_SIZE, READDIR_OVERHEAD_BYTES,
                       ReaddirReply, ReaddirRequest, ReadReply,
                       ReadRequest, RemoveReply, RemoveRequest,
                       RenameReply, RenameRequest, SetattrReply,
                       SetattrRequest, WccAttr, WccData, WriteReply,
                       WriteRequest)


#: nfsd daemons serving requests (the paper runs eight, §4.1).
NFSD_COUNT = 8
#: Fixed CPU cost per call: decode, fh translation, reply build.
CPU_PER_CALL = 0.00008
#: CPU cost per byte of reply data (buffer copies, checksums).
CPU_PER_BYTE = 5.0e-9


@dataclass
class NfsServerConfig:
    """The server settings an experiment varies (see ``TestbedConfig``)."""

    nfsheur_params: NfsHeurParams
    #: Record every READ arrival as a TraceRecord (instrumentation for
    #: the reordering measurements of §6).
    record_trace: bool
    #: Journal CREATE/MKDIR/REMOVE/RENAME intents through the buffer
    #: cache and force them durable before replying (RFC 1813 metadata
    #: stability).  Off reverts to the pre-journal server: namespace
    #: mutations survive crashes they physically should not.
    metadata_journal: bool
    #: BUG-REINTRODUCTION HOOK: acknowledge metadata mutations before
    #: the intent is forced to the platter (the log rides write-behind
    #: and normally dies with the next crash).  Exists so the chaos
    #: no-lost-acked-metadata oracle has a real bug to catch.
    meta_ack_before_intent: bool


@dataclass
class NfsServerStats:
    reads: int = 0
    writes: int = 0
    commits: int = 0
    bytes_served: int = 0
    bytes_written: int = 0
    lookups: int = 0
    lookup_misses: int = 0
    getattrs: int = 0
    setattrs: int = 0
    readdirs: int = 0
    readdir_entries: int = 0
    creates: int = 0
    mkdirs: int = 0
    removes: int = 0
    renames: int = 0
    stale_handles: int = 0
    bad_cookies: int = 0
    meta_intents: int = 0
    meta_commits: int = 0
    meta_replays: int = 0
    meta_undone: int = 0
    #: Retried non-idempotent metadata ops that straddled a reboot and
    #: observably re-executed (answered differently than the pre-boot
    #: acknowledgement) — the cross-boot idempotency oracle's counter.
    cross_boot_meta_reexecutions: int = 0
    seqcount_total: int = 0
    crashes: int = 0
    stalls: int = 0
    dropped_requests: int = 0

    @property
    def mean_seqcount(self) -> float:
        return self.seqcount_total / self.reads if self.reads else 0.0


class NfsServer:
    """Serves the 11 NFSv3 procedures in :attr:`PROCEDURES` — the data
    path with its write verifier, and the namespace with its intent
    log — for one exported file system."""

    def __init__(self, sim: Simulator, machine: Machine, fs: FileSystem,
                 rpc: RpcServer, config: NfsServerConfig,
                 heuristic: Optional[Heuristic] = None,
                 faults: Optional[ServerFaultInjector] = None):
        self.sim = sim
        self.machine = machine
        self.fs = fs
        self.config = config
        self.faults = faults
        #: While ``now < _down_until`` the server is rebooting: requests
        #: are dropped unanswered (clients recover by retransmission).
        self._down_until = 0.0
        #: Incremented per crash; a handler that spans a reboot must not
        #: reply (the request died with the old incarnation's RAM).
        self.boot_epoch = 0
        #: The NFSv3 per-boot write verifier (RFC 1813 §3.3.7): rolls
        #: with every reboot so clients can detect lost unstable writes.
        self.write_verifier = self._verifier_for_epoch(0)
        #: Every RpcServer delivering requests to this server; their
        #: dupreq caches are RAM and die with a crash.
        self._transports: List[RpcServer] = []
        #: Content-token bookkeeping (the chaos oracles' ground truth):
        #: (fh.id, block) -> the token currently readable / on-platter.
        self._volatile: Dict[Tuple[int, int], int] = {}
        self._durable: Dict[Tuple[int, int], int] = {}
        #: Keys whose volatile token has not yet reached stable storage.
        self._unstable: Set[Tuple[int, int]] = set()
        #: While ``now < _stall_until`` new requests wait (nfsd wedge).
        self._stall_until = 0.0
        self.heuristic: Heuristic = heuristic or DefaultHeuristic()
        self.nfsheur = NfsHeurTable(self.config.nfsheur_params)
        self.nfsds = Resource(sim, capacity=NFSD_COUNT)
        self.stats = NfsServerStats()
        registry = sim.obs.registry
        #: Wait for a free nfsd daemon.
        self._m_wait = registry.histogram("nfs.server.nfsd_wait_s")
        #: Server CPU elapsed inside READ handling (incl. queueing).
        self._m_cpu = registry.histogram("nfs.server.cpu_s")
        #: FFS read path elapsed (cache waits + read overhead).
        self._m_fsread = registry.histogram("nfs.server.fsread_s")
        #: Per-operation service time (acquire-to-reply), lazily keyed.
        self._m_service: Dict[str, object] = {}
        #: Arrival trace (populated when config.record_trace is set).
        self.trace = []
        #: Live handles: fh -> the file inode or directory it names.
        #: REMOVE deletes the mapping, so later operations on a retained
        #: handle answer ``stale`` (RFC 1813 NFS3ERR_STALE).
        self._by_fh: Dict[FileHandle, Union[Inode, Directory]] = {}
        #: The metadata intent log (None = pre-journal behaviour).
        self.metajournal: Optional[MetaJournal] = None
        if config.metadata_journal:
            self.metajournal = MetaJournal(fs)
        #: One FsckReport per recovery, in boot order.
        self.recovery_reports: List[FsckReport] = []
        #: Oracle bookkeeping (rides outside payload bytes, like the
        #: content tokens): (client, xid) -> boot epoch of the
        #: successful acknowledgement.  Survives crashes on purpose —
        #: it is the observer's memory, not the server's RAM.
        self._meta_acked: Dict[Tuple[str, int], int] = {}
        self.root_fh = self._export_node(fs.namespace.root)
        self.attach_transport(rpc)
        for name in sorted(fs.files):
            self._export_node(fs.files[name])
            self._install_entry_chain(name)
        if faults is not None and faults.has_events:
            sim.spawn(self._fault_controller(), name="nfs-server.faults")

    # ------------------------------------------------------------------

    @staticmethod
    def _verifier_for_epoch(epoch: int) -> int:
        """A 64-bit verifier value, distinct per boot, seed-independent
        (the real verifier is typically boot time; any injective map of
        the epoch works and keeps runs deterministic)."""
        return (0x6E667376 ^ (epoch * 0x9E3779B97F4A7C15)) \
            & 0xFFFFFFFFFFFFFFFF

    def attach_transport(self, rpc: RpcServer) -> None:
        """Serve requests arriving on ``rpc`` (one per client channel).

        Registering here (rather than calling ``rpc.serve`` directly)
        lets a crash wipe every channel's dupreq cache, which lives in
        the rebooting machine's RAM.
        """
        rpc.serve(self.handle)
        self._transports.append(rpc)

    def _fault_controller(self):
        """Enact the injector's crash/stall timetable."""
        spec = self.faults.spec
        for when, kind in self.faults.schedule():
            if when > self.sim.now:
                yield self.sim.timeout(when - self.sim.now)
            if kind == CRASH:
                self.faults.crashes += 1
                self.stats.crashes += 1
                self._down_until = self.sim.now + spec.restart_delay
                self._crash()
            else:
                self.faults.stalls += 1
                self.stats.stalls += 1
                self._stall_until = max(
                    self._stall_until, self.sim.now + spec.stall_duration)
        return None

    def _crash(self) -> None:
        """Lose everything a reboot loses, in one atomic instant.

        The buffer cache goes (dirty blocks included — an NFS server
        keeps no other hard state), the dupreq caches go, unstable
        tokens revert to their last durable value, and the write
        verifier rolls so clients can tell.
        """
        self.boot_epoch += 1
        self.write_verifier = self._verifier_for_epoch(self.boot_epoch)
        for key in sorted(self._unstable):
            durable = self._durable.get(key)
            if durable is None:
                self._volatile.pop(key, None)
            else:
                self._volatile[key] = durable
        self._unstable.clear()
        if self.metajournal is not None:
            # Namespace recovery: discard un-journaled mutations (undo
            # the volatile log suffix), then fsck the tree and rebuild
            # the stable-storage replay cache from the durable prefix.
            undone, failures = self.metajournal.crash()
            self.stats.meta_undone += undone
            self.recovery_reports.append(scan_and_heal(
                self.fs.namespace, epoch=self.boot_epoch,
                undo_failures=tuple(failures)))
        self.fs.cache.crash()
        for transport in self._transports:
            transport.crash_reset()

    def _sync_and_promote(self, epoch: int):
        """Flush the cache; promote what it held to durable (generator).

        ``fs.cache.sync()`` flushes the *whole* cache, so everything
        volatile at issue time becomes durable — snapshotting at issue
        keeps writes that arrive during the flush correctly unstable.
        Returns False (promoting nothing) if a crash interrupted the
        flush: the data never reached the platter and the caller must
        not claim it did.
        """
        snapshot = sorted(self._volatile.items())
        yield self.fs.cache.sync()
        if self.boot_epoch != epoch:
            return False
        for key, token in snapshot:
            self._durable[key] = token
            if self._volatile.get(key) == token:
                self._unstable.discard(key)
        return True

    # ------------------------------------------------------------------

    @staticmethod
    def _inode_of(node: Union[Inode, Directory]) -> Inode:
        return node.inode if isinstance(node, Directory) else node

    def _export_node(self, node: Union[Inode, Directory]) -> FileHandle:
        """The (stable, idempotent) handle for a live node."""
        fh = FileHandle(id=self._inode_of(node).number)
        self._by_fh[fh] = node
        return fh

    def _unexport(self, node: Union[Inode, Directory]) -> None:
        self._by_fh.pop(FileHandle(id=self._inode_of(node).number), None)

    def _fattr(self, node: Union[Inode, Directory]) -> Fattr:
        inode = self._inode_of(node)
        ftype = "dir" if isinstance(node, Directory) else "reg"
        return Fattr(fileid=inode.number, ftype=ftype, size=inode.size,
                     mtime=inode.mtime, ctime=inode.ctime)

    def _wcc_before(self, node: Union[Inode, Directory]) -> WccAttr:
        inode = self._inode_of(node)
        return WccAttr(size=inode.size, mtime=inode.mtime,
                       ctime=inode.ctime)

    def export_file(self, name: str, size: int) -> FileHandle:
        """Create a file in the underlying FS and export it.

        ``name`` may be a ``/``-separated path; missing intermediate
        directories are created (and become LOOKUP-able)."""
        fh = self._export_node(self.fs.create_file(name, size))
        self._install_entry_chain(name)
        return fh

    def _install_entry_chain(self, path: str) -> None:
        """Warm the directory blocks a LOOKUP of ``path`` walks.

        Export-time file creation writes those blocks, so they are in
        the buffer cache exactly as they would be on a freshly built
        server; without this, the first LOOKUP of an exported name
        would charge a phantom cold read no real fresh testbed pays.
        ``crash()`` still drops them — post-reboot lookups go to disk.
        """
        node: Union[Inode, Directory] = self.fs.namespace.root
        for part in (p for p in path.split("/") if p):
            if not isinstance(node, Directory):
                break
            self.fs.cache.install(node.entry_block(part), 1)
            child = node.entries.get(part)
            if child is None:
                break
            node = child

    def fh_of(self, name: str) -> FileHandle:
        """Handle of an exported path (file or directory)."""
        node = self.fs.namespace.resolve(name)
        return self._export_node(node)

    def exported_files(self):
        """The exported namespace as sorted ``(name, size)`` pairs.

        Enumerates the directory tree's flat file view, so a flat
        export produces exactly the list the pre-namespace server did —
        old trace captures re-export and replay byte-identically.
        """
        return sorted((path, inode.size)
                      for path, inode in self.fs.namespace.walk_files())

    def durable_token(self, fh: FileHandle, block: int) -> int:
        """The content token that would survive a crash right now."""
        return self._durable.get((fh.id, block), 0)

    # ------------------------------------------------------------------

    def handle(self, request, span=None, rpc_key=None):
        """RPC dispatch (generator; returns (reply, payload_bytes)).

        Runs the request's procedure from :attr:`PROCEDURES` on an nfsd
        daemon; a body with no procedure raises ``TypeError``.  Returns
        ``None`` — no reply at all — while the server is down; the RPC
        layer treats that as a dropped request and the client's
        retransmission timer does the rest.  ``span`` is the RPC serve
        span (None when tracing is off); ``rpc_key`` is the request's
        ``(client, xid)`` identity, which the metadata journal stores so
        a retried non-idempotent op that straddles a reboot can be
        answered from the recovered log instead of re-executed (the RAM
        dupreq cache died with the boot).
        """
        entry = self.PROCEDURES.get(type(request))
        if entry is None:
            raise TypeError(f"unsupported NFS request {request!r}")
        procedure, journaled = entry
        if self.sim.now < self._down_until:
            self.stats.dropped_requests += 1
            return None
        epoch = self.boot_epoch
        if self.sim.now < self._stall_until:
            yield self.sim.timeout(self._stall_until - self.sim.now)
        op = type(request).__name__
        service = self._m_service.get(op)
        if service is None:
            service = self._m_service[op] = \
                self.sim.obs.registry.histogram(f"nfs.server.service_s.{op}")
        queued = self.sim.now
        if not self.nfsds.try_acquire():
            yield self.nfsds.acquire()
        self._m_wait.observe(self.sim.now - queued)
        tracer = self.sim.obs.tracer
        if tracer.enabled:
            nfsd_span = tracer.start(f"nfsd:{op}", "server.nfsd",
                                     parent=span)
            prov = self.sim.obs.prov
            if prov.enabled and span is not None:
                # Pool occupancy at slot grant: how contended this op's
                # nfsd slot was (pure reads of resource state).
                prov.note(nfsd_span, nfsds_busy=self.nfsds.in_use,
                          nfsds_queued=self.nfsds.queued)
        else:
            nfsd_span = None
        started = self.sim.now
        try:
            replayed = None
            if journaled and rpc_key is not None \
                    and self.metajournal is not None:
                replayed = self.metajournal.replay_reply(rpc_key)
            if journaled and self.boot_epoch != epoch:
                # The stall (or the nfsd queue) carried this request
                # across a reboot.  A real server lost it with its RAM,
                # so it must not execute now: a non-idempotent op would
                # mutate the namespace durably while its reply is
                # dropped by the epoch guard below — a silent mutation
                # no retransmission can be answered for.  Idempotent
                # data ops re-execute harmlessly and keep the pre-PR
                # contract, so only metadata is gated.
                reply = None
            elif replayed is not None:
                # The durable intent log remembers acknowledging this
                # exact (client, xid) before a reboot: re-serve the
                # recorded reply rather than re-executing the op.
                yield from self.machine.execute(CPU_PER_CALL)
                self.stats.meta_replays += 1
                reply = replayed
            else:
                reply = yield from procedure(self, request, nfsd_span,
                                             rpc_key)
        finally:
            self.nfsds.release()
            service.observe(self.sim.now - started)
            if nfsd_span is not None:
                nfsd_span.finish()
        if reply is None or self.boot_epoch != epoch:
            # The handler spanned a reboot: the request's state died
            # with the old incarnation, so no reply leaves the server —
            # the client's retransmission executes afresh.
            self.stats.dropped_requests += 1
            return None
        if journaled and rpc_key is not None:
            acked = self._meta_acked.get(rpc_key)
            ok = self._meta_reply_ok(reply)
            if acked is not None and acked < epoch and not ok:
                # Acked before a reboot, answered differently after it:
                # the op silently re-executed (removed a file that the
                # pre-boot REMOVE already removed, ...).  This is the
                # trap the stable-storage replay cache exists to close.
                self.stats.cross_boot_meta_reexecutions += 1
            if ok:
                self._meta_acked[rpc_key] = epoch
        return reply, reply.payload_bytes

    def _live(self, fh: FileHandle, kind: Optional[str] = None):
        """The node ``fh`` names and the status a procedure answers.

        ``stale`` (counted) when the handle is dead; ``notdir`` or
        ``isdir`` when ``kind`` (``"dir"`` or ``"reg"``) names the other
        node type; ``ok`` otherwise.
        """
        node = self._by_fh.get(fh)
        if node is None:
            self.stats.stale_handles += 1
            return None, "stale"
        if kind is not None \
                and isinstance(node, Directory) != (kind == "dir"):
            return node, "notdir" if kind == "dir" else "isdir"
        return node, NFS_OK

    def _read(self, request: ReadRequest, span, rpc_key):
        if self.config.record_trace:
            from ..trace import TraceRecord
            self.trace.append(TraceRecord(
                time=self.sim.now, fh=request.fh, offset=request.offset,
                count=request.count, client_seq=request.seq))
        started = self.sim.now
        yield from self.machine.execute(CPU_PER_CALL / 2)
        self._m_cpu.observe(self.sim.now - started)
        inode, status = self._live(request.fh, "reg")
        if status != NFS_OK:
            return ReadReply(fh=request.fh, offset=request.offset,
                             count=0, eof=True, status=status)
        state = self.nfsheur.lookup(request.fh, request.offset)
        seq_count = self.heuristic.observe(
            state, request.offset, request.count, self.sim.now,
            fh=request.fh)
        self.stats.seqcount_total += seq_count
        tracer = self.sim.obs.tracer
        if tracer.enabled:
            heur_span = tracer.start("nfsheur", "server.readahead",
                                     parent=span, file=inode.name,
                                     seq_count=seq_count)
            heur_span.finish()
        started = self.sim.now
        got = yield from self.fs.read_with_seqcount(
            inode, request.offset, request.count, seq_count,
            stream=request.fh, span=span)
        self._m_fsread.observe(self.sim.now - started)
        started = self.sim.now
        yield from self.machine.execute(
            CPU_PER_CALL / 2 + got * CPU_PER_BYTE)
        self._m_cpu.observe(self.sim.now - started)
        self.stats.reads += 1
        self.stats.bytes_served += got
        eof = request.offset + got >= inode.size
        if self._volatile and got > 0:
            bs = NFS_READ_SIZE
            first = request.offset // bs
            last = (request.offset + got - 1) // bs
            data = tuple(self._volatile.get((request.fh.id, block), 0)
                         for block in range(first, last + 1))
        else:
            data = ()
        return ReadReply(fh=request.fh, offset=request.offset,
                         count=got, eof=eof, data=data)

    def _write(self, request: WriteRequest, span, rpc_key):
        """NFSv3 WRITE: data lands in the buffer cache (UNSTABLE) or is
        forced to the platter before replying (FILE_SYNC).

        Token bookkeeping follows the data's real journey: tokens go
        volatile+unstable as soon as the cache holds them, and become
        durable only once a flush completes *in the same boot epoch* —
        the server never acknowledges stability it cannot honour.
        """
        epoch = self.boot_epoch
        yield from self.machine.execute(
            CPU_PER_CALL + request.count * CPU_PER_BYTE)
        if self.boot_epoch != epoch:
            return None
        inode, status = self._live(request.fh, "reg")
        if status != NFS_OK:
            return WriteReply(fh=request.fh, offset=request.offset,
                              count=0, status=status)
        got = yield from self.fs.write(inode, request.offset,
                                       request.count, stream=request.fh)
        if self.boot_epoch != epoch:
            return None
        if request.datum:
            bs = NFS_READ_SIZE
            first = request.offset // bs
            for index, token in enumerate(request.datum):
                key = (request.fh.id, first + index)
                self._volatile[key] = token
                self._unstable.add(key)
        if request.stable:
            ok = yield from self._sync_and_promote(epoch)
            if not ok:
                return None
        self.stats.writes += 1
        self.stats.bytes_written += got
        return WriteReply(fh=request.fh, offset=request.offset,
                          count=got, stable=request.stable,
                          verifier=self.write_verifier)

    def _commit(self, request: CommitRequest, span, rpc_key):
        """NFSv3 COMMIT: flush unstable writes to stable storage and
        report the write verifier the client must compare."""
        epoch = self.boot_epoch
        yield from self.machine.execute(CPU_PER_CALL)
        if self.boot_epoch != epoch:
            return None
        _node, status = self._live(request.fh)
        if status != NFS_OK:
            return CommitReply(fh=request.fh, status=status)
        ok = yield from self._sync_and_promote(epoch)
        if not ok:
            return None
        self.stats.commits += 1
        return CommitReply(fh=request.fh, verifier=self.write_verifier)

    # ------------------------------------------------------------------
    # Metadata journalling (intent-before-mutation, commit-before-reply)
    # ------------------------------------------------------------------

    @staticmethod
    def _meta_reply_ok(reply) -> bool:
        """Would the client treat ``reply`` as success?  ``ok`` —
        plus the mkdir-retry tolerance, where ``exist`` with a handle
        is how a replayed MKDIR hands back the directory it made."""
        if reply.status == "ok":
            return True
        return (isinstance(reply, MkdirReply)
                and reply.status == "exist" and reply.fh is not None)

    def _log_intent(self, kind: str, paths: Tuple[str, ...], rpc_key):
        """Log a namespace mutation's intent before applying it (the
        record, or None when the server runs without the journal)."""
        if self.metajournal is None:
            return None
        self.stats.meta_intents += 1
        return self.metajournal.append(kind, paths, rpc_key)

    def _commit_meta(self, record, undo, reply, epoch: int):
        """Mark ``record`` applied with its ``undo``, attach ``reply``
        and force the record to the platter before the reply leaves
        (generator; returns ``reply``, or None when a crash interposed —
        the mutation was already undone and no reply may be sent)."""
        if record is None:
            return reply
        journal = self.metajournal
        journal.mark_applied(record, undo)
        journal.set_reply(record, reply)
        if self.config.meta_ack_before_intent:
            # BUG-REINTRODUCTION HOOK: ack immediately; the intent
            # stays write-behind and races the next crash.
            return reply
        self.stats.meta_commits += 1
        ok = yield from journal.commit(record)
        return reply if ok and self.boot_epoch == epoch else None

    def _undo_create(self, directory: Directory, name: str,
                     inode: Inode, path: str):
        def undo():
            if directory.entries.get(name) is inode:
                directory.drop(name)
            self.fs.namespace.files.pop(path, None)
            self._unexport(inode)
        return undo

    def _undo_mkdir(self, directory: Directory, name: str,
                    child: Directory):
        def undo():
            if directory.entries.get(name) is child:
                directory.drop(name)
            self._unexport(child)
        return undo

    def _undo_remove(self, directory: Directory, name: str,
                     child: Inode, path: str):
        def undo():
            ns = self.fs.namespace
            if name not in directory.entries:
                ns._insert(directory, name, child)
            ns.files[path] = child
            self._export_node(child)
        return undo

    def _undo_rename(self, src: str, dst: str, moved, replaced):
        def undo():
            ns = self.fs.namespace
            ns.rename(dst, src)
            if replaced is not None:
                parent, name = ns.parent_of(dst)
                ns._insert(parent, name, replaced)
                if isinstance(replaced, Directory):
                    replaced.inode.name = dst
                else:
                    ns.files[dst] = replaced
                    replaced.name = dst
                self._export_node(replaced)
        return undo

    # ------------------------------------------------------------------
    # Directory I/O: the disk traffic metadata operations really cost.
    # ------------------------------------------------------------------

    def _dir_read(self, blocks, span=None):
        """Wait until the given directory block runs are resident.

        Warm blocks cost nothing — :meth:`BufferCache.touch` counts the
        hit without scheduling an event, so a fully cached walk leaves
        the simulation's event order untouched.
        """
        cache = self.fs.cache
        waits = []
        for disk_block, run in blocks:
            if all(disk_block + i in cache for i in range(run)):
                for i in range(run):
                    cache.touch(disk_block + i)
                continue
            waits.append(cache.read(disk_block, run, stream="dirmeta",
                                    parent=span))
        for wait in waits:
            yield wait

    def _dir_read_entry(self, directory: Directory, name: str,
                        span=None):
        """Read the one block holding ``name``'s directory slot."""
        blkno = directory.entry_block(name)
        if self.fs.cache.touch(blkno):
            return
        yield self.fs.cache.read(blkno, 1, stream="dirmeta", parent=span)

    def _dir_write_slot(self, directory: Directory, slot: int) -> None:
        """Dirty the block holding ``slot`` (write-behind, no wait)."""
        disk_block = directory.inode.map_range(
            slot // ENTRIES_PER_BLOCK, 1)[0][0]
        self.fs.cache.write(disk_block, 1, stream="dirmeta")

    # ------------------------------------------------------------------
    # Namespace procedures (RFC 1813)
    # ------------------------------------------------------------------

    def _lookup(self, request: LookupRequest, span, rpc_key):
        """LOOKUP: walk ``name`` (one component, or a ``/`` path for
        the legacy flat-open) under ``dir``, charging one directory
        block read per component hit; a miss costs a full scan of the
        directory — exactly why cold lookups over a 50k-entry
        directory are a string of 8 KiB reads."""
        yield from self.machine.execute(CPU_PER_CALL)
        self.stats.lookups += 1
        if request.dir is None:
            node = self.fs.namespace.root
        else:
            node, status = self._live(request.dir)
            if status != NFS_OK:
                return LookupReply(fh=None, size=0, status=status)
        searched: Optional[Directory] = \
            node if isinstance(node, Directory) else None
        for part in (p for p in request.name.split("/") if p):
            if not isinstance(node, Directory):
                return LookupReply(
                    fh=None, size=0, status="notdir",
                    dir_attributes=(self._fattr(searched)
                                    if searched else None))
            searched = node
            child = node.entries.get(part)
            if child is None:
                yield from self._dir_read(node.all_blocks())
                self.stats.lookup_misses += 1
                return LookupReply(fh=None, size=0, status="noent",
                                   dir_attributes=self._fattr(node))
            yield from self._dir_read_entry(node, part)
            node = child
        return LookupReply(
            fh=self._export_node(node), size=self._inode_of(node).size,
            attributes=self._fattr(node),
            dir_attributes=(self._fattr(searched)
                            if searched is not None else None))

    def _getattr(self, request: GetattrRequest, span, rpc_key):
        yield from self.machine.execute(CPU_PER_CALL)
        self.stats.getattrs += 1
        node, status = self._live(request.fh)
        if status != NFS_OK:
            return GetattrReply(fh=request.fh, size=0, status=status)
        return GetattrReply(fh=request.fh,
                            size=self._inode_of(node).size,
                            attributes=self._fattr(node))

    def _setattr(self, request: SetattrRequest, span, rpc_key):
        yield from self.machine.execute(CPU_PER_CALL)
        node, status = self._live(request.fh)
        if status != NFS_OK:
            return SetattrReply(fh=request.fh, status=status)
        before = self._wcc_before(node)
        inode = self._inode_of(node)
        now = self.sim.now
        if request.size is not None:
            # Truncate within the allocation; growing past it would
            # need block allocation the write path doesn't model.
            capacity = inode.nblocks * BLOCK_SIZE
            inode.size = min(request.size, capacity)
        inode.mtime = request.mtime if request.mtime is not None else now
        inode.ctime = now
        self.stats.setattrs += 1
        return SetattrReply(fh=request.fh,
                            wcc=WccData(before=before,
                                        after=self._fattr(node)))

    def _readdir(self, request: ReaddirRequest, span, rpc_key):
        """READDIR: slot-ordered entries, chunked to the
        request's ``count`` byte budget; cookies resume, and a stale
        cookie verifier (the directory mutated) answers
        ``bad_cookie``."""
        yield from self.machine.execute(CPU_PER_CALL)
        node, status = self._live(request.dir, "dir")
        if status != NFS_OK:
            return ReaddirReply(dir=request.dir, status=status)
        verf = node.mutations
        if request.cookie != 0 and request.cookieverf != verf:
            self.stats.bad_cookies += 1
            return ReaddirReply(dir=request.dir, status="bad_cookie",
                                cookieverf=verf)
        budget = max(1, (request.count - READDIR_OVERHEAD_BYTES)
                     // DIRENT_REPLY_BYTES)
        pending = [pair for pair in node.sorted_slots()
                   if pair[0] >= request.cookie]
        selected = pending[:budget]
        eof = len(pending) <= budget
        if selected:
            first, last = selected[0][0], selected[-1][0]
            yield from self._dir_read(
                node.slot_blocks(first, last - first + 1))
        entries = tuple(
            DirEntry(fileid=self._inode_of(node.entries[name]).number,
                     name=name, cookie=slot + 1)
            for slot, name in selected)
        reply = ReaddirReply(dir=request.dir, entries=entries,
                             eof=eof, cookieverf=verf)
        yield from self.machine.execute(
            reply.payload_bytes * CPU_PER_BYTE)
        self.stats.readdirs += 1
        self.stats.readdir_entries += len(entries)
        return reply

    def _create(self, request: CreateRequest, span, rpc_key):
        epoch = self.boot_epoch
        yield from self.machine.execute(CPU_PER_CALL)
        directory, status = self._live(request.dir, "dir")
        if status != NFS_OK:
            return CreateReply(fh=None, status=status)
        before = self._wcc_before(directory)
        existing = directory.entries.get(request.name)
        if existing is not None:
            yield from self._dir_read_entry(directory, request.name)
            wcc = WccData(before=before, after=self._fattr(directory))
            if isinstance(existing, Directory):
                return CreateReply(fh=None, status="isdir", dir_wcc=wcc)
            if request.exclusive:
                return CreateReply(fh=None, status="exist", dir_wcc=wcc)
            # UNCHECKED: an existing file satisfies the call — also
            # what makes a dupreq-missed CREATE retry harmless.
            return CreateReply(fh=self._export_node(existing),
                               attributes=self._fattr(existing),
                               dir_wcc=wcc)
        if self.boot_epoch != epoch:
            # A reboot interposed during the yields above: this boot
            # never saw the request, so the mutation must not happen
            # (the dropped reply would leave it silent and durable).
            return None
        path = self.fs.namespace.join(directory, request.name)
        record = self._log_intent("create", (path,), rpc_key)
        inode = self.fs.namespace.create_in(
            directory, request.name, request.size, now=self.sim.now)
        self._dir_write_slot(directory, directory.slots[request.name])
        self.stats.creates += 1
        reply = CreateReply(fh=self._export_node(inode),
                            attributes=self._fattr(inode),
                            dir_wcc=WccData(before=before,
                                            after=self._fattr(directory)))
        return (yield from self._commit_meta(
            record, self._undo_create(directory, request.name, inode,
                                      path), reply, epoch))

    def _mkdir(self, request: MkdirRequest, span, rpc_key):
        epoch = self.boot_epoch
        yield from self.machine.execute(CPU_PER_CALL)
        directory, status = self._live(request.dir, "dir")
        if status != NFS_OK:
            return MkdirReply(fh=None, status=status)
        before = self._wcc_before(directory)
        existing = directory.entries.get(request.name)
        if existing is not None:
            yield from self._dir_read_entry(directory, request.name)
            wcc = WccData(before=before, after=self._fattr(directory))
            if isinstance(existing, Directory):
                # mkdir -p semantics for retries: hand back the dir.
                return MkdirReply(fh=self._export_node(existing),
                                  status="exist",
                                  attributes=self._fattr(existing),
                                  dir_wcc=wcc)
            return MkdirReply(fh=None, status="exist", dir_wcc=wcc)
        if self.boot_epoch != epoch:
            return None  # reboot interposed mid-handler (see _create)
        path = self.fs.namespace.join(directory, request.name)
        record = self._log_intent("mkdir", (path,), rpc_key)
        child = self.fs.namespace.mkdir_in(directory, request.name,
                                           now=self.sim.now)
        self._dir_write_slot(directory, directory.slots[request.name])
        self.stats.mkdirs += 1
        reply = MkdirReply(fh=self._export_node(child),
                           attributes=self._fattr(child),
                           dir_wcc=WccData(before=before,
                                           after=self._fattr(directory)))
        return (yield from self._commit_meta(
            record, self._undo_mkdir(directory, request.name, child),
            reply, epoch))

    def _remove(self, request: RemoveRequest, span, rpc_key):
        epoch = self.boot_epoch
        yield from self.machine.execute(CPU_PER_CALL)
        directory, status = self._live(request.dir, "dir")
        if status != NFS_OK:
            return RemoveReply(status=status)
        before = self._wcc_before(directory)
        child = directory.entries.get(request.name)
        if child is None:
            yield from self._dir_read(directory.all_blocks())
            return RemoveReply(status="noent",
                               dir_wcc=WccData(
                                   before=before,
                                   after=self._fattr(directory)))
        if isinstance(child, Directory):
            return RemoveReply(status="isdir",
                               dir_wcc=WccData(
                                   before=before,
                                   after=self._fattr(directory)))
        slot = directory.slots[request.name]
        yield from self._dir_read_entry(directory, request.name)
        if self.boot_epoch != epoch:
            return None  # reboot interposed mid-handler (see _create)
        path = self.fs.namespace.join(directory, request.name)
        record = self._log_intent("remove", (path,), rpc_key)
        self.fs.namespace.remove_in(directory, request.name,
                                    now=self.sim.now)
        self._dir_write_slot(directory, slot)
        # The handle dies with the file: retained copies answer stale.
        self._unexport(child)
        self.stats.removes += 1
        reply = RemoveReply(dir_wcc=WccData(before=before,
                                            after=self._fattr(directory)))
        return (yield from self._commit_meta(
            record, self._undo_remove(directory, request.name, child,
                                      path), reply, epoch))

    def _rename(self, request: RenameRequest, span, rpc_key):
        epoch = self.boot_epoch
        yield from self.machine.execute(CPU_PER_CALL)
        from_node, status = self._live(request.from_dir)
        if status == NFS_OK:
            to_node, status = self._live(request.to_dir)
        if status == NFS_OK and not (isinstance(from_node, Directory)
                                     and isinstance(to_node, Directory)):
            status = "notdir"
        if status != NFS_OK:
            return RenameReply(status=status)
        from_before = self._wcc_before(from_node)
        to_before = self._wcc_before(to_node)

        def wccs():
            return dict(
                from_wcc=WccData(before=from_before,
                                 after=self._fattr(from_node)),
                to_wcc=WccData(before=to_before,
                               after=self._fattr(to_node)))

        if request.from_name not in from_node.entries:
            yield from self._dir_read(from_node.all_blocks())
            return RenameReply(status="noent", **wccs())
        yield from self._dir_read_entry(from_node, request.from_name)
        if request.to_name in to_node.entries:
            yield from self._dir_read_entry(to_node, request.to_name)
        from_slot = from_node.slots[request.from_name]
        if self.boot_epoch != epoch:
            return None  # reboot interposed mid-handler (see _create)
        src = self.fs.namespace.join(from_node, request.from_name)
        dst = self.fs.namespace.join(to_node, request.to_name)
        record = self._log_intent("rename", (src, dst), rpc_key)
        try:
            moved, replaced = self.fs.namespace.rename_in(
                from_node, request.from_name, to_node, request.to_name,
                now=self.sim.now)
        except IsADirectoryError:
            # The intent was logged but never applied; crash recovery
            # skips !applied records, so the aborted rename is inert.
            return RenameReply(status="isdir", **wccs())
        except NotADirectoryError:
            return RenameReply(status="notdir", **wccs())
        except OSError:  # ENOTEMPTY: target directory not empty
            return RenameReply(status="notempty", **wccs())
        if replaced is not None:
            # The replaced node's handle is dead; the moved node keeps
            # its own handle (re-export is an idempotent overwrite).
            self._unexport(replaced)
            self._export_node(moved)
        self._dir_write_slot(from_node, from_slot)
        self._dir_write_slot(to_node, to_node.slots[request.to_name])
        self.stats.renames += 1
        return (yield from self._commit_meta(
            record, self._undo_rename(src, dst, moved, replaced),
            RenameReply(**wccs()), epoch))

    #: Request type -> (procedure, journaled).  Every procedure is a
    #: generator taking ``(request, span, rpc_key)`` and returning its
    #: reply, or None when a reboot interposed; the journaled ones are
    #: the non-idempotent namespace mutations the intent log covers.
    PROCEDURES = {
        ReadRequest: (_read, False), WriteRequest: (_write, False),
        CommitRequest: (_commit, False), LookupRequest: (_lookup, False),
        GetattrRequest: (_getattr, False),
        SetattrRequest: (_setattr, False),
        ReaddirRequest: (_readdir, False),
        CreateRequest: (_create, True), MkdirRequest: (_mkdir, True),
        RemoveRequest: (_remove, True), RenameRequest: (_rename, True),
    }
