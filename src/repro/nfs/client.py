"""The NFS client: block cache, read-ahead, and the nfsiod pool.

The client path mirrors FreeBSD's ``nfs_bioread``:

* application reads are served from a per-mount block cache;
* a miss sends a synchronous READ from the calling process itself;
* when the client-side sequentiality heuristic says the pattern is
  sequential, read-ahead for upcoming blocks is handed to the
  **nfsiod** daemons — eight of them in the paper's setup (§4.1).  If
  no daemon is free the read-ahead is simply skipped, as in the real
  client.

The nfsiod pool is where the paper's request reordering is born (§6):
each daemon marshals its request independently and the race to the wire
(scheduling jitter, CPU contention) can invert the order in which
requests were queued.  Over UDP each datagram stands alone, so wire
order *is* arrival order at the server; over TCP everything funnels
through one ordered stream written at dequeue time, which is why the
authors could not push TCP reordering past ~2 % while UDP reached 6 %.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

from ..host.machine import Machine
from ..net.rpc import RpcClient, RpcTimeout
from ..obs.provenance import EDGE_COALESCED_WITH, EDGE_SERVED_FROM_CACHE
from ..readahead import DefaultHeuristic, ReadState, readahead_blocks
from ..sim import Event, Resource, Simulator
from ..trace.records import (OP_COMMIT, OP_CREATE, OP_GETATTR, OP_MKDIR,
                             OP_OPEN, OP_READ, OP_READDIR, OP_REMOVE,
                             OP_RENAME, OP_SETATTR, OP_STAT, OP_WRITE)
from .errors import NfsBadCookieError, NfsTimeoutError, raise_for_status
from .fhandle import FileHandle
from .protocol import (CommitRequest, CreateRequest, Fattr,
                       GetattrRequest, LookupRequest, MkdirRequest,
                       NFS_OK, NFS_READ_SIZE, REPLY_TYPES, ReaddirRequest,
                       ReadRequest, RemoveRequest, RenameRequest,
                       SetattrRequest, WriteRequest)


#: Client read-ahead depth, in blocks.
READAHEAD_BLOCKS = 4
#: nfsiod daemons carrying asynchronous reads and writes (eight in the
#: paper's setup, §4.1).
NFSIOD_COUNT = 8
#: CPU to marshal one call (XDR encode, socket send).
MARSHAL_CPU = 0.00005
#: CPU to process one reply (mbuf chain walk, copy into cache).
RECEIVE_CPU = 0.00008
#: Extra per-call CPU on the TCP path (stream handling, RPC record
#: marking) — TCP is the heavier transport end to end.
TCP_EXTRA_CPU = 0.00010


@dataclass
class NfsMountConfig:
    """Client-side mount parameters.

    ``transport`` is the paper's headline mount option (§5.4): "udp"
    (the ``mount_nfs`` default) or "tcp" (the ``amd`` default on
    FreeBSD).
    """

    transport: str
    read_size: int
    #: NFSv3 write-verifier recovery: track every unstable write until
    #: COMMIT confirms it under an unchanged verifier, re-sending when
    #: the verifier rolls (a server reboot discarded the data).  This is
    #: the protocol-mandated behaviour; turning it off reproduces a
    #: client that trusts UNSTABLE acks across reboots — the chaos
    #: engine's no-lost-acked-data oracle catches exactly that bug.
    verifier_recovery: bool
    #: Attribute-cache windows (``acregmin``/``acregmax`` for files,
    #: ``acdirmin``/``acdirmax`` for directories): cached attributes
    #: live for ``clamp((now - mtime)/10, acmin, acmax)`` seconds, the
    #: classic heuristic.  ``acregmax=0`` disables file attribute
    #: caching (``noac``-for-files); ``acdirmax=0`` disables the name
    #: cache's validity window, forcing a LOOKUP per component — the
    #: lookup-storm configuration.
    acregmin: float
    acregmax: float
    acdirmin: float
    acdirmax: float
    #: READDIR reply byte budget per RPC (the chunking knob).
    readdir_count: int


@dataclass
class NfsMountStats:
    reads: int = 0
    rpc_reads: int = 0
    writes: int = 0
    rpc_writes: int = 0
    commits: int = 0
    cache_hits: int = 0
    readahead_issued: int = 0
    readahead_skipped_busy: int = 0
    #: Major timeouts surfaced as ETIMEDOUT (soft mounts only).
    timeouts: int = 0
    #: Synchronous FILE_SYNC writes (durable on acknowledgement).
    stable_writes: int = 0
    #: Unstable writes re-sent because the write verifier changed.
    verifier_resends: int = 0
    #: COMMIT loops re-entered after a verifier mismatch.
    commit_retries: int = 0
    #: Verifier changes observed (server reboots this client noticed).
    server_reboots_observed: int = 0
    # -- namespace path ------------------------------------------------
    #: Path resolutions started / components walked in them.
    path_walks: int = 0
    path_components: int = 0
    #: LOOKUP RPCs sent vs components served by the name cache (dnlc).
    lookup_rpcs: int = 0
    lookup_cache_hits: int = 0
    #: Attribute-cache hits / misses (path-based ``stat``); every
    #: cache consultation that answered (stat *and* walk-time), and
    #: the subset whose answer disagreed with server truth (counted by
    #: the testbed's zero-perturbation oracle) — the staleness rate is
    #: ``stale_attr_hits / attr_checks``.
    attr_hits: int = 0
    attr_misses: int = 0
    attr_checks: int = 0
    stale_attr_hits: int = 0
    #: GETATTRs forced by close-to-open consistency on open().
    cto_getattrs: int = 0
    #: Directory listings completed / READDIR RPCs they took / entries
    #: returned / listings restarted after a ``bad_cookie``.
    readdir_listings: int = 0
    readdir_rpcs: int = 0
    readdir_entries: int = 0
    readdir_restarts: int = 0
    #: Namespace mutations issued.
    creates: int = 0
    mkdirs: int = 0
    removes: int = 0
    renames: int = 0
    setattrs: int = 0


class _PendingWrite:
    """One uncommitted block write the mount still vouches for.

    ``datum`` is the content token sent; ``verifier`` is the write
    verifier it was acknowledged under (``None`` = unacknowledged, or
    invalidated by a verifier change and due for re-send); ``event``
    completes when the in-flight WRITE RPC resolves.
    """

    __slots__ = ("datum", "verifier", "event")

    def __init__(self, datum: int):
        self.datum = datum
        self.verifier: Optional[int] = None
        self.event: Optional[Event] = None


class NfsFile:
    """A file as seen through the mount: handle, size, heuristic state."""

    __slots__ = ("fh", "size", "state", "name")

    def __init__(self, fh: FileHandle, size: int, name: str = ""):
        self.fh = fh
        self.size = size
        self.state = ReadState()
        #: The looked-up name (tracing label; run-stable, unlike the
        #: process-global inode numbers behind ``fh.id``).
        self.name = name


class NfsMount:
    """One mounted NFS file system on a client machine."""

    def __init__(self, sim: Simulator, machine: Machine, rpc: RpcClient,
                 config: NfsMountConfig,
                 name: str = "mnt", capture=None, client_index: int = 0):
        self.sim = sim
        self.machine = machine
        self.rpc = rpc
        self.config = config
        if config.transport not in ("udp", "tcp"):
            raise ValueError(f"unknown transport {config.transport!r}")
        self.heuristic = DefaultHeuristic()
        self.name = name
        #: Vnode-boundary capture sink (:mod:`repro.replay`): records
        #: each application-level op at issue time.  ``None`` (the
        #: default) keeps the hooks to a single ``is None`` test — the
        #: obs-style zero-cost-when-disabled discipline.
        self.capture = capture
        #: This mount's index among the testbed's client machines (the
        #: ``client`` field stamped on captured records).
        self.client_index = client_index
        self.nfsiods = Resource(sim, capacity=NFSIOD_COUNT)
        self.stats = NfsMountStats()
        registry = sim.obs.registry
        #: Client CPU elapsed (marshal/receive, incl. queueing + jitter).
        self._m_cpu = registry.histogram("nfs.client.cpu_s")
        #: Foreground wait for a block's RPC round trip.
        self._m_block_wait = registry.histogram("nfs.client.block_wait_s")
        #: Foreground wait for a block an nfsiod already has in flight.
        self._m_nfsiod_wait = registry.histogram("nfs.client.nfsiod_wait_s")
        #: Per-operation RPC round-trip time, lazily keyed by op name.
        self._m_rtt: Dict[str, object] = {}
        #: (fh.id, block#) -> "ready" or the in-flight completion Event.
        self._cache: Dict[Tuple[int, int], Union[str, Event]] = {}
        #: Provenance-only memory of which span's fetch filled each
        #: cached block, so a later hit can cite the fetch that warmed
        #: it.  Populated only when the provenance graph is enabled.
        self._fetch_ctx: Dict[Tuple[int, int], int] = {}
        #: Per-file issue counters (stamped onto requests so the server
        #: side can measure reordering, as the paper's instrumentation
        #: did).
        self._issue_seq: Dict[int, int] = {}
        #: fh.id -> {block -> _PendingWrite}: every unstable write not
        #: yet confirmed by a COMMIT under an unchanged verifier.
        self._pending: Dict[int, Dict[int, _PendingWrite]] = {}
        #: Last write verifier observed from the server (None until the
        #: first WRITE/COMMIT reply carries one).
        self._server_verifier: Optional[int] = None
        #: Monotone content-token generator for this mount's writes
        #: (client_index spreads mounts into disjoint token spaces).
        self._write_gen = client_index * 1_000_000
        #: Attribute cache: fh.id -> (attrs, expires).  An entry is
        #: honoured strictly while ``now < expires``.
        self._attrs: Dict[int, Tuple[Fattr, float]] = {}
        #: Name cache (dnlc): (parent fh.id, name) -> (fh, expires).
        self._dnlc: Dict[Tuple[int, str], Tuple[FileHandle, float]] = {}
        #: The export root's handle (fetched on first use — the mount
        #: handshake).
        self._root_fh: Optional[FileHandle] = None
        #: Optional staleness oracle, called on every attribute-cache
        #: hit with ``(fh, cached_attrs)``; returns True if the cached
        #: attributes disagree with server truth.  Set by the testbed;
        #: pure bookkeeping (no simulation events), so it cannot
        #: perturb timing — the datum-token discipline.
        self.attr_oracle = None

    # ------------------------------------------------------------------

    def flush_cache(self) -> None:
        """Drop cached blocks (the benchmark's cache-defeat step)."""
        self._cache = {key: value for key, value in self._cache.items()
                       if value != "ready"}

    def flush_name_caches(self) -> None:
        """Drop the attribute and name caches (a fresh-eyes stat).

        Chaos verifiers call this before the end-of-run namespace
        audit: every subsequent ``stat``/``readdir`` walks the real
        LOOKUP path, so the verdict reflects server truth rather than
        this mount's cached view of a pre-crash namespace.
        """
        self._attrs.clear()
        self._dnlc.clear()

    def _capture(self, op: str, path: str, offset: int = 0,
                 count: int = 0, path2: str = "") -> None:
        """Record one application-level op at issue time (a no-op
        unless this mount is capturing)."""
        if self.capture is not None:
            self.capture.record(self.sim.now, self.client_index, op,
                                path, offset, count, path2)

    def _next_seq(self, nfile: NfsFile) -> int:
        """The next issue sequence number for ``nfile``'s requests."""
        seq = self._issue_seq.get(nfile.fh.id, 0)
        self._issue_seq[nfile.fh.id] = seq + 1
        return seq

    def _rpc(self, request, parent=None, data: bool = False):
        """Marshal, send and await one call (generator; returns the
        reply).

        The marshal CPU is charged here and observed in
        ``nfs.client.cpu_s``.  A data-path call (``data``, the READs
        and WRITEs an nfsiod may carry) also pays its transport's cost:
        over UDP each daemon sends its own datagram, so the race to the
        wire is real and marshalling carries scheduling jitter; over
        TCP one ordered stream is written promptly at dequeue, at the
        price of the extra stream handling.  A reply whose type is not
        the request's :data:`~repro.nfs.protocol.REPLY_TYPES` entry
        raises ``TypeError``.  A terminal
        :class:`~repro.net.rpc.RpcTimeout` — which only a soft mount's
        bounded retransmission budget can produce — is converted to
        :class:`NfsTimeoutError` (``ETIMEDOUT``), which is what the
        application sees from the syscall.
        """
        started = self.sim.now
        if not data:
            yield from self.machine.execute(MARSHAL_CPU)
        elif self.config.transport == "udp":
            yield from self.machine.execute(MARSHAL_CPU, jitter=True)
        else:
            yield from self.machine.execute(MARSHAL_CPU + TCP_EXTRA_CPU)
        self._m_cpu.observe(self.sim.now - started)
        op = type(request).__name__
        rtt = self._m_rtt.get(op)
        if rtt is None:
            rtt = self._m_rtt[op] = self.sim.obs.registry.histogram(
                f"nfs.client.rtt_s.{op}")
        started = self.sim.now
        try:
            reply = yield self.rpc.call(request, request.payload_bytes,
                                        parent=parent)
        except RpcTimeout as exc:
            self.stats.timeouts += 1
            raise NfsTimeoutError(f"{self.name}: {exc}") from exc
        rtt.observe(self.sim.now - started)
        if type(reply) is not REPLY_TYPES[type(request)]:
            raise TypeError(f"bad {op} reply {reply!r}")
        return reply

    def open(self, name: str, span=None):
        """Resolve a path and open it (generator; returns
        :class:`NfsFile`).

        Resolution walks the path component by component through the
        name cache; **close-to-open consistency** forces a fresh GETATTR
        whenever the final handle came from the cache, and drops cached
        data blocks if the file's mtime moved — opening a file always
        observes the last close's writes.
        """
        self._capture(OP_OPEN, name)
        fh, size, from_cache = yield from self._walk(name, span=span)
        if from_cache:
            old = self._attrs.get(fh.id)
            old_mtime = old[0].mtime if old is not None else None
            self.stats.cto_getattrs += 1
            attrs = yield from self._getattr_rpc(fh, span=span)
            if old_mtime is not None and attrs.mtime != old_mtime:
                self._drop_cached_blocks(fh)
            size = attrs.size
        return NfsFile(fh, size, name=name)

    def read(self, nfile: NfsFile, offset: int, nbytes: int, span=None):
        """Application read (generator; returns bytes read).

        Reads are performed block by block, as the real client's buffer
        layer does; the heuristic observes the application's pattern and
        gates read-ahead.  ``span`` is an optional tracing parent.
        """
        if offset < 0 or nbytes <= 0:
            raise ValueError("bad read range")
        if offset >= nfile.size:
            return 0
        nbytes = min(nbytes, nfile.size - offset)
        self._capture(OP_READ, nfile.name, offset, nbytes)
        bs = self.config.read_size
        first = offset // bs
        last = (offset + nbytes - 1) // bs
        tracer = self.sim.obs.tracer
        for block in range(first, last + 1):
            seq_count = self.heuristic.observe(
                nfile.state, block * bs, bs, self.sim.now)
            self._issue_readahead(nfile, block + 1, seq_count,
                                  parent=span)
            if tracer.enabled:
                blk_span = tracer.start("bioread", "client.vnode",
                                        parent=span, file=nfile.name,
                                        block=block)
            else:
                blk_span = None
            started = self.sim.now
            try:
                yield from self._ensure_block(nfile, block, sync=True,
                                              parent=blk_span)
            except OSError:
                # Soft-mount timeout: the span must still be closed, or
                # the RPC call spans beneath it become orphans in the
                # finished-span stream.
                if blk_span is not None:
                    blk_span.finish(error=True)
                raise
            self._m_block_wait.observe(self.sim.now - started)
            if blk_span is not None:
                blk_span.finish()
            self.stats.reads += 1
        return nbytes

    def write(self, nfile: NfsFile, offset: int, nbytes: int, span=None):
        """Application write (generator; returns bytes written).

        Writes are *write-behind*: each block's WRITE RPC is handed to
        an nfsiod when one is free (otherwise sent synchronously), and
        the written data populates the local cache.  Call
        :meth:`commit` to force everything to the server's stable
        storage.
        """
        if offset < 0 or nbytes <= 0:
            raise ValueError("bad write range")
        if offset >= nfile.size:
            return 0
        nbytes = min(nbytes, nfile.size - offset)
        self._capture(OP_WRITE, nfile.name, offset, nbytes)
        bs = self.config.read_size
        first = offset // bs
        last = (offset + nbytes - 1) // bs
        for block in range(first, last + 1):
            self.stats.writes += 1
            self._cache[(nfile.fh.id, block)] = "ready"
            entry = yield from self._new_pending(nfile, block)
            if self.nfsiods.try_acquire():
                self.sim.spawn(self._nfsiod_write(nfile, block, entry,
                                                  parent=span),
                               name=f"{self.name}.nfsiod-w")
            else:
                yield from self._write_block(nfile, block, entry,
                                             parent=span)
        return nbytes

    def write_stable(self, nfile: NfsFile, offset: int, nbytes: int,
                     span=None):
        """Synchronous FILE_SYNC write (generator; returns the written
        ``{block: datum}`` tokens).

        A stable write is durable the moment it is acknowledged — the
        server flushed before replying — so it never enters the pending
        set; it also supersedes any pending unstable write to the same
        blocks (re-sending the older data would roll content backwards).
        """
        if offset < 0 or nbytes <= 0:
            raise ValueError("bad write range")
        if offset >= nfile.size:
            return {}
        nbytes = min(nbytes, nfile.size - offset)
        self._capture(OP_WRITE, nfile.name, offset, nbytes)
        bs = self.config.read_size
        first = offset // bs
        last = (offset + nbytes - 1) // bs
        written: Dict[int, int] = {}
        for block in range(first, last + 1):
            self.stats.writes += 1
            self._cache[(nfile.fh.id, block)] = "ready"
            entry = yield from self._new_pending(nfile, block)
            yield from self._write_block(nfile, block, entry,
                                         stable=True, parent=span)
            pending = self._pending.get(nfile.fh.id)
            if pending is not None:
                pending.pop(block, None)
            written[block] = entry.datum
            self.stats.stable_writes += 1
        return written

    def commit(self, nfile: NfsFile, span=None):
        """COMMIT: flush unstable server-side writes (generator).

        Implements the NFSv3 recovery loop: wait for in-flight writes,
        re-send any whose acknowledgement was invalidated by a verifier
        change, COMMIT, and compare the reply's verifier against each
        write's — a mismatch means a reboot discarded the data after it
        was acknowledged, so those writes are re-sent and the COMMIT
        retried.  Returns the committed ``{block: datum}`` tokens (the
        data this mount now guarantees is on stable storage).
        """
        self._capture(OP_COMMIT, nfile.name)
        file_pending = self._pending.get(nfile.fh.id)
        #: Snapshot of the entries this COMMIT vouches for — writes that
        #: race in after this point belong to the *next* commit.
        pending = dict(file_pending) if file_pending is not None else {}
        recovery = self.config.verifier_recovery
        while True:
            for block in sorted(pending):
                event = pending[block].event
                if event is not None and not event.processed:
                    yield event
            if recovery:
                for block in sorted(pending):
                    entry = pending[block]
                    if entry.verifier is None:
                        self.stats.verifier_resends += 1
                        yield from self._write_block(nfile, block, entry,
                                                     parent=span)
            reply = yield from self._rpc(CommitRequest(fh=nfile.fh), span)
            self.stats.commits += 1
            verifier = reply.verifier
            if verifier is not None:
                self._observe_verifier(verifier)
            if not recovery or verifier is None:
                break
            stale = [block for block, entry in pending.items()
                     if entry.verifier != verifier]
            if not stale:
                break
            # The server rebooted between (some) WRITE acks and this
            # COMMIT: those blocks' unstable data is gone.  Mark them
            # for re-send and go around again.
            self.stats.commit_retries += 1
            for block in stale:
                pending[block].verifier = None
        committed = {block: entry.datum
                     for block, entry in pending.items()}
        if file_pending is not None:
            for block, entry in pending.items():
                if file_pending.get(block) is entry:
                    del file_pending[block]
            if not file_pending:
                self._pending.pop(nfile.fh.id, None)
        return committed

    def read_versions(self, nfile: NfsFile, blocks, span=None):
        """Direct per-block READs, bypassing the client cache
        (generator; returns ``{block: token}``).

        The chaos oracles' end-to-end read path: what would a fresh
        client see for these blocks *right now*?
        """
        versions: Dict[int, int] = {}
        bs = self.config.read_size
        for block in sorted(blocks):
            offset = block * bs
            count = min(bs, nfile.size - offset)
            if count <= 0:
                versions[block] = 0
                continue
            request = ReadRequest(fh=nfile.fh, offset=offset,
                                  count=count, seq=self._next_seq(nfile))
            reply = yield from self._rpc(request, span)
            versions[block] = reply.data[0] if reply.data else 0
        return versions

    # ------------------------------------------------------------------

    def _next_datum(self) -> int:
        self._write_gen += 1
        return self._write_gen

    def _new_pending(self, nfile: NfsFile, block: int):
        """Allocate the pending entry for one block write (generator).

        Writes to the same block are serialised: if an older write is
        still in flight, wait for it first — two in-flight WRITEs for
        one block could otherwise land out of order.
        """
        pending = self._pending.setdefault(nfile.fh.id, {})
        previous = pending.get(block)
        if previous is not None and previous.event is not None \
                and not previous.event.processed:
            yield previous.event
        entry = _PendingWrite(self._next_datum())
        entry.event = self.sim.event(
            name=f"{self.name}.wr{nfile.fh.id}.{block}")
        pending[block] = entry
        return entry

    def _observe_verifier(self, verifier: int) -> None:
        """Fold a reply's write verifier into the recovery state.

        A change means the server rebooted: every write acknowledged
        under the old verifier was discarded with the old incarnation's
        cache, so those acknowledgements are revoked (the commit loop
        re-sends the data).
        """
        if self._server_verifier == verifier:
            return
        first = self._server_verifier is None
        self._server_verifier = verifier
        if first:
            return
        self.stats.server_reboots_observed += 1
        if not self.config.verifier_recovery:
            return
        for pending in self._pending.values():
            for entry in pending.values():
                if entry.verifier is not None \
                        and entry.verifier != verifier:
                    entry.verifier = None

    def _nfsiod_write(self, nfile: NfsFile, block: int,
                      entry: _PendingWrite, parent=None):
        span = self.sim.obs.tracer.start(
            "nfsiod.write", "client.nfsiod", parent=parent,
            detached=True, block=block)
        try:
            yield from self._write_block(nfile, block, entry,
                                         parent=span)
        except NfsTimeoutError:
            # Write-behind failure: the real client reports it at the
            # next write or close; here it is visible in stats.timeouts.
            pass
        finally:
            self.nfsiods.release()
            span.finish()
        return None

    def _write_block(self, nfile: NfsFile, block: int,
                     entry: _PendingWrite, stable: bool = False,
                     parent=None):
        bs = self.config.read_size
        offset = block * bs
        count = min(bs, nfile.size - offset)
        request = WriteRequest(fh=nfile.fh, offset=offset, count=count,
                               stable=stable, seq=self._next_seq(nfile),
                               datum=(entry.datum,))
        try:
            reply = yield from self._rpc(request, parent, data=True)
        except NfsTimeoutError:
            # Soft-mount failure: release co-waiters; the entry stays
            # unacknowledged (and is re-sent if a commit ever runs).
            if entry.event is not None and not entry.event.triggered:
                entry.event.succeed()
            raise
        self.stats.rpc_writes += 1
        if reply.verifier is not None:
            self._observe_verifier(reply.verifier)
            entry.verifier = reply.verifier
        if entry.event is not None and not entry.event.triggered:
            entry.event.succeed()
        return None

    def getattr(self, nfile: NfsFile, span=None):
        """GETATTR round trip (generator; returns the size) — metadata
        traffic for mixed workloads.  Like every GETATTR reply, it
        refreshes the attribute cache, and a non-ok status raises
        (``ESTALE`` once the file is removed)."""
        self._capture(OP_GETATTR, nfile.name)
        attrs = yield from self._getattr_rpc(nfile.fh, span=span)
        return attrs.size

    # ------------------------------------------------------------------
    # Namespace path: attr cache, name cache (dnlc), and the verbs
    # ------------------------------------------------------------------

    def _attr_window(self, attrs: Fattr) -> float:
        """Seconds the given attributes may be cached: the classic
        ``clamp((now - mtime)/10, acmin, acmax)`` heuristic (recently
        changed files are re-checked sooner).  0 = do not cache."""
        config = self.config
        if attrs.ftype == "dir":
            acmin, acmax = config.acdirmin, config.acdirmax
        else:
            acmin, acmax = config.acregmin, config.acregmax
        if acmax <= 0:
            return 0.0
        age = max(0.0, self.sim.now - attrs.mtime)
        return min(max(age / 10.0, acmin), acmax)

    def _store_attrs(self, fh: FileHandle, attrs: Fattr) -> None:
        window = self._attr_window(attrs)
        if window <= 0:
            self._attrs.pop(fh.id, None)
            return
        self._attrs[fh.id] = (attrs, self.sim.now + window)

    def _cached_attrs(self, fh: FileHandle) -> Optional[Fattr]:
        """Valid cached attributes for ``fh``, or None.

        Every hit is shown to the testbed's staleness oracle (pure
        bookkeeping) — the evidence the attr-cache trap detector cites.
        """
        entry = self._attrs.get(fh.id)
        if entry is None or self.sim.now >= entry[1]:
            return None
        attrs = entry[0]
        self.stats.attr_checks += 1
        if self.attr_oracle is not None and self.attr_oracle(fh, attrs):
            self.stats.stale_attr_hits += 1
        return attrs

    def _store_dnlc(self, parent_key: int, name: str, fh: FileHandle,
                    dir_attrs: Optional[Fattr]) -> None:
        """Cache one name->handle binding, valid for the parent
        directory's attribute window (``acdirmax=0`` disables)."""
        config = self.config
        if config.acdirmax <= 0:
            return
        age = max(0.0, self.sim.now - (dir_attrs.mtime
                                       if dir_attrs is not None else 0.0))
        window = min(max(age / 10.0, config.acdirmin), config.acdirmax)
        self._dnlc[(parent_key, name)] = (fh, self.sim.now + window)

    def _drop_cached_blocks(self, fh: FileHandle) -> None:
        """Invalidate cached data of one file (leave in-flight fetches)."""
        self._cache = {key: value for key, value in self._cache.items()
                       if key[0] != fh.id or value != "ready"}

    def _lookup_rpc(self, name: str, dir_fh: Optional[FileHandle],
                    span=None):
        """One LOOKUP round trip; primes attr + name caches
        (generator; returns the reply)."""
        reply = yield from self._rpc(LookupRequest(name, dir=dir_fh), span)
        self.stats.lookup_rpcs += 1
        raise_for_status(reply.status, f"LOOKUP {name!r}")
        if reply.attributes is not None:
            self._store_attrs(reply.fh, reply.attributes)
        if reply.dir_attributes is not None and dir_fh is not None:
            self._store_attrs(dir_fh, reply.dir_attributes)
        if name and "/" not in name:
            parent_key = dir_fh.id if dir_fh is not None else -1
            self._store_dnlc(parent_key, name, reply.fh,
                             reply.dir_attributes)
        return reply

    def _walk(self, path: str, span=None):
        """Per-component path resolution through the name cache
        (generator; returns ``(fh, size-or-None, last_from_cache)``).

        A cached component costs nothing; a miss is one LOOKUP RPC.
        ``last_from_cache`` tells open() whether close-to-open must
        re-validate.  ``size`` is None when the final hop was served by
        the name cache but its attributes have expired.
        """
        components = [p for p in path.split("/") if p]
        self.stats.path_walks += 1
        self.stats.path_components += len(components)
        if not components:
            # The export root (the mount handshake, cached thereafter).
            if self._root_fh is not None:
                attrs = self._cached_attrs(self._root_fh)
                if attrs is not None:
                    self.stats.lookup_cache_hits += 1
                    return self._root_fh, attrs.size, True
            reply = yield from self._lookup_rpc("", None, span=span)
            self._root_fh = reply.fh
            return reply.fh, reply.size, False
        parent: Optional[FileHandle] = None
        fh: Optional[FileHandle] = None
        size: Optional[int] = None
        from_cache = False
        for part in components:
            parent_key = parent.id if parent is not None else -1
            cached = self._dnlc.get((parent_key, part))
            if cached is not None and self.sim.now < cached[1]:
                fh = cached[0]
                self.stats.lookup_cache_hits += 1
                from_cache = True
                attrs = self._cached_attrs(fh)
                size = attrs.size if attrs is not None else None
            else:
                reply = yield from self._lookup_rpc(part, parent,
                                                    span=span)
                fh = reply.fh
                size = reply.size
                from_cache = False
            parent = fh
        return fh, size, from_cache

    def _getattr_rpc(self, fh: FileHandle, span=None):
        """GETATTR by handle; refreshes the attr cache (generator)."""
        reply = yield from self._rpc(GetattrRequest(fh=fh), span)
        raise_for_status(reply.status, "GETATTR")
        attrs = reply.attributes
        if attrs is None:
            attrs = Fattr(fileid=fh.id, ftype="reg", size=reply.size,
                          mtime=0.0, ctime=0.0)
        self._store_attrs(fh, attrs)
        return attrs

    def _parent_and_leaf(self, path: str):
        components = [p for p in path.split("/") if p]
        if not components:
            raise ValueError(f"path {path!r} has no leaf")
        return "/".join(components[:-1]), components[-1]

    def stat(self, path: str, span=None):
        """Path-based attribute fetch (generator; returns
        :class:`Fattr`) — ``stat(2)`` over the mount.

        A warm walk answers entirely from the name + attribute caches
        with **zero RPCs**; that economy is also exactly where stale
        attributes hide (the §8-style metadata trap the attr-cache
        detector looks for).
        """
        self._capture(OP_STAT, path)
        fh, _size, _cached = yield from self._walk(path, span=span)
        attrs = self._cached_attrs(fh)
        if attrs is not None:
            self.stats.attr_hits += 1
            return attrs
        self.stats.attr_misses += 1
        attrs = yield from self._getattr_rpc(fh, span=span)
        return attrs

    def readdir(self, path: str, span=None):
        """List a directory (generator; returns names in slot order).

        Chunked by ``config.readdir_count`` bytes per RPC; a
        ``bad_cookie`` reply (the directory mutated under the listing)
        restarts the listing from scratch, like the real client.
        """
        self._capture(OP_READDIR, path)
        fh, _size, _cached = yield from self._walk(path, span=span)
        restarts = 0
        while True:
            names = []
            cookie = 0
            verf = 0
            restarted = False
            while True:
                request = ReaddirRequest(
                    dir=fh, cookie=cookie, cookieverf=verf,
                    count=self.config.readdir_count)
                reply = yield from self._rpc(request, span)
                self.stats.readdir_rpcs += 1
                if reply.status == "bad_cookie":
                    self.stats.readdir_restarts += 1
                    restarts += 1
                    if restarts > 8:
                        raise NfsBadCookieError(
                            f"READDIR {path}: directory keeps mutating")
                    restarted = True
                    break
                raise_for_status(reply.status, f"READDIR {path}")
                verf = reply.cookieverf
                for entry in reply.entries:
                    names.append(entry.name)
                    cookie = entry.cookie
                if reply.eof:
                    break
            if not restarted:
                break
        self.stats.readdir_listings += 1
        self.stats.readdir_entries += len(names)
        return names

    def create(self, path: str, size: int = NFS_READ_SIZE,
               exclusive: bool = False, span=None):
        """CREATE a file (generator; returns :class:`NfsFile`).

        UNCHECKED by default: an existing file is simply opened, which
        keeps replayed (and dupreq-missed retried) creates idempotent.
        """
        self._capture(OP_CREATE, path, 0, size)
        parent_path, leaf = self._parent_and_leaf(path)
        dir_fh, _size, _cached = yield from self._walk(parent_path,
                                                       span=span)
        request = CreateRequest(dir=dir_fh, name=leaf, size=size,
                                exclusive=exclusive)
        reply = yield from self._rpc(request, span)
        raise_for_status(reply.status, f"CREATE {path}")
        self.stats.creates += 1
        if reply.dir_wcc is not None and reply.dir_wcc.after is not None:
            self._store_attrs(dir_fh, reply.dir_wcc.after)
        attrs = reply.attributes
        if attrs is not None:
            self._store_attrs(reply.fh, attrs)
        self._store_dnlc(dir_fh.id, leaf, reply.fh,
                         reply.dir_wcc.after if reply.dir_wcc else None)
        return NfsFile(reply.fh, attrs.size if attrs else size,
                       name=path)

    def mkdir(self, path: str, span=None):
        """MKDIR (generator; returns the directory's handle).

        An existing directory is tolerated (``mkdir -p`` semantics),
        which also makes retried/replayed mkdirs idempotent.
        """
        self._capture(OP_MKDIR, path)
        parent_path, leaf = self._parent_and_leaf(path)
        dir_fh, _size, _cached = yield from self._walk(parent_path,
                                                       span=span)
        reply = yield from self._rpc(MkdirRequest(dir=dir_fh, name=leaf),
                                     span)
        if not (reply.status == "exist" and reply.fh is not None):
            raise_for_status(reply.status, f"MKDIR {path}")
        self.stats.mkdirs += 1
        if reply.dir_wcc is not None and reply.dir_wcc.after is not None:
            self._store_attrs(dir_fh, reply.dir_wcc.after)
        if reply.attributes is not None:
            self._store_attrs(reply.fh, reply.attributes)
        self._store_dnlc(dir_fh.id, leaf, reply.fh,
                         reply.dir_wcc.after if reply.dir_wcc else None)
        return reply.fh

    def remove(self, path: str, span=None):
        """REMOVE a file (generator).  Raises ``NfsNoEntryError`` when
        absent; a handle another process still holds goes stale server
        side — its reads start answering ``ESTALE``, not old data."""
        self._capture(OP_REMOVE, path)
        parent_path, leaf = self._parent_and_leaf(path)
        dir_fh, _size, _cached = yield from self._walk(parent_path,
                                                       span=span)
        reply = yield from self._rpc(RemoveRequest(dir=dir_fh, name=leaf),
                                     span)
        raise_for_status(reply.status, f"REMOVE {path}")
        self.stats.removes += 1
        cached = self._dnlc.pop((dir_fh.id, leaf), None)
        if cached is not None:
            self._attrs.pop(cached[0].id, None)
            self._drop_cached_blocks(cached[0])
        if reply.dir_wcc is not None and reply.dir_wcc.after is not None:
            self._store_attrs(dir_fh, reply.dir_wcc.after)
        return None

    def rename(self, src: str, dst: str, span=None):
        """RENAME (generator).  RFC 1813 semantics: atomically replaces
        a same-type target; a non-empty target directory refuses."""
        self._capture(OP_RENAME, src, path2=dst)
        src_parent, src_leaf = self._parent_and_leaf(src)
        dst_parent, dst_leaf = self._parent_and_leaf(dst)
        from_fh, _s, _c = yield from self._walk(src_parent, span=span)
        to_fh, _s, _c = yield from self._walk(dst_parent, span=span)
        request = RenameRequest(from_dir=from_fh, from_name=src_leaf,
                                to_dir=to_fh, to_name=dst_leaf)
        reply = yield from self._rpc(request, span)
        raise_for_status(reply.status, f"RENAME {src} -> {dst}")
        self.stats.renames += 1
        moved = self._dnlc.pop((from_fh.id, src_leaf), None)
        replaced = self._dnlc.pop((to_fh.id, dst_leaf), None)
        if replaced is not None:
            self._attrs.pop(replaced[0].id, None)
            self._drop_cached_blocks(replaced[0])
        if moved is not None:
            self._store_dnlc(to_fh.id, dst_leaf, moved[0], None)
        if reply.from_wcc is not None and reply.from_wcc.after is not None:
            self._store_attrs(from_fh, reply.from_wcc.after)
        if reply.to_wcc is not None and reply.to_wcc.after is not None:
            self._store_attrs(to_fh, reply.to_wcc.after)
        return None

    def touch(self, path: str, size: Optional[int] = None,
              mtime: Optional[float] = None, span=None):
        """SETATTR by path (generator) — the metadata-write primitive
        (utimes/truncate).  Refreshes this mount's attr cache from the
        reply; *other* mounts keep their cached attributes until they
        expire — the close-to-open staleness window."""
        self._capture(OP_SETATTR, path)
        fh, _size, _cached = yield from self._walk(path, span=span)
        reply = yield from self._rpc(
            SetattrRequest(fh=fh, size=size, mtime=mtime), span)
        raise_for_status(reply.status, f"SETATTR {path}")
        self.stats.setattrs += 1
        if reply.wcc is not None and reply.wcc.after is not None:
            self._store_attrs(fh, reply.wcc.after)
        return None

    # ------------------------------------------------------------------

    def _block_count(self, nfile: NfsFile) -> int:
        return -(-nfile.size // self.config.read_size)

    def _issue_readahead(self, nfile: NfsFile, next_block: int,
                         seq_count: int, parent=None) -> None:
        depth = readahead_blocks(seq_count, READAHEAD_BLOCKS)
        if depth <= 0:
            return
        limit = min(next_block + depth, self._block_count(nfile))
        for block in range(next_block, limit):
            key = (nfile.fh.id, block)
            if key in self._cache:
                continue
            if not self.nfsiods.try_acquire():
                self.stats.readahead_skipped_busy += 1
                break
            self.stats.readahead_issued += 1
            self.sim.spawn(self._nfsiod_fetch(nfile, block,
                                              parent=parent),
                           name=f"{self.name}.nfsiod")

    def _nfsiod_fetch(self, nfile: NfsFile, block: int, parent=None):
        """An nfsiod carrying one asynchronous READ (holds the daemon)."""
        span = self.sim.obs.tracer.start(
            "nfsiod.read", "client.nfsiod", parent=parent,
            detached=True, block=block)
        try:
            yield from self._fetch_block(nfile, block, parent=span)
        except NfsTimeoutError:
            # Read-ahead is best effort: the miss surfaces (and is
            # retried, or reported) when a foreground read needs the
            # block.
            pass
        finally:
            self.nfsiods.release()
            span.finish()
        return None

    def _ensure_block(self, nfile: NfsFile, block: int, sync: bool,
                      parent=None):
        key = (nfile.fh.id, block)
        entry = self._cache.get(key)
        prov = self.sim.obs.prov
        if entry == "ready":
            self.stats.cache_hits += 1
            if prov.enabled and parent is not None:
                filler = self._fetch_ctx.get(key)
                if filler is not None:
                    prov.edge(EDGE_SERVED_FROM_CACHE, parent, filler,
                              block=block)
            return None
        if isinstance(entry, Event):
            if prov.enabled and parent is not None:
                filler = self._fetch_ctx.get(key)
                if filler is not None:
                    prov.edge(EDGE_COALESCED_WITH, parent, filler,
                              block=block)
            started = self.sim.now
            yield entry
            self._m_nfsiod_wait.observe(self.sim.now - started)
            return None
        yield from self._fetch_block(nfile, block, parent=parent)
        return None

    def _fetch_block(self, nfile: NfsFile, block: int, parent=None):
        """Marshal, send, await, and cache one READ (generator)."""
        key = (nfile.fh.id, block)
        done = self.sim.event(name=f"{self.name}.blk{block}")
        self._cache[key] = done
        if self.sim.obs.prov.enabled and parent is not None \
                and parent.id is not None:
            self._fetch_ctx[key] = parent.id
        config = self.config
        bs = config.read_size
        offset = block * bs
        count = min(bs, nfile.size - offset)
        request = ReadRequest(fh=nfile.fh, offset=offset, count=count,
                              seq=self._next_seq(nfile))
        try:
            reply = yield from self._rpc(request, parent, data=True)
        except NfsTimeoutError as exc:
            # The block never arrived: evict the placeholder so a later
            # read retries it, and fail co-waiters parked on the event.
            self._cache.pop(key, None)
            done.fail(exc)
            raise
        extra = TCP_EXTRA_CPU if config.transport == "tcp" else 0.0
        started = self.sim.now
        yield from self.machine.execute(RECEIVE_CPU + extra)
        self._m_cpu.observe(self.sim.now - started)
        self.stats.rpc_reads += 1
        if reply.status != NFS_OK:
            # ESTALE (the file was REMOVEd or RENAMEd over while this
            # handle was open): evict the placeholder — a retry must
            # re-ask and re-fail, never serve phantom bytes — and fail
            # co-waiters parked on the event.
            self._cache.pop(key, None)
            try:
                raise_for_status(reply.status,
                                 f"READ {nfile.name!r}")
            except OSError as exc:
                done.fail(exc)
                raise
        self._cache[key] = "ready"
        done.succeed()
        return None
