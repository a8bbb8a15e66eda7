"""The metadata intent log and its fsck-style recovery scanner.

PR 5 made *data* durability honest: a write's token only becomes
durable when a flush completes in the same boot epoch, so a crash can
revert acknowledged-unstable data exactly the way a real NFSv3 server
loses its buffer cache.  Namespace mutations had no such story — a
CREATE applied straight to the in-memory tree survived any simulated
crash, which is the one thing a real server crash does *not* permit.

:class:`MetaJournal` closes that gap with the classic intent-log
protocol (the same discipline as FreeBSD's softupdates-free ``-o sync``
metadata path, or NetApp/Juszczak-style logged servers):

1. the server writes an **intent record** for the mutation through the
   buffer cache (``cache.write`` of the record's journal block) *before*
   touching the :class:`~.namespace.Namespace`;
2. it applies the mutation, capturing an **undo closure**;
3. it **commits** the intent — a targeted flush of just the journal
   blocks (:meth:`BufferCache.sync_blocks`), so the durability tax is a
   real disk write but does not piggyback a whole-cache sync;
4. only then may the reply leave the server (RFC 1813: "committed to
   stable storage before returning results" for every metadata proc).

Commits cover every earlier un-committed record (group commit: forcing
the log tail forces the log), so **durability is always a prefix of the
LSN order** and the volatile records form a suffix.  A crash therefore
recovers by undoing that suffix in reverse — perfectly nested, which is
what makes RENAME atomic across a crash: one record, so the tree is
exactly the old one (intent lost) or exactly the new one (intent
durable), never half of each.  The journal keeps a watermark at the
first volatile record, so a commit reads only that suffix, and it drops
durable records once the ring has rolled past them: a commit costs
O(records it covers) however long the boot has run.

Durable records double as a **stable-storage duplicate-request cache**:
each carries its ``(client, xid)`` and the reply that acknowledged it,
so a retransmission of a non-idempotent op that straddles a reboot is
answered from the recovered log instead of being silently re-executed —
the RAM dupreq cache dies with the boot, the journal does not.

After recovery, :func:`scan_and_heal` walks the tree like fsck walks a
dirty file system: verifying (and where possible repairing) that no
orphan inodes linger in the flat file table, no dirent dangles or
duplicates, and every directory's slot accounting is self-consistent.
The :class:`FsckReport` it returns is the chaos engine's ground truth
for the no-orphans oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from .namespace import ENTRIES_PER_BLOCK, Directory, Namespace

#: Intent records per 8 KiB journal block (a 128-byte record: op code,
#: two path slots, fileid, xid, status — same flavour of round number
#: as :data:`~.namespace.DIRENT_BYTES`).
RECORDS_PER_BLOCK = 64

#: Journal size in blocks; at 64 records each this rings over 1024
#: intents, far beyond the in-flight window of an 8-nfsd server.
DEFAULT_JOURNAL_BLOCKS = 16


class IntentRecord:
    """One logged namespace mutation."""

    __slots__ = ("lsn", "kind", "paths", "rpc_key", "blkno", "reply",
                 "undo", "applied", "durable")

    def __init__(self, lsn: int, kind: str, paths: Tuple[str, ...],
                 rpc_key: Optional[Tuple[str, int]], blkno: int):
        self.lsn = lsn
        self.kind = kind
        self.paths = paths
        self.rpc_key = rpc_key
        self.blkno = blkno
        #: The acknowledgement this intent covers (set before commit, so
        #: a durable record can answer a cross-boot retransmission).
        self.reply: Any = None
        self.undo: Optional[Callable[[], None]] = None
        self.applied = False
        self.durable = False

    def __repr__(self) -> str:
        state = "durable" if self.durable else \
            ("applied" if self.applied else "intent")
        return f"<IntentRecord #{self.lsn} {self.kind} {state}>"


class MetaJournal:
    """A ring of intent records on the partition's metadata region.

    The journal's blocks are ordinary buffer-cache citizens: appends
    dirty them (write-behind), commits force them with a *targeted*
    flush, and a crash drops whatever had not reached the platter —
    the volatile/durable split mirrors the server's write map exactly.
    """

    def __init__(self, fs, nblocks: int = DEFAULT_JOURNAL_BLOCKS):
        if nblocks < 1:
            raise ValueError("the journal needs at least one block")
        self.fs = fs
        self.inode = fs.allocator.allocate_journal(
            "<metajournal>", nblocks)
        self.capacity = nblocks * RECORDS_PER_BLOCK
        #: The durable records of the last ring (older ones can no
        #: longer answer a retransmission, see :meth:`crash`) followed by
        #: the volatile suffix, in LSN order.
        self._records: List[IntentRecord] = []
        #: Index in ``_records`` of the first volatile record: everything
        #: before it is durable, everything from it on is volatile.
        self._volatile = 0
        self._next_lsn = 0
        #: Bumped by :meth:`crash`; an in-flight commit whose flush
        #: completes under a newer generation must not claim durability
        #: (the platter write it awaited belongs to the old boot's RAM).
        self._generation = 0
        #: Durable (client, xid) -> reply: the stable-storage dupreq
        #: cache, rebuilt from the log on every recovery.
        self._replay: Dict[Tuple[str, int], Any] = {}

    # ------------------------------------------------------------------

    def _block_of(self, lsn: int) -> int:
        """Disk block holding ``lsn``'s record (the log is a ring)."""
        file_block = (lsn % self.capacity) // RECORDS_PER_BLOCK
        return self.inode.map_range(file_block, 1)[0][0]

    def append(self, kind: str, paths: Tuple[str, ...],
               rpc_key: Optional[Tuple[str, int]]) -> IntentRecord:
        """Log an intent (write-behind) — call *before* mutating.

        The record's bytes go through the buffer cache like any other
        metadata write; they are volatile until a :meth:`commit` (or a
        later record's group commit) forces them down.
        """
        lsn = self._next_lsn
        self._next_lsn += 1
        blkno = self._block_of(lsn)
        self.fs.cache.write(blkno, 1, stream="metajournal")
        record = IntentRecord(lsn, kind, paths, rpc_key, blkno)
        self._records.append(record)
        return record

    def mark_applied(self, record: IntentRecord,
                     undo: Callable[[], None]) -> None:
        """The mutation is in the tree; ``undo`` reverts it exactly."""
        record.applied = True
        record.undo = undo

    def set_reply(self, record: IntentRecord, reply: Any) -> None:
        """Attach the acknowledgement the intent covers (pre-commit,
        so the durable log can re-serve it across a reboot)."""
        record.reply = reply

    def commit(self, record: IntentRecord):
        """Force the intent to the platter (generator; returns bool).

        Group commit: every earlier un-committed record shares the
        flush (their blocks are forced too, and a block flush is a
        block flush).  Returns False — promoting nothing — when a crash
        interposed: the boot that issued the flush is gone, so its
        durability claim would be a lie.
        """
        generation = self._generation
        records = self._records
        start = self._volatile
        # A crash drops the whole volatile suffix, so the suffix holds
        # consecutive LSNs and ``record`` sits at a fixed offset from
        # the watermark.  It covers nothing if it is already durable or
        # was dropped by a crash (every later LSN is higher).
        covered = 0
        if start < len(records):
            covered = max(0, record.lsn - records[start].lsn + 1)
        pending = records[start:start + covered]
        blocks = sorted({r.blkno for r in pending})
        yield self.fs.cache.sync_blocks(blocks)
        if self._generation != generation:
            return False
        for entry in pending:
            entry.durable = True
        self._advance()
        return True

    def _advance(self) -> None:
        """Move the watermark past newly durable records, then drop the
        durable records a full ring behind the log head (no crash can
        read them again: its replay floor only grows)."""
        records = self._records
        volatile = self._volatile
        while volatile < len(records) and records[volatile].durable:
            volatile += 1
        floor = self._next_lsn - self.capacity
        stale = 0
        while stale < volatile and records[stale].lsn < floor:
            stale += 1
        del records[:stale]
        self._volatile = volatile - stale

    # ------------------------------------------------------------------

    def replay_reply(self, rpc_key: Tuple[str, int]):
        """The durable log's answer for a retransmitted op, or None.

        Only populated by :meth:`crash` — within a boot the RAM dupreq
        cache is authoritative; across boots only what the log kept is.
        """
        return self._replay.get(rpc_key)

    def crash(self) -> Tuple[int, List[str]]:
        """Recover: undo the volatile suffix, rebuild the replay cache.

        Durability is a prefix of the LSN order (see :meth:`commit`),
        so the applied-but-not-durable records form a suffix; undoing
        them newest-first unwinds nested effects exactly.  Returns
        ``(records undone, undo failure descriptions)`` — failures are
        what :func:`scan_and_heal` exists to mop up.
        """
        self._generation += 1
        undone = 0
        failures: List[str] = []
        for record in reversed(self._records[self._volatile:]):
            if not record.applied:
                continue
            try:
                if record.undo is not None:
                    record.undo()
                undone += 1
            except Exception as error:  # defensive: fsck will report
                failures.append(
                    f"undo of #{record.lsn} {record.kind} "
                    f"{'/'.join(record.paths)} failed: {error!r}")
        del self._records[self._volatile:]
        # Ring overwrite: records older than one full ring have been
        # physically overwritten on disk; their mutations stand (they
        # were durable) but their replies are no longer answerable.
        floor = self._next_lsn - self.capacity
        self._replay = {
            r.rpc_key: r.reply for r in self._records
            if r.lsn >= floor and r.rpc_key is not None
            and r.reply is not None}
        return undone, failures


# ----------------------------------------------------------------------
# The fsck-style recovery scanner
# ----------------------------------------------------------------------


@dataclass
class FsckReport:
    """What one post-crash scan of the namespace found (and fixed)."""

    epoch: int = 0
    directories_scanned: int = 0
    files_seen: int = 0
    orphans_reclaimed: int = 0
    dangling_repaired: int = 0
    duplicates_dropped: int = 0
    slot_repairs: int = 0
    undo_failures: Tuple[str, ...] = ()
    #: Violations found by the pre-heal verification pass.
    violations: Tuple[str, ...] = ()
    #: Violations that survived healing (must be empty for a clean
    #: recovery; the no-orphans oracle checks exactly this).
    unhealed: Tuple[str, ...] = ()

    @property
    def consistent(self) -> bool:
        return not self.unhealed and not self.undo_failures

    def to_jsonable(self) -> dict:
        return {"epoch": self.epoch,
                "directories_scanned": self.directories_scanned,
                "files_seen": self.files_seen,
                "orphans_reclaimed": self.orphans_reclaimed,
                "dangling_repaired": self.dangling_repaired,
                "duplicates_dropped": self.duplicates_dropped,
                "slot_repairs": self.slot_repairs,
                "undo_failures": list(self.undo_failures),
                "violations": list(self.violations),
                "unhealed": list(self.unhealed),
                "consistent": self.consistent}


def verify_namespace(ns: Namespace) -> List[str]:
    """Every invariant violation in the tree, as one line each.

    Checked, per directory: entries and slots key-identical, slot
    values unique and below the high-water mark, free list disjoint
    from live slots, slot count within the inode's block capacity, and
    the inode's recorded path equal to the tree position.  Globally:
    no node reachable through two dirents, and the flat ``files`` view
    exactly equal to the set of reachable regular files (an extra
    ``files`` entry is an orphan inode; a missing one is a dangling
    tree entry).  An empty list is a consistent tree.
    """
    violations: List[str] = []
    seen: Dict[int, str] = {}
    reachable: Dict[str, object] = {}
    for path, directory in ns.walk_dirs():
        label = path or "/"
        if set(directory.entries) != set(directory.slots):
            violations.append(
                f"{label}: entries/slots key mismatch")
        values = sorted(directory.slots.values())
        if len(set(values)) != len(values):
            violations.append(f"{label}: duplicate slot assignment")
        if values and values[-1] >= directory._next_slot:
            violations.append(
                f"{label}: slot {values[-1]} beyond high-water mark "
                f"{directory._next_slot}")
        if set(values) & set(directory._free):
            violations.append(f"{label}: live slot on the free list")
        capacity = directory.inode.nblocks * ENTRIES_PER_BLOCK
        if directory._next_slot > capacity:
            violations.append(
                f"{label}: {directory._next_slot} slots in "
                f"{directory.inode.nblocks} blocks (capacity "
                f"{capacity})")
        expected_name = "/" if path == "" else path
        if directory.inode.name != expected_name:
            violations.append(
                f"{label}: inode path {directory.inode.name!r} != tree "
                f"position {expected_name!r}")
        for name in sorted(directory.entries):
            child = directory.entries[name]
            child_path = f"{path}/{name}" if path else name
            prior = seen.get(id(child))
            if prior is not None:
                violations.append(
                    f"duplicate dirent: {child_path} and {prior} name "
                    f"the same node")
                continue
            seen[id(child)] = child_path
            if not isinstance(child, Directory):
                reachable[child_path] = child
                if child.name != child_path:
                    violations.append(
                        f"{child_path}: inode path {child.name!r} != "
                        f"tree position")
    for path in sorted(ns.files):
        if path not in reachable:
            violations.append(f"orphan inode: {path} in the file table "
                              f"but unreachable from the root")
        elif ns.files[path] is not reachable[path]:
            violations.append(f"{path}: file table names a different "
                              f"inode than the tree")
    for path in sorted(reachable):
        if path not in ns.files:
            violations.append(f"dangling dirent: {path} reachable but "
                              f"missing from the file table")
    return violations


def scan_and_heal(ns: Namespace, epoch: int = 0,
                  undo_failures: Tuple[str, ...] = ()) -> FsckReport:
    """One fsck pass: verify, repair what is repairable, re-verify.

    Healing is conservative, like fsck's: an orphan file-table entry is
    reclaimed (dropped), a reachable file missing from the table is
    re-registered, a duplicate dirent keeps its first (lexicographic)
    path and drops the rest, and slot bookkeeping is rebuilt from the
    live slots.  Structural damage healing cannot express — which the
    journal protocol should make impossible — lands in ``unhealed``.
    """
    before = verify_namespace(ns)
    report = FsckReport(epoch=epoch, violations=tuple(before),
                        undo_failures=tuple(undo_failures))

    seen: Dict[int, str] = {}
    reachable: Dict[str, object] = {}
    for path, directory in ns.walk_dirs():
        report.directories_scanned += 1
        # Rebuild slot bookkeeping when it disagrees with the entries.
        live = sorted(directory.slots.values())
        broken = (set(directory.entries) != set(directory.slots)
                  or len(set(live)) != len(live)
                  or (live and live[-1] >= directory._next_slot)
                  or bool(set(live) & set(directory._free)))
        if broken:
            slots: Dict[str, int] = {}
            for index, name in enumerate(sorted(directory.entries)):
                slots[name] = index
            directory.slots = slots
            directory._next_slot = len(slots)
            directory._free = []  # an empty list is a valid heap
            directory.mutations += 1
            report.slot_repairs += 1
        for name in sorted(directory.entries):
            child = directory.entries[name]
            child_path = f"{path}/{name}" if path else name
            if id(child) in seen:
                directory.drop(name)
                if not isinstance(child, Directory) \
                        and ns.files.get(child_path) is child:
                    del ns.files[child_path]
                report.duplicates_dropped += 1
                continue
            seen[id(child)] = child_path
            if not isinstance(child, Directory):
                report.files_seen += 1
                reachable[child_path] = child
    for path in sorted(ns.files):
        if path not in reachable:
            del ns.files[path]
            report.orphans_reclaimed += 1
        elif ns.files[path] is not reachable[path]:
            ns.files[path] = reachable[path]
            report.dangling_repaired += 1
    for path in sorted(reachable):
        if path not in ns.files:
            ns.files[path] = reachable[path]
            inode = reachable[path]
            inode.name = path
            report.dangling_repaired += 1
    report.unhealed = tuple(verify_namespace(ns))
    return report
