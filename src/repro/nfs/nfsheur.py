"""The ``nfsheur`` table: per-file-handle heuristic state (§6.3).

NFS v2/v3 are stateless — there is no open/close — so the FreeBSD server
keeps sequentiality state in a small open-hash table keyed on the file's
vnode.  A lookup probes a bounded window of slots; if the handle is not
found, the least-used entry *among those probed* is ejected and recycled
— which means entries can be ejected even when the table is not full,
and a small working set of active files can thrash the table.

The paper's finding: their SlowDown heuristic showed **no** end-to-end
improvement until the table was enlarged, because correctly updated
sequentiality scores were being ejected before their next use; and once
the table was large enough, even the *default* heuristic matched the
hard-wired optimum ("it is apparently more important to have an entry in
nfsheur for each active file than it is for those entries to be
completely accurate").

Two parameter sets are shipped: :data:`DEFAULT_NFSHEUR`, scaled to
thrash once more than a handful of files are concurrently active (the
behaviour the paper observed with the stock kernel), and
:data:`IMPROVED_NFSHEUR`, the enlarged table (their fix).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..readahead import ReadState
from .fhandle import FileHandle

#: Knuth's multiplicative hash constant (2^32 / phi).
_GOLDEN = 2654435761

#: The use-count constants follow the FreeBSD scheme: fresh entries
#: start at ``USE_INIT``; hits add ``USE_INC`` (capped at ``USE_MAX``);
#: probing decays bystanders by ``USE_DECAY``.  The net effect is that a
#: file actively streaming survives its own read burst (its count is far
#: above a newcomer's ``USE_INIT``) while entries idle since their last
#: burst decay back into eviction range — thrash degrades read-ahead
#: *gradually* as the active file population outgrows the table, rather
#: than all at once.
USE_INIT = 64
USE_INC = 16
USE_MAX = 2048
USE_DECAY = 8
#: seqCount given to a freshly installed entry.  The paper notes the
#: initial metric is "1 (or sometimes a different constant, depending on
#: the context)"; FreeBSD installs READ-path entries with a moderate
#: optimistic count, which is what keeps read-ahead partially alive
#: under table thrash instead of vanishing entirely.
INSTALL_SEQCOUNT = 4


@dataclass(frozen=True)
class NfsHeurParams:
    """Geometry of the nfsheur table.

    A handle id is mixed multiplicatively before it is reduced modulo
    the table size: vnodes are recycled from a freelist, so even
    sequentially created files hash pseudo-randomly.
    """

    table_size: int
    max_probes: int

    def __post_init__(self):
        if self.table_size < 1:
            raise ValueError("table must have at least one slot")
        if not 1 <= self.max_probes <= self.table_size:
            raise ValueError("probe window must fit within the table")

    def slot_of(self, fh: FileHandle, probe: int) -> int:
        base = (fh.id * _GOLDEN) & 0xFFFFFFFF
        return (base + probe) % self.table_size


#: Stock parameters: a table sized for the workloads of a decade before
#: the paper (§6.3: "network bandwidth, file system size, and NFS
#: traffic have increased by two orders of magnitude since the
#: parameters of the nfsheur hash table were chosen").  The stock
#: table's sin is *size*, not hash quality.  With a 4-slot probe window
#: over 16 slots, ejections start once roughly a dozen handles are
#: active and become severe at 32 — partial, progressive degradation,
#: as the paper observed.
DEFAULT_NFSHEUR = NfsHeurParams(table_size=16, max_probes=4)

#: The paper's fix: enlarge the table so ejections are unlikely before
#: the table is actually full.
IMPROVED_NFSHEUR = NfsHeurParams(table_size=256, max_probes=4)


class _Slot:
    __slots__ = ("fh", "state", "use")

    def __init__(self, fh: FileHandle, offset: int):
        self.fh = fh
        self.state = ReadState()
        self.state.seq_count = INSTALL_SEQCOUNT
        # Prime the expected offset with the current access, as the
        # FreeBSD install path does (nh_nextr = uio_offset): the access
        # that installed the entry counts as sequential, so the install
        # seqCount survives the heuristic's first observation.
        self.state.next_offset = offset
        self.use = 0


@dataclass
class NfsHeurStats:
    lookups: int = 0
    hits: int = 0
    installs: int = 0
    ejections: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class NfsHeurTable:
    """Open hashing with a bounded probe window and use-count ejection."""

    def __init__(self, params: NfsHeurParams = DEFAULT_NFSHEUR):
        self.params = params
        self._slots: List[Optional[_Slot]] = [None] * params.table_size
        self.stats = NfsHeurStats()

    def lookup(self, fh: FileHandle, offset: int = 0) -> ReadState:
        """Find or create the heuristic state for ``fh``.

        ``offset`` is the offset of the access triggering the lookup;
        a freshly installed entry is primed to treat that access as the
        continuation of a sequential run.

        Probes ``max_probes`` slots.  A hit bumps the entry's use count;
        a miss installs the handle in an empty probed slot if one
        exists, else ejects the least-used *probed* entry — losing that
        file's accumulated sequentiality state, which is precisely the
        failure mode of §6.3.
        """
        self.stats.lookups += 1
        params = self.params
        first_empty = None
        coldest = None
        coldest_index = -1
        hit = None
        for probe in range(params.max_probes):
            index = params.slot_of(fh, probe)
            slot = self._slots[index]
            if slot is None:
                if first_empty is None:
                    first_empty = index
            elif slot.fh == fh:
                hit = slot
            else:
                slot.use = max(0, slot.use - USE_DECAY)
                if coldest is None or slot.use < coldest.use:
                    coldest = slot
                    coldest_index = index
        if hit is not None:
            hit.use = min(hit.use + USE_INC, USE_MAX)
            self.stats.hits += 1
            return hit.state
        self.stats.installs += 1
        new_slot = _Slot(fh, offset)
        new_slot.use = USE_INIT
        if first_empty is not None:
            self._slots[first_empty] = new_slot
        elif coldest is not None and coldest.use > USE_INIT:
            # Every probed entry is hotter than a newcomer: do not eject
            # an active streamer for a one-off access; track the state
            # in a transient slot that is simply not remembered.
            self.stats.ejections += 1
            return new_slot.state
        else:
            self.stats.ejections += 1
            self._slots[coldest_index] = new_slot
        return new_slot.state

    def resident(self, fh: FileHandle) -> bool:
        """True iff the handle currently holds a slot (no side effects)."""
        for probe in range(self.params.max_probes):
            slot = self._slots[self.params.slot_of(fh, probe)]
            if slot is not None and slot.fh == fh:
                return True
        return False

    @property
    def occupancy(self) -> int:
        return sum(1 for slot in self._slots if slot is not None)
