"""NFS v3 message bodies: data path, write path, and namespace path.

The benchmarks are pure-read (§4.2), so READ plus the handshake ops the
client path needs (LOOKUP, GETATTR) are modelled; WRITE/COMMIT carry
the full NFSv3 stability contract — UNSTABLE replies and COMMIT replies
both bear the server's per-boot **write verifier**, the token a client
compares to detect that a reboot discarded its uncommitted writes.

The namespace procedures (SETATTR, READDIR, CREATE, MKDIR,
REMOVE, RENAME) follow RFC 1813: replies carry **post-op attributes**
(:class:`Fattr`) so clients can refresh their attribute caches without
extra GETATTRs, mutations carry **weak cache consistency** data
(:class:`WccData`: the directory's pre-op times plus post-op
attributes), and READDIR replies are chunked by the request's ``count``
byte budget with per-entry **cookies** and a directory-wide **cookie
verifier** (see the server for the verifier's semantics).

Replies also carry an NFS ``status`` string (``"ok"``/``"noent"``/
``"stale"``/…) rather than raising across the simulated wire — the
client maps a non-ok status to the matching errno, like the real RPC
layer does.

Payload content is not simulated byte-for-byte; instead WRITE requests
may carry per-block **datum tokens** (small integers naming the written
content) and READ replies echo the tokens currently visible for the
blocks they cover.  The tokens ride outside ``payload_bytes`` — they
are correctness bookkeeping for the chaos oracles, not wire bytes, so
carrying them cannot perturb any timing result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .fhandle import FileHandle

#: The transfer size used throughout the paper ("8k NFS blocks", §6.2).
NFS_READ_SIZE = 8 * 1024

#: Approximate encoded sizes of the argument structures.
READ_ARGS_BYTES = 32
LOOKUP_ARGS_BYTES = 64
GETATTR_ARGS_BYTES = 8
ATTR_REPLY_BYTES = 84
#: Encoded file handle (nfs_fh3: length + up-to-64-byte opaque).
FH_BYTES = 32
#: Encoded wcc_data (pre_op_attr times + post_op_attr).
WCC_BYTES = 32
#: One READDIR entry on the wire (fileid + cookie + mean name).
DIRENT_REPLY_BYTES = 32
#: Fixed READDIR reply framing (dir attributes, verifier, eof flag).
READDIR_OVERHEAD_BYTES = ATTR_REPLY_BYTES + 16
#: Default READDIR reply byte budget (the client's ``count`` argument).
READDIR_DEFAULT_COUNT = 8 * 1024

#: NFS status strings a reply's ``status`` field may carry.
NFS_OK = "ok"
NFS_STATUSES = ("ok", "noent", "exist", "notdir", "isdir", "notempty",
                "stale", "bad_cookie")


@dataclass(frozen=True)
class Fattr:
    """RFC 1813 fattr3, reduced to the attributes this model tracks."""

    fileid: int
    ftype: str          # "reg" | "dir"
    size: int
    mtime: float
    ctime: float


@dataclass(frozen=True)
class WccAttr:
    """Pre-operation attributes (wcc_attr): size + times before the op."""

    size: int
    mtime: float
    ctime: float


@dataclass(frozen=True)
class WccData:
    """Weak cache consistency data: before/after around a mutation."""

    before: Optional[WccAttr] = None
    after: Optional[Fattr] = None


@dataclass(frozen=True)
class ReadRequest:
    fh: FileHandle
    offset: int
    count: int
    #: Client-side issue sequence within this file (0-based).  Not part
    #: of the real protocol; carried for the reordering instrumentation
    #: the paper's kernel patches provided (§6).
    seq: int = 0

    def __post_init__(self):
        if self.offset < 0 or self.count <= 0:
            raise ValueError("bad READ range")

    @property
    def payload_bytes(self) -> int:
        return READ_ARGS_BYTES


@dataclass(frozen=True)
class ReadReply:
    fh: FileHandle
    offset: int
    count: int          # bytes actually read (clamped at EOF)
    eof: bool
    #: Content tokens for the blocks covered, in block order (empty when
    #: the file has never seen a tokened write — the read benchmarks).
    data: Tuple[int, ...] = ()
    #: "stale" when the handle no longer names a file (REMOVEd).
    status: str = NFS_OK

    @property
    def payload_bytes(self) -> int:
        return ATTR_REPLY_BYTES + self.count


@dataclass(frozen=True)
class WriteRequest:
    fh: FileHandle
    offset: int
    count: int
    #: NFSv3 stability: False = UNSTABLE (server may reply from cache).
    stable: bool = False
    seq: int = 0
    #: Content tokens for the blocks covered (empty = untokened write;
    #: the legacy write benchmarks send no tokens and pay no cost).
    datum: Tuple[int, ...] = ()

    def __post_init__(self):
        if self.offset < 0 or self.count <= 0:
            raise ValueError("bad WRITE range")

    @property
    def payload_bytes(self) -> int:
        return READ_ARGS_BYTES + self.count


@dataclass(frozen=True)
class WriteReply:
    fh: FileHandle
    offset: int
    count: int
    #: How the write was committed: True = FILE_SYNC (on the platter
    #: before this reply), False = UNSTABLE (cache only).
    stable: bool = False
    #: The server's per-boot write verifier.  A change between two
    #: replies tells the client a reboot discarded unstable data.
    verifier: Optional[int] = None
    #: "stale" when the handle no longer names a file (REMOVEd).
    status: str = NFS_OK

    @property
    def payload_bytes(self) -> int:
        return ATTR_REPLY_BYTES


@dataclass(frozen=True)
class CommitRequest:
    fh: FileHandle

    @property
    def payload_bytes(self) -> int:
        return GETATTR_ARGS_BYTES


@dataclass(frozen=True)
class CommitReply:
    fh: FileHandle
    #: The write verifier as of this COMMIT; if it differs from the one
    #: the WRITE replies carried, the client must re-send those writes.
    verifier: Optional[int] = None
    #: "stale" when the handle no longer names a file (REMOVEd).
    status: str = NFS_OK

    @property
    def payload_bytes(self) -> int:
        return ATTR_REPLY_BYTES


@dataclass(frozen=True)
class LookupRequest:
    """LOOKUP ``name`` within directory ``dir``.

    ``dir=None`` names the export root (the mount handshake), which
    also keeps the original flat-namespace call ``LookupRequest(name)``
    meaning what it always did: a root-directory child.  The special
    case ``name=""`` resolves the directory itself — how a client
    obtains the root's handle and attributes.
    """

    name: str
    dir: Optional[FileHandle] = None

    @property
    def payload_bytes(self) -> int:
        return LOOKUP_ARGS_BYTES


@dataclass(frozen=True)
class LookupReply:
    fh: Optional[FileHandle]
    size: int
    status: str = NFS_OK
    #: Post-op attributes of the resolved object (RFC 1813 §3.3.3).
    attributes: Optional[Fattr] = None
    #: Post-op attributes of the directory searched.
    dir_attributes: Optional[Fattr] = None

    @property
    def payload_bytes(self) -> int:
        #: The 84-byte stand-in has always covered the whole
        #: LOOKUP3resok (handle + post-op attributes); keeping it fixed
        #: keeps the wire timing of pre-namespace captures intact.
        return ATTR_REPLY_BYTES


@dataclass(frozen=True)
class GetattrRequest:
    fh: FileHandle

    @property
    def payload_bytes(self) -> int:
        return GETATTR_ARGS_BYTES


@dataclass(frozen=True)
class GetattrReply:
    fh: FileHandle
    size: int
    status: str = NFS_OK
    attributes: Optional[Fattr] = None

    @property
    def payload_bytes(self) -> int:
        return ATTR_REPLY_BYTES


@dataclass(frozen=True)
class SetattrRequest:
    """SETATTR: set size (truncate/extend) and/or explicit mtime."""

    fh: FileHandle
    size: Optional[int] = None
    mtime: Optional[float] = None

    def __post_init__(self):
        if self.size is not None and self.size < 0:
            raise ValueError("SETATTR size cannot be negative")

    @property
    def payload_bytes(self) -> int:
        return GETATTR_ARGS_BYTES + 24


@dataclass(frozen=True)
class SetattrReply:
    fh: FileHandle
    status: str = NFS_OK
    wcc: Optional[WccData] = None

    @property
    def payload_bytes(self) -> int:
        return WCC_BYTES + ATTR_REPLY_BYTES


@dataclass(frozen=True)
class DirEntry:
    """One entry of a READDIR reply."""

    fileid: int
    name: str
    #: Resume token: pass as the next request's ``cookie`` to continue
    #: the listing after this entry.
    cookie: int


@dataclass(frozen=True)
class ReaddirRequest:
    """READDIR: list a directory in chunks.

    ``count`` bounds the reply's encoded size in bytes — the chunking
    knob.  ``cookie``/``cookieverf`` resume a listing; cookie 0 starts
    one (the verifier is ignored at cookie 0, per RFC 1813 §3.3.16).
    """

    dir: FileHandle
    cookie: int = 0
    cookieverf: int = 0
    count: int = READDIR_DEFAULT_COUNT

    def __post_init__(self):
        if self.cookie < 0 or self.count <= 0:
            raise ValueError("bad READDIR arguments")

    @property
    def payload_bytes(self) -> int:
        return GETATTR_ARGS_BYTES + 24


@dataclass(frozen=True)
class ReaddirReply:
    dir: FileHandle
    entries: Tuple[DirEntry, ...] = ()
    eof: bool = True
    cookieverf: int = 0
    status: str = NFS_OK

    @property
    def payload_bytes(self) -> int:
        return (READDIR_OVERHEAD_BYTES
                + DIRENT_REPLY_BYTES * len(self.entries))


@dataclass(frozen=True)
class CreateRequest:
    """CREATE a regular file of ``size`` bytes in directory ``dir``.

    ``exclusive=False`` is UNCHECKED (an existing file is simply
    returned); ``exclusive=True`` reports ``exist`` instead.
    """

    dir: FileHandle
    name: str
    size: int = 1024
    exclusive: bool = False

    def __post_init__(self):
        if self.size <= 0:
            raise ValueError("CREATE size must be positive")

    @property
    def payload_bytes(self) -> int:
        return LOOKUP_ARGS_BYTES + 24


@dataclass(frozen=True)
class CreateReply:
    fh: Optional[FileHandle]
    status: str = NFS_OK
    attributes: Optional[Fattr] = None
    dir_wcc: Optional[WccData] = None

    @property
    def payload_bytes(self) -> int:
        return ATTR_REPLY_BYTES + FH_BYTES + WCC_BYTES


@dataclass(frozen=True)
class MkdirRequest:
    dir: FileHandle
    name: str

    @property
    def payload_bytes(self) -> int:
        return LOOKUP_ARGS_BYTES


@dataclass(frozen=True)
class MkdirReply:
    fh: Optional[FileHandle]
    status: str = NFS_OK
    attributes: Optional[Fattr] = None
    dir_wcc: Optional[WccData] = None

    @property
    def payload_bytes(self) -> int:
        return ATTR_REPLY_BYTES + FH_BYTES + WCC_BYTES


@dataclass(frozen=True)
class RemoveRequest:
    dir: FileHandle
    name: str

    @property
    def payload_bytes(self) -> int:
        return LOOKUP_ARGS_BYTES


@dataclass(frozen=True)
class RemoveReply:
    status: str = NFS_OK
    dir_wcc: Optional[WccData] = None

    @property
    def payload_bytes(self) -> int:
        return WCC_BYTES


@dataclass(frozen=True)
class RenameRequest:
    from_dir: FileHandle
    from_name: str
    to_dir: FileHandle
    to_name: str

    @property
    def payload_bytes(self) -> int:
        return 2 * LOOKUP_ARGS_BYTES


@dataclass(frozen=True)
class RenameReply:
    status: str = NFS_OK
    from_wcc: Optional[WccData] = None
    to_wcc: Optional[WccData] = None

    @property
    def payload_bytes(self) -> int:
        return 2 * WCC_BYTES


#: The reply type each request expects: every procedure has one entry,
#: the client checks each reply against it, and the server's procedure
#: table covers the same request types.
REPLY_TYPES = {
    ReadRequest: ReadReply, WriteRequest: WriteReply,
    CommitRequest: CommitReply, LookupRequest: LookupReply,
    GetattrRequest: GetattrReply, SetattrRequest: SetattrReply,
    ReaddirRequest: ReaddirReply, CreateRequest: CreateReply,
    MkdirRequest: MkdirReply, RemoveRequest: RemoveReply,
    RenameRequest: RenameReply,
}
