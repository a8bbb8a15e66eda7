"""A hierarchical namespace over the flat inode layer.

FFS directories are files whose data blocks hold fixed-size entries;
this module reproduces that shape because it is what makes metadata
operations cost real disk I/O.  A LOOKUP must read the directory block
holding the entry (a cold directory walk is a string of 8 KiB reads);
CREATE/REMOVE/RENAME dirty the blocks they touch, which the buffer
cache writes back like any other data.  The NFS server charges that
I/O; this layer owns the structure.

Two families of operations:

* **Structural** (``create``/``mkdir``/``remove``/``rename``/…): plain
  methods that mutate the tree instantly.  Building a 50k-file tree at
  t=0 uses these, exactly as :meth:`FileSystem.create_file` always
  worked for flat files.  The NFS server also uses them at request
  time, charging the corresponding block I/O itself.
* **Mapping** (``entry_block``/``slot_blocks``): translate a directory
  slot range to disk blocks, so the server can drive the buffer cache
  for the bytes an operation really touches.

Determinism: slot assignment is lowest-free-slot-first, directory
inodes come from the file system's per-FS inode counter, and every
iteration below is over sorted names — a tree built from the same
operation sequence is byte-identical across processes.

Each directory keeps a **mutation counter**; the NFS server uses it as
the READDIR cookie verifier (RFC 1813 §3.3.16): a cookie minted before
a CREATE/REMOVE/RENAME in that directory is rejected with
``bad_cookie`` rather than silently skipping or repeating entries.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterator, List, Optional, Tuple, Union

from ..kernel.buffercache import BLOCK_SIZE
from .inode import Inode

#: On-disk bytes per directory entry (name + fileid + bookkeeping; a
#: round power of two so an 8 KiB block holds exactly 128 entries).
DIRENT_BYTES = 64
ENTRIES_PER_BLOCK = BLOCK_SIZE // DIRENT_BYTES


def split_path(path: str) -> Tuple[str, ...]:
    """Normalise ``path`` to its components.  '' or '/' is the root."""
    parts = tuple(p for p in path.split("/") if p)
    for part in parts:
        if part in (".", ".."):
            raise ValueError(f"unsupported path component {part!r}")
    return parts


class Directory:
    """One directory: named entries stored in slots of the data blocks.

    ``entries`` maps name -> child (:class:`Inode` for regular files,
    :class:`Directory` for subdirectories).  ``slots`` pins each name
    to a slot index, which determines the directory block an operation
    on that name touches; freed slots are reused lowest-first, like
    FFS compacting into earlier blocks.
    """

    __slots__ = ("inode", "entries", "slots", "_free", "_next_slot",
                 "mutations")

    def __init__(self, inode: Inode):
        self.inode = inode
        self.entries: Dict[str, Union[Inode, "Directory"]] = {}
        self.slots: Dict[str, int] = {}
        self._free: List[int] = []
        self._next_slot = 0
        #: Bumped by every entry add/drop — the READDIR cookieverf.
        self.mutations = 0

    # -- attributes ----------------------------------------------------

    @property
    def is_dir(self) -> bool:
        return True

    @property
    def entry_count(self) -> int:
        return len(self.entries)

    @property
    def slot_count(self) -> int:
        """Slots in use including holes (the directory's "length")."""
        return self._next_slot

    # -- slot/block mapping (the I/O the server charges) ---------------

    def entry_block(self, name: str) -> int:
        """Disk block holding ``name``'s slot."""
        file_block = self.slots[name] // ENTRIES_PER_BLOCK
        return self.inode.map_range(file_block, 1)[0][0]

    def slot_blocks(self, first_slot: int,
                    nslots: int) -> List[Tuple[int, int]]:
        """Disk runs covering slots [first_slot, first_slot+nslots)."""
        if nslots <= 0:
            return []
        first_fb = first_slot // ENTRIES_PER_BLOCK
        last_fb = (first_slot + nslots - 1) // ENTRIES_PER_BLOCK
        return self.inode.map_range(first_fb, last_fb - first_fb + 1)

    def all_blocks(self) -> List[Tuple[int, int]]:
        """Every allocated directory block (a full scan's footprint)."""
        return self.inode.map_range(0, self.inode.nblocks)

    # -- entry mutation ------------------------------------------------

    def _take_slot(self) -> int:
        if self._free:
            return heapq.heappop(self._free)
        slot = self._next_slot
        self._next_slot += 1
        return slot

    def add(self, name: str, node: Union[Inode, "Directory"]) -> int:
        """Insert an entry; returns the slot it landed in.

        The caller (the namespace) is responsible for growing the
        directory's inode first when the slot overflows its blocks.
        """
        if name in self.entries:
            raise FileExistsError(name)
        slot = self._take_slot()
        self.entries[name] = node
        self.slots[name] = slot
        self.mutations += 1
        return slot

    def drop(self, name: str) -> int:
        """Remove an entry; returns the slot it vacated."""
        if name not in self.entries:
            raise FileNotFoundError(name)
        slot = self.slots.pop(name)
        del self.entries[name]
        heapq.heappush(self._free, slot)
        self.mutations += 1
        return slot

    def sorted_slots(self) -> List[Tuple[int, str]]:
        """(slot, name) pairs in slot order — READDIR's iteration."""
        return sorted((slot, name) for name, slot in self.slots.items())

    def __repr__(self) -> str:
        return (f"<Directory {self.inode.name!r} "
                f"entries={len(self.entries)}>")


class Namespace:
    """The directory tree of one file system.

    Owns the flat ``files`` view (full path -> :class:`Inode` of every
    regular file), which :class:`~repro.ffs.filesystem.FileSystem`
    exposes for the pre-existing flat-namespace API.
    """

    def __init__(self, fs):
        self.fs = fs
        self.root = Directory(self._new_dir_inode("/"))
        self.files: Dict[str, Inode] = {}

    # -- helpers -------------------------------------------------------

    def _new_dir_inode(self, path: str) -> Inode:
        return self.fs.allocator.allocate_dir(path)

    def _capacity(self, directory: Directory) -> int:
        return directory.inode.nblocks * ENTRIES_PER_BLOCK

    def _insert(self, directory: Directory, name: str, node) -> int:
        """Add an entry, growing the directory's blocks if needed."""
        if directory.slot_count >= self._capacity(directory) \
                and not directory._free:
            self.fs.allocator.extend_dir(directory.inode, 1)
        return directory.add(name, node)

    # -- resolution ----------------------------------------------------

    def resolve(self, path: str) -> Union[Inode, Directory]:
        """Walk ``path`` from the root (raises like the syscalls do)."""
        node: Union[Inode, Directory] = self.root
        for part in split_path(path):
            if not isinstance(node, Directory):
                raise NotADirectoryError(path)
            try:
                node = node.entries[part]
            except KeyError:
                raise FileNotFoundError(path) from None
        return node

    def resolve_dir(self, path: str) -> Directory:
        node = self.resolve(path)
        if not isinstance(node, Directory):
            raise NotADirectoryError(path)
        return node

    def parent_of(self, path: str) -> Tuple[Directory, str]:
        """(parent directory, leaf name) of ``path``."""
        parts = split_path(path)
        if not parts:
            raise ValueError("the root has no parent")
        parent = self.resolve("/".join(parts[:-1]))
        if not isinstance(parent, Directory):
            raise NotADirectoryError(path)
        return parent, parts[-1]

    # -- structural mutation -------------------------------------------

    def mkdir(self, path: str, now: float = 0.0) -> Directory:
        parent, name = self.parent_of(path)
        if name in parent.entries:
            raise FileExistsError(path)
        child = Directory(self._new_dir_inode("/".join(split_path(path))))
        child.inode.mtime = child.inode.ctime = now
        self._insert(parent, name, child)
        parent.inode.mtime = parent.inode.ctime = now
        return child

    def makedirs(self, path: str, now: float = 0.0) -> Directory:
        """mkdir -p: create missing intermediate directories."""
        node: Union[Inode, Directory] = self.root
        walked: List[str] = []
        for part in split_path(path):
            if not isinstance(node, Directory):
                raise NotADirectoryError("/".join(walked))
            walked.append(part)
            child = node.entries.get(part)
            if child is None:
                child = self.mkdir("/".join(walked), now=now)
            node = child
        if not isinstance(node, Directory):
            raise NotADirectoryError(path)
        return node

    def create(self, path: str, size: int, now: float = 0.0) -> Inode:
        """Create a regular file (parent must already exist)."""
        parent, name = self.parent_of(path)
        if name in parent.entries:
            raise FileExistsError(path)
        full = "/".join(split_path(path))
        inode = self.fs.allocator.allocate(full, size)
        inode.mtime = inode.ctime = now
        self._insert(parent, name, inode)
        parent.inode.mtime = parent.inode.ctime = now
        self.files[full] = inode
        return inode

    def remove(self, path: str, now: float = 0.0) -> Inode:
        """Unlink a regular file (directories refuse, like unlink(2))."""
        parent, name = self.parent_of(path)
        node = parent.entries.get(name)
        if node is None:
            raise FileNotFoundError(path)
        if isinstance(node, Directory):
            raise IsADirectoryError(path)
        parent.drop(name)
        parent.inode.mtime = parent.inode.ctime = now
        self.files.pop("/".join(split_path(path)), None)
        return node

    def rename(self, src: str, dst: str, now: float = 0.0
               ) -> Tuple[Union[Inode, Directory],
                          Optional[Union[Inode, Directory]]]:
        """RFC 1813 RENAME semantics; returns (moved, replaced-or-None).

        An existing target is replaced when types agree (a target
        directory must be empty); renaming a directory over a file, or
        a file over a directory, raises.
        """
        src_parent, src_name = self.parent_of(src)
        dst_parent, dst_name = self.parent_of(dst)
        node = src_parent.entries.get(src_name)
        if node is None:
            raise FileNotFoundError(src)
        replaced = dst_parent.entries.get(dst_name)
        if replaced is node:
            return node, None  # no-op rename onto itself
        if replaced is not None:
            if isinstance(node, Directory) != isinstance(replaced,
                                                         Directory):
                if isinstance(replaced, Directory):
                    raise IsADirectoryError(dst)
                raise NotADirectoryError(dst)
            if isinstance(replaced, Directory) and replaced.entries:
                import errno
                raise OSError(errno.ENOTEMPTY, f"directory not empty: "
                              f"{dst}")
            dst_parent.drop(dst_name)
            if not isinstance(replaced, Directory):
                self.files.pop("/".join(split_path(dst)), None)
        src_parent.drop(src_name)
        self._insert(dst_parent, dst_name, node)
        src_parent.inode.mtime = src_parent.inode.ctime = now
        dst_parent.inode.mtime = dst_parent.inode.ctime = now
        if isinstance(node, Directory):
            self._rename_subtree(src, dst, node)
            node.inode.ctime = now
        else:
            old = "/".join(split_path(src))
            new = "/".join(split_path(dst))
            self.files.pop(old, None)
            self.files[new] = node
            node.name = new
            node.ctime = now
        return node, replaced

    def _rename_subtree(self, src: str, dst: str,
                        node: Directory) -> None:
        """Re-key paths under a moved directory.

        Both the flat ``files`` view and every descendant directory
        inode's ``name`` (which records its full path) get the new
        prefix, so path derivation from any directory object stays
        correct after the move.
        """
        old_prefix = "/".join(split_path(src)) + "/"
        new_prefix = "/".join(split_path(dst)) + "/"
        node.inode.name = "/".join(split_path(dst))
        stack = [node]
        while stack:
            directory = stack.pop()
            for child in directory.entries.values():
                if isinstance(child, Directory):
                    child.inode.name = (new_prefix
                                        + child.inode.name[len(old_prefix):])
                    stack.append(child)
        for path in sorted(p for p in self.files
                           if p.startswith(old_prefix)):
            inode = self.files.pop(path)
            new_path = new_prefix + path[len(old_prefix):]
            inode.name = new_path
            self.files[new_path] = inode

    # -- directory-relative mutation (the NFS server's entry points) ---

    def path_of(self, directory: Directory) -> str:
        """Full path of a live directory ('' for the root).

        Directory inodes record their full path in ``name`` (rename
        keeps them current), so no upward walk is needed.
        """
        name = directory.inode.name
        return "" if name == "/" else name

    def join(self, directory: Directory, name: str) -> str:
        base = self.path_of(directory)
        return f"{base}/{name}" if base else name

    def create_in(self, directory: Directory, name: str, size: int,
                  now: float = 0.0) -> Inode:
        return self.create(self.join(directory, name), size, now=now)

    def mkdir_in(self, directory: Directory, name: str,
                 now: float = 0.0) -> Directory:
        return self.mkdir(self.join(directory, name), now=now)

    def remove_in(self, directory: Directory, name: str,
                  now: float = 0.0) -> Inode:
        return self.remove(self.join(directory, name), now=now)

    def rename_in(self, from_dir: Directory, from_name: str,
                  to_dir: Directory, to_name: str, now: float = 0.0):
        return self.rename(self.join(from_dir, from_name),
                           self.join(to_dir, to_name), now=now)

    # -- traversal -----------------------------------------------------

    def walk_files(self) -> Iterator[Tuple[str, Inode]]:
        """Every regular file as (path, inode), sorted by path."""
        for path in sorted(self.files):
            yield path, self.files[path]

    def walk_dirs(self) -> Iterator[Tuple[str, Directory]]:
        """Every directory as (path, directory), root first."""
        stack: List[Tuple[str, Directory]] = [("", self.root)]
        while stack:
            path, directory = stack.pop()
            yield path, directory
            for name in sorted(directory.entries, reverse=True):
                child = directory.entries[name]
                if isinstance(child, Directory):
                    child_path = f"{path}/{name}" if path else name
                    stack.append((child_path, child))
