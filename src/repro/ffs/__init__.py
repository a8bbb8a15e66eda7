"""An FFS-like file system: allocation, inodes, namespace, read path."""

from .allocator import AllocationError, SequentialAllocator
from .filesystem import FileHandle, FileSystem
from .inode import Extent, Inode
from .metajournal import (FsckReport, IntentRecord, MetaJournal,
                          scan_and_heal, verify_namespace)
from .namespace import (DIRENT_BYTES, ENTRIES_PER_BLOCK, Directory,
                        Namespace, split_path)

__all__ = [
    "MetaJournal",
    "IntentRecord",
    "FsckReport",
    "scan_and_heal",
    "verify_namespace",
    "FileSystem",
    "FileHandle",
    "Inode",
    "Extent",
    "SequentialAllocator",
    "AllocationError",
    "Namespace",
    "Directory",
    "DIRENT_BYTES",
    "ENTRIES_PER_BLOCK",
    "split_path",
]
