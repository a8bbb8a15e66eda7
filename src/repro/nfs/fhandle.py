"""NFS file handles.

A file handle is the server-issued opaque token that identifies a file
across the stateless protocol.  Here it wraps the inode number; its
``id`` is what the nfsheur table hashes, standing in for the vnode
pointer FreeBSD hashes.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class FileHandle:
    """An opaque, hashable NFS file handle."""

    id: int

    def __repr__(self) -> str:
        return f"fh({self.id})"
