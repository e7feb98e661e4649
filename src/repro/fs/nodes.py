"""Filesystem nodes.

Files and directories are in-memory nodes with *stable node ids*.  Node ids
are the backbone of CryptoDrop's Class B/C state tracking: when ransomware
moves a file out of the documents tree, rewrites it, and moves it back under
a new name (Class B), the id is how "the state of the file [is] carefully
tracked each time a file is moved" (paper §III).
"""

from __future__ import annotations

import io
import itertools
from typing import Dict, Iterator, Optional

from .errors import FileNotFound

__all__ = ["FileAttributes", "FileNode", "DirNode", "NodeIdAllocator"]


class NodeIdAllocator:
    """Monotonic node-id source, one per filesystem instance."""

    def __init__(self) -> None:
        self._counter = itertools.count(1)

    def next_id(self) -> int:
        return next(self._counter)


class FileAttributes:
    """Subset of Windows file attributes relevant to the paper.

    ``read_only`` matters: the 2008 GPcode sample in §V-C failed to delete
    read-only files, so some corpus files carry the flag.
    """

    __slots__ = ("read_only", "hidden", "system")

    def __init__(self, read_only: bool = False, hidden: bool = False,
                 system: bool = False) -> None:
        self.read_only = read_only
        self.hidden = hidden
        self.system = system

    def copy(self) -> "FileAttributes":
        return FileAttributes(self.read_only, self.hidden, self.system)

    def __repr__(self) -> str:
        flags = [name for name in ("read_only", "hidden", "system")
                 if getattr(self, name)]
        return f"FileAttributes({', '.join(flags) or 'none'})"


class FileNode:
    """A regular file: copy-on-write content plus attributes and timestamps.

    The bytes live in an :class:`io.BytesIO`.  CPython's ``BytesIO(b)``
    adopts a ``bytes`` object, ``getvalue()`` hands its buffer back
    without copying, and the next write copies the buffer before
    changing it.  So a whole-version :meth:`read_bytes` copies nothing:
    a close, a baseline capture, a journal pre-image and a revert share
    one object per version.  Two rules keep it that way: nothing holds
    a ``getbuffer()`` view (an export makes ``getvalue()`` copy and a
    resize fail), and :attr:`size` never calls ``getvalue()`` (a shared
    buffer is copied by the next write).
    """

    __slots__ = ("node_id", "_content", "attrs", "created_us", "modified_us")

    def __init__(self, node_id: int, data: bytes = b"",
                 attrs: Optional[FileAttributes] = None,
                 created_us: float = 0.0) -> None:
        self.node_id = node_id
        self._content = io.BytesIO(data)
        self.attrs = attrs or FileAttributes()
        self.created_us = created_us
        self.modified_us = created_us

    @property
    def size(self) -> int:
        return self._content.seek(0, io.SEEK_END)

    def read_bytes(self, offset: int = 0, size: Optional[int] = None) -> bytes:
        """``size`` bytes from ``offset`` (to the end when None).  The whole
        version is the buffer itself; any other range is one copy."""
        content = self._content
        if offset == 0 and size is None:
            return content.getvalue()
        content.seek(offset)
        return content.read(size)

    def write_bytes(self, offset: int, payload: bytes, now_us: float) -> int:
        # a write past the end zero-fills the gap (NTFS sparse extension);
        # an empty one changes nothing
        content = self._content
        content.seek(offset)
        content.write(payload)
        self.modified_us = now_us
        return len(payload)

    def replace(self, data: bytes) -> None:
        """Make ``data`` the content, adopting it when it is ``bytes``."""
        self._content = io.BytesIO(data)

    def truncate(self, size: int, now_us: float) -> None:
        self._content.truncate(size)
        self.modified_us = now_us

    def __repr__(self) -> str:
        return f"FileNode(id={self.node_id}, size={self.size})"


class DirNode:
    """A directory: a case-insensitive, case-preserving child map."""

    __slots__ = ("node_id", "children", "_display", "created_us")

    def __init__(self, node_id: int, created_us: float = 0.0) -> None:
        self.node_id = node_id
        #: casefolded name -> node
        self.children: Dict[str, object] = {}
        #: casefolded name -> display name
        self._display: Dict[str, str] = {}
        self.created_us = created_us

    def get(self, name: str):
        return self.children.get(name.lower())

    def require(self, name: str):
        node = self.get(name)
        if node is None:
            raise FileNotFound(name)
        return node

    def put(self, name: str, node) -> None:
        key = name.lower()
        self.children[key] = node
        self._display[key] = name

    def remove(self, name: str) -> None:
        key = name.lower()
        if key not in self.children:
            raise FileNotFound(name)
        del self.children[key]
        del self._display[key]

    def display_name(self, name: str) -> str:
        return self._display.get(name.lower(), name)

    def names(self) -> Iterator[str]:
        """Display names in deterministic (casefolded) order."""
        for key in sorted(self.children):
            yield self._display[key]

    def __contains__(self, name: str) -> bool:
        return name.lower() in self.children

    def __len__(self) -> int:
        return len(self.children)

    def __repr__(self) -> str:
        return f"DirNode(id={self.node_id}, entries={len(self.children)})"
