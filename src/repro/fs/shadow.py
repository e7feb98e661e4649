"""Volume Shadow Copy service model.

TeslaCrypt "disables and removes the Windows volume shadow copies" before
encrypting (paper §III).  CryptoDrop deliberately *ignores* these operations
because they do not alter user data — but the reproduction still models the
service so that (a) family simulators can perform their real pre-encryption
ritual and (b) tests can assert the detector is genuinely indifferent to it.

A shadow copy here is a full out-of-band snapshot of the protected tree's
file contents, addressable for restore; ``vssadmin delete shadows /all`` is
:meth:`ShadowCopyService.delete_all`.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

from .paths import WinPath
from .vfs import VirtualFileSystem

__all__ = ["ShadowCopy", "ShadowCopyService"]


class ShadowCopy:
    """One point-in-time copy of a directory tree."""

    __slots__ = ("shadow_id", "root", "created_us", "files")

    def __init__(self, shadow_id: int, root: WinPath, created_us: float,
                 files: Dict[WinPath, bytes]) -> None:
        self.shadow_id = shadow_id
        self.root = root
        self.created_us = created_us
        self.files = files

    def __len__(self) -> int:
        return len(self.files)


class ShadowCopyService:
    """The VSS writer/provider pair, reduced to what the paper exercises."""

    def __init__(self, vfs: VirtualFileSystem) -> None:
        self._vfs = vfs
        self._ids = itertools.count(1)
        self._copies: Dict[int, ShadowCopy] = {}
        self.enabled = True
        #: audit log of (timestamp_us, pid, action) for tests/forensics
        self.audit: List[Tuple[float, int, str]] = []

    def create(self, pid: int, root: WinPath) -> ShadowCopy:
        if not self.enabled:
            raise RuntimeError("shadow copy service disabled")
        files = {path: node.read_bytes()
                 for path, node in self._vfs.peek_walk_files(root)}
        copy = ShadowCopy(next(self._ids), root, self._vfs.clock.now_us, files)
        self._copies[copy.shadow_id] = copy
        self.audit.append((self._vfs.clock.now_us, pid, "create"))
        return copy

    def list_copies(self) -> List[ShadowCopy]:
        return sorted(self._copies.values(), key=lambda c: c.shadow_id)

    def delete_all(self, pid: int) -> int:
        """``vssadmin delete shadows /all /quiet``; returns count removed."""
        removed = len(self._copies)
        self._copies.clear()
        self.audit.append((self._vfs.clock.now_us, pid, "delete_all"))
        return removed

    def disable(self, pid: int) -> None:
        self.enabled = False
        self.audit.append((self._vfs.clock.now_us, pid, "disable"))

    def restore_file(self, path: WinPath,
                     shadow_id: Optional[int] = None) -> Optional[bytes]:
        """Fetch ``path`` from the newest (or named) shadow copy, if any."""
        copies = self.list_copies()
        if shadow_id is not None:
            copies = [c for c in copies if c.shadow_id == shadow_id]
        for copy in reversed(copies):
            if path in copy.files:
                return copy.files[path]
        return None
