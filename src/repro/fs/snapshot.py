"""Baseline capture and damage assessment.

The paper's metric is *files lost before detection*: after each run they
"verified the SHA-256 hashes of the documents to ensure they were present
and unmodified" (§V-A).  :class:`BaselineIndex` captures the pristine
corpus, and :func:`assess_damage` classifies every baseline file after a
run as intact, modified, or missing.  New files (ransom notes, Class-C
ciphertext files) are reported separately.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from .paths import WinPath
from .vfs import VirtualFileSystem

__all__ = ["BaselineIndex", "DamageReport", "assess_damage"]


class BaselineIndex:
    """SHA-256 map of every file under a protected root at capture time."""

    def __init__(self, vfs: VirtualFileSystem, root: WinPath) -> None:
        self.root = root
        self.hashes: Dict[WinPath, str] = {}
        self.sizes: Dict[WinPath, int] = {}
        for path, node in vfs.peek_walk_files(root):
            self.hashes[path] = hashlib.sha256(node.read_bytes()).hexdigest()
            self.sizes[path] = node.size

    def __len__(self) -> int:
        return len(self.hashes)

    def __contains__(self, path: WinPath) -> bool:
        return path in self.hashes


@dataclass
class DamageReport:
    """Outcome of one run, relative to a :class:`BaselineIndex`."""

    intact: int = 0
    modified: List[WinPath] = field(default_factory=list)
    missing: List[WinPath] = field(default_factory=list)
    new_files: List[WinPath] = field(default_factory=list)

    @property
    def files_lost(self) -> int:
        """The paper's headline metric: baseline files no longer pristine."""
        return len(self.modified) + len(self.missing)

    @property
    def any_damage(self) -> bool:
        return self.files_lost > 0

    def summary(self) -> str:
        return (f"{self.files_lost} lost "
                f"({len(self.modified)} modified, {len(self.missing)} missing), "
                f"{len(self.new_files)} new, {self.intact} intact")


def assess_damage(vfs: VirtualFileSystem, baseline: BaselineIndex,
                  candidates: Optional[Set[WinPath]] = None) -> DamageReport:
    """Compare the tree against ``baseline``.

    ``candidates`` narrows hash verification to paths known to have been
    touched (the VFS journal provides this), which keeps per-sample
    assessment proportional to the attack size rather than the corpus size.
    Existence checks always cover the full baseline so deletions outside the
    candidate set cannot hide.
    """
    report = DamageReport()
    # nodes, not bytes: only the files that must be hashed are read
    current = dict(vfs.peek_walk_files(baseline.root))
    for path, expected in baseline.hashes.items():
        node = current.get(path)
        if node is None:
            report.missing.append(path)
            continue
        must_hash = candidates is None or path in candidates
        if not must_hash and node.size == baseline.sizes[path]:
            report.intact += 1
            continue
        if hashlib.sha256(node.read_bytes()).hexdigest() == expected:
            report.intact += 1
        else:
            report.modified.append(path)
    for path in current:
        if path not in baseline.hashes:
            report.new_files.append(path)
    report.modified.sort()
    report.missing.sort()
    report.new_files.sort()
    return report
