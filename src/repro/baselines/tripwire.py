"""Tripwire-style file integrity monitor baseline.

§II: "file integrity monitors such as Tripwire alert the administrator
when system-critical files are modified.  These monitors are based on
simple hash comparisons and fail to distinguish between legitimate file
accesses and malicious modifications ... this type of integrity
monitoring is likely to be noisy and frustrate the user."

The baseline demonstrates both failure modes the paper names:

* **no early warning** — it only notices damage at its next scheduled
  check, after the data is already transformed; it cannot suspend the
  writer;
* **noise** — every legitimate save raises exactly the same alert as an
  encryption.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List

from ..fs.paths import WinPath
from ..fs.vfs import VirtualFileSystem

__all__ = ["IntegrityAlert", "TripwireMonitor"]


@dataclass(frozen=True)
class IntegrityAlert:
    path: WinPath
    kind: str          # "modified" | "missing" | "new"
    check_index: int


@dataclass
class TripwireMonitor:
    """Hash-database integrity checker over a protected root."""

    vfs: VirtualFileSystem
    root: WinPath
    baseline: Dict[WinPath, str] = field(default_factory=dict)
    alerts: List[IntegrityAlert] = field(default_factory=list)
    checks_run: int = 0

    def initialize(self) -> int:
        """Record the trusted state; returns number of files enrolled."""
        self.baseline = {
            path: hashlib.sha256(node.read_bytes()).hexdigest()
            for path, node in self.vfs.peek_walk_files(self.root)
        }
        return len(self.baseline)

    def check(self) -> List[IntegrityAlert]:
        """One scheduled integrity sweep; returns this sweep's alerts."""
        if not self.baseline:
            raise RuntimeError("initialize() must run before check()")
        index = self.checks_run
        self.checks_run += 1
        fresh: List[IntegrityAlert] = []
        current = {path: node
                   for path, node in self.vfs.peek_walk_files(self.root)}
        for path, expected in self.baseline.items():
            node = current.get(path)
            if node is None:
                fresh.append(IntegrityAlert(path, "missing", index))
            elif hashlib.sha256(node.read_bytes()).hexdigest() != expected:
                fresh.append(IntegrityAlert(path, "modified", index))
        for path in current:
            if path not in self.baseline:
                fresh.append(IntegrityAlert(path, "new", index))
        self.alerts.extend(fresh)
        return fresh

    @property
    def alert_count(self) -> int:
        return len(self.alerts)

    def alerted_paths(self) -> List[WinPath]:
        return sorted({alert.path for alert in self.alerts})
