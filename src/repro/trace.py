"""Operation traces: capture once, re-detect offline.

§V-F notes that conventional dynamic-analysis workflows — "passively
observing benign activity on a system and running the detector on it
later" — do not work for CryptoDrop, because the detector must measure
the documents *before and after each change*.  The corollary: offline
analysis is possible only if the capture preserves full data.  This
module implements exactly that trade:

* :class:`TraceRecorder` is a filter driver that journals every completed
  operation **including write payloads**, giving a replayable record;
* :func:`replay_trace` re-executes a trace against a fresh machine (same
  corpus) with any detector configuration attached — so one captured
  incident can be re-analysed under different thresholds, indicator sets,
  or future detector versions without re-running the malware.  It applies
  each record with :func:`apply_record`, the one record-kind dispatch,
  which the ingest tier's shards (:mod:`repro.ingest.shard`) call too.

Traces are plain lists of tuples and serialise with ``json`` (payloads
hex-encoded) for archival.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .core.config import CryptoDropConfig
from .core.monitor import CryptoDropMonitor
from .corpus.builder import GeneratedCorpus
from .fs.errors import FsError, ProcessSuspended
from .fs.events import FsOperation, OpKind
from .fs.filters import FilterDriver, PostVerdict
from .fs.paths import WinPath
from .sandbox.machine import VirtualMachine

__all__ = ["TraceRecord", "TraceRecorder", "apply_record", "replay_trace",
           "trace_to_json", "trace_from_json"]


@dataclass(frozen=True)
class TraceRecord:
    """One replayable operation."""

    kind: str
    pid: int
    path: str
    data: Optional[bytes] = None
    offset: int = 0
    size: Optional[int] = None
    dest: Optional[str] = None
    truncate: bool = False
    new_size: Optional[int] = None


class TraceRecorder(FilterDriver):
    """Capture a full-data operation trace from a live machine."""

    name = "trace-recorder"

    #: operation kinds that carry enough context to replay
    _REPLAYABLE = {OpKind.CREATE, OpKind.OPEN, OpKind.READ, OpKind.WRITE,
                   OpKind.CLOSE, OpKind.RENAME, OpKind.DELETE,
                   OpKind.TRUNCATE, OpKind.MKDIR}

    def __init__(self) -> None:
        self.records: List[TraceRecord] = []

    def post_operation(self, op: FsOperation) -> PostVerdict:
        if op.kind not in self._REPLAYABLE:
            return PostVerdict.ALLOW
        self.records.append(TraceRecord(
            kind=op.kind.value,
            pid=op.pid,
            path=str(op.path),
            data=bytes(op.data) if (op.kind is OpKind.WRITE
                                    and op.data is not None) else None,
            offset=op.offset,
            size=op.size if op.kind is OpKind.READ else None,
            dest=str(op.dest_path) if op.dest_path is not None else None,
            truncate=op.truncate,
            new_size=op.new_size))
        return PostVerdict.ALLOW


def apply_record(vfs, pid: int, record: TraceRecord,
                 handles: Dict[Tuple[int, str], object]) -> None:
    """Re-execute one record as replay process ``pid`` on ``vfs``.

    ``handles`` maps ``(pid, lowercased path)`` to the handle an OPEN or
    CREATE record opened; a READ, WRITE, TRUNCATE or CLOSE of a path with
    no open handle is skipped, and a RENAME re-keys the renamed path's
    handle (live handles follow the node).  VFS errors, suspension
    included, propagate: the caller decides whether to stop, skip or
    retry.
    """
    path = WinPath(record.path)
    key = (pid, record.path.lower())
    if record.kind == "mkdir":
        vfs.mkdir(pid, path, exist_ok=True)
    elif record.kind == "create":
        handles[key] = vfs.open(pid, path, "rw", create=True)
    elif record.kind == "open":
        handles[key] = vfs.open(pid, path, "rw", truncate=record.truncate)
    elif record.kind == "read":
        handle = handles.get(key)
        if handle is not None:
            vfs.seek(pid, handle, record.offset)
            vfs.read(pid, handle, record.size)
    elif record.kind == "write":
        handle = handles.get(key)
        if handle is not None and record.data is not None:
            vfs.seek(pid, handle, record.offset)
            vfs.write(pid, handle, record.data)
    elif record.kind == "truncate":
        handle = handles.get(key)
        if handle is not None and record.new_size is not None:
            vfs.truncate_handle(pid, handle, record.new_size)
    elif record.kind == "close":
        handle = handles.pop(key, None)
        if handle is not None:
            vfs.close(pid, handle)
    elif record.kind == "rename":
        vfs.rename(pid, path, WinPath(record.dest))
        moved = handles.pop(key, None)
        if moved is not None:
            handles[(pid, record.dest.lower())] = moved
    elif record.kind == "delete":
        vfs.delete(pid, path)


def replay_trace(records: List[TraceRecord], corpus: GeneratedCorpus,
                 config: Optional[CryptoDropConfig] = None,
                 telemetry=None
                 ) -> Tuple[CryptoDropMonitor, VirtualMachine]:
    """Re-execute a trace on a fresh machine under a fresh detector.

    Process identities are preserved (each distinct pid in the trace gets
    its own replay process), handles are re-opened per OPEN/CREATE record,
    and replay stops early if the detector suspends the offending process
    — returning the monitor so the caller can compare detections across
    configurations.

    ``telemetry`` accepts a :class:`~repro.telemetry.TelemetrySession`
    to stream the replayed detection into — an archived incident then
    yields the same event sequence (modulo timestamps and replay pids) a
    live capture did, feeding the timeline builder or a JSONL sink.
    Omitted, the replay monitor still honours
    ``config.telemetry_enabled``.
    """
    machine = VirtualMachine(corpus)
    machine.snapshot()
    vfs = machine.vfs
    monitor = CryptoDropMonitor(vfs, config, telemetry=telemetry).attach()
    pid_map: Dict[int, int] = {}
    open_handles: Dict[Tuple[int, str], object] = {}

    def replay_pid(original: int) -> int:
        if original not in pid_map:
            proc = vfs.processes.spawn(f"replay-{original}.exe")
            pid_map[original] = proc.pid
        return pid_map[original]

    for record in records:
        pid = replay_pid(record.pid)
        try:
            apply_record(vfs, pid, record, open_handles)
        except ProcessSuspended:
            break
        except FsError:
            continue
    monitor.detach()
    return monitor, machine


# ---------------------------------------------------------------------------
# serialisation
# ---------------------------------------------------------------------------

def trace_to_json(records: List[TraceRecord]) -> str:
    """Archive a trace (write payloads hex-encoded)."""
    return json.dumps([
        {
            "kind": r.kind, "pid": r.pid, "path": r.path,
            "data": r.data.hex() if r.data is not None else None,
            "offset": r.offset, "size": r.size, "dest": r.dest,
            "truncate": r.truncate, "new_size": r.new_size,
        }
        for r in records
    ])


def trace_from_json(payload: str) -> List[TraceRecord]:
    """Inverse of :func:`trace_to_json`."""
    out: List[TraceRecord] = []
    for row in json.loads(payload):
        out.append(TraceRecord(
            kind=row["kind"], pid=row["pid"], path=row["path"],
            data=bytes.fromhex(row["data"]) if row["data"] else None,
            offset=row["offset"], size=row["size"], dest=row["dest"],
            truncate=row["truncate"], new_size=row["new_size"]))
    return out
