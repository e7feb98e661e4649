"""The virtual filesystem.

An in-memory, Windows-semantics filesystem with a minifilter-style
interception point.  This is the substrate replacing the paper's NTFS +
kernel driver: every operation issued by a process

1. checks the process is runnable (suspended processes cannot issue I/O),
2. is published to the filter stack's pre-operation hooks (deny / suspend),
3. executes against the node tree (journalled for snapshot/revert),
4. is published to the post-operation hooks with its results,
5. advances the simulated clock by base latency + filter-charged latency.

Out-of-band ``peek_*`` accessors read the tree *without* generating events
or advancing time.  They model CryptoDrop's privileged kernel-side reads
("CryptoDrop switches context and reads the file using the kernel code",
paper §V-H) and are also used by the sandbox's snapshot verifier.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Tuple

from .clock import SimClock
from .errors import (AccessDenied, DirectoryNotEmpty, FileExists,
                     FileNotFound, FsError, IsADirectory, NotADirectory,
                     OperationDenied, ProcessSuspended)
from .events import Decision, FsOperation, OpKind
from .filters import FilterStack
from .handles import Handle, HandleTable
from .nodes import DirNode, FileAttributes, FileNode, NodeIdAllocator
from .paths import WinPath
from .processes import ProcessTable

__all__ = ["VirtualFileSystem", "StatResult"]

#: pid used for out-of-band system activity (never filtered).
SYSTEM_PID = 4


class StatResult:
    """Metadata snapshot for one node."""

    __slots__ = ("node_id", "is_dir", "size", "attrs", "created_us",
                 "modified_us")

    def __init__(self, node_id: int, is_dir: bool, size: int,
                 attrs: FileAttributes, created_us: float,
                 modified_us: float) -> None:
        self.node_id = node_id
        self.is_dir = is_dir
        self.size = size
        self.attrs = attrs
        self.created_us = created_us
        self.modified_us = modified_us


class _Journal:
    """Undo journal enabling cheap snapshot/revert.

    Structural changes append inverse records; the first data mutation of
    each file after a mark keeps the version's bytes as its pre-image (the
    node's own buffer: the mutation copies it first).  Reverting replays
    the structural records in reverse and hands the pre-images back,
    touching only what actually changed — reverting a 5,099-file corpus
    after a ransomware run that encrypted 30 files restores ~30 buffers.
    """

    def __init__(self) -> None:
        self.active = False
        self.records: List[Tuple] = []
        self.pre_images: Dict[int, Tuple[bytes, float]] = {}
        self.touched_paths: set = set()

    def mark(self) -> None:
        self.active = True
        self.records.clear()
        self.pre_images.clear()
        self.touched_paths.clear()

    def note_data(self, node: FileNode) -> None:
        if self.active and node.node_id not in self.pre_images:
            self.pre_images[node.node_id] = (node.read_bytes(),
                                             node.modified_us)

    def note(self, record: Tuple) -> None:
        if self.active:
            self.records.append(record)

    def note_path(self, path: WinPath) -> None:
        if self.active:
            self.touched_paths.add(path)


class VirtualFileSystem:
    """In-memory Windows-like filesystem with filter interposition."""

    def __init__(self, clock: Optional[SimClock] = None,
                 processes: Optional[ProcessTable] = None) -> None:
        self.clock = clock or SimClock()
        self.processes = processes or ProcessTable()
        self.filters = FilterStack()
        self.handles = HandleTable()
        self._ids = NodeIdAllocator()
        self._roots: Dict[str, DirNode] = {
            "c:": DirNode(self._ids.next_id()),
        }
        self._journal = _Journal()
        #: called with (pid, reason) whenever a filter suspends a process
        self.on_suspend: Optional[Callable[[int, str], None]] = None

    # ------------------------------------------------------------------
    # resolution helpers (no events)
    # ------------------------------------------------------------------

    def _root_for(self, path: WinPath) -> DirNode:
        key = path.drive.lower()
        root = self._roots.get(key)
        if root is None:
            root = DirNode(self._ids.next_id())
            self._roots[key] = root
        return root

    def _resolve(self, path: WinPath):
        node = self._root_for(path)
        for part in path.parts:
            if not isinstance(node, DirNode):
                raise NotADirectory(str(path))
            child = node.get(part)
            if child is None:
                raise FileNotFound(str(path))
            node = child
        return node

    def _resolve_dir(self, path: WinPath) -> DirNode:
        node = self._resolve(path)
        if not isinstance(node, DirNode):
            raise NotADirectory(str(path))
        return node

    def _resolve_file(self, path: WinPath) -> FileNode:
        node = self._resolve(path)
        if isinstance(node, DirNode):
            raise IsADirectory(str(path))
        return node

    # ------------------------------------------------------------------
    # filter dispatch
    # ------------------------------------------------------------------

    def _dispatch(self, op: FsOperation, action: Callable[[], None]) -> FsOperation:
        """Run ``op`` through pre-hooks, ``action``, then post-hooks."""
        if op.pid != SYSTEM_PID:
            self.processes.check_runnable(op.pid)
        op.timestamp_us = self.clock.now_us
        decision, decider, pre_extra = self.filters.run_pre(op)
        if decision is Decision.DENY:
            self.clock.charge(op.kind.latency_key, pre_extra)
            name = decider.name if decider else "filter"
            raise OperationDenied(f"{name} denied {op.short()}")
        if decision is Decision.SUSPEND:
            self.clock.charge(op.kind.latency_key, pre_extra)
            self._suspend(op.pid, f"{decider.name if decider else 'filter'}"
                                  f" pre-op on {op.short()}")
        action()
        op.succeeded = True
        verdict, decider, post_extra = self.filters.run_post(op)
        self.clock.charge(op.kind.latency_key, pre_extra + post_extra)
        if verdict.suspend:
            self._suspend(op.pid, verdict.reason or
                          (decider.name if decider else "filter"))
        return op

    def _suspend(self, pid: int, reason: str) -> None:
        self.processes.suspend_family(pid, reason)
        if self.on_suspend is not None:
            self.on_suspend(pid, reason)
        raise ProcessSuspended(pid, reason)

    # ------------------------------------------------------------------
    # directory operations
    # ------------------------------------------------------------------

    def mkdir(self, pid: int, path: WinPath, parents: bool = False,
              exist_ok: bool = False) -> None:
        try:
            existing = self._resolve(path)
        except FileNotFound:
            existing = None
        except NotADirectory:
            raise
        if existing is not None:
            if isinstance(existing, DirNode) and exist_ok:
                return
            raise FileExists(str(path))
        if parents and path.parts:
            for ancestor in reversed(list(path.ancestors())):
                if ancestor.parts:
                    self.mkdir(pid, ancestor, exist_ok=True)
        parent = self._resolve_dir(path.parent)
        op = FsOperation(OpKind.MKDIR, pid, path)

        def action() -> None:
            node = DirNode(self._ids.next_id(), self.clock.now_us)
            parent.put(path.name, node)
            self._journal.note(("mkdir", parent, path.name))

        self._dispatch(op, action)

    def listdir(self, pid: int, path: WinPath) -> List[str]:
        directory = self._resolve_dir(path)
        names: List[str] = []
        op = FsOperation(OpKind.LIST_DIR, pid, path, node_id=directory.node_id)

        def action() -> None:
            names.extend(directory.names())

        self._dispatch(op, action)
        return names

    def walk(self, pid: int, root: WinPath) -> Iterator[Tuple[WinPath, List[str], List[str]]]:
        """Depth-first traversal emitting LIST events, like FindFirstFile."""
        stack = [root]
        while stack:
            current = stack.pop()
            directory = self._resolve_dir(current)
            dirnames: List[str] = []
            filenames: List[str] = []
            for name in self.listdir(pid, current):
                child = directory.get(name)
                (dirnames if isinstance(child, DirNode) else filenames).append(name)
            yield current, dirnames, filenames
            for name in reversed(dirnames):
                stack.append(current / name)

    # ------------------------------------------------------------------
    # file lifecycle
    # ------------------------------------------------------------------

    def open(self, pid: int, path: WinPath, mode: str = "r",
             create: bool = False, truncate: bool = False,
             attrs: Optional[FileAttributes] = None) -> Handle:
        """Open a file. ``mode`` is any combination of ``r`` and ``w``."""
        readable = "r" in mode
        writable = "w" in mode or "a" in mode
        if not (readable or writable):
            raise ValueError(f"bad mode {mode!r}")
        existing: Optional[FileNode]
        try:
            node = self._resolve(path)
            if isinstance(node, DirNode):
                raise IsADirectory(str(path))
            existing = node
        except FileNotFound:
            existing = None
        if existing is None and not create:
            raise FileNotFound(str(path))
        if existing is not None and existing.attrs.read_only and (writable and (truncate or "w" in mode)):
            # NTFS refuses GENERIC_WRITE on read-only files.
            raise AccessDenied(f"read-only: {path}")

        handle_box: List[Handle] = []
        if existing is None:
            parent = self._resolve_dir(path.parent)
            op = FsOperation(OpKind.CREATE, pid, path)

            def action() -> None:
                node = FileNode(self._ids.next_id(), b"", attrs,
                                self.clock.now_us)
                parent.put(path.name, node)
                self._journal.note(("create", parent, path.name))
                self._journal.note_path(path)
                op.node_id = node.node_id
                handle_box.append(self.handles.allocate(
                    pid, node, path, readable, writable, self.clock.now_us))
        else:
            node = existing
            op = FsOperation(OpKind.OPEN, pid, path, node_id=node.node_id,
                             size=node.size, truncate=truncate)

            def action() -> None:
                if truncate and node.size:
                    self._journal.note_data(node)
                    self._journal.note_path(path)
                    node.truncate(0, self.clock.now_us)
                handle_box.append(self.handles.allocate(
                    pid, node, path, readable, writable, self.clock.now_us))

        op_done = self._dispatch(op, action)
        handle = handle_box[0]
        op_done.handle_id = handle.handle_id
        if "a" in mode:
            handle.pos = handle.node.size
        return handle

    def read(self, pid: int, handle: Handle, size: Optional[int] = None) -> bytes:
        handle = self.handles.require(handle, pid)
        if not handle.readable:
            raise AccessDenied(f"handle #{handle.handle_id} not readable")
        node = handle.node
        out: List[bytes] = []
        offset = handle.pos
        op = FsOperation(OpKind.READ, pid, handle.path, node_id=node.node_id,
                         handle_id=handle.handle_id, offset=offset)

        def action() -> None:
            payload = node.read_bytes(offset, size)
            # A pre-op filter may schedule a short read (fault injection):
            # only a prefix of the payload reaches the caller, and the
            # post-op hooks observe exactly the delivered bytes.
            factor = op.context.get("fault_read_factor")
            if factor is not None and len(payload) > 1:
                payload = payload[:max(1, int(len(payload) * factor))]
            out.append(payload)
            op.data = payload
            op.size = len(payload)
            handle.pos = offset + len(payload)
            handle.did_read = True

        self._dispatch(op, action)
        return out[0]

    def write(self, pid: int, handle: Handle, payload: bytes) -> int:
        handle = self.handles.require(handle, pid)
        if not handle.writable:
            raise AccessDenied(f"handle #{handle.handle_id} not writable")
        node = handle.node
        offset = handle.pos
        op = FsOperation(OpKind.WRITE, pid, handle.path, node_id=node.node_id,
                         handle_id=handle.handle_id, data=bytes(payload),
                         offset=offset, size=len(payload))

        def action() -> None:
            self._journal.note_data(node)
            self._journal.note_path(handle.path)
            node.write_bytes(offset, payload, self.clock.now_us)
            handle.pos = offset + len(payload)
            handle.did_write = True

        self._dispatch(op, action)
        return len(payload)

    def seek(self, pid: int, handle: Handle, pos: int) -> None:
        handle = self.handles.require(handle, pid)
        if pos < 0:
            raise ValueError("negative seek")
        handle.pos = pos

    def truncate_handle(self, pid: int, handle: Handle, size: int) -> None:
        handle = self.handles.require(handle, pid)
        if not handle.writable:
            raise AccessDenied(f"handle #{handle.handle_id} not writable")
        node = handle.node
        op = FsOperation(OpKind.TRUNCATE, pid, handle.path,
                         node_id=node.node_id, handle_id=handle.handle_id,
                         new_size=size)

        def action() -> None:
            self._journal.note_data(node)
            self._journal.note_path(handle.path)
            node.truncate(size, self.clock.now_us)
            handle.did_write = True

        self._dispatch(op, action)

    def close(self, pid: int, handle: Handle) -> None:
        handle = self.handles.require(handle, pid)
        node = handle.node
        op = FsOperation(OpKind.CLOSE, pid, handle.path, node_id=node.node_id,
                         handle_id=handle.handle_id, size=node.size,
                         wrote_since_open=handle.did_write,
                         read_since_open=handle.did_read)

        def action() -> None:
            self.handles.release(handle)

        self._dispatch(op, action)

    # ------------------------------------------------------------------
    # namespace operations
    # ------------------------------------------------------------------

    def rename(self, pid: int, src: WinPath, dst: WinPath,
               overwrite: bool = True) -> None:
        """Move/rename ``src`` to ``dst``, optionally replacing a file."""
        node = self._resolve(src)
        src_parent = self._resolve_dir(src.parent)
        dst_parent = self._resolve_dir(dst.parent)
        clobbered = dst_parent.get(dst.name) if src != dst else None
        if clobbered is not None:
            if isinstance(clobbered, DirNode):
                raise FileExists(f"directory in the way: {dst}")
            if not overwrite:
                raise FileExists(str(dst))
            if clobbered.attrs.read_only:
                raise AccessDenied(f"read-only: {dst}")
        node_id = node.node_id if isinstance(node, FileNode) else None
        op = FsOperation(
            OpKind.RENAME, pid, src, node_id=node_id, dest_path=dst,
            dest_existed=clobbered is not None,
            dest_node_id=clobbered.node_id if clobbered is not None else None,
            size=node.size if isinstance(node, FileNode) else 0)

        def action() -> None:
            src_display = src_parent.display_name(src.name)
            self._journal.note(("rename", src_parent, src_display,
                                dst_parent, dst.name, clobbered))
            self._journal.note_path(src)
            self._journal.note_path(dst)
            src_parent.remove(src.name)
            dst_parent.put(dst.name, node)
            if node_id is not None:
                self.handles.repath_node(node_id, dst)
                return
            for handle in self.handles.open_handles():
                if handle.path.is_within(src):
                    handle.path = dst.joinpath(
                        *handle.path.relative_parts(src))

        self._dispatch(op, action)

    def delete(self, pid: int, path: WinPath) -> None:
        node = self._resolve(path)
        parent = self._resolve_dir(path.parent)
        if isinstance(node, DirNode):
            if len(node):
                raise DirectoryNotEmpty(str(path))
            op = FsOperation(OpKind.DELETE, pid, path, node_id=None,
                             detail="rmdir")
        else:
            if node.attrs.read_only:
                raise AccessDenied(f"read-only: {path}")
            op = FsOperation(OpKind.DELETE, pid, path, node_id=node.node_id,
                             size=node.size)

        def action() -> None:
            display = parent.display_name(path.name)
            self._journal.note(("delete", parent, display, node))
            self._journal.note_path(path)
            parent.remove(path.name)

        self._dispatch(op, action)

    def set_attributes(self, pid: int, path: WinPath,
                       read_only: Optional[bool] = None,
                       hidden: Optional[bool] = None) -> None:
        node = self._resolve_file(path)
        op = FsOperation(OpKind.SET_ATTR, pid, path, node_id=node.node_id)

        def action() -> None:
            self._journal.note(("attrs", node, node.attrs.copy()))
            if read_only is not None:
                node.attrs.read_only = read_only
            if hidden is not None:
                node.attrs.hidden = hidden

        self._dispatch(op, action)

    def stat(self, pid: int, path: WinPath) -> StatResult:
        node = self._resolve(path)
        result_box: List[StatResult] = []
        op = FsOperation(OpKind.STAT, pid, path,
                         node_id=getattr(node, "node_id", None))

        def action() -> None:
            result_box.append(self.peek_stat(path))

        self._dispatch(op, action)
        return result_box[0]

    # ------------------------------------------------------------------
    # convenience wrappers (each expands into open/IO/close events)
    # ------------------------------------------------------------------

    def read_file(self, pid: int, path: WinPath,
                  chunk_size: Optional[int] = None) -> bytes:
        handle = self.open(pid, path, "r")
        try:
            if chunk_size is None:
                return self.read(pid, handle)
            pieces: List[bytes] = []
            while True:
                piece = self.read(pid, handle, chunk_size)
                if not piece:
                    return b"".join(pieces)
                pieces.append(piece)
        finally:
            if not handle.closed:
                self.close(pid, handle)

    def write_file(self, pid: int, path: WinPath, payload: bytes,
                   chunk_size: Optional[int] = None,
                   attrs: Optional[FileAttributes] = None) -> None:
        handle = self.open(pid, path, "w", create=True, truncate=True,
                           attrs=attrs)
        try:
            if chunk_size is None:
                self.write(pid, handle, payload)
            else:
                for start in range(0, len(payload), chunk_size):
                    self.write(pid, handle, payload[start:start + chunk_size])
        finally:
            if not handle.closed:
                self.close(pid, handle)

    def exists(self, path: WinPath) -> bool:
        try:
            self._resolve(path)
            return True
        except FsError:
            return False

    def is_dir(self, path: WinPath) -> bool:
        try:
            return isinstance(self._resolve(path), DirNode)
        except FsError:
            return False

    # ------------------------------------------------------------------
    # out-of-band (kernel-side) accessors: no events, no clock
    # ------------------------------------------------------------------

    def peek_read(self, path: WinPath) -> bytes:
        return self._resolve_file(path).read_bytes()

    def peek_node(self, path: WinPath) -> FileNode:
        return self._resolve_file(path)

    def peek_stat(self, path: WinPath) -> StatResult:
        node = self._resolve(path)
        if isinstance(node, DirNode):
            return StatResult(node.node_id, True, len(node), FileAttributes(),
                              node.created_us, node.created_us)
        return StatResult(node.node_id, False, node.size, node.attrs.copy(),
                          node.created_us, node.modified_us)

    def peek_walk_files(self, root: WinPath) -> Iterator[Tuple[WinPath, FileNode]]:
        """Yield (path, node) for every file under ``root``; no events."""
        stack = [(root, self._resolve_dir(root))]
        while stack:
            current, directory = stack.pop()
            for name in sorted(directory.children):
                child = directory.children[name]
                display = directory.display_name(name)
                if isinstance(child, DirNode):
                    stack.append((current / display, child))
                else:
                    yield current / display, child

    def peek_write(self, path: WinPath, payload: bytes,
                   attrs: Optional[FileAttributes] = None,
                   parents: bool = False) -> int:
        """Plant a file without events (corpus construction). Returns node id."""
        if parents:
            self._ensure_dirs(path.parent)
        parent = self._resolve_dir(path.parent)
        existing = parent.get(path.name)
        if isinstance(existing, DirNode):
            raise IsADirectory(str(path))
        if existing is not None:
            self._journal.note_data(existing)
            existing.replace(payload)
            return existing.node_id
        node = FileNode(self._ids.next_id(), payload, attrs, self.clock.now_us)
        parent.put(path.name, node)
        self._journal.note(("create", parent, path.name))
        return node.node_id

    def _ensure_dirs(self, path: WinPath) -> None:
        node = self._root_for(path)
        for part in path.parts:
            child = node.get(part)
            if child is None:
                child = DirNode(self._ids.next_id(), self.clock.now_us)
                node.put(part, child)
                self._journal.note(("mkdir-peek", node, part))
            if not isinstance(child, DirNode):
                raise NotADirectory(str(path))
            node = child

    # ------------------------------------------------------------------
    # snapshot / revert
    # ------------------------------------------------------------------

    def snapshot_mark(self) -> None:
        """Begin journalling; a later :meth:`revert` returns to this point."""
        self._journal.mark()

    @property
    def touched_since_mark(self) -> set:
        return set(self._journal.touched_paths)

    def revert(self) -> None:
        """Restore the tree to the last :meth:`snapshot_mark`."""
        if not self._journal.active:
            raise RuntimeError("no snapshot mark set")
        for record in reversed(self._journal.records):
            tag = record[0]
            if tag in ("create",):
                _, parent, name = record
                if name in parent:
                    parent.remove(name)
            elif tag in ("mkdir", "mkdir-peek"):
                _, parent, name = record
                if name in parent:
                    parent.remove(name)
            elif tag == "delete":
                _, parent, name, node = record
                parent.put(name, node)
            elif tag == "rename":
                _, src_parent, src_name, dst_parent, dst_name, clobbered = record
                node = dst_parent.get(dst_name)
                if node is not None:
                    dst_parent.remove(dst_name)
                    src_parent.put(src_name, node)
                if clobbered is not None:
                    dst_parent.put(dst_name, clobbered)
            elif tag == "attrs":
                _, node, old_attrs = record
                node.attrs = old_attrs
        # Restore data pre-images for every surviving node.
        alive = {}
        for root in self._roots.values():
            stack = [root]
            while stack:
                directory = stack.pop()
                for child in directory.children.values():
                    if isinstance(child, DirNode):
                        stack.append(child)
                    else:
                        alive[child.node_id] = child
        for node_id, (data, modified_us) in self._journal.pre_images.items():
            node = alive.get(node_id)
            if node is not None:
                node.replace(data)
                node.modified_us = modified_us
        self._journal.mark()
