"""Single-pass store writing and the shard merge behind parallel builds.

:class:`StoreWriter` streams records out as they are produced — a
placeholder header goes down first, records append, then the sorted
index block, then the type table, and finally the real header (now that
every offset and the incremental fingerprint state are known) is written
back over the placeholder.  Nothing is buffered except the index rows
(28 bytes/entry) and the type table, so writing a million-entry store
never materialises the entry dict.

Both writers build the file under a temporary name in the target's
directory, fsync it, ``os.replace`` it over the target and fsync the
directory.  A build that fails or is cut short leaves the previous store
at the path byte for byte, and a reader that has the previous file
mapped keeps reading it (the rename swaps the name, not the inode's
bytes).

:func:`merge_store_files` fuses shard store files (each a complete,
valid store over a disjoint key subset) into one: record regions are
copied — raw when the shard's type table already matches the merged
one, else with per-record type-index patching and CRC recompute — and
the shard indexes are concatenated, offset-shifted, and merge-sorted as
numpy structured arrays.  Fingerprint states just add (the state is an
order-independent sum), so the merged header is exact without touching
a single key twice.
"""

from __future__ import annotations

import os
import secrets
import struct
import zlib
from typing import Dict, List, Optional, Sequence

import numpy as np

from .format import (HEADER_SIZE, INDEX_DTYPE, INDEX_ROW, RECORD_FIXED,
                     RECORD_FIXED_SIZE, StoreFormatError, StoreHeader,
                     VERSION, encode_type_table, pack_header, pack_record,
                     record_length, unpack_header)

__all__ = ["StoreWriter", "merge_store_files"]

_COPY_CHUNK = 8 * 1024 * 1024
_STATE_MASK = (1 << 128) - 1


def _temp_sibling(path: str) -> str:
    """A fresh name next to ``path``: same directory, so the final
    ``os.replace`` is one rename within one file system."""
    return f"{path}.{os.getpid()}-{secrets.token_hex(4)}.tmp"


def _commit(fh, tmp: str, path: str) -> None:
    """Make ``tmp`` durable, rename it over ``path``, then make the rename
    durable."""
    fh.flush()
    os.fsync(fh.fileno())
    fh.close()
    os.replace(tmp, path)
    fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _discard(fh, tmp: str) -> None:
    """Close and delete an uncommitted temporary file."""
    fh.close()
    if os.path.exists(tmp):
        os.unlink(tmp)


class StoreWriter:
    """Append records, then :meth:`finish` — one sequential pass into a
    temporary sibling of ``path`` that only :meth:`finish` renames into
    place."""

    def __init__(self, path, seed: int, backend: str,
                 max_inspect_bytes: int, digests_enabled: bool) -> None:
        self.path = str(path)
        self.seed = seed
        self.backend = backend
        self.max_inspect_bytes = max_inspect_bytes
        self.digests_enabled = digests_enabled
        self._types: List = []
        self._type_index: Dict = {}
        self._keys: List[bytes] = []
        self._offsets: List[int] = []
        self._lengths: List[int] = []
        self._state = 0
        self._tmp = _temp_sibling(self.path)
        self._file = open(self._tmp, "xb")
        self._file.write(b"\x00" * HEADER_SIZE)
        self._offset = HEADER_SIZE

    def add(self, key: bytes, entry) -> None:
        """Append one entry's record (insertion order is free-form; the
        index is sorted at :meth:`finish`)."""
        type_index = self._type_index.get(entry.file_type)
        if type_index is None:
            type_index = self._type_index[entry.file_type] = \
                len(self._types)
            self._types.append(entry.file_type)
        record = pack_record(entry, type_index)
        self._file.write(record)
        self._keys.append(key)
        self._offsets.append(self._offset)
        self._lengths.append(len(record))
        self._offset += len(record)
        self._state = (self._state + int.from_bytes(key, "little")) \
            & _STATE_MASK

    def finish(self, total_bytes: int = 0,
               build_seconds: float = 0.0) -> str:
        """Sort the index, write it plus the type table, seal the header."""
        index = np.empty(len(self._keys), dtype=INDEX_DTYPE)
        index["key"] = self._keys
        index["offset"] = self._offsets
        index["length"] = self._lengths
        index.sort(order="key")
        index_offset = self._offset
        self._file.write(index.tobytes())
        types_offset = index_offset + index.nbytes
        self._file.write(encode_type_table(self._types))
        header = StoreHeader(
            version=VERSION, backend=self.backend,
            digests_enabled=self.digests_enabled, seed=self.seed,
            max_inspect_bytes=self.max_inspect_bytes,
            n_entries=len(self._keys), total_bytes=total_bytes,
            records_offset=HEADER_SIZE, index_offset=index_offset,
            types_offset=types_offset, build_seconds=build_seconds,
            fingerprint_state=self._state)
        self._file.seek(0)
        self._file.write(pack_header(header))
        _commit(self._file, self._tmp, self.path)
        return self.path

    def abort(self) -> None:
        """Close and delete the partial temporary file (error-path
        cleanup); whatever ``path`` held stays as it was."""
        _discard(self._file, self._tmp)


def _read_shard(path: str):
    """Header, raw index array, type table and record region of a shard."""
    from .format import decode_type_table
    with open(path, "rb") as fh:
        blob = fh.read()
    header = unpack_header(blob)
    index_end = header.index_offset + \
        header.n_entries * INDEX_ROW.size
    index = np.frombuffer(blob, dtype=INDEX_DTYPE,
                          count=header.n_entries,
                          offset=header.index_offset).copy()
    types = decode_type_table(blob, header.types_offset)
    records = blob[header.records_offset:header.index_offset]
    return header, index, types, records


def _patch_records(records: bytes, remap: Sequence[int]) -> bytes:
    """Rewrite every record's type index per ``remap``, fixing CRCs."""
    out = bytearray(records)
    offset = 0
    while offset < len(out):
        length = record_length(out, offset)
        fixed = bytes(out[offset:offset + RECORD_FIXED_SIZE])
        flags, type_index, size, entropy, payload_len, _ = \
            RECORD_FIXED.unpack(fixed)
        new_fixed = RECORD_FIXED.pack(flags, remap[type_index], size,
                                      entropy, payload_len, 0)
        payload = bytes(out[offset + RECORD_FIXED_SIZE:offset + length])
        crc = zlib.crc32(new_fixed + payload)
        out[offset:offset + RECORD_FIXED_SIZE] = \
            new_fixed[:-4] + struct.pack("<I", crc)
        offset += length
    return bytes(out)


def merge_store_files(shard_paths: Sequence[str], out_path,
                      build_seconds: Optional[float] = None) -> str:
    """Fuse complete shard stores (disjoint keys) into one store file."""
    if not shard_paths:
        raise ValueError("no shard store files to merge")
    headers = []
    indexes = []
    shard_types = []
    record_blobs = []
    for path in shard_paths:
        header, index, types, records = _read_shard(str(path))
        headers.append(header)
        indexes.append(index)
        shard_types.append(types)
        record_blobs.append(records)
    first = headers[0]
    for header, path in zip(headers[1:], shard_paths[1:]):
        if (header.seed, header.backend, header.max_inspect_bytes,
                header.digests_enabled) != \
                (first.seed, first.backend, first.max_inspect_bytes,
                 first.digests_enabled):
            raise StoreFormatError(
                f"shard {path} was built under different parameters than "
                f"{shard_paths[0]} — refusing to merge")
    merged_types: List = []
    type_positions: Dict = {}
    remaps = []
    for types in shard_types:
        remap = []
        for t in types:
            position = type_positions.get(t)
            if position is None:
                position = type_positions[t] = len(merged_types)
                merged_types.append(t)
            remap.append(position)
        remaps.append(remap)
    state = 0
    total_bytes = 0
    n_entries = 0
    shard_seconds = 0.0
    out_path = str(out_path)
    tmp = _temp_sibling(out_path)
    out = open(tmp, "xb")
    try:
        out.write(b"\x00" * HEADER_SIZE)
        offset = HEADER_SIZE
        for i, header in enumerate(headers):
            records = record_blobs[i]
            if remaps[i] != list(range(len(remaps[i]))):
                records = _patch_records(records, remaps[i])
            out.write(records)
            # shard-local record offsets shift by the region's new base
            indexes[i]["offset"] += offset - header.records_offset
            offset += len(records)
            state = (state + header.fingerprint_state) & _STATE_MASK
            total_bytes += header.total_bytes
            n_entries += header.n_entries
            shard_seconds += header.build_seconds
        index = np.concatenate(indexes) if len(indexes) > 1 else indexes[0]
        index.sort(order="key")
        if len(index) > 1 and (index["key"][1:] == index["key"][:-1]).any():
            raise StoreFormatError(
                "shard stores share content keys — shards must partition "
                "the deduplicated key set")
        index_offset = offset
        out.write(index.tobytes())
        types_offset = index_offset + index.nbytes
        out.write(encode_type_table(merged_types))
        header = StoreHeader(
            version=VERSION, backend=first.backend,
            digests_enabled=first.digests_enabled, seed=first.seed,
            max_inspect_bytes=first.max_inspect_bytes,
            n_entries=n_entries, total_bytes=total_bytes,
            records_offset=HEADER_SIZE, index_offset=index_offset,
            types_offset=types_offset,
            build_seconds=shard_seconds if build_seconds is None
            else build_seconds,
            fingerprint_state=state)
        out.seek(0)
        out.write(pack_header(header))
        _commit(out, tmp, out_path)
    except BaseException:
        _discard(out, tmp)
        raise
    return out_path
