"""Offline integrity pass over a baseline store file (``verify``).

Checks, in dependency order: header magic/version/CRC and offset
bounds, type-table decode, index sortedness and key uniqueness, every
record's CRC and bounds (walked through the index, so dangling index
rows surface too), and finally that the sum of the indexed keys
reproduces the header's fingerprint state — the same O(1)-restorable
identity that checkpoint validation trusts.  Used by
``examples/store_tool.py verify``; a sharded parallel build must fsck
clean (``tests/test_store_disk.py::TestShardedBuild``).
"""

from __future__ import annotations

import os

import numpy as np

from .format import (HEADER_SIZE, INDEX_DTYPE, INDEX_ROW_SIZE,
                     StoreFormatError, decode_type_table, unpack_header,
                     unpack_record)

__all__ = ["fsck_store"]

_STATE_MASK = (1 << 128) - 1


def fsck_store(path, check_records: bool = True) -> dict:
    """Verify ``path``; returns ``{"ok", "problems", ...stats}``.

    ``check_records=False`` skips the per-record CRC walk (the only
    O(total bytes) stage) for a fast structural pass.
    """
    path = str(path)
    problems = []
    report = {"path": path, "ok": False, "problems": problems,
              "entries": 0, "records_checked": 0,
              "file_bytes": os.path.getsize(path)
              if os.path.exists(path) else 0}
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        problems.append(f"unreadable: {exc}")
        return report
    try:
        header = unpack_header(blob)
    except StoreFormatError as exc:
        problems.append(str(exc))
        return report
    report["entries"] = header.n_entries
    report["backend"] = header.backend
    report["seed"] = header.seed
    index_end = header.index_offset + header.n_entries * INDEX_ROW_SIZE
    if not (HEADER_SIZE <= header.records_offset <= header.index_offset
            <= index_end <= header.types_offset <= len(blob)):
        problems.append("header offsets exceed the file — truncated store")
        return report
    try:
        types = decode_type_table(blob, header.types_offset)
    except StoreFormatError as exc:
        problems.append(str(exc))
        return report
    index = np.frombuffer(blob, dtype=INDEX_DTYPE, count=header.n_entries,
                          offset=header.index_offset)
    keys = index["key"]
    if len(keys) > 1:
        if (keys[1:] < keys[:-1]).any():
            problems.append("index keys are not sorted — lookups would "
                            "miss entries")
        elif (keys[1:] == keys[:-1]).any():
            problems.append("index contains duplicate keys")
    # fold the 16-byte keys into the order-independent 128-bit sum
    state = 0
    raw_keys = keys.tobytes()
    for i in range(0, len(raw_keys), 16):
        state = (state + int.from_bytes(raw_keys[i:i + 16], "little")) \
            & _STATE_MASK
    if state != header.fingerprint_state:
        problems.append("fingerprint state does not match the indexed "
                        "keys — index or header is corrupt")
    if check_records:
        for row in index:
            offset = int(row["offset"])
            length = int(row["length"])
            if offset + length > header.index_offset:
                problems.append(
                    f"index row points past the record log "
                    f"(offset {offset}, length {length})")
                continue
            try:
                unpack_record(blob, offset, types, check_crc=True,
                              length=length)
            except StoreFormatError as exc:
                problems.append(str(exc))
            else:
                report["records_checked"] += 1
    report["ok"] = not problems
    return report
