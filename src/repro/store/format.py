"""On-disk format of the persistent baseline store (``.cdbs``).

One self-contained file, designed so a store *opens* in milliseconds
regardless of entry count — nothing is deserialised until a lookup hits:

::

    +--------------------------------------------------------------+
    | header (fixed 94 bytes, CRC-protected)                       |
    |   magic "CDBS" | version | backend | digests | seed          |
    |   max_inspect_bytes | n_entries | total_bytes                |
    |   records_offset | index_offset | types_offset               |
    |   build_seconds | fingerprint state (16 bytes) | header CRC  |
    +--------------------------------------------------------------+
    | record log (append-only)                                     |
    |   record := fixed part (27 bytes: flags, type index, size,   |
    |             entropy, payload length, record CRC)             |
    |             + payload (serialized SdDigest / CtphSignature;  |
    |               empty for undigested entries — those records   |
    |               are pure fixed-stride)                         |
    +--------------------------------------------------------------+
    | index block (n_entries x 28 bytes, sorted by key)            |
    |   row := 16-byte content key | u64 record offset | u32 len   |
    +--------------------------------------------------------------+
    | type table (length-prefixed JSON list of FileType tuples,    |
    |   CRC-protected; records reference types by index)           |
    +--------------------------------------------------------------+

The index is sorted by raw 16-byte key, so a lookup is an O(log n)
binary search over one ``mmap`` — each probe reads 16 bytes, and only
the final hit deserialises its record.  The type table sits at the end
because types are discovered while records stream out; the header
(rewritten last) carries its offset.

The *fingerprint state* is the order-independent running sum
(mod 2^128) of all content keys — see
:func:`repro.corpus.baselines.fingerprint_state` — persisted so a
reopened store validates checkpoint descriptors in O(1) instead of
rehashing a million sorted keys.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import List, Optional, Tuple

import numpy as np

from ..magic import FileType
from ..simhash.bloom import FILTER_BITS, MAX_FEATURES
from ..simhash.sdhash import SdDigest
from ..simhash.ssdeep import CtphSignature

__all__ = [
    "MAGIC", "VERSION", "HEADER", "RECORD_FIXED", "INDEX_ROW",
    "StoreFormatError", "StoreHeader", "pack_header", "unpack_header",
    "encode_type_table", "decode_type_table", "pack_record",
    "unpack_record", "record_length", "encode_sddigest", "decode_sddigest",
    "BACKEND_CODES", "BACKEND_NAMES",
]

MAGIC = b"CDBS"
VERSION = 1

#: similarity backend wire codes (the store refuses unknown codes)
BACKEND_CODES = {"sdhash": 1, "ctph": 2}
BACKEND_NAMES = {code: name for name, code in BACKEND_CODES.items()}

# magic, version, backend_code, digests_enabled, seed, max_inspect_bytes,
# n_entries, total_bytes, records_offset, index_offset, types_offset,
# build_seconds, fingerprint_state (16 bytes LE), header_crc
HEADER = struct.Struct("<4sHBBqQQQQQQd16sI")
HEADER_SIZE = HEADER.size

# flags, type_index, size, entropy, payload_len, record_crc
RECORD_FIXED = struct.Struct("<BHQdII")
RECORD_FIXED_SIZE = RECORD_FIXED.size

# key, record offset, record length (fixed part + payload)
INDEX_ROW = struct.Struct("<16sQI")
INDEX_ROW_SIZE = INDEX_ROW.size

#: numpy view of the index block, used by the shard merge
INDEX_DTYPE = np.dtype([("key", "S16"), ("offset", "<u8"),
                        ("length", "<u4")])

# record flag bits
FLAG_DIGESTED = 1
FLAG_HAS_DIGEST = 2
FLAG_HAS_CTPH = 4

# n_filters, n_features, source_len
_DIGEST_HEAD = struct.Struct("<HIQ")
# per filter: count + packed bits
_FILTER_ROW = np.dtype([("count", "<u4"),
                        ("bits", np.uint8, (FILTER_BITS // 8,))])

_TYPE_TABLE_HEAD = struct.Struct("<II")  # payload length, payload CRC


class StoreFormatError(ValueError):
    """The file is not a valid baseline store (or is damaged)."""


class StoreHeader:
    """Decoded header fields (attribute access, no behaviour)."""

    __slots__ = ("version", "backend", "digests_enabled", "seed",
                 "max_inspect_bytes", "n_entries", "total_bytes",
                 "records_offset", "index_offset", "types_offset",
                 "build_seconds", "fingerprint_state")

    def __init__(self, **fields) -> None:
        for name in self.__slots__:
            setattr(self, name, fields[name])


def pack_header(header: StoreHeader) -> bytes:
    """Serialise a header, CRC computed over the CRC-zeroed bytes."""
    code = BACKEND_CODES.get(header.backend)
    if code is None:
        raise StoreFormatError(
            f"unknown similarity backend {header.backend!r}")
    state_bytes = int(header.fingerprint_state).to_bytes(16, "little")
    raw = HEADER.pack(MAGIC, header.version, code,
                      1 if header.digests_enabled else 0,
                      header.seed, header.max_inspect_bytes,
                      header.n_entries, header.total_bytes,
                      header.records_offset, header.index_offset,
                      header.types_offset, header.build_seconds,
                      state_bytes, 0)
    crc = zlib.crc32(raw)
    return raw[:-4] + struct.pack("<I", crc)


def unpack_header(buf) -> StoreHeader:
    """Decode and validate the header at the start of ``buf``."""
    if len(buf) < HEADER_SIZE:
        raise StoreFormatError(
            f"file is {len(buf)} bytes — too short to hold a store header "
            f"({HEADER_SIZE} bytes); truncated or not a baseline store")
    raw = bytes(buf[:HEADER_SIZE])
    (magic, version, code, digests, seed, max_inspect_bytes, n_entries,
     total_bytes, records_offset, index_offset, types_offset,
     build_seconds, state_bytes, crc) = HEADER.unpack(raw)
    if magic != MAGIC:
        raise StoreFormatError(
            f"bad magic {magic!r} (expected {MAGIC!r}) — not a baseline "
            "store file")
    expected = zlib.crc32(raw[:-4] + b"\x00\x00\x00\x00")
    if crc != expected:
        raise StoreFormatError(
            "header CRC mismatch — the file is corrupt (rebuild the store "
            "or restore it from a backup)")
    if version != VERSION:
        raise StoreFormatError(
            f"unsupported store format version {version} (this build "
            f"reads version {VERSION}) — rebuild the store with the "
            "current tooling")
    backend = BACKEND_NAMES.get(code)
    if backend is None:
        raise StoreFormatError(f"unknown similarity backend code {code}")
    return StoreHeader(version=version, backend=backend,
                       digests_enabled=bool(digests), seed=seed,
                       max_inspect_bytes=max_inspect_bytes,
                       n_entries=n_entries, total_bytes=total_bytes,
                       records_offset=records_offset,
                       index_offset=index_offset,
                       types_offset=types_offset,
                       build_seconds=build_seconds,
                       fingerprint_state=int.from_bytes(state_bytes,
                                                        "little"))


# -- type table -------------------------------------------------------------


def encode_type_table(types: List[FileType]) -> bytes:
    payload = json.dumps(
        [[t.name, t.description, t.category, t.is_high_entropy]
         for t in types],
        separators=(",", ":")).encode("utf-8")
    return _TYPE_TABLE_HEAD.pack(len(payload), zlib.crc32(payload)) \
        + payload


def decode_type_table(buf, offset: int) -> List[FileType]:
    head_end = offset + _TYPE_TABLE_HEAD.size
    if head_end > len(buf):
        raise StoreFormatError("type table header out of bounds — "
                               "truncated store file")
    length, crc = _TYPE_TABLE_HEAD.unpack(bytes(buf[offset:head_end]))
    payload = bytes(buf[head_end:head_end + length])
    if len(payload) != length:
        raise StoreFormatError("type table payload out of bounds — "
                               "truncated store file")
    if zlib.crc32(payload) != crc:
        raise StoreFormatError("type table CRC mismatch — corrupt store")
    try:
        rows = json.loads(payload.decode("utf-8"))
    except ValueError as exc:
        raise StoreFormatError(f"type table is not valid JSON: {exc}")
    return [FileType(name, description, category, bool(high))
            for name, description, category, high in rows]


# -- digest payloads --------------------------------------------------------


def encode_sddigest(digest: SdDigest) -> bytes:
    rows = np.empty(len(digest), dtype=_FILTER_ROW)
    rows["count"] = digest.counts
    rows["bits"] = digest.packed_matrix()
    return _DIGEST_HEAD.pack(len(digest), digest.n_features,
                             digest.source_len) + rows.tobytes()


def decode_sddigest(payload: bytes) -> SdDigest:
    """The digest a payload encodes, its filter rows kept packed as the
    digest's bit-matrix (a view of ``payload``)."""
    if len(payload) < _DIGEST_HEAD.size:
        raise StoreFormatError(
            f"digest payload is {len(payload)} bytes, shorter than its "
            f"{_DIGEST_HEAD.size}-byte head — corrupt record")
    n_filters, n_features, source_len = _DIGEST_HEAD.unpack_from(payload)
    if n_filters == 0:
        raise StoreFormatError("digest payload declares no filters — "
                               "corrupt record")
    if len(payload) != _DIGEST_HEAD.size + n_filters * _FILTER_ROW.itemsize:
        raise StoreFormatError(
            f"digest payload is {len(payload)} bytes but declares "
            f"{n_filters} filters — corrupt record")
    rows = np.frombuffer(payload, dtype=_FILTER_ROW,
                         offset=_DIGEST_HEAD.size)
    counts = rows["count"].tolist()
    bad = [count for count in counts if not 1 <= count <= MAX_FEATURES]
    if bad:
        raise StoreFormatError(
            f"digest filter counts include {bad[0]}, outside "
            f"1..{MAX_FEATURES} — corrupt record")
    if sum(counts) != n_features:
        raise StoreFormatError(
            f"digest filter counts sum to {sum(counts)} but the payload "
            f"declares {n_features} features — corrupt record")
    return SdDigest(rows["bits"], counts, n_features, source_len)


# -- records ----------------------------------------------------------------


def pack_record(entry, type_index: int) -> bytes:
    """Serialise one ``BaselineEntry``-shaped object.

    The record CRC covers the CRC-zeroed fixed part plus the payload, so
    an fsck pass can verify every record without the index.
    """
    flags = 0
    payload = b""
    if entry.digested:
        flags |= FLAG_DIGESTED
    if entry.digest is not None:
        flags |= FLAG_HAS_DIGEST
        payload = encode_sddigest(entry.digest)
    elif entry.ctph is not None:
        flags |= FLAG_HAS_CTPH
        payload = str(entry.ctph).encode("ascii")
    fixed = RECORD_FIXED.pack(flags, type_index, entry.size, entry.entropy,
                              len(payload), 0)
    crc = zlib.crc32(fixed + payload)
    return fixed[:-4] + struct.pack("<I", crc) + payload


def record_length(buf, offset: int) -> int:
    """Total record length at ``offset`` (fixed part + payload)."""
    fixed = bytes(buf[offset:offset + RECORD_FIXED_SIZE])
    if len(fixed) != RECORD_FIXED_SIZE:
        raise StoreFormatError("record fixed part out of bounds — "
                               "truncated store file")
    payload_len = RECORD_FIXED.unpack(fixed)[4]
    return RECORD_FIXED_SIZE + payload_len


_ENTRY_CLS = None


def _entry_cls():
    # Imported late: repro.corpus.baselines imports repro.store.backend at
    # module level, so this module must not import baselines back eagerly.
    global _ENTRY_CLS
    if _ENTRY_CLS is None:
        from ..corpus.baselines import BaselineEntry
        _ENTRY_CLS = BaselineEntry
    return _ENTRY_CLS


def unpack_record(buf, offset: int, types: List[FileType],
                  check_crc: bool = False,
                  length: Optional[int] = None):
    """Deserialise the record at ``offset`` into a ``BaselineEntry``.

    ``length``, when the caller has it from the index, bounds the reads;
    ``check_crc`` additionally verifies the record checksum (the fsck
    path — lookups skip it, the mmap page-in is the hot path).
    """
    fixed_end = offset + RECORD_FIXED_SIZE
    fixed = bytes(buf[offset:fixed_end])
    if len(fixed) != RECORD_FIXED_SIZE:
        raise StoreFormatError("record fixed part out of bounds — "
                               "truncated store file")
    flags, type_index, size, entropy, payload_len, crc = \
        RECORD_FIXED.unpack(fixed)
    if length is not None and length != RECORD_FIXED_SIZE + payload_len:
        raise StoreFormatError(
            f"index row length {length} disagrees with record payload "
            f"({RECORD_FIXED_SIZE + payload_len}) — corrupt index")
    payload = bytes(buf[fixed_end:fixed_end + payload_len])
    if len(payload) != payload_len:
        raise StoreFormatError("record payload out of bounds — "
                               "truncated store file")
    if check_crc:
        expected = zlib.crc32(fixed[:-4] + b"\x00\x00\x00\x00" + payload)
        if crc != expected:
            raise StoreFormatError(
                f"record CRC mismatch at offset {offset} — corrupt store")
    if not 0 <= type_index < len(types):
        raise StoreFormatError(
            f"record at offset {offset} references type {type_index} but "
            f"the type table has {len(types)} entries — corrupt store")
    digest = None
    ctph = None
    if flags & FLAG_HAS_DIGEST:
        digest = decode_sddigest(payload)
    elif flags & FLAG_HAS_CTPH:
        ctph = CtphSignature.parse(payload.decode("ascii"))
    return _entry_cls()(types[type_index], digest, ctph, size, entropy,
                        bool(flags & FLAG_DIGESTED))
