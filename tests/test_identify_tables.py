"""The identifier's lookup tables against a plain reading of the database.

``identify`` tries only the signatures listed under the prefix's first
byte and counts text bytes with ``bytes.translate``; both must decide
exactly what a scan of every signature in order and a per-byte count
decide.
"""

import random

from repro.magic import SIGNATURES
from repro.magic.identifier import _CANDIDATES, _TEXT_BYTES, _printable_ratio


def _first_match(signatures, prefix):
    return next((sig for sig in signatures if sig.matches(prefix)), None)


def _probes():
    rng = random.Random(3)
    for sig in SIGNATURES:
        yield bytes(sig.offset) + sig.pattern + rng.randbytes(64)
        # an offset-0 pattern followed by the offset-4 one: the earlier
        # database entry must still win
        yield sig.pattern[:4].ljust(4, b"\0") + b"ftyp" + rng.randbytes(32)
        yield sig.pattern[:-1]
    for byte in range(256):
        yield bytes([byte]) + rng.randbytes(63)
        yield bytes([byte, 0, 0, 0]) + b"ftyp" + rng.randbytes(32)
        yield bytes([byte])


def test_first_byte_candidates_find_the_database_scan_match():
    probes = [p for p in _probes() if p]
    assert sum(_first_match(SIGNATURES, p) is not None for p in probes) > 60
    for prefix in probes:
        assert (_first_match(_CANDIDATES[prefix[0]], prefix)
                is _first_match(SIGNATURES, prefix)), prefix


def test_printable_ratio_counts_text_bytes():
    rng = random.Random(4)
    assert _printable_ratio(b"") == 0.0
    for n in (1, 7, 300, 8192):
        for data in (rng.randbytes(n), bytes(range(256)) * (n // 256 + 1),
                     b"plain text\r\n\t" * n):
            data = data[:n]
            want = sum(byte in _TEXT_BYTES for byte in data) / len(data)
            assert _printable_ratio(data) == want
