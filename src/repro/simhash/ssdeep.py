"""Context-triggered piecewise hashing (ssdeep-style; Kornblum 2006).

Included as the classic alternative similarity-preserving hash the paper
cites ([27]) alongside sdhash.  CryptoDrop's similarity indicator can be
configured to use either backend; the ablation benches compare them.

Implements the standard construction:

* a rolling hash (7-byte window) triggers a piece boundary whenever
  ``rolling % blocksize == blocksize - 1``,
* each piece contributes one base64 character derived from an FNV-1 hash,
* the signature holds two strings at blocksize b and 2b,
* comparison aligns blocksizes and scores a capped, length-normalised
  edit distance into 0–100.
"""

from __future__ import annotations

from typing import Optional, Tuple

__all__ = ["ctph", "compare_signatures", "CtphSignature", "MIN_INPUT"]

_B64 = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
SPAMSUM_LENGTH = 64
MIN_BLOCKSIZE = 3
MIN_INPUT = 16
_FNV_PRIME = 0x01000193
_FNV_OFFSET = 0x28021967


class _RollingHash:
    """Adler-style rolling hash over a 7-byte window."""

    __slots__ = ("h1", "h2", "h3", "window", "pos")

    WINDOW = 7

    def __init__(self) -> None:
        self.h1 = 0
        self.h2 = 0
        self.h3 = 0
        self.window = bytearray(self.WINDOW)
        self.pos = 0

    def update(self, byte: int) -> int:
        oldest = self.window[self.pos % self.WINDOW]
        self.h2 = (self.h2 - self.h1 + self.WINDOW * byte) & 0xFFFFFFFF
        self.h1 = (self.h1 + byte - oldest) & 0xFFFFFFFF
        self.window[self.pos % self.WINDOW] = byte
        self.pos += 1
        self.h3 = ((self.h3 << 5) ^ byte) & 0xFFFFFFFF
        return (self.h1 + self.h2 + self.h3) & 0xFFFFFFFF


class CtphSignature:
    """``blocksize:sig1:sig2``, like the ssdeep tool prints."""

    __slots__ = ("blocksize", "sig1", "sig2")

    def __init__(self, blocksize: int, sig1: str, sig2: str) -> None:
        self.blocksize = blocksize
        self.sig1 = sig1
        self.sig2 = sig2

    def __str__(self) -> str:
        return f"{self.blocksize}:{self.sig1}:{self.sig2}"

    @classmethod
    def parse(cls, text: str) -> "CtphSignature":
        """Inverse of ``str()`` (the signature alphabet has no colons)."""
        blocksize, sig1, sig2 = text.split(":")
        return cls(int(blocksize), sig1, sig2)

    # checkpoint serialization, named as on SdDigest: the text form
    to_state = __str__
    from_state = parse

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, CtphSignature)
                and str(self) == str(other))

    def __hash__(self) -> int:
        return hash(str(self))


def _hash_pass(data: bytes, blocksize: int) -> Tuple[str, str]:
    # The rolling hash is inlined (same arithmetic as _RollingHash.update)
    # — one method call per input byte is the difference between this pass
    # being bearable and not on multi-megabyte ablation corpora.
    h1 = h2 = h3 = 0
    window = bytearray(_RollingHash.WINDOW)
    wsize = _RollingHash.WINDOW
    pos = 0
    fnv1 = _FNV_OFFSET
    fnv2 = _FNV_OFFSET
    sig1 = []
    sig2 = []
    bs2 = blocksize * 2
    cap1 = SPAMSUM_LENGTH - 1
    cap2 = SPAMSUM_LENGTH // 2 - 1
    for byte in data:
        fnv1 = ((fnv1 * _FNV_PRIME) ^ byte) & 0xFFFFFFFF
        fnv2 = ((fnv2 * _FNV_PRIME) ^ byte) & 0xFFFFFFFF
        slot = pos % wsize
        oldest = window[slot]
        h2 = (h2 - h1 + wsize * byte) & 0xFFFFFFFF
        h1 = (h1 + byte - oldest) & 0xFFFFFFFF
        window[slot] = byte
        pos += 1
        h3 = ((h3 << 5) ^ byte) & 0xFFFFFFFF
        rh = (h1 + h2 + h3) & 0xFFFFFFFF
        if rh % blocksize == blocksize - 1 and len(sig1) < cap1:
            sig1.append(_B64[fnv1 & 63])
            fnv1 = _FNV_OFFSET
        if rh % bs2 == bs2 - 1 and len(sig2) < cap2:
            sig2.append(_B64[fnv2 & 63])
            fnv2 = _FNV_OFFSET
    sig1.append(_B64[fnv1 & 63])
    sig2.append(_B64[fnv2 & 63])
    return "".join(sig1), "".join(sig2)


def ctph(data: bytes) -> Optional[CtphSignature]:
    """Compute a CTPH signature; None for inputs too small to be useful."""
    if not isinstance(data, bytes):
        data = bytes(data)
    if len(data) < MIN_INPUT:
        return None
    blocksize = MIN_BLOCKSIZE
    while blocksize * SPAMSUM_LENGTH < len(data):
        blocksize *= 2
    while True:
        sig1, sig2 = _hash_pass(data, blocksize)
        if len(sig1) >= SPAMSUM_LENGTH // 2 or blocksize == MIN_BLOCKSIZE:
            return CtphSignature(blocksize, sig1, sig2)
        blocksize //= 2


def _edit_distance(a: str, b: str) -> int:
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            current.append(min(previous[j] + 1, current[j - 1] + 1,
                               previous[j - 1] + (ca != cb)))
        previous = current
    return previous[-1]


def _score_strings(s1: str, s2: str, blocksize: int) -> int:
    if not s1 or not s2:
        return 0
    if not _has_common_substring(s1, s2, 7):
        return 0
    dist = _edit_distance(s1, s2)
    # spamsum scaling: normalise the distance by the combined length.
    score = 100 - (100 * dist) // (len(s1) + len(s2))
    # cap scores for very short signatures (little evidence).
    cap = blocksize // MIN_BLOCKSIZE * min(len(s1), len(s2))
    return max(0, min(score, cap))


def _has_common_substring(s1: str, s2: str, length: int) -> bool:
    if len(s1) < length or len(s2) < length:
        return False
    grams = {s1[i:i + length] for i in range(len(s1) - length + 1)}
    return any(s2[i:i + length] in grams
               for i in range(len(s2) - length + 1))


def compare_signatures(a: Optional[CtphSignature],
                       b: Optional[CtphSignature]) -> Optional[int]:
    """ssdeep match score 0–100, None when either signature is missing."""
    if a is None or b is None:
        return None
    if a.blocksize == b.blocksize:
        return max(_score_strings(a.sig1, b.sig1, a.blocksize),
                   _score_strings(a.sig2, b.sig2, a.blocksize * 2))
    if a.blocksize == b.blocksize * 2:
        return _score_strings(a.sig1, b.sig2, a.blocksize)
    if b.blocksize == a.blocksize * 2:
        return _score_strings(a.sig2, b.sig1, b.blocksize)
    return 0
