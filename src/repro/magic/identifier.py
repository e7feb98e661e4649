"""File-type identification — the ``file`` utility substitute.

Identification proceeds exactly like ``file(1)``:

1. ordered magic-number signature matching (with container refinement),
2. text heuristics over a bounded prefix (ASCII/UTF-8 printability,
   CSV/Markdown/PowerShell/HTML recognisers),
3. fall-through to the generic ``data`` type — which is what ciphertext
   identifies as, making "anything → data" the canonical ransomware type
   transition.

The identifier is pure and stateless; CryptoDrop's engine caches results per
file version (paper Fig. 2 "Caching").
"""

from __future__ import annotations

from typing import Optional

from .signatures import FILE_TYPES, SIGNATURES
from .types import DATA, EMPTY, FileType

__all__ = ["identify", "identify_name", "PREFIX_BYTES"]

#: How much of the file the identifier inspects.  ``file`` reads a bounded
#: prefix too; 8 KiB covers every signature plus robust text statistics.
PREFIX_BYTES = 8192

_TEXT_BYTES = frozenset(range(0x20, 0x7F)) | {0x09, 0x0A, 0x0D}

#: ``_TEXT_BYTES`` as a ``bytes.translate`` delete table: deleting them
#: leaves exactly the non-text bytes, counted in one C pass per close
_TEXT_DELETE = bytes(sorted(_TEXT_BYTES))

#: per value of a prefix's first byte, the signatures that can match it,
#: in database order — an offset-0 pattern can only match under its own
#: first byte, so the rest are skipped without changing the first match
_CANDIDATES = [[sig for sig in SIGNATURES
                if sig.offset or sig.pattern[0] == byte]
               for byte in range(256)]


def _printable_ratio(prefix: bytes) -> float:
    if not prefix:
        return 0.0
    good = len(prefix) - len(prefix.translate(None, _TEXT_DELETE))
    return good / len(prefix)


def _sniff_text(prefix: bytes) -> Optional[FileType]:
    """Distinguish text flavours once the prefix is known to be texty."""
    if _printable_ratio(prefix) < 0.95:
        return None
    try:
        head = prefix.decode("utf-8", errors="strict")
    except UnicodeDecodeError:
        return None
    lines = head.splitlines()
    if not lines:
        return FILE_TYPES["txt"]
    stripped = head.lstrip()
    if stripped.startswith(("<html", "<!DOCTYPE", "<!doctype")):
        return FILE_TYPES["html"]
    if stripped.startswith("<?xml"):
        return FILE_TYPES["xml"]
    if "powershell" in head.lower() and any(
            line.startswith(("function ", "param(", "$")) or "-join" in line
            for line in lines[:10]):
        return FILE_TYPES["ps1"]
    sample = [line for line in lines[:20] if line.strip()]
    if len(sample) >= 2:
        comma_counts = [line.count(",") for line in sample]
        if min(comma_counts) >= 2 and max(comma_counts) - min(comma_counts) <= 1:
            return FILE_TYPES["csv"]
    md_markers = sum(1 for line in sample
                     if line.startswith(("#", "- ", "* ", "> ", "```")))
    if sample and md_markers / len(sample) >= 0.25:
        return FILE_TYPES["md"]
    return FILE_TYPES["txt"]


def identify(data: bytes) -> FileType:
    """Identify the type of ``data`` (only the first 8 KiB is examined)."""
    if not data:
        return EMPTY
    prefix = bytes(data[:PREFIX_BYTES])
    for sig in _CANDIDATES[prefix[0]]:
        if sig.matches(prefix):
            if sig.refine is not None:
                refined = sig.refine(prefix)
                if refined is not None:
                    return refined
            return sig.filetype
    text = _sniff_text(prefix)
    if text is not None:
        return text
    return DATA


def identify_name(data: bytes) -> str:
    """Convenience: just the short type name."""
    return identify(data).name
