"""Storage backends behind :class:`~repro.corpus.baselines.BaselineStore`.

The store's public surface (``get`` / ``lookup_content`` / ``describe`` /
``compatible_with``) is backend-agnostic; what varies is where the
entries live:

* :class:`DictBackend` — the original in-memory dict.  Zero lookup
  indirection, every entry resident; the default, and still the right
  choice for corpora that fit comfortably in RAM.
* :class:`~repro.store.mmapstore.MmapBackend` — one ``mmap`` over the
  on-disk store file (:mod:`repro.store.format`), binary search on the
  sorted key index, per-record lazy deserialisation into a bounded
  hot-entry LRU.  Opens in milliseconds at any entry count.

The contract both must honour: ``get(key)`` returns an entry equal to
what :meth:`BaselineStore.build` would have produced for the same
content under the same parameters — bit-identical verdicts between
backends, gated by
``tests/test_store_disk.py::TestCampaignIdentity``.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Protocol, runtime_checkable

__all__ = ["StoreBackend", "DictBackend"]


@runtime_checkable
class StoreBackend(Protocol):
    """What a :class:`BaselineStore` needs from its entry storage."""

    #: short storage-kind tag ("dict" / "mmap"), surfaced in ``describe``
    storage: str

    def get(self, key: bytes): ...

    def __len__(self) -> int: ...

    def __contains__(self, key: bytes) -> bool: ...

    def keys(self) -> Iterator[bytes]: ...

    def as_dict(self) -> Dict[bytes, object]: ...

    def page_stats(self) -> dict: ...

    def bind_telemetry(self, telemetry) -> None: ...

    def close(self) -> None: ...


class DictBackend:
    """Entries in a plain dict — the historical in-memory behaviour."""

    __slots__ = ("_entries",)

    storage = "dict"

    def __init__(self, entries: Dict[bytes, object]) -> None:
        self._entries = entries

    def get(self, key: bytes):
        return self._entries.get(key)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: bytes) -> bool:
        return key in self._entries

    def keys(self) -> Iterator[bytes]:
        return iter(self._entries)

    def as_dict(self) -> Dict[bytes, object]:
        """The live entry dict (not a copy — callers must not mutate)."""
        return self._entries

    def page_stats(self) -> dict:
        """Dict storage is fully resident and never pages."""
        return {"storage": self.storage, "page_ins": 0, "hot_hits": 0,
                "resident": len(self._entries),
                "hot_capacity": len(self._entries)}

    def bind_telemetry(self, telemetry) -> None:
        """No lazy I/O to observe — nothing to bind."""

    def close(self) -> None:
        """No file handles to release."""
