"""``repro.store`` — persistent, mmap-backed baseline storage.

The disk half of :class:`~repro.corpus.baselines.BaselineStore`: a
single-file format (versioned header · append-only record log · sorted
key index · type table — see :mod:`repro.store.format`) that builds
once, opens in milliseconds at any corpus size, and serves lookups by
binary search over one ``mmap`` with lazy per-record page-in.

Pieces:

* :mod:`~repro.store.format` — wire structs, CRCs, record/digest codecs;
* :mod:`~repro.store.backend` — the :class:`StoreBackend` protocol and
  the in-memory :class:`DictBackend` (default);
* :mod:`~repro.store.mmapstore` — :class:`MmapBackend`, the lazy
  disk-resident implementation with a bounded hot-entry LRU;
* :mod:`~repro.store.writer` — single-pass :class:`StoreWriter` and the
  shard merge used by ``build_store_parallel``;
* :mod:`~repro.store.fsck` — offline integrity verification.

Operator entry points: ``examples/store_tool.py`` (build/info/verify)
and the ``store_backend`` / ``store_hot_entries`` config knobs.  The
contract is pinned by ``tests/test_store_disk.py``.  Format and
tradeoffs: ``docs/performance.md``.
"""

from .backend import DictBackend, StoreBackend
from .format import StoreFormatError
from .fsck import fsck_store
from .mmapstore import MmapBackend
from .writer import StoreWriter, merge_store_files

__all__ = ["StoreBackend", "DictBackend", "MmapBackend", "StoreWriter",
           "StoreFormatError", "merge_store_files", "fsck_store"]
