"""CryptoDrop configuration.

Every threshold, point value, and feature switch in one place.  Defaults
carry the values the paper states explicitly (non-union threshold 200,
entropy delta 0.1, the 0.125 weight constant lives in
:mod:`repro.entropy`) plus calibrated values for the knobs the paper leaves
implicit (per-indicator points, the union bonus).  The ablation benches
sweep these switches.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Tuple

from ..fs.paths import DOCUMENTS, WinPath

__all__ = ["CryptoDropConfig", "LatencyModel", "default_config"]


@dataclass(frozen=True)
class LatencyModel:
    """Modelled per-operation overhead of the analysis engine (µs).

    Calibrated to reproduce §V-H's measured ordering and rough magnitude:
    open/read < 1 ms, close ≈ 1.58 ms, write ≈ 9 ms, rename ≈ 16 ms.  The
    write/rename costs are dominated by the engine's temp-file copy of
    locked files ("writes this data back to temporary files on disk"), the
    close cost by full-file inspection.
    """

    open_us: float = 180.0
    read_us: float = 120.0
    write_base_us: float = 7200.0
    write_per_kb_us: float = 6.0
    close_base_us: float = 1300.0
    close_per_kb_us: float = 8.0
    rename_base_us: float = 14500.0
    rename_per_kb_us: float = 10.0
    delete_us: float = 400.0
    other_us: float = 25.0


@dataclass(frozen=True)
class CryptoDropConfig:
    """Tunable policy for the analysis engine and scoreboard."""

    # -- scope ------------------------------------------------------------
    protected_roots: Tuple[WinPath, ...] = (DOCUMENTS,)

    # -- detection thresholds ----------------------------------------------
    #: paper §V-A: "configured with a non-union detection threshold of 200"
    non_union_threshold: float = 200.0
    #: once union indication fires, the process's threshold drops here
    union_threshold: float = 180.0
    #: immediate score boost on union indication
    union_bonus: float = 40.0

    # -- primary indicator: entropy (paper §IV-C1) --------------------------
    #: trigger when Pwrite − Pread ≥ this (paper value 0.1)
    entropy_delta: float = 0.1
    entropy_points: float = 2.5

    # -- primary indicator: file type change --------------------------------
    type_change_points: float = 5.0

    # -- primary indicator: similarity --------------------------------------
    #: trigger when the sdhash score is at or below this ("near-zero")
    similarity_trigger_max: int = 5
    similarity_points: float = 6.0
    #: "sdhash" or "ctph" (ablation: the Kornblum CTPH backend)
    similarity_backend: str = "sdhash"

    # -- secondary indicator: deletion ---------------------------------------
    #: deletions of protected files before points accrue (temp-file grace)
    deletion_allowance: int = 4
    deletion_points: float = 2.0

    # -- secondary indicator: file type funneling -----------------------------
    #: spread = distinct types read − distinct types written
    funnel_spread: int = 5
    funnel_points: float = 3.0

    # -- dynamic scoring (the paper's §V-C future-work proposal) --------------
    #: "Once identified, CryptoDrop could adjust the number of reputation
    #: points assessed up or down for individual indicators, leading to
    #: faster detection even when union indication is not possible."
    #: When enabled, inspections of files too small for a similarity
    #: digest multiply the remaining indicators' points by this factor.
    dynamic_scoring: bool = False
    dynamic_boost: float = 2.0

    # -- feature switches (ablation experiments) ------------------------------
    enable_entropy: bool = True
    enable_type_change: bool = True
    enable_similarity: bool = True
    enable_deletion: bool = True
    enable_funneling: bool = True
    enable_union: bool = True
    #: score whole process families rather than single processes
    score_process_families: bool = True

    # -- engine internals ------------------------------------------------------
    #: skip baseline digests for files larger than this (cost ceiling)
    max_inspect_bytes: int = 4 * 1024 * 1024
    #: LRU entries in the content-hash digest cache (0 disables caching);
    #: hits skip re-identifying and re-digesting bytes already inspected
    digest_cache_entries: int = 256
    #: captures defer their digests until a comparison needs them; when
    #: the deferred ``pending_content`` bytes exceed this watermark the
    #: InspectionScheduler flushes its oldest records until they fit
    #: (bounds close-path memory on monitors that defer many large files;
    #: 0 disables the cap)
    scheduler_pending_bytes_cap: int = 64 << 20

    # -- telemetry (repro.telemetry) -------------------------------------------
    #: structured detection telemetry: event bus + metrics registry.
    #: Off by default — the disabled path is a single ``is None`` check at
    #: every emit point (tests/test_telemetry.py::TestDisabledPath).
    telemetry_enabled: bool = False
    #: ring-buffer capacity of the event bus (oldest events evicted;
    #: subscribers such as the JSONL exporter still see the full stream)
    telemetry_events: int = 4096

    # -- baseline store storage (repro.store) ----------------------------------
    #: where campaign BaselineStore entries live: ``"dict"`` keeps the
    #: whole corpus index resident (fastest lookups, RAM-bounded) while
    #: ``"mmap"`` serves it from a single on-disk file — millisecond
    #: opens at any corpus size, lazy per-record page-in.  Verdicts are
    #: bit-identical either way (docs/performance.md).
    store_backend: str = "dict"
    #: hot-entry LRU capacity of the mmap store backend — the resident
    #: memory ceiling; steady-state campaigns serve repeats from it
    store_hot_entries: int = 4096

    # -- campaign execution ----------------------------------------------------
    #: worker processes for parallel campaigns; 0 means one per CPU.
    #: (The old hard cap of 8 existed because each worker held its own
    #: corpus digests — the shared BaselineStore removed that cost.)
    campaign_workers: int = 0
    latency: LatencyModel = field(default_factory=LatencyModel)

    def with_overrides(self, **kwargs) -> "CryptoDropConfig":
        """A copy with the given fields replaced (ablation helper)."""
        return replace(self, **kwargs)

    def is_protected(self, path: WinPath) -> bool:
        return any(path.is_within(root) for root in self.protected_roots)

    def indicators_enabled(self) -> List[str]:
        names = []
        for flag, name in ((self.enable_entropy, "entropy"),
                           (self.enable_type_change, "type_change"),
                           (self.enable_similarity, "similarity"),
                           (self.enable_deletion, "deletion"),
                           (self.enable_funneling, "funneling")):
            if flag:
                names.append(name)
        return names


def default_config(**overrides) -> CryptoDropConfig:
    """The configuration used for the paper-reproduction experiments."""
    return CryptoDropConfig().with_overrides(**overrides) if overrides \
        else CryptoDropConfig()
