"""Corpus-composition sensitivity (beyond the paper).

§V-B1 explains that detection speed depends on *what the victim stores*:
"samples which attack high entropy files first experience a delay before
being assigned points for increasing file entropy."  This experiment
makes that systematic: the same family subset runs against corpora
modelling different users (generic / writer / photographer / accountant)
and the files-lost medians are compared.

Expected shape: the photographer's compressed-everything corpus starves
the entropy delta and detection leans on type change + similarity
(slower); the writer's text-heavy corpus trips the delta instantly
(faster, except where tiny notes stall sdhash).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.config import CryptoDropConfig
from ..corpus.builder import generate
from ..corpus.profiles import PROFILE_NAMES, profile_spec
from ..ransomware import instantiate, working_cohort
from ..sandbox import run_campaign
from .common import SMALL, ExperimentScale
from .reporting import ascii_table, header

__all__ = ["SensitivityRow", "SensitivityResult", "run_sensitivity"]


@dataclass
class SensitivityRow:
    profile: str
    median_files_lost: float
    max_files_lost: int
    union_rate: float
    detection_rate: float


@dataclass
class SensitivityResult:
    rows: List[SensitivityRow] = field(default_factory=list)
    per_profile_medians: Dict[str, float] = field(default_factory=dict)

    def row(self, profile: str) -> SensitivityRow:
        for row in self.rows:
            if row.profile == profile:
                return row
        raise KeyError(profile)

    def render(self) -> str:
        body = [(r.profile, f"{r.median_files_lost:g}", r.max_files_lost,
                 f"{r.union_rate:.0%}", f"{r.detection_rate:.0%}")
                for r in self.rows]
        return (header("Corpus-composition sensitivity "
                       "(same samples, different victims)")
                + "\n" + ascii_table(
                    ("user profile", "median FL", "max FL", "union rate",
                     "detected"), body)
                + "\n\n(§V-B1's mechanism, systematised: what the victim "
                  "stores sets how fast\n each indicator can speak)")


def run_sensitivity(scale: ExperimentScale = SMALL,
                    samples_per_family: int = 2,
                    config: Optional[CryptoDropConfig] = None
                    ) -> SensitivityResult:
    """Run a family-spread subset against each user-profile corpus."""
    cohort = working_cohort()
    by_family: Dict[str, List] = {}
    for sample in cohort:
        by_family.setdefault(sample.profile.family, []).append(sample)
    subset = []
    for family in sorted(by_family):
        subset.extend(by_family[family][:samples_per_family])

    result = SensitivityResult()
    for index, profile in enumerate(PROFILE_NAMES):
        # a stable per-profile seed: str hash() is salted per process
        corpus = generate(scale.corpus_seed + index,
                          scale.n_files, scale.n_dirs,
                          spec=profile_spec(profile), use_cache=False)
        fresh = [instantiate(s.profile) for s in subset]
        campaign = run_campaign(fresh, corpus, config)
        values = campaign.files_lost_values()
        result.rows.append(SensitivityRow(
            profile=profile,
            median_files_lost=campaign.median_files_lost,
            max_files_lost=max(values) if values else 0,
            union_rate=campaign.union_rate,
            detection_rate=campaign.detection_rate))
        result.per_profile_medians[profile] = campaign.median_files_lost
    return result
