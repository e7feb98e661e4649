"""benign_desktop: the thirty §V-F applications, live under the detector.

This is the overhead a user feels.  Each pass runs every application of
``repro.benign.all_apps`` once through ``run_benign`` (fresh monitor,
run, revert) on a corpus-planted machine with no baseline store, so
baselines are captured live.  An application run is one task.
"""

from __future__ import annotations

import random

from repro.benign import all_apps
from repro.core.config import CryptoDropConfig
from repro.corpus.builder import generate
from repro.fs.paths import DOCUMENTS
from repro.sandbox import VirtualMachine, run_benign

from harness import attach_vfs_meter, detach_vfs_meter


class BenignDesktop:
    name = "benign_desktop"
    n_files, n_dirs = 420, 36
    min_passes = 2
    #: ``.tail`` percentiles: the highest ladder step with ten samples
    #: beyond it in one pass (~1,560 closes, ~650 writes), except tasks,
    #: which count both minimum passes (30 app runs each)
    tails = {"task": 75.0, "close": 99.0, "write": 95.0}

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.config = CryptoDropConfig()
        self.store_build_s = 0.0

    def setup(self) -> None:
        rng = random.Random(f"{self.name}:{self.seed}")
        # ResophNotes edits the first entries of Documents\Notes; a corpus
        # folder of that name hands it subfolders or read-only files it
        # cannot edit, and the app errors, so such a corpus is redrawn
        while True:
            corpus = generate(seed=rng.randrange(1, 1 << 31),
                              n_files=self.n_files, n_dirs=self.n_dirs,
                              use_cache=False)
            self.machine = VirtualMachine(corpus)
            if not self.machine.vfs.exists(DOCUMENTS / "Notes"):
                break
        self.app_seed = rng.randrange(1 << 16)
        self.machine.snapshot()

    def begin(self, meter) -> None:
        attach_vfs_meter(self.machine.vfs, meter)

    def end(self) -> None:
        detach_vfs_meter(self.machine.vfs)

    def run_pass(self, meter, check: bool) -> None:
        results = []
        for app in all_apps(self.app_seed):
            with meter.task():
                results.append(run_benign(self.machine, app, self.config))
        for result in results:
            meter.attempted += 1
            meter.failed += result.error is not None
            meter.verdicts_ok += not result.detected
            if result.detected:
                meter.note("flagged", result.app_name)

    def layer_counters(self, meter) -> dict:
        return {}

    def report(self, meter, timed_s: float) -> list:
        passes = meter.attempted / len(all_apps(0))
        flagged = sorted(set(meter.extra.get("flagged", [])))
        return [
            ("ops_per_pass", meter.ops / passes, "VFS ops"),
            ("false_alarms", len(meter.extra.get("flagged", [])) / passes,
             "apps/pass"),
            ("flagged_apps", ",".join(flagged) or "none", ""),
        ]
