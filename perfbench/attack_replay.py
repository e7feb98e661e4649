"""attack_replay: recorded ransomware streams replayed into monitored VMs.

Set-up renders several small corpora, builds each one's
``BaselineStore``, draws a cohort of working samples in the natural
Table I class mix, deals it across the corpora and records each
sample's stream from a monitored live run on its machine.  One pass
replays every stream under a fresh monitor, then assesses the damage
and reverts the machine, as ``run_sample`` does; a sample's task time
covers all three.

Why several corpora: a sample is stopped after about ten files, and
samples that walk a tree the same way hit the same first files.  On one
corpus a run would time the same few files again and again, and the
figures would swing with the seed that placed them; spreading the cohort
over several corpora makes one run touch many more distinct files.

The corpora are the same for every seed; the seed draws the cohort and
deals it over them.  Which corpus files are large sets the cost of the
slowest closes, so with seeded corpora the close and sample times moved
by a sixth to a quarter (IQR over median, ten seeds) from seed to seed;
with fixed corpora, by a twentieth to a ninth.
"""

from __future__ import annotations

import random
import time
from typing import List

from repro.core.config import CryptoDropConfig
from repro.core.monitor import CryptoDropMonitor
from repro.corpus.baselines import BaselineStore
from repro.corpus.builder import generate
from repro.sandbox import VirtualMachine

from harness import attach_vfs_meter, detach_vfs_meter, median
from streams import Recording, attack_cohort, record_attack, replay


class AttackReplay:
    name = "attack_replay"
    cohort = 48
    #: per corpus: a quarter of the 420-file, 36-folder test corpus (an
    #: eighth leaves some samples too few targets to be detected)
    n_files, n_dirs = 105, 9
    corpus_seeds = (1001, 1002, 1003, 1000)
    min_passes = 1
    #: ``.tail`` percentiles: the highest ladder step with ten samples
    #: beyond it in one pass (48 samples, ~620 closes, 980-1,050 writes);
    #: passes repeat the same streams, so later passes add no new ones
    tails = {"task": 75.0, "close": 95.0, "write": 95.0}

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.config = CryptoDropConfig()
        self.store_build_s = 0.0

    def setup(self) -> None:
        rng = random.Random(f"{self.name}:{self.seed}")
        profiles = attack_cohort(rng, self.cohort)
        rng.shuffle(profiles)
        #: (machine, store, recordings replayed on it)
        self.worlds: List[tuple] = []
        for i, corpus_seed in enumerate(self.corpus_seeds):
            corpus = generate(seed=corpus_seed, n_files=self.n_files,
                              n_dirs=self.n_dirs, use_cache=False)
            started = time.perf_counter()
            store = BaselineStore.build(corpus)
            self.store_build_s += time.perf_counter() - started
            machine = VirtualMachine(corpus, baseline_store=store)
            machine.snapshot()
            recordings = [record_attack(machine, p, self.config, store)
                          for p in profiles[i::len(self.corpus_seeds)]]
            self.worlds.append((machine, store, recordings))

    @property
    def recordings(self) -> List[Recording]:
        return [r for _, _, recordings in self.worlds for r in recordings]

    def begin(self, meter) -> None:
        for machine, _, _ in self.worlds:
            attach_vfs_meter(machine.vfs, meter)

    def end(self) -> None:
        for machine, _, _ in self.worlds:
            detach_vfs_meter(machine.vfs)

    def run_pass(self, meter, check: bool) -> None:
        outcomes = []
        for machine, store, recordings in self.worlds:
            for recording in recordings:
                outcomes.append(self._sample(meter, machine, store,
                                             recording))
        for recording, (detected, damage, error) in zip(self.recordings,
                                                       outcomes):
            lost = damage.files_lost if damage is not None else 0
            meter.attempted += 1
            if (error or recording.error or detected != recording.detected
                    or lost != recording.files_lost):
                meter.failed += 1
            # a detected sample scores the share of its machine's documents
            # it left intact, so a change that lets samples destroy more
            # files lowers verdict_accuracy even when replay and recording
            # agree (both come from the code under test)
            if detected:
                meter.verdicts_ok += damage.intact / (damage.intact + lost)
            meter.note("detected", detected)
            meter.note("files_lost", lost)

    def _sample(self, meter, machine, store, recording) -> tuple:
        """Replay, assess and revert one sample: one task."""
        vfs = machine.vfs
        with meter.task():
            monitor = CryptoDropMonitor(vfs, self.config,
                                        baseline_store=store).attach()
            try:
                replay(vfs, recording)
                return bool(monitor.detections), machine.assess(), None
            except Exception as exc:  # noqa: BLE001 - counted as failed
                return False, None, f"{type(exc).__name__}: {exc}"
            finally:
                monitor.detach()
                machine.revert()

    def layer_counters(self, meter) -> dict:
        return {}

    def report(self, meter, timed_s: float) -> list:
        lost = meter.extra.get("files_lost", [])
        live_lost = [r.files_lost for r in self.recordings]
        return [
            ("samples_per_s", len(meter.task_ns) / timed_s, "samples/s"),
            ("files_lost.p50", median(lost), "files"),
            ("live_files_lost.p50", median(live_lost), "files"),
            ("detected_frac", sum(meter.extra.get("detected", []))
             / meter.attempted, "fraction"),
            ("cohort", len(self.recordings), "samples"),
            ("stream_ops", sum(len(r.records) for r in self.recordings),
             "records"),
        ]
