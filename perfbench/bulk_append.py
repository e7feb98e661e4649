"""bulk_append: one process writes large documents sequentially in chunks.

File sizes are spread evenly from the 1 MiB ``stream_digest_min_bytes``
threshold up to just under the 4 MiB ``max_inspect_bytes`` cap.  Half
the files are new exports; the other half are in-place saves that read
an existing large document and rewrite a lightly edited version over it,
so the close compares against the captured baseline.  Saving one file
(its reads, writes and close) is one task.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

from repro.core.config import CryptoDropConfig
from repro.core.monitor import CryptoDropMonitor
from repro.corpus.wordlists import paragraph
from repro.fs.errors import ProcessSuspended
from repro.fs.paths import DOCUMENTS, WinPath
from repro.sandbox import VirtualMachine
from repro.simhash import sdhash

from harness import MIB, attach_vfs_meter, detach_vfs_meter

CHUNK = 64 << 10


@dataclass
class Job:
    path: WinPath
    chunks: List[bytes]
    #: an in-place save over an existing document (read, then rewrite)
    save: bool


def _text(rng: random.Random, pool: List[bytes], size: int) -> bytes:
    parts, total = [], 0
    while total < size:
        part = rng.choice(pool)
        parts.append(part)
        total += len(part)
    return b"".join(parts)[:size]


def _edit(rng: random.Random, pool: List[bytes], original: bytes) -> bytes:
    """Replace about one 4 KiB block in twenty, keeping the length."""
    blocks = [original[i:i + 4096] for i in range(0, len(original), 4096)]
    for i in range(len(blocks)):
        if rng.random() < 0.05:
            blocks[i] = _text(rng, pool, len(blocks[i]))
    return b"".join(blocks)


class BulkAppend:
    name = "bulk_append"
    files_per_pass = 12
    min_bytes = 1 << 20
    max_bytes = (4 << 20) - CHUNK
    min_passes = 4
    #: ``.tail`` percentiles: the highest ladder step with ten samples
    #: beyond it in one pass (~480 writes), or in the minimum four passes
    #: where one pass has too few (48 files, 72 closes)
    tails = {"task": 75.0, "close": 75.0, "write": 95.0}

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.config = CryptoDropConfig()
        self.store_build_s = 0.0

    def setup(self) -> None:
        rng = random.Random(f"{self.name}:{self.seed}")
        pool = [(paragraph(rng) + "\n\n").encode() for _ in range(400)]
        span = self.max_bytes - self.min_bytes
        n = self.files_per_pass
        sizes = [self.min_bytes + int((i + rng.random()) / n * span)
                 for i in range(n)]
        self.machine = VirtualMachine()
        self.jobs: List[Job] = []
        for i, size in enumerate(sizes):
            save = i % 2 == 1
            path = DOCUMENTS / "Exports" / (f"report_{i:02d}.txt" if save
                                            else f"export_{i:02d}.txt")
            content = _text(rng, pool, size)
            if save:
                self.machine.vfs.peek_write(path, content, parents=True)
                content = _edit(rng, pool, content)
            self.jobs.append(Job(path, [content[o:o + CHUNK] for o in
                                        range(0, len(content), CHUNK)], save))
        rng.shuffle(self.jobs)
        self.machine.vfs._ensure_dirs(DOCUMENTS / "Exports")
        self.machine.snapshot()

    def begin(self, meter) -> None:
        attach_vfs_meter(self.machine.vfs, meter)

    def end(self) -> None:
        detach_vfs_meter(self.machine.vfs)

    def run_pass(self, meter, check: bool) -> None:
        vfs = self.machine.vfs
        monitor = CryptoDropMonitor(vfs, self.config).attach()
        pid = vfs.processes.spawn("exporter.exe",
                                  started_us=vfs.clock.now_us).pid
        done = 0
        try:
            for job in self.jobs:
                with meter.task():
                    self._save(vfs, pid, job)
                done += 1
        except ProcessSuspended:
            pass
        try:
            meter.attempted += len(self.jobs)
            meter.failed += len(self.jobs) - done
            meter.verdicts_ok += done
            if check:
                # materialise the close baselines the lazy close path
                # deferred, so every file's digest is checked
                monitor.flush_inspections()
                meter.failed += self._digest_mismatches(monitor, meter)
        finally:
            monitor.detach()
            self.machine.revert()

    @staticmethod
    def _save(vfs, pid: int, job: Job) -> None:
        if job.save:
            handle = vfs.open(pid, job.path, "r")
            while vfs.read(pid, handle, CHUNK):
                pass
            vfs.close(pid, handle)
            handle = vfs.open(pid, job.path, "w", truncate=True)
        else:
            handle = vfs.open(pid, job.path, "w", create=True, truncate=True)
        for chunk in job.chunks:
            vfs.write(pid, handle, chunk)
        vfs.close(pid, handle)

    def _digest_mismatches(self, monitor, meter) -> int:
        """Materialised baselines that differ from a fresh sdhash."""
        vfs, cache = self.machine.vfs, monitor.engine.cache
        bad = 0
        for job in self.jobs:
            record = cache.get(vfs.peek_stat(job.path).node_id)
            if record is None or record.base_digest is None:
                continue
            fresh = sdhash(vfs.peek_read(job.path))
            meter.note("digests_checked", 1)
            bad += fresh is None or (record.base_digest.hexdigest()
                                     != fresh.hexdigest())
        return bad

    def layer_counters(self, meter) -> dict:
        return {}

    def report(self, meter, timed_s: float) -> list:
        checked = len(meter.extra.get("digests_checked", []))
        return [
            ("append_mib_per_s", meter.bytes_written / MIB / timed_s,
             "MiB/s"),
            ("pass_mib", sum(len(c) for j in self.jobs for c in j.chunks)
             / MIB, "MiB"),
            ("digests_checked", f"{checked} of {self.files_per_pass}",
             "files"),
        ]
