"""Benchmark configuration and shared workload helpers.

Every bench regenerates one of the paper's tables/figures at full paper
scale (5,099-file corpus, all 492 samples) by default.  Set
``REPRO_BENCH_SCALE=small`` for a faster structural pass.  The cohort
campaign is executed once and shared across benches via the experiment
cache.

The plain helpers below (``text``, ``digest_with_filters``,
``close_heavy_campaign``) are imported by more than one bench module.
"""

from __future__ import annotations

import os
import random
import time

import pytest

from repro.core import CryptoDropConfig, CryptoDropMonitor
from repro.corpus.wordlists import paragraphs
from repro.experiments import FULL, SMALL, campaign_at_scale
from repro.fs import DOCUMENTS, VirtualFileSystem
from repro.simhash.sdhash import sdhash


def bench_scale():
    return SMALL if os.environ.get("REPRO_BENCH_SCALE") == "small" else FULL


def text(seed: int, approx_bytes: int) -> bytes:
    """Exactly ``approx_bytes`` of deterministic word-list prose."""
    data = paragraphs(random.Random(seed), approx_bytes).encode()
    while len(data) < approx_bytes:
        data += paragraphs(random.Random(seed + len(data)),
                           approx_bytes).encode()
    return data[:approx_bytes]


def digest_with_filters(min_filters: int):
    """Text content large enough to span ``min_filters`` Bloom filters."""
    size = min_filters * 24 * 1024
    while True:
        digest = sdhash(text(7, size))
        if digest is not None and len(digest) >= min_filters:
            return digest
        size *= 2


def close_heavy_campaign(n_files: int, rewrites: int, payload: int,
                         digest_cache_entries: int = 256):
    """Rewrite-then-close the same documents repeatedly.

    Steady state is exactly the workload the digest cache exists for:
    every close re-inspects content the engine has digested before.
    Returns ``(elapsed_seconds, monitor.stats())``.
    """
    vfs = VirtualFileSystem()
    vfs._ensure_dirs(DOCUMENTS)
    paths = []
    for i in range(n_files):
        path = DOCUMENTS / f"doc{i}.txt"
        vfs.peek_write(path, text(i, payload))
        paths.append(path)
    config = CryptoDropConfig(digest_cache_entries=digest_cache_entries)
    monitor = CryptoDropMonitor(vfs, config).attach()
    pid = vfs.processes.spawn("editor.exe").pid
    started = time.perf_counter()
    for _ in range(rewrites):
        for path in paths:
            handle = vfs.open(pid, path, "rw")
            data = vfs.read(pid, handle)
            vfs.seek(pid, handle, 0)
            vfs.write(pid, handle, data)
            vfs.close(pid, handle)
    elapsed = time.perf_counter() - started
    stats = monitor.stats()
    monitor.detach()
    return elapsed, stats


@pytest.fixture(scope="session")
def scale():
    return bench_scale()


@pytest.fixture(scope="session")
def campaign(scale):
    """The one big cohort sweep every table/figure reads from."""
    return campaign_at_scale(scale)


@pytest.fixture
def full_scale_only(scale):
    """Skip shape assertions whose constants are calibrated to the paper's
    full corpus (small-scale corpora have different small-file statistics)."""
    if scale.per_family is not None:
        pytest.skip("shape constant calibrated for full paper scale")
