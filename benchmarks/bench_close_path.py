"""ISSUE 2 — the single-digest close path, measured and counter-verified.

The close-heavy campaign rewrites the same documents repeatedly: the
workload whose steady state the digest LRU turns from digest-per-close
into lookup-per-close.  Beyond raw time, the counter assertions pin the
tentpole's invariant: each closed version is digested at most once, so
``bytes_digested`` never exceeds ``bytes_closed`` plus the one-off
baseline captures.  The cached-vs-uncached speed gate lives in
``bench_ab.py``.
"""

import pytest

from conftest import close_heavy_campaign

_CAMPAIGN = dict(n_files=24, rewrites=6, payload=48 * 1024)


def test_bench_close_heavy_cached(benchmark):
    _, stats = benchmark.pedantic(
        lambda: close_heavy_campaign(**_CAMPAIGN), rounds=3, iterations=1)
    assert stats["digest_cache"]["bytes_digested"] <= stats["bytes_closed"]


def test_bench_close_heavy_uncached(benchmark):
    _, stats = benchmark.pedantic(
        lambda: close_heavy_campaign(**_CAMPAIGN, digest_cache_entries=0),
        rounds=3, iterations=1)
    # no cache → every close digests, but still exactly once per close
    assert stats["digest_cache"]["hits"] == 0


class TestSingleDigestCounters:
    @pytest.fixture(scope="class")
    def campaign(self):
        return close_heavy_campaign(**_CAMPAIGN)

    def test_bytes_digested_le_bytes_closed(self, campaign):
        _, stats = campaign
        assert stats["digest_cache"]["bytes_digested"] <= \
            stats["bytes_closed"]

    def test_only_baselines_were_digested(self, campaign):
        # the rewrites reuse content: only the initial per-file baseline
        # capture should ever have digested anything
        _, stats = campaign
        assert stats["digest_cache"]["bytes_digested"] == \
            _CAMPAIGN["n_files"] * _CAMPAIGN["payload"]

    def test_steady_state_closes_all_hit(self, campaign):
        _, stats = campaign
        n_closes = _CAMPAIGN["n_files"] * _CAMPAIGN["rewrites"]
        assert stats["ops_seen"]["close"] == n_closes
        assert stats["digest_cache"]["hits"] == n_closes
