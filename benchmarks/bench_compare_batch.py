"""ISSUE 2 — batched sdhash compare vs the scalar per-pair loop.

The acceptance bar is a ≥5× speedup on 32-filter digests (multi-hundred-
KB documents) with bit-identical scores; the equivalence itself is pinned
by tests/test_simhash_vectorised.py and the speed gate by
``bench_ab.py``.  This file times both paths.
"""

import pytest

from conftest import digest_with_filters
from repro.simhash.sdhash import compare
from tests.reference import compare_scalar


@pytest.fixture(scope="module")
def digests():
    a = digest_with_filters(32)
    b = digest_with_filters(32)
    return a, b


def test_bench_compare_batched_32f(benchmark, digests):
    a, b = digests
    score = benchmark(compare, a, b)
    assert score == compare_scalar(a, b)


def test_bench_compare_scalar_32f(benchmark, digests):
    benchmark.pedantic(compare_scalar, args=digests, rounds=3, iterations=1)
