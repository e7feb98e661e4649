"""The scoring paths against the scalar reference.

:func:`compare` scores a pair on Python ints (``_score_ints``), and
:func:`compare_many` calls it on each pair of a batch.  Both must give
the scalar per-pair loop's score (``tests/reference.py``) on every pair,
including filters that take the ``pa == 0`` and
``max_overlap <= expected`` branches of the similarity formula, which
kernel digests rarely reach and which are built here with
:meth:`SdDigest.from_state`.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.wordlists import paragraphs
from repro.simhash.bloom import FILTER_BITS, MAX_FEATURES
from repro.simhash.sdhash import (SdDigest, _ordered, _score_ints, compare,
                                  compare_many, sdhash)
from tests.reference import compare_scalar

_FILTER_BYTES = FILTER_BITS // 8
EMPTY = bytes(_FILTER_BYTES)
FULL = b"\xff" * _FILTER_BYTES


def _digest(rows, counts=None):
    counts = counts or [MAX_FEATURES] * len(rows)
    return SdDigest.from_state({
        "filters": [{"bits": row.hex(), "count": count}
                    for row, count in zip(rows, counts)],
        "n_features": sum(counts),
        "source_len": 4096,
    })


def _set_bits(positions) -> bytes:
    row = bytearray(_FILTER_BYTES)
    for pos in positions:
        row[pos // 8] |= 0x80 >> (pos % 8)
    return bytes(row)


@st.composite
def _row(draw, like=None):
    """A filter's packed bits: empty, full, dense random, kernel-sparse
    (up to 160 features × 5 bits), or — when ``like`` is given — a
    light edit of ``like`` so the pair scores high."""
    kinds = ["empty", "full", "dense", "sparse"] + (["edit"] if like else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "empty":
        return EMPTY
    if kind == "full":
        return FULL
    if kind == "dense":
        return draw(st.binary(min_size=_FILTER_BYTES, max_size=_FILTER_BYTES))
    if kind == "sparse":
        return _set_bits(draw(st.lists(st.integers(0, FILTER_BITS - 1),
                                       max_size=5 * MAX_FEATURES)))
    flips = draw(st.lists(st.integers(0, FILTER_BITS - 1), max_size=40))
    row = bytearray(like)
    for pos in flips:
        row[pos // 8] ^= 0x80 >> (pos % 8)
    return bytes(row)


@st.composite
def _pair(draw):
    a_rows = draw(st.lists(_row(), min_size=1, max_size=3))
    b_rows = [draw(_row(like=draw(st.sampled_from(a_rows))))
              for _ in range(draw(st.integers(1, 3)))]
    counts = st.integers(1, MAX_FEATURES)
    a = _digest(a_rows, [draw(counts) for _ in a_rows])
    b = _digest(b_rows, [draw(counts) for _ in b_rows])
    return a, b


@settings(max_examples=300, deadline=None)
@given(pair=_pair())
def test_both_paths_match_the_scalar_reference(pair):
    a, b = pair
    want = compare_scalar(a, b)
    small, large = _ordered(a, b)
    assert _score_ints(small, large) == want
    assert compare(a, b) == compare(b, a) == want
    assert compare_many([(a, b), (b, a), (None, a)]) == [want, want, None]


@pytest.mark.parametrize("shape", [(1, 1), (1, 3), (2, 2), (3, 3)])
def test_degenerate_branches_on_each_path(shape):
    rng = random.Random(sum(shape))
    sparse = [_set_bits(rng.sample(range(FILTER_BITS), 600))
              for _ in range(3)]
    # an empty filter: pa == 0; a full one: max_overlap <= expected
    a = _digest(([EMPTY, FULL] + sparse)[:shape[0]])
    b = _digest((sparse[::-1] + [FULL, EMPTY])[:shape[1]])
    small, large = _ordered(a, b)
    want = compare_scalar(a, b)
    assert _score_ints(small, large) == compare(a, b) == want
    assert compare_many([(a, b), (b, a)]) == [want, want]


def test_kernel_digests_on_both_paths():
    rng = random.Random(8)
    base = paragraphs(rng, 80_000).encode()
    digests = [sdhash(base[:n]) for n in (3000, 9000, 30_000, 70_000)]
    digests.append(sdhash(base[:20_000] + rng.randbytes(20_000)))
    assert {len(d) for d in digests} >= {1, 2, 3}
    for a in digests:
        for b in digests:
            small, large = _ordered(a, b)
            want = compare_scalar(a, b)
            assert _score_ints(small, large) == want
            assert compare_many([(a, b)]) == [want]
            assert compare(a, b) == want
