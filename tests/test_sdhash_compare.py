"""The scoring paths against the scalar reference.

:func:`compare` scores a pair on Python ints (``_score_ints``) below
``_WORDS_MIN_PAIRS`` filter pairs and with one popcount over every
pair's AND (``_score_words``) from there on, in either argument order.
Both must give the scalar per-pair loop's score (``tests/reference.py``)
on every pair, including filters that take the ``pa == 0`` and
``max_overlap <= expected`` branches of the similarity formula, which
kernel digests rarely reach and which are built here with
:meth:`SdDigest.from_state`, and digests decoded from a store payload,
whose filters are a strided view of it.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.wordlists import paragraphs
from repro.simhash.bloom import FILTER_BITS, MAX_FEATURES
from repro.simhash.sdhash import (_WORDS_MIN_PAIRS, SdDigest, _ordered,
                                  _score_ints, _score_words, compare,
                                  sdhash)
from repro.store.format import decode_sddigest, encode_sddigest
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
    assert _score_words(small, large) == want
    assert compare(a, b) == compare(b, a) == want


def _random_row(rng, like):
    """:func:`_row`'s kinds drawn from ``rng``, for digests too large to
    draw row by row; an edit copies one of ``like``."""
    kind = rng.choice(["empty", "full", "dense", "sparse", "sparse",
                       "edit", "edit"])
    if kind == "empty":
        return EMPTY
    if kind == "full":
        return FULL
    if kind == "dense":
        return rng.randbytes(_FILTER_BYTES)
    if kind == "sparse" or not like:
        return _set_bits(rng.sample(range(FILTER_BITS),
                                    rng.randrange(5 * MAX_FEATURES)))
    row = bytearray(rng.choice(like))
    for pos in rng.sample(range(FILTER_BITS), rng.randrange(40)):
        row[pos // 8] ^= 0x80 >> (pos % 8)
    return bytes(row)


@st.composite
def _large_pair(draw):
    """Two digests of 1–200 filters, with as many filter pairs below the
    popcount crossover as above it; equal filter counts (and then, half
    the time, equal feature counts) reach ``_ordered``'s tie-breaks, and
    either side may be decoded from a store payload."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    if draw(st.booleans()):
        n = draw(st.integers(1, _WORDS_MIN_PAIRS - 1))
        m = draw(st.integers(1, (_WORDS_MIN_PAIRS - 1) // n))
    else:
        n = draw(st.integers(1, 200))
        m = draw(st.integers(-(-_WORDS_MIN_PAIRS // n), 200))
    if draw(st.booleans()):
        m = n
    a_rows = [_random_row(rng, []) for _ in range(n)]
    b_rows = [_random_row(rng, a_rows) for _ in range(m)]
    a_counts = [rng.randint(1, MAX_FEATURES) for _ in a_rows]
    b_counts = (list(a_counts) if m == n and draw(st.booleans())
                else [rng.randint(1, MAX_FEATURES) for _ in b_rows])
    a, b = _digest(a_rows, a_counts), _digest(b_rows, b_counts)
    stored = draw(st.sampled_from(["neither", "a", "b"]))
    if stored == "a":
        a = decode_sddigest(encode_sddigest(a))
    elif stored == "b":
        b = decode_sddigest(encode_sddigest(b))
    return a, b


@settings(max_examples=60, deadline=None)
@given(pair=_large_pair())
def test_digests_of_up_to_200_filters_match_the_scalar_reference(pair):
    a, b = pair
    want = compare_scalar(a, b)
    assert compare(a, b) == compare(b, a) == want
    small, large = _ordered(a, b)
    assert _score_words(small, large) == _score_ints(small, large) == want


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
    assert _score_words(small, large) == want


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
            assert _score_words(small, large) == want
            assert compare(a, b) == want
