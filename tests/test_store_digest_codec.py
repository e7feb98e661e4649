"""The store's sdhash payload codec (``repro.store.format``).

A decoded digest keeps the payload's filter rows as its packed
bit-matrix, so it compares without repacking and round-trips exactly.
A payload that cannot be a digest raises :class:`StoreFormatError` when
it is decoded — never ``struct.error``, never a digest that decodes and
then fails inside ``compare``.
"""

import random
import struct

import numpy as np
import pytest

from repro.corpus.wordlists import paragraphs
from repro.simhash import compare, sdhash
from repro.simhash.bloom import MAX_FEATURES
from repro.store import StoreFormatError
from repro.store.format import decode_sddigest, encode_sddigest

#: n_filters, n_features, source_len; then per filter its feature count
#: and 256 bytes of packed bits
HEAD = struct.Struct("<HIQ")
COUNT = struct.Struct("<I")
BITS = bytes(range(256))


def _payload(counts, n_features=None, n_filters=None):
    return (HEAD.pack(len(counts) if n_filters is None else n_filters,
                      sum(counts) if n_features is None else n_features,
                      4096)
            + b"".join(COUNT.pack(count) + BITS for count in counts))


def test_round_trip_keeps_the_payload_rows_packed():
    digest = sdhash(paragraphs(random.Random(4), 70_000).encode())
    assert len(digest) >= 2
    payload = encode_sddigest(digest)
    decoded = decode_sddigest(payload)
    assert np.shares_memory(decoded.packed_matrix(),
                            np.frombuffer(payload, dtype=np.uint8))
    assert decoded.to_state() == digest.to_state()
    assert decoded.hexdigest() == digest.hexdigest()
    assert compare(decoded, digest) == 100


def test_well_formed_payload_decodes():
    digest = decode_sddigest(_payload([MAX_FEATURES, 1]))
    assert len(digest) == 2
    assert digest.counts == [MAX_FEATURES, 1]
    assert digest.n_features == MAX_FEATURES + 1
    assert digest.packed_matrix()[1].tobytes() == BITS


def test_short_head_is_a_format_error():
    with pytest.raises(StoreFormatError, match="head"):
        decode_sddigest(b"\x01\x00")


def test_zero_filters_is_a_format_error():
    with pytest.raises(StoreFormatError, match="no filters"):
        decode_sddigest(_payload([]))


@pytest.mark.parametrize("count", [0, MAX_FEATURES + 1, 9_999])
def test_filter_count_outside_one_to_max_is_a_format_error(count):
    with pytest.raises(StoreFormatError, match="counts"):
        decode_sddigest(_payload([5, count]))


def test_counts_not_summing_to_n_features_is_a_format_error():
    with pytest.raises(StoreFormatError, match="features"):
        decode_sddigest(_payload([5, 7], n_features=13))


def test_length_disagreeing_with_filter_count_is_a_format_error():
    with pytest.raises(StoreFormatError, match="declares"):
        decode_sddigest(_payload([5, 7], n_filters=3))
