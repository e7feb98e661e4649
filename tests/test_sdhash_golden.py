"""Absolute sdhash pins: digests and scores that must never drift.

``tests/data/sdhash_golden.txt`` holds, for seeded inputs of six kinds
(text, ciphertext, zlib, zero-padded, repetitive, and half text, half
ciphertext) at sizes around the
512-byte floor and up to 300 KB, the input's SHA-256 prefix and its
digest's ``hexdigest``, feature count and filter count, followed by
``compare`` scores for pairs spanning 1×1, 1×N and N×N filters.

The file was recorded once and is never re-recorded to make a change
pass: any kernel rewrite must reproduce it bit for bit through every
entry point — :func:`sdhash`, one :func:`digest_many` batch, a
:class:`StreamingDigestState` fed 64 KiB chunks, and both
:func:`compare` and :func:`compare_many`.  The input hash is checked
first, so a changed input generator fails as such rather than as a
digest mismatch.
"""

import hashlib
import random
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.corpus.wordlists import paragraphs
from repro.simhash.sdhash import (StreamingDigestState, compare,
                                  compare_many, digest_many, sdhash)

GOLDEN = Path(__file__).parent / "data" / "sdhash_golden.txt"

SIZES = (511, 512, 600, 4096, 11_000, 65_536, 300_000)

#: (a, b) input names whose scores are pinned: 1×1, 1×N and N×N filters,
#: related (prefixes, shared text), half related (the mixed inputs) and
#: unrelated (text vs ciphertext)
PAIRS = (
    ("text/600", "text/4096"),
    ("text/4096", "text/11000"),
    ("cipher/4096", "cipher/11000"),
    ("text/11000", "zeropad/11000"),
    ("text/11000", "cipher/11000"),
    ("mixed/11000", "text/11000"),
    ("mixed/4096", "cipher/4096"),
    ("repeat/4096", "repeat/11000"),
    ("text/11000", "text/65536"),
    ("cipher/11000", "cipher/65536"),
    ("mixed/4096", "text/65536"),
    ("mixed/11000", "cipher/300000"),
    ("text/4096", "text/300000"),
    ("zeropad/65536", "text/300000"),
    ("repeat/11000", "repeat/300000"),
    ("text/65536", "text/300000"),
    ("cipher/65536", "cipher/300000"),
    ("zlib/65536", "zlib/300000"),
    ("text/300000", "zlib/300000"),
    ("text/65536", "cipher/65536"),
    ("mixed/65536", "cipher/65536"),
    ("mixed/300000", "text/300000"),
    ("text/300000", "text/300000"),
)

STREAM_CHUNK = 64 * 1024


def golden_inputs() -> dict:
    """``{"kind/size": bytes}`` for every kind at every size."""
    top = max(SIZES)
    text = paragraphs(random.Random(1701), top + 1024).encode()[:top]
    stream = np.frombuffer(hashlib.shake_256(b"sdhash golden").digest(top),
                           dtype=np.uint8)
    cipher = (np.frombuffer(text, dtype=np.uint8) ^ stream).tobytes()
    packed = zlib.compress(paragraphs(random.Random(1702),
                                      4 * top).encode(), 6)
    inputs = {}
    for size in SIZES:
        inputs[f"text/{size}"] = text[:size]
        inputs[f"cipher/{size}"] = cipher[:size]
        inputs[f"zlib/{size}"] = packed[:size]
        inputs[f"zeropad/{size}"] = (text[:size // 2]
                                     + bytes(size - size // 2))
        unit = text[:max(1, size // 8)]
        inputs[f"repeat/{size}"] = (unit * (size // len(unit) + 1))[:size]
        inputs[f"mixed/{size}"] = text[:size // 2] + cipher[size // 2:size]
    assert len(packed) >= top
    return inputs


def _digest_fields(digest) -> str:
    if digest is None:
        return "none"
    return f"{digest.hexdigest()} {digest.n_features} {len(digest)}"


def digest_lines(digests: dict, inputs: dict) -> list:
    """The golden file's ``digest`` lines for ``{name: digest}``; its
    ``compare`` lines read ``compare <a> <b> <score>`` for each pair in
    ``PAIRS``."""
    return [f"digest {name} {hashlib.sha256(data).hexdigest()[:16]} "
            f"{_digest_fields(digests[name])}"
            for name, data in inputs.items()]


@pytest.fixture(scope="module")
def recorded() -> dict:
    """The golden lines keyed by ``(kind, a, b)``; ``b`` is None on
    digest lines."""
    out = {}
    for line in GOLDEN.read_text().splitlines():
        if line and not line.startswith("#"):
            fields = line.split()
            out[(fields[0], fields[1], fields[2] if fields[0] == "compare"
                 else None)] = line
    return out


INPUTS = golden_inputs()


def _streamed(content: bytes):
    state = StreamingDigestState()
    for lo in range(0, len(content), STREAM_CHUNK):
        state.update(content[lo:lo + STREAM_CHUNK])
    return state.finalize()


def test_inputs_match_the_recording(recorded):
    expected = {key[1]: line.split()[2] for key, line in recorded.items()
                if key[0] == "digest"}
    got = {name: hashlib.sha256(data).hexdigest()[:16]
           for name, data in INPUTS.items()}
    assert got == expected


def test_file_lists_every_input_and_pair(recorded):
    assert len(recorded) == len(INPUTS) + len(PAIRS)


@pytest.mark.parametrize("route", ["sdhash", "digest_many", "stream"])
def test_every_route_reproduces_every_digest(route, recorded):
    names = list(INPUTS)
    if route == "sdhash":
        digests = {n: sdhash(INPUTS[n]) for n in names}
    elif route == "digest_many":
        digests = dict(zip(names, digest_many([INPUTS[n] for n in names])))
    else:
        digests = {n: _streamed(INPUTS[n]) for n in names}
    want = [line for key, line in recorded.items() if key[0] == "digest"]
    assert sorted(digest_lines(digests, INPUTS)) == sorted(want)


def test_compare_and_compare_many_reproduce_every_score(recorded):
    digests = {n: sdhash(d) for n, d in INPUTS.items()}
    pairs = [(digests[a], digests[b]) for a, b in PAIRS]
    singly = [compare(x, y) for x, y in pairs]
    swapped = [compare(y, x) for x, y in pairs]
    batched = compare_many(pairs)
    want = [int(recorded[("compare", a, b)].split()[3]) for a, b in PAIRS]
    assert singly == want
    assert swapped == want
    assert batched == want


def test_pairs_span_one_and_many_filters():
    digests = {n: sdhash(INPUTS[n]) for pair in PAIRS for n in pair}
    shapes = {(min(len(digests[a]), len(digests[b])) > 1,
               max(len(digests[a]), len(digests[b])) > 1)
              for a, b in PAIRS}
    assert shapes == {(False, False), (False, True), (True, True)}
