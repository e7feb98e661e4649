"""Shared fixtures.

Corpus generation is the expensive part of most integration tests, so a
small corpus and a prepared machine are session-scoped; tests that mutate
machine state must revert (the ``machine`` fixture hands out a
freshly-reverted one each time).
"""

from __future__ import annotations

import os
import signal

import pytest

from repro.core import engine as engine_mod
from repro.corpus import generate
from repro.fs import DOCUMENTS, VirtualFileSystem
from repro.sandbox import VirtualMachine

TEST_CORPUS_SEED = 1337
TEST_CORPUS_FILES = 420
TEST_CORPUS_DIRS = 36

#: global per-test wall-clock limit — a wedged test (a lost worker, a
#: dispatch loop that never drains) fails loudly instead of hanging the
#: whole tier-1 run.  Generous on purpose: the slowest legitimate test
#: (an evasion sweep) runs for minutes under full-suite load.  Override
#: per test with @pytest.mark.timeout(N) or globally with
#: REPRO_TEST_TIMEOUT (0 disables).
PER_TEST_TIMEOUT_S = float(os.environ.get("REPRO_TEST_TIMEOUT", "300"))


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    marker = item.get_closest_marker("timeout")
    limit = float(marker.args[0]) if marker and marker.args \
        else PER_TEST_TIMEOUT_S
    if limit <= 0 or not hasattr(signal, "SIGALRM"):
        yield  # platform without SIGALRM (or limit disabled): no fence
        return

    def _expired(signum, frame):
        raise TimeoutError(
            f"test exceeded the {limit:g}s per-test wall-clock limit")

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def small_corpus():
    return generate(TEST_CORPUS_SEED, TEST_CORPUS_FILES, TEST_CORPUS_DIRS)


@pytest.fixture(scope="session")
def _machine_session(small_corpus):
    machine = VirtualMachine(small_corpus)
    machine.snapshot()
    return machine


@pytest.fixture
def machine(_machine_session):
    """A machine in pristine (snapshot) state; reverted after each test."""
    yield _machine_session
    _machine_session.revert()


@pytest.fixture
def vfs():
    """An empty filesystem with the documents tree created."""
    fs = VirtualFileSystem()
    fs._ensure_dirs(DOCUMENTS)
    return fs


@pytest.fixture
def pid(vfs):
    """A running process on the empty filesystem."""
    return vfs.processes.spawn("test.exe").pid


@pytest.fixture
def stream_threshold(monkeypatch):
    """Streams run the digest pipeline from a comparing handle's first
    byte: ``STREAM_DIGEST_MIN_BYTES`` is 0 for the test.  The value is a
    function that moves the threshold to another byte count."""
    def move(nbytes: int) -> None:
        monkeypatch.setattr(engine_mod, "STREAM_DIGEST_MIN_BYTES", nbytes)
    move(0)
    return move
