"""Shared fixtures.

The desk bench is session-scoped: one memoized cost oracle serves every
test that needs a working closed loop.
"""

from __future__ import annotations

import os

import pytest

from axistune import simloop
from axistune.presets import get_preset


@pytest.fixture(scope="session")
def desk_bench():
    """Cost oracle for the default benchmark."""
    return get_preset("desk").bench()


@pytest.fixture
def chunk_log(monkeypatch, tmp_path):
    """Log every `simulate_batch` chunk, in this process and in forked
    scoring workers; the fixture's value returns the log so far, a
    (process id, runs) pair per chunk in the order the chunks started."""
    path = tmp_path / "chunks.log"
    real = simloop._run_chunk

    def logged(triples, profile):
        with open(path, "a") as log:
            log.write(f"{os.getpid()} {len(triples)}\n")
        return real(triples, profile)

    monkeypatch.setattr(simloop, "_run_chunk", logged)

    def read() -> list[tuple[int, int]]:
        if not path.exists():
            return []
        return [tuple(map(int, line.split()))
                for line in path.read_text().splitlines()]

    return read
