"""Shared fixtures.

The desk bench is session-scoped: one memoized cost oracle serves every
test that needs a working closed loop.  So are command runs: a command
line that pins and functional tests both read runs once per session.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from axistune import gpr, simloop
from axistune.cli import main
from axistune.gpr import Dataset
from axistune.presets import get_preset

SIMULATE_DESK = ("simulate", "--preset", "desk", "--gains", "150,0.5,90")
GRID_DESK = ("grid", "--preset", "desk")
COMPARE_DESK = ("compare", "--preset", "desk", "--seed", "0", "--m0", "5",
                "--max-iters", "2")
SWEEP_M0_DESK = ("sweep-m0", "--preset", "desk", "--m0", "3,4",
                 "--repeats", "1", "--max-iters", "2", "--seed", "1")


def load_record(path):
    rec = json.loads(path.read_text())
    assert rec.pop("timestamp")
    return rec


@pytest.fixture(scope="session")
def cli_run(tmp_path_factory):
    """``main([*argv, "--out", <a fresh directory>])``'s exit code, stdout
    and directory, run on the first call with ``argv`` and served to
    every later one; callers only read the directory."""
    runs: dict[tuple[str, ...], tuple[int, str, Path]] = {}

    def run(*argv: str) -> tuple[int, str, Path]:
        if argv not in runs:
            out, stdout = tmp_path_factory.mktemp(argv[0]), io.StringIO()
            with contextlib.redirect_stdout(stdout):
                rc = main([*argv, "--out", str(out)])
            runs[argv] = rc, stdout.getvalue(), out
        return runs[argv]

    return run


@pytest.fixture
def descent_calls(monkeypatch):
    """Every hyperfit descent (`gpr._lbfgsb_descent` call) from now on,
    as an (objective, start) pair."""
    calls = []
    real = gpr._lbfgsb_descent

    def spy(objective, x0, lb, ub):
        calls.append((objective, np.array(x0)))
        return real(objective, x0, lb, ub)

    monkeypatch.setattr(gpr, "_lbfgsb_descent", spy)
    return calls


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


# -- GP datasets -----------------------------------------------------------------

# The desk box, and datasets in it whose targets span more than two
# decades, like railed costs.
DESK_BOUNDS = np.array([[150.0, 4200.0], [0.05, 0.5], [90.0, 900.0]])
LOG_INSIDE = [0.0, -1.0, -1.2, -0.8, -4.0]
# the box corner of largest amplitude and lengthscales, least noise:
# the factorization needs jitter there
LOG_JITTER = [math.log(1e3)] + [math.log(1e2)] * 3 + [math.log(1e-8)]
# far outside the box: no jitter up to the cap saves the factorization
LOG_FAILS = [math.log(1e100)] + [math.log(1e2)] * 3 + [math.log(1e-8)]


def decades_dataset(m, seed):
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.0, 1.0, size=(m, 3))
    X = DESK_BOUNDS[:, 0] + u * (DESK_BOUNDS[:, 1] - DESK_BOUNDS[:, 0])
    y = 62.0 * np.exp(7.7 * u[:, 0] ** 2 * (1.2 - u[:, 1])
                      + 0.3 * rng.uniform(0.0, 1.0, m))
    return Dataset(X, y, DESK_BOUNDS)
