"""Gain-space search: feasible grids, GP-LCB optimization, exhaustive scan.

The search space is a box of strictly positive gain intervals quantized
to a finite grid (`FeasibleSet`).  `run_bo` minimizes a black-box cost
over that grid with a Gaussian-process surrogate and the lower-
confidence-bound acquisition rule: evaluate a seeded Latin-hypercube
batch, fit kernel hyperparameters on it, then repeatedly evaluate the
grid point minimizing mu - beta * sigma with a constant beta.  The loop
stops when proposals keep landing on or next to the reigning best point:
once the incumbent survives `REPEAT_THRESHOLD` consecutive iterations
whose proposals fall within `STOP_RADIUS` grid cells of it (or tie its
cost exactly), the search is considered locked in.

`grid_search` scores every grid point through a batch oracle and is the
ground truth the optimizer is judged against; its table can be saved
and reloaded, so a repeated grid search of the same oracle is served
from the saved table.
"""

from __future__ import annotations

import functools
import math
import os
import zipfile
import zlib
from dataclasses import dataclass, field

import numpy as np

from .gpr import (
    Dataset,
    GpHyperparams,
    GpPosterior,
    fit,
    fit_hyperparams,
    predict,
)

__all__ = [
    "FeasibleSet",
    "BoConfig",
    "BoState",
    "IterationRecord",
    "OracleAbort",
    "lcb",
    "next_point",
    "run_bo",
    "grid_search",
    "save_grid_table",
    "load_grid_table",
]


# -- the search space ----------------------------------------------------------


@dataclass(frozen=True)
class FeasibleSet:
    """Box of positive gain intervals quantized to a rectangular grid.

    Axes are (kp, kv, third) where the third axis is either the integral
    gain ki directly or the reset time tn; with ``third_axis="tn"`` the
    canonical integral gain is recovered as ki = kv / tn.  Interval
    bounds are inclusive and must be strictly positive -- zero gains are
    outside every feasible set.
    """

    kp: tuple[float, float]
    kv: tuple[float, float]
    third: tuple[float, float]
    n_kp: int
    n_kv: int
    n_third: int
    third_axis: str = "ki"

    def __post_init__(self) -> None:
        for name, (lo, hi) in (("kp", self.kp), ("kv", self.kv),
                               ("third", self.third)):
            if not (0.0 < lo < hi) or not math.isfinite(hi):
                raise ValueError(f"{name} interval must satisfy 0 < min < max")
        for name, n in (("n_kp", self.n_kp), ("n_kv", self.n_kv),
                        ("n_third", self.n_third)):
            if n < 2:
                raise ValueError(f"{name} must be at least 2")
        if self.third_axis not in ("ki", "tn"):
            raise ValueError("third_axis must be 'ki' or 'tn'")

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.n_kp, self.n_kv, self.n_third)

    @property
    def size(self) -> int:
        return self.n_kp * self.n_kv * self.n_third

    @property
    def axes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (np.linspace(*self.kp, self.n_kp),
                np.linspace(*self.kv, self.n_kv),
                np.linspace(*self.third, self.n_third))

    def bounds(self) -> np.ndarray:
        """(3, 2) interval matrix, the GP's input-normalization box."""
        return np.array([self.kp, self.kv, self.third], dtype=float)

    def grid(self) -> np.ndarray:
        """All grid points as an (size, 3) read-only array.

        Rows are in C order with kp the slowest axis, so the first flat
        index among equals is the lexicographically lowest point.
        """
        return _grid_cached(self)

    def nearest_index(self, point) -> tuple[int, int, int]:
        """Per-axis index of the grid point closest to ``point``."""
        p = np.asarray(point, dtype=float).reshape(3)
        return tuple(int(np.argmin(np.abs(ax - v)))
                     for ax, v in zip(self.axes, p))

    def index_distance(self, a, b) -> int:
        """Chebyshev distance between two points in grid-index units."""
        ia, ib = self.nearest_index(a), self.nearest_index(b)
        return max(abs(x - y) for x, y in zip(ia, ib))

    def flat_index(self, point) -> int:
        return int(np.ravel_multi_index(self.nearest_index(point), self.shape))

    def point_at(self, flat: int) -> np.ndarray:
        idx = np.unravel_index(int(flat), self.shape)
        return np.array([ax[i] for ax, i in zip(self.axes, idx)])

    def contains(self, point) -> bool:
        p = np.asarray(point, dtype=float).reshape(3)
        for (lo, hi), v in zip((self.kp, self.kv, self.third), p):
            tol = 1e-12 * hi
            if not (lo - tol <= v <= hi + tol):
                return False
        return True

    def canonical(self, points: np.ndarray) -> np.ndarray:
        """Map set-space rows to controller triples (kp, kv, ki)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float)).copy()
        if self.third_axis == "tn":
            pts[:, 2] = pts[:, 1] / pts[:, 2]
        return pts

    def native(self, triples: np.ndarray) -> np.ndarray:
        """Map controller triples (kp, kv, ki) to set-space rows.

        The inverse of :meth:`canonical`.  On a reset-time axis, ki = 0
        (no integral action) maps to the longest reset time in the box.
        """
        pts = np.atleast_2d(np.asarray(triples, dtype=float)).copy()
        if self.third_axis == "tn":
            ki = pts[:, 2].copy()
            pts[:, 2] = self.third[1]
            np.divide(pts[:, 1], ki, out=pts[:, 2], where=ki > 0.0)
        return pts

    def lhs_sample(self, m: int, rng: np.random.Generator) -> np.ndarray:
        """Latin-hypercube draw of ``m`` distinct grid points.

        One sample per axis stratum, independently permuted per axis,
        then snapped to the nearest grid value.  Snapping collisions are
        topped up with uniform draws over the grid so the result always
        holds ``m`` distinct points (requires m <= size).
        """
        if not (1 <= m <= self.size):
            raise ValueError("sample size must be in [1, grid size]")
        unit = np.empty((m, 3))
        for j in range(3):
            strata = (rng.permutation(m) + rng.uniform(0.0, 1.0, m)) / m
            unit[:, j] = strata
        chosen: dict[tuple[int, int, int], None] = {}
        for row in unit:
            idx = tuple(
                int(np.argmin(np.abs(ax - (lo + r * (hi - lo)))))
                for ax, r, (lo, hi) in zip(
                    self.axes, row, (self.kp, self.kv, self.third))
            )
            chosen.setdefault(idx, None)
        while len(chosen) < m:
            flat = int(rng.integers(self.size))
            chosen.setdefault(tuple(int(i) for i in
                                    np.unravel_index(flat, self.shape)), None)
        axes = self.axes
        return np.array([[axes[0][i], axes[1][j], axes[2][k]]
                         for (i, j, k) in chosen], dtype=float)


@functools.lru_cache(maxsize=8)
def _grid_cached(s: FeasibleSet) -> np.ndarray:
    mesh = np.meshgrid(*s.axes, indexing="ij")
    grid = np.stack([m.ravel() for m in mesh], axis=1)
    grid.setflags(write=False)
    return grid


# -- optimizer configuration and state -----------------------------------------

# The stopping rule: this many consecutive proposals within STOP_RADIUS
# grid cells of an unchanged incumbent (or tying its cost) end the search.
REPEAT_THRESHOLD = 3
STOP_RADIUS = 1
# Kernel hyperparameters are refitted every REFIT_EVERY iterations, each
# fit a multi-start descent (see `gpr.fit_hyperparams`).
REFIT_EVERY = 10


@dataclass(frozen=True)
class BoConfig:
    """Knobs of the GP-LCB loop.

    ``m0`` is the size of the Latin-hypercube design, ``beta`` the
    constant confidence multiplier of the bound mu - beta * sigma,
    ``max_iterations`` the budget of proposals after the design, and
    ``seed`` seeds the design and the hyperparameter starts.
    """

    m0: int = 20
    beta: float = 2.0
    max_iterations: int = 60
    seed: int = 0

    def __post_init__(self) -> None:
        if self.m0 < 3:
            raise ValueError("m0 must be at least 3 (hyperparameter fit needs it)")
        if not 0.0 <= self.beta < math.inf:
            raise ValueError("beta must be finite and non-negative")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be non-negative")


@dataclass(frozen=True)
class IterationRecord:
    """One optimization-phase evaluation: proposal, outcome, incumbent."""

    m: int                       # evaluation count after this iteration
    point: tuple[float, float, float]
    y: float
    mu: float                    # posterior mean at the proposal
    sigma: float                 # posterior deviation at the proposal
    beta: float
    incumbent_cost: float
    repeat_count: int


@dataclass
class BoState:
    """Everything the optimizer has learned; returned by `run_bo`.

    Also carried by :class:`OracleAbort` when an evaluation fails, with
    the history collected up to the failure.
    """

    points: list[tuple[float, float, float]] = field(default_factory=list)
    costs: list[float] = field(default_factory=list)
    incumbent_index: int = -1
    repeat_count: int = 0
    iterations: int = 0
    stop_reason: str | None = None
    hyperparams: GpHyperparams | None = None
    records: list[IterationRecord] = field(default_factory=list)

    @property
    def evaluations(self) -> int:
        return len(self.costs)

    @property
    def incumbent_point(self) -> tuple[float, float, float]:
        return self.points[self.incumbent_index]

    @property
    def incumbent_cost(self) -> float:
        return self.costs[self.incumbent_index]

    @property
    def X(self) -> np.ndarray:
        return np.array(self.points, dtype=float)

    @property
    def y(self) -> np.ndarray:
        return np.array(self.costs, dtype=float)

    def _observe(self, point, y: float) -> bool:
        """Append an evaluation; True if the incumbent index changed."""
        self.points.append(tuple(float(v) for v in np.asarray(point).reshape(3)))
        self.costs.append(float(y))
        if self.incumbent_index < 0 or y < self.incumbent_cost:
            self.incumbent_index = len(self.costs) - 1
            return True
        return False


class OracleAbort(RuntimeError):
    """An oracle evaluation raised; `.state` holds the partial history."""

    def __init__(self, message: str, state: BoState):
        super().__init__(message)
        self.state = state


# -- acquisition ---------------------------------------------------------------


def lcb(mu: np.ndarray, var: np.ndarray, beta: float) -> np.ndarray:
    """Lower confidence bound mu - beta * sigma."""
    mu = np.asarray(mu, dtype=float)
    var = np.asarray(var, dtype=float)
    return mu - beta * np.sqrt(np.maximum(var, 0.0))


def next_point(
    posterior: GpPosterior,
    fset: FeasibleSet,
    beta: float,
) -> tuple[np.ndarray, float, float, int]:
    """Grid point minimizing the LCB; first flat index wins ties.

    Returns (point, mu, sigma, flat_index).  Previously evaluated points
    are legal proposals -- re-proposing the incumbent is exactly the
    signal the stopping rule listens for.
    """
    grid = fset.grid()
    mu, var = predict(posterior, grid)
    idx = int(np.argmin(lcb(mu, var, beta)))
    return grid[idx].copy(), float(mu[idx]), float(math.sqrt(max(var[idx], 0.0))), idx


# -- the optimization loop -----------------------------------------------------

_INIT_HYPERPARAMS = GpHyperparams(sigma_f=1.0, lengthscales=(0.3, 0.3, 0.3),
                                  sigma_w=1e-3)


def _evaluate(oracle, point, state: BoState) -> float:
    try:
        return float(oracle(np.asarray(point, dtype=float)))
    except Exception as exc:
        state.stop_reason = "oracle_error"
        raise OracleAbort(f"oracle failed at {tuple(point)}: {exc}", state) from exc


def run_bo(oracle, fset: FeasibleSet, config: BoConfig = BoConfig()) -> BoState:
    """Minimize a black-box cost over the feasible grid with GP-LCB.

    ``oracle`` maps a set-space point (3,) to a finite cost.  The loop:

    1. evaluate a seeded Latin-hypercube design of ``m0`` grid points;
    2. fit kernel hyperparameters on that design (refreshed every
       ``REFIT_EVERY`` iterations thereafter);
    3. until stopped, propose the LCB argmin over the grid, evaluate it,
       and update the incumbent (strict improvement moves it, so ties
       keep the earliest observation).

    The GP sees inputs scaled to the feasible box and standardized
    targets (see :mod:`~axistune.gpr`).  Stops with reason "repeat" once ``REPEAT_THRESHOLD``
    consecutive proposals land within ``STOP_RADIUS`` grid cells of an
    unchanged incumbent or tie its cost exactly, or with
    "max_iterations".
    An oracle exception raises :class:`OracleAbort` carrying the partial
    state.
    """
    state = BoState()
    rng = np.random.default_rng(config.seed)
    for point in fset.lhs_sample(config.m0, rng):
        state._observe(point, _evaluate(oracle, point, state))

    bounds = fset.bounds()
    h = fit_hyperparams(Dataset(X=state.X, y=state.y), _INIT_HYPERPARAMS,
                        bounds, seed=config.seed + 1)
    state.hyperparams = h

    for t in range(1, config.max_iterations + 1):
        posterior = fit(Dataset(X=state.X, y=state.y), h, bounds)
        point, mu, sigma, _ = next_point(posterior, fset, config.beta)
        y = _evaluate(oracle, point, state)
        moved = state._observe(point, y)
        near = (fset.index_distance(point, state.incumbent_point)
                <= STOP_RADIUS) or y == state.incumbent_cost
        state.repeat_count = state.repeat_count + 1 if (not moved and near) else 0
        state.iterations = t
        state.records.append(IterationRecord(
            m=state.evaluations, point=state.points[-1], y=y, mu=mu,
            sigma=sigma, beta=config.beta, incumbent_cost=state.incumbent_cost,
            repeat_count=state.repeat_count,
        ))
        if state.repeat_count >= REPEAT_THRESHOLD:
            state.stop_reason = "repeat"
            break
        if t < config.max_iterations and t % REFIT_EVERY == 0:
            h = fit_hyperparams(Dataset(X=state.X, y=state.y), h, bounds,
                                seed=config.seed + 1 + t)
            state.hyperparams = h
    else:
        state.stop_reason = "max_iterations"
    return state


# -- exhaustive evaluation -----------------------------------------------------


def grid_search(
    fset: FeasibleSet,
    batch_oracle,
) -> tuple[np.ndarray, float, np.ndarray]:
    """Score every grid point; returns (best point, best cost, table).

    ``batch_oracle`` maps an (N, 3) array to (N,) costs in one call.
    The table has rows [x1, x2, x3, cost] aligned with ``fset.grid()``,
    and the best row is the first flat index among cost ties
    (lexicographically lowest point).
    """
    grid = fset.grid()
    costs = np.asarray(batch_oracle(grid), dtype=float)
    if costs.shape != (fset.size,):
        raise ValueError("oracle returned the wrong number of costs")
    best = int(np.argmin(costs))
    table = np.column_stack([grid, costs])
    return grid[best].copy(), float(costs[best]), table


def _table_key(fset: FeasibleSet, bench_key: str) -> str:
    return repr((fset, bench_key))


def save_grid_table(path, fset: FeasibleSet, table: np.ndarray,
                    bench_key: str) -> None:
    """Persist a grid-search table for a repeated grid search to reload.

    ``bench_key`` identifies the oracle that scored the table (for a
    :class:`~axistune.bench.TuningBench`, its ``fingerprint``).  The
    file is written whole beside ``path``, then moved onto it.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    with open(tmp, "wb") as f:
        np.savez_compressed(f, key=np.array(_table_key(fset, bench_key)),
                            table=table)
    os.replace(tmp, path)


def load_grid_table(path, fset: FeasibleSet, bench_key: str) -> np.ndarray | None:
    """Load a table saved for this exact feasible set and oracle, else None."""
    try:
        # the file is opened here, so it is closed when numpy rejects it
        with open(path, "rb") as f, np.load(f, allow_pickle=False) as data:
            if str(data["key"]) != _table_key(fset, bench_key):
                return None
            table = np.array(data["table"], dtype=float)
    except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile,
            zlib.error):
        return None
    if table.shape != (fset.size, 4):
        return None
    return table
