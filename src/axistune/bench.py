"""Shared evaluation bench for gain-tuning experiments.

Every tuning strategy in this package -- Bayesian optimization, grid
search, and the classical baselines -- scores candidate gains through
one :class:`TuningBench` so their costs are directly comparable and
repeated queries hit a memo instead of the simulator.  The bench owns
the reference trajectory and the cost weights; the axis it simulates,
with its current-loop PI and rails, is the one fixed in
:mod:`~axistune.simloop`.  Search strategies work in a feasible set's
coordinates, where the third axis may be the reset time Tn;
`TuningBench.oracle` is the one place those points become controller
triples (kp, kv, ki).

Batch evaluation (`evaluate_many`) runs the vectorized simulator and is
the intended path for grids; single queries fall back to the scalar
simulator.  Both paths share the memo, so a triple is simulated at most
once per bench, and both do the same arithmetic (see
:mod:`~axistune.simloop`), so a triple's cost does not depend on which
path simulated it first.

A batch's fresh rows are dealt round-robin to forked worker processes,
one per usable CPU and at most one per simulator chunk; each worker
inherits the bench from the fork, runs `simulate_batch` and `score` on
its rows and sends back only metric vectors, which the parent memoizes
in row order.  A row's trace depends on neither its chunk nor the rows
beside it, and a forked worker runs the same code on the same BLAS
build as the parent, so the costs are bitwise those of scoring the
batch in one process, which is what happens with one usable CPU, one
chunk, or no ``fork`` start method.
"""

from __future__ import annotations

import hashlib
import math
import multiprocessing
import os

import numpy as np

from . import metrics as metric_module, simloop
from .metrics import CostWeights, MetricVector, cost as metric_cost, extract_metrics
from .plant import LAB_SERVO
from .refgen import (
    ReferenceProfile,
    TrajectorySpec,
    constant_speed_profile,
    generate_profile,
)
from .simloop import GainVector, SimTrace, simulate, simulate_batch
from .tuner import FeasibleSet

__all__ = ["BENCH_MOVE", "SetOracle", "TuningBench", "benchmark_profile"]

# Default scoring move: 0.1 m point-to-point at 0.25 m/s with 5 m/s^2
# ramps, then a 1 s dwell so the settling and terminal-error metrics
# have a window to observe.
BENCH_MOVE = TrajectorySpec(
    position_setpoint=0.1,
    speed_setpoint=0.25,
    acceleration=5.0,
    deceleration=5.0,
    dwell_time=1.0,
)


def benchmark_profile() -> ReferenceProfile:
    """Default scoring trajectory, sampled at the controller tick."""
    return generate_profile(BENCH_MOVE)


class TuningBench:
    """Memoized cost oracle over the axis's position-cascade gain triples.

    The bench scores the PI cascade; the probe helpers run it with the
    position loop open (kp = 0), and `relay_run` swaps the speed PI for
    a relay.

    Parameters
    ----------
    weights : CostWeights
        Scalarization of the metric vector; every metric is extracted
        with the fixed settling band ``metrics.SETTLE_BAND``.
    profile : ReferenceProfile, optional
        Scoring trajectory; defaults to :func:`benchmark_profile`.
    """

    def __init__(self, weights: CostWeights,
                 profile: ReferenceProfile | None = None):
        self.weights = weights
        self.profile = profile if profile is not None else benchmark_profile()
        self._memo: dict[tuple[float, float, float], MetricVector] = {}
        self.n_sims = 0

    # -- core cost queries ----------------------------------------------------

    def metrics(self, triple) -> MetricVector:
        """Metric vector at (kp, kv, ki); simulates on first query."""
        key = self._key(triple)
        m = self._memo.get(key)
        if m is None:
            trace = simulate(GainVector(*key), self.profile)
            self.n_sims += 1
            m = self.score(trace)
            self._memo[key] = m
        return m

    def cost(self, triple) -> float:
        """Scalar cost at (kp, kv, ki)."""
        return metric_cost(self.metrics(triple), self.weights)

    def evaluate_many(self, triples: np.ndarray) -> np.ndarray:
        """Costs for an (N, 3) array of gain triples, batch-simulated.

        Rows already in the memo are not re-simulated.  The fresh rows
        are validated here, before any worker starts, so an invalid row
        leaves the memo as it was.  They are then scored by `simulate_batch`
        in chunks of bounded memory: row i by worker i mod n of n forked
        workers, n the usable CPUs but at most the number of chunks, or
        in this process when n < 2.  Every cost is bitwise the one a
        single in-process batch gives (see the module docstring).
        """
        triples = np.atleast_2d(np.asarray(triples, dtype=float))
        if triples.ndim != 2 or triples.shape[1] != 3:
            raise ValueError("expected an (N, 3) array of (kp, kv, ki) rows")
        keys = [self._key(row) for row in triples]
        fresh = [k for k in dict.fromkeys(keys) if k not in self._memo]
        if fresh:
            for key in fresh:
                GainVector(*key)
            for key, m in zip(fresh, self._score_fresh(np.array(fresh))):
                self._memo[key] = m
            self.n_sims += len(fresh)
        return np.array(
            [metric_cost(self._memo[k], self.weights) for k in keys], dtype=float
        )

    def metric_table(self, triples: np.ndarray) -> list[MetricVector]:
        """Metric vectors for an (N, 3) array, filling the memo in batch."""
        triples = np.atleast_2d(np.asarray(triples, dtype=float))
        self.evaluate_many(triples)
        return [self._memo[self._key(row)] for row in triples]

    def trace(self, triple) -> SimTrace:
        """Full simulation trace at (kp, kv, ki); never memoized."""
        return simulate(GainVector(*self._key(triple)), self.profile)

    def score(self, trace: SimTrace) -> MetricVector:
        """Metric vector of a trace of this bench's profile."""
        return extract_metrics(trace, self.profile)

    def oracle(self, fset: FeasibleSet) -> SetOracle:
        """This bench's costs addressed by points of the feasible set ``fset``."""
        return SetOracle(self, fset)

    @property
    def fingerprint(self) -> str:
        """Digest of everything that decides a cost besides the gains.

        That is the plant, the current-loop PI, the rails, the drive
        maps' integrator step and segments per tick, the command delay,
        the divergence limit, the settling band, the divergence penalty,
        the weights and the sampled reference trajectory.  The module
        constants are read when the digest is taken.
        """
        h = hashlib.sha256(repr((
            LAB_SERVO, simloop.CURRENT_LOOP_KP, simloop.CURRENT_LOOP_KI,
            simloop.RAILS, simloop.RK4_STEP, simloop.SEGMENTS_PER_TICK,
            simloop.COMMAND_DELAY_TICKS, simloop.DIVERGENCE_LIMIT,
            metric_module.SETTLE_BAND, metric_module.DIVERGENCE_PENALTY,
            self.weights,
        )).encode())
        for arr in (self.profile.t, self.profile.position, self.profile.speed):
            h.update(arr.tobytes())
        return h.hexdigest()

    # -- probe runs for the classical autotuners --------------------------------

    def speed_step(self, kv: float, ki: float, speed: float,
                   duration: float) -> SimTrace:
        """Speed-loop step response with the position loop open.

        Drives the speed cascade (kp = 0; PI with the given gains, ki = 0
        is a pure P loop) toward a constant linear-speed setpoint.
        """
        profile = constant_speed_profile(speed, duration)
        return simulate(GainVector(0.0, kv, ki), profile)

    def relay_run(self, amplitude: float, duration: float) -> SimTrace:
        """Replace the speed controller with an ideal relay at standstill.

        With the position loop open, the current reference switches
        between +/- `amplitude` on the sign of the angular speed error,
        inducing a limit cycle around zero speed.
        """
        profile = constant_speed_profile(0.0, duration)
        return simulate(GainVector(0.0, 1.0, 0.0), profile,
                        relay=float(amplitude))

    def position_overshoot_pct(self, triple) -> float:
        """Position overshoot as a percentage of the commanded move."""
        m = self.metrics(triple)
        if m.is_diverged:
            return math.inf
        move = float(np.max(np.abs(self.profile.position)))
        return 100.0 * m.pos_overshoot / move if move > 0.0 else 0.0

    # -- internals ---------------------------------------------------------------

    def _score_fresh(self, batch: np.ndarray) -> list[MetricVector]:
        """Metric vectors of the valid rows of ``batch``, in row order."""
        per_chunk = simloop.runs_per_chunk(self.profile)
        n = min(_usable_cpus(), -(-len(batch) // per_chunk))
        if n < 2 or "fork" not in multiprocessing.get_all_start_methods():
            return self._score_rows(batch)
        ctx = multiprocessing.get_context("fork")
        workers = []
        try:
            for w in range(n):
                recv, send = ctx.Pipe(duplex=False)
                proc = ctx.Process(target=self._send_scores,
                                   args=(batch[w::n], send))
                proc.start()
                workers.append((proc, recv))
                send.close()
            try:
                parts = [recv.recv() for _, recv in workers]
            except EOFError:
                raise RuntimeError("a scoring worker exited without a result") from None
        except BaseException:
            for proc, _ in workers:
                proc.terminate()
            raise
        finally:
            for proc, recv in workers:
                proc.join()
                recv.close()
        return [parts[i % n][i // n] for i in range(len(batch))]

    def _score_rows(self, batch: np.ndarray) -> list[MetricVector]:
        return [self.score(trace) for trace in simulate_batch(batch, self.profile)]

    def _send_scores(self, batch: np.ndarray, conn) -> None:
        # a worker that raises prints its traceback and closes ``conn``
        conn.send(self._score_rows(batch))

    @staticmethod
    def _key(triple) -> tuple[float, float, float]:
        kp, kv, ki = (float(v) for v in np.asarray(triple, dtype=float).reshape(3))
        return kp, kv, ki


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where the OS does not tell."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


class SetOracle:
    """A bench's cost oracle in the coordinates of one feasible set.

    Search points are (kp, kv, third) rows of ``fset``; every query maps
    them through ``fset.canonical`` to the controller triple the bench
    scores, so a reset-time axis is never read as an integral gain.
    """

    def __init__(self, bench: TuningBench, fset: FeasibleSet):
        self.bench = bench
        self.fset = fset

    def gains(self, point) -> tuple[float, float, float]:
        """Controller triple (kp, kv, ki) of one set-space point."""
        kp, kv, ki = self.fset.canonical(point).reshape(3)
        return float(kp), float(kv), float(ki)

    def __call__(self, point) -> float:
        """Cost of one set-space point."""
        return self.bench.cost(self.gains(point))

    def evaluate_many(self, points: np.ndarray) -> np.ndarray:
        """Costs of an (N, 3) array of set-space points, batch-simulated."""
        return self.bench.evaluate_many(self.fset.canonical(points))

    def metric_table(self, points: np.ndarray) -> list[MetricVector]:
        """Metric vectors of an (N, 3) array of set-space points, batch-simulated."""
        return self.bench.metric_table(self.fset.canonical(points))
