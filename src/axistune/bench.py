"""Shared evaluation bench for gain-tuning experiments.

Every tuning strategy in this package -- Bayesian optimization, grid
search, and the classical baselines -- scores candidate gains through
one :class:`TuningBench` so their costs are directly comparable and
repeated queries hit a memo instead of the simulator.  The bench is
only that memoized cost oracle: it holds the cost weights and the
scoring trajectory it is given (the named ones live in
:mod:`~axistune.presets`), and the axis it simulates, with its
current-loop PI and rails, is the one fixed in
:mod:`~axistune.simloop`.  Experiments that are not a scored move, such
as the classical tuners' open-loop probes, call the simulator
themselves (:mod:`~axistune.baselines`).  The bench scores controller
triples (kp, kv, ki) only: the searches keep their points in a feasible
set's coordinates, where the third axis may be the reset time Tn, and
map each point to its triple (`FeasibleSet.canonical`) before they
query.

`metrics`, `cost` and `evaluate_many` are views of `metric_table`, the
one code that validates, simulates, scores and memoizes (N, 3) rows, so
a triple is simulated at most once per bench.

A query's fresh rows are dealt round-robin to forked worker processes,
one per usable CPU but at most one per ``WORKER_RUN_TICKS`` run-ticks
of fresh rows.  Each worker inherits the bench from the fork, simulates
and scores its share and sends back only metric vectors, which the
parent memoizes in row order.  With one usable CPU, a small query, or
no ``fork`` start method the calling process scores the rows itself.
A scoring process runs a share of fewer than ``BATCH_ROWS`` rows
through `simulate`, a row at a time, and a larger one through the
vectorized `simulate_batch`, in chunks of at most
``simloop.BATCH_RUN_TICKS`` run-ticks.  Both loops do the same
arithmetic (see :mod:`~axistune.simloop`), a row's trace depends on
neither its chunk nor the rows beside it, and a forked worker runs the
same code on the same BLAS build as the parent, so a triple's cost does
not depend on which loop or process simulated it first.

The calling process keeps the simulated channels of the lowest-cost
row it has scored, so `trace` rebuilds that row's trace -- usually a
search's incumbent -- without simulating it again.  Rows scored only in
a worker are simulated again.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os

import numpy as np

from . import metrics as metric_module, plant, refgen, simloop
from .metrics import CostWeights, MetricVector, cost as metric_cost, extract_metrics
from .plant import LAB_SERVO
from .refgen import ReferenceProfile
from .simloop import GainVector, SimTrace, simulate, simulate_batch

__all__ = ["TuningBench"]

# Run-ticks (runs times profile ticks) of fresh rows per forked scoring
# worker: a query gets one more worker for each further 256 runs of the
# 1,451-tick desk move, or 14 of the 25,009-tick plc move, up to the
# usable CPUs, so a 20-run plc design goes to two workers that each run
# their 10 rows as single runs (``BATCH_ROWS``).  Two workers do not pay
# off on a 20-run desk design: in three sets of 15 alternating queries
# (2 vCPUs, BLAS on one thread) they took a median 0.116-0.164 s against
# 0.093-0.146 s in-process.
WORKER_RUN_TICKS = 256 * 1451

# Fewest fresh rows that one scoring process runs as a `simulate_batch`;
# a smaller share runs `simulate` a row at a time.  A batch tick pays
# fixed numpy work (array calls, the rail test, the record writes)
# whatever its row count; a single run pays interpreted work per row and
# tick.  Both are paid on every tick, so the break-even row count does
# not depend on the move's length.  Median CPU seconds of one process
# scoring R rows of a Latin-hypercube design, batched against R single
# runs (15 desk and 5 plc designs per R, 2 vCPUs, BLAS on one thread):
#
#     R                 4      8      12     16     20     24
#     desk batched    0.052  0.054  0.056  0.059  0.062  0.071
#     desk single     0.015  0.028  0.039  0.054  0.067  0.078
#     plc batched     0.75   0.81   0.88   0.86   1.00
#     plc single      0.20   0.40   0.61   0.80   1.04
#
# Both break even near 18 rows; single runs were the cheaper in 13 of 15
# desk designs of 16 rows, 9 of 15 of 18 and 1 of 15 of 20.  No search
# queries a share that size: desk designs run 20 rows in one process,
# plc designs 10 rows on each of two workers.
BATCH_ROWS = 16

# the channels `simulate` computes; the rest of a trace is the profile
_CHANNELS = ("y_pos", "y_speed", "i_q", "i_ref", "v_q")


class TuningBench:
    """Memoized cost oracle over the axis's position-cascade gain triples.

    Parameters
    ----------
    weights : CostWeights
        Scalarization of the metric vector; every metric is extracted
        with the fixed settling band ``metrics.SETTLE_BAND``.
    profile : ReferenceProfile
        Scoring trajectory.
    """

    def __init__(self, weights: CostWeights, profile: ReferenceProfile):
        self.weights = weights
        self.profile = profile
        self._memo: dict[tuple[float, float, float], MetricVector] = {}
        self.n_sims = 0
        # (row, cost, channels, divergence tick) of the lowest-cost row
        # scored in this process
        self._kept: tuple | None = None

    # -- core cost queries ----------------------------------------------------

    def metrics(self, triple) -> MetricVector:
        """Metric vector at (kp, kv, ki): the one-row :meth:`metric_table`."""
        return self.metric_table(np.reshape(triple, (1, 3)))[0]

    def cost(self, triple) -> float:
        """Scalar cost at (kp, kv, ki)."""
        return metric_cost(self.metrics(triple), self.weights)

    def evaluate_many(self, triples: np.ndarray) -> np.ndarray:
        """Costs for an (N, 3) array of gain triples.

        The costs of the :meth:`metric_table` of ``triples``, in row order.
        """
        return np.array([metric_cost(m, self.weights)
                         for m in self.metric_table(triples)], dtype=float)

    def metric_table(self, triples: np.ndarray) -> list[MetricVector]:
        """Metric vectors for an (N, 3) array of gain triples.

        Rows already in the memo are not re-simulated.  The fresh rows
        are validated here, before any worker starts, so an invalid row
        leaves the memo as it was.  Row i is then scored by worker i mod n
        of n forked workers, n the usable CPUs but at most one per
        ``WORKER_RUN_TICKS`` run-ticks of fresh rows, or in this process
        when n < 2.  Every vector is bitwise the one a single in-process
        run gives (see the module docstring).
        """
        triples = np.atleast_2d(np.asarray(triples, dtype=float))
        if triples.ndim != 2 or triples.shape[1] != 3:
            raise ValueError("expected an (N, 3) array of (kp, kv, ki) rows")
        keys = list(map(tuple, triples.tolist()))
        fresh = [k for k in dict.fromkeys(keys) if k not in self._memo]
        if fresh:
            for key in fresh:
                GainVector(*key)
            for key, m in zip(fresh, self._score_fresh(np.array(fresh))):
                self._memo[key] = m
            self.n_sims += len(fresh)
        return [self._memo[k] for k in keys]

    def trace(self, triple) -> SimTrace:
        """Full simulation trace at (kp, kv, ki).

        The lowest-cost row this bench has scored in the calling process
        (the earliest among equal costs) is rebuilt from its kept
        channels without simulating; any other row is simulated.  Each
        call returns arrays that no other call shares.
        """
        key = tuple(np.asarray(triple, dtype=float).reshape(3).tolist())
        if self._kept is not None and self._kept[0] == key:
            _, _, channels, div_at = self._kept
            return simloop._trace(self.profile, div_at, *channels)
        return simulate(GainVector(*key), self.profile)

    def score(self, trace: SimTrace) -> MetricVector:
        """Metric vector of a trace of this bench's profile."""
        return extract_metrics(trace, self.profile)

    @property
    def fingerprint(self) -> str:
        """Digest of everything that decides a cost besides the gains.

        That is the plant, the current-loop PI, the rails, the drive
        maps with the step and segments that built them, the command
        delay, the divergence limit, the settling band, the divergence
        penalty, the weights and the sampled reference trajectory, all
        read when the digest is taken, and the source of the code that
        turns them into a cost: the ``plant``, ``refgen``, ``simloop``,
        ``metrics`` and ``bench`` modules, read from their files.
        """
        h = hashlib.sha256(repr((
            LAB_SERVO, simloop.CURRENT_LOOP_KP, simloop.CURRENT_LOOP_KI,
            simloop.RAILS, simloop.RK4_STEP, simloop.SEGMENTS_PER_TICK,
            simloop.COMMAND_DELAY_TICKS, simloop.DIVERGENCE_LIMIT,
            metric_module.SETTLE_BAND, metric_module.DIVERGENCE_PENALTY,
            self.weights,
        )).encode())
        drive = simloop._drive()
        for arr in (drive.T_cl, drive.S_cl, drive.S_ol, drive.S_frz,
                    self.profile.t, self.profile.position, self.profile.speed):
            h.update(arr.tobytes())
        for path in (plant.__file__, refgen.__file__, simloop.__file__,
                     metric_module.__file__, __file__):
            with open(path, "rb") as f:
                h.update(f.read())
        return h.hexdigest()

    # -- internals ---------------------------------------------------------------

    def _score_fresh(self, batch: np.ndarray) -> list[MetricVector]:
        """Metric vectors of the valid rows of ``batch``, in row order."""
        per_worker = max(1, WORKER_RUN_TICKS // len(self.profile))
        n = min(_usable_cpus(), -(-len(batch) // per_worker))
        if n < 2 or "fork" not in multiprocessing.get_all_start_methods():
            return self._score_rows(batch, keep=True)
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

    def _score_rows(self, batch: np.ndarray, keep: bool = False) -> list[MetricVector]:
        """Metric vectors of ``batch``'s rows; with ``keep``, also keep the
        channels of a row that costs strictly less than the kept one."""
        rows = batch.tolist()
        traces = (simulate_batch(batch, self.profile) if len(rows) >= BATCH_ROWS
                  else (simulate(GainVector(*row), self.profile) for row in rows))
        scores = []
        for row, trace in zip(rows, traces):
            scores.append(self.score(trace))
            if keep:
                c = metric_cost(scores[-1], self.weights)
                if self._kept is None or c < self._kept[1]:
                    self._kept = (tuple(row), c,
                                  tuple(getattr(trace, ch) for ch in _CHANNELS),
                                  len(trace) if trace.diverged else None)
        return scores

    def _send_scores(self, batch: np.ndarray, conn) -> None:
        # a worker that raises prints its traceback and closes ``conn``
        conn.send(self._score_rows(batch))


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where the OS does not tell."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1

