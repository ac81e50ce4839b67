"""Evaluation-bench checks: memoization, batch path, probe helpers."""

import math
import multiprocessing
import os

import numpy as np
import pytest

import axistune.bench as bench_module
from axistune import simloop
from axistune.bench import BENCH_MOVE, TuningBench, benchmark_profile
from axistune.metrics import DIVERGENCE_PENALTY, CostWeights


def _new_bench(**kwargs):
    weights = kwargs.pop(
        "weights",
        CostWeights(pos_settling=1e5, pos_inf=1e3, spd_itae=1e4),
    )
    return TuningBench(weights, **kwargs)


def test_default_profile_is_the_benchmark_move():
    bench = _new_bench()
    prof = benchmark_profile()
    assert len(bench.profile) == len(prof)
    assert np.array_equal(bench.profile.position, prof.position)
    assert bench.profile.spec == BENCH_MOVE


def test_cost_queries_are_memoized():
    bench = _new_bench()
    triple = (150.0, 0.5, 90.0)
    c1 = bench.cost(triple)
    assert bench.n_sims == 1
    c2 = bench.cost(list(triple))  # same point, different container
    assert bench.n_sims == 1
    assert c1 == c2
    m = bench.metrics(np.array(triple))
    assert bench.n_sims == 1
    assert c1 == pytest.approx(
        1e5 * m.pos_settling + 1e3 * m.pos_inf + 1e4 * m.spd_itae, rel=1e-12
    )


def test_batch_evaluation_deduplicates():
    bench = _new_bench()
    a = (150.0, 0.5, 90.0)
    b = (600.0, 0.3, 360.0)
    triples = np.array([a, b, a, a, b])
    costs = bench.evaluate_many(triples)
    assert bench.n_sims == 2  # two distinct rows
    assert costs.shape == (5,)
    assert costs[0] == costs[2] == costs[3]
    assert costs[1] == costs[4]
    # a later scalar query hits the shared memo
    assert bench.cost(a) == costs[0]
    assert bench.n_sims == 2


def test_batch_shape_validation():
    bench = _new_bench()
    with pytest.raises(ValueError):
        bench.evaluate_many(np.zeros((2, 4)))


def test_metric_table_aligns_with_rows():
    bench = _new_bench()
    triples = np.array([(150.0, 0.5, 90.0), (600.0, 0.3, 360.0)])
    table = bench.metric_table(triples)
    assert len(table) == 2
    assert table[0] == bench.metrics(triples[0])
    assert table[1] == bench.metrics(triples[1])


def test_trace_is_not_memoized():
    bench = _new_bench()
    before = bench.n_sims
    tr = bench.trace((150.0, 0.5, 90.0))
    assert len(tr.t) == len(bench.profile)
    assert bench.n_sims == before  # trace queries bypass the memo counter


def test_divergent_point_costs_the_penalty(monkeypatch):
    monkeypatch.setattr(simloop, "DIVERGENCE_LIMIT", 1e-9)
    bench = _new_bench(weights=CostWeights(pos_settling=1e5))
    assert bench.cost((150.0, 0.5, 90.0)) == DIVERGENCE_PENALTY == 1e9
    assert bench.metrics((150.0, 0.5, 90.0)).is_diverged
    batch = bench.evaluate_many(np.array([[150.0, 0.5, 90.0], [600.0, 0.3, 360.0]]))
    assert np.all(batch == DIVERGENCE_PENALTY)


def test_speed_step_probe():
    bench = _new_bench()
    trace = bench.speed_step(kv=0.5, ki=0.0, speed=0.1, duration=0.5)
    assert np.all(trace.r_speed == 0.1)
    # a pure P speed loop at healthy gain reaches the neighborhood fast
    assert abs(trace.y_speed[-1] - 0.1) <= 0.05
    assert bench.n_sims == 0  # probe runs do not touch the cost memo


def test_relay_run_switches_the_current():
    bench = _new_bench()
    trace = bench.relay_run(amplitude=2.0, duration=1.0)
    applied = np.unique(trace.i_ref)
    assert set(applied) <= {-2.0, 0.0, 2.0}
    flips = np.sum(np.abs(np.diff(np.sign(trace.i_ref[5:]))) > 0)
    assert flips >= 4


def test_position_overshoot_percentage(monkeypatch):
    bench = _new_bench()
    triple = (2400.0, 0.35, 90.0)
    pct = bench.position_overshoot_pct(triple)
    m = bench.metrics(triple)
    assert pct == pytest.approx(100.0 * m.pos_overshoot / 0.1, rel=1e-9)
    assert pct >= 0.0

    monkeypatch.setattr(simloop, "DIVERGENCE_LIMIT", 1e-9)
    diverging = _new_bench()
    assert math.isinf(diverging.position_overshoot_pct(triple))


def test_fingerprint_covers_every_constant_that_decides_a_cost(monkeypatch):
    from axistune import metrics

    bench = _new_bench()
    seen = {bench.fingerprint}
    for module, name, value in [
        (simloop, "CURRENT_LOOP_KP", 61.0),
        (simloop, "CURRENT_LOOP_KI", 1001.0),
        (simloop, "RAILS", simloop.SimConfig(voltage_limit=300.0)),
        (simloop, "RK4_STEP", 2e-6),
        (simloop, "SEGMENTS_PER_TICK", 10),
        (simloop, "COMMAND_DELAY_TICKS", 2),
        (simloop, "DIVERGENCE_LIMIT", 1e10),
        (metrics, "SETTLE_BAND", 0.05),
        (metrics, "DIVERGENCE_PENALTY", 1e8),
    ]:
        with monkeypatch.context() as m:
            m.setattr(module, name, value)
            digest = bench.fingerprint
        assert digest not in seen, name
        seen.add(digest)
    assert bench.fingerprint == _new_bench().fingerprint


def test_desk_optimum_costs_are_pinned():
    # (150, 0.5, 90) never touches a rail, so its cost is not chaotic; any
    # change to the drive maps shows up here and must be a deliberate edit
    from axistune.presets import get_preset

    triple = (150.0, 0.5, 90.0)
    single = get_preset("desk").bench().cost(triple)
    batch = get_preset("desk").bench().evaluate_many([triple])[0]
    assert single == batch == 61.99755248866082


# named by preset and point, not cost, so a deliberate re-pin keeps the ids
RAILED_PINS = [
    pytest.param("desk", (450.0, 0.25, 720.0), 146575.2901041394,
                 id="desk-450-0.25-720"),
    pytest.param("desk", (600.0, 0.3, 360.0), 1436.688192150607,
                 id="desk-600-0.3-360"),
    pytest.param("plc", (1000.0, 100.0, 10000.0), 10236680.955415104,
                 id="plc-1000-100-10000"),
]


@pytest.mark.parametrize("preset, point, cost", RAILED_PINS)
def test_railed_single_run_costs_are_pinned(preset, point, cost):
    # the rails amplify roundoff, so these costs move with any change to
    # the tick arithmetic or its order; they must hold bitwise
    from axistune.presets import get_preset

    pre = get_preset(preset)
    assert pre.bench().oracle(pre.feasible)(np.array(point)) == cost


@pytest.mark.parametrize("preset, point, cost", RAILED_PINS)
def test_single_and_batch_costs_are_bitwise_equal(preset, point, cost):
    # a gain triple has one cost, whichever path simulated it
    from axistune.presets import get_preset

    pre = get_preset(preset)
    single = pre.bench().oracle(pre.feasible)(np.array(point))
    batch = pre.bench().oracle(pre.feasible).evaluate_many(np.array([point]))
    assert single == batch[0] == cost


@pytest.mark.parametrize("rows", [7, 1])
def test_batch_costs_do_not_depend_on_the_chunk(monkeypatch, rows):
    from axistune.presets import get_preset

    pre = get_preset("desk")
    fset = pre.feasible
    pick = np.random.default_rng(5).choice(fset.size, 14, replace=False)
    railed = [(450.0, 0.25, 720.0), (600.0, 0.3, 360.0)]
    points = np.vstack([fset.grid()[pick], railed])
    whole = pre.bench().oracle(fset).evaluate_many(points)
    assert len(points) < simloop.BATCH_RUN_TICKS // len(pre.bench().profile)
    monkeypatch.setattr(simloop, "BATCH_RUN_TICKS",
                        rows * len(pre.bench().profile))
    assert np.array_equal(pre.bench().oracle(fset).evaluate_many(points), whole)


def _metric_bytes(table):
    return np.array([list(m.as_dict().values()) for m in table]).tobytes()


def test_pooled_costs_do_not_depend_on_the_worker_count(monkeypatch):
    # two rows per chunk, so the seven fresh rows below make four chunks
    # and the pool can take 1, 2 or 3 workers
    from axistune.presets import get_preset

    pre = get_preset("desk")
    fset = pre.feasible
    monkeypatch.setattr(simloop, "BATCH_RUN_TICKS", 2 * len(pre.bench().profile))
    railed = [(450.0, 0.25, 720.0), (600.0, 0.3, 360.0)]
    memo = [(150.0, 0.5, 90.0), (300.0, 0.45, 90.0)]
    pick = np.random.default_rng(11).choice(fset.size, 5, replace=False)
    rows = np.vstack([railed, memo[:1], fset.canonical(fset.grid()[pick]),
                      railed[::-1], memo[1:], memo[:1]])
    single = pre.bench()
    expected = np.array([single.cost(row) for row in rows])

    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    runs = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(bench_module, "_usable_cpus", lambda: workers)
        forks.clear()
        bench = pre.bench()
        for triple in memo:
            bench.cost(triple)
        costs = bench.evaluate_many(rows)
        assert multiprocessing.active_children() == []
        assert len(forks) == (workers if workers > 1 else 0)
        assert bench.n_sims == len(memo) + 7
        runs.append((costs.tobytes(), _metric_bytes(bench.metric_table(rows))))
    assert runs[0] == runs[1] == runs[2]
    assert runs[0][0] == expected.tobytes()


def test_an_invalid_row_raises_before_any_fork(monkeypatch):
    from axistune.presets import get_preset

    pre = get_preset("desk")
    monkeypatch.setattr(simloop, "BATCH_RUN_TICKS", 2 * len(pre.bench().profile))
    monkeypatch.setattr(bench_module, "_usable_cpus", lambda: 2)

    def fork():
        raise AssertionError("forked a worker for an invalid batch")

    monkeypatch.setattr(os, "fork", fork)
    bench = pre.bench()
    bench.cost((150.0, 0.5, 90.0))
    memo, n_sims = dict(bench._memo), bench.n_sims
    rows = [(450.0, 0.25, 720.0), (600.0, 0.3, 360.0), (300.0, 0.45, 90.0)]
    # a NaN row would miss the memo (NaN != NaN) and be simulated each time
    for bad, match in (((600.0, 0.0, 360.0), "kv must be positive"),
                       ((600.0, math.nan, 360.0), "kv must be finite"),
                       ((math.nan, 0.3, 360.0), "kp must be finite")):
        with pytest.raises(ValueError, match=match):
            bench.evaluate_many(rows + [bad, bad])
        assert bench._memo == memo
        assert bench.n_sims == n_sims


def test_a_lost_worker_raises_and_leaves_no_process(monkeypatch):
    from axistune.presets import get_preset

    pre = get_preset("desk")
    monkeypatch.setattr(simloop, "BATCH_RUN_TICKS", len(pre.bench().profile))
    monkeypatch.setattr(bench_module, "_usable_cpus", lambda: 2)
    parent = os.getpid()

    def die(self, batch):
        # each forked worker dies at once, as if killed
        assert os.getpid() != parent, "scored in the calling process"
        os._exit(1)

    monkeypatch.setattr(TuningBench, "_score_rows", die)
    bench = pre.bench()
    with pytest.raises(RuntimeError, match="scoring worker"):
        bench.evaluate_many([(450.0, 0.25, 720.0), (600.0, 0.3, 360.0)])
    assert multiprocessing.active_children() == []
    assert bench._memo == {}
    assert bench.n_sims == 0
