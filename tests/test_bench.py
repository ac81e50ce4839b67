"""Evaluation-bench checks: memoization, batch path, probe helpers."""

import math

import numpy as np
import pytest

from axistune import simloop
from axistune.bench import BENCH_MOVE, TuningBench, benchmark_profile
from axistune.metrics import DIVERGENCE_PENALTY, CostWeights


def _new_bench(plant, cc, **kwargs):
    weights = kwargs.pop(
        "weights",
        CostWeights(pos_settling=1e5, pos_inf=1e3, spd_itae=1e4),
    )
    return TuningBench(plant, cc, weights, **kwargs)


def test_default_profile_is_the_benchmark_move(plant, cc):
    bench = _new_bench(plant, cc)
    prof = benchmark_profile()
    assert len(bench.profile) == len(prof)
    assert np.array_equal(bench.profile.position, prof.position)
    assert bench.profile.spec == BENCH_MOVE


def test_cost_queries_are_memoized(plant, cc):
    bench = _new_bench(plant, cc)
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


def test_batch_evaluation_deduplicates(plant, cc):
    bench = _new_bench(plant, cc)
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


def test_batch_shape_validation(plant, cc):
    bench = _new_bench(plant, cc)
    with pytest.raises(ValueError):
        bench.evaluate_many(np.zeros((2, 4)))


def test_metric_table_aligns_with_rows(plant, cc):
    bench = _new_bench(plant, cc)
    triples = np.array([(150.0, 0.5, 90.0), (600.0, 0.3, 360.0)])
    table = bench.metric_table(triples)
    assert len(table) == 2
    assert table[0] == bench.metrics(triples[0])
    assert table[1] == bench.metrics(triples[1])


def test_trace_is_not_memoized(plant, cc):
    bench = _new_bench(plant, cc)
    before = bench.n_sims
    tr = bench.trace((150.0, 0.5, 90.0))
    assert len(tr.t) == len(bench.profile)
    assert bench.n_sims == before  # trace queries bypass the memo counter


def test_divergent_point_costs_the_penalty(plant, cc, monkeypatch):
    monkeypatch.setattr(simloop, "DIVERGENCE_LIMIT", 1e-9)
    bench = _new_bench(plant, cc, weights=CostWeights(pos_settling=1e5))
    assert bench.cost((150.0, 0.5, 90.0)) == DIVERGENCE_PENALTY == 1e9
    assert bench.metrics((150.0, 0.5, 90.0)).is_diverged
    batch = bench.evaluate_many(np.array([[150.0, 0.5, 90.0], [600.0, 0.3, 360.0]]))
    assert np.all(batch == DIVERGENCE_PENALTY)


def test_speed_step_probe(plant, cc):
    bench = _new_bench(plant, cc)
    trace = bench.speed_step(kv=0.5, ki=0.0, speed=0.1, duration=0.5)
    assert np.all(trace.r_speed == 0.1)
    # a pure P speed loop at healthy gain reaches the neighborhood fast
    assert abs(trace.y_speed[-1] - 0.1) <= 0.05
    assert bench.n_sims == 0  # probe runs do not touch the cost memo


def test_relay_run_switches_the_current(plant, cc):
    bench = _new_bench(plant, cc)
    trace = bench.relay_run(amplitude=2.0, duration=1.0)
    applied = np.unique(trace.i_ref)
    assert set(applied) <= {-2.0, 0.0, 2.0}
    flips = np.sum(np.abs(np.diff(np.sign(trace.i_ref[5:]))) > 0)
    assert flips >= 4


def test_position_overshoot_percentage(plant, cc, monkeypatch):
    bench = _new_bench(plant, cc)
    triple = (2400.0, 0.35, 90.0)
    pct = bench.position_overshoot_pct(triple)
    m = bench.metrics(triple)
    assert pct == pytest.approx(100.0 * m.pos_overshoot / 0.1, rel=1e-9)
    assert pct >= 0.0

    monkeypatch.setattr(simloop, "DIVERGENCE_LIMIT", 1e-9)
    diverging = _new_bench(plant, cc)
    assert math.isinf(diverging.position_overshoot_pct(triple))


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
