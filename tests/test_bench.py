"""Evaluation-bench checks: memoization, batch path, workers, fingerprint."""

import itertools
import math
import multiprocessing
import os
from pathlib import Path

import numpy as np
import pytest

import axistune.bench as bench_module
from axistune import simloop
from axistune.bench import TuningBench
from axistune.metrics import DIVERGENCE_PENALTY, CostWeights, cost as metric_cost
from axistune.presets import TRAJECTORY_PRESETS
from axistune.refgen import TrajectorySpec, generate_profile
from axistune.tuner import BoConfig, FeasibleSet, run_bo


MOVE = generate_profile(TRAJECTORY_PRESETS["bench-move"])


def _new_bench(weights=CostWeights(pos_settling=1e5, pos_inf=1e3, spd_itae=1e4),
               profile=MOVE):
    return TuningBench(weights, profile)


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


def _counted_runs(monkeypatch):
    """Count the runs of each tick loop the bench starts."""
    runs = {"single": 0, "batch": 0}
    simulate, simulate_batch = bench_module.simulate, bench_module.simulate_batch

    def single(*args, **kwargs):
        runs["single"] += 1
        return simulate(*args, **kwargs)

    def batch(*args, **kwargs):
        for trace in simulate_batch(*args, **kwargs):
            runs["batch"] += 1
            yield trace

    monkeypatch.setattr(bench_module, "simulate", single)
    monkeypatch.setattr(bench_module, "simulate_batch", batch)
    return runs


# a short move, so the runs below take milliseconds
SHORT = generate_profile(TrajectorySpec(0.01, 0.1, 5.0, 5.0, dwell_time=0.05))


def test_a_fresh_one_row_query_runs_the_single_loop(monkeypatch):
    runs = _counted_runs(monkeypatch)
    bench = _new_bench(profile=SHORT)
    queries = [bench.metrics, bench.cost, lambda t: bench.evaluate_many([t]),
               lambda t: bench.metric_table(np.array([t]))]
    for n, query in enumerate(queries, start=1):
        query((150.0 * n, 0.5, 90.0))
        assert runs == {"single": n, "batch": 0}
    bench.evaluate_many([(150.0, 0.4, 90.0), (300.0, 0.4, 90.0)])
    assert runs == {"single": 4, "batch": 2}
    assert bench.n_sims == 6


def test_every_query_fills_one_memo(monkeypatch):
    # each triple is simulated once, whatever the order of the queries;
    # only a query with two fresh rows runs the batch loop
    a, b = (150.0, 0.5, 90.0), (300.0, 0.45, 90.0)
    for order in itertools.permutations(("metrics", "cost", "evaluate_many")):
        runs = _counted_runs(monkeypatch)
        bench = _new_bench(profile=SHORT)
        queries = {"metrics": lambda: bench.metrics(a),
                   "cost": lambda: bench.cost(a),
                   "evaluate_many": lambda: bench.evaluate_many([a, b])}
        for name in order:
            queries[name]()
        assert bench.n_sims == 2, order
        assert runs["single"] + runs["batch"] == 2, order
        assert runs["batch"] == (2 if order[0] == "evaluate_many" else 0), order
        assert bench.cost(a) == metric_cost(bench.metrics(a), bench.weights)
        assert bench.evaluate_many([b, a]).tolist() == [bench.cost(b), bench.cost(a)]
        assert bench.n_sims == 2, order
        monkeypatch.undo()


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


def test_fingerprint_covers_the_drive_maps(monkeypatch):
    # a change to how the maps are built, with every constant kept, must
    # not be served a grid cache of the old maps
    import copy

    bench = _new_bench()
    before = bench.fingerprint
    drive = copy.copy(simloop._drive())
    drive.S_ol = drive.S_ol.copy()
    drive.S_ol[0, 0] = np.nextafter(drive.S_ol[0, 0], 2.0)
    monkeypatch.setattr(simloop, "_drive", lambda: drive)
    assert bench.fingerprint != before


@pytest.mark.parametrize("module", ["plant", "refgen", "simloop", "metrics",
                                    "bench"])
def test_fingerprint_covers_the_cost_code(monkeypatch, tmp_path, module):
    # a change to the code that computes a cost, with every constant and
    # map kept, must not be served a grid cache of the old code
    import importlib

    mod = importlib.import_module(f"axistune.{module}")
    bench = _new_bench()
    before = bench.fingerprint
    copy = tmp_path / f"{module}.py"
    copy.write_bytes(Path(mod.__file__).read_bytes())
    monkeypatch.setattr(mod, "__file__", str(copy))
    assert bench.fingerprint == before
    source = bytearray(copy.read_bytes())
    source[-1] ^= 1
    copy.write_bytes(source)
    assert bench.fingerprint != before


# rail-free points, where a cost is not chaotic: (preset, triple, the
# cost with the screw modelled as a 3e7 N*m/rad spring, the rigid cost)
RAIL_FREE_COSTS = [
    pytest.param("desk", (150.0, 0.5, 90.0), 61.99755248866082,
                 61.99758024795093, id="desk-150-0.5-90"),
    pytest.param("desk", (15.93, 1.339, 1.0), 32.21171816185186,
                 32.21172093508339, id="desk-15.93-1.339-1"),
    pytest.param("plc", (40.0, 1.0, 20.0), 17002.2403402572,
                 17002.236176815306, id="plc-40-1-20"),
]


@pytest.mark.parametrize("preset, triple, sprung, rigid", RAIL_FREE_COSTS)
def test_rail_free_costs_do_not_see_the_screw_spring(preset, triple, sprung,
                                                     rigid):
    # the screw's axial mode sits at 172 kHz, so a rigid axis scores
    # settled gains as the sprung one did, to well within 1e-6
    from axistune.presets import get_preset

    got = get_preset(preset).bench().cost(triple)
    assert got == rigid
    assert got == pytest.approx(sprung, rel=1e-6)


def test_desk_optimum_costs_are_pinned():
    # (150, 0.5, 90) never touches a rail, so its cost is not chaotic; any
    # change to the drive maps shows up here and must be a deliberate edit
    from axistune.presets import get_preset

    triple = (150.0, 0.5, 90.0)
    single = get_preset("desk").bench().cost(triple)
    # a second row makes the query a batch run
    batch = get_preset("desk").bench().evaluate_many([triple, (300.0, 0.45, 90.0)])[0]
    assert single == batch == 61.99758024795093


# named by preset and point, not cost, so a deliberate re-pin keeps the ids
RAILED_PINS = [
    pytest.param("desk", (450.0, 0.25, 720.0), 97450.96663779316,
                 id="desk-450-0.25-720"),
    pytest.param("desk", (600.0, 0.3, 360.0), 1444.9880072696371,
                 id="desk-600-0.3-360"),
    pytest.param("plc", (1000.0, 100.0, 10000.0), 10236681.414856032,
                 id="plc-1000-100-10000"),
]


@pytest.mark.parametrize("preset, point, cost", RAILED_PINS)
def test_railed_single_run_costs_are_pinned(preset, point, cost):
    # the rails amplify roundoff, so these costs move with any change to
    # the tick arithmetic or its order; they must hold bitwise
    from axistune.presets import get_preset

    pre = get_preset(preset)
    assert pre.bench().cost(pre.feasible.gains(point)) == cost


@pytest.mark.parametrize("preset, point, cost", RAILED_PINS)
def test_single_and_batch_costs_are_bitwise_equal(preset, point, cost):
    # a gain triple has one cost, whichever path simulated it
    from axistune.presets import get_preset

    pre = get_preset(preset)
    single = pre.bench().cost(pre.feasible.gains(point))
    # a second row makes the query a batch run
    other = pre.feasible.grid()[0]
    batch = pre.bench().evaluate_many(pre.feasible.canonical([point, other]))
    assert single == batch[0] == cost


@pytest.mark.parametrize("rows", [7, 1])
def test_batch_costs_do_not_depend_on_the_chunk(monkeypatch, chunk_log, rows):
    from axistune.presets import get_preset

    pre = get_preset("desk")
    fset = pre.feasible
    pick = np.random.default_rng(5).choice(fset.size, 14, replace=False)
    railed = [(450.0, 0.25, 720.0), (600.0, 0.3, 360.0)]
    points = np.vstack([fset.grid()[pick], railed])
    whole = pre.bench().evaluate_many(fset.canonical(points))
    assert chunk_log() == [(os.getpid(), 16)]
    monkeypatch.setattr(simloop, "BATCH_RUN_TICKS",
                        rows * len(pre.bench().profile))
    assert np.array_equal(pre.bench().evaluate_many(fset.canonical(points)), whole)
    split = [rows] * (16 // rows) + [16 % rows] * (16 % rows > 0)
    assert chunk_log()[1:] == [(os.getpid(), runs) for runs in split]


def _metric_bytes(table):
    return np.array([list(m.as_dict().values()) for m in table]).tobytes()


def _count_forks(monkeypatch) -> list:
    """A list that gains an entry for each fork from now on."""
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


def test_pooled_costs_do_not_depend_on_the_worker_count(monkeypatch, chunk_log):
    # one worker per two fresh rows, so the seven fresh rows below can
    # take 1, 2 or 3 workers
    from axistune.presets import get_preset

    pre = get_preset("desk")
    fset = pre.feasible
    monkeypatch.setattr(bench_module, "WORKER_RUN_TICKS",
                        2 * len(pre.bench().profile))
    railed = [(450.0, 0.25, 720.0), (600.0, 0.3, 360.0)]
    memo = [(150.0, 0.5, 90.0), (300.0, 0.45, 90.0)]
    pick = np.random.default_rng(11).choice(fset.size, 5, replace=False)
    rows = np.vstack([railed, memo[:1], fset.canonical(fset.grid()[pick]),
                      railed[::-1], memo[1:], memo[:1]])
    single = pre.bench()
    expected = np.array([single.cost(row) for row in rows])

    forks = _count_forks(monkeypatch)
    runs = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(bench_module, "_usable_cpus", lambda: workers)
        forks.clear()
        bench = pre.bench()
        for triple in memo:
            bench.cost(triple)
        before = len(chunk_log())
        costs = bench.evaluate_many(rows)
        assert multiprocessing.active_children() == []
        assert len(forks) == (workers if workers > 1 else 0)
        # the seven fresh rows ran as one chunk in each scoring process
        log = chunk_log()[before:]
        assert len({pid for pid, _ in log}) == len(log) == workers
        assert sum(runs for _, runs in log) == 7
        assert (os.getpid() in {pid for pid, _ in log}) == (workers == 1)
        assert bench.n_sims == len(memo) + 7
        runs.append((costs.tobytes(), _metric_bytes(bench.metric_table(rows))))
    assert runs[0] == runs[1] == runs[2]
    assert runs[0][0] == expected.tobytes()


def test_an_invalid_row_raises_before_any_fork(monkeypatch):
    # one worker per two fresh rows: each query below has four
    from axistune.presets import get_preset

    pre = get_preset("desk")
    monkeypatch.setattr(bench_module, "WORKER_RUN_TICKS",
                        2 * len(pre.bench().profile))
    monkeypatch.setattr(bench_module, "_usable_cpus", lambda: 2)
    forks = _count_forks(monkeypatch)
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
        assert forks == []
    # with a valid row in its place, the same query forks two workers
    bench.evaluate_many(rows + [(600.0, 0.3, 90.0)])
    assert len(forks) == 2


def test_a_lost_worker_raises_and_leaves_no_process(monkeypatch):
    from axistune.presets import get_preset

    pre = get_preset("desk")
    monkeypatch.setattr(bench_module, "WORKER_RUN_TICKS", len(pre.bench().profile))
    monkeypatch.setattr(bench_module, "_usable_cpus", lambda: 2)
    forks = _count_forks(monkeypatch)
    parent = os.getpid()

    def die(self, batch):
        # each forked worker dies at once, as if killed
        assert os.getpid() != parent, "scored in the calling process"
        os._exit(1)

    monkeypatch.setattr(TuningBench, "_score_rows", die)
    bench = pre.bench()
    with pytest.raises(RuntimeError, match="scoring worker"):
        bench.evaluate_many([(450.0, 0.25, 720.0), (600.0, 0.3, 360.0)])
    assert len(forks) == 2
    assert multiprocessing.active_children() == []
    assert bench._memo == {}
    assert bench.n_sims == 0


def test_a_desk_grid_query_runs_one_chunk_per_worker(monkeypatch, chunk_log):
    # on two CPUs the full desk grid goes to two workers, and each
    # simulates its share as one chunk; a design-sized query stays in
    # this process, where a fork would cost more than it saves
    from axistune.presets import get_preset

    pre = get_preset("desk")
    fset = pre.feasible
    monkeypatch.setattr(bench_module, "_usable_cpus", lambda: 2)
    forks = _count_forks(monkeypatch)
    pre.bench().evaluate_many(fset.canonical(fset.grid()[:20]))
    assert forks == []
    assert chunk_log() == [(os.getpid(), 20)]
    pre.bench().evaluate_many(fset.canonical(fset.grid()))
    assert len(forks) == 2
    log = chunk_log()[1:]
    assert sorted(runs for _, runs in log) == [fset.size // 2] * 2
    assert len({pid for pid, _ in log}) == 2
    assert os.getpid() not in {pid for pid, _ in log}


def test_bo_on_a_reset_time_set_records_the_cost_of_each_points_gains(desk_bench):
    # the search maps its points; on a reset-time axis over the desk
    # bench, ki = kv/tn spans 60 to 500
    tn_set = FeasibleSet(kp=(150.0, 450.0), kv=(0.3, 0.5), third=(1e-3, 5e-3),
                         n_kp=3, n_kv=3, n_third=3, third_axis="tn")
    state = run_bo(desk_bench.evaluate_many, tn_set, BoConfig(m0=5, max_iterations=3))
    assert state.evaluations >= 5
    for point, y in zip(state.points, state.costs):
        assert y == desk_bench.cost(tn_set.gains(point))
