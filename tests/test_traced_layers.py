"""The traced benchmark run wraps names the package still defines.

``perfbench/layers.py`` patches package functions and methods by name
and reads attributes of what they take and return; a renamed or deleted
name makes ``perfbench/run.py --trace 1`` fail.
"""

import importlib
from pathlib import Path

import numpy as np

from axistune import bench, cli, gpr, simloop, tuner
from axistune.metrics import CostWeights
from axistune.presets import Preset
from axistune.refgen import TrajectorySpec, generate_profile

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
OWNERS = (bench, cli, gpr, tuner, bench.TuningBench, Preset, tuner.FeasibleSet)


def _perfbench_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("layers"), importlib.import_module("spans")


def test_layer_wrappers_install_and_undo(monkeypatch):
    layers, spans = _perfbench_modules(monkeypatch)
    before = [dict(vars(owner)) for owner in OWNERS]

    patches = layers.install(spans.Tracer())
    try:
        wrapped = {name for owner, names in zip(OWNERS, before)
                   for name in names if vars(owner)[name] is not names[name]}
    finally:
        patches.undo()

    assert {"simulate", "simulate_batch", "extract_metrics", "metrics",
            "evaluate_many", "run_bo", "grid_search", "main"} <= wrapped
    for owner, names in zip(OWNERS, before):
        after = vars(owner)
        assert after.keys() == names.keys(), owner
        assert all(after[name] is names[name] for name in names), owner


def test_a_traced_bench_run_counts_every_run_and_tick(monkeypatch):
    # the counters read each run's trace; the rail counts must be those
    # of the rails the runs had, so they catch any drift between
    # ``simloop.RAILS`` and the ``SimConfig`` defaults the counters use
    layers, spans = _perfbench_modules(monkeypatch)
    # the two-row query below runs the batch loop
    monkeypatch.setattr(bench, "BATCH_ROWS", 2)
    move = generate_profile(TrajectorySpec(0.01, 0.1, 5.0, 5.0, dwell_time=0.05))
    desk = bench.TuningBench(CostWeights(pos_settling=1.0), profile=move)
    single, pair = (150.0, 0.5, 90.0), [[300.0, 0.45, 90.0], [600.0, 0.3, 360.0]]
    tracer = spans.Tracer()
    patches = layers.install(tracer)
    try:
        desk.cost(single)
        desk.evaluate_many(pair)
    finally:
        patches.undo()

    got = layers.layer_metrics(tracer)
    assert got["simloop.single.runs"] == 1
    assert got["simloop.batch.runs"] == 2
    assert got["simloop.ticks"] == 3 * len(move)
    traces = [desk.trace(triple) for triple in [single, *pair]]
    rails = simloop.RAILS
    assert tracer.counters["simloop.rail_i"] == sum(
        np.count_nonzero(np.abs(t.i_ref) >= rails.current_limit) for t in traces)
    assert tracer.counters["simloop.rail_v"] == sum(
        np.count_nonzero(np.abs(t.v_q) >= rails.voltage_limit) for t in traces)


def test_a_traced_search_counts_every_gp_fit(monkeypatch):
    # the GP counters wrap ``tuner.fit``, ``tuner.fit_hyperparams`` and
    # ``gpr.nlml`` by name; each must count the calls the search made,
    # here counted independently: one posterior per iteration, one
    # descent per hyperparameter start, one NLML per objective call
    layers, spans = _perfbench_modules(monkeypatch)
    descents, objective_calls = [], []
    real_descent = gpr._lbfgsb_descent

    def spy(objective, x0, lb, ub):
        def counted(v):
            objective_calls.append(1)
            return objective(v)

        descents.append(1)
        return real_descent(counted, x0, lb, ub)

    monkeypatch.setattr(gpr, "_lbfgsb_descent", spy)
    fset = tuner.FeasibleSet(kp=(1.0, 9.0), kv=(1.0, 9.0), third=(1.0, 9.0),
                             n_kp=9, n_kv=9, n_third=9)

    def oracle(rows):
        return np.sum(np.sin(3.0 * np.log(rows)) + 0.1 * rows, axis=1)

    tracer = spans.Tracer()
    patches = layers.install(tracer)
    try:
        state = tuner.run_bo(oracle, fset,
                             tuner.BoConfig(m0=5, max_iterations=12, seed=0))
    finally:
        patches.undo()

    got = layers.layer_metrics(tracer)
    # twelve iterations refit once, at the tenth
    assert state.iterations == len(state.records) == 12
    assert got["gpr.fit.calls"] == 12
    assert got["gpr.hyperfit.calls"] * gpr.N_HYPER_STARTS == len(descents) == 16
    assert got["gpr.nlml.calls"] == len(objective_calls) > len(descents)
    assert 0 <= got["gpr.jitter_fits"] <= got["gpr.fit.calls"]
