"""The traced benchmark run wraps names the package still defines.

``perfbench/layers.py`` patches package functions and methods by name
and reads attributes of what they take and return; a renamed or deleted
name makes ``perfbench/run.py --trace 1`` fail.
"""

import importlib
from pathlib import Path

from axistune import bench, cli, gpr, tuner
from axistune.metrics import CostWeights
from axistune.presets import LAB_SERVO, LAB_SERVO_CURRENT, Preset
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
    # the counters read the trace and the rails each run was given
    layers, spans = _perfbench_modules(monkeypatch)
    move = generate_profile(TrajectorySpec(0.01, 0.1, 5.0, 5.0, dwell_time=0.05))
    desk = bench.TuningBench(LAB_SERVO, LAB_SERVO_CURRENT,
                             CostWeights(pos_settling=1.0), profile=move)
    tracer = spans.Tracer()
    patches = layers.install(tracer)
    try:
        desk.cost((150.0, 0.5, 90.0))
        desk.evaluate_many([[300.0, 0.45, 90.0], [600.0, 0.3, 360.0]])
    finally:
        patches.undo()

    got = layers.layer_metrics(tracer)
    assert got["simloop.single.runs"] == 1
    assert got["simloop.batch.runs"] == 2
    assert got["simloop.ticks"] == 3 * len(move)
    assert {"simloop.rail_i", "simloop.rail_v"} <= tracer.counters.keys()
