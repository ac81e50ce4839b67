"""The traced benchmark run wraps names the package still defines.

``perfbench/layers.py`` patches package functions and methods by name;
a renamed or deleted name makes ``perfbench/run.py --trace 1`` fail.
"""

import importlib
from pathlib import Path

from axistune import bench, cli, gpr, tuner
from axistune.presets import Preset

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
OWNERS = (bench, cli, gpr, tuner, bench.TuningBench, Preset, tuner.FeasibleSet)


def test_layer_wrappers_install_and_undo(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    spans = importlib.import_module("spans")
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
