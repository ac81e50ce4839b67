"""Preset registry checks: the named bundles stay assembled correctly."""

import math

import pytest

from axistune.bench import BENCH_MOVE, TuningBench
from axistune.plant import LAB_SERVO
from axistune.presets import (
    DEFAULT_PRESET,
    FEASIBLE_PRESETS,
    PRESETS,
    TRAJECTORY_PRESETS,
    WEIGHT_PRESETS,
    get_preset,
    get_weights,
)
from axistune import simloop
from axistune.tuner import BoConfig


def test_lab_servo_constants():
    p = LAB_SERVO
    assert p.Rs == 9.02
    assert p.Ls == 0.0187
    assert p.Kt == 0.515
    assert p.Kb == 0.55
    assert p.Jm == 0.27e-4
    assert p.Bm == 0.0074
    assert p.Jl == 6.53e-4
    assert p.Q == 0.018
    assert p.omega_max == pytest.approx(8000.0 * 2.0 * math.pi / 60.0)


def test_current_loop_constants():
    assert (simloop.CURRENT_LOOP_KP, simloop.CURRENT_LOOP_KI) == (60.0, 1000.0)


def test_registry_names():
    assert set(PRESETS) == {"desk", "fine", "plc"}
    assert DEFAULT_PRESET in PRESETS
    assert set(WEIGHT_PRESETS) == {"sim-tracking", "exp-tracking"}
    assert set(FEASIBLE_PRESETS) == {"desk", "fine", "plc"}
    assert set(TRAJECTORY_PRESETS) == {"bench-move", "long-stroke"}


def test_lookup_errors_list_known_names():
    with pytest.raises(KeyError, match="desk.*fine.*plc"):
        get_preset("bogus")
    with pytest.raises(KeyError, match="exp-tracking.*sim-tracking"):
        get_weights("bogus")


def test_grid_shapes():
    assert FEASIBLE_PRESETS["desk"].shape == (28, 10, 10)
    assert FEASIBLE_PRESETS["desk"].size == 2800
    assert FEASIBLE_PRESETS["fine"].shape == (280, 90, 100)
    assert FEASIBLE_PRESETS["plc"].shape == (28, 10, 10)
    # desk and fine span the same box at different resolutions
    d, f = FEASIBLE_PRESETS["desk"], FEASIBLE_PRESETS["fine"]
    assert (d.kp, d.kv, d.third) == (f.kp, f.kv, f.third)
    assert d.kp == (150.0, 4200.0)
    assert d.kv == (0.05, 0.5)
    assert d.third == (90.0, 900.0)


def test_third_axis_semantics():
    assert FEASIBLE_PRESETS["desk"].third_axis == "ki"
    assert FEASIBLE_PRESETS["fine"].third_axis == "ki"
    assert FEASIBLE_PRESETS["plc"].third_axis == "tn"


def test_weight_presets_are_selective():
    sim = WEIGHT_PRESETS["sim-tracking"]
    assert sim.pos_settling == 1e5
    assert sim.pos_inf == 1e3
    assert sim.spd_itae == 1e4
    assert sim.pos_zero == 0.0  # terminal-zero error only matters on-machine
    exp = WEIGHT_PRESETS["exp-tracking"]
    assert exp.pos_zero == 1e5
    assert exp.spd_itae == 2.5e5


def test_desk_uses_the_benchmark_move_and_accurate_solver():
    pre = get_preset("desk")
    assert pre.trajectory is BENCH_MOVE
    assert pre.weights == "sim-tracking"
    # the commands search with the default BO config
    assert BoConfig().m0 == 20
    assert BoConfig().max_iterations == 60


def test_plc_preset_is_the_long_stroke_bundle():
    pre = get_preset("plc")
    assert pre.trajectory.return_to_zero
    assert pre.trajectory.position_setpoint == 0.5
    assert pre.weights == "exp-tracking"
    assert pre.feasible.third_axis == "tn"


def test_bench_assembly(desk_bench):
    pre = get_preset("desk")
    assert isinstance(desk_bench, TuningBench)
    # a weights override is honored without touching the preset
    custom = get_weights("exp-tracking")
    b2 = pre.bench(weights=custom)
    assert b2.weights is custom
