"""Motion-profile generation checks.

The oracle for every profile is the pair of kinematic invariants: the
position trace must be the running trapezoid integral of the speed trace,
and the total swept area must hit the commanded distance exactly.
"""

import math

import numpy as np
import pytest

from axistune.refgen import (
    TICK,
    TrajectorySpec,
    constant_speed_profile,
    generate_profile,
)


def _trapezoid_integral(speed, dt):
    return np.concatenate([[0.0], np.cumsum(0.5 * (speed[1:] + speed[:-1]) * dt)])


def _random_spec(rng):
    return TrajectorySpec(
        position_setpoint=float(rng.uniform(0.001, 0.6)),
        speed_setpoint=float(rng.uniform(0.05, 0.6)),
        acceleration=float(rng.uniform(0.5, 60.0)),
        deceleration=float(rng.uniform(0.5, 60.0)),
        dwell_time=float(rng.uniform(0.0, 1.5)),
        return_to_zero=bool(rng.integers(0, 2)),
    )


def test_position_is_the_integral_of_speed():
    rng = np.random.default_rng(7)
    for _ in range(50):
        spec = _random_spec(rng)
        prof = generate_profile(spec)
        ref = _trapezoid_integral(prof.speed, TICK)
        span = max(spec.position_setpoint, 1e-9)
        assert np.max(np.abs(prof.position - ref)) <= 1e-9 * span


def test_move_lands_on_the_setpoint():
    rng = np.random.default_rng(11)
    for _ in range(50):
        spec = _random_spec(rng)
        prof = generate_profile(spec)
        target = 0.0 if spec.return_to_zero else spec.position_setpoint
        assert abs(prof.position[-1] - target) <= 1e-12 + 1e-12 * spec.position_setpoint
        if spec.return_to_zero:
            assert abs(np.max(prof.position) - spec.position_setpoint) <= 1e-12


def test_speed_never_exceeds_the_setpoint():
    rng = np.random.default_rng(13)
    for _ in range(50):
        spec = _random_spec(rng)
        prof = generate_profile(spec)
        assert np.max(np.abs(prof.speed)) <= spec.speed_setpoint * (1.0 + 1e-12)
        accel = np.abs(np.diff(prof.speed)) / TICK
        limit = max(spec.acceleration, spec.deceleration)
        assert np.max(accel) <= limit * (1.0 + 1e-12)


def test_short_move_degrades_to_a_triangle():
    spec = TrajectorySpec(
        position_setpoint=0.002,
        speed_setpoint=0.5,
        acceleration=5.0,
        deceleration=5.0,
    )
    v_star = np.sqrt(
        2.0
        * spec.acceleration
        * spec.deceleration
        * spec.position_setpoint
        / (spec.acceleration + spec.deceleration)
    )
    prof = generate_profile(spec)
    assert prof.cruise_span() is None
    peak = np.max(prof.speed)
    # tick snapping can only lower the recomputed peak
    assert peak <= v_star * (1.0 + 1e-12)
    assert peak >= 0.8 * v_star
    assert abs(prof.position[-1] - spec.position_setpoint) <= 1e-15


def test_bidirectional_profile_structure():
    prof = generate_profile(
        TrajectorySpec(0.1, 0.25, 5.0, 5.0, dwell_time=0.5, return_to_zero=True),
)
    labels = [(ph.label, ph.leg) for ph in prof.phases]
    assert labels == [
        ("accel", 0),
        ("cruise", 0),
        ("decel", 0),
        ("dwell", 0),
        ("accel", 1),
        ("cruise", 1),
        ("decel", 1),
        ("dwell", 1),
    ]
    plateau = prof.forward_plateau()
    assert plateau is not None
    assert np.all(prof.speed[plateau.start : plateau.stop] == 0.0)
    assert np.allclose(prof.position[plateau.start : plateau.stop], 0.1, atol=1e-12)
    tail = prof.terminal_dwell()
    assert tail is not None
    assert tail.stop == len(prof)
    assert np.all(prof.position[tail.start : tail.stop] == prof.position[tail.start])
    assert abs(prof.position[-1]) <= 1e-12
    # dwell lengths are snapped to whole ticks
    assert plateau.stop - plateau.start == round(0.5 / 1e-3)


def test_phases_tile_the_profile():
    rng = np.random.default_rng(17)
    for _ in range(25):
        spec = _random_spec(rng)
        prof = generate_profile(spec)
        cursor = 1  # sample 0 is the initial standstill
        for ph in prof.phases:
            assert ph.start == cursor
            assert ph.stop > ph.start
            cursor = ph.stop
        assert cursor == len(prof)
        assert prof.motion_start_index() == 1


def test_zero_distance_gives_a_dwell_only_profile():
    spec = TrajectorySpec(
        position_setpoint=0.0,
        speed_setpoint=0.25,
        acceleration=5.0,
        deceleration=5.0,
        dwell_time=0.25,
    )
    prof = generate_profile(spec)
    assert np.all(prof.speed == 0.0)
    assert np.all(prof.position == 0.0)
    assert [ph.label for ph in prof.phases] == ["dwell"]


def test_constant_speed_profile_invariants():
    prof = constant_speed_profile(0.2, duration=0.5)
    assert len(prof) == 501
    assert np.all(prof.speed == 0.2)
    ref = _trapezoid_integral(prof.speed, TICK)
    assert np.max(np.abs(prof.position - ref)) == 0.0
    assert prof.motion_start_index() == 0


def test_time_grid_is_uniform():
    prof = generate_profile(TrajectorySpec(0.1, 0.25, 5.0, 5.0, dwell_time=1.0))
    assert prof.t[0] == 0.0
    assert np.allclose(np.diff(prof.t), 1e-3, rtol=0.0, atol=1e-15)


def test_invalid_inputs_are_rejected():
    good = dict(
        position_setpoint=0.1, speed_setpoint=0.25, acceleration=5.0, deceleration=5.0
    )
    with pytest.raises(ValueError):
        TrajectorySpec(**{**good, "position_setpoint": -0.1})
    with pytest.raises(ValueError):
        TrajectorySpec(**{**good, "speed_setpoint": 0.0})
    with pytest.raises(ValueError):
        TrajectorySpec(**{**good, "acceleration": -5.0})
    with pytest.raises(ValueError):
        TrajectorySpec(**{**good, "dwell_time": -0.5})


@pytest.mark.parametrize("name, value", [
    ("position_setpoint", math.nan), ("position_setpoint", math.inf),
    ("speed_setpoint", math.nan), ("speed_setpoint", math.inf),
    ("acceleration", math.inf), ("deceleration", math.nan),
    ("dwell_time", math.nan), ("dwell_time", math.inf),
])
def test_non_finite_spec_values_are_rejected_by_name(name, value):
    good = dict(position_setpoint=0.1, speed_setpoint=0.25, acceleration=5.0,
                deceleration=5.0, dwell_time=0.5)
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        TrajectorySpec(**{**good, name: value})
