"""Metric-extraction and cost checks against closed-form oracles."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from axistune.metrics import (
    DIVERGENCE_PENALTY,
    SETTLE_BAND,
    CostWeights,
    MetricVector,
    cost,
    extract_metrics,
    itae,
)
from axistune.refgen import TICK, TrajectorySpec, generate_profile


def _fake_trace(profile, e_pos=None, e_speed=None):
    """Duck-typed trace with prescribed error signals."""
    n = len(profile)
    e_p = np.zeros(n) if e_pos is None else np.asarray(e_pos, dtype=float)
    e_s = np.zeros(n) if e_speed is None else np.asarray(e_speed, dtype=float)
    return SimpleNamespace(
        e_pos=e_p,
        e_speed=e_s,
        y_pos=profile.position - e_p,
        y_speed=profile.speed - e_s,
        diverged=False,
    )


# -- time-weighted absolute error ---------------------------------------------


def test_itae_constant_error_closed_form():
    # integral of t * c over [0, T] is c * T^2 / 2
    for c, T, n in ((0.3, 2.0, 401), (1.7, 0.75, 1001), (2.0, 5.0, 2001)):
        e = np.full(n, c)
        expected = c * T * T / 2.0
        assert abs(itae(e, 0.0, T) - expected) <= 1e-9 * expected


def test_itae_linear_error_closed_form():
    # integral of t * (a*t) over [0, T] is a * T^3 / 3
    for a, T, n in ((0.5, 2.0, 401), (3.0, 1.0, 501)):
        t = np.linspace(0.0, T, n)
        expected = a * T**3 / 3.0
        assert abs(itae(a * t, 0.0, T) - expected) <= 1e-9 * expected


def test_itae_weight_is_measured_from_the_interval_start():
    # constant c over [t_i, t_f] weighs to c * (t_f - t_i)^2 / 2
    c, t_i, t_f, n = 0.9, 3.0, 5.5, 626
    expected = c * (t_f - t_i) ** 2 / 2.0
    assert abs(itae(np.full(n, c), t_i, t_f) - expected) <= 1e-9 * expected


def test_itae_sign_crossing_on_a_grid_point():
    # e(t) = t - 1 over [0, 2]: integral of t*|t-1| is 2^3 / 8 = 1
    t = np.linspace(0.0, 2.0, 101)
    assert abs(itae(t - 1.0, 0.0, 2.0) - 1.0) <= 1e-12


def test_itae_degenerate_inputs():
    assert itae(np.array([1.0]), 0.0, 1.0) == 0.0
    assert itae(np.array([1.0, 1.0]), 1.0, 1.0) == 0.0
    assert itae(np.zeros(100), 0.0, 1.0) == 0.0


# -- settling time --------------------------------------------------------------


def test_settling_time_of_an_exponential_decay():
    # |e| = move * exp(-t/tau) leaves the 2% band for the last time at
    # tau * ln(50); the sampled answer may round up by one tick
    move, tau, dt = 0.1, 0.07, TICK
    spec = TrajectorySpec(move, 0.25, 5000.0, 5000.0, dwell_time=2.0)
    profile = generate_profile(spec)
    i0 = profile.motion_start_index()
    n = len(profile)
    k = np.arange(n)
    e = np.where(k >= i0, move * np.exp(-(k - i0) * dt / tau), 0.0)
    m = extract_metrics(_fake_trace(profile, e_pos=e), profile)
    expected = tau * math.log(50.0)
    assert 0.0 <= m.pos_settling - expected <= 2.0 * dt
    assert m.pos_inf == pytest.approx(move)
    assert m.spd_settling == 0.0
    assert m.pos_overshoot == 0.0


def test_settling_time_zero_when_never_leaving_the_band():
    profile = generate_profile(TrajectorySpec(0.1, 0.25, 5.0, 5.0, dwell_time=1.0))
    e = np.full(len(profile), 1e-4)  # 0.1% of the move, inside the 2% band
    m = extract_metrics(_fake_trace(profile, e_pos=e), profile)
    assert m.pos_settling == 0.0


# -- plateau statistics ---------------------------------------------------------


def test_position_overshoot_and_undershoot():
    profile = generate_profile(TrajectorySpec(0.1, 0.25, 5.0, 5.0, dwell_time=1.0))
    plateau = profile.forward_plateau()
    y = profile.position.copy()
    k1 = plateau.start + 50
    k2 = plateau.start + 200
    y[k1] = 0.1 + 0.003  # overshoot of 3 mm
    y[k2] = 0.1 - 0.001  # later dip of 1 mm
    e = profile.position - y
    m = extract_metrics(_fake_trace(profile, e_pos=e), profile)
    assert m.pos_overshoot == pytest.approx(0.003)
    assert m.pos_undershoot == pytest.approx(0.001)


def test_speed_overshoot_on_the_cruise_plateau():
    profile = generate_profile(TrajectorySpec(0.1, 0.25, 5.0, 5.0, dwell_time=1.0))
    cruise = profile.cruise_span(0)
    e_s = np.zeros(len(profile))
    e_s[cruise.start + 5] = -0.01  # output above the 0.25 m/s plateau
    m = extract_metrics(_fake_trace(profile, e_speed=e_s), profile)
    assert m.spd_overshoot == pytest.approx(0.01)


def test_return_leg_residual_error():
    profile = generate_profile(
        TrajectorySpec(0.1, 0.25, 5.0, 5.0, dwell_time=0.5, return_to_zero=True))
    e = np.zeros(len(profile))
    e[-1] = 5e-4
    m = extract_metrics(_fake_trace(profile, e_pos=e), profile)
    assert m.pos_zero == pytest.approx(5e-4)


def test_steady_state_error_is_the_tail_mean():
    profile = generate_profile(TrajectorySpec(0.1, 0.25, 5.0, 5.0, dwell_time=1.0))
    plateau = profile.forward_plateau()
    e = np.zeros(len(profile))
    n10 = (plateau.stop - plateau.start) // 10
    e[plateau.stop - n10 : plateau.stop] = 2e-4
    m = extract_metrics(_fake_trace(profile, e_pos=e), profile)
    assert m.pos_ss == pytest.approx(2e-4)


def test_a_triangular_move_settles_speed_against_the_setpoint_band():
    # too short to reach 0.25 m/s: no cruise plateau, so no speed
    # plateau statistics, and speed settling runs up to the dwell
    profile = generate_profile(TrajectorySpec(0.01, 0.25, 5.0, 5.0, dwell_time=0.5))
    assert profile.cruise_span(0) is None
    i0 = profile.motion_start_index()
    dwell = profile.forward_plateau().start
    band = SETTLE_BAND * 0.25
    e_s = np.zeros(len(profile))
    e_s[i0:i0 + 30] = 1.5 * band
    e_s[dwell + 10] = 1.0   # after the motion: not a settling violation
    m = extract_metrics(_fake_trace(profile, e_speed=e_s), profile)
    assert m.spd_settling == pytest.approx(30 * TICK)
    assert m.spd_inf == 1.0
    assert m.spd_overshoot == m.spd_undershoot == m.spd_ss == 0.0
    # the band is 2% of the setpoint, not of the lower peak speed
    e = 0.96 * band
    assert e > SETTLE_BAND * float(np.max(profile.speed))
    m = extract_metrics(_fake_trace(profile, e_speed=np.full(len(profile), e)),
                        profile)
    assert m.spd_settling == 0.0


def test_a_dwell_free_move_has_no_position_plateau_statistics():
    profile = generate_profile(TrajectorySpec(0.1, 0.25, 5.0, 5.0))
    assert profile.forward_plateau() is None
    i0 = profile.motion_start_index()
    e = np.zeros(len(profile))
    e[-20:] = -0.003   # the axis ends 3 mm past the target
    m = extract_metrics(_fake_trace(profile, e_pos=e), profile)
    assert m.pos_overshoot == m.pos_undershoot == m.pos_ss == 0.0
    assert m.pos_inf == pytest.approx(0.003)
    # settling is judged over the whole run, whose last sample is outside
    # the band
    assert m.pos_settling == pytest.approx((len(profile) - 1 - i0) * TICK)


# -- metric vector and cost -----------------------------------------------------


def test_perfect_tracking_scores_zero():
    profile = generate_profile(TrajectorySpec(0.1, 0.25, 5.0, 5.0, dwell_time=1.0))
    m = extract_metrics(_fake_trace(profile), profile)
    for name in MetricVector.names():
        assert getattr(m, name) == 0.0, name
    w = CostWeights(**{name: 1.0 for name in MetricVector.names()})
    assert cost(m, w) == 0.0


def test_cost_is_the_weighted_sum():
    rng = np.random.default_rng(3)
    names = MetricVector.names()
    for _ in range(20):
        vals = {n: float(rng.uniform(0.0, 2.0)) for n in names}
        wts = {n: float(rng.uniform(0.0, 10.0)) for n in names}
        m = MetricVector(**vals)
        w = CostWeights(**wts)
        expected = sum(vals[n] * wts[n] for n in names)
        assert cost(m, w) == pytest.approx(expected, rel=1e-12)


def test_diverged_run_maps_to_the_penalty():
    m = MetricVector.diverged()
    assert m.is_diverged
    assert all(math.isinf(v) for v in m.as_dict().values())
    assert cost(m, CostWeights(pos_settling=1e5)) == DIVERGENCE_PENALTY == 1e9
    # the penalty does not scale with the weights
    assert cost(m, CostWeights(pos_settling=1.0, spd_itae=2.0)) == 1e9

    profile = generate_profile(TrajectorySpec(0.1, 0.25, 5.0, 5.0, dwell_time=0.5))
    trace = _fake_trace(profile)
    trace.diverged = True
    assert extract_metrics(trace, profile).is_diverged


def test_weights_must_be_non_negative():
    with pytest.raises(ValueError):
        CostWeights(pos_settling=-1.0)
    with pytest.raises(ValueError):
        CostWeights(spd_ss=-1e9)


@pytest.mark.parametrize("name, value", [
    ("pos_settling", math.nan), ("pos_settling", math.inf), ("spd_ss", math.nan),
])
def test_weights_must_be_finite(name, value):
    with pytest.raises(ValueError, match=f"weight {name} must be finite"):
        CostWeights(**{name: value})


def test_metric_vector_field_order_is_stable():
    assert MetricVector.names() == (
        "pos_overshoot",
        "pos_undershoot",
        "pos_settling",
        "pos_inf",
        "pos_itae",
        "pos_ss",
        "pos_zero",
        "spd_overshoot",
        "spd_undershoot",
        "spd_settling",
        "spd_inf",
        "spd_itae",
        "spd_ss",
    )
    m = MetricVector(pos_itae=1.5)
    assert m.as_dict()["pos_itae"] == 1.5
    assert not m.is_diverged
