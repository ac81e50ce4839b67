"""Closed-loop simulator checks."""

import dataclasses

import numpy as np
import pytest

from axistune.bench import BENCH_MOVE, benchmark_profile
from axistune.refgen import constant_speed_profile, generate_profile
from axistune.simloop import (
    CurrentControllerGains,
    GainVector,
    SimConfig,
    SimTrace,
    simulate,
    simulate_batch,
)
from axistune.tuner import FeasibleSet

# high kv, light integral: the speed loop has a healthy phase margin here
WELL_DAMPED = GainVector(150.0, 0.5, 90.0)


def _gentle_profile():
    """A move whose cruise back-EMF stays well under the voltage rail."""
    from axistune.refgen import TrajectorySpec

    return generate_profile(
        TrajectorySpec(0.05, 0.1, 2.0, 2.0, dwell_time=0.8), dt=1e-3
    )


def test_gain_vector_integral_time_conversion():
    # a reset time reaches the simulator only through the feasible set's
    # map ki = kv / tn
    tn_set = FeasibleSet(kp=(50.0, 150.0), kv=(0.25, 0.5), third=(0.005, 0.01),
                         n_kp=2, n_kv=2, n_third=2, third_axis="tn")
    g = GainVector(*tn_set.canonical([100.0, 0.5, 0.01])[0])
    assert g.ki == pytest.approx(50.0, rel=1e-12)
    off = GainVector(0.0, 0.5, 0.0)  # position loop off, no integral action
    assert (off.kp, off.kv, off.ki) == (0.0, 0.5, 0.0)
    with pytest.raises(ValueError):
        GainVector(-1.0, 0.5, ki=50.0)
    with pytest.raises(ValueError):
        GainVector(100.0, 0.0, ki=50.0)
    with pytest.raises(ValueError):
        GainVector(100.0, 0.5, ki=-1.0)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(mode="torque")
    with pytest.raises(ValueError):
        SimConfig(mode="current")
    with pytest.raises(ValueError):
        SimConfig(relay_amplitude=1.0)  # relay probing needs speed mode
    with pytest.raises(ValueError):
        SimConfig(command_delay_ticks=-1)
    with pytest.raises(ValueError):
        SimConfig(dt=0.0)
    with pytest.raises(ValueError):
        SimConfig(dt=1.5e-6)  # not a whole number of integrator steps
    with pytest.raises(ValueError):
        SimConfig(segments_per_tick=3)  # does not divide 1000 steps per tick
    with pytest.raises(ValueError):
        SimConfig(segments_per_tick=0)


def test_profile_tick_mismatch_is_rejected(plant, cc):
    profile = benchmark_profile(dt=2e-3)
    with pytest.raises(ValueError):
        simulate(plant, WELL_DAMPED, cc, profile, SimConfig())


def test_standstill_stays_at_rest(plant, cc):
    profile = generate_profile(
        dataclasses.replace(BENCH_MOVE, position_setpoint=0.0, dwell_time=0.5),
        dt=1e-3,
    )
    trace = simulate(plant, WELL_DAMPED, cc, profile)
    for name in ("y_pos", "y_speed", "i_q", "i_ref", "v_q", "e_pos", "e_speed"):
        assert np.all(getattr(trace, name) == 0.0), name
    assert not trace.diverged


def test_simulation_is_deterministic(plant, cc):
    profile = benchmark_profile()
    a = simulate(plant, WELL_DAMPED, cc, profile)
    b = simulate(plant, WELL_DAMPED, cc, profile)
    for name in ("y_pos", "y_speed", "i_q", "i_ref", "v_q"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_tracking_quality_at_reference_gains(plant, cc):
    profile = benchmark_profile()
    trace = simulate(plant, WELL_DAMPED, cc, profile)
    assert not trace.diverged
    assert len(trace.t) == len(profile)
    # the move never touches a rail at these gains, so the axis settles
    # completely during the dwell despite the one-tick command latency
    assert abs(trace.y_pos[-1] - 0.1) <= 1e-9
    assert np.max(np.abs(trace.y_speed[-100:])) <= 1e-6
    assert np.max(np.abs(trace.i_ref)) < SimConfig().current_limit
    # the stiff screw keeps load and motor side within a few microns
    assert np.max(np.abs(trace.y_pos - trace.y_pos_load)) <= 1e-5

    # removing the lag entirely changes nothing qualitative
    ideal = simulate(plant, WELL_DAMPED, cc, profile, SimConfig(command_delay_ticks=0))
    assert abs(ideal.y_pos[-1] - 0.1) <= 1e-9
    assert np.max(np.abs(ideal.y_speed[-100:])) <= 1e-6


def test_actuator_limits_are_respected(plant, cc):
    aggressive = GainVector(4200.0, 0.5, 900.0)
    cfg = SimConfig()
    trace = simulate(plant, aggressive, cc, benchmark_profile(), cfg)
    assert np.max(np.abs(trace.i_ref)) <= cfg.current_limit + 1e-12
    assert np.max(np.abs(trace.v_q)) <= cfg.voltage_limit + 1e-12
    # this move is harsh enough to actually hit the current rail
    assert np.max(np.abs(trace.i_ref)) == pytest.approx(cfg.current_limit)


# A pure P speed loop stepped to 0.2 m/s asks for far more than the
# current rail, so the drive sees the railed command for at least the
# first RAIL_TICKS ticks after it arrives.
STEP_GAINS = GainVector(0.0, 0.5, 0.0)
RAIL_TICKS = 9


def _speed_step(plant, cc, delay):
    cfg = SimConfig(mode="speed", command_delay_ticks=delay)
    profile = constant_speed_profile(0.2, duration=0.05, dt=1e-3)
    return cfg, simulate(plant, STEP_GAINS, cc, profile, cfg)


def test_command_delay_shifts_the_applied_current(plant, cc):
    # the drive must see nothing until the first command arrives, then
    # the railed command exactly five ticks late
    cfg, trace = _speed_step(plant, cc, delay=5)
    assert np.all(trace.i_ref[:5] == 0.0)
    assert np.all(trace.i_ref[5:5 + RAIL_TICKS] == cfg.current_limit)


def test_zero_delay_acts_immediately(plant, cc):
    cfg, trace = _speed_step(plant, cc, delay=0)
    assert np.all(trace.i_ref[:RAIL_TICKS] == cfg.current_limit)
    assert trace.i_ref[RAIL_TICKS] < cfg.current_limit


def test_batch_matches_scalar_runs(plant, cc):
    # compare on a rail-free run: once the drive saturates, microscopic
    # roundoff differences between the two BLAS paths pick different
    # switching instants and the traces decorrelate by design
    profile = _gentle_profile()
    cfg = SimConfig(command_delay_ticks=0)
    triples = np.array(
        [
            [150.0, 0.50, 90.0],
            [300.0, 0.45, 90.0],
            [150.0, 0.35, 90.0],
        ]
    )
    batch = list(simulate_batch(plant, triples, cc, profile, cfg))
    assert len(batch) == 3
    for row, bt in zip(triples, batch):
        st = simulate(plant, GainVector(*row), cc, profile, cfg)
        assert not bt.diverged and not st.diverged
        assert np.max(np.abs(st.v_q)) < cfg.voltage_limit  # linear throughout
        for name in ("y_pos", "y_speed", "i_ref", "v_q", "e_pos", "e_speed"):
            a, b = getattr(st, name), getattr(bt, name)
            scale = max(np.max(np.abs(a)), 1.0)
            assert np.max(np.abs(a - b)) <= 1e-9 * scale, name


def test_batch_rejects_unsupported_modes(plant, cc):
    profile = benchmark_profile()
    with pytest.raises(ValueError):
        list(simulate_batch(plant, np.zeros((1, 3)), cc, profile, SimConfig(mode="speed")))
    with pytest.raises(ValueError):
        list(
            simulate_batch(
                plant, np.zeros((1, 3)), cc, profile, SimConfig(relay_amplitude=1.0)
            )
        )
    with pytest.raises(ValueError):
        list(simulate_batch(plant, np.zeros((1, 2)), cc, profile))


def test_divergence_truncates_and_flags(plant, cc):
    cfg = SimConfig(divergence_limit=1e-9)
    profile = benchmark_profile()
    trace = simulate(plant, WELL_DAMPED, cc, profile, cfg)
    assert trace.diverged
    assert trace.t_diverged is not None
    assert len(trace.t) < len(profile)
    assert trace.t_diverged == pytest.approx(trace.t[-1] + trace.dt)

    batch = list(simulate_batch(plant, [[150.0, 0.19, 200.0]], cc, profile, cfg))
    assert batch[0].diverged
    assert batch[0].t_diverged == trace.t_diverged
    assert len(batch[0].t) == len(trace.t)


def test_relay_probe_produces_a_limit_cycle(plant, cc):
    cfg = SimConfig(mode="speed", relay_amplitude=2.0, relay_hysteresis=0.01)
    profile = constant_speed_profile(0.2, duration=1.0, dt=1e-3)
    trace = simulate(plant, WELL_DAMPED, cc, profile, cfg)
    applied = set(np.unique(trace.i_ref))
    assert applied <= {-2.0, 0.0, 2.0}
    assert 2.0 in applied and -2.0 in applied
    flips = np.sum(np.abs(np.diff(np.sign(trace.i_ref[5:]))) > 0)
    assert flips >= 4


def test_trace_is_a_plain_record(plant, cc):
    trace = simulate(plant, WELL_DAMPED, cc, benchmark_profile())
    assert isinstance(trace, SimTrace)
    assert trace.dt == 1e-3
    assert np.array_equal(trace.e_pos, trace.r_pos - trace.y_pos)
    assert np.array_equal(trace.e_speed, trace.r_speed - trace.y_speed)
