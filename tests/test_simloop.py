"""Closed-loop simulator checks."""

import dataclasses

import numpy as np
import pytest

from axistune import simloop
from axistune.bench import BENCH_MOVE, TuningBench, benchmark_profile
from axistune.metrics import CostWeights
from axistune.refgen import TICK, constant_speed_profile, generate_profile
from axistune.simloop import (
    RAILS,
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

    return generate_profile(TrajectorySpec(0.05, 0.1, 2.0, 2.0, dwell_time=0.8))


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


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("field", ["kp", "kv", "ki"])
def test_gain_vector_rejects_non_finite_gains(field, bad):
    gains = {"kp": 150.0, "kv": 0.5, "ki": 90.0, field: bad}
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        GainVector(**gains)


def test_config_validation():
    probe = constant_speed_profile(0.0, 0.1)
    open_loop = GainVector(0.0, 0.5, 90.0)
    with pytest.raises(ValueError):
        simulate(open_loop, probe, relay=0.0)
    with pytest.raises(ValueError):
        simulate(open_loop, probe, relay=-1.0)
    for relay in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="relay amplitude"):
            simulate(open_loop, probe, relay=relay)
    with pytest.raises(ValueError):
        # the relay replaces the speed PI only with the position loop open
        simulate(WELL_DAMPED, probe, relay=1.0)
    for rails in ({"voltage_limit": 0.0}, {"current_limit": -1.0}):
        with pytest.raises(ValueError, match="saturation limits must be positive"):
            SimConfig(**rails)


def test_the_tick_is_a_whole_number_of_segments_of_integrator_steps():
    # the drive composes whole RK4 steps into a tick and into each of its
    # voltage-update segments
    steps = TICK / simloop.RK4_STEP
    assert abs(steps - round(steps)) <= 1e-9
    assert round(steps) % simloop.SEGMENTS_PER_TICK == 0


def test_standstill_stays_at_rest():
    profile = generate_profile(
        dataclasses.replace(BENCH_MOVE, position_setpoint=0.0, dwell_time=0.5))
    trace = simulate(WELL_DAMPED, profile)
    for name in ("y_pos", "y_speed", "i_q", "i_ref", "v_q", "e_pos", "e_speed"):
        assert np.all(getattr(trace, name) == 0.0), name
    assert not trace.diverged


def test_simulation_is_deterministic():
    profile = benchmark_profile()
    a = simulate(WELL_DAMPED, profile)
    b = simulate(WELL_DAMPED, profile)
    for name in ("y_pos", "y_speed", "i_q", "i_ref", "v_q"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_tracking_quality_at_reference_gains(monkeypatch):
    profile = benchmark_profile()
    trace = simulate(WELL_DAMPED, profile)
    assert not trace.diverged
    assert len(trace.t) == len(profile)
    # the move never touches a rail at these gains, so the axis settles
    # completely during the dwell despite the one-tick command latency
    assert abs(trace.y_pos[-1] - 0.1) <= 1e-9
    assert np.max(np.abs(trace.y_speed[-100:])) <= 1e-6
    assert np.max(np.abs(trace.i_ref)) < RAILS.current_limit

    # removing the lag entirely changes nothing qualitative
    monkeypatch.setattr(simloop, "COMMAND_DELAY_TICKS", 0)
    ideal = simulate(WELL_DAMPED, profile)
    assert abs(ideal.y_pos[-1] - 0.1) <= 1e-9
    assert np.max(np.abs(ideal.y_speed[-100:])) <= 1e-6


def test_actuator_limits_are_respected():
    aggressive = GainVector(4200.0, 0.5, 900.0)
    trace = simulate(aggressive, benchmark_profile())
    assert np.max(np.abs(trace.i_ref)) <= RAILS.current_limit + 1e-12
    assert np.max(np.abs(trace.v_q)) <= RAILS.voltage_limit + 1e-12
    # this move is harsh enough to actually hit the current rail
    assert np.max(np.abs(trace.i_ref)) == pytest.approx(RAILS.current_limit)


# A pure P speed loop (position loop open) stepped to 0.2 m/s asks for
# far more than the current rail, so the drive sees the railed command
# for at least the first RAIL_TICKS ticks after it arrives.
STEP_GAINS = GainVector(0.0, 0.5, 0.0)
RAIL_TICKS = 9


def _speed_step(monkeypatch, delay):
    monkeypatch.setattr(simloop, "COMMAND_DELAY_TICKS", delay)
    profile = constant_speed_profile(0.2, duration=0.05)
    return simulate(STEP_GAINS, profile)


def test_command_delay_shifts_the_applied_current(monkeypatch):
    # the drive must see nothing until the first command arrives, then
    # the railed command exactly five ticks late
    trace = _speed_step(monkeypatch, delay=5)
    assert np.all(trace.i_ref[:5] == 0.0)
    assert np.all(trace.i_ref[5:5 + RAIL_TICKS] == RAILS.current_limit)


def test_zero_delay_acts_immediately(monkeypatch):
    trace = _speed_step(monkeypatch, delay=0)
    imax = RAILS.current_limit
    assert np.all(trace.i_ref[:RAIL_TICKS] == imax)
    assert trace.i_ref[RAIL_TICKS] < imax


_CHANNELS = ("t", "r_pos", "y_pos", "r_speed", "y_speed", "i_q", "i_ref",
             "v_q", "e_pos", "e_speed")


def _assert_traces_equal(a: SimTrace, b: SimTrace) -> None:
    assert (a.diverged, a.t_diverged) == (b.diverged, b.t_diverged)
    for name in _CHANNELS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_batch_matches_scalar_runs(monkeypatch):
    # both paths do the same IEEE operations per run, so the traces agree
    # bitwise, also once the rails engage and switching instants would
    # amplify any roundoff difference
    for profile, delay in ((_gentle_profile(), 0), (benchmark_profile(), 1)):
        monkeypatch.setattr(simloop, "COMMAND_DELAY_TICKS", delay)
        _check_batch_matches_scalar_runs(profile)


_BATCH_ROWS = np.array(
    [
        [150.0, 0.50, 90.0],
        [300.0, 0.45, 90.0],
        [150.0, 0.35, 90.0],
        [0.0, 0.50, 90.0],  # position loop open: a speed probe
        [450.0, 0.25, 720.0],
        [600.0, 0.30, 360.0],
        [4200.0, 0.50, 900.0],
    ]
)


def _check_batch_matches_scalar_runs(profile):
    batch = list(simulate_batch(_BATCH_ROWS, profile))
    assert len(batch) == len(_BATCH_ROWS)
    v_railed = 0
    for row, bt in zip(_BATCH_ROWS, batch):
        st = simulate(GainVector(*row), profile)
        assert not st.diverged
        _assert_traces_equal(st, bt)
        v_railed += np.max(np.abs(st.v_q)) == RAILS.voltage_limit
    # the comparison covers runs on the voltage rail
    assert v_railed >= 2


def test_railed_ticks_of_both_loops_go_through_one_routine(monkeypatch):
    # a tick that meets the voltage rail runs through the drive's one
    # segment_tick, whichever loop simulates it
    drive = simloop._drive()
    real = drive.segment_tick
    calls = []

    def counted(xs, i_ref):
        calls.append(None)
        return real(xs, i_ref)

    monkeypatch.setattr(drive, "segment_tick", counted)
    profile = benchmark_profile()
    list(simulate_batch(_BATCH_ROWS, profile))
    batch_calls = len(calls)
    calls.clear()
    for row in _BATCH_ROWS:
        simulate(GainVector(*row), profile)
    assert len(calls) == batch_calls > 0


def test_map_products_do_not_depend_on_the_row_count():
    # The rail-free tick multiplies a two-row block in a single run and
    # up to a chunk's runs plus a pad row in a batch.  Their rows agree
    # only if this BLAS computes a gemm row the same way for any row
    # count and offset: true of the OpenBLAS builds this was written
    # on, but not a BLAS guarantee, so a build where it fails must fail
    # here.  Only T_cl relies on it (the segment maps always multiply
    # two rows); the segment maps are checked as well.
    drive = simloop._drive()
    nx = drive.nx
    rng = np.random.default_rng(0)
    block = rng.standard_normal((320, nx + 2)) * 10.0 ** rng.uniform(
        -3.0, 3.0, (320, nx + 2))
    for S in (drive.T_cl, drive.S_cl, drive.S_ol, drive.S_frz):
        assert S.shape == (nx + 2, nx)
        pair = np.zeros((2, nx + 2))
        alone = np.empty((len(block), nx))
        for r, row in enumerate(block):
            pair[0] = row
            alone[r] = pair.dot(S)[0]
        for m in range(2, 301):
            for offset in {0, 1, 3, 320 - m}:
                assert np.array_equal(block[offset:offset + m].dot(S),
                                      alone[offset:offset + m]), (m, offset)


def test_batch_rejects_unsupported_modes():
    profile = benchmark_profile()
    with pytest.raises(ValueError):
        list(simulate_batch(np.zeros((1, 2)), profile))


@pytest.mark.parametrize("row", [
    [-150.0, 0.5, 90.0],
    [150.0, -0.5, 90.0],
    [150.0, 0.0, 90.0],
    [150.0, 0.5, -90.0],
    [float("nan"), 0.5, 90.0],
    [150.0, float("inf"), 90.0],
    [150.0, 0.5, float("nan")],
])
def test_batch_rejects_rows_the_gain_vector_rejects(row):
    # a row a single run cannot take is refused, not simulated
    with pytest.raises(ValueError):
        list(simulate_batch([[150.0, 0.5, 90.0], row], benchmark_profile()))


def test_divergence_truncates_and_flags(monkeypatch):
    monkeypatch.setattr(simloop, "DIVERGENCE_LIMIT", 1e-9)
    profile = benchmark_profile()
    trace = simulate(WELL_DAMPED, profile)
    assert trace.diverged
    assert trace.t_diverged is not None
    assert len(trace.t) < len(profile)
    assert trace.t_diverged == pytest.approx(trace.t[-1] + TICK)

    triples = [[150.0, 0.5, 90.0], [150.0, 0.19, 200.0]]
    batch = list(simulate_batch(triples, profile))
    assert batch[0].diverged
    _assert_traces_equal(batch[0], trace)
    _assert_traces_equal(
        batch[1], simulate(GainVector(*triples[1]), profile))


def test_relay_probe_produces_a_limit_cycle():
    profile = constant_speed_profile(0.2, duration=1.0)
    trace = simulate(GainVector(0.0, 0.5, 90.0), profile, relay=2.0)
    applied = set(np.unique(trace.i_ref))
    assert applied <= {-2.0, 0.0, 2.0}
    assert 2.0 in applied and -2.0 in applied
    flips = np.sum(np.abs(np.diff(np.sign(trace.i_ref[5:]))) > 0)
    assert flips >= 4


def test_trace_is_a_plain_record():
    trace = simulate(WELL_DAMPED, benchmark_profile())
    assert isinstance(trace, SimTrace)
    assert np.array_equal(trace.e_pos, trace.r_pos - trace.y_pos)
    assert np.array_equal(trace.e_speed, trace.r_speed - trace.y_speed)


def test_cascade_relay_and_batch_runs_share_one_drive(monkeypatch):
    # the axis's drive maps are built once and every kind of run uses them
    built = []
    real = simloop._drive

    def recorded():
        built.append(real())
        return built[-1]

    monkeypatch.setattr(simloop, "_drive", recorded)
    bench = TuningBench(CostWeights(pos_settling=1.0))
    bench.cost((150.0, 0.5, 90.0))
    bench.relay_run(amplitude=2.0, duration=0.05)
    bench.evaluate_many([[300.0, 0.45, 90.0], [600.0, 0.3, 360.0]])
    assert len(built) == 3
    assert all(d is real() for d in built)
