"""Closed-loop simulator checks."""

import dataclasses

import numpy as np
import pytest

from axistune import simloop
from axistune.bench import TuningBench
from axistune.metrics import CostWeights
from axistune.presets import TRAJECTORY_PRESETS
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


def _bench_move():
    return generate_profile(TRAJECTORY_PRESETS["bench-move"])


def _gentle_profile():
    """A move whose cruise back-EMF stays well under the voltage rail."""
    from axistune.refgen import TrajectorySpec

    return generate_profile(TrajectorySpec(0.05, 0.1, 2.0, 2.0, dwell_time=0.8))


def test_gain_vector_takes_canonical_gains_and_rejects_negative_ones():
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


@pytest.mark.parametrize("name, value", [
    ("voltage_limit", float("nan")), ("voltage_limit", float("inf")),
    ("current_limit", float("nan")),
])
def test_non_finite_rails_are_rejected_by_name(name, value):
    with pytest.raises(ValueError, match=f"finite, got {name}="):
        SimConfig(**{name: value})


def test_the_tick_is_a_whole_number_of_segments_of_integrator_steps():
    # the drive composes whole RK4 steps into a tick and into each of its
    # voltage-update segments
    steps = TICK / simloop.RK4_STEP
    assert abs(steps - round(steps)) <= 1e-9
    assert round(steps) % simloop.SEGMENTS_PER_TICK == 0


def test_the_integrator_step_resolves_every_drive_mode():
    # RK4 is accurate only where h*|lambda| << 1; a mode near or past
    # that limit would be damped by the integrator, not by the physics.
    # The continuous drive matrices, closed loop, railed and railed with
    # the current integrator frozen, rebuilt from the plant model:
    from axistune.plant import LAB_SERVO, STATES, physical_state_model

    p, n = LAB_SERVO, len(STATES)
    A_ol = np.zeros((n + 1, n + 1))
    A_ol[:n, :n] = physical_state_model(p)[0]
    A_ol[n, 0] = -1.0
    A_cl = A_ol.copy()
    A_cl[0, 0] -= simloop.CURRENT_LOOP_KP / p.Ls
    A_cl[0, n] += simloop.CURRENT_LOOP_KI / p.Ls
    A_frz = A_ol.copy()
    A_frz[n, 0] = 0.0
    for A in (A_cl, A_ol, A_frz):
        assert simloop.RK4_STEP * np.abs(np.linalg.eigvals(A)).max() <= 0.01


def test_standstill_stays_at_rest():
    profile = generate_profile(dataclasses.replace(
        TRAJECTORY_PRESETS["bench-move"], position_setpoint=0.0, dwell_time=0.5))
    trace = simulate(WELL_DAMPED, profile)
    for name in ("y_pos", "y_speed", "i_q", "i_ref", "v_q", "e_pos", "e_speed"):
        assert np.all(getattr(trace, name) == 0.0), name
    assert not trace.diverged


def test_simulation_is_deterministic():
    profile = _bench_move()
    a = simulate(WELL_DAMPED, profile)
    b = simulate(WELL_DAMPED, profile)
    for name in ("y_pos", "y_speed", "i_q", "i_ref", "v_q"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_tracking_quality_at_reference_gains(monkeypatch):
    profile = _bench_move()
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
    trace = simulate(aggressive, _bench_move())
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
    for profile, delay in ((_gentle_profile(), 0), (_bench_move(), 1)):
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


@pytest.mark.parametrize("lockstep_rows", [2, 3, len(_BATCH_ROWS) + 1])
def test_batch_traces_do_not_depend_on_the_lockstep_rows(monkeypatch,
                                                         lockstep_rows):
    # a tick's railed rows run one by one or in lockstep by their count;
    # either way each batch trace is its single run's, bitwise
    monkeypatch.setattr(simloop, "LOCKSTEP_ROWS", lockstep_rows)
    _check_batch_matches_scalar_runs(_bench_move())


def test_railed_ticks_of_both_loops_go_through_one_routine(monkeypatch):
    # a tick that meets the voltage rail takes the drive's segment
    # arithmetic whichever loop simulates it: a single run's railed tick
    # and a batch tick's lone railed row through segment_tick, a batch
    # tick's several railed rows (here two or more) together through
    # segment_rows.  Each railed row-tick is counted once.
    drive = simloop._drive()
    real_one, real_rows = drive.segment_tick, drive.segment_rows
    row_ticks, block_rows = [], []

    def one(i_ref):
        row_ticks.append(1)
        return real_one(i_ref)

    def rows(Z):
        row_ticks.append(len(Z))
        block_rows.append(len(Z))
        return real_rows(Z)

    monkeypatch.setattr(drive, "segment_tick", one)
    monkeypatch.setattr(drive, "segment_rows", rows)
    monkeypatch.setattr(simloop, "LOCKSTEP_ROWS", 2)
    profile = _bench_move()
    list(simulate_batch(_BATCH_ROWS, profile))
    batch_row_ticks = sum(row_ticks)
    assert block_rows and min(block_rows) >= 2
    row_ticks.clear()
    block_rows.clear()
    for row in _BATCH_ROWS:
        simulate(GainVector(*row), profile)
    assert not block_rows
    assert len(row_ticks) == batch_row_ticks > 0


# first-segment modes of a drive row, as segment_tick picks them
_CLOSED, _RAILED, _FROZEN = "closed loop", "railed", "frozen"


def _first_mode(drive, row) -> str:
    i_ref = row[drive.nx + 1]
    v = (drive.cv0 * row[0] + drive.cv_ci * row[drive.i_ci]) + drive.d_v * i_ref
    if not (v > RAILS.voltage_limit or v < -RAILS.voltage_limit):
        return _CLOSED
    return _FROZEN if (i_ref > row[0]) == (v > 0.0) else _RAILED


def _block_rows(drive, modes, rng):
    """Rows [x | v | i_ref] of the drive whose first segment is in ``modes``."""
    nx = drive.nx
    rows = np.zeros((len(modes), nx + 2))
    for r, mode in enumerate(modes):
        while True:
            x = rng.uniform(-1.0, 1.0, nx) * [15.0, 300.0, 50.0, 1.0]
            row = np.concatenate([x, [rng.uniform(-500.0, 500.0),
                                      rng.uniform(-10.0, 10.0)]])
            if _first_mode(drive, row) == mode:
                rows[r] = row
                break
    return rows


@pytest.mark.parametrize("modes", [
    (_CLOSED, _CLOSED), (_CLOSED, _RAILED), (_CLOSED, _FROZEN),
    (_RAILED, _FROZEN), (_RAILED, _RAILED), (_FROZEN, _FROZEN),
    (_CLOSED, _RAILED, _FROZEN), (_FROZEN, _CLOSED, _RAILED),
    (_CLOSED, _RAILED, _FROZEN) * 85 + (_FROZEN, _CLOSED),
])
def test_a_block_tick_gives_each_row_its_own_segment_tick(modes):
    # segment_rows runs one gemm per segment map over all its rows and
    # commits only that map's rows; each row must come out as the bits
    # segment_tick gives it alone, whichever modes share its segments
    # (the rows also change mode within the tick)
    drive = simloop._drive()
    nx, R = drive.nx, len(modes)
    rows = _block_rows(drive, modes, np.random.default_rng(R))
    if R > 3:
        rows[5, 0] = float("nan")  # a NaN voltage runs in closed loop
        # an infinite voltage is railed, and -inf + inf is NaN
        rows[6, drive.i_ci] = float("inf")
        rows[7, drive.i_ci] = -float("inf")
        rows[8, [0, drive.i_ci]] = float("inf")
    alone = np.empty((R, nx))
    together = rows.copy()
    # inf - inf and an infinite state times a map's zero entry are NaN:
    # no warning here
    with np.errstate(invalid="ignore"):
        assert {_first_mode(drive, row) for row in rows} == set(modes)
        for r, row in enumerate(rows):
            drive.x[:] = row[:nx]
            drive.segment_tick(float(row[nx + 1]))
            alone[r] = drive.x
        drive.segment_rows(together)
    assert together[:, :nx].tobytes() == alone.tobytes()
    # the rows kept their current references
    assert np.array_equal(together[:, nx + 1], rows[:, nx + 1])


def test_map_products_do_not_depend_on_the_row_count():
    # The rail-free tick multiplies a two-row block in a single run and
    # up to a chunk's runs plus a pad row in a batch; a segment map
    # multiplies two rows in segment_tick and up to a chunk's runs in
    # segment_rows.  Their rows agree only if this BLAS computes a gemm
    # row the same way for any row count and offset: true of the
    # OpenBLAS builds this was written on, but not a BLAS guarantee, so
    # a build where it fails must fail here.  All four maps rely on it.
    # The sweep reaches the largest chunk of any preset's move, plus its
    # pad row.
    from axistune.presets import PRESETS

    top = 1 + max(simloop.BATCH_RUN_TICKS // len(generate_profile(p.trajectory))
                  for p in PRESETS.values())
    drive = simloop._drive()
    nx = drive.nx
    rng = np.random.default_rng(0)
    size = top + 20
    block = rng.standard_normal((size, nx + 2)) * 10.0 ** rng.uniform(
        -3.0, 3.0, (size, nx + 2))
    for S in (drive.T_cl, drive.S_cl, drive.S_ol, drive.S_frz):
        assert S.shape == (nx + 2, nx)
        pair = np.zeros((2, nx + 2))
        alone = np.empty((len(block), nx))
        for r, row in enumerate(block):
            pair[0] = row
            alone[r] = pair.dot(S)[0]
        for m in range(2, top + 1):
            for offset in {0, 1, 3, size - m}:
                assert np.array_equal(block[offset:offset + m].dot(S),
                                      alone[offset:offset + m]), (m, offset)


def test_in_place_products_equal_the_allocating_products():
    # the drive writes each map's product into its own preallocated
    # buffer; that must be the bits an allocating two-row gemm gives
    drive = simloop._drive()
    nx = drive.nx
    rng = np.random.default_rng(1)
    n = 10_000
    block = rng.choice([-1.0, 1.0], (n, nx + 2)) * 10.0 ** rng.uniform(
        -8.0, 8.0, (n, nx + 2))
    pair = np.zeros((2, nx + 2))
    for S in (drive.T_cl, drive.S_cl, drive.S_ol, drive.S_frz):
        in_place = np.empty((n, nx))
        alone = np.empty((n, nx))
        for r, row in enumerate(block):
            drive.x[:] = row[:nx]
            drive.advance(S, float(row[nx]), float(row[nx + 1]))
            in_place[r] = drive.prod[:nx]
            pair[0] = row
            alone[r] = pair.dot(S)[0]
        assert in_place.tobytes() == alone.tobytes()


def _pad_is_zero(drive) -> bool:
    pad = drive.operand[drive.nx + 2:]
    return len(pad) == drive.nx + 2 and pad.tobytes() == bytes(8 * len(pad))


def test_the_operand_pad_row_stays_zero(monkeypatch, chunk_log):
    # every gemm's second row is the pad; a run that wrote it would
    # change the products of every later run
    drive = simloop._drive()
    profile = _bench_move()
    simulate(GainVector(4200.0, 0.5, 900.0), profile)
    assert _pad_is_zero(drive)
    simulate(GainVector(0.0, 0.5, 90.0), constant_speed_profile(0.2, 0.2),
             relay=2.0)
    assert _pad_is_zero(drive)
    monkeypatch.setattr(simloop, "BATCH_RUN_TICKS", 2 * len(profile))
    list(simulate_batch(_BATCH_ROWS, profile))
    assert [runs for _, runs in chunk_log()] == [2, 2, 2, 1]
    assert _pad_is_zero(drive)


def test_a_single_run_between_batch_items_changes_no_trace(monkeypatch,
                                                           chunk_log):
    # the drive's operand is scratch shared by both loops: a single run
    # made while a multi-chunk batch is suspended between its yields must
    # leave the batch's later chunks as they would have been, and run as
    # it would have alone
    profile = _bench_move()
    monkeypatch.setattr(simloop, "BATCH_RUN_TICKS", 2 * len(profile))
    straight = list(simulate_batch(_BATCH_ROWS, profile))
    railed_gains = GainVector(4200.0, 0.5, 900.0)
    alone = simulate(railed_gains, profile)
    assert np.max(np.abs(alone.v_q)) == RAILS.voltage_limit
    interrupted = []
    for trace in simulate_batch(_BATCH_ROWS, profile):
        interrupted.append(trace)
        _assert_traces_equal(simulate(railed_gains, profile), alone)
    assert [runs for _, runs in chunk_log()] == [2, 2, 2, 1] * 2
    assert len(interrupted) == len(straight)
    for a, b in zip(interrupted, straight):
        _assert_traces_equal(a, b)
    # the batch's later chunks ran railed ticks too
    assert any(np.max(np.abs(t.v_q)) == RAILS.voltage_limit
               for t in straight[2:])


def test_batch_rejects_a_two_column_array():
    profile = _bench_move()
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
        list(simulate_batch([[150.0, 0.5, 90.0], row], _bench_move()))


def test_divergence_truncates_and_flags(monkeypatch):
    monkeypatch.setattr(simloop, "DIVERGENCE_LIMIT", 1e-9)
    profile = _bench_move()
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


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_a_non_finite_state_flags_divergence_in_both_loops(monkeypatch, bad):
    # a non-finite value planted in one state slot after a railed tick
    # stops the single run and the batch row at the same tick.  The speed
    # is clamped to its rail before the check, so an infinite speed is
    # clamped, in both loops alike, not flagged.
    drive = simloop._drive()
    monkeypatch.setattr(simloop, "LOCKSTEP_ROWS", 2)
    profile = _bench_move()
    railed = [4200.0, 0.5, 900.0]
    clean = simulate(GainVector(*railed), profile)
    calm = simulate(WELL_DAMPED, profile)
    real_one, real_rows = drive.segment_tick, drive.segment_rows
    for slot in range(drive.nx):
        ticks = [0]

        def one(i_ref):
            real_one(i_ref)
            ticks[0] += 1
            if ticks[0] == 3:
                drive.operand[slot] = bad

        def rows(Z):
            # rows 0 and 1 rail together, so they are the routine's first
            # two rows at every one of their railed ticks
            real_rows(Z)
            ticks[0] += 1
            if ticks[0] == 3:
                Z[0, slot] = bad

        monkeypatch.setattr(drive, "segment_tick", one)
        single = simulate(GainVector(*railed), profile)
        monkeypatch.setattr(drive, "segment_tick", real_one)
        monkeypatch.setattr(drive, "segment_rows", rows)
        ticks[0] = 0
        batch = list(simulate_batch(
            [railed, railed, [WELL_DAMPED.kp, WELL_DAMPED.kv, WELL_DAMPED.ki]],
            profile))
        monkeypatch.setattr(drive, "segment_rows", real_rows)
        clamped = slot == drive.i_w and not np.isnan(bad)
        assert single.diverged is not clamped, slot
        _assert_traces_equal(batch[0], single)
        _assert_traces_equal(batch[1], clean)
        _assert_traces_equal(batch[2], calm)
        if not clamped:
            # stopped at the tick after the plant: a run that went on
            # would record the planted value, or a value it reached
            n = len(single)
            assert n < len(clean)
            for name in _CHANNELS:
                assert np.array_equal(getattr(single, name),
                                      getattr(clean, name)[:n]), (slot, name)


def test_relay_probe_produces_a_limit_cycle():
    profile = constant_speed_profile(0.2, duration=1.0)
    trace = simulate(GainVector(0.0, 0.5, 90.0), profile, relay=2.0)
    applied = set(np.unique(trace.i_ref))
    assert applied <= {-2.0, 0.0, 2.0}
    assert 2.0 in applied and -2.0 in applied
    flips = np.sum(np.abs(np.diff(np.sign(trace.i_ref[5:]))) > 0)
    assert flips >= 4


def test_relay_at_standstill_switches_the_current():
    # the classical tuners' relay probe: the current reference flips
    # between +/- the amplitude
    trace = simulate(GainVector(0.0, 1.0, 0.0), constant_speed_profile(0.0, 1.0),
                     relay=2.0)
    assert set(np.unique(trace.i_ref)) <= {-2.0, 0.0, 2.0}
    flips = np.sum(np.abs(np.diff(np.sign(trace.i_ref[5:]))) > 0)
    assert flips >= 4


def test_speed_step_with_the_position_loop_open():
    # the Ziegler-Nichols probe: a pure P speed loop (kp = 0, ki = 0) at
    # healthy gain stepped to a constant speed reaches its neighborhood
    trace = simulate(GainVector(0.0, 0.5, 0.0), constant_speed_profile(0.1, 0.5))
    assert np.all(trace.r_speed == 0.1)
    assert abs(trace.y_speed[-1] - 0.1) <= 0.05


def test_trace_is_a_plain_record():
    trace = simulate(WELL_DAMPED, _bench_move())
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
    bench = TuningBench(CostWeights(pos_settling=1.0), _bench_move())
    bench.cost((150.0, 0.5, 90.0))
    simulate(GainVector(0.0, 1.0, 0.0), constant_speed_profile(0.0, 0.05),
             relay=2.0)
    bench.evaluate_many([[300.0, 0.45, 90.0], [600.0, 0.3, 360.0]])
    assert len(built) == 3
    assert all(d is real() for d in built)
