"""Closed-loop time-domain simulation of the cascaded servo axis.

Loop structure, innermost to outermost:

* The q-current controller lives in the drive and is far faster than
  the outer loops, so it is modeled continuously: its integrator state
  is appended to the plant states and the whole servo drive propagates
  as one linear system between controller ticks.  The drive applies a PI
  law; against the winding inductance and the supply rail a derivative
  path would demand current slews below a few amperes per second to stay
  inside the rail, so it would be clipped into irrelevance.
* The speed PI and the position P controller run discretely at the
  controller tick.  The position error and feed-forward speed reference
  are in linear units; their sum converts through the screw lead into
  an angular speed command, so the speed loop works on motor angular
  velocity -- the same quantity its gains act on in the drive.
* The current reference is clamped at the tick; the speed integrator
  uses conditional anti-windup (it stops accumulating while the clamp
  is active and the error keeps pushing outward).  The drive acts on
  the command issued ``COMMAND_DELAY_TICKS`` ticks earlier.

The controller tick is ``refgen.TICK``, the grid every profile is
sampled on, so a profile and the loop cannot disagree about it.
Voltage saturation is resolved at the drive's voltage-update period,
``SEGMENTS_PER_TICK`` segments per tick: each segment holds the clamped PI
voltage, and the current-loop integrator is frozen while the rail is
active with the error still pushing outward.  Ticks whose voltage stays
inside the rails take a precomputed linear step instead -- between
saturation events the drive is exactly the continuous linear model.

Between updates the inputs are zero-order-held and the linear servo
model advances by classical fixed-step fourth-order integration at
``RK4_STEP``.  Because a held input makes every step the same affine
map, per-tick and per-segment transitions are precomputed as matrix
powers once, on the first run.  They agree with stepping the
integrator step by step only to roundoff: the composed products round
differently.

Every run simulates the one axis: the ``plant.LAB_SERVO`` plant under
the current-loop PI ``CURRENT_LOOP_KP``, ``CURRENT_LOOP_KI``, inside the
rails ``RAILS``.

Speed probing is the same cascade with kp = 0: the position loop is
open and the speed channel tracks the profile's speed.  The relay
probe of the classical autotuners replaces the speed PI with an ideal
relay; only `simulate` runs it, through its ``relay`` argument.
`simulate` (one run) and `simulate_batch` (many runs) take the same
gain rows and return the same trace channels.  For one run they do the
same IEEE operations in the same order: the voltage as two products in
a fixed order, a railed tick through the drive's one ``segment_tick``,
and a rail-free tick as a gemm of at least two rows, whose rows do not
depend on the row count.  That last is a property of the BLAS build,
not a BLAS guarantee; the test suite checks it.  So a gain triple has
one trace, bitwise, whichever path or chunk ran it.  That holds across
worker processes too: ``TuningBench.evaluate_many`` scores a batch in
workers forked from the calling process, each of which runs this code
on the same BLAS library and builds, or inherits, the same drive maps
from the same constants.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass

import numpy as np

from .plant import LAB_SERVO, STATES, physical_state_model
from .refgen import TICK, ReferenceProfile

__all__ = [
    "GainVector",
    "CURRENT_LOOP_KP",
    "CURRENT_LOOP_KI",
    "RAILS",
    "SimConfig",
    "SimTrace",
    "runs_per_chunk",
    "simulate",
    "simulate_batch",
]

# Integrator step of the drive maps [s].  At 1 us, RK4 damps the screw's
# 1.08e6 rad/s axial mode (h*|lambda| = 1.08) by |R| = 0.9904 per step
# against the physical 0.9996, i.e. about 1e4 times more per millisecond
# than the plant does.  Exact zero-order-hold maps are planned to
# replace it (see ROADMAP.md).
RK4_STEP = 1e-6

# Voltage-update segments per tick while the supply rail is active; it
# divides the integrator steps per tick (a tier-1 test checks both).
SEGMENTS_PER_TICK = 20

# Transport latency of the control architecture, in whole ticks: the
# outer loops run in a PLC and their current command crosses a fieldbus
# to the drive, while measurements cross back, so the drive acts on a
# command issued whole ticks earlier.  This pure delay -- not the
# electrical dynamics -- is what bounds the usable speed-loop gain.  One
# tick is the classical compute-now-apply-next-tick latency of a
# synchronous digital loop; it puts the proportional speed loop's
# sustained-oscillation boundary near gain 1.4.  Zero would be an
# idealized zero-latency loop; each extra tick lowers the oscillation
# boundary roughly in proportion.
COMMAND_DELAY_TICKS = 1

# The drive's internal q-current PI: proportional gain [V/A] and
# integral gain [V/(A s)].
CURRENT_LOOP_KP = 60.0
CURRENT_LOOP_KI = 1000.0

# A run whose state magnitude passes this is stopped and flagged as
# diverged.
DIVERGENCE_LIMIT = 1e12

# Run-ticks (runs times profile ticks) per vectorized chunk in
# `simulate_batch`; peak memory scales with it.  256 runs of the
# 1,451-tick desk move; a 25,009-tick plc chunk holds 14 runs.
BATCH_RUN_TICKS = 256 * 1451


@dataclass(frozen=True)
class GainVector:
    """Cascade gains under tuning: position P, speed PI.

    Every gain is finite.  Kp may be zero (position loop off, pure
    feed-forward); the speed gain must be positive and the integral gain
    non-negative.
    """

    kp: float
    kv: float
    ki: float

    def __post_init__(self) -> None:
        for name in ("kp", "kv", "ki"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.kp < 0.0:
            raise ValueError("kp must be non-negative")
        if self.kv <= 0.0:
            raise ValueError("kv must be positive")
        if self.ki < 0.0:
            raise ValueError("ki must be non-negative")


@dataclass(frozen=True)
class SimConfig:
    """The drive's two rails.

    ``voltage_limit`` is the q-axis voltage ceiling, i.e. the DC bus
    seen by the inverter; the 325 V default is a rectified 230 VAC
    single-phase supply.  ``current_limit`` caps the current command
    (and so the achievable torque); both rails engage symmetrically.

    ``RAILS`` is the only instance, and every run uses it.  Its values
    are the defaults here, which perfbench's rail counters read too.
    """

    voltage_limit: float = 325.0
    current_limit: float = 10.0

    def __post_init__(self) -> None:
        if self.voltage_limit <= 0.0 or self.current_limit <= 0.0:
            raise ValueError("saturation limits must be positive")


RAILS = SimConfig()


@dataclass
class SimTrace:
    """Per-tick record of one simulated run, one row per ``TICK``.

    All arrays share one length; ``e_pos``/``e_speed`` are the pointwise
    reference-minus-measurement errors.  A diverged run is truncated at
    the last finite sample and stamped with the divergence time.
    """

    t: np.ndarray
    r_pos: np.ndarray
    y_pos: np.ndarray
    r_speed: np.ndarray
    y_speed: np.ndarray
    i_q: np.ndarray
    i_ref: np.ndarray
    v_q: np.ndarray
    e_pos: np.ndarray
    e_speed: np.ndarray
    diverged: bool = False
    t_diverged: float | None = None

    def __len__(self) -> int:
        return len(self.t)


# -- drive assembly -----------------------------------------------------------


def _rk4_step_maps(A: np.ndarray, B: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """One-step transition (M, N) of classical RK4 on dx = Ax + Bu, u held."""
    n = A.shape[0]
    eye = np.eye(n)
    Ah = A * h
    Ah2 = Ah @ Ah
    Ah3 = Ah2 @ Ah
    Ah4 = Ah3 @ Ah
    M = eye + Ah + Ah2 / 2.0 + Ah3 / 6.0 + Ah4 / 24.0
    N = (eye * h + Ah * (h / 2.0) + Ah2 * (h / 6.0) + Ah3 * (h / 24.0)) @ B
    return M, N


def _compose(M: np.ndarray, N: np.ndarray, n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Composition of n_steps identical affine steps under a held input."""
    n = M.shape[0]
    S = np.zeros((n, n))
    P = np.eye(n)
    for _ in range(n_steps):
        S += P
        P = M @ P
    return P, S @ N


class _Drive:
    """Precomputed transition maps of ``LAB_SERVO`` plus its continuous
    current PI.

    States: plant states, then the current-loop integral ``x_ci``.  The
    applied voltage is v = CURRENT_LOOP_KP (i_ref - i) + CURRENT_LOOP_KI
    x_ci, i.e.
    ``(cv0 * x[0] + cv_ci * x[i_ci]) + d_v * i_ref``.  Each map is one
    augmented ``(nx + 2, nx)`` matrix taking a row ``[x | v | i_ref]``
    (the held voltage and current reference after the state) to the
    next state row: ``T_cl`` advances a rail-free tick; ``S_cl``,
    ``S_ol`` and ``S_frz`` advance one voltage-update segment in closed
    loop, railed, and railed with the current integrator frozen.  A map
    that an input does not drive has a zero row for it.
    """

    def __init__(self):
        p = LAB_SERVO
        self.lead, self.wmax = p.lead_per_rad, p.omega_max
        A_pl, B_pl = physical_state_model(p)
        n_pl = len(STATES)
        self.i_w, self.i_th = STATES.index("w_m"), STATES.index("th_m")

        nx = n_pl + 1
        self.nx = nx
        i_ci = self.i_ci = n_pl
        self.cv0, self.cv_ci, self.d_v = (
            -CURRENT_LOOP_KP, CURRENT_LOOP_KI, CURRENT_LOOP_KP)

        def base_matrices() -> tuple[np.ndarray, np.ndarray]:
            """Drive with the voltage as an external input: u = [v, tau, i_ref].

            No run applies a load torque, but the tau column stays in B:
            without it the composed input maps differ in the last bits,
            and railed costs would move with them.
            """
            A = np.zeros((nx, nx))
            A[:n_pl, :n_pl] = A_pl
            A[i_ci, 0] = -1.0
            B = np.zeros((nx, 3))
            B[:n_pl, :2] = B_pl
            B[i_ci, 2] = 1.0
            return A, B

        # closed loop: v follows from the state, inputs [i_ref, tau]
        A_ol, B_ol = base_matrices()
        A_cl = A_ol.copy()
        A_cl[0, 0] += self.cv0 / p.Ls
        A_cl[0, i_ci] += self.cv_ci / p.Ls
        B_cl = np.zeros((nx, 2))
        B_cl[:, 0] = B_ol[:, 2]
        B_cl[0, 0] += self.d_v / p.Ls
        B_cl[:, 1] = B_ol[:, 1]

        # railed, integrator frozen (anti-windup active)
        A_frz, B_frz = base_matrices()
        A_frz[i_ci, 0] = 0.0
        B_frz[i_ci, 2] = 0.0

        h = RK4_STEP
        n_sub = round(TICK / h)
        per_seg = n_sub // SEGMENTS_PER_TICK

        def augmented(M: np.ndarray, N: np.ndarray, v: int | None,
                      i: int | None) -> np.ndarray:
            """[M^T; column v of N; column i of N], a zero row for None."""
            T = np.zeros((nx + 2, nx))
            T[:nx] = M.T
            if v is not None:
                T[nx] = N[:, v]
            if i is not None:
                T[nx + 1] = N[:, i]
            return T

        M, N = _rk4_step_maps(A_cl, B_cl, h)
        self.T_cl = augmented(*_compose(M, N, n_sub), None, 0)
        S_cl = self.S_cl = augmented(*_compose(M, N, per_seg), None, 0)
        M, N = _rk4_step_maps(A_ol, B_ol, h)
        S_ol = self.S_ol = augmented(*_compose(M, N, per_seg), 0, 2)
        M, N = _rk4_step_maps(A_frz, B_frz, h)
        S_frz = self.S_frz = augmented(*_compose(M, N, per_seg), 0, None)

        # a state is a list of Python floats, without numpy scalars'
        # overhead; each map multiplies a two-row block whose second row
        # stays zero (``dot`` is the gemm of ``@`` without ufunc dispatch)
        rows = np.zeros((2, nx + 2))
        cv0, cv_ci, d_v = self.cv0, self.cv_ci, self.d_v
        vmax = RAILS.voltage_limit

        def advance(S: np.ndarray, xs: list, v: float, i_ref: float) -> list:
            rows[0] = (*xs, v, i_ref)
            return rows.dot(S)[0].tolist()

        def segment_tick(xs: list, i_ref: float) -> list:
            """One tick at the voltage-update rate; both loops' railed ticks."""
            v_ref = d_v * i_ref
            for _ in range(SEGMENTS_PER_TICK):
                v = (cv0 * xs[0] + cv_ci * xs[i_ci]) + v_ref
                if v > vmax or v < -vmax:
                    S = S_frz if (i_ref > xs[0]) == (v > 0.0) else S_ol
                    xs = advance(S, xs, math.copysign(vmax, v), i_ref)
                else:
                    xs = advance(S_cl, xs, v, i_ref)
            return xs

        self.advance, self.segment_tick = advance, segment_tick


@functools.cache
def _drive() -> _Drive:
    """The axis's drive, built on the first run and shared by every run."""
    return _Drive()


def _trace(profile: ReferenceProfile, div_at: int | None,
           y_pos, y_speed, i_q, i_ref, v_q) -> SimTrace:
    """One run's record from its per-tick channels (numpy or C-double arrays).

    A run that diverged on reaching tick ``div_at`` is truncated before
    that tick and stamped with its time.
    """
    end = len(profile) if div_at is None else div_at
    t, r_pos, r_spd, y_pos, y_speed, i_q, i_ref, v_q = (
        np.array(a[:end], dtype=float)
        for a in (profile.t, profile.position, profile.speed,
                  y_pos, y_speed, i_q, i_ref, v_q))
    return SimTrace(
        t=t, r_pos=r_pos, y_pos=y_pos, r_speed=r_spd, y_speed=y_speed,
        i_q=i_q, i_ref=i_ref, v_q=v_q, e_pos=r_pos - y_pos,
        e_speed=r_spd - y_speed, diverged=div_at is not None,
        t_diverged=None if div_at is None else float(profile.t[div_at]),
    )


# -- the loop ------------------------------------------------------------------


def simulate(
    gains: GainVector,
    profile: ReferenceProfile,
    relay: float | None = None,
) -> SimTrace:
    """Run the cascade against a reference profile.

    The plant, current loop and rails are the module's one axis (see
    the module docstring); only the outer gains and the move vary.

    Parameters
    ----------
    gains : GainVector
        The outer loops' gains.  With a relay, kp must be 0 and the
        speed gains are unused.
    profile : ReferenceProfile
    relay : float, optional
        Replaces the speed PI with an ideal relay of this positive
        current amplitude, switching on the sign of the speed error, for
        limit-cycle probing.

    Returns
    -------
    SimTrace
        One row per controller tick, aligned with the profile.  If any
        state magnitude passes ``DIVERGENCE_LIMIT`` (or goes
        non-finite) the trace is truncated there and flagged instead of
        raising.
    """
    if relay is not None and not (math.isfinite(relay) and relay > 0.0):
        raise ValueError("the relay amplitude must be positive and finite")
    if relay is not None and gains.kp != 0.0:
        raise ValueError("the relay replaces the speed PI only with the "
                         "position loop open (kp = 0)")
    kp, kv, ki = gains.kp, gains.kv, gains.ki
    drive = _drive()
    lead = drive.lead
    inv_lead = 1.0 / lead
    n = len(profile)
    dt = TICK

    # the per-tick arithmetic runs on Python floats; arrays of C doubles
    # hold them at 8 bytes each
    r_pos, r_spd = array("d", profile.position), array("d", profile.speed)
    y_pos_a, y_speed_a, i_q_a, i_ref_a, v_q_a = (array("d") for _ in range(5))

    T_cl, advance, segment_tick = drive.T_cl, drive.advance, drive.segment_tick
    cv0, cv_ci, d_v = drive.cv0, drive.cv_ci, drive.d_v
    i_w, i_th, i_ci = drive.i_w, drive.i_th, drive.i_ci

    vmax, imax, wmax = RAILS.voltage_limit, RAILS.current_limit, drive.wmax
    div_lim = DIVERGENCE_LIMIT

    xs = [0.0] * drive.nx
    integ = 0.0  # speed-loop integral of angular speed error [rad]
    delay = COMMAND_DELAY_TICKS
    cmd_hist = array("d")  # clamped current commands, by tick
    relay_sign = 1.0
    div_at: int | None = None

    for k in range(n):
        y_pos = xs[i_th] * lead
        y_spd = xs[i_w] * lead

        # outer loops; the relay keeps its last sign on a zero error
        v_cmd = kp * (r_pos[k] - y_pos) + r_spd[k]
        w_err = (v_cmd - y_spd) * inv_lead
        if relay is not None:
            if w_err > 0.0:
                relay_sign = 1.0
            elif w_err < 0.0:
                relay_sign = -1.0
            i_raw = relay * relay_sign
        else:
            i_raw = kv * w_err + ki * integ

        if i_raw > imax:
            i_cmd = imax
        elif i_raw < -imax:
            i_cmd = -imax
        else:
            i_cmd = i_raw
        if relay is None and (i_raw == i_cmd or (i_raw > 0.0) != (w_err > 0.0)):
            integ += w_err * dt

        # the drive acts on the command issued ``delay`` ticks ago
        cmd_hist.append(i_cmd)
        i_ref = cmd_hist[k - delay] if k >= delay else 0.0

        v_pred = (cv0 * xs[0] + cv_ci * xs[i_ci]) + d_v * i_ref
        in_rails = -vmax <= v_pred <= vmax

        y_pos_a.append(y_pos)
        y_speed_a.append(y_spd)
        i_q_a.append(xs[0])
        i_ref_a.append(i_ref)
        v_q_a.append(v_pred if in_rails else math.copysign(vmax, v_pred))

        if k == n - 1:
            break

        if in_rails:
            x_next = advance(T_cl, xs, v_pred, i_ref)
            v_end = (cv0 * x_next[0] + cv_ci * x_next[i_ci]) + d_v * i_ref
            xs = x_next if -vmax <= v_end <= vmax else segment_tick(xs, i_ref)
        else:
            xs = segment_tick(xs, i_ref)

        if xs[i_w] > wmax:
            xs[i_w] = wmax
        elif xs[i_w] < -wmax:
            xs[i_w] = -wmax

        # a NaN fails the comparison, so it flags divergence too
        if not all(abs(v) < div_lim for v in xs):
            div_at = k + 1
            break

    return _trace(profile, div_at, y_pos_a, y_speed_a, i_q_a, i_ref_a, v_q_a)


def runs_per_chunk(profile: ReferenceProfile) -> int:
    """Runs of ``profile`` per `simulate_batch` chunk: ``BATCH_RUN_TICKS``
    run-ticks, at least one run."""
    return max(1, BATCH_RUN_TICKS // len(profile))


def simulate_batch(gain_triples: np.ndarray, profile: ReferenceProfile):
    """Run many gain vectors against one profile, vectorized across runs.

    Yields one :class:`SimTrace` per row of ``gain_triples`` (columns kp,
    kv, ki; every row must be a valid :class:`GainVector`, and kp = 0
    rows are speed probes), in order, with the channels of
    :func:`simulate`, on the same axis.  The physics and controller
    logic are those of :func:`simulate`, row for row in the same
    arithmetic, so each trace equals that run's :func:`simulate` trace
    bitwise, railed runs included.  Only the rail-free tick is
    vectorized; railed ticks run row by row through ``segment_tick``.

    Runs are simulated in chunks of `runs_per_chunk` runs, so peak
    memory grows with neither the batch size nor the profile length.
    """
    triples = np.atleast_2d(np.asarray(gain_triples, dtype=float))
    if triples.shape[1] != 3:
        raise ValueError("gain_triples must have columns kp, kv, ki")
    for row in triples:
        GainVector(*row)
    per_chunk = runs_per_chunk(profile)
    for start in range(0, triples.shape[0], per_chunk):
        yield from _run_chunk(triples[start:start + per_chunk], profile)


def _run_chunk(triples: np.ndarray, profile: ReferenceProfile):
    drive = _drive()
    lead = drive.lead
    inv_lead = 1.0 / lead
    n = len(profile)
    dt = TICK
    m = triples.shape[0]
    kp, kv, ki = triples[:, 0], triples[:, 1], triples[:, 2]

    r_pos, r_spd = profile.position, profile.speed

    T_cl, segment_tick = drive.T_cl, drive.segment_tick
    cv0, cv_ci, d_v = drive.cv0, drive.cv_ci, drive.d_v
    i_w, i_th, i_ci = drive.i_w, drive.i_th, drive.i_ci
    nx = drive.nx
    vmax, imax, wmax = RAILS.voltage_limit, RAILS.current_limit, drive.wmax
    div_lim = DIVERGENCE_LIMIT

    # rows [x | v | i_ref] and one zero pad row, so the rail-free tick is
    # a gemm of at least two rows, whose rows are those of a single run
    Z = np.zeros((m + 1, nx + 2))
    X = Z[:m, :nx]
    integ = np.zeros(m)
    delay = COMMAND_DELAY_TICKS
    cmd_hist = np.zeros((m, n))  # clamped current commands, by tick
    alive = np.ones(m, dtype=bool)
    div_at = np.full(m, -1)
    rec_y_pos = np.zeros((m, n))
    rec_y_spd = np.zeros((m, n))
    rec_iq = np.zeros((m, n))
    rec_iref = np.zeros((m, n))
    rec_v = np.zeros((m, n))

    for k in range(n):
        y_pos = X[:, i_th] * lead
        y_spd = X[:, i_w] * lead

        v_cmd = kp * (r_pos[k] - y_pos) + r_spd[k]
        w_err = (v_cmd - y_spd) * inv_lead
        i_raw = kv * w_err + ki * integ
        i_cmd = np.clip(i_raw, -imax, imax)
        upd = (i_raw == i_cmd) | ((i_raw > 0.0) != (w_err > 0.0))
        integ = integ + np.where(upd, w_err * dt, 0.0)

        # the drive acts on the command issued ``delay`` ticks ago
        cmd_hist[:, k] = i_cmd
        i_ref = cmd_hist[:, k - delay] if k >= delay else np.zeros(m)

        v_pred = (cv0 * X[:, 0] + cv_ci * X[:, i_ci]) + d_v * i_ref
        v_q = np.clip(v_pred, -vmax, vmax)
        rec_y_pos[:, k] = y_pos
        rec_y_spd[:, k] = y_spd
        rec_iq[:, k] = X[:, 0]
        rec_iref[:, k] = i_ref
        rec_v[:, k] = v_q

        if k == n - 1:
            break

        Z[:m, nx] = v_q
        Z[:m, nx + 1] = i_ref
        Xn = Z.dot(T_cl)[:m]
        v_end = (cv0 * Xn[:, 0] + cv_ci * Xn[:, i_ci]) + d_v * i_ref
        need = alive & ~(
            (np.abs(v_pred) <= vmax) & (np.abs(v_end) <= vmax)
        )
        if need.any():
            idx = np.flatnonzero(need)
            Xn[idx] = [segment_tick(xs, ir) for xs, ir in
                       zip(X[idx].tolist(), i_ref[idx].tolist())]
        if not alive.all():
            Xn[~alive] = X[~alive]
        X[:] = Xn
        np.clip(X[:, i_w], -wmax, wmax, out=X[:, i_w])
        peak = np.abs(X).max(axis=1)
        newly = alive & ~(peak < div_lim)
        if newly.any():
            div_at[newly] = k + 1
            alive &= ~newly
            X[newly] = 0.0
            integ[newly] = 0.0

    for i in range(m):
        yield _trace(profile, int(div_at[i]) if div_at[i] >= 0 else None,
                     rec_y_pos[i], rec_y_spd[i], rec_iq[i], rec_iref[i], rec_v[i])
