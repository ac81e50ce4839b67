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
  the command issued ``command_delay_ticks`` ticks earlier.

Voltage saturation is resolved at the drive's voltage-update period, a
fixed number of segments per tick: each segment holds the clamped PI
voltage, and the current-loop integrator is frozen while the rail is
active with the error still pushing outward.  Ticks whose voltage stays
inside the rails take a precomputed linear step instead -- between
saturation events the drive is exactly the continuous linear model.

Between updates the inputs are zero-order-held and the linear servo
model advances by classical fixed-step fourth-order integration at
``RK4_STEP``.  Because a held input makes every step the same affine
map, per-tick and per-segment transitions are precomputed as matrix
powers once per configuration.  They agree with stepping the integrator
step by step only to roundoff: the composed products round differently.

``mode="speed"`` opens the position loop so the speed channel tracks the
profile's speed; with ``relay_amplitude`` set, an ideal relay replaces
the speed PI.  The classical autotuners probe the axis that way.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .plant import PlantParams, physical_state_model
from .refgen import ReferenceProfile

__all__ = [
    "GainVector",
    "CurrentControllerGains",
    "SimConfig",
    "SimTrace",
    "simulate",
    "simulate_batch",
]

# Integrator step of the drive maps [s].  At 1 us, RK4 damps the screw's
# 1.08e6 rad/s axial mode (h*|lambda| = 1.08) by |R| = 0.9904 per step
# against the physical 0.9996, i.e. about 1e4 times more per millisecond
# than the plant does.  Exact zero-order-hold maps are planned to
# replace it (see ROADMAP.md).
RK4_STEP = 1e-6

# Runs per vectorized chunk in `simulate_batch`; peak memory scales with it.
BATCH_CHUNK = 256


@dataclass(frozen=True)
class GainVector:
    """Cascade gains under tuning: position P, speed PI.

    Kp may be zero (position loop off, pure feed-forward); the speed
    gain must be positive and the integral gain non-negative.
    """

    kp: float
    kv: float
    ki: float

    def __post_init__(self) -> None:
        if self.kp < 0.0:
            raise ValueError("kp must be non-negative")
        if self.kv <= 0.0:
            raise ValueError("kv must be positive")
        if self.ki < 0.0:
            raise ValueError("ki must be non-negative")


@dataclass(frozen=True)
class CurrentControllerGains:
    """Fixed PI gains of the drive's q-current loop."""

    kp: float
    ki: float

    def __post_init__(self) -> None:
        for name in ("kp", "ki"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True)
class SimConfig:
    """Simulation knobs.

    ``dt`` is the controller tick; it must be a whole number of
    ``RK4_STEP`` integrator steps.  ``segments_per_tick`` is the drive's
    voltage-update rate used while the supply rail is active; it must
    divide that step count.  ``mode`` selects which loops are closed:
    "position" (full cascade) or "speed" (position loop off, the speed
    channel tracks the profile's speed).  ``relay_amplitude`` replaces
    the speed PI with an ideal relay of that amplitude, switching with
    ``relay_hysteresis`` [rad/s] on the angular speed error (speed mode
    only), for limit-cycle probing.

    ``command_delay_ticks`` models the transport latency of the control
    architecture: the outer loops run in a PLC and their current command
    crosses a fieldbus to the drive, while measurements cross back, so
    the drive acts on a command issued whole ticks earlier.  This pure
    delay -- not the electrical dynamics -- is what bounds the usable
    speed-loop gain.  The default of one tick is the classical
    compute-now-apply-next-tick latency of a synchronous digital loop;
    it puts the proportional speed loop's sustained-oscillation boundary
    near gain 1.4.  Set to 0 for an idealized zero-latency loop; each
    extra tick lowers the oscillation boundary roughly in proportion.

    ``voltage_limit`` is the q-axis voltage ceiling, i.e. the DC bus
    seen by the inverter; the 325 V default is a rectified 230 VAC
    single-phase supply.  ``current_limit`` caps the current command
    (and so the achievable torque); both rails engage symmetrically.
    A run whose state magnitude passes ``divergence_limit`` is stopped
    and flagged as diverged.
    """

    dt: float = 1e-3
    segments_per_tick: int = 20
    voltage_limit: float = 325.0
    current_limit: float = 10.0
    mode: str = "position"
    command_delay_ticks: int = 1
    relay_amplitude: float | None = None
    relay_hysteresis: float = 0.0
    divergence_limit: float = 1e12

    def __post_init__(self) -> None:
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        steps = self.dt / RK4_STEP
        if abs(steps - round(steps)) > 1e-6 or round(steps) < 1:
            raise ValueError(f"dt must be a whole number of {RK4_STEP:g} s "
                             "integrator steps")
        if self.segments_per_tick < 1 or round(steps) % self.segments_per_tick:
            raise ValueError("segments_per_tick must divide the integrator "
                             "steps per tick")
        if self.voltage_limit <= 0.0 or self.current_limit <= 0.0:
            raise ValueError("saturation limits must be positive")
        if self.mode not in ("position", "speed"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.relay_amplitude is not None and self.mode != "speed":
            raise ValueError("relay probing needs speed mode")
        if self.command_delay_ticks < 0:
            raise ValueError("command_delay_ticks must be non-negative")


@dataclass
class SimTrace:
    """Per-tick record of one simulated run.

    All arrays share one length; ``e_pos``/``e_speed`` are the pointwise
    reference-minus-measurement errors.  A diverged run is truncated at
    the last finite sample and stamped with the divergence time.
    """

    t: np.ndarray
    r_pos: np.ndarray
    y_pos: np.ndarray
    r_speed: np.ndarray
    y_speed: np.ndarray
    y_pos_load: np.ndarray
    y_speed_load: np.ndarray
    i_q: np.ndarray
    i_ref: np.ndarray
    v_q: np.ndarray
    e_pos: np.ndarray
    e_speed: np.ndarray
    dt: float
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
    """Precomputed transition maps of the plant plus continuous current PI.

    States: plant states, then the current-loop integral ``x_ci``.  The
    applied voltage is v = kp (i_ref - i) + ki x_ci.  Maps: ``M_cl`` and
    ``n_cl`` advance a rail-free tick; the ``seg_*`` maps advance one
    voltage-update segment in closed loop (``cl``), railed (``ol``), and
    railed with the current integrator frozen (``frz``); ``*_v`` and
    ``*_i`` are the input columns of the held voltage and current
    reference.
    """

    def __init__(self, p: PlantParams, cc: CurrentControllerGains, cfg: SimConfig):
        self.lead = p.lead_per_rad
        plant = physical_state_model(p)
        n_pl = plant.A.shape[0]
        labels = plant.state_labels
        self.i_w, self.i_th = labels.index("w_m"), labels.index("th_m")
        self.i_wl, self.i_thl = labels.index("w_l"), labels.index("th_l")

        nx = n_pl + 1
        self.nx = nx
        i_ci = n_pl

        c_v = np.zeros(nx)
        c_v[0] = -cc.kp
        c_v[i_ci] = cc.ki
        self.c_v, self.d_v = c_v, cc.kp

        def base_matrices() -> tuple[np.ndarray, np.ndarray]:
            """Drive with the voltage as an external input: u = [v, tau, i_ref].

            No run applies a load torque, but the tau column stays in B:
            without it the composed input maps differ in the last bits,
            and railed costs would move with them.
            """
            A = np.zeros((nx, nx))
            A[:n_pl, :n_pl] = plant.A
            A[i_ci, 0] = -1.0
            B = np.zeros((nx, 3))
            B[:n_pl, :2] = plant.B
            B[i_ci, 2] = 1.0
            return A, B

        # closed loop: v follows from the state, inputs [i_ref, tau]
        A_ol, B_ol = base_matrices()
        A_cl = A_ol.copy()
        A_cl[0] += c_v / p.Ls
        B_cl = np.zeros((nx, 2))
        B_cl[:, 0] = B_ol[:, 2]
        B_cl[0, 0] += self.d_v / p.Ls
        B_cl[:, 1] = B_ol[:, 1]

        # railed, integrator frozen (anti-windup active)
        A_frz, B_frz = base_matrices()
        A_frz[i_ci, 0] = 0.0
        B_frz[i_ci, 2] = 0.0

        h = RK4_STEP
        n_sub = round(cfg.dt / h)
        self.n_seg = cfg.segments_per_tick
        per_seg = n_sub // self.n_seg

        def col(N: np.ndarray, j: int) -> np.ndarray:
            return np.ascontiguousarray(N[:, j])

        M, N = _rk4_step_maps(A_cl, B_cl, h)
        self.M_cl, N_tick = _compose(M, N, n_sub)
        self.n_cl = col(N_tick, 0)
        self.seg_cl, N_seg = _compose(M, N, per_seg)
        self.seg_cl_i = col(N_seg, 0)
        M, N = _rk4_step_maps(A_ol, B_ol, h)
        self.seg_ol, N_seg = _compose(M, N, per_seg)
        self.seg_ol_v, self.seg_ol_i = col(N_seg, 0), col(N_seg, 2)
        M, N = _rk4_step_maps(A_frz, B_frz, h)
        self.seg_frz, N_seg = _compose(M, N, per_seg)
        self.seg_frz_v = col(N_seg, 0)


@functools.lru_cache(maxsize=64)
def _drive_for(p: PlantParams, cc: CurrentControllerGains, cfg: SimConfig) -> _Drive:
    return _Drive(p, cc, cfg)


def _check_tick(profile: ReferenceProfile, cfg: SimConfig) -> None:
    if abs(profile.dt - cfg.dt) > 1e-12 * max(profile.dt, cfg.dt):
        raise ValueError("profile sampling does not match the controller tick")


# -- the loop ------------------------------------------------------------------


def simulate(
    p: PlantParams,
    gains: GainVector,
    cc: CurrentControllerGains,
    profile: ReferenceProfile,
    cfg: SimConfig = SimConfig(),
) -> SimTrace:
    """Run the cascade against a reference profile.

    Parameters
    ----------
    p, gains, cc : models and controller gains.
    profile : ReferenceProfile
        Must be sampled at the configured controller tick.
    cfg : SimConfig

    Returns
    -------
    SimTrace
        One row per controller tick, aligned with the profile.  If any
        state magnitude passes ``cfg.divergence_limit`` (or goes
        non-finite) the trace is truncated there and flagged instead of
        raising.
    """
    _check_tick(profile, cfg)
    kp, kv, ki = gains.kp, gains.kv, gains.ki
    drive = _drive_for(p, cc, cfg)
    lead = drive.lead
    inv_lead = 1.0 / lead
    n = len(profile)
    dt = cfg.dt

    r_pos = profile.position
    r_spd = profile.speed
    t = profile.t

    cols = {
        name: np.zeros(n)
        for name in ("y_pos", "y_speed", "y_pos_load", "y_speed_load", "i_q", "i_ref", "v_q")
    }
    y_pos_a, y_speed_a = cols["y_pos"], cols["y_speed"]
    y_posl_a, y_speedl_a = cols["y_pos_load"], cols["y_speed_load"]
    i_q_a, i_ref_a, v_q_a = cols["i_q"], cols["i_ref"], cols["v_q"]

    M_cl, n_cl = drive.M_cl, drive.n_cl
    c_v, d_v = drive.c_v, drive.d_v
    i_w, i_th = drive.i_w, drive.i_th
    i_wl, i_thl = drive.i_wl, drive.i_thl
    n_seg = drive.n_seg
    seg_cl, seg_cl_i = drive.seg_cl, drive.seg_cl_i
    seg_ol, seg_ol_v, seg_ol_i = drive.seg_ol, drive.seg_ol_v, drive.seg_ol_i
    seg_frz, seg_frz_v = drive.seg_frz, drive.seg_frz_v

    vmax, imax, wmax = cfg.voltage_limit, cfg.current_limit, p.omega_max
    div_lim = cfg.divergence_limit
    position_mode = cfg.mode == "position"
    relay = cfg.relay_amplitude
    hyst = cfg.relay_hysteresis

    x = np.zeros(drive.nx)
    integ = 0.0  # speed-loop integral of angular speed error [rad]
    delay = cfg.command_delay_ticks
    cmd_hist = np.zeros(n)  # clamped current commands, by tick
    relay_sign = 1.0
    diverged = False
    t_div: float | None = None
    end = n

    def segment_tick(x: np.ndarray, i_ref: float) -> np.ndarray:
        """One tick at the drive's voltage-update rate, rails observed."""
        for _ in range(n_seg):
            v = float(c_v @ x) + d_v * i_ref
            if v > vmax or v < -vmax:
                v_s = vmax if v > 0.0 else -vmax
                if (i_ref > x[0]) == (v > 0.0):
                    x = seg_frz @ x
                    x += v_s * seg_frz_v
                else:
                    x = seg_ol @ x
                    x += v_s * seg_ol_v
                    x += i_ref * seg_ol_i
            else:
                x = seg_cl @ x
                x += i_ref * seg_cl_i
        return x

    for k in range(n):
        y_pos = x[i_th] * lead
        y_spd = x[i_w] * lead

        # outer loops
        if position_mode:
            v_cmd = kp * (r_pos[k] - y_pos) + r_spd[k]
        else:
            v_cmd = r_spd[k]
        w_err = (v_cmd - y_spd) * inv_lead
        if relay is not None:
            if w_err > hyst:
                relay_sign = 1.0
            elif w_err < -hyst:
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
        if relay is None:
            if i_raw == i_cmd or (i_raw > 0.0) != (w_err > 0.0):
                integ += w_err * dt

        # the drive acts on the command issued ``delay`` ticks ago
        cmd_hist[k] = i_cmd
        i_ref = cmd_hist[k - delay] if k >= delay else 0.0

        v_pred = float(c_v @ x) + d_v * i_ref

        y_pos_a[k] = y_pos
        y_speed_a[k] = y_spd
        y_posl_a[k] = x[i_thl] * lead
        y_speedl_a[k] = x[i_wl] * lead
        i_q_a[k] = x[0]
        i_ref_a[k] = i_ref
        v_q_a[k] = v_pred if -vmax <= v_pred <= vmax else math.copysign(vmax, v_pred)

        if k == n - 1:
            break

        if -vmax <= v_pred <= vmax:
            x_next = M_cl @ x
            x_next += i_ref * n_cl
            v_end = float(c_v @ x_next) + d_v * i_ref
            if not -vmax <= v_end <= vmax:
                x_next = segment_tick(x, i_ref)
            x = x_next
        else:
            x = segment_tick(x, i_ref)

        if x[i_w] > wmax:
            x[i_w] = wmax
        elif x[i_w] < -wmax:
            x[i_w] = -wmax

        peak = float(np.abs(x).max())
        if not peak < div_lim:
            diverged = True
            t_div = float(t[k + 1])
            end = k + 1
            break

    sl = slice(0, end)
    e_pos = r_pos[sl] - y_pos_a[sl]
    e_speed = r_spd[sl] - y_speed_a[sl]
    return SimTrace(
        t=t[sl].copy(),
        r_pos=r_pos[sl].copy(),
        y_pos=y_pos_a[sl],
        r_speed=r_spd[sl].copy(),
        y_speed=y_speed_a[sl],
        y_pos_load=y_posl_a[sl],
        y_speed_load=y_speedl_a[sl],
        i_q=i_q_a[sl],
        i_ref=i_ref_a[sl],
        v_q=v_q_a[sl],
        e_pos=e_pos,
        e_speed=e_speed,
        dt=dt,
        diverged=diverged,
        t_diverged=t_div,
    )


def simulate_batch(
    p: PlantParams,
    gain_triples: np.ndarray,
    cc: CurrentControllerGains,
    profile: ReferenceProfile,
    cfg: SimConfig = SimConfig(),
):
    """Run many gain vectors against one profile, vectorized across runs.

    Yields one :class:`SimTrace` per row of ``gain_triples`` (columns kp,
    kv, ki), in order.  The physics and controller logic are those of
    :func:`simulate` evaluated with matrix-batch arithmetic, whose
    rounding differs from the scalar path's.  On rail-free runs the two
    agree to roundoff; once a rail engages, switching instants amplify
    that roundoff, and costs can differ well beyond it (on the desk
    grid, most points differ by more than 1e-6 relative).  Only the full
    position cascade is supported (no relay or speed mode).  Load traces
    are not recorded; the traces carry the reference/measurement
    channels the tracking metrics read.

    Runs are simulated ``BATCH_CHUNK`` at a time, so peak memory does not
    grow with the batch size.
    """
    if cfg.mode != "position":
        raise ValueError("batched runs support position mode only")
    _check_tick(profile, cfg)
    triples = np.atleast_2d(np.asarray(gain_triples, dtype=float))
    if triples.shape[1] != 3:
        raise ValueError("gain_triples must have columns kp, kv, ki")
    for start in range(0, triples.shape[0], BATCH_CHUNK):
        yield from _run_chunk(p, triples[start:start + BATCH_CHUNK], cc, profile, cfg)


def _run_chunk(
    p: PlantParams,
    triples: np.ndarray,
    cc: CurrentControllerGains,
    profile: ReferenceProfile,
    cfg: SimConfig,
):
    drive = _drive_for(p, cc, cfg)
    lead = drive.lead
    inv_lead = 1.0 / lead
    n = len(profile)
    dt = cfg.dt
    m = triples.shape[0]
    kp, kv, ki = triples[:, 0], triples[:, 1], triples[:, 2]

    r_pos, r_spd, t = profile.position, profile.speed, profile.t

    M_clT = drive.M_cl.T.copy()
    n_cl = drive.n_cl
    seg_clT = drive.seg_cl.T.copy()
    seg_olT = drive.seg_ol.T.copy()
    seg_frzT = drive.seg_frz.T.copy()
    seg_cl_i = drive.seg_cl_i
    seg_ol_v, seg_ol_i = drive.seg_ol_v, drive.seg_ol_i
    seg_frz_v = drive.seg_frz_v
    c_v, d_v = drive.c_v, drive.d_v
    i_w, i_th = drive.i_w, drive.i_th
    n_seg = drive.n_seg
    vmax, imax, wmax = cfg.voltage_limit, cfg.current_limit, p.omega_max
    div_lim = cfg.divergence_limit

    X = np.zeros((m, drive.nx))
    integ = np.zeros(m)
    delay = cfg.command_delay_ticks
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

        v_pred = X @ c_v + d_v * i_ref
        rec_y_pos[:, k] = y_pos
        rec_y_spd[:, k] = y_spd
        rec_iq[:, k] = X[:, 0]
        rec_iref[:, k] = i_ref
        rec_v[:, k] = np.clip(v_pred, -vmax, vmax)

        if k == n - 1:
            break

        Xn = X @ M_clT + i_ref[:, None] * n_cl
        v_end = Xn @ c_v + d_v * i_ref
        need = alive & ~(
            (np.abs(v_pred) <= vmax) & (np.abs(v_end) <= vmax)
        )
        if need.any():
            Xs = X[need]
            ir = i_ref[need]
            ir_col = ir[:, None]
            for _ in range(n_seg):
                v = Xs @ c_v + d_v * ir
                railed = (v > vmax) | (v < -vmax)
                X_lin = Xs @ seg_clT + ir_col * seg_cl_i
                if railed.any():
                    v_s = np.clip(v, -vmax, vmax)[:, None]
                    frozen = railed & ((ir > Xs[:, 0]) == (v > 0.0))
                    X_ol = Xs @ seg_olT + v_s * seg_ol_v + ir_col * seg_ol_i
                    if frozen.any():
                        X_frz = Xs @ seg_frzT + v_s * seg_frz_v
                        Xs = np.where(
                            frozen[:, None], X_frz,
                            np.where(railed[:, None], X_ol, X_lin),
                        )
                    else:
                        Xs = np.where(railed[:, None], X_ol, X_lin)
                else:
                    Xs = X_lin
            Xn[need] = Xs
        if not alive.all():
            Xn[~alive] = X[~alive]
        X = Xn
        np.clip(X[:, i_w], -wmax, wmax, out=X[:, i_w])
        peak = np.abs(X).max(axis=1)
        newly = alive & ~(peak < div_lim)
        if newly.any():
            div_at[newly] = k + 1
            alive &= ~newly
            X[newly] = 0.0
            integ[newly] = 0.0

    for i in range(m):
        end = div_at[i] if div_at[i] >= 0 else n
        sl = slice(0, end)
        yield SimTrace(
            t=t[sl].copy(),
            r_pos=r_pos[sl].copy(),
            y_pos=rec_y_pos[i, sl].copy(),
            r_speed=r_spd[sl].copy(),
            y_speed=rec_y_spd[i, sl].copy(),
            y_pos_load=np.zeros(end),
            y_speed_load=np.zeros(end),
            i_q=rec_iq[i, sl].copy(),
            i_ref=rec_iref[i, sl].copy(),
            v_q=rec_v[i, sl].copy(),
            e_pos=r_pos[sl] - rec_y_pos[i, sl],
            e_speed=r_spd[sl] - rec_y_spd[i, sl],
            dt=dt,
            diverged=div_at[i] >= 0,
            t_diverged=float(t[div_at[i]]) if div_at[i] >= 0 else None,
        )
