"""Closed-loop time-domain simulation of the cascaded servo axis.

Loop structure, innermost to outermost:

* The q-current controller lives in the drive and is far faster than
  the outer loops, so it is modeled continuously: its integrator state
  is appended to the plant states and the whole servo drive propagates
  as one linear system between controller ticks.  The drive applies the
  PI core of its PID gain set.  The derivative coefficient is carried in
  the configuration but takes no part in the applied voltage: against
  the winding inductance and the supply rail it would demand current
  slews below a few amperes per second to stay inside the rail, so any
  realizable derivative path is either clipped into irrelevance or, if
  given filter memory, latches the voltage at the wrong rail after
  large transients.  The PI core alone reproduces the design intent --
  a current loop orders of magnitude faster than the outer loops with
  exact DC tracking.
* The speed PI and the position P controller run discretely at the
  controller tick.  The position error and feed-forward speed reference
  are in linear units; their sum converts through the screw lead into
  an angular speed command, so the speed loop works on motor angular
  velocity -- the same quantity its gains act on in the drive.
* The current reference is clamped at the tick; the speed integrator
  uses conditional anti-windup (it stops accumulating while the clamp
  is active and the error keeps pushing outward).

Voltage saturation is resolved at the drive's voltage-update period, a
fixed number of segments per tick: each segment holds the clamped PID
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
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .plant import PlantParams, physical_state_model
from .refgen import ReferenceProfile, TrajectorySpec, generate_profile

__all__ = [
    "GainVector",
    "CurrentControllerGains",
    "SimConfig",
    "SimTrace",
    "simulate",
    "simulate_batch",
    "stability_probe",
]

# Integrator step of the drive maps [s].  At 1 us, RK4 damps the screw's
# 1.08e6 rad/s axial mode (h*|lambda| = 1.08) by |R| = 0.9904 per step
# against the physical 0.9996, i.e. about 1e4 times more per millisecond
# than the plant does.  Exact zero-order-hold maps are planned to
# replace it (see ROADMAP.md).
RK4_STEP = 1e-6


@dataclass(frozen=True)
class GainVector:
    """Cascade gains under tuning: position P, speed PI.

    ``ki`` may be given directly or through the integral time ``tn``
    (ki = kv/tn).  Kp may be zero (position loop off, pure feed-forward);
    the speed gain must be positive.
    """

    kp: float
    kv: float
    ki: float | None = None
    tn: float | None = None

    def __post_init__(self) -> None:
        if self.kp < 0.0:
            raise ValueError("kp must be non-negative")
        if self.kv <= 0.0:
            raise ValueError("kv must be positive")
        if self.ki is None and self.tn is None:
            raise ValueError("give ki or tn")
        if self.ki is None:
            if self.tn <= 0.0:
                raise ValueError("tn must be positive")
            object.__setattr__(self, "ki", self.kv / self.tn)
        elif self.tn is not None:
            if not math.isclose(self.ki, self.kv / self.tn, rel_tol=1e-6):
                raise ValueError("ki and tn are inconsistent")
        if self.ki < 0.0:
            raise ValueError("ki must be non-negative")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.kp, self.kv, self.ki)


@dataclass(frozen=True)
class CurrentControllerGains:
    """Fixed PID gains of the drive's q-current loop.

    The drive model applies the PI core; ``kd`` is configuration data
    that never reaches the voltage command (see the module docstring).
    """

    kp: float
    ki: float
    kd: float = 0.0

    def __post_init__(self) -> None:
        for name in ("kp", "ki", "kd"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True)
class SimConfig:
    """Simulation knobs.

    ``dt`` is the controller tick; it must be a whole number of
    ``RK4_STEP`` integrator steps.  ``segments_per_tick`` is the drive's
    voltage-update rate used while the supply rail is active; it must
    divide that step count.  Noise levels are standard deviations per
    measurement channel (position [m], speed [m/s], current [A]);
    ``disturbances`` is a schedule of (time, torque) load impulses, each
    applied for one tick.  ``mode`` selects which loops are closed:
    "position" (full cascade), "speed" (position loop off, the speed
    channel tracks the profile's speed), or "current" (outer loops off,
    the profile's speed column is read as a current command in amperes).
    ``relay_amplitude`` replaces the speed PI with an ideal relay of
    that amplitude (speed mode only), for limit-cycle probing.

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
    """

    dt: float = 1e-3
    segments_per_tick: int = 20
    voltage_limit: float = 325.0
    current_limit: float = 10.0
    anti_windup: bool = True
    mode: str = "position"
    feedforward: bool = True
    command_delay_ticks: int = 1
    noise_pos: float = 0.0
    noise_speed: float = 0.0
    noise_current: float = 0.0
    noise_seed: int = 0
    disturbances: tuple[tuple[float, float], ...] = ()
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
        if self.mode not in ("position", "speed", "current"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.command_delay_ticks < 0:
            raise ValueError("command_delay_ticks must be non-negative")
        object.__setattr__(
            self, "disturbances",
            tuple((float(t), float(tq)) for t, tq in self.disturbances),
        )


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

    _COLUMNS = (
        "t", "r_pos", "y_pos", "r_speed", "y_speed",
        "y_pos_load", "y_speed_load", "i_q", "i_ref", "v_q",
        "e_pos", "e_speed",
    )

    def __len__(self) -> int:
        return len(self.t)

    def to_csv(self, path) -> None:
        data = np.column_stack([getattr(self, c) for c in self._COLUMNS])
        np.savetxt(path, data, delimiter=",", header=",".join(self._COLUMNS), comments="")


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
    applied voltage is v = kp (i_ref - i) + ki x_ci.
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
        self.i_ci = i_ci

        c_v = np.zeros(nx)
        c_v[0] = -cc.kp
        c_v[i_ci] = cc.ki
        self.c_v, self.d_v = c_v, cc.kp

        def base_matrices() -> tuple[np.ndarray, np.ndarray]:
            """Drive with the voltage as an external input: u = [v, tau, i_ref]."""
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
        n_seg = cfg.segments_per_tick
        self.n_seg = n_seg
        per_seg = n_sub // n_seg

        def cols(N: np.ndarray) -> tuple[np.ndarray, ...]:
            return tuple(np.ascontiguousarray(N[:, j]) for j in range(N.shape[1]))

        M, N = _rk4_step_maps(A_cl, B_cl, h)
        self.M_cl, self.N_cl = _compose(M, N, n_sub)
        self.ncl = cols(self.N_cl)
        Mseg, Nseg = _compose(M, N, per_seg)
        self.Mseg_cl, self.ncl_seg = Mseg, cols(Nseg)
        M, N = _rk4_step_maps(A_ol, B_ol, h)
        Mseg, Nseg = _compose(M, N, per_seg)
        self.Mseg_ol, self.nol_seg = Mseg, cols(Nseg)
        M, N = _rk4_step_maps(A_frz, B_frz, h)
        Mseg, Nseg = _compose(M, N, per_seg)
        self.Mseg_frz, self.nfrz_seg = Mseg, cols(Nseg)


@functools.lru_cache(maxsize=64)
def _drive_for(p: PlantParams, cc: CurrentControllerGains, cfg: SimConfig) -> _Drive:
    return _Drive(p, cc, cfg)


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
    if abs(profile.dt - cfg.dt) > 1e-12 * max(profile.dt, cfg.dt):
        raise ValueError("profile sampling does not match the controller tick")
    return _run(p, (gains.kp, gains.kv, gains.ki), cc, profile, cfg)


def _run(
    p: PlantParams,
    kpv: tuple[float, float, float],
    cc: CurrentControllerGains,
    profile: ReferenceProfile,
    cfg: SimConfig,
) -> SimTrace:
    """Raw-gain entry point; also used by tuning probes with partial loops."""
    kp, kv, ki = kpv
    drive = _drive_for(p, cc, cfg)
    lead = drive.lead
    inv_lead = 1.0 / lead
    n = len(profile)
    dt = cfg.dt

    r_pos = profile.position
    r_spd = profile.speed
    t = profile.t

    # pre-drawn measurement noise; None when disabled
    noise = None
    if cfg.noise_pos > 0.0 or cfg.noise_speed > 0.0 or cfg.noise_current > 0.0:
        rng = np.random.default_rng(cfg.noise_seed)
        noise = rng.standard_normal((n, 3)) * np.array(
            [cfg.noise_pos, cfg.noise_speed, cfg.noise_current]
        )

    tau_arr = None
    if cfg.disturbances:
        tau_arr = np.zeros(n)
        for t_d, torque in cfg.disturbances:
            k = int(round(t_d / dt))
            if 0 <= k < n:
                tau_arr[k] += torque

    cols = {
        name: np.zeros(n)
        for name in ("y_pos", "y_speed", "y_pos_load", "y_speed_load", "i_q", "i_ref", "v_q")
    }
    y_pos_a, y_speed_a = cols["y_pos"], cols["y_speed"]
    y_posl_a, y_speedl_a = cols["y_pos_load"], cols["y_speed_load"]
    i_q_a, i_ref_a, v_q_a = cols["i_q"], cols["i_ref"], cols["v_q"]

    M_cl = drive.M_cl
    Ncl0, Ncl1 = drive.ncl
    c_v, d_v = drive.c_v, drive.d_v
    i_w, i_th = drive.i_w, drive.i_th
    i_wl, i_thl = drive.i_wl, drive.i_thl
    n_seg = drive.n_seg
    Mseg_cl, (nci, nct) = drive.Mseg_cl, drive.ncl_seg
    Mseg_ol, (nov, not_, noi) = drive.Mseg_ol, drive.nol_seg
    Mseg_frz, (nfv, nft, nfi) = drive.Mseg_frz, drive.nfrz_seg

    vmax, imax, wmax = cfg.voltage_limit, cfg.current_limit, p.omega_max
    div_lim = cfg.divergence_limit
    position_mode = cfg.mode == "position"
    speed_mode = cfg.mode == "speed"
    current_mode = cfg.mode == "current"
    relay = cfg.relay_amplitude
    hyst = cfg.relay_hysteresis
    anti_windup = cfg.anti_windup
    ff = cfg.feedforward

    x = np.zeros(drive.nx)
    integ = 0.0  # speed-loop integral of angular speed error [rad]
    delay = cfg.command_delay_ticks
    cmd_hist = np.zeros(n)  # clamped current commands, by tick
    relay_sign = 1.0
    diverged = False
    t_div: float | None = None
    end = n

    def segment_tick(x: np.ndarray, i_ref: float, tau: float) -> np.ndarray:
        """One tick at the drive's voltage-update rate, rails observed."""
        for _ in range(n_seg):
            v = float(c_v @ x) + d_v * i_ref
            if v > vmax or v < -vmax:
                v_s = vmax if v > 0.0 else -vmax
                if anti_windup and (i_ref > x[0]) == (v > 0.0):
                    x = Mseg_frz @ x
                    x += v_s * nfv
                    if tau != 0.0:
                        x += tau * nft
                else:
                    x = Mseg_ol @ x
                    x += v_s * nov
                    x += i_ref * noi
                    if tau != 0.0:
                        x += tau * not_
            else:
                x = Mseg_cl @ x
                x += i_ref * nci
                if tau != 0.0:
                    x += tau * nct
        return x

    for k in range(n):
        th = x[i_th]
        w = x[i_w]
        iq = x[0]
        if noise is None:
            y_pos = th * lead
            y_spd = w * lead
            y_cur = iq
        else:
            y_pos = th * lead + noise[k, 0]
            y_spd = w * lead + noise[k, 1]
            y_cur = iq + noise[k, 2]

        # outer loops
        if current_mode:
            i_raw = r_spd[k]
            w_err = 0.0
        else:
            if position_mode:
                v_cmd = kp * (r_pos[k] - y_pos)
                if ff:
                    v_cmd += r_spd[k]
            else:
                v_cmd = r_spd[k]
            w_err = (v_cmd - y_spd) * inv_lead
            if relay is not None and speed_mode:
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
        if relay is None and not current_mode:
            if (not anti_windup) or i_raw == i_cmd or (i_raw > 0.0) != (w_err > 0.0):
                integ += w_err * dt

        # the drive acts on the command issued ``delay`` ticks ago
        cmd_hist[k] = i_cmd
        i_ref = cmd_hist[k - delay] if k >= delay else 0.0

        v_pred = float(c_v @ x) + d_v * i_ref

        y_pos_a[k] = y_pos
        y_speed_a[k] = y_spd
        y_posl_a[k] = x[i_thl] * lead
        y_speedl_a[k] = x[i_wl] * lead
        i_q_a[k] = y_cur
        i_ref_a[k] = i_ref
        v_q_a[k] = v_pred if -vmax <= v_pred <= vmax else math.copysign(vmax, v_pred)

        if k == n - 1:
            break

        tau = tau_arr[k] if tau_arr is not None else 0.0
        if -vmax <= v_pred <= vmax:
            x_next = M_cl @ x
            x_next += i_ref * Ncl0
            if tau != 0.0:
                x_next += tau * Ncl1
            v_end = float(c_v @ x_next) + d_v * i_ref
            if not -vmax <= v_end <= vmax:
                x_next = segment_tick(x, i_ref, tau)
            x = x_next
        else:
            x = segment_tick(x, i_ref, tau)

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
    chunk_size: int = 256,
):
    """Run many gain vectors against one profile, vectorized across runs.

    Yields one :class:`SimTrace` per row of ``gain_triples`` (columns kp,
    kv, ki), in order.  The physics and controller logic are those of
    :func:`simulate` evaluated with matrix-batch arithmetic, whose
    rounding differs from the scalar path's.  On rail-free runs the two
    agree to roundoff; once a rail engages, switching instants amplify
    that roundoff, and costs can differ well beyond it (on the desk
    grid, most points differ by more than 1e-6 relative).  Only the full
    position cascade is supported (no relay or partial-loop modes).
    Load traces and drive-internal channels are not recorded; the traces
    carry the reference/measurement channels the tracking metrics read.

    Peak memory scales with ``chunk_size``, not the batch size.
    """
    if cfg.mode != "position":
        raise ValueError("batched runs support position mode only")
    if cfg.relay_amplitude is not None:
        raise ValueError("batched runs do not support relay probing")
    if abs(profile.dt - cfg.dt) > 1e-12 * max(profile.dt, cfg.dt):
        raise ValueError("profile sampling does not match the controller tick")
    triples = np.atleast_2d(np.asarray(gain_triples, dtype=float))
    if triples.shape[1] != 3:
        raise ValueError("gain_triples must have columns kp, kv, ki")
    for start in range(0, triples.shape[0], chunk_size):
        yield from _run_chunk(p, triples[start:start + chunk_size], cc, profile, cfg)


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

    noise = None
    if cfg.noise_pos > 0.0 or cfg.noise_speed > 0.0 or cfg.noise_current > 0.0:
        rng = np.random.default_rng(cfg.noise_seed)
        noise = rng.standard_normal((n, 3)) * np.array(
            [cfg.noise_pos, cfg.noise_speed, cfg.noise_current]
        )

    tau_arr = None
    if cfg.disturbances:
        tau_arr = np.zeros(n)
        for t_d, torque in cfg.disturbances:
            j = int(round(t_d / dt))
            if 0 <= j < n:
                tau_arr[j] += torque

    M_clT = drive.M_cl.T.copy()
    Ncl0, Ncl1 = drive.ncl
    Mseg_clT = drive.Mseg_cl.T.copy()
    Mseg_olT = drive.Mseg_ol.T.copy()
    Mseg_frzT = drive.Mseg_frz.T.copy()
    nci, nct = drive.ncl_seg
    nov, not_, noi = drive.nol_seg
    nfv, nft, _ = drive.nfrz_seg
    c_v, d_v = drive.c_v, drive.d_v
    i_w, i_th = drive.i_w, drive.i_th
    n_seg = drive.n_seg
    vmax, imax, wmax = cfg.voltage_limit, cfg.current_limit, p.omega_max
    div_lim = cfg.divergence_limit
    anti_windup = cfg.anti_windup
    ff = cfg.feedforward

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
        y_cur = X[:, 0].copy()
        if noise is not None:
            y_pos = y_pos + noise[k, 0]
            y_spd = y_spd + noise[k, 1]
            y_cur += noise[k, 2]

        v_cmd = kp * (r_pos[k] - y_pos)
        if ff:
            v_cmd = v_cmd + r_spd[k]
        w_err = (v_cmd - y_spd) * inv_lead
        i_raw = kv * w_err + ki * integ
        i_cmd = np.clip(i_raw, -imax, imax)
        if anti_windup:
            upd = (i_raw == i_cmd) | ((i_raw > 0.0) != (w_err > 0.0))
            integ = integ + np.where(upd, w_err * dt, 0.0)
        else:
            integ = integ + w_err * dt

        # the drive acts on the command issued ``delay`` ticks ago
        cmd_hist[:, k] = i_cmd
        i_ref = cmd_hist[:, k - delay] if k >= delay else np.zeros(m)

        v_pred = X @ c_v + d_v * i_ref
        rec_y_pos[:, k] = y_pos
        rec_y_spd[:, k] = y_spd
        rec_iq[:, k] = y_cur
        rec_iref[:, k] = i_ref
        rec_v[:, k] = np.clip(v_pred, -vmax, vmax)

        if k == n - 1:
            break

        tau = tau_arr[k] if tau_arr is not None else 0.0
        Xn = X @ M_clT + i_ref[:, None] * Ncl0
        if tau != 0.0:
            Xn += tau * Ncl1
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
                X_lin = Xs @ Mseg_clT + ir_col * nci
                if tau != 0.0:
                    X_lin += tau * nct
                if railed.any():
                    v_s = np.clip(v, -vmax, vmax)[:, None]
                    if anti_windup:
                        frozen = railed & ((ir > Xs[:, 0]) == (v > 0.0))
                    else:
                        frozen = np.zeros_like(railed)
                    X_ol = Xs @ Mseg_olT + v_s * nov + ir_col * noi
                    if tau != 0.0:
                        X_ol += tau * not_
                    if frozen.any():
                        X_frz = Xs @ Mseg_frzT + v_s * nfv
                        if tau != 0.0:
                            X_frz += tau * nft
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


def stability_probe(
    p: PlantParams,
    gains: GainVector,
    cc: CurrentControllerGains,
    cfg: SimConfig = SimConfig(),
) -> tuple[bool, float]:
    """Quick verdict on a gain vector from a short test move.

    Runs a small point-to-point move and compares the position-error
    envelope of the last quarter of the horizon against the second
    quarter.  A growing envelope, a diverged run, or an envelope larger
    than the move itself (a saturated limit cycle that has already
    plateaued) all count as unstable.

    Returns
    -------
    (stable, decay) : tuple
        ``decay`` is the envelope ratio last/second quarter (< 1 decays).
    """
    move = 0.05
    probe = generate_profile(
        TrajectorySpec(move, 0.1, 5.0, 5.0, dwell_time=0.6), cfg.dt
    )
    trace = simulate(p, gains, cc, probe, cfg)
    if trace.diverged:
        return False, math.inf
    err = np.abs(trace.e_pos)
    q = len(err) // 4
    env2 = float(err[q:2 * q].max()) if q else float(err.max())
    env4 = float(err[3 * q:].max())
    decay = env4 / max(env2, 1e-300)
    stable = env4 <= env2 * (1.0 + 1e-9) and env4 <= move
    return stable, decay
