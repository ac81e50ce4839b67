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
  the command issued ``COMMAND_DELAY_TICKS`` ticks earlier: both loops
  write each command into the ``i_ref`` record that many ticks on.

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
gain rows and return the same trace channels, and for one run do the
same IEEE operations in the same order: the voltage as two products in
a fixed order, and each map as a gemm of at least two rows, whose rows
do not depend on the row count.  That last is a property of the BLAS
build, not a BLAS guarantee; the test suite checks it.  A rail-free
tick is one such gemm.  A railed tick is ``SEGMENTS_PER_TICK``
segments, each a voltage, mode and clamp and then that mode's map.  A
single run, and a batch tick with fewer than ``LOCKSTEP_ROWS`` railed
rows, take the drive's ``segment_tick`` row by row, in Python floats;
a batch tick with more takes its ``segment_rows``, which does the same
IEEE operations on numpy arrays of those rows, elementwise, and runs
each segment map once for all of them, so each row still gets the bits
of its own gemm.  So a gain triple has one trace, bitwise, whichever
loop or chunk ran it, and ``TuningBench`` picks the cheaper loop for a
share of rows by its row count alone (``bench.BATCH_ROWS``).
That holds across worker processes too: ``TuningBench.metric_table``
scores fresh rows in forked workers, each of which runs this code on
the same BLAS library and builds, or inherits, the same drive maps
from the same constants.  A batch runs in chunks of at most
``BATCH_RUN_TICKS`` run-ticks, which caps memory only: a chunk's
per-tick records, a row per tick, are its largest arrays.  How many
workers share a batch is the bench's choice.

The drive's two-row gemms run in place.  Its operand -- the row
``[x | v | i_ref]`` over a pad row that stays zero -- and its product
are two arrays of C doubles allocated with the drive and viewed by
numpy through ``frombuffer``.  Each map writes its product into the
second array (``ndarray.dot`` with ``out``): the same dgemm on the same
bytes as the allocating product, which the test suite also checks.  A
single run keeps its state in the operand, reads it as Python floats
and runs its rail-free ticks' gemms itself.  A batch loads a tick's
few railed rows one by one into the operand and copies each back after
its tick; many railed rows go to ``segment_rows`` as a copy of their
rows of the tick's array.  The operand and product are per-process
scratch that every run uses and that each forked worker gets its own
copy of, so no run may yield mid-run (`simulate` returns, and a batch
chunk yields its traces, only after the last tick), and no two threads
of one process may simulate at once.
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
    "simulate",
    "simulate_batch",
]

# Integrator step of the drive maps [s].  The fastest drive mode is the
# closed current loop's, 3.67e3 rad/s, so h*|lambda| = 0.0037 and RK4's
# local error, (h*lambda)^5/120 = 6e-15, is at roundoff.  The step
# stays at 1 us because any other step rounds the maps differently and
# moves railed costs (a tier-1 test guards h*|lambda|).
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

# Fewest railed rows of a batch tick that advance together through
# `_Drive.segment_rows` (at least two, so that no gemm runs on one row);
# fewer run one by one through ``segment_tick``.  Both give the same
# bits.  Per railed tick, one by one costs 11 to 13 us a row, together
# 125 to 175 us, flat on plc and about 130 us plus 1.3 us a row on desk
# (rows recorded from desk and plc batches, R = 2 to 32, best of five
# alternations, 2 vCPUs), so they break even near 11 plc rows and 13 to
# 14 desk rows.
LOCKSTEP_ROWS = 12

# Run-ticks (runs times profile ticks) per vectorized chunk in
# `simulate_batch`: the cap on a chunk's memory.  A chunk keeps five
# per-tick records of 8 bytes a run-tick, 16 MiB each at this cap; that
# is 1,445 runs of the 1,451-tick desk move, or 83 of the 25,009-tick
# plc move.  A larger chunk pays the tick loop's fixed numpy work fewer
# times.
BATCH_RUN_TICKS = 2**21


@dataclass(frozen=True)
class GainVector:
    """Cascade gains under tuning: position P, speed PI.

    Every gain is finite.  Kp may be zero (position loop off, pure
    feed-forward); the speed gain must be positive and the integral gain
    non-negative.  Gains are kept as Python floats, `simulate`'s fastest.
    """

    kp: float
    kv: float
    ki: float

    def __post_init__(self) -> None:
        for name in ("kp", "kv", "ki"):
            object.__setattr__(self, name, float(getattr(self, name)))
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
        for name in ("voltage_limit", "current_limit"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError("saturation limits must be positive and "
                                 f"finite, got {name}={getattr(self, name)!r}")


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

    The maps act in place on per-process scratch.  ``operand`` holds the
    row ``[x | v | i_ref]`` and a pad row that stays zero; ``prod``
    takes each two-row product, the next state first.  ``x`` is a numpy
    view of the operand's state, and ``state`` and ``product`` are
    memoryviews of the two states, so ``state[:] = product`` commits a
    step.  ``dot(S, res)`` writes map ``S``'s product into ``prod``
    (``res`` is its numpy view); ``segment_tick`` advances the operand's
    state one railed tick, and ``segment_rows`` an array of such rows,
    at least two, together and in place, using no scratch.
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
            deleting it rounds the maps differently and moves railed
            costs (desk-tune's mean evaluations went 56.8 -> 69.4).
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

        # the operand [x | v | i_ref] over a pad row that stays zero, and
        # the product, are C-double arrays that numpy views in place
        w = nx + 2
        operand = self.operand = array("d", bytes(16 * w))
        rows = np.frombuffer(operand).reshape(2, w)
        self.x = rows[0, :nx]
        prod = self.prod = array("d", bytes(16 * nx))
        res = np.frombuffer(prod).reshape(2, nx)
        state = self.state = memoryview(operand)[:nx]
        product = self.product = memoryview(prod)[:nx]
        # ``dot`` is the gemm of ``@`` without the dispatcher; given
        # ``res`` it writes the product there instead of allocating it
        dot = rows.dot
        cv0, cv_ci, d_v = self.cv0, self.cv_ci, self.d_v
        vmax = RAILS.voltage_limit
        i_v, i_i = nx, nx + 1
        count_nonzero = np.count_nonzero

        def segment_tick(i_ref: float) -> None:
            """Advance the operand's state one tick at the voltage-update
            rate; both loops' railed ticks."""
            operand[i_i] = i_ref
            v_ref = d_v * i_ref
            for _ in range(SEGMENTS_PER_TICK):
                x0 = operand[0]
                v = (cv0 * x0 + cv_ci * operand[i_ci]) + v_ref
                # a NaN voltage fails both rail tests: closed loop
                if v > vmax:
                    operand[i_v] = vmax
                    dot(S_frz if i_ref > x0 else S_ol, res)
                elif v < -vmax:
                    operand[i_v] = -vmax
                    dot(S_ol if i_ref > x0 else S_frz, res)
                else:
                    operand[i_v] = v
                    dot(S_cl, res)
                state[:] = product

        def segment_rows(Z: np.ndarray) -> None:
            """Advance rows ``Z`` of ``[x | v | i_ref]``, at least two, one
            railed tick together; the batch's railed ticks.

            Each row takes the steps of ``segment_tick`` as elementwise
            IEEE operations: per segment, its voltage with the same two
            products in the same order, its mode and its clamp, then its
            mode's map.  Each map that a segment needs runs once, as one
            gemm over all the rows, and only that map's rows commit its
            product.  A gemm row does not depend on the row count, so each
            row gets the bits of its own two-row gemm.
            """
            R = len(Z)
            X, x0, x_ci = Z[:, :nx], Z[:, 0], Z[:, i_ci]
            i_ref = Z[:, i_i]
            v_ref = d_v * i_ref
            for _ in range(SEGMENTS_PER_TICK):
                v = (cv0 * x0 + cv_ci * x_ci) + v_ref
                # false for a NaN voltage, which runs in closed loop
                railed = np.abs(v) > vmax
                n_rail = count_nonzero(railed)
                if not n_rail:
                    Z[:, i_v] = v
                    X[:] = Z.dot(S_cl)
                    continue
                frz = railed & ((i_ref > x0) == (v > 0.0))
                n_frz = count_nonzero(frz)
                np.copysign(vmax, v, out=v, where=railed)
                Z[:, i_v] = v
                modes = []
                if n_rail < R:
                    modes.append((S_cl, ~railed))
                if n_frz < n_rail:
                    modes.append((S_ol, railed ^ frz))
                if n_frz:
                    modes.append((S_frz, frz))
                # every map with rows runs before any row commits
                products = [(Z.dot(S), mode[:, None]) for S, mode in modes]
                if len(products) == 1:
                    X[:] = products[0][0]
                else:
                    for P, mode in products:
                        np.copyto(X, P, where=mode)

        self.dot, self.res = dot, res
        self.segment_tick, self.segment_rows = segment_tick, segment_rows


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

    # the per-tick arithmetic runs on Python floats, held in arrays of C
    # doubles; the last ``delay`` commands land past the ``i_ref`` trace
    delay = COMMAND_DELAY_TICKS
    r_pos, r_spd = array("d", profile.position), array("d", profile.speed)
    y_pos_a, y_speed_a, i_q_a, v_q_a = (array("d", bytes(8 * n)) for _ in range(4))
    i_ref_a = array("d", bytes(8 * (n + delay)))

    T_cl, dot, res = drive.T_cl, drive.dot, drive.res
    segment_tick, xs, prod = drive.segment_tick, drive.operand, drive.prod
    state, product = drive.state, drive.product
    cv0, cv_ci, d_v = drive.cv0, drive.cv_ci, drive.d_v
    i_w, i_th, i_ci = drive.i_w, drive.i_th, drive.i_ci
    i_v, i_i = drive.nx, drive.nx + 1

    vmax, imax, wmax = RAILS.voltage_limit, RAILS.current_limit, drive.wmax
    div_lim = DIVERGENCE_LIMIT

    drive.x[:] = 0.0
    integ = 0.0  # speed-loop integral of angular speed error [rad]
    relay_sign = 1.0
    div_at: int | None = None

    for k in range(n):
        x0 = xs[0]
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

        i_ref_a[k + delay] = i_cmd
        i_ref = i_ref_a[k]

        v_ref = d_v * i_ref
        v_pred = (cv0 * x0 + cv_ci * xs[i_ci]) + v_ref
        in_rails = -vmax <= v_pred <= vmax

        y_pos_a[k] = y_pos
        y_speed_a[k] = y_spd
        i_q_a[k] = x0
        v_q_a[k] = v_pred if in_rails else math.copysign(vmax, v_pred)

        if k == n - 1:
            break

        if in_rails:
            xs[i_v] = v_pred
            xs[i_i] = i_ref
            dot(T_cl, res)
            v_end = (cv0 * prod[0] + cv_ci * prod[i_ci]) + v_ref
        if in_rails and -vmax <= v_end <= vmax:
            state[:] = product
        else:
            segment_tick(i_ref)

        w = xs[i_w]
        if w > wmax:
            xs[i_w] = wmax
        elif w < -wmax:
            xs[i_w] = -wmax

        # one chained comparison per state (the unpacking fails on any
        # other count); a NaN fails it, so it flags divergence too
        s0, s1, s2, s3 = state
        if not (-div_lim < s0 < div_lim and -div_lim < s1 < div_lim
                and -div_lim < s2 < div_lim and -div_lim < s3 < div_lim):
            div_at = k + 1
            break

    return _trace(profile, div_at, y_pos_a, y_speed_a, i_q_a, i_ref_a, v_q_a)


def simulate_batch(gain_triples: np.ndarray, profile: ReferenceProfile):
    """Run many gain vectors against one profile, vectorized across runs.

    Yields one :class:`SimTrace` per row of ``gain_triples`` (columns kp,
    kv, ki; every row must be a valid :class:`GainVector`, and kp = 0
    rows are speed probes), in order, with the channels of
    :func:`simulate`, on the same axis.  The physics and controller
    logic are those of :func:`simulate`, row for row in the same
    arithmetic, so each trace equals that run's :func:`simulate` trace
    bitwise, railed runs included.  The rail-free tick is one gemm for
    all rows; a tick's railed rows go one by one through
    ``segment_tick`` when they are fewer than ``LOCKSTEP_ROWS`` and
    together through ``segment_rows`` otherwise, as whole-array numpy
    with one gemm per segment and mode.  Their bits rest on IEEE
    elementwise operations and on gemm rows that do not depend on the
    row count, which the test suite checks.

    Runs are simulated in chunks of ``BATCH_RUN_TICKS`` run-ticks (at
    least one run), so peak memory grows with neither the batch size
    nor the profile length.
    """
    triples = np.atleast_2d(np.asarray(gain_triples, dtype=float))
    if triples.shape[1] != 3:
        raise ValueError("gain_triples must have columns kp, kv, ki")
    for row in triples:
        GainVector(*row)
    per_chunk = max(1, BATCH_RUN_TICKS // len(profile))
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

    T_cl, segment_tick, x = drive.T_cl, drive.segment_tick, drive.x
    segment_rows, lockstep_rows = drive.segment_rows, LOCKSTEP_ROWS
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
    alive = np.ones(m, dtype=bool)
    div_at = np.full(m, -1)
    # the records, a row per tick; the drive acts on the command issued
    # ``delay`` ticks ago, so each command goes straight into the
    # ``i_ref`` record ``delay`` rows on, and the first rows stay zero
    rec_y_pos, rec_y_spd, rec_iq, rec_iref, rec_v = (
        np.zeros((n, m)) for _ in range(5))

    for k in range(n):
        y_pos = X[:, i_th] * lead
        y_spd = X[:, i_w] * lead

        v_cmd = kp * (r_pos[k] - y_pos) + r_spd[k]
        w_err = (v_cmd - y_spd) * inv_lead
        i_raw = kv * w_err + ki * integ
        # np.clip's arithmetic, without its Python-level dispatch
        i_cmd = np.minimum(np.maximum(i_raw, -imax), imax)
        upd = (i_raw == i_cmd) | ((i_raw > 0.0) != (w_err > 0.0))
        # a row left alone keeps the integ that adding 0.0 gave: integ
        # starts at +0.0, and a sum is -0.0 only when both terms are
        np.add(integ, w_err * dt, out=integ, where=upd)

        if k + delay < n:
            rec_iref[k + delay] = i_cmd
        i_ref = rec_iref[k]

        v_pred = (cv0 * X[:, 0] + cv_ci * X[:, i_ci]) + d_v * i_ref
        v_q = np.minimum(np.maximum(v_pred, -vmax), vmax)
        rec_y_pos[k] = y_pos
        rec_y_spd[k] = y_spd
        rec_iq[k] = X[:, 0]
        rec_v[k] = v_q

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
            # the railed rows run from their states before the tick: a few
            # one by one in the drive's operand, more together as arrays
            idx = need.nonzero()[0]
            if len(idx) < lockstep_rows:
                for r, ir in zip(idx.tolist(), i_ref[idx].tolist()):
                    x[:] = X[r]
                    segment_tick(ir)
                    Xn[r] = x
            else:
                rows = Z[idx]
                segment_rows(rows)
                Xn[idx] = rows[:, :nx]
        if not alive.all():
            Xn[~alive] = X[~alive]
        X[:] = Xn
        speed = X[:, i_w]
        np.minimum(np.maximum(speed, -wmax, out=speed), wmax, out=speed)
        # one reduction over Z -- the states, beside the tick's railed
        # voltages and references and the zero pad -- tells whether a run
        # may have diverged (a NaN fails the comparison too; stopped runs
        # are zero); only then is each run's peak taken
        if not np.abs(Z).max() < div_lim:
            newly = alive & ~(np.abs(X).max(axis=1) < div_lim)
            div_at[newly] = k + 1
            alive &= ~newly
            X[newly] = 0.0
            integ[newly] = 0.0

    for i in range(m):
        yield _trace(profile, int(div_at[i]) if div_at[i] >= 0 else None,
                     rec_y_pos[:, i], rec_y_spd[:, i], rec_iq[:, i],
                     rec_iref[:, i], rec_v[:, i])
