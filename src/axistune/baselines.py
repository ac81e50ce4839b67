"""Classical autotuning procedures: Ziegler-Nichols, relay feedback, ITAE.

All three produce a `TuningResult` whose cost comes from the same bench
as the optimizer's, so the methods are directly comparable.  The two
frequency-domain methods probe the speed loop (the innermost tunable
loop, tuned first as in standard cascade commissioning) with the
position loop open, kp = 0.  These probes are not scored moves, so they
call :func:`~axistune.simloop.simulate` directly rather than the bench:
Ziegler-Nichols bisects the proportional speed gain to the
sustained-oscillation boundary of a step to ``PROBE_SPEED``, relay
feedback induces a limit cycle at standstill and applies the
describing-function relation Ku = 4d / (pi * a).  The probe settings
are the module constants below.  Both then map (Ku, Tu) through the
classic PI table Kv = 0.45 Ku, Ti = Tu / 1.2 and raise the position
gain to the largest value keeping overshoot, read from the bench's
memoized metrics, under 25 % of the move.

The oscillation probes may sweep the speed gain beyond the feasible
box, up or down by up to ``PROBE_GAIN_REACH``: the box bounds what
gains are committed, not what a boundary search transiently visits.
Gains that land outside it are clamped to the nearest feasible value
and the result is flagged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bench import TuningBench
from .plant import LAB_SERVO
from .refgen import TICK, constant_speed_profile
from .simloop import RAILS, GainVector, SimTrace, simulate
from .tuner import FeasibleSet

__all__ = [
    "TuningResult",
    "TuningError",
    "measure_limit_cycle",
    "ziegler_nichols",
    "relay_tune",
    "itae_tune",
]

_PI_TABLE_KV = 0.45     # Kv = 0.45 * Ku
_PI_TABLE_TI = 1.2      # Ti = Tu / 1.2
_OVERSHOOT_LIMIT = 25.0  # percent of the move

PROBE_SPEED = 0.1         # Ziegler-Nichols step setpoint [m/s]
PROBE_DURATION = 2.0      # horizon of every speed-loop probe [s]
PROBE_GAIN_REACH = 100.0  # search reach past the feasible kv range, as a factor
BISECT_REL_TOL = 1e-3     # relative width that ends a gain bisection
RELAY_FRACTION = 0.1      # relay amplitude, as a share of the current limit
LIMIT_CYCLES = 5          # cycles a period measurement averages over
TRANSIENT_FRACTION = 0.4  # leading share of a probe treated as transient


@dataclass(frozen=True)
class TuningResult:
    """Outcome of one tuning method, scored on the shared bench."""

    method: str
    gains: tuple[float, float, float]     # (kp, kv, ki)
    cost: float
    diagnostics: dict = field(default_factory=dict)
    clamped: bool = False


class TuningError(RuntimeError):
    """A probe experiment could not reach a verdict.

    Carries the probe log and the last trace so the failed experiment
    can be replayed and inspected.
    """

    def __init__(self, message: str, diagnostics: dict | None = None,
                 trace: SimTrace | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}
        self.trace = trace


# -- oscillation measurement ----------------------------------------------------


def _oscillation(trace: SimTrace, floor: float) -> tuple[bool, float, float | None]:
    """Classify the tail of a speed-loop probe.

    Returns (oscillating, amplitude, period).  The verdict compares the
    peak deviation of the last half of the post-transient window against
    the half before it: a sustained or growing envelope that also
    exceeds ``floor`` counts as oscillating, so decaying transients and
    solver-level ripple do not.  Amplitude and period describe the final
    window (period is None when too few cycles are visible).
    """
    if trace.diverged:
        return True, math.inf, None
    e = np.asarray(trace.e_speed, dtype=float)
    tail = e[int(TRANSIENT_FRACTION * len(e)):]
    if len(tail) < 8:
        return False, 0.0, None
    tail = tail - np.mean(tail)
    half = len(tail) // 2
    env_a = float(np.abs(tail[:half]).max())
    env_b = float(np.abs(tail[half:]).max())
    oscillating = env_b >= 0.9 * env_a and env_b >= floor
    amplitude, period, _ = measure_limit_cycle(tail[half:], TICK)
    return oscillating, amplitude, period


def _lows_since_higher(values: list[float]) -> list[float]:
    """For each entry, the least value from just after the nearest
    earlier entry holding more than it (or from the first entry) up to
    the entry itself."""
    lows: list[float] = []
    stack: list[tuple[float, float]] = []   # (value, least since the one below)
    for value in values:
        low = value
        while stack and stack[-1][0] <= value:
            low = min(low, stack.pop()[1])
        stack.append((value, low))
        lows.append(low)
    return lows


def _prominent_peaks(x: np.ndarray, min_prominence: float) -> np.ndarray:
    """Indices of the peaks of ``x`` whose prominence is at least
    ``min_prominence``, by the rules of scipy's ``find_peaks``.

    A peak is a sample, or a run of equal samples, above both of its
    neighbours; a run counts once, at its middle sample rounded down.
    Its prominence is its height above the higher of the two least
    values between it and the nearest higher sample on each side (or
    the signal's end).
    """
    starts = np.flatnonzero(np.r_[True, x[1:] != x[:-1]])
    if len(starts) < 3:
        return np.empty(0, dtype=np.intp)
    runs = x[starts]   # one value per run of equal samples
    up = runs[1:] > runs[:-1]
    is_peak = np.r_[False, up[:-1] & ~up[1:], False]
    heights = runs.tolist()
    left = _lows_since_higher(heights)
    right = _lows_since_higher(heights[::-1])[::-1]
    prominence = runs - np.maximum(left, right)
    kept = np.flatnonzero(is_peak & (prominence >= min_prominence))
    ends = np.r_[starts[1:], len(x)] - 1
    return (starts[kept] + ends[kept]) // 2


def measure_limit_cycle(signal: np.ndarray,
                        dt: float) -> tuple[float, float | None, int]:
    """Amplitude and period of a steady oscillation.

    Amplitude is half the peak-to-peak span; the period is the mean
    spacing of the last ``LIMIT_CYCLES`` positive peaks of prominence at
    least 0.3 times the amplitude (None if fewer are visible).  Returns
    (amplitude, period, n_peaks).
    """
    w = np.asarray(signal, dtype=float)
    w = w - np.mean(w)
    amplitude = float(w.max() - w.min()) / 2.0
    if amplitude <= 0.0:
        return 0.0, None, 0
    peaks = _prominent_peaks(w, 0.3 * amplitude)
    if len(peaks) < LIMIT_CYCLES + 1:
        return amplitude, None, len(peaks)
    last = peaks[-(LIMIT_CYCLES + 1):]
    period = float(np.mean(np.diff(last))) * dt
    return amplitude, period, len(peaks)


# -- shared mapping steps -------------------------------------------------------


def _bisect(lo: float, hi: float, below) -> tuple[float, float]:
    """Halve [lo, hi] until its width is within ``BISECT_REL_TOL * hi``.

    ``below(mid)`` true moves ``lo`` up to the midpoint, false moves
    ``hi`` down to it.  Returns the final (lo, hi).
    """
    while (hi - lo) > BISECT_REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        if below(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def _clamp_speed_gains(fset: FeasibleSet, kv: float,
                       ki: float) -> tuple[float, float, bool]:
    """Force (kv, ki) into the feasible box.

    The clamp works in the set's coordinates: kv first, then the third
    axis of (kv clamped, ki), so a reset-time axis bounds kv / ki.
    """
    kv_f = float(np.clip(kv, *fset.kv))
    third = float(fset.native([0.0, kv_f, ki])[0, 2])
    third_f = float(np.clip(third, *fset.third))
    ki_f = float(fset.canonical([0.0, kv_f, third_f])[0, 2])
    return kv_f, ki_f, kv_f != kv or third_f != third


def _position_gain(bench: TuningBench, fset: FeasibleSet, kv: float,
                   ki: float) -> tuple[float, list[tuple[float, float]]]:
    """Largest feasible kp keeping position overshoot under the 25 % bound."""
    lo, hi = fset.kp
    move = float(np.max(np.abs(bench.profile.position)))
    history: list[tuple[float, float]] = []

    def overshoot(kp: float) -> float:
        m = bench.metrics((kp, kv, ki))
        if m.is_diverged:
            pct = math.inf
        else:
            pct = 100.0 * m.pos_overshoot / move if move > 0.0 else 0.0
        history.append((kp, pct))
        return pct

    if overshoot(hi) < _OVERSHOOT_LIMIT:
        return hi, history
    if overshoot(lo) >= _OVERSHOOT_LIMIT:
        raise TuningError(
            f"position overshoot exceeds {_OVERSHOOT_LIMIT:.0f}% even at the "
            f"smallest feasible kp with speed gains ({kv:.4g}, {ki:.4g})",
            diagnostics={"overshoot_history": history},
        )
    lo, _ = _bisect(lo, hi, lambda kp: overshoot(kp) < _OVERSHOOT_LIMIT)
    return lo, history


def _from_ultimate(bench: TuningBench, fset: FeasibleSet, method: str,
                   ku: float, tu: float, diagnostics: dict) -> TuningResult:
    """Commit the gains that an ultimate gain Ku and period Tu give.

    The PI table's (kv, ki) is clamped into the box, the position gain
    is the largest keeping overshoot under the bound, and the result is
    scored on the bench.  ``diagnostics`` gains Ku, Tu, the table gains
    and the overshoot history.
    """
    kv_t = _PI_TABLE_KV * ku
    ki_t = kv_t / (tu / _PI_TABLE_TI)
    kv, ki, clamped = _clamp_speed_gains(fset, kv_t, ki_t)
    kp, overshoot_history = _position_gain(bench, fset, kv, ki)
    triple = (kp, kv, ki)
    return TuningResult(
        method=method,
        gains=triple,
        cost=bench.cost(triple),
        diagnostics={**diagnostics, "ku": ku, "tu": tu, "table_kv": kv_t,
                     "table_ki": ki_t, "overshoot_history": overshoot_history},
        clamped=clamped,
    )


# -- the three methods ----------------------------------------------------------


def ziegler_nichols(bench: TuningBench, fset: FeasibleSet) -> TuningResult:
    """Ultimate-gain tuning of the cascade.

    With the position loop open and the speed integral off, bisects the
    speed gain to the sustained-oscillation boundary of a step probe at
    ``PROBE_SPEED``.  If the box's smallest speed gain is stable, the
    upward search doubles from the feasible ceiling and gives up past
    ``PROBE_GAIN_REACH`` times it; if it oscillates, the downward search
    halves from it and gives up past ``1 / PROBE_GAIN_REACH`` times it.

    Raises
    ------
    TuningError
        No oscillation boundary within reach above the box, no stable
        speed gain within reach below it, or no measurable period at
        the boundary.
    """
    floor = 1e-4 * PROBE_SPEED
    profile = constant_speed_profile(PROBE_SPEED, PROBE_DURATION)
    probes: list[dict] = []
    trace: SimTrace | None = None
    boundary_period: float | None = None

    def stable(kv: float) -> bool:
        """Probe ``kv``; keep the period of an oscillating probe that has one."""
        nonlocal trace, boundary_period
        trace = simulate(GainVector(0.0, kv, 0.0), profile)
        osc, amp, period = _oscillation(trace, floor)
        probes.append({"kv": kv, "oscillating": osc, "amplitude": amp,
                       "period": period})
        if osc and period is not None:
            boundary_period = period
        return not osc

    lo, hi = fset.kv
    bottom, cap = lo / PROBE_GAIN_REACH, PROBE_GAIN_REACH * hi
    if stable(lo):
        while stable(hi):
            lo, hi = hi, 2.0 * hi
            if hi > cap:
                raise TuningError(
                    f"no oscillation boundary found below {cap:.4g} "
                    f"({PROBE_GAIN_REACH:.0f}x the feasible speed-gain ceiling)",
                    diagnostics={"probes": probes}, trace=trace,
                )
    else:
        while True:
            lo, hi = 0.5 * lo, lo
            if lo < bottom:
                raise TuningError(
                    f"no stable speed gain found above {bottom:.4g} "
                    f"(1/{PROBE_GAIN_REACH:.0f} of the feasible speed-gain floor)",
                    diagnostics={"probes": probes}, trace=trace,
                )
            if stable(lo):
                break
    _, hi = _bisect(lo, hi, stable)
    if boundary_period is None:
        raise TuningError("no measurable oscillation period at the boundary",
                          diagnostics={"probes": probes}, trace=trace)

    return _from_ultimate(bench, fset, "ziegler-nichols", hi, boundary_period,
                          {"probes": probes})


def relay_tune(bench: TuningBench, fset: FeasibleSet) -> TuningResult:
    """Relay-feedback tuning of the cascade.

    Replaces the speed controller with an ideal relay of amplitude
    ``RELAY_FRACTION`` of the current limit at standstill, measures the
    limit cycle of the speed error, and converts it to an ultimate gain
    via the describing function Ku = 4d / (pi * a), with ``a`` in the
    angular units the speed gain acts on.  The PI table and position
    bisection then match :func:`ziegler_nichols`.

    Raises
    ------
    TuningError
        Fewer than five limit cycles visible within the horizon.
    """
    d = RELAY_FRACTION * RAILS.current_limit
    trace = simulate(GainVector(0.0, 1.0, 0.0),
                     constant_speed_profile(0.0, PROBE_DURATION), relay=d)
    if trace.diverged:
        raise TuningError("relay probe diverged", trace=trace)
    e = np.asarray(trace.e_speed, dtype=float)
    window = e[len(e) // 2:]
    a_lin, tu, n_peaks = measure_limit_cycle(window, TICK)
    if tu is None or a_lin <= 0.0:
        raise TuningError(
            f"no limit cycle within the simulation horizon ({n_peaks} cycles seen)",
            diagnostics={"amplitude": a_lin, "n_peaks": n_peaks}, trace=trace,
        )
    a = a_lin / LAB_SERVO.lead_per_rad
    ku = 4.0 * d / (math.pi * a)
    return _from_ultimate(bench, fset, "relay", ku, tu,
                          {"d": d, "a": a, "n_cycles": n_peaks})


def itae_tune(bench: TuningBench, fset: FeasibleSet) -> TuningResult:
    """Exhaustive minimization of the summed position and speed ITAE.

    Scores every grid point on the two time-weighted tracking integrals
    with unit weights (ignoring the bench's weighted cost, which is
    still reported for comparison against the other methods) and keeps
    the first minimizer in grid order.
    """
    grid = fset.grid()
    table = bench.metric_table(fset.canonical(grid))
    vals = np.array(
        [math.inf if m.is_diverged else m.pos_itae + m.spd_itae for m in table]
    )
    best = int(np.argmin(vals))
    triple = fset.gains(grid[best])
    return TuningResult(
        method="itae",
        gains=triple,
        cost=bench.cost(triple),
        diagnostics={"itae": float(vals[best]),
                     "criterion": "pos_itae + spd_itae", "grid_index": best},
    )
