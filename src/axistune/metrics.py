"""Tracking-performance metrics and the scalar tuning cost.

A simulated move is condensed into a fixed vector of position-channel and
speed-channel metrics, each in the natural unit of its signal:

* overshoot / undershoot relative to the plateau reference,
* settling time: how long after motion start the tracking error keeps
  leaving a band around the reference,
* the infinity norm of the tracking error,
* ITAE, the time-weighted absolute error integral,
* steady-state error over the tail of the plateau,
* (position only) residual error once the axis has returned to zero.

The tuning cost is a plain weighted sum of these entries.  A diverged
run maps every metric to +inf and the cost to a fixed penalty so that
unstable gain choices are comparable but always dominated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .refgen import TICK, ReferenceProfile

__all__ = [
    "SETTLE_BAND", "DIVERGENCE_PENALTY", "MetricVector", "CostWeights", "itae",
    "extract_metrics", "cost",
]

# Settling band as a fraction of the move distance (position) and of the
# speed setpoint (speed).
SETTLE_BAND = 0.02
# Cost of a diverged run, whatever the weights.
DIVERGENCE_PENALTY = 1e9


def itae(e: np.ndarray, t_i: float, t_f: float) -> float:
    """Integral of time-weighted absolute error over [t_i, t_f].

    ``e`` is assumed uniformly sampled over the interval, endpoints
    included; the time weight is measured from t_i.  The error is
    treated as piecewise linear between samples and each interval is
    integrated with Simpson's rule, which is exact for the resulting
    quadratic integrand on every interval where the error does not
    change sign.
    """
    e = np.asarray(e, dtype=float)
    if len(e) < 2 or t_f <= t_i:
        return 0.0
    w = np.linspace(0.0, t_f - t_i, len(e))
    a = w * np.abs(e)
    mid = 0.5 * (w[:-1] + w[1:]) * np.abs(0.5 * (e[:-1] + e[1:]))
    h = (t_f - t_i) / (len(e) - 1)
    return float(h / 6.0 * np.sum(a[:-1] + 4.0 * mid + a[1:]))


@dataclass(frozen=True)
class _Metrics:
    """One float per metric, in the fixed metric order."""

    pos_overshoot: float = 0.0
    pos_undershoot: float = 0.0
    pos_settling: float = 0.0
    pos_inf: float = 0.0
    pos_itae: float = 0.0
    pos_ss: float = 0.0
    pos_zero: float = 0.0
    spd_overshoot: float = 0.0
    spd_undershoot: float = 0.0
    spd_settling: float = 0.0
    spd_inf: float = 0.0
    spd_itae: float = 0.0
    spd_ss: float = 0.0

    def as_dict(self) -> dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def names(cls) -> tuple[str, ...]:
        return tuple(f.name for f in fields(cls))


@dataclass(frozen=True)
class MetricVector(_Metrics):
    """Tracking metrics of one run; position in meters, speed in m/s."""

    @classmethod
    def diverged(cls) -> "MetricVector":
        return cls(**{f.name: math.inf for f in fields(cls)})

    @property
    def is_diverged(self) -> bool:
        return any(not math.isfinite(getattr(self, f.name)) for f in fields(self))


@dataclass(frozen=True)
class CostWeights(_Metrics):
    """Per-metric weights of the scalar cost, one per MetricVector field."""

    def __post_init__(self) -> None:
        for f in fields(self):
            if getattr(self, f.name) < 0.0:
                raise ValueError(f"weight {f.name} must be non-negative")


def cost(m: MetricVector, w: CostWeights) -> float:
    """Weighted sum of the metric vector; ``DIVERGENCE_PENALTY`` for a
    diverged run."""
    if m.is_diverged:
        return DIVERGENCE_PENALTY
    return float(
        sum(getattr(w, name) * getattr(m, name) for name in MetricVector.names())
    )


# -- extraction ---------------------------------------------------------------


def _settling_time(e: np.ndarray, band: float, i0: int, stop: int) -> float:
    """Time from sample i0 until |e| last leaves the band within [i0, stop)."""
    window = np.abs(e[i0:stop])
    if len(window) == 0:
        return 0.0
    viol = np.flatnonzero(window > band)
    if len(viol) == 0:
        return 0.0
    settled_at = min(int(viol[-1]) + 1, len(window) - 1)
    return settled_at * TICK


def _plateau_stats(
    y: np.ndarray, ref_value: float, sign: float, start: int, stop: int, i0: int
) -> tuple[float, float]:
    """(overshoot, undershoot) against a constant plateau reference.

    Overshoot is measured over the plateau window; undershoot only after
    the output has first crossed the reference (searched from motion
    start), since before that point the output is simply still on its way.
    """
    if stop <= start:
        return 0.0, 0.0
    seg = (y[start:stop] - ref_value) * sign
    over = max(0.0, float(seg.max()))
    crossed = np.flatnonzero((y[i0:stop] - ref_value) * sign >= 0.0)
    if len(crossed) == 0:
        return over, 0.0
    k_cross = i0 + int(crossed[0])
    tail = (ref_value - y[max(k_cross, start):stop]) * sign
    under = max(0.0, float(tail.max())) if len(tail) else 0.0
    return over, under


def extract_metrics(trace, profile: ReferenceProfile) -> MetricVector:
    """Condense a simulation trace into the metric vector.

    Parameters
    ----------
    trace : SimTrace
        Must be aligned sample-for-sample with ``profile`` (shorter only
        if the run diverged).
    profile : ReferenceProfile
        Supplies the phase windows: the forward plateau for position
        metrics, the cruise span for speed metrics, the terminal dwell for
        the zero-position error.  Settling is judged against
        ``SETTLE_BAND``.

    Returns
    -------
    MetricVector
        All entries +inf for a diverged run.
    """
    if getattr(trace, "diverged", False):
        return MetricVector.diverged()

    i0 = profile.motion_start_index()
    t = profile.t
    e_p = np.asarray(trace.e_pos, dtype=float)
    e_s = np.asarray(trace.e_speed, dtype=float)
    y_p = np.asarray(trace.y_pos, dtype=float)
    y_s = np.asarray(trace.y_speed, dtype=float)
    n = len(t)

    out: dict[str, float] = {}

    # -- position channel --
    plateau = profile.forward_plateau()
    p_start, p_stop = (plateau.start, plateau.stop) if plateau else (n, n)
    r_fin = float(profile.position[p_start]) if p_start < n else float(profile.position[-1])
    move = abs(r_fin - float(profile.position[i0]))
    sign = 1.0 if r_fin >= profile.position[i0] else -1.0

    if move > 0.0:
        over, under = _plateau_stats(y_p, r_fin, sign, p_start, p_stop, i0)
        band_p = SETTLE_BAND * move
        out["pos_settling"] = _settling_time(e_p, band_p, i0, p_stop)
        out["pos_overshoot"], out["pos_undershoot"] = over, under
        if p_stop > p_start:
            n10 = max(1, (p_stop - p_start) // 10)
            out["pos_ss"] = float(np.abs(e_p[p_stop - n10:p_stop]).mean())

    term = profile.terminal_dwell()
    if term is not None and term.stop > term.start:
        n50 = max(1, (term.stop - term.start) // 2)
        out["pos_zero"] = float(np.abs(e_p[term.stop - n50:term.stop]).max())

    out["pos_inf"] = float(np.abs(e_p[i0:]).max()) if i0 < n else 0.0
    out["pos_itae"] = itae(e_p[i0:], float(t[i0]), float(t[-1]))

    # -- speed channel --
    cruise = profile.cruise_span(0)
    if cruise is not None and cruise.stop > cruise.start:
        c_start, c_stop = cruise.start, cruise.stop
        v_fin = float(profile.speed[c_start])
        v_base = abs(profile.spec.speed_setpoint) if profile.spec else abs(v_fin)
        s_sign = 1.0 if v_fin >= 0 else -1.0
        over, under = _plateau_stats(y_s, v_fin, s_sign, c_start, c_stop, i0)
        out["spd_overshoot"], out["spd_undershoot"] = over, under
        out["spd_settling"] = _settling_time(e_s, SETTLE_BAND * v_base, i0, c_stop)
        n10 = max(1, (c_stop - c_start) // 10)
        out["spd_ss"] = float(np.abs(e_s[c_stop - n10:c_stop]).mean())
    elif move > 0.0 and profile.spec is not None:
        # triangular move: no cruise plateau, settle against the setpoint band
        v_base = abs(profile.spec.speed_setpoint)
        out["spd_settling"] = _settling_time(e_s, SETTLE_BAND * v_base, i0, p_start)

    out["spd_inf"] = float(np.abs(e_s[i0:]).max()) if i0 < n else 0.0
    out["spd_itae"] = itae(e_s[i0:], float(t[i0]), float(t[-1]))

    return MetricVector(**out)
