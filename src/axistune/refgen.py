"""Motion reference profiles for point-to-point moves.

Profiles are trapezoidal in speed: ramp up at the acceleration limit,
cruise at the speed setpoint, ramp down at the deceleration limit.  When
the move is too short to reach the setpoint the profile degrades to a
triangle whose peak follows from the kinematic identity

    v_peak = sqrt(2 * a * d * P / (a + d))

(accelerating over v^2/2a plus decelerating over v^2/2d must cover P).

Both channels are sampled on the controller tick grid, ``TICK``.
Phase boundaries are snapped to whole ticks and the peak speed is
recomputed from the snapped durations, so the sampled speed is exactly
piecewise linear between knots and the running trapezoid integral of
the speed samples reproduces the position samples to rounding error.
Snapping can only lengthen the ramps and the cruise, so the commanded
speed and acceleration never exceed their setpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TICK",
    "TrajectorySpec",
    "PhaseSpan",
    "ReferenceProfile",
    "generate_profile",
    "constant_speed_profile",
]

# The controller tick [s]: every profile is sampled on it and every
# outer-loop update runs on it.
TICK = 1e-3


@dataclass(frozen=True)
class TrajectorySpec:
    """Kinematic envelope of one move.

    Every value is finite.  position_setpoint [m] may be zero (dwell-only
    profile).  speed_setpoint [m/s], acceleration and deceleration
    [m/s^2] must be positive.
    dwell_time [s] is inserted after each motion leg; with
    ``return_to_zero`` a mirrored leg drives the axis back and a final
    dwell of the same length closes the profile.
    """

    position_setpoint: float
    speed_setpoint: float
    acceleration: float
    deceleration: float
    dwell_time: float = 0.0
    return_to_zero: bool = False

    def __post_init__(self) -> None:
        for name in ("position_setpoint", "dwell_time"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and non-negative")
        for name in ("speed_setpoint", "acceleration", "deceleration"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")


@dataclass(frozen=True)
class PhaseSpan:
    """Half-open sample-index range [start, stop) of one profile phase.

    ``label`` is one of accel/cruise/decel/dwell; ``leg`` is 0 for the
    outbound move and 1 for the return move.
    """

    label: str
    leg: int
    start: int
    stop: int


@dataclass(frozen=True)
class ReferenceProfile:
    """Sampled position/speed references on the ``TICK`` grid."""

    t: np.ndarray
    position: np.ndarray
    speed: np.ndarray
    phases: tuple[PhaseSpan, ...]
    spec: TrajectorySpec | None = None

    def __post_init__(self) -> None:
        t = np.asarray(self.t, dtype=float)
        pos = np.asarray(self.position, dtype=float)
        spd = np.asarray(self.speed, dtype=float)
        if not (len(t) == len(pos) == len(spd)) or len(t) < 1:
            raise ValueError("profile arrays must share a common nonzero length")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "position", pos)
        object.__setattr__(self, "speed", spd)

    def __len__(self) -> int:
        return len(self.t)

    # -- phase queries used by the metric layer --

    def motion_start_index(self) -> int:
        for ph in self.phases:
            if ph.label != "dwell":
                return ph.start
        return 0

    def _first(self, label: str, leg: int) -> PhaseSpan | None:
        for ph in self.phases:
            if ph.label == label and ph.leg == leg:
                return ph
        return None

    def forward_plateau(self) -> PhaseSpan | None:
        """Dwell at the move target, before any return leg."""
        return self._first("dwell", 0)

    def cruise_span(self, leg: int = 0) -> PhaseSpan | None:
        return self._first("cruise", leg)

    def terminal_dwell(self) -> PhaseSpan | None:
        return self._first("dwell", 1)


def _snapped_leg(spec: TrajectorySpec) -> tuple[int, int, int, float]:
    """Tick counts (accel, cruise, decel) and peak speed for one leg."""
    P = spec.position_setpoint
    v, a, d = spec.speed_setpoint, spec.acceleration, spec.deceleration
    if P == 0.0:
        return 0, 0, 0, 0.0
    if P > v * v / 2.0 * (1.0 / a + 1.0 / d):
        # trapezoid: snap ramp durations up to whole ticks, then pick the
        # shortest cruise that keeps the recomputed peak at or below v
        n_a = max(1, int(np.ceil(v / a / TICK - 1e-12)))
        n_d = max(1, int(np.ceil(v / d / TICK - 1e-12)))
        n_c = max(0, int(np.ceil(P / (v * TICK) - 0.5 * (n_a + n_d) - 1e-12)))
    else:
        # triangle: peak from the kinematic identity, then snap
        v_peak = np.sqrt(2.0 * a * d * P / (a + d))
        n_a = max(1, int(np.ceil(v_peak / a / TICK - 1e-12)))
        n_d = max(1, int(np.ceil(v_peak / d / TICK - 1e-12)))
        n_c = 0
    # recompute the peak so the trapezoid area equals P exactly
    area_ticks = 0.5 * (n_a + n_d) + n_c
    v_hat = P / (area_ticks * TICK)
    return n_a, n_c, n_d, v_hat


def _running_integral(speed: np.ndarray) -> np.ndarray:
    """Running trapezoid integral of tick-grid speed samples, from 0."""
    return np.concatenate([[0.0], np.cumsum(0.5 * (speed[1:] + speed[:-1]) * TICK)])


def generate_profile(spec: TrajectorySpec) -> ReferenceProfile:
    """Sample a trapezoidal (or triangular) move on the tick grid.

    Returns
    -------
    ReferenceProfile
        Arrays of length N+1 covering t = 0 .. N*TICK inclusive.  The
        speed trace is piecewise linear with knots on the grid and the
        position trace is its exact running trapezoid integral.
    """
    n_a, n_c, n_d, v_hat = _snapped_leg(spec)
    n_dwell = int(round(spec.dwell_time / TICK))

    speeds = [np.zeros(1)]
    phases: list[PhaseSpan] = []
    cursor = 1  # sample 0 is the initial standstill

    def extend(values: np.ndarray, label: str, leg: int) -> None:
        nonlocal cursor
        if len(values) == 0:
            return
        speeds.append(values)
        phases.append(PhaseSpan(label, leg, cursor, cursor + len(values)))
        cursor += len(values)

    def motion_leg(sign: float, leg: int) -> None:
        if n_a + n_c + n_d == 0:
            return
        parts = (
            (sign * v_hat * np.arange(1, n_a + 1) / n_a, "accel"),
            (np.full(n_c, sign * v_hat), "cruise"),
            (sign * v_hat * np.arange(n_d - 1, -1, -1) / n_d, "decel"),
        )
        for values, label in parts:
            extend(values, label, leg)

    motion_leg(+1.0, 0)
    extend(np.zeros(n_dwell), "dwell", 0)
    if spec.return_to_zero:
        motion_leg(-1.0, 1)
        extend(np.zeros(n_dwell), "dwell", 1)

    speed = np.concatenate(speeds)
    n = len(speed)
    t = np.arange(n) * TICK
    return ReferenceProfile(t, _running_integral(speed), speed, tuple(phases), spec)


def constant_speed_profile(speed: float, duration: float) -> ReferenceProfile:
    """Flat speed reference from t=0, for speed-loop probing.

    The position channel carries the running integral so the profile
    invariants still hold; there are no motion phases.
    """
    n = max(1, int(round(duration / TICK)))
    t = np.arange(n + 1) * TICK
    spd = np.full(n + 1, float(speed))
    phases = (PhaseSpan("cruise", 0, 0, n + 1),)
    return ReferenceProfile(t, _running_integral(spd), spd, phases, None)
