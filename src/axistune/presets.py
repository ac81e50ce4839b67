"""Named configuration presets.

Every experiment in this package runs the same axis: the
``plant.LAB_SERVO`` plant under the current-loop PI
``simloop.CURRENT_LOOP_KP``, ``simloop.CURRENT_LOOP_KI``, inside the
rails ``simloop.RAILS``.  What varies is the reference trajectory, the
cost weights, and the feasible gain box.  This module defines each of
them, the benchmark's scoring move ``"bench-move"`` included, and gives
the canonical combinations names so command-line runs are reproducible
from a preset string plus a seed.

Presets
-------
``desk``
    The benchtop ball-screw axis with the tracking-cost weights and the
    28 x 10 x 10 gain grid.  Small enough that the exhaustive grid
    search finishes in well under a minute, which makes it the default
    for comparisons and tests.
``fine``
    The desk benchmark on the full 280 x 90 x 100 grid.  Exhaustive
    search at this resolution is a long-running job; the grid cache (see
    ``save_grid_table``) serves a repeated ``grid`` run into the same
    output directory.
``plc``
    The long-stroke bidirectional move with the terminal-accuracy
    weight set and PLC-style gain ranges, where the speed integral is
    parameterized by reset time Tn = Kv/Ki instead of Ki.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bench import TuningBench
from .metrics import CostWeights
from .refgen import TrajectorySpec, generate_profile
from .tuner import FeasibleSet

__all__ = [
    "Preset",
    "PRESETS",
    "DEFAULT_PRESET",
    "WEIGHT_PRESETS",
    "FEASIBLE_PRESETS",
    "TRAJECTORY_PRESETS",
    "get_preset",
    "get_weights",
]


# -- cost weights --------------------------------------------------------

WEIGHT_PRESETS: dict[str, CostWeights] = {
    # tracking-quality emphasis used for the simulated benchmark
    "sim-tracking": CostWeights(
        pos_settling=1e5,
        pos_overshoot=1e2,
        pos_inf=1e3,
        spd_settling=5e2,
        spd_overshoot=2.0,
        spd_inf=5e2,
        spd_itae=1e4,
    ),
    # terminal-accuracy emphasis used for commissioning on the machine
    "exp-tracking": CostWeights(
        pos_settling=2e1,
        pos_overshoot=5e4,
        pos_inf=5e4,
        pos_zero=1e5,
        spd_settling=2e1,
        spd_overshoot=1e3,
        spd_undershoot=2e3,
        spd_itae=2.5e5,
        spd_ss=5e2,
    ),
}


# -- feasible gain boxes -------------------------------------------------

_SIM_RANGES = dict(kp=(150.0, 4200.0), kv=(0.05, 0.5), third=(90.0, 900.0))

FEASIBLE_PRESETS: dict[str, FeasibleSet] = {
    # coarse grid: exhaustive search in under a minute
    "desk": FeasibleSet(n_kp=28, n_kv=10, n_third=10, **_SIM_RANGES),
    # full-resolution grid: exhaustive search is a long-running job
    "fine": FeasibleSet(n_kp=280, n_kv=90, n_third=100, **_SIM_RANGES),
    # PLC-style integer gain ranges; integral given as reset time Tn
    "plc": FeasibleSet(
        kp=(10.0, 65000.0),
        kv=(10.0, 7000.0),
        third=(4000.0, 40000.0),
        n_kp=28,
        n_kv=10,
        n_third=10,
        third_axis="tn",
    ),
}


# -- trajectories --------------------------------------------------------

TRAJECTORY_PRESETS: dict[str, TrajectorySpec] = {
    # scoring move of the simulated benchmark: 0.1 m point-to-point at
    # 0.25 m/s with 5 m/s^2 ramps, then a 1 s dwell so the settling and
    # terminal-error metrics have a window to observe
    "bench-move": TrajectorySpec(
        position_setpoint=0.1,
        speed_setpoint=0.25,
        acceleration=5.0,
        deceleration=5.0,
        dwell_time=1.0,
    ),
    # long-stroke commissioning move: out 0.5 m, hold, and return, with
    # ramps steep enough to act as step commands for both loops
    "long-stroke": TrajectorySpec(
        position_setpoint=0.5,
        speed_setpoint=0.2,
        acceleration=50.0,
        deceleration=50.0,
        dwell_time=10.0,
        return_to_zero=True,
    ),
}


# -- bundles -------------------------------------------------------------


@dataclass(frozen=True)
class Preset:
    """A named experiment: the move, the cost weights and the gain box.

    The axis, its current loop and its rails are the same for every
    preset (see the module docstring), and every command searches with
    the default ``BoConfig``.
    """

    name: str
    trajectory: TrajectorySpec
    weights: str                  # key into WEIGHT_PRESETS
    feasible: FeasibleSet

    def bench(self, weights: CostWeights | None = None) -> TuningBench:
        """Assemble the memoized cost oracle this preset describes."""
        w = weights if weights is not None else WEIGHT_PRESETS[self.weights]
        return TuningBench(w, generate_profile(self.trajectory))


PRESETS: dict[str, Preset] = {
    "desk": Preset(
        name="desk",
        trajectory=TRAJECTORY_PRESETS["bench-move"],
        weights="sim-tracking",
        feasible=FEASIBLE_PRESETS["desk"],
    ),
    "fine": Preset(
        name="fine",
        trajectory=TRAJECTORY_PRESETS["bench-move"],
        weights="sim-tracking",
        feasible=FEASIBLE_PRESETS["fine"],
    ),
    "plc": Preset(
        name="plc",
        trajectory=TRAJECTORY_PRESETS["long-stroke"],
        weights="exp-tracking",
        feasible=FEASIBLE_PRESETS["plc"],
    ),
}

DEFAULT_PRESET = "desk"


def get_preset(name: str) -> Preset:
    """Look up a preset bundle; raise KeyError with the known names."""
    try:
        return PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        ) from None


def get_weights(name: str) -> CostWeights:
    """Look up a weight preset; raise KeyError with the known names."""
    try:
        return WEIGHT_PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown weight preset {name!r}; "
            f"available: {', '.join(sorted(WEIGHT_PRESETS))}"
        ) from None
