"""Named configuration presets.

Every experiment in this package runs the same axis: the ``LAB_SERVO``
plant under the ``LAB_SERVO_CURRENT`` current loop, simulated with the
default ``SimConfig``.  What varies is the reference trajectory, the
cost weights, and the feasible gain box.  This module gives the
canonical combinations names so command-line runs are reproducible
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

import math
from dataclasses import dataclass

from .bench import BENCH_MOVE, TuningBench
from .metrics import CostWeights
from .plant import PlantParams
from .refgen import TrajectorySpec, generate_profile
from .simloop import CurrentControllerGains, SimConfig
from .tuner import FeasibleSet

__all__ = [
    "Preset",
    "PRESETS",
    "DEFAULT_PRESET",
    "LAB_SERVO",
    "LAB_SERVO_CURRENT",
    "WEIGHT_PRESETS",
    "FEASIBLE_PRESETS",
    "TRAJECTORY_PRESETS",
    "get_preset",
    "get_weights",
]


# -- plant ---------------------------------------------------------------

# The benchtop ball-screw axis: a 250 W PMSM (one-phase equivalent
# electrical constants, q-axis), a stiff screw coupling, and the carriage
# reflected through the 18 mm screw lead.
LAB_SERVO = PlantParams(
    Rs=9.02,        # stator resistance [ohm]
    Ls=0.0187,      # stator inductance [H]
    Kt=0.515,       # torque constant [N m / A]
    Kb=0.55,        # back-EMF constant [V s / rad]
    Jm=0.27e-4,     # rotor inertia [kg m^2]
    Bm=0.0074,      # motor-side viscous friction [N m s / rad]
    Jl=6.53e-4,     # load-side inertia [kg m^2]
    Bml=0.014,      # coupling damping [N m s / rad]
    Ks=3e7,         # coupling stiffness [N m / rad]
    Q=0.018,        # screw lead [m / rev]
    omega_max=8000.0 * 2.0 * math.pi / 60.0,  # speed rail [rad/s]
)

# The drive's internal current-loop PI.
LAB_SERVO_CURRENT = CurrentControllerGains(kp=60.0, ki=1000.0)


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
    # default scoring move for the simulated benchmark
    "bench-move": BENCH_MOVE,
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

    The axis, its current loop and the simulation configuration are the
    same for every preset (see the module docstring), and every command
    searches with the default ``BoConfig``.
    """

    name: str
    trajectory: TrajectorySpec
    weights: str                  # key into WEIGHT_PRESETS
    feasible: FeasibleSet

    def bench(self, weights: CostWeights | None = None) -> TuningBench:
        """Assemble the memoized cost oracle this preset describes."""
        w = weights if weights is not None else WEIGHT_PRESETS[self.weights]
        return TuningBench(LAB_SERVO, LAB_SERVO_CURRENT, w,
                           profile=generate_profile(self.trajectory),
                           sim_config=SimConfig())


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
