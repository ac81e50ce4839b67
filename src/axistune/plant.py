"""Ball-screw servo axis model.

The drive is a permanent-magnet synchronous motor in the dq frame (the
d-axis current is regulated to zero, so only the q-axis dynamics remain)
driving the screw and carriage as one rigid body: J = Jm + Jl,
B = Bm + Bl.

Electrical side::

    v_q = Ls * di_q/dt + Rs * i_q + Kb * w_m,      tau_m = Kt * i_q

Mechanical side (angle th_m, speed w_m = d th_m/dt)::

    J * dw_m/dt = tau_m + tau_l - B*w_m

The axis is rigid because the screw is: at 3e7 N*m/rad of axial
stiffness the motor-load mode sits at 1.08e6 rad/s (172 kHz), about 340
times the tick's Nyquist rate, where the simulator's 1 us RK4 steps
would damp it about 1e4 times faster than the physics does.  The motor
encoder feeds both outer loops; modelled as a spring, the screw moved
rail-free costs by at most 4.5e-7 relative.

:func:`physical_state_model` writes these equations as the three-state
model ``STATES`` with voltage and load-torque inputs; it is the one
place the plant's A and B matrices are defined, and the time-domain
simulator builds its drive from it.  The ball-screw lead ``Q`` converts
rotation to linear travel: one revolution moves the nut by Q meters, so
linear position is ``theta * Q / (2*pi)``.

``LAB_SERVO`` is the axis every experiment in this package runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LAB_SERVO",
    "ModelError",
    "PlantParams",
    "STATES",
    "physical_state_model",
]


class ModelError(ValueError):
    """Raised for non-physical plant parameters."""


@dataclass(frozen=True)
class PlantParams:
    """Electrical and mechanical constants of one servo axis.

    Units: Rs [ohm], Ls [H], Kt [N*m/A], Kb [V*s/rad], inertias [kg*m^2],
    dampings [N*m*s/rad], Q [m/rev], omega_max [rad/s].
    """

    Rs: float
    Ls: float
    Kt: float
    Kb: float
    Jm: float
    Bm: float
    Jl: float
    Q: float
    omega_max: float
    Bl: float = 0.0

    def __post_init__(self) -> None:
        for name in ("Rs", "Ls", "Kt", "Kb", "Jm", "Jl", "Q", "omega_max"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ModelError(f"{name} must be finite and strictly positive")
        for name in ("Bm", "Bl"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ModelError(f"{name} must be finite and non-negative")

    @property
    def lead_per_rad(self) -> float:
        """Linear travel per radian of rotation, Q / (2*pi)."""
        return self.Q / (2.0 * np.pi)


# The benchtop ball-screw axis: a 250 W PMSM (one-phase equivalent
# electrical constants, q-axis) and the screw and carriage reflected
# through the 18 mm screw lead.
LAB_SERVO = PlantParams(
    Rs=9.02,        # stator resistance [ohm]
    Ls=0.0187,      # stator inductance [H]
    Kt=0.515,       # torque constant [N m / A]
    Kb=0.55,        # back-EMF constant [V s / rad]
    Jm=0.27e-4,     # rotor inertia [kg m^2]
    Bm=0.0074,      # motor-side viscous friction [N m s / rad]
    Jl=6.53e-4,     # load-side inertia [kg m^2]
    Q=0.018,        # screw lead [m / rev]
    omega_max=8000.0 * 2.0 * math.pi / 60.0,  # speed rail [rad/s]
)


# -- state space --------------------------------------------------------------

# State order of the model: q current, motor speed and angle.
STATES = ("i_q", "w_m", "th_m")


def physical_state_model(p: PlantParams) -> tuple[np.ndarray, np.ndarray]:
    """(A, B) of dx/dt = A x + B u for the servo axis.

    States are ``STATES``; inputs are (v_q, tau_l).
    """
    J = p.Jm + p.Jl
    A = np.array(
        [
            [-p.Rs / p.Ls, -p.Kb / p.Ls, 0.0],
            [p.Kt / J, -(p.Bm + p.Bl) / J, 0.0],
            [0.0, 1.0, 0.0],
        ]
    )
    B = np.zeros((3, 2))
    B[0, 0] = 1.0 / p.Ls
    B[1, 1] = 1.0 / J
    return A, B
