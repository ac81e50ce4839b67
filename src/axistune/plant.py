"""Ball-screw servo axis model.

The drive is a permanent-magnet synchronous motor in the dq frame (the
d-axis current is regulated to zero, so only the q-axis dynamics remain)
coupled to a two-mass drivetrain: motor inertia and load inertia joined
by a stiff axial spring with shaft damping.

Electrical side::

    v_q = Ls * di_q/dt + Rs * i_q + Kb * w_m,      tau_m = Kt * i_q

Mechanical side (angles theta, speeds w = d theta/dt)::

    Jm * dw_m/dt = tau_m - Bm*w_m - Bml*(w_m - w_l) - Ks*(th_m - th_l)
    Jl * dw_l/dt = tau_l - Bl*w_l + Bml*(w_m - w_l) + Ks*(th_m - th_l)

:func:`physical_state_model` writes these equations as the five-state
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
    dampings [N*m*s/rad], Ks [N*m/rad], Q [m/rev], omega_max [rad/s].
    """

    Rs: float
    Ls: float
    Kt: float
    Kb: float
    Jm: float
    Bm: float
    Jl: float
    Bml: float
    Ks: float
    Q: float
    omega_max: float
    Bl: float = 0.0

    def __post_init__(self) -> None:
        for name in ("Rs", "Ls", "Kt", "Kb", "Jm", "Jl", "Ks", "Q", "omega_max"):
            if getattr(self, name) <= 0.0:
                raise ModelError(f"{name} must be strictly positive")
        for name in ("Bm", "Bml", "Bl"):
            if getattr(self, name) < 0.0:
                raise ModelError(f"{name} must be non-negative")

    @property
    def lead_per_rad(self) -> float:
        """Linear travel per radian of rotation, Q / (2*pi)."""
        return self.Q / (2.0 * np.pi)


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


# -- state space --------------------------------------------------------------

# State order of the model: q current, motor speed and angle, load speed
# and angle.
STATES = ("i_q", "w_m", "th_m", "w_l", "th_l")


def physical_state_model(p: PlantParams) -> tuple[np.ndarray, np.ndarray]:
    """(A, B) of dx/dt = A x + B u for the servo axis.

    States are ``STATES``; inputs are (v_q, tau_l).
    """
    A = np.array(
        [
            [-p.Rs / p.Ls, -p.Kb / p.Ls, 0.0, 0.0, 0.0],
            [p.Kt / p.Jm, -(p.Bm + p.Bml) / p.Jm, -p.Ks / p.Jm, p.Bml / p.Jm, p.Ks / p.Jm],
            [0.0, 1.0, 0.0, 0.0, 0.0],
            [0.0, p.Bml / p.Jl, p.Ks / p.Jl, -(p.Bml + p.Bl) / p.Jl, -p.Ks / p.Jl],
            [0.0, 0.0, 0.0, 1.0, 0.0],
        ]
    )
    B = np.zeros((5, 2))
    B[0, 0] = 1.0 / p.Ls
    B[3, 1] = 1.0 / p.Jl
    return A, B
