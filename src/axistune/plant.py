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
model (i_q, w_m, th_m, w_l, th_l) with voltage and load-torque inputs;
it is the one place the plant's A and B matrices are defined, and the
time-domain simulator builds its drive from it.  The ball-screw lead
``Q`` converts rotation to linear travel: one revolution moves the nut
by Q meters, so linear position is ``theta * Q / (2*pi)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ModelError",
    "PlantParams",
    "StateSpaceModel",
    "physical_state_model",
]


class ModelError(ValueError):
    """Raised for non-physical parameters and inconsistent model
    dimensions."""


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


# -- state space --------------------------------------------------------------


@dataclass(frozen=True)
class StateSpaceModel:
    """Continuous LTI model dx/dt = A x + B u, y = C x + D u."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    state_labels: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        for name in ("A", "B", "C", "D"):
            object.__setattr__(self, name, np.atleast_2d(np.asarray(getattr(self, name), dtype=float)))
        n = self.A.shape[0]
        if self.A.shape != (n, n) or self.B.shape[0] != n or self.C.shape[1] != n:
            raise ModelError("inconsistent state-space dimensions")
        if self.D.shape != (self.C.shape[0], self.B.shape[1]):
            raise ModelError("inconsistent feedthrough dimensions")

    def frequency_response(self, omega, input_index: int = 0, output_index: int = 0) -> np.ndarray:
        """C (jwI - A)^-1 B + D for each angular frequency."""
        out = []
        eye = np.eye(self.A.shape[0])
        b = self.B[:, input_index]
        c = self.C[output_index, :]
        d = self.D[output_index, input_index]
        for w in np.atleast_1d(omega):
            sol = np.linalg.solve(1j * float(w) * eye - self.A, b)
            out.append(c @ sol + d)
        return np.asarray(out)


def physical_state_model(p: PlantParams) -> StateSpaceModel:
    """State-space servo axis with voltage and load-torque inputs.

    States are (i_q, w_m, th_m, w_l, th_l), all five exposed as outputs;
    inputs are (v_q, tau_l).
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
    C = np.eye(5)
    D = np.zeros((5, 2))
    return StateSpaceModel(
        A, B, C, D, state_labels=("i_q", "w_m", "th_m", "w_l", "th_l"),
    )
