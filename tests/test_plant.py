"""State-space model checks."""

import numpy as np
import pytest

from axistune.plant import LAB_SERVO, STATES, ModelError, physical_state_model


def _voltage_response(plant, omega, output):
    """State ``output`` of the resolvent (jwI - A)^-1 B for the voltage
    input, at each angular frequency."""
    A, B = physical_state_model(plant)
    eye, i = np.eye(len(STATES)), STATES.index(output)
    return np.array([np.linalg.solve(1j * w * eye - A, B[:, 0])[i] for w in omega])


def _dc_magnitude(plant, output):
    """|voltage -> output| at 1e-3 rad/s, five decades below the slowest
    pole: the DC gain to ~1e-10.  The phase there is still ~1e-5 rad, so
    only magnitudes are compared."""
    return float(np.abs(_voltage_response(plant, [1e-3], output)[0]))


def test_speed_dc_gain_matches_lumped_constants():
    p = LAB_SERVO
    g = _dc_magnitude(p, "w_m")
    expected = p.Kt / (p.Kt * p.Kb + p.Rs * (p.Bm + p.Bl))
    assert abs(g - expected) <= 1e-8 * expected
    assert expected == pytest.approx(1.4714, rel=1e-4)


def test_physical_model_motor_speed_matches_the_rigid_closed_form():
    # one rigid body J = Jm + Jl, B = Bm + Bl behind the winding:
    #     G(s) = Kt / ((Ls*s + Rs)*(J*s + B) + Kt*Kb)
    # for voltage -> motor speed; a screw spring would show near its
    # 1.08e6 rad/s axial mode, inside the band
    p = LAB_SERVO
    J, B = p.Jm + p.Jl, p.Bm + p.Bl
    den = np.polyadd(np.polymul([p.Ls, p.Rs], [J, B]), [p.Kt * p.Kb])
    omega = np.logspace(0, 6, 60)
    h_tf = p.Kt / np.polyval(den, 1j * omega)
    h_ss = _voltage_response(p, omega, "w_m")
    assert np.all(np.abs(h_ss - h_tf) <= 1e-9 * np.abs(h_tf))


def test_sampled_lead_conversion():
    assert LAB_SERVO.lead_per_rad == pytest.approx(0.018 / (2.0 * np.pi), rel=1e-12)


def test_nonphysical_parameters_are_rejected():
    import dataclasses

    with pytest.raises(ModelError):
        dataclasses.replace(LAB_SERVO, Rs=0.0)
    with pytest.raises(ModelError):
        dataclasses.replace(LAB_SERVO, Bm=-1e-6)
    with pytest.raises(ModelError):
        dataclasses.replace(LAB_SERVO, Jl=-6.53e-4)


@pytest.mark.parametrize("name, value", [
    ("Rs", float("nan")), ("Jl", float("inf")), ("Bm", float("nan")),
    ("Bl", float("inf")),
])
def test_non_finite_parameters_are_rejected(name, value):
    import dataclasses

    with pytest.raises(ModelError, match=f"{name} must be finite"):
        dataclasses.replace(LAB_SERVO, **{name: value})
