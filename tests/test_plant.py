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
    only magnitudes are compared, and the resolvent solve limits them to
    ~1e-8 (see the transfer-function check below)."""
    return float(np.abs(_voltage_response(plant, [1e-3], output)[0]))


def test_load_follows_motor_at_dc():
    ratio = _dc_magnitude(LAB_SERVO, "w_l") / _dc_magnitude(LAB_SERVO, "w_m")
    assert abs(ratio - 1.0) <= 1e-8


def test_speed_dc_gain_matches_lumped_constants():
    p = LAB_SERVO
    g = _dc_magnitude(p, "w_l")
    expected = p.Kt / (p.Kt * p.Kb + p.Rs * p.Bm)
    assert abs(g - expected) <= 1e-8 * expected
    assert expected == pytest.approx(1.4714, rel=1e-4)


def test_motor_and_load_paths_factor_the_full_model():
    # load speed = motor speed * C(s)/B(s): the spring-damper coupling
    # C = Bml s + Ks drives the load inertia B = Jl s^2 + (Bml+Bl) s + Ks;
    # the band spans the axial resonance near 1.08e6 rad/s
    p = LAB_SERVO
    omega = np.logspace(0, 6.5, 60)
    s = 1j * omega
    h_m, h_l = (_voltage_response(p, omega, name) for name in ("w_m", "w_l"))
    f3 = np.polyval([p.Bml, p.Ks], s) / np.polyval([p.Jl, p.Bml + p.Bl, p.Ks], s)
    assert np.all(np.abs(h_l - h_m * f3) <= 1e-6 * np.abs(h_l))


def test_physical_model_load_speed_matches_transfer_function():
    # Closed form of the voltage-to-load-speed path: with the two-mass
    # polynomials A = Jm s^2 + (Bm+Bml) s + Ks, B = Jl s^2 + (Bml+Bl) s + Ks,
    # C = Bml s + Ks and D = (A*B - C^2)/s (the constant term cancels),
    #     G(s) = Kt*C(s) / (Kt*Kb*B(s) + (Ls*s + Rs)*D(s)).
    p = LAB_SERVO
    A = [p.Jm, p.Bm + p.Bml, p.Ks]
    B = [p.Jl, p.Bml + p.Bl, p.Ks]
    C = [p.Bml, p.Ks]
    det = np.polysub(np.polymul(A, B), np.polymul(C, C))
    assert abs(det[-1]) <= 1e-9 * np.abs(det).max()
    D = det[:-1]
    num = p.Kt * np.asarray(C)
    den = np.polyadd(p.Kt * p.Kb * np.asarray(B), np.polymul([p.Ls, p.Rs], D))

    omega = np.logspace(0, 4, 40)
    s = 1j * omega
    h_tf = np.polyval(num, s) / np.polyval(den, s)
    h_ss = _voltage_response(p, omega, "w_l")
    # the stiff spring spreads the A-matrix entries over ~12 decades, so the
    # resolvent solve keeps ~7 significant digits here, not machine precision
    assert np.all(np.abs(h_ss - h_tf) <= 1e-6 * np.abs(h_tf))


def test_sampled_lead_conversion():
    assert LAB_SERVO.lead_per_rad == pytest.approx(0.018 / (2.0 * np.pi), rel=1e-12)


def test_nonphysical_parameters_are_rejected():
    import dataclasses

    with pytest.raises(ModelError):
        dataclasses.replace(LAB_SERVO, Rs=0.0)
    with pytest.raises(ModelError):
        dataclasses.replace(LAB_SERVO, Bm=-1e-6)
    with pytest.raises(ModelError):
        dataclasses.replace(LAB_SERVO, Ks=-3e7)


@pytest.mark.parametrize("name, value", [
    ("Rs", float("nan")), ("Ks", float("inf")), ("Bm", float("nan")),
    ("Bl", float("inf")),
])
def test_non_finite_parameters_are_rejected(name, value):
    import dataclasses

    with pytest.raises(ModelError, match=f"{name} must be finite"):
        dataclasses.replace(LAB_SERVO, **{name: value})
