"""Gaussian-process regression checks against dense linear-algebra oracles.

The GP always works on inputs scaled to the unit box of its dataset's
bounds and on standardized targets, so the oracles run the textbook
equations on both and map predictions back to target units.
"""

import math

import numpy as np
import pytest

from axistune import gpr
from axistune.gpr import (
    Dataset,
    GpHyperparams,
    HyperparamSearchError,
    default_hyper_bounds,
    fit,
    fit_hyperparams,
    nlml,
    predict,
)


def kernel(x, xp, h):
    """Squared-exponential covariance of two points, summed term by term."""
    s = 0.0
    for a, b, l in zip(x, xp, h.lengthscales):
        d = (a - b) / l
        s += d * d
    return h.sigma_f * h.sigma_f * math.exp(-0.5 * s)


def _dense_kernel_matrix(X, h):
    m = len(X)
    K = np.empty((m, m))
    for i in range(m):
        for j in range(m):
            K[i, j] = kernel(X[i], X[j], h)
    return K


def _box(d, lo=-2.0, hi=2.0):
    return np.array([[lo, hi]] * d)


def _unit(X, bounds):
    """Inputs mapped to the unit box of ``bounds``."""
    return (np.asarray(X, dtype=float) - bounds[:, 0]) / (bounds[:, 1] - bounds[:, 0])


def _standardized(y):
    sd = float(np.std(y))
    sd = sd if sd > 0.0 else 1.0
    return (y - np.mean(y)) / sd, float(np.mean(y)), sd


def _oracle_predict(X, y, h, bounds, x):
    """Textbook GP equations with an explicit dense inverse."""
    U, u = _unit(X, bounds), _unit(x, bounds)
    z, mean, sd = _standardized(y)
    K = _dense_kernel_matrix(U, h) + h.sigma_w**2 * np.eye(len(U))
    K_inv = np.linalg.inv(K)
    k_star = np.array([kernel(ui, u, h) for ui in U])
    mu = float(k_star @ K_inv @ z)
    var = float(kernel(u, u, h) - k_star @ K_inv @ k_star)
    return mean + sd * mu, sd * sd * var


def _oracle_nlml(X, y, h, bounds):
    U = _unit(X, bounds)
    z, _, _ = _standardized(y)
    K = _dense_kernel_matrix(U, h) + h.sigma_w**2 * np.eye(len(U))
    sign, logdet = np.linalg.slogdet(K)
    assert sign > 0
    return float(
        0.5 * z @ np.linalg.solve(K, z)
        + 0.5 * logdet
        + 0.5 * len(z) * math.log(2.0 * math.pi)
    )


def _random_dataset(rng, m, d):
    X = rng.uniform(-2.0, 2.0, size=(m, d))
    y = np.sin(X).sum(axis=1) + 0.05 * rng.standard_normal(m)
    return Dataset(X, y, _box(d))


def test_kernel_basic_identities():
    h = GpHyperparams(2.0, (0.5, 1.0), 0.1)
    x = np.array([0.3, -0.4])
    assert kernel(x, x, h) == pytest.approx(4.0, rel=1e-12)
    xp = np.array([0.5, 0.1])
    assert kernel(x, xp, h) == kernel(xp, x, h)
    # explicit formula
    r2 = ((x - xp) ** 2 / np.array([0.5, 1.0]) ** 2).sum()
    assert kernel(x, xp, h) == pytest.approx(4.0 * math.exp(-0.5 * r2), rel=1e-12)
    far = kernel(x, x + 100.0, h)
    assert 0.0 <= far < 1e-10

    # the fitted factor reproduces the dense regularized kernel matrix
    # of the unit-box inputs
    rng = np.random.default_rng(3)
    data = _random_dataset(rng, 12, 2)
    g = fit(data, h)
    K = _dense_kernel_matrix(_unit(data.X, _box(2)), h) + h.sigma_w**2 * np.eye(data.m)
    assert np.allclose(g.L @ g.L.T, K, rtol=0.0, atol=1e-12)


def test_posterior_matches_the_dense_oracle():
    rng = np.random.default_rng(5)
    h = GpHyperparams(1.5, (0.8, 0.6, 1.2), 0.2)
    for _ in range(10):
        data = _random_dataset(rng, int(rng.integers(3, 30)), 3)
        g = fit(data, h)
        assert g.jitter_used == 0.0
        probes = rng.uniform(-2.0, 2.0, size=(5, 3))
        mu, var = predict(g, probes)
        for i, x in enumerate(probes):
            mu_o, var_o = _oracle_predict(data.X, data.y, h, _box(3), x)
            assert mu[i] == pytest.approx(mu_o, abs=1e-8)
            assert var[i] == pytest.approx(var_o, abs=1e-8)


def test_nlml_matches_the_dense_oracle():
    rng = np.random.default_rng(9)
    h = GpHyperparams(1.2, (0.7, 0.9), 0.15)
    for _ in range(15):
        data = _random_dataset(rng, int(rng.integers(3, 40)), 2)
        ours = nlml(data, h)[0]
        ref = _oracle_nlml(data.X, data.y, h, _box(2))
        assert ours == pytest.approx(ref, abs=1e-8)


def test_single_zero_observation_closed_form():
    # with one observation y=0 the marginal likelihood reduces to a
    # univariate normal: 0.5*log(sigma_f^2 + sigma_w^2) + 0.5*log(2*pi)
    h = GpHyperparams(1.7, (0.4,), 0.3)
    data = Dataset(np.zeros((1, 1)), np.zeros(1), _box(1, 0.0, 1.0))
    expected = 0.5 * math.log(h.sigma_f**2 + h.sigma_w**2) + 0.5 * math.log(
        2.0 * math.pi
    )
    assert nlml(data, h)[0] == pytest.approx(expected, rel=1e-12)


def test_interpolation_with_small_noise():
    rng = np.random.default_rng(21)
    h = GpHyperparams(1.0, (0.25,), 1e-3)
    X = np.linspace(-1.0, 1.0, 9).reshape(-1, 1)
    y = np.sin(3.0 * X[:, 0])
    g = fit(Dataset(X, y, _box(1, -1.0, 1.0)), h)
    mu, var = predict(g, X)
    # the noise and the prior variance are in standardized units
    sd = float(np.std(y))
    assert np.all(np.abs(mu - y) <= 3.0 * sd * h.sigma_w + 1e-6)
    assert np.all((-1e-12 <= var) & (var <= sd**2 * h.sigma_f**2 + 1e-10))
    # away from data the variance recovers toward the prior
    _, var_far = predict(g, np.array([40.0]))
    assert var_far[0] == pytest.approx(sd**2 * h.sigma_f**2, rel=1e-6)
    del rng


def test_variance_bounds_everywhere():
    rng = np.random.default_rng(33)
    h = GpHyperparams(2.5, (0.4, 0.7), 0.05)
    data = _random_dataset(rng, 40, 2)
    g = fit(data, h)
    probes = rng.uniform(-3.0, 3.0, size=(200, 2))
    _, var = predict(g, probes)
    assert np.all(var >= 0.0)
    assert np.all(var <= float(np.std(data.y))**2 * h.sigma_f**2 + 1e-10)


def test_posterior_mean_inherits_data_symmetry():
    # symmetric observations force an antisymmetric posterior mean
    h = GpHyperparams(1.0, (0.7,), 0.1)
    X = np.array([[-1.5], [-0.5], [0.5], [1.5]])
    y = np.array([-2.0, -1.0, 1.0, 2.0])
    g = fit(Dataset(X, y, _box(1)), h)  # symmetric about zero
    xv = np.array([[0.2], [0.9], [1.7]])
    mu_p, _ = predict(g, xv)
    mu_n, _ = predict(g, -xv)
    assert np.all(np.abs(mu_p + mu_n) <= 1e-10)
    mu0, _ = predict(g, np.array([0.0]))
    assert abs(mu0[0]) <= 1e-10


def test_standardized_fit_returns_original_units():
    rng = np.random.default_rng(55)
    h = GpHyperparams(1.0, (0.5, 0.5), 0.1)
    data = _random_dataset(rng, 20, 2)
    shifted = Dataset(data.X, data.y + 500.0, _box(2))
    g = fit(shifted, h)
    mu, var = predict(g, data.X[0])
    assert abs(mu[0] - shifted.y[0]) <= 3.0  # right neighborhood, original units
    assert var[0] >= 0.0
    # far from data the mean reverts to the target average, not to zero
    mu_far, _ = predict(g, np.array([50.0, 50.0]))
    assert abs(mu_far[0] - shifted.y.mean()) <= 1e-6


def test_fitted_lengthscale_tracks_the_data_roughness():
    # a fast-varying target must earn a clearly shorter lengthscale than a
    # slow one, and descent must not end worse than its starting point
    rng = np.random.default_rng(77)
    X = rng.uniform(-2.0, 2.0, size=(60, 1))
    noise = 0.05 * rng.standard_normal(60)
    init = GpHyperparams(1.0, (0.3,), 1e-2)
    box = _box(1)
    fast = Dataset(X, 2.0 * np.sin(8.0 * X[:, 0]) + noise, box)
    slow = Dataset(X, 2.0 * np.sin(0.8 * X[:, 0]) + noise, box)
    h_fast = fit_hyperparams(fast, init, seed=3)
    h_slow = fit_hyperparams(slow, init, seed=3)
    assert h_slow.lengthscales[0] >= 2.0 * h_fast.lengthscales[0]
    assert nlml(fast, h_fast)[0] <= nlml(fast, init)[0] + 1e-9
    assert nlml(slow, h_slow)[0] <= nlml(slow, init)[0] + 1e-9


def test_constant_targets_still_yield_a_usable_posterior():
    # constant targets carry no signal; whatever corner of the (flat)
    # likelihood valley the search lands in, the posterior must reproduce
    # the constant with near-zero uncertainty at the data
    X = np.linspace(0.0, 1.0, 12).reshape(-1, 1)
    data = Dataset(X, np.full(12, 3.7), _box(1, 0.0, 1.0))
    init = GpHyperparams(1.0, (0.3,), 1e-2)
    h = fit_hyperparams(data, init, seed=1)
    g = fit(data, h)
    mu, var = predict(g, np.array([0.5]))
    assert mu[0] == pytest.approx(3.7, abs=1e-3)
    assert 0.0 <= var[0] <= 1e-2


BOX3 = default_hyper_bounds(3)


@pytest.mark.parametrize("h", [
    GpHyperparams(1.3, (0.4, 0.7, 0.25), 0.1),
    # next to the box: a lengthscale just above its lower bound, and
    # sigma_w just below its upper bound
    GpHyperparams(0.8, (1.01 * BOX3[1, 0], 0.5, 0.6), 0.05),
    GpHyperparams(2.0, (0.3, 0.2, 0.4), 0.999 * BOX3[4, 1]),
])
def test_nlml_gradient_matches_central_differences(h):
    rng = np.random.default_rng(12)
    bounds = np.array([[150.0, 600.0], [0.05, 0.5], [90.0, 900.0]])
    X = bounds[:, 0] + rng.uniform(0.0, 1.0, size=(25, 3)) * (bounds[:, 1] - bounds[:, 0])
    u = (X - bounds[:, 0]) / (bounds[:, 1] - bounds[:, 0])
    y = 300.0 + 200.0 * np.sin(4.0 * u[:, 0]) * np.cos(3.0 * u[:, 1]) + 50.0 * u[:, 2]
    data = Dataset(X, y + rng.standard_normal(25), bounds)

    def value(v):
        return nlml(data, GpHyperparams.from_log_vector(v))[0]

    v = h.to_log_vector()
    step = 1e-5
    central = np.array([(value(v + step * e) - value(v - step * e)) / (2.0 * step)
                        for e in np.eye(len(v))])
    _, grad = nlml(data, h)
    assert grad == pytest.approx(central, rel=1e-5)


@pytest.mark.parametrize("in_grad", [False, True])
@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_fit_hyperparams_raises_when_no_start_has_a_finite_nlml(bad, in_grad,
                                                                 monkeypatch):
    # a dataset holds finite data only, so the NLML the descent reads is
    # made non-finite at every start: its value, or one gradient component
    real_nlml = gpr.nlml

    def non_finite_nlml(data, h):
        value, grad = real_nlml(data, h)
        if in_grad:
            grad[0] = bad
            return value, grad
        return bad, grad

    monkeypatch.setattr(gpr, "nlml", non_finite_nlml)
    rng = np.random.default_rng(4)
    X = rng.uniform(0.0, 1.0, size=(10, 2))
    y = np.sin(3.0 * X[:, 0]) + X[:, 1]
    with pytest.raises(HyperparamSearchError):
        fit_hyperparams(Dataset(X, y, _box(2, 0.0, 1.0)),
                        GpHyperparams(1.0, (0.3, 0.3), 1e-2), seed=0)


@pytest.mark.parametrize("name", ["X", "y"])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_data_is_rejected_by_name(name, bad):
    # a non-finite target or input would fit, then predict NaN or fail
    # every hyperparameter start
    rng = np.random.default_rng(4)
    data = {"X": rng.uniform(0.0, 1.0, size=(10, 2)), "y": np.arange(10.0)}
    data[name][3] = bad
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        Dataset(data["X"], data["y"], _box(2, 0.0, 1.0))


def test_fit_hyperparams_needs_enough_points():
    data = Dataset(np.zeros((2, 1)), np.zeros(2), _box(1, 0.0, 1.0))
    with pytest.raises(ValueError):
        fit_hyperparams(data, GpHyperparams(1.0, (0.3,), 1e-2), seed=0)


def test_fit_hyperparams_rejects_more_dimensions_than_its_sobol_table():
    # d inputs plus sigma_f and sigma_w take d + 2 Sobol dimensions: 3
    # inputs, as every search space has, fill the table; 4 overrun it
    d = len(gpr._SOBOL_POLY) - 1
    data = Dataset(np.eye(d), np.arange(d, dtype=float), _box(d))
    with pytest.raises(ValueError, match="at most 5 dimensions"):
        fit_hyperparams(data, GpHyperparams(1.0, (0.3,) * d, 1e-2), seed=0)


def test_validation_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        GpHyperparams(0.0, (0.3,), 0.1)
    with pytest.raises(ValueError):
        GpHyperparams(1.0, (0.0,), 0.1)
    with pytest.raises(ValueError):
        GpHyperparams(1.0, (0.3,), -0.1)
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.zeros(4), _box(2))
    with pytest.raises(ValueError):
        Dataset(np.zeros((0, 2)), np.zeros(0), _box(2))
    h2 = GpHyperparams(1.0, (0.3, 0.4), 0.1)
    data = Dataset(np.zeros((3, 1)), np.zeros(3), _box(1))
    with pytest.raises(ValueError):
        fit(data, h2)  # dimension mismatch
    with pytest.raises(ValueError):
        Dataset(data.X, data.y, _box(2))  # bounds of the wrong shape
    with pytest.raises(ValueError):
        Dataset(data.X, data.y, _box(1, 1.0, 1.0))  # a box of zero width


@pytest.mark.parametrize("sigma_f, lengthscales, sigma_w, name", [
    (math.nan, (0.3,), 0.1, "sigma_f"),
    (math.inf, (0.3,), 0.1, "sigma_f"),
    (1.0, (0.3, math.nan), 0.1, "lengthscales"),
    (1.0, (math.inf,), 0.1, "lengthscales"),
    (1.0, (0.3,), math.nan, "sigma_w"),
    (1.0, (0.3,), math.inf, "sigma_w"),
])
def test_non_finite_hyperparameters_are_rejected(sigma_f, lengthscales, sigma_w,
                                                  name):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        GpHyperparams(sigma_f, lengthscales, sigma_w)


@pytest.mark.parametrize("bounds", [[[0.0, math.nan]], [[math.nan, 1.0]],
                                    [[-math.inf, 1.0]]])
def test_non_finite_input_bounds_are_rejected(bounds):
    with pytest.raises(ValueError, match="^bounds must be finite$"):
        Dataset(np.array([[0.1], [0.5], [0.9]]), np.array([1.0, 2.0, 0.5]),
                np.array(bounds))


def test_hyperparam_search_error_is_exported():
    assert issubclass(HyperparamSearchError, Exception)


# -- pinned bits ---------------------------------------------------------------

# The desk box, and two datasets in it whose targets span more than
# two decades, like railed costs.  Every value below must hold bit for
# bit, so an operation reordered or fused anywhere in the kernel, the
# factorization, the NLML, its gradient, the fit or the prediction
# shows here.
DESK_BOUNDS = np.array([[150.0, 4200.0], [0.05, 0.5], [90.0, 900.0]])
LOG_INSIDE = [0.0, -1.0, -1.2, -0.8, -4.0]
# the box corner of largest amplitude and lengthscales, least noise:
# the factorization needs jitter there
LOG_JITTER = [math.log(1e3)] + [math.log(1e2)] * 3 + [math.log(1e-8)]
# far outside the box: no jitter up to the cap saves the factorization
LOG_FAILS = [math.log(1e100)] + [math.log(1e2)] * 3 + [math.log(1e-8)]


def _decades_dataset(m, seed):
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.0, 1.0, size=(m, 3))
    X = DESK_BOUNDS[:, 0] + u * (DESK_BOUNDS[:, 1] - DESK_BOUNDS[:, 0])
    y = 62.0 * np.exp(7.7 * u[:, 0] ** 2 * (1.2 - u[:, 1])
                      + 0.3 * rng.uniform(0.0, 1.0, m))
    return Dataset(X, y, DESK_BOUNDS)


PINNED = {
    20: dict(
        seed=1,
        inside=(51.57797166562317,
                [-70.76105043576395, 65.31620538757589, 31.540216420425185,
                 27.382851303258207, -0.5805267111921875]),
        jitter=(1e-09, 776629268.3350302,
                [-654311424.0, 1074183156.588507, 449058109.06074035,
                 339240022.5083888, -90.4232348170884]),
        fit=(1.7532455372052334,
             (0.16613574156870733, 0.3949497320119368, 100.00000000000004),
             1.046539714694744e-06),
        mu=[280.5384465402167, 30433.90583653831, 5531.8981567746705,
            74.19218013988393, 78.03759083149816],
        var=[57212.714844498165, 87001.17880190667, 25520.462847063307,
             5640.655898041262, 9877.866251717804],
    ),
    60: dict(
        seed=2,
        inside=(326.7876230443814,
                [-625.0456520018652, 683.8452668303582, 459.6525296744345,
                 417.4119027502919, -42.4048470779692]),
        jitter=(1e-08, 769279811.8771584,
                [-243793920.0, 329992320.7383651, 404565419.29876506,
                 51489353.619767174, -12.73902872008271]),
        fit=(3.2444429871273717,
             (0.3040024203902, 0.24351635845758254, 2.1474457852008686),
             5.658086945254029e-08),
        mu=[208.3237510266208, 236.38906246742954, -84.39586061763839,
            730.245789407134, -121.69408462670435],
        var=[11863.100848366274, 80040.60974397682, 30400.69043924076,
             65648.55436365395, 36921.93907344145],
    ),
}


def _same_bytes(a, pinned):
    return np.asarray(a, dtype=float).tobytes() == np.array(pinned).tobytes()


@pytest.mark.parametrize("m", sorted(PINNED))
def test_nlml_fit_and_predict_reproduce_pinned_bits(m, monkeypatch):
    pin = PINNED[m]
    data = _decades_dataset(m, pin["seed"])

    value, grad = nlml(data, GpHyperparams.from_log_vector(np.array(LOG_INSIDE)))
    assert value == pin["inside"][0] and _same_bytes(grad, pin["inside"][1])

    h_jitter = GpHyperparams.from_log_vector(np.array(LOG_JITTER))
    jitter, value, grad_pin = pin["jitter"]
    assert fit(data, h_jitter).jitter_used == jitter
    value_j, grad_j = nlml(data, h_jitter)
    assert value_j == value and _same_bytes(grad_j, grad_pin)

    with pytest.raises(np.linalg.LinAlgError):
        nlml(data, GpHyperparams.from_log_vector(np.array(LOG_FAILS)))

    # the descent's objective, caught on its way into the optimizer;
    # fit_hyperparams imports minimize when it runs, so the spy goes on
    # scipy.optimize, where that import reads it
    import scipy.optimize

    objectives = []
    real_minimize = scipy.optimize.minimize

    def spy(fun, x0, **kwargs):
        objectives.append(fun)
        return real_minimize(fun, x0, **kwargs)

    monkeypatch.setattr(scipy.optimize, "minimize", spy)
    h = fit_hyperparams(data, GpHyperparams(1.0, (0.3, 0.3, 0.3), 1e-3),
                        seed=pin["seed"])
    assert (h.sigma_f, h.lengthscales, h.sigma_w) == pin["fit"]
    # a failed evaluation is an infinite NLML with a flat gradient
    f, g = objectives[0](np.array(LOG_FAILS))
    assert f == math.inf and _same_bytes(g, [0.0] * 5)

    mu, var = predict(fit(data, h), data.X[:5] * 1.01)
    assert _same_bytes(mu, pin["mu"]) and _same_bytes(var, pin["var"])


def test_returned_arrays_do_not_alias_the_scratch():
    # nlml and fit write their work into buffers the dataset owns; what
    # they return must survive later calls on the same dataset
    data = _decades_dataset(20, 1)
    h = GpHyperparams.from_log_vector(np.array(LOG_INSIDE))
    g = fit(data, h)
    value, grad = nlml(data, h)
    kept = [g.X_scaled, g.L, g.alpha, g.input_shift, g.input_span, grad]
    before = [a.tobytes() for a in kept]

    other = GpHyperparams.from_log_vector(np.array(LOG_JITTER))
    nlml(data, other)
    fit(data, other)
    nlml(data, other)
    assert [a.tobytes() for a in kept] == before
    assert nlml(data, h)[0] == value


# -- Sobol starts ----------------------------------------------------------------

# seed 1's starts at the desk search's 5 hyperparameters, as scipy 1.17's
# qmc.Sobol(d=5, scramble=True, seed=1).random(8)[:7] drew them: the
# pinned search paths rest on these, whatever scipy's sampler becomes
SOBOL_SEED_1 = [
    ("0x1.3e6499cp-3", "0x1.2d704a2p-1", "0x1.370e751p-1", "0x1.f06f67ep-3", "0x1.b0fe35a8p-1"),
    ("0x1.5956023p-1", "0x1.d991c3ap-2", "0x1.2b1eff2p-3", "0x1.e2e4fd78p-1", "0x1.1cd12cp-8"),
    ("0x1.e313614p-1", "0x1.f9b22a08p-1", "0x1.bda3798p-1", "0x1.c397ee4p-2", "0x1.11237fbp-2"),
    ("0x1.ebb88ap-2", "0x1.c0540fcp-4", "0x1.80d566bp-2", "0x1.7f34d3ap-1", "0x1.3a562828p-1"),
    ("0x1.4e71e0fp-2", "0x1.861d1d38p-1", "0x1.bb3efcp-7", "0x1.10f082f8p-1", "0x1.5e8bb548p-1"),
    ("0x1.b1f7d438p-1", "0x1.1e96db2p-3", "0x1.7b253128p-1", "0x1.1c1f4cfp-2", "0x1.d898457p-2"),
    ("0x1.0bb2b748p-1", "0x1.52df7d1p-1", "0x1.1883eecp-2", "0x1.8d20ac2p-1", "0x1.9b90fcep-3"),
]


def test_sobol_starts_of_seed_1_are_pinned(monkeypatch):
    unit = np.array([[float.fromhex(x) for x in row] for row in SOBOL_SEED_1])
    assert gpr._sobol_starts(5, 7, 1).tobytes() == unit.tobytes()

    # and fit_hyperparams descends from them, after the clipped init
    import scipy.optimize

    x0s = []
    real_minimize = scipy.optimize.minimize

    def spy(fun, x0, **kwargs):
        x0s.append(np.array(x0))
        return real_minimize(fun, x0, **kwargs)

    monkeypatch.setattr(scipy.optimize, "minimize", spy)
    fit_hyperparams(_decades_dataset(20, 1), GpHyperparams(1.0, (0.3,) * 3, 1e-3),
                    seed=1)
    box = np.log(default_hyper_bounds(3))
    starts = box[:, 0] + unit * (box[:, 1] - box[:, 0])
    assert np.array(x0s[1:]).tobytes() == starts.tobytes()


def test_sobol_starts_match_scipy_bitwise():
    # scipy.stats loads here only: the GP draws its starts without it.
    # The seed goes in as an int, which scipy maps to default_rng(seed);
    # a Generator passed as rng= would be spawned, a different stream
    from scipy.stats import qmc

    def scipy_starts(d, s):
        return qmc.Sobol(d=d, scramble=True, seed=s).random(8)[:7]

    for s in [*range(2000), 2**31 - 1, 2**40 + 3]:
        assert gpr._sobol_starts(5, 7, s).tobytes() == scipy_starts(5, s).tobytes(), s
    # the 1- and 2-input fits above, and every tabulated dimension
    for d in range(1, len(gpr._SOBOL_POLY) + 1):
        for s in (0, 1, 2**40 + 3):
            assert gpr._sobol_starts(d, 7, s).tobytes() == scipy_starts(d, s).tobytes()
    # past the 7 starts the Gray-code walk continues as scipy's does
    many = qmc.Sobol(d=5, scramble=True, seed=3).random(64)
    assert gpr._sobol_starts(5, 64, 3).tobytes() == many.tobytes()
