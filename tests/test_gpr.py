"""Gaussian-process regression checks against dense linear-algebra oracles."""

import math

import numpy as np
import pytest

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


def _oracle_predict(X, y, h, x):
    """Textbook GP equations with an explicit dense inverse."""
    K = _dense_kernel_matrix(X, h) + h.sigma_w**2 * np.eye(len(X))
    K_inv = np.linalg.inv(K)
    k_star = np.array([kernel(xi, x, h) for xi in X])
    mu = float(k_star @ K_inv @ y)
    var = float(kernel(x, x, h) - k_star @ K_inv @ k_star)
    return mu, var


def _oracle_nlml(X, y, h):
    K = _dense_kernel_matrix(X, h) + h.sigma_w**2 * np.eye(len(X))
    sign, logdet = np.linalg.slogdet(K)
    assert sign > 0
    return float(
        0.5 * y @ np.linalg.solve(K, y)
        + 0.5 * logdet
        + 0.5 * len(y) * math.log(2.0 * math.pi)
    )


def _random_dataset(rng, m, d):
    X = rng.uniform(-2.0, 2.0, size=(m, d))
    y = np.sin(X).sum(axis=1) + 0.05 * rng.standard_normal(m)
    return Dataset(X, y)


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
    rng = np.random.default_rng(3)
    data = _random_dataset(rng, 12, 2)
    g = fit(data, h)
    K = _dense_kernel_matrix(data.X, h) + h.sigma_w**2 * np.eye(data.m)
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
            mu_o, var_o = _oracle_predict(data.X, data.y, h, x)
            assert mu[i] == pytest.approx(mu_o, abs=1e-8)
            assert var[i] == pytest.approx(var_o, abs=1e-8)


def test_nlml_matches_the_dense_oracle():
    rng = np.random.default_rng(9)
    h = GpHyperparams(1.2, (0.7, 0.9), 0.15)
    for _ in range(15):
        data = _random_dataset(rng, int(rng.integers(3, 40)), 2)
        ours = nlml(data, h)[0]
        ref = _oracle_nlml(data.X, data.y, h)
        assert ours == pytest.approx(ref, abs=1e-8)


def test_single_zero_observation_closed_form():
    # with one observation y=0 the marginal likelihood reduces to a
    # univariate normal: 0.5*log(sigma_f^2 + sigma_w^2) + 0.5*log(2*pi)
    h = GpHyperparams(1.7, (0.4,), 0.3)
    data = Dataset(np.zeros((1, 1)), np.zeros(1))
    expected = 0.5 * math.log(h.sigma_f**2 + h.sigma_w**2) + 0.5 * math.log(
        2.0 * math.pi
    )
    assert nlml(data, h)[0] == pytest.approx(expected, rel=1e-12)


def test_interpolation_with_small_noise():
    rng = np.random.default_rng(21)
    h = GpHyperparams(1.0, (0.5,), 1e-3)
    X = np.linspace(-1.0, 1.0, 9).reshape(-1, 1)
    y = np.sin(3.0 * X[:, 0])
    g = fit(Dataset(X, y), h)
    mu, var = predict(g, X)
    assert np.all(np.abs(mu - y) <= 3.0 * h.sigma_w + 1e-6)
    assert np.all((-1e-12 <= var) & (var <= h.sigma_f**2 + 1e-10))
    # away from data the variance recovers toward the prior
    _, var_far = predict(g, np.array([40.0]))
    assert var_far[0] == pytest.approx(h.sigma_f**2, rel=1e-6)
    del rng


def test_variance_bounds_everywhere():
    rng = np.random.default_rng(33)
    h = GpHyperparams(2.5, (0.4, 0.7), 0.05)
    data = _random_dataset(rng, 40, 2)
    g = fit(data, h)
    probes = rng.uniform(-3.0, 3.0, size=(200, 2))
    _, var = predict(g, probes)
    assert np.all(var >= 0.0)
    assert np.all(var <= h.sigma_f**2 + 1e-10)


def test_posterior_mean_inherits_data_symmetry():
    # symmetric observations force an antisymmetric posterior mean
    h = GpHyperparams(1.0, (0.7,), 0.1)
    X = np.array([[-1.5], [-0.5], [0.5], [1.5]])
    y = np.array([-2.0, -1.0, 1.0, 2.0])
    g = fit(Dataset(X, y), h)
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
    shifted = Dataset(data.X, data.y + 500.0)
    bounds = np.array([[-2.0, 2.0], [-2.0, 2.0]])
    g = fit(shifted, h, input_bounds=bounds, standardize_targets=True)
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
    fast = Dataset(X, 2.0 * np.sin(8.0 * X[:, 0]) + noise)
    slow = Dataset(X, 2.0 * np.sin(0.8 * X[:, 0]) + noise)
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
    data = Dataset(X, np.full(12, 3.7))
    init = GpHyperparams(1.0, (0.3,), 1e-2)
    h = fit_hyperparams(data, init, standardize_targets=True, seed=1)
    g = fit(data, h, standardize_targets=True)
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
    data = Dataset(X, y + rng.standard_normal(25))

    def value(v):
        return nlml(data, GpHyperparams.from_log_vector(v), input_bounds=bounds,
                    standardize_targets=True)[0]

    v = h.to_log_vector()
    step = 1e-5
    central = np.array([(value(v + step * e) - value(v - step * e)) / (2.0 * step)
                        for e in np.eye(len(v))])
    _, grad = nlml(data, h, input_bounds=bounds, standardize_targets=True)
    assert grad == pytest.approx(central, rel=1e-5)


@pytest.mark.parametrize("standardize", [False, True])
@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_fit_hyperparams_raises_when_no_start_has_a_finite_nlml(bad, standardize):
    rng = np.random.default_rng(4)
    X = rng.uniform(0.0, 1.0, size=(10, 2))
    y = np.sin(3.0 * X[:, 0]) + X[:, 1]
    y[3] = bad
    with pytest.raises(HyperparamSearchError):
        fit_hyperparams(Dataset(X, y), GpHyperparams(1.0, (0.3, 0.3), 1e-2),
                        standardize_targets=standardize)


def test_fit_hyperparams_needs_enough_points():
    data = Dataset(np.zeros((2, 1)), np.zeros(2))
    with pytest.raises(ValueError):
        fit_hyperparams(data, GpHyperparams(1.0, (0.3,), 1e-2))


def test_validation_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        GpHyperparams(0.0, (0.3,), 0.1)
    with pytest.raises(ValueError):
        GpHyperparams(1.0, (0.0,), 0.1)
    with pytest.raises(ValueError):
        GpHyperparams(1.0, (0.3,), -0.1)
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.zeros(4))
    with pytest.raises(ValueError):
        Dataset(np.zeros((0, 2)), np.zeros(0))
    h2 = GpHyperparams(1.0, (0.3, 0.4), 0.1)
    with pytest.raises(ValueError):
        fit(Dataset(np.zeros((3, 1)), np.zeros(3)), h2)  # dimension mismatch


def test_hyperparam_search_error_is_exported():
    assert issubclass(HyperparamSearchError, Exception)
