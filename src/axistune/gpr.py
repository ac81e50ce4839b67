"""Gaussian-process regression with a squared-exponential kernel.

Implements exactly what the tuner needs, from first principles:

* anisotropic squared-exponential kernel
  k(x, x') = sigma_f^2 * exp(-1/2 * sum_i (x_i - x'_i)^2 / l_i^2),
* exact posterior mean/variance through a Cholesky factorization of
  K + sigma_w^2 I, with jitter escalation if the factorization fails,
* the negative log marginal likelihood
  1/2 y^T alpha + sum_i log L_ii + m/2 log(2 pi),
* multi-start hyperparameter fitting by Nelder-Mead descents in
  log-parameter space.

Inputs may be normalized to the unit box of given bounds and targets
standardized to zero mean / unit deviation before fitting; both are
opt-in and undone transparently at prediction time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.stats import qmc

__all__ = [
    "GpHyperparams",
    "Dataset",
    "GpPosterior",
    "HyperparamSearchError",
    "fit",
    "predict",
    "nlml",
    "fit_hyperparams",
    "default_hyper_bounds",
]

_JITTER_START = 1e-10
_JITTER_MAX = 1e-4
_PREDICT_CHUNK = 262_144  # query rows per block in `predict`


@dataclass(frozen=True)
class GpHyperparams:
    """Kernel amplitude, per-dimension lengthscales, and noise deviation."""

    sigma_f: float
    lengthscales: tuple[float, ...]
    sigma_w: float

    def __post_init__(self) -> None:
        if self.sigma_f <= 0.0:
            raise ValueError("sigma_f must be positive")
        ls = tuple(float(l) for l in self.lengthscales)
        if not ls or any(l <= 0.0 for l in ls):
            raise ValueError("lengthscales must be positive")
        object.__setattr__(self, "lengthscales", ls)
        if self.sigma_w < 1e-8:
            raise ValueError("sigma_w must be at least 1e-8")

    @property
    def dim(self) -> int:
        return len(self.lengthscales)

    def to_log_vector(self) -> np.ndarray:
        return np.log(np.array([self.sigma_f, *self.lengthscales, self.sigma_w]))

    @classmethod
    def from_log_vector(cls, v: np.ndarray) -> "GpHyperparams":
        e = np.exp(np.asarray(v, dtype=float))
        return cls(float(e[0]), tuple(e[1:-1]), max(float(e[-1]), 1e-8))


@dataclass(frozen=True)
class Dataset:
    """Observed inputs (m, d) and targets (m,)."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        y = np.asarray(self.y, dtype=float).ravel()
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y disagree on the number of observations")
        if X.shape[0] == 0:
            raise ValueError("empty dataset")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def m(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]


def _scaled(X: np.ndarray, h: GpHyperparams) -> np.ndarray:
    return X / np.asarray(h.lengthscales)


def _kernel_matrix(Xs: np.ndarray, h: GpHyperparams) -> np.ndarray:
    """Dense K over pre-scaled inputs."""
    sq = np.sum(Xs * Xs, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (Xs @ Xs.T)
    np.maximum(d2, 0.0, out=d2)
    return h.sigma_f * h.sigma_f * np.exp(-0.5 * d2)


def _chol_with_jitter(K: np.ndarray, sigma_w: float) -> tuple[np.ndarray, float]:
    """Cholesky of K + sigma_w^2 I, escalating extra jitter tenfold as needed."""
    m = K.shape[0]
    eye = np.eye(m)
    base = K + (sigma_w * sigma_w) * eye
    jitter = 0.0
    while True:
        try:
            L = np.linalg.cholesky(base + jitter * eye)
            return L, jitter
        except np.linalg.LinAlgError:
            jitter = _JITTER_START if jitter == 0.0 else jitter * 10.0
            if jitter > _JITTER_MAX:
                raise


@dataclass(frozen=True)
class GpPosterior:
    """Trained posterior; query through :func:`predict`.

    Holds the Cholesky factor of the regularized kernel matrix, the
    weight vector alpha = (K + sigma_w^2 I)^-1 y, and the input/target
    transforms applied at fit time.  ``jitter_used`` records any extra
    diagonal regularization the factorization needed.
    """

    h: GpHyperparams
    X_scaled: np.ndarray
    L: np.ndarray
    alpha: np.ndarray
    jitter_used: float
    input_shift: np.ndarray
    input_span: np.ndarray
    y_mean: float
    y_scale: float

    @property
    def m(self) -> int:
        return self.X_scaled.shape[0]


def _input_transform(bounds: np.ndarray | None, dim: int) -> tuple[np.ndarray, np.ndarray]:
    if bounds is None:
        return np.zeros(dim), np.ones(dim)
    b = np.asarray(bounds, dtype=float)
    if b.shape != (dim, 2):
        raise ValueError("input_bounds must be (dim, 2)")
    span = b[:, 1] - b[:, 0]
    if np.any(span <= 0.0):
        raise ValueError("input_bounds must have positive width")
    return b[:, 0].copy(), span


def fit(
    data: Dataset,
    h: GpHyperparams,
    input_bounds: np.ndarray | None = None,
    standardize_targets: bool = False,
) -> GpPosterior:
    """Condition a GP on the dataset.

    ``input_bounds`` (shape (d, 2)) maps inputs to the unit box before the
    kernel sees them, so lengthscales are in normalized units.
    ``standardize_targets`` fits on (y - mean)/std and undoes the affine
    map at prediction time (a constant-y dataset keeps scale 1).
    """
    if h.dim != data.dim:
        raise ValueError("hyperparameter dimension does not match the data")
    shift, span = _input_transform(input_bounds, data.dim)
    Xn = (data.X - shift) / span
    y_mean, y_scale = 0.0, 1.0
    y = data.y
    if standardize_targets:
        y_mean = float(np.mean(y))
        sd = float(np.std(y))
        y_scale = sd if sd > 0.0 else 1.0
        y = (y - y_mean) / y_scale
    Xs = _scaled(Xn, h)
    K = _kernel_matrix(Xs, h)
    L, jitter = _chol_with_jitter(K, h.sigma_w)
    alpha = np.linalg.solve(L.T, np.linalg.solve(L, y))
    return GpPosterior(
        h=h,
        X_scaled=Xs,
        L=L,
        alpha=alpha,
        jitter_used=jitter,
        input_shift=shift,
        input_span=span,
        y_mean=y_mean,
        y_scale=y_scale,
    )


def predict(g: GpPosterior, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and variance at the rows of X (original units).

    The variance is clamped at zero from below; it never exceeds the
    prior variance sigma_f^2 by more than factorization roundoff.  Query
    rows are processed ``_PREDICT_CHUNK`` at a time, so peak memory stays
    bounded on acquisition grids with millions of candidates.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n = X.shape[0]
    mu = np.empty(n)
    var = np.empty(n)
    sq_b = np.sum(g.X_scaled * g.X_scaled, axis=1)
    sf2 = g.h.sigma_f * g.h.sigma_f
    ell = np.asarray(g.h.lengthscales)
    for start in range(0, n, _PREDICT_CHUNK):
        sl = slice(start, min(start + _PREDICT_CHUNK, n))
        Xs = ((X[sl] - g.input_shift) / g.input_span) / ell
        d2 = np.sum(Xs * Xs, axis=1)[:, None] + sq_b[None, :] - 2.0 * (Xs @ g.X_scaled.T)
        np.maximum(d2, 0.0, out=d2)
        Kxs = sf2 * np.exp(-0.5 * d2)  # (chunk, m)
        mu[sl] = Kxs @ g.alpha
        V = np.linalg.solve(g.L, Kxs.T)  # (m, chunk)
        v = sf2 - np.sum(V * V, axis=0)
        np.maximum(v, 0.0, out=v)
        var[sl] = v
    return mu * g.y_scale + g.y_mean, var * (g.y_scale * g.y_scale)


def nlml(
    data: Dataset,
    h: GpHyperparams,
    input_bounds: np.ndarray | None = None,
    standardize_targets: bool = False,
) -> float:
    """Negative log marginal likelihood of the data under h."""
    g = fit(data, h, input_bounds=input_bounds, standardize_targets=standardize_targets)
    y = data.y
    if standardize_targets:
        y = (y - g.y_mean) / g.y_scale
    fit_term = 0.5 * float(y @ g.alpha)
    logdet = float(np.sum(np.log(np.diag(g.L))))
    return fit_term + logdet + 0.5 * data.m * math.log(2.0 * math.pi)


def default_hyper_bounds(dim: int) -> np.ndarray:
    """Search box for hyperparameter fitting, linear domain.

    Rows follow the log-vector layout (sigma_f, lengthscales..., sigma_w)
    and are sized for unit-box inputs and standardized targets.
    """
    rows = [[1e-3, 1e3]] + [[1e-2, 1e2]] * dim + [[1e-8, 1e1]]
    return np.array(rows, dtype=float)


class HyperparamSearchError(RuntimeError):
    """Every descent start failed to produce a finite marginal likelihood."""


def fit_hyperparams(
    data: Dataset,
    init: GpHyperparams,
    input_bounds: np.ndarray | None = None,
    standardize_targets: bool = False,
    hyper_bounds: np.ndarray | None = None,
    n_starts: int = 8,
    seed: int = 0,
    max_iter: int = 200,
) -> GpHyperparams:
    """Pick hyperparameters by multi-start NLML descent.

    Runs Nelder-Mead in log-parameter space from ``init`` (clipped into
    ``hyper_bounds``) plus ``n_starts - 1`` low-discrepancy starts spread
    over the bounded box, and returns the best candidate found -- never
    worse than the clipped ``init``.  Candidates outside the box score
    infinitely badly, so descents stay coordinate-bounded.

    Raises
    ------
    ValueError
        Fewer than 3 observations.
    HyperparamSearchError
        No start, ``init`` included, yielded a finite likelihood.
    """
    if data.m < 3:
        raise ValueError("hyperparameter fitting needs at least 3 observations")
    box = default_hyper_bounds(data.dim) if hyper_bounds is None else \
        np.asarray(hyper_bounds, dtype=float)
    if box.shape != (data.dim + 2, 2) or np.any(box[:, 0] <= 0.0) \
            or np.any(box[:, 1] <= box[:, 0]):
        raise ValueError("hyper_bounds must be (dim + 2, 2) positive intervals")
    lb, ub = np.log(box[:, 0]), np.log(box[:, 1])
    _BAD = 1e12

    def objective(logv: np.ndarray) -> float:
        if np.any(logv < lb) or np.any(logv > ub):
            return _BAD
        try:
            hh = GpHyperparams.from_log_vector(logv)
            return nlml(data, hh, input_bounds=input_bounds,
                        standardize_targets=standardize_targets)
        except (np.linalg.LinAlgError, ValueError, FloatingPointError, OverflowError):
            return _BAD

    v0 = np.clip(init.to_log_vector(), lb, ub)
    starts = [v0]
    if n_starts > 1:
        sampler = qmc.Sobol(d=len(v0), scramble=True, seed=seed)
        n_extra = n_starts - 1
        n_draw = 1 << max(0, (n_extra - 1).bit_length())  # next power of two
        unit = sampler.random(n_draw)[:n_extra]
        starts.extend(lb + unit * (ub - lb))

    best_v, best_f = v0, objective(v0)
    for s in starts:
        res = minimize(objective, s, method="Nelder-Mead",
                       options={"maxiter": max_iter, "xatol": 1e-4, "fatol": 1e-6})
        f = float(res.fun)
        if f < best_f and not np.any(res.x < lb) and not np.any(res.x > ub):
            best_v, best_f = res.x, f
    if best_f >= _BAD:
        raise HyperparamSearchError(
            "no hyperparameter start produced a finite marginal likelihood"
        )
    return GpHyperparams.from_log_vector(np.asarray(best_v, dtype=float))
