"""Gaussian-process regression with a squared-exponential kernel.

Implements exactly what the tuner needs, from first principles:

* anisotropic squared-exponential kernel
  k(x, x') = sigma_f^2 * exp(-1/2 * sum_i (x_i - x'_i)^2 / l_i^2),
* exact posterior mean/variance through a Cholesky factorization of
  K + sigma_w^2 I, with jitter escalation if the factorization fails;
  every solve against the factor is a triangular one,
* the negative log marginal likelihood
  1/2 y^T alpha + sum_i log L_ii + m/2 log(2 pi)
  and its analytic gradient in log-parameter space (Rasmussen &
  Williams, *Gaussian Processes for Machine Learning*, 2006, sec. 5.4),
* multi-start hyperparameter fitting by L-BFGS-B descents on that
  gradient, bounded to the hyperparameter box.

Inputs are normalized to the unit box of given bounds and targets
standardized to zero mean / unit deviation before fitting; prediction
undoes both.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtri
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
# Scaled squared distances are capped here before the kernel's exp, so no
# kernel entry falls below sigma_f^2 e^-300 (about 5e-131 sigma_f^2):
# far below roundoff of any sum it enters, and products of two entries
# stay normal numbers.  Subnormal results make exp and the factorization
# tens of times slower.
_MAX_SQ_DIST = 600.0
# Stopping rule of each L-BFGS-B hyperfit descent: relative NLML decrease,
# largest projected-gradient component, iteration cap.  scipy's default
# factr (ftol about 2.2e-9) stops some desk fits at a worse NLML.
HYPERFIT_FTOL = 1e-12
HYPERFIT_GTOL = 1e-6
HYPERFIT_MAXITER = 500
# Smallest noise deviation a hyperparameter set may carry, and the lower
# bound of its fit.
NOISE_FLOOR = 1e-8
# Descent starts per hyperparameter fit: the initial guess plus Sobol
# points.  A power of two, so the Sobol draw stays balanced.
N_HYPER_STARTS = 8


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
        if self.sigma_w < NOISE_FLOOR:
            raise ValueError(f"sigma_w must be at least {NOISE_FLOOR:g}")

    @property
    def dim(self) -> int:
        return len(self.lengthscales)

    def to_log_vector(self) -> np.ndarray:
        return np.log(np.array([self.sigma_f, *self.lengthscales, self.sigma_w]))

    @classmethod
    def from_log_vector(cls, v: np.ndarray) -> "GpHyperparams":
        e = np.exp(np.asarray(v, dtype=float))
        return cls(float(e[0]), tuple(e[1:-1]), max(float(e[-1]), NOISE_FLOOR))


@dataclass(frozen=True)
class Dataset:
    """Observed inputs (m, d) and targets (m,).

    Treated as immutable: quantities derived from it are computed once
    and cached on it.
    """

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

    @functools.cached_property
    def standardized(self) -> tuple[np.ndarray, float, float]:
        """Targets as (y - mean) / deviation, with that mean and deviation.

        A constant-y dataset keeps deviation 1.
        """
        y_mean = float(self.y.mean())
        sd = float(self.y.std())
        y_scale = sd if sd > 0.0 else 1.0
        return (self.y - y_mean) / y_scale, y_mean, y_scale

    @functools.cached_property
    def sq_diffs(self) -> np.ndarray:
        """Squared differences between the rows of X, per dimension.

        A (d, m * m) array whose row i holds the m x m matrix of
        (x_ai - x_bi)^2.  Computed once per dataset: every kernel matrix
        and NLML gradient on it only rescales these rows.
        """
        cols = self.X.T.copy()
        diff = cols[:, :, None] - cols[:, None, :]
        np.square(diff, out=diff)
        return diff.reshape(self.dim, -1)


def _chol_with_jitter(K: np.ndarray, sigma_w: float) -> tuple[np.ndarray, float]:
    """Cholesky of K + sigma_w^2 I, escalating extra jitter tenfold as needed."""
    m = K.shape[0]
    diag = K.diagonal() + sigma_w * sigma_w
    Ky = K.copy()
    jitter = 0.0
    while True:
        Ky.flat[::m + 1] = diag + jitter
        L, info = dpotrf(Ky, lower=1, clean=1)
        if info == 0:
            return L, jitter
        jitter = _JITTER_START if jitter == 0.0 else jitter * 10.0
        if jitter > _JITTER_MAX:
            raise np.linalg.LinAlgError("kernel matrix is not positive definite")


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


def _input_transform(bounds: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray]:
    b = np.asarray(bounds, dtype=float)
    if b.shape != (dim, 2):
        raise ValueError("input_bounds must be (dim, 2)")
    span = b[:, 1] - b[:, 0]
    if np.any(span <= 0.0):
        raise ValueError("input_bounds must have positive width")
    return b[:, 0].copy(), span


def _inv_sq_lengths(h: GpHyperparams, span: np.ndarray) -> np.ndarray:
    """1 / l_i^2 in input units: lengthscales are in unit-box units."""
    return 1.0 / np.square(span * np.asarray(h.lengthscales))


def fit(data: Dataset, h: GpHyperparams, input_bounds: np.ndarray) -> GpPosterior:
    """Condition a GP on the dataset.

    ``input_bounds`` (shape (d, 2)) maps inputs to the unit box before the
    kernel sees them, so lengthscales are in normalized units.  The GP is
    fitted on the standardized targets (see :attr:`Dataset.standardized`)
    and :func:`predict` undoes that affine map.
    """
    return _condition(data, h, input_bounds)[0]


def _condition(
    data: Dataset,
    h: GpHyperparams,
    input_bounds: np.ndarray,
) -> tuple[GpPosterior, np.ndarray, np.ndarray]:
    """The posterior of :func:`fit`, plus the noise-free K and the
    targets as fitted, which the NLML and its gradient reuse."""
    if h.dim != data.dim:
        raise ValueError("hyperparameter dimension does not match the data")
    shift, span = _input_transform(input_bounds, data.dim)
    y, y_mean, y_scale = data.standardized
    d2 = _inv_sq_lengths(h, span) @ data.sq_diffs
    np.minimum(d2, _MAX_SQ_DIST, out=d2)
    K = np.exp(-0.5 * d2).reshape(data.m, data.m)
    K *= h.sigma_f * h.sigma_f
    L, jitter = _chol_with_jitter(K, h.sigma_w)
    # LAPACK's Cholesky solve, the routine behind scipy's cho_solve,
    # called directly: the wrapper's checks cost more than the solve
    alpha, _ = dpotrs(L, y, lower=1)
    g = GpPosterior(
        h=h,
        X_scaled=(data.X - shift) / span / np.asarray(h.lengthscales),
        L=L,
        alpha=alpha,
        jitter_used=jitter,
        input_shift=shift,
        input_span=span,
        y_mean=y_mean,
        y_scale=y_scale,
    )
    return g, K, y


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
        np.clip(d2, 0.0, _MAX_SQ_DIST, out=d2)
        Kxs = sf2 * np.exp(-0.5 * d2)  # (chunk, m)
        mu[sl] = Kxs @ g.alpha
        V = solve_triangular(g.L, Kxs.T, lower=True, overwrite_b=True,
                             check_finite=False)  # (m, chunk)
        v = sf2 - np.sum(V * V, axis=0)
        np.maximum(v, 0.0, out=v)
        var[sl] = v
    return mu * g.y_scale + g.y_mean, var * (g.y_scale * g.y_scale)


def nlml(data: Dataset, h: GpHyperparams,
         input_bounds: np.ndarray) -> tuple[float, np.ndarray]:
    """Negative log marginal likelihood of the data under h, and its gradient.

    Of the targets as :func:`fit` sees them: standardized, with inputs
    in the unit box of ``input_bounds``.

    The gradient is with respect to the log hyperparameters, in the
    order of :meth:`GpHyperparams.to_log_vector` (sigma_f, lengthscales,
    sigma_w): component j is 1/2 tr((K_y^-1 - alpha alpha^T) dK_y/dtheta_j),
    with K_y the regularized kernel matrix.
    """
    g, K, y = _condition(data, h, input_bounds)
    fit_term = 0.5 * float(y @ g.alpha)
    logdet = float(np.sum(np.log(np.diag(g.L))))
    value = fit_term + logdet + 0.5 * data.m * math.log(2.0 * math.pi)

    # W = K_y^-1 - alpha alpha^T; dK_y/dlog sigma_f = 2 K,
    # dK_y/dlog l_i = K * D_i / l_i^2 and dK_y/dlog sigma_w = 2 sigma_w^2 I
    L_inv, _ = dtrtri(g.L, lower=1)  # a Cholesky factor is never singular
    W = L_inv.T @ L_inv
    W -= g.alpha[:, None] * g.alpha
    grad = np.empty(h.dim + 2)
    grad[-1] = h.sigma_w * h.sigma_w * np.trace(W)
    W *= K
    grad[0] = np.sum(W)
    grad[1:-1] = 0.5 * _inv_sq_lengths(h, g.input_span) * (data.sq_diffs @ W.ravel())
    return value, grad


def default_hyper_bounds(dim: int) -> np.ndarray:
    """Search box for hyperparameter fitting, linear domain.

    Rows follow the log-vector layout (sigma_f, lengthscales..., sigma_w)
    and are sized for unit-box inputs and standardized targets.
    """
    rows = [[1e-3, 1e3]] + [[1e-2, 1e2]] * dim + [[NOISE_FLOOR, 1e1]]
    return np.array(rows, dtype=float)


class HyperparamSearchError(RuntimeError):
    """Every descent start failed to produce a finite marginal likelihood."""


def fit_hyperparams(
    data: Dataset,
    init: GpHyperparams,
    input_bounds: np.ndarray,
    seed: int,
) -> GpHyperparams:
    """Pick hyperparameters by multi-start NLML descent.

    Runs L-BFGS-B on the analytic NLML gradient in log-parameter space,
    bounded to :func:`default_hyper_bounds`, from ``init`` (clipped into
    the box) plus ``N_HYPER_STARTS - 1`` scrambled Sobol starts spread
    over the box, seeded by ``seed``, and returns the best result --
    never worse than the clipped ``init``, since each descent only
    decreases the NLML.  A start at
    which the NLML is not finite, or cannot be evaluated, has a zero
    projected gradient there and fails.

    Raises
    ------
    ValueError
        Fewer than 3 observations.
    HyperparamSearchError
        No start, ``init`` included, yielded a finite likelihood.
    """
    if data.m < 3:
        raise ValueError("hyperparameter fitting needs at least 3 observations")
    box = default_hyper_bounds(data.dim)
    lb, ub = np.log(box[:, 0]), np.log(box[:, 1])

    def objective(logv: np.ndarray) -> tuple[float, np.ndarray]:
        # a failed evaluation is an infinite NLML with a flat gradient, so
        # a descent that starts there stops at once
        try:
            with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
                f, grad = nlml(data, GpHyperparams.from_log_vector(logv),
                               input_bounds)
        except (np.linalg.LinAlgError, ValueError):
            f = math.inf
        if math.isfinite(f) and np.isfinite(grad).all():
            return f, grad
        return math.inf, np.zeros_like(logv)

    sampler = qmc.Sobol(d=len(lb), scramble=True, seed=seed)
    unit = sampler.random(N_HYPER_STARTS)[:N_HYPER_STARTS - 1]
    starts = [np.clip(init.to_log_vector(), lb, ub), *(lb + unit * (ub - lb))]

    best_v, best_f = None, math.inf
    for s in starts:
        res = minimize(objective, s, jac=True, method="L-BFGS-B",
                       bounds=list(zip(lb, ub)),
                       options={"maxiter": HYPERFIT_MAXITER,
                                "ftol": HYPERFIT_FTOL, "gtol": HYPERFIT_GTOL})
        if float(res.fun) < best_f:
            best_v, best_f = res.x, float(res.fun)
    if best_v is None:
        raise HyperparamSearchError(
            "no hyperparameter start produced a finite marginal likelihood"
        )
    return GpHyperparams.from_log_vector(np.asarray(best_v, dtype=float))
