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

A :class:`Dataset` holds its input box: inputs are normalized to the
unit box of those bounds and targets standardized to zero mean / unit
deviation before fitting; prediction undoes both.

A hyperparameter fit evaluates the NLML thousands of times on one
dataset, so what does not depend on the hyperparameters is computed
once, when the :class:`Dataset` is built: the unit-box inputs, the
standardized targets, the m/2 log(2 pi) term and the m x m work
buffers, and on first use the per-dimension squared input differences.
:func:`nlml` and :func:`fit` share one kernel-and-Cholesky routine,
which writes the kernel matrix, its factor and the NLML's m x m
products into the dataset's buffers; :func:`fit` copies out what its
posterior keeps, so no returned array aliases them.  Hence no two
threads may evaluate one ``Dataset`` at once.

What is taken from scipy is four LAPACK routines (``dpotrf``,
``dpotrs``, ``dtrtri``, ``dtrtrs``) and the compiled core of L-BFGS-B,
``setulb`` (Byrd, Lu, Nocedal & Zhu, SIAM J. Sci. Comput. 16, 1995;
Zhu et al., ACM TOMS 23, 1997).  L-BFGS-B communicates in reverse: it
hands back each point it wants evaluated, so :func:`_lbfgsb_descent`
runs the loop of ``scipy.optimize.minimize(method="L-BFGS-B")`` itself,
without the wrapper ``minimize`` puts around every evaluation
(``ScalarFunction``, ``MemoizeJac``, array checks).  That wrapper cost
about 32 us of Python per evaluation, 36.1 us around a 4.0 us
objective, beside an NLML of 35-190 us at m = 20-80 (2 vCPUs, Python
3.11.7, numpy 2.4.6, scipy 1.17.1); perfbench's desk-tune makes 10,740
of them.  ``tests/test_gpr.py`` ties the loop to ``minimize``: same
point, value, evaluation and iteration counts, bit for bit.

scipy is imported inside the functions that call it, the first time
one runs.  Loading ``scipy.linalg`` and ``scipy.optimize`` (which
importing ``setulb`` loads whole) takes about 0.5 s raw and grows
the resident set from 33 to 77 MB (numpy and this package, 2 vCPUs),
and the package imports this module everywhere; the commands that never
fit a GP (``simulate``, ``grid``) and the forked scoring workers need
numpy alone.  The LAPACK routines are bound once, by :func:`_lapack`:
two import statements per call would cost about 3 us even with the
module loaded, some 3% of an NLML call.  The hyperfit's scrambled Sobol
starts are drawn here, in numpy, bit for bit as scipy's Sobol engine
draws them, so no command loads scipy's statistics subpackage for them:
that import alone took about another 0.5 s and 22.6 MB.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

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
# The rest of each descent's settings, scipy's L-BFGS-B defaults: stored
# correction pairs, line-search steps per iteration, evaluation cap.
_LBFGSB_MAXCOR = 10
_LBFGSB_MAXLS = 20
_LBFGSB_MAXFUN = 15_000
# Smallest noise deviation a hyperparameter set may carry, and the lower
# bound of its fit.
NOISE_FLOOR = 1e-8
# Descent starts per hyperparameter fit: the initial guess plus the first
# N_HYPER_STARTS - 1 points of a scrambled Sobol sequence (see
# `_sobol_starts`), as a balanced draw of N_HYPER_STARTS would begin.
N_HYPER_STARTS = 8
# Joe & Kuo's primitive polynomials (leading and constant terms included)
# and initial direction numbers m_1..m_s for the first Sobol dimensions,
# as scipy tabulates them: one per hyperparameter of a 3-input GP.  The
# first dimension is the van der Corput sequence.  S. Joe and F. Y. Kuo, SIAM J. Sci. Comput. 30 (2008).
_SOBOL_POLY = (1, 3, 7, 11, 13)
_SOBOL_VINIT = ((), (1,), (1, 3), (1, 3, 1), (1, 1, 1))
_SOBOL_BITS = 30


@dataclass(frozen=True)
class GpHyperparams:
    """Kernel amplitude, per-dimension lengthscales, and noise deviation."""

    sigma_f: float
    lengthscales: tuple[float, ...]
    sigma_w: float

    def __post_init__(self) -> None:
        if not 0.0 < self.sigma_f < math.inf:
            raise ValueError("sigma_f must be finite and positive")
        ls = tuple(float(l) for l in self.lengthscales)
        if not ls or not all(0.0 < l < math.inf for l in ls):
            raise ValueError("lengthscales must be finite and positive")
        object.__setattr__(self, "lengthscales", ls)
        if not NOISE_FLOOR <= self.sigma_w < math.inf:
            raise ValueError(f"sigma_w must be finite and at least {NOISE_FLOOR:g}")

    @property
    def dim(self) -> int:
        return len(self.lengthscales)

    def to_log_vector(self) -> np.ndarray:
        return np.log(np.array([self.sigma_f, *self.lengthscales, self.sigma_w]))

    @classmethod
    def from_log_vector(cls, v: np.ndarray) -> "GpHyperparams":
        e = np.exp(np.asarray(v, dtype=float)).tolist()
        return cls(e[0], tuple(e[1:-1]), max(e[-1], NOISE_FLOOR))


class Dataset:
    """Observed inputs (m, d) and targets (m,) in an input box (d, 2).

    The kernel sees the inputs in the unit box of ``bounds``, so
    lengthscales are in normalized units.  Treated as immutable; what
    every fit on it shares, whatever the hyperparameters, is computed
    here, once:

    * ``shift``, ``span`` and ``x_unit``, the inputs in the unit box
      (read-only: posteriors share them);
    * ``z``, the targets as (y - y_mean) / y_scale, a constant-y dataset
      keeping ``y_scale`` 1;
    * ``log_2pi_term``, the NLML's m/2 log(2 pi);
    * the m x m work buffers of :func:`_factor`: ``kernel`` holds the
      scaled squared distances and then, in place, the noise-free kernel
      matrix K; ``factor`` (Fortran order, as LAPACK writes it) holds
      K + (sigma_w^2 + jitter) I, then its Cholesky factor L, then
      whatever the caller of :func:`_factor` overwrites it with; ``w`` is
      the NLML gradient's K_y^-1 - alpha alpha^T.
    """

    def __init__(self, X: np.ndarray, y: np.ndarray, bounds: np.ndarray) -> None:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y disagree on the number of observations")
        if X.shape[0] == 0:
            raise ValueError("empty dataset")
        for name, a in (("X", X), ("y", y)):
            if not np.isfinite(a).all():
                raise ValueError(f"{name} must be finite")
        b = np.asarray(bounds, dtype=float)
        if b.shape != (X.shape[1], 2):
            raise ValueError("bounds must be (dim, 2)")
        if not np.isfinite(b).all():
            raise ValueError("bounds must be finite")
        span = b[:, 1] - b[:, 0]
        if np.any(span <= 0.0):
            raise ValueError("bounds must have positive width")
        shift = b[:, 0].copy()
        x_unit = (X - shift) / span
        for a in (shift, span, x_unit):
            a.setflags(write=False)
        self.X, self.y = X, y
        self.shift, self.span, self.x_unit = shift, span, x_unit

        self.y_mean = float(y.mean())
        sd = float(y.std())
        self.y_scale = sd if sd > 0.0 else 1.0
        self.z = (y - self.y_mean) / self.y_scale

        m = self.m
        self.log_2pi_term = 0.5 * m * math.log(2.0 * math.pi)
        self.kernel = np.empty(m * m)
        self.factor = np.empty((m, m), order="F")
        self.factor_diag = self.factor.ravel(order="F")[::m + 1]
        self.w = np.empty((m, m))

    @property
    def m(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]

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


@functools.cache
def _lapack():
    """scipy's ``dpotrf``, ``dpotrs``, ``dtrtri`` and ``dtrtrs``, imported on first use."""
    from scipy.linalg.lapack import dpotrf, dpotrs, dtrtri, dtrtrs

    return dpotrf, dpotrs, dtrtri, dtrtrs


def _inv_sq_lengths(h: GpHyperparams, span: np.ndarray) -> np.ndarray:
    """1 / l_i^2 in input units: lengthscales are in unit-box units."""
    return 1.0 / np.square(span * np.asarray(h.lengthscales))


def _factor(data: Dataset, h: GpHyperparams) -> tuple[np.ndarray, np.ndarray, float]:
    """Factor K + sigma_w^2 I on the standardized targets of the dataset.

    Leaves the noise-free K in the dataset's ``kernel`` and the lower
    Cholesky factor L in its ``factor``, and returns the inverse squared
    lengthscales in input units, alpha = L^-T L^-1 z (a new array), and
    the extra diagonal jitter the factorization needed: escalated
    tenfold from ``_JITTER_START`` until LAPACK accepts the matrix.
    Both buffers are overwritten by the next call on the dataset.
    """
    if h.dim != data.dim:
        raise ValueError("hyperparameter dimension does not match the data")
    dpotrf, dpotrs, _, _ = _lapack()
    inv_sq = _inv_sq_lengths(h, data.span)
    d2 = np.matmul(inv_sq, data.sq_diffs, out=data.kernel)
    np.minimum(d2, _MAX_SQ_DIST, out=d2)
    d2 *= -0.5
    np.exp(d2, out=d2)
    d2 *= h.sigma_f * h.sigma_f
    K = d2.reshape(data.m, data.m)
    noise = h.sigma_w * h.sigma_w
    jitter = 0.0
    while True:
        data.factor[...] = K
        data.factor_diag += noise
        data.factor_diag += jitter
        # the lower triangle is factored in place; clean=1 zeroes the upper
        _, info = dpotrf(data.factor, lower=1, clean=1, overwrite_a=1)
        if info == 0:
            break
        jitter = _JITTER_START if jitter == 0.0 else jitter * 10.0
        if jitter > _JITTER_MAX:
            raise np.linalg.LinAlgError("kernel matrix is not positive definite")
    # LAPACK's Cholesky solve, the routine behind scipy's cho_solve,
    # called directly: the wrapper's checks cost more than the solve
    alpha, _ = dpotrs(data.factor, data.z, lower=1)
    return inv_sq, alpha, jitter


def fit(data: Dataset, h: GpHyperparams) -> GpPosterior:
    """Condition a GP on the dataset.

    The kernel sees the inputs in the unit box of the dataset's bounds,
    and the GP is fitted on its standardized targets ``z``;
    :func:`predict` undoes both maps.
    """
    _, alpha, jitter = _factor(data, h)
    return GpPosterior(
        h=h,
        X_scaled=data.x_unit / np.asarray(h.lengthscales),
        L=data.factor.copy(order="F"),
        alpha=alpha,
        jitter_used=jitter,
        input_shift=data.shift,
        input_span=data.span,
        y_mean=data.y_mean,
        y_scale=data.y_scale,
    )


def predict(g: GpPosterior, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and variance at the rows of X (original units).

    The variance is clamped at zero from below; it never exceeds the
    prior variance sigma_f^2 by more than factorization roundoff.  Query
    rows are processed ``_PREDICT_CHUNK`` at a time, so peak memory stays
    bounded on acquisition grids with millions of candidates.
    """
    _, _, _, dtrtrs = _lapack()
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n = X.shape[0]
    mu = np.empty(n)
    var = np.empty(n)
    sq_b = np.sum(g.X_scaled * g.X_scaled, axis=1)
    sf2 = g.h.sigma_f * g.h.sigma_f
    ell = np.asarray(g.h.lengthscales)
    # two (chunk, m) buffers: the cross products, and the squared
    # distances that become the kernel row block in place
    rows = min(n, _PREDICT_CHUNK)
    cross_buf = np.empty((rows, g.alpha.shape[0]))
    kxs_buf = np.empty_like(cross_buf)
    for start in range(0, n, _PREDICT_CHUNK):
        sl = slice(start, min(start + _PREDICT_CHUNK, n))
        Xs = X[sl] - g.input_shift
        Xs /= g.input_span
        Xs /= ell
        c = Xs.shape[0]
        cross = np.matmul(Xs, g.X_scaled.T, out=cross_buf[:c])
        cross *= 2.0
        Kxs = np.add(np.sum(Xs * Xs, axis=1)[:, None], sq_b, out=kxs_buf[:c])
        Kxs -= cross
        np.clip(Kxs, 0.0, _MAX_SQ_DIST, out=Kxs)
        Kxs *= -0.5
        np.exp(Kxs, out=Kxs)
        Kxs *= sf2  # (chunk, m)
        mu[sl] = Kxs @ g.alpha
        # L^-1 Kxs^T, solved in place on the Fortran-order transpose
        V, _ = dtrtrs(g.L, Kxs.T, lower=1, overwrite_b=1)  # (m, chunk)
        V *= V
        v = sf2 - np.sum(V, axis=0)
        np.maximum(v, 0.0, out=v)
        var[sl] = v
    return mu * g.y_scale + g.y_mean, var * (g.y_scale * g.y_scale)


def nlml(data: Dataset, h: GpHyperparams) -> tuple[float, np.ndarray]:
    """Negative log marginal likelihood of the data under h, and its gradient.

    Of the targets as :func:`fit` sees them: standardized, with inputs
    in the unit box of the dataset's bounds.

    The gradient is with respect to the log hyperparameters, in the
    order of :meth:`GpHyperparams.to_log_vector` (sigma_f, lengthscales,
    sigma_w): component j is 1/2 tr((K_y^-1 - alpha alpha^T) dK_y/dtheta_j),
    with K_y the regularized kernel matrix.
    """
    inv_sq, alpha, _ = _factor(data, h)
    _, _, dtrtri, _ = _lapack()
    fit_term = 0.5 * float(data.z @ alpha)
    logdet = float(np.sum(np.log(data.factor_diag)))
    value = fit_term + logdet + data.log_2pi_term

    # W = K_y^-1 - alpha alpha^T; dK_y/dlog sigma_f = 2 K,
    # dK_y/dlog l_i = K * D_i / l_i^2 and dK_y/dlog sigma_w = 2 sigma_w^2 I
    # L^-1 replaces L in place (a Cholesky factor is never singular),
    # then alpha alpha^T replaces L^-1, written through the C-order
    # transpose: the product is symmetric, entry by entry
    L_inv, _ = dtrtri(data.factor, lower=1, overwrite_c=1)
    W = np.matmul(L_inv.T, L_inv, out=data.w)
    W -= np.multiply(alpha[:, None], alpha, out=L_inv.T)
    grad = np.empty(h.dim + 2)
    grad[-1] = h.sigma_w * h.sigma_w * np.trace(W)
    W *= data.kernel.reshape(data.m, data.m)
    grad[0] = np.sum(W)
    grad[1:-1] = 0.5 * inv_sq * (data.sq_diffs @ W.ravel())
    return value, grad


def default_hyper_bounds(dim: int) -> np.ndarray:
    """Search box for hyperparameter fitting, linear domain.

    Rows follow the log-vector layout (sigma_f, lengthscales..., sigma_w)
    and are sized for unit-box inputs and standardized targets.
    """
    rows = [[1e-3, 1e3]] + [[1e-2, 1e2]] * dim + [[NOISE_FLOOR, 1e1]]
    return np.array(rows, dtype=float)


@functools.cache
def _sobol_directions(d: int) -> np.ndarray:
    """Direction numbers v_jk of the first d Sobol dimensions, (d, bits).

    Bratley & Fox's recurrence (ACM TOMS 14, 1988) on the Joe-Kuo
    initial values, with m_k left-aligned in ``_SOBOL_BITS`` bits.
    """
    if d > len(_SOBOL_POLY):
        raise ValueError(f"Sobol starts cover at most {len(_SOBOL_POLY)} dimensions")
    v = np.empty((d, _SOBOL_BITS), dtype=np.int64)
    for j in range(d):
        p = _SOBOL_POLY[j]
        s = p.bit_length() - 1  # the polynomial's degree
        m = list(_SOBOL_VINIT[j]) if s else [1] * _SOBOL_BITS
        for k in range(len(m), _SOBOL_BITS):
            new = m[k - s] ^ (m[k - s] << s)
            for i in range(1, s):
                if (p >> (s - i)) & 1:
                    new ^= m[k - i] << i
            m.append(new)
        v[j] = np.array(m) << np.arange(_SOBOL_BITS - 1, -1, -1)
    v.setflags(write=False)
    return v


def _sobol_starts(d: int, n: int, seed: int) -> np.ndarray:
    """The first n points of a scrambled Sobol sequence in [0, 1)^d, (n, d).

    Linear matrix scrambling plus a digital shift (Matousek,
    J. Complexity 14, 1998), drawn from ``np.random.default_rng(seed)``
    in the order scipy's ``Sobol(d, scramble=True, seed=seed)`` engine
    draws them, so its ``random(n)`` gives the same points, bit for bit.
    """
    rng = np.random.default_rng(seed)
    msb = np.arange(_SOBOL_BITS - 1, -1, -1)  # bit weights, most significant first
    # the digital shift, which is also the first point
    q = rng.integers(0, 2, (d, _SOBOL_BITS), dtype=np.uint32) @ (1 << msb[::-1])
    ltm = np.tril(rng.integers(0, 2, (d, _SOBOL_BITS, _SOBOL_BITS), dtype=np.uint32))
    ltm[:, np.arange(_SOBOL_BITS), np.arange(_SOBOL_BITS)] = 1
    # output bit i of a scrambled direction number (counted from the top)
    # is the parity of row i of its dimension's matrix against its bits
    bits = (_sobol_directions(d)[:, :, None] >> msb) & 1
    scrambled = ((bits @ ltm.transpose(0, 2, 1)) & 1) @ (1 << msb)
    # point i is point i - 1 with the direction number of the lowest zero
    # bit of i - 1 XORed in (a Gray-code walk)
    points = np.empty((n, d))
    for i in range(n):
        if i:
            q ^= scrambled[:, (~(i - 1) & i).bit_length() - 1]
        points[i] = q / 2**_SOBOL_BITS
    return points


def _lbfgsb_descent(
    objective: Callable[[np.ndarray], tuple[float, np.ndarray]],
    x0: np.ndarray,
    lb: np.ndarray,
    ub: np.ndarray,
) -> tuple[np.ndarray, float, int, int]:
    """One L-BFGS-B descent of ``objective`` from ``x0``, bounded to [lb, ub].

    ``objective(x)`` returns the value and gradient at x; ``lb`` and
    ``ub`` are contiguous float64 arrays, as ``setulb`` takes them.

    This is the reverse-communication loop of scipy 1.17's
    ``_minimize_lbfgsb`` on its compiled core ``setulb``, so the result
    is, bit for bit, that of ``scipy.optimize.minimize(objective, x0,
    jac=True, method="L-BFGS-B")`` with the box as ``bounds`` and the
    HYPERFIT_* stopping rule as ``options``: x0 is clipped into the box;
    the objective runs once there, then whenever ``setulb`` asks for a
    point other than the last one evaluated, on a copy of it; the
    descent stops at ``HYPERFIT_MAXITER`` iterations, after more than
    ``_LBFGSB_MAXFUN`` evaluations, or when ``setulb`` ends it.

    Returns the final point (a new array), the last value the objective
    returned, and the evaluation and iteration counts.
    """
    from scipy.optimize._lbfgsb import setulb

    n, m = x0.size, _LBFGSB_MAXCOR
    x = np.clip(x0, lb, ub)
    nbd = np.full(n, 2, dtype=np.int32)  # every coordinate bounded on both sides
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, dtype=np.int32)
    task = np.zeros(2, dtype=np.int32)
    ln_task = np.zeros(2, dtype=np.int32)
    lsave = np.zeros(4, dtype=np.int32)
    isave = np.zeros(44, dtype=np.int32)
    dsave = np.zeros(29)
    factr = HYPERFIT_FTOL / np.finfo(float).eps

    seen = x.copy()
    f, g = fg = objective(x.copy())
    nfev, nit = 1, 0
    while True:
        g = g.astype(np.float64)
        setulb(m, x, lb, ub, nbd, f, g, factr, HYPERFIT_GTOL, wa, iwa, task,
               lsave, isave, dsave, _LBFGSB_MAXLS, ln_task)
        if task[0] == 3:  # FG: the value and gradient at x
            if not np.array_equal(x, seen):
                seen = x.copy()
                fg = objective(x.copy())
                nfev += 1
            f, g = fg
        elif task[0] == 1:  # NEW_X: an iteration is done
            nit += 1
            if nit >= HYPERFIT_MAXITER:
                task[:] = 5, 504  # STOP: iteration limit
            elif nfev > _LBFGSB_MAXFUN:
                task[:] = 5, 502  # STOP: evaluation limit
        else:
            return x.copy(), f, nfev, nit


class HyperparamSearchError(RuntimeError):
    """Every descent start failed to produce a finite marginal likelihood."""


def fit_hyperparams(
    data: Dataset,
    init: GpHyperparams,
    seed: int,
) -> GpHyperparams:
    """Pick hyperparameters by multi-start NLML descent.

    Runs one L-BFGS-B descent (:func:`_lbfgsb_descent`) on the analytic
    NLML gradient in log-parameter space, bounded to
    :func:`default_hyper_bounds`, from each of ``init`` (clipped into
    the box) and ``N_HYPER_STARTS - 1`` scrambled Sobol starts spread
    over the box, and returns the best result -- never worse than the
    clipped ``init``, since each descent only decreases the NLML.  The
    starts are those of scipy's scrambled Sobol engine in d = dim + 2
    dimensions, seeded with ``seed``, drawn by :func:`_sobol_starts`
    without loading scipy's statistics subpackage.  A start at which
    the NLML is not finite, or cannot be evaluated, has a zero
    projected gradient there and fails.

    Raises
    ------
    ValueError
        Fewer than 3 observations, or more than 3 input dimensions (the
        Sobol table's 5 less sigma_f and sigma_w).
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
                f, grad = nlml(data, GpHyperparams.from_log_vector(logv))
        except (np.linalg.LinAlgError, ValueError):
            f = math.inf
        if math.isfinite(f) and np.isfinite(grad).all():
            return f, grad
        return math.inf, np.zeros_like(logv)

    unit = _sobol_starts(len(lb), N_HYPER_STARTS - 1, seed)
    starts = [np.clip(init.to_log_vector(), lb, ub), *(lb + unit * (ub - lb))]

    best_v, best_f = None, math.inf
    for s in starts:
        v, f, _, _ = _lbfgsb_descent(objective, s, lb, ub)
        if f < best_f:
            best_v, best_f = v, f
    if best_v is None:
        raise HyperparamSearchError(
            "no hyperparameter start produced a finite marginal likelihood"
        )
    return GpHyperparams.from_log_vector(best_v)
