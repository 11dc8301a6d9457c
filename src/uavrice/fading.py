"""Outage-effective fading power: exact inversion, closed form, logistic fit.

The planner never touches the Rician cdf directly.  It works with the
*effective fading power* — the epsilon-quantile of |g|^2 — which this module
provides three ways:

* :func:`exact_effective_power` inverts the cdf numerically (ground truth);
* :func:`closed_form_effective_power` is the two-branch analytic
  approximation, split at :func:`k_threshold`;
* :func:`fit_logistic` regresses the exact values onto the elevation
  indicator v = sin(theta), giving the smooth surrogate the convex machinery
  needs.
"""

import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import expit, logit, ndtri

from . import kernels
from .channel import (MAX_EPSILON, max_grid, rician_coeffs_from_bounds,
                      rician_factor)

__all__ = [
    "inverse_q",
    "exact_effective_power",
    "k_threshold",
    "closed_form_effective_power",
    "RegressionSamples",
    "generate_regression_samples",
    "LogisticModel",
    "fit_logistic",
]

#: the fewest regression sample points a fit takes
MIN_GRID = 50
# the largest x whose exp(x) is a finite double
_MAX_EXP = math.log(sys.float_info.max)


def inverse_q(p):
    """Inverse of the standard normal tail Q(x) = P(Z > x)."""
    p = np.asarray(p, dtype=float)
    if np.any(p <= 0) or np.any(p >= 1):
        raise ValueError("inverse_q argument must lie in (0, 1)")
    out = -ndtri(p)
    return float(out) if out.ndim == 0 else out


def exact_effective_power(k, eps):
    """epsilon-quantile of the unit-power Rician |g|^2, by inverting the
    noncentral chi-square cdf (see :func:`uavrice.kernels.effective_power`)."""
    if not (0.0 < eps <= MAX_EPSILON):
        raise ValueError(f"outage target must lie in (0, {MAX_EPSILON}]")
    if np.any(np.asarray(k) < 0):
        raise ValueError("Rician factor must be nonnegative")
    return kernels.effective_power(k, eps)


def k_threshold(eps):
    """Crossing point of the two closed-form branches, in t = sqrt(2K) terms.

    The branch rule downstream is "small-K branch iff K <= k_threshold^2 / 2",
    i.e. the returned value is sqrt(2 K_switch).  The crossing is found by
    Brent's method in t, where the high branch blows up as t approaches
    inverse_q(eps) from above and the low branch grows like exp(t^2/4), so
    exactly one crossing exists to the right of the pole.
    """
    from scipy.optimize import brentq  # here: it adds 17 MB to a CLI run
    if not (0.0 < eps <= MAX_EPSILON):
        raise ValueError(f"outage target must lie in (0, {MAX_EPSILON}]")
    qi = inverse_q(eps)
    c_low = math.sqrt(-2.0 * math.log1p(-eps))

    def gap(t):
        w_low = c_low * math.exp(t * t / 4.0)
        w_high = t + math.log(t / (t - qi)) / (2.0 * qi) - qi
        return w_low - w_high

    lo = qi * (1.0 + 1e-9)
    hi = qi + 1.0
    tries = 0
    while gap(hi) <= 0.0:
        hi = qi + 2.0 * (hi - qi)
        tries += 1
        if tries > 200:
            raise RuntimeError("closed-form branch intersection not bracketed")
    if gap(lo) >= 0.0:  # pole side must be negative by construction
        raise RuntimeError("closed-form branch intersection not bracketed")
    # SciPy's default xtol (2e-12) stops short of full double precision
    return brentq(gap, lo, hi, xtol=1e-14)


def closed_form_effective_power(k, eps):
    """Analytic approximation of the epsilon-quantile of |g|^2.

    Two regimes joined at :func:`k_threshold`: an exponential-in-K expression
    where the Rayleigh-like tail dominates, and a normal-tail expansion once
    the specular component is strong.  Result clamped to (0, 1].
    """
    if not (0.0 < eps <= MAX_EPSILON):
        raise ValueError(f"outage target must lie in (0, {MAX_EPSILON}]")
    kk = np.asarray(k, dtype=float)
    if np.any(kk < 0):
        raise ValueError("Rician factor must be nonnegative")
    scalar = kk.ndim == 0
    kk = np.atleast_1d(kk).astype(float)

    qi = inverse_q(eps)
    kth = k_threshold(eps)
    k_star = 0.5 * kth * kth  # branch switch: K <= k_threshold^2 / 2
    c_low = math.sqrt(-2.0 * math.log1p(-eps))

    w = np.empty_like(kk)
    low = kk <= k_star
    w[low] = c_low * np.exp(0.5 * kk[low])
    t = np.sqrt(2.0 * kk[~low])
    w[~low] = t + np.log(t / (t - qi)) / (2.0 * qi) - qi

    f = np.minimum(w * w / (2.0 * (kk + 1.0)), 1.0)
    return float(f[0]) if scalar else f


# ---------------------------------------------------------------------------
# Logistic surrogate over the elevation indicator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegressionSamples:
    """Exact effective-power values tabulated on an elevation-indicator grid."""

    v: np.ndarray
    f: np.ndarray
    k_min: float
    k_max: float
    epsilon: float

    def __post_init__(self):
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))
        object.__setattr__(self, "f", np.asarray(self.f, dtype=float))
        if self.v.shape != self.f.shape or self.v.ndim != 1:
            raise ValueError("v and f must be 1-d arrays of equal length")


def generate_regression_samples(k_min, k_max, eps, grid_size=200):
    """Tabulate the exact effective power on a uniform v = sin(theta) grid."""
    if grid_size < MIN_GRID:
        raise ValueError(f"grid_size must be at least {MIN_GRID}")
    limit = max_grid()
    if grid_size > limit:
        raise ValueError(f"grid_size must be at most {limit}, the most "
                         f"sample points whose fit fits in memory")
    a1, a2 = rician_coeffs_from_bounds(k_min, k_max)
    v = np.linspace(0.0, 1.0, int(grid_size))
    f = exact_effective_power(rician_factor(np.arcsin(v), a1, a2), eps)
    return RegressionSamples(v=v, f=f, k_min=float(k_min), k_max=float(k_max),
                             epsilon=float(eps))


@dataclass(frozen=True)
class LogisticModel:
    """f(v) ~= c1 + c2 / (1 + exp(-(b1 + b2 v))) with c1 + c2 = 1.

    The constraint pins the asymptote: a fully specular link (v -> 1 with a
    huge Rician factor) suffers no fading, so the surrogate must be able to
    saturate at 1.  ``rmse`` and the fit inputs ride along for provenance.
    """

    b1: float
    b2: float
    c1: float
    c2: float
    rmse: Optional[float] = None
    k_min: Optional[float] = None
    k_max: Optional[float] = None
    epsilon: Optional[float] = None
    grid: Optional[int] = None

    def __post_init__(self):
        if not (abs(self.c1 + self.c2 - 1.0) <= 1e-9):
            raise ValueError("c1 + c2 must equal 1")
        if self.c1 < -1e-12 or self.c2 < -1e-12:
            raise ValueError("c1 and c2 must be nonnegative")
        if not (math.isfinite(self.b1) and 0.0 <= self.b2 < math.inf):
            raise ValueError("b1 must be finite, and b2 finite and nonnegative "
                             "(power grows with elevation)")
        # with b2 >= 0, exp(-(b1 + b2 v)) is largest at v = 0
        if self.b1 < -_MAX_EXP:
            raise ValueError(f"b1={self.b1:g} is below {-_MAX_EXP:.6g}, where "
                             f"exp(-b1) overflows")

    def predict(self, v):
        """The surrogate at elevation indicators v; v in [0, 1] raises no
        overflow."""
        v = np.asarray(v, dtype=float)
        out = self.c1 + self.c2 / (1.0 + np.exp(-(self.b1 + self.b2 * v)))
        return float(out) if out.ndim == 0 else out


def _residuals(x, v, f):
    """Residuals whose squared sum is the mean squared error of the
    logistic at x = (b1, b2, c1), and their Jacobian in x."""
    b1, b2, c1 = x
    s = expit(b1 + b2 * v)
    w = 1.0 / math.sqrt(v.size)
    ds = (1.0 - c1) * s * (1.0 - s) * w
    return ((c1 + (1.0 - c1) * s - f) * w,
            np.column_stack([ds, ds * v, (1.0 - s) * w]))


def fit_logistic(samples):
    """Least-squares logistic fit of effective power against the elevation
    indicator under the bounds b2 >= 0 and 0 <= c1 <= 1.
    Levenberg-Marquardt (Moré, LNM 630, 1978) on ``_residuals`` runs from
    the best point of an 11 x 11 (b1, b2) grid at c1 = 0 as a projected
    Newton iteration (Bertsekas, SIAM J. Control Optim. 20(2), 1982): a
    parameter on a bound whose descent direction leaves the box is held,
    the damped step of the others is clipped into the box, and the
    iteration stops once no parameter moves by more than 1e-12 of its size.
    The flat model (b2 = c1 = 0 at the samples' mean) wins within 1e-12 in
    squared error, so constant data gives b2 = 0."""
    v = np.asarray(samples.v, dtype=float)
    f = np.asarray(samples.f, dtype=float)
    if v.size < MIN_GRID:
        raise ValueError(f"need at least {MIN_GRID} samples for a stable fit")
    if v.min() > 0.05 or v.max() < 0.95:
        raise ValueError("samples must span the elevation-indicator range [0, 1]")

    b1, b2 = (g.reshape(-1, 1) for g in np.meshgrid(
        np.linspace(-10.0, 0.0, 11), np.linspace(0.0, 20.0, 11),
        indexing="ij"))
    err = expit(b1 + b2 * v)
    err -= f
    err *= err
    i = int(np.argmin(np.mean(err, axis=1)))
    lo, hi = np.array([-np.inf, 0.0, 0.0]), np.array([np.inf, np.inf, 1.0])
    x = np.array([b1[i, 0], b2[i, 0], 0.0])
    (r, jac), scale, damping = _residuals(x, v, f), np.zeros(3), 1e-3
    for _ in range(200):
        grad = jac.T @ r
        free = ~((x <= lo) & (grad > 0.0) | (x >= hi) & (grad < 0.0))
        normal = jac.T @ jac
        scale = np.maximum(scale, np.diag(normal))
        step = np.zeros(3)
        step[free] = np.linalg.solve(
            normal[np.ix_(free, free)] + damping * np.diag(scale[free]),
            -grad[free])
        clipped = np.clip(x + step, lo, hi)
        step, trial = clipped - x, _residuals(clipped, v, f)
        if trial[0] @ trial[0] < r @ r:
            x, (r, jac), damping = clipped, trial, damping / 10.0
        else:
            damping *= 10.0
        if np.all(np.abs(step) <= 1e-12 * (1.0 + np.abs(x))):
            break

    (b1, b2, c1), mse = x.tolist(), float(r @ r)
    if not math.isfinite(mse):
        raise RuntimeError("logistic fit failed to converge to finite error")
    flat = (float(logit(np.mean(f))), 0.0, 0.0)
    flat_mse = float(np.sum(_residuals(flat, v, f)[0] ** 2))
    if math.isfinite(flat[0]) and flat_mse <= mse + 1e-12:
        (b1, b2, c1), mse = flat, flat_mse
    return LogisticModel(b1=b1, b2=b2, c1=c1, c2=1.0 - c1, rmse=math.sqrt(mse),
                         k_min=samples.k_min, k_max=samples.k_max,
                         epsilon=samples.epsilon, grid=int(v.size))
