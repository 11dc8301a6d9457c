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
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import minimize
from scipy.special import ndtri

from . import kernels
from .channel import rician_coeffs_from_bounds, rician_factor

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
    if not (0.0 < eps <= 0.1):
        raise ValueError("outage target must lie in (0, 0.1]")
    if np.any(np.asarray(k) < 0):
        raise ValueError("Rician factor must be nonnegative")
    return kernels.effective_power(k, eps)


def k_threshold(eps):
    """Crossing point of the two closed-form branches, in t = sqrt(2K) terms.

    The branch rule downstream is "small-K branch iff K <= k_threshold^2 / 2",
    i.e. the returned value is sqrt(2 K_switch).  The crossing is found by
    bisection in t, where the high branch blows up as t approaches
    inverse_q(eps) from above and the low branch grows like exp(t^2/4), so
    exactly one crossing exists to the right of the pole.
    """
    if not (0.0 < eps <= 0.1):
        raise ValueError("outage target must lie in (0, 0.1]")
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
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gap(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def closed_form_effective_power(k, eps):
    """Analytic approximation of the epsilon-quantile of |g|^2.

    Two regimes joined at :func:`k_threshold`: an exponential-in-K expression
    where the Rayleigh-like tail dominates, and a normal-tail expansion once
    the specular component is strong.  Result clamped to (0, 1].
    """
    if not (0.0 < eps <= 0.1):
        raise ValueError("outage target must lie in (0, 0.1]")
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
    if grid_size < 50:
        raise ValueError("grid_size must be at least 50")
    a1, a2 = rician_coeffs_from_bounds(k_min, k_max)
    v = np.linspace(0.0, 1.0, int(grid_size))
    theta = np.arcsin(v)
    k = rician_factor(theta, a1, a2)
    f = exact_effective_power(k, eps)
    return RegressionSamples(v=v, f=np.asarray(f, dtype=float),
                             k_min=float(k_min), k_max=float(k_max),
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
        if self.b2 < 0:
            raise ValueError("b2 must be nonnegative (power grows with elevation)")

    def predict(self, v):
        v = np.asarray(v, dtype=float)
        out = self.c1 + self.c2 / (1.0 + np.exp(-(self.b1 + self.b2 * v)))
        return float(out) if out.ndim == 0 else out


def _mse(params, v, f):
    b1, b2, c1 = params
    pred = c1 + (1.0 - c1) / (1.0 + np.exp(-(b1 + b2 * v)))
    err = pred - f
    base = float(np.mean(err * err))
    # soft box penalties keep Nelder-Mead honest; the optimum is interior
    pen = max(0.0, -c1) ** 2 + max(0.0, c1 - 1.0) ** 2 + max(0.0, -b2) ** 2
    return base + 10.0 * pen


def fit_logistic(samples):
    """Least-squares logistic fit of effective power against the elevation
    indicator.

    Deterministic multistart: a coarse (b1, b2, c1) grid ranks starting
    points, Nelder-Mead polishes the best few, and ties (squared error equal
    to 12 decimals) break toward the flattest slope so degenerate data yields
    the simplest model.
    """
    v = np.asarray(samples.v, dtype=float)
    f = np.asarray(samples.f, dtype=float)
    if v.size < 50:
        raise ValueError("need at least 50 samples for a stable fit")
    if v.min() > 0.05 or v.max() < 0.95:
        raise ValueError("samples must span the elevation-indicator range [0, 1]")

    b1g = np.linspace(-10.0, 0.0, 11)
    b2g = np.linspace(0.0, 20.0, 11)
    c1g = np.array([0.0, 0.15, 0.30, 0.45])
    starts = []
    for b1 in b1g:
        for b2 in b2g:
            for c1 in c1g:
                starts.append(((b1, b2, c1), _mse((b1, b2, c1), v, f)))
    starts.sort(key=lambda item: item[1])

    candidates = []
    for (x0, _) in starts[:6]:
        res = minimize(_mse, np.asarray(x0, dtype=float), args=(v, f),
                       method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-14,
                                "maxiter": 6000, "maxfev": 9000})
        candidates.append((float(res.fun), abs(float(res.x[1])), res.x))
    candidates.sort(key=lambda item: (round(item[0], 12), item[1]))
    best_mse, _, x = candidates[0]
    if not math.isfinite(best_mse):
        raise RuntimeError("logistic fit failed to converge to finite error")

    b1, b2, c1 = (float(x[0]), float(x[1]), float(x[2]))
    c1 = min(max(c1, 0.0), 1.0)
    b2 = max(b2, 0.0)
    raw = _mse((b1, b2, c1), v, f)
    return LogisticModel(b1=b1, b2=b2, c1=c1, c2=1.0 - c1,
                         rmse=math.sqrt(raw),
                         k_min=samples.k_min, k_max=samples.k_max,
                         epsilon=samples.epsilon, grid=int(v.size))
