"""Numerical kernels for the Rician fading-power statistics.

All three kernels are SciPy's compiled noncentral chi-square.  The
unit-power Rician gain has |g|² = X / (2(K+1)) with X ~ ncx2(2, 2K), so

    F(u; K) = chndtr(2(K+1)u, 2, 2K),
    f(K, eps) = min(chndtrix(eps, 2, 2K) / (2(K+1)), 1),
    Q1(a, b) = P(X > b²) for X ~ ncx2(2, a²) = 1 - F(b² / (a² + 2); a² / 2).

SciPy's routines return nan for very large factors (K above about 1e10);
those points take the normal-tail (Sankaran) approximation instead, and
K = inf is the deterministic unit gain.  Being one minus a cdf, Q1 has
absolute accuracy (about 2e-15 against quadrature for a, b <= 50), and
values below that round to 0.
"""

import math

import numpy as np
from scipy.special import chndtr, chndtrix, ndtri


def _sankaran(k, lam):
    """Sankaran's power transform of the noncentral chi-square: returns
    (s, h, mean, sd) such that (X / s)**h is close to Normal(mean, sd**2)."""
    s = k + lam
    h = 1.0 - (2.0 / 3.0) * s * (k + 3.0 * lam) / ((k + 2.0 * lam) ** 2)
    p = (k + 2.0 * lam) / (s * s)
    m = (h - 1.0) * (1.0 - 3.0 * h)
    mean = 1.0 + h * p * (h - 1.0 - 0.5 * (2.0 - h) * m * p)
    sd = h * math.sqrt(2.0 * p) * (1.0 + 0.5 * m * p)
    return s, h, mean, sd


def _ncx2_sf_normal(x, k, lam):
    """Normal-tail (Sankaran power-transform) survival approximation of
    the noncentral chi-square; used only where SciPy does not reach."""
    s, h, mean, sd = _sankaran(k, lam)
    z = ((x / s) ** h - mean) / sd
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def _ncx2_ppf_normal(q, k, lam):
    """Inverse in x of ``1 - _ncx2_sf_normal(x, k, lam) = q``."""
    s, h, mean, sd = _sankaran(k, lam)
    return s * (mean + sd * ndtri(q)) ** (1.0 / h)


# ---------------------------------------------------------------------------
# Public entry points (scalar or ndarray, raw — domain validation lives in
# the channel/fading modules that own the physical contracts)
# ---------------------------------------------------------------------------

def fading_cdf(u, k):
    """Rician power cdf F(u; k), elementwise over broadcast inputs.

    u <= 0 gives 0; k = inf gives the unit step at u = 1.
    """
    uu, kk = np.broadcast_arrays(np.asarray(u, float), np.asarray(k, float))
    infinite = np.isinf(kk)
    kf = np.where(infinite, 0.0, kk)
    x = 2.0 * (kf + 1.0) * uu
    out = np.asarray(chndtr(x, 2.0, 2.0 * kf), dtype=float)
    for i in np.flatnonzero(np.isnan(out) & (uu > 0.0)):
        out.flat[i] = 1.0 - _ncx2_sf_normal(x.flat[i], 2.0, 2.0 * kf.flat[i])
    out = np.where(infinite, uu >= 1.0, out)
    out = np.where(uu <= 0.0, 0.0, out)
    if np.isscalar(u) and np.isscalar(k):
        return float(out)
    return out


def marcum_q1(a, b):
    """Q1(a, b), elementwise over broadcast inputs; b <= 0 gives 1.

    Accurate in absolute terms only: computed as one minus a cdf, it
    returns 0 deep in the upper tail (Q1(1.67, 24.69) is 5.67e-117 by
    quadrature), so do not take ratios or logarithms of small values.
    """
    aa, bb = np.broadcast_arrays(np.asarray(a, float), np.asarray(b, float))
    a2 = aa * aa
    out = np.where(bb <= 0.0, 1.0,
                   1.0 - fading_cdf(bb * bb / (a2 + 2.0), 0.5 * a2))
    if np.isscalar(a) and np.isscalar(b):
        return float(out)
    return out


def effective_power(k, eps):
    """Outage quantile f(k, eps), elementwise over k: the u with
    F(u; k) = eps, clamped to 1; k = inf gives 1."""
    kk = np.asarray(k, dtype=np.float64)
    infinite = np.isinf(kk)
    kf = np.where(infinite, 0.0, kk)
    x = np.asarray(chndtrix(eps, 2.0, 2.0 * kf), dtype=float)
    for i in np.flatnonzero(np.isnan(x)):
        x.flat[i] = _ncx2_ppf_normal(eps, 2.0, 2.0 * kf.flat[i])
    out = np.where(infinite, 1.0, np.minimum(x / (2.0 * (kf + 1.0)), 1.0))
    if np.isscalar(k):
        return float(out)
    return out


def warmup():
    """Evaluate every kernel once on scalars and arrays, so the first real
    call pays no import or dispatch set-up."""
    marcum_q1(1.0, 1.0)
    marcum_q1(np.array([1.0]), np.array([1.0]))
    fading_cdf(0.5, 10.0)
    fading_cdf(np.array([0.5]), np.array([10.0]))
    effective_power(10.0, 0.01)
    effective_power(np.array([10.0]), 0.01)
