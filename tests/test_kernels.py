"""Numerical core: Marcum Q1, fading cdf and outage quantile.

Reference values were frozen from independent implementations:
- adaptive quadrature of the Rician envelope density (scipy.integrate.quad
  on x*exp(-(x-a)^2/2)*i0e(a*x)),
- scipy.stats.ncx2 (noncentral chi-square; |g|^2 scaled by 2(K+1)),
- brute-force Monte Carlo with 1e7 draws.
"""

import math

import numpy as np
import pytest

from scipy.special import chndtrix

from uavrice import kernels

# quadrature of the Rician density, error < 1.1e-8 each
QUAD_MARCUM = [
    (1.0, 1.0, 0.7328798037968198),
    (2.0, 1.0, 0.9181076963694069),
    (0.5, 2.0, 0.16914063850946717),
    (3.0, 4.0, 0.1965121893884076),
]

# scipy.stats.ncx2.ppf(eps, df=2, nc=2K) / (2(K+1))
NCX2_QUANTILES = [
    (0.0, 0.01, 0.010050335853501437),
    (1.0, 0.01, 0.013592238646510466),
    (10.0, 0.1, 0.5014406276848203),
    (10.0, 0.01, 0.24079041723546057),
    (100.0, 0.01, 0.6956764569100825),
    (1000.0, 0.01, 0.8982570578741402),
    (1e6, 0.01, 0.9967122561092645),
    (31.6227766, 0.05, 0.6235039110876903),
]


def test_marcum_boundary_identities():
    b = np.linspace(0.0, 8.0, 100)
    got = kernels.marcum_q1(np.zeros_like(b), b)
    assert np.max(np.abs(got - np.exp(-0.5 * b * b))) < 1e-10
    a = np.linspace(0.0, 8.0, 100)
    got = kernels.marcum_q1(a, np.zeros_like(a))
    assert np.max(np.abs(got - 1.0)) == 0.0


@pytest.mark.parametrize("a,b,expected", QUAD_MARCUM)
def test_marcum_against_quadrature(a, b, expected):
    assert kernels.marcum_q1(a, b) == pytest.approx(expected, abs=5e-8)


def test_marcum_range_and_monotonicity():
    rng = np.random.default_rng(7)
    a = rng.uniform(0.0, 40.0, 500)
    b = rng.uniform(0.0, 50.0, 500)
    q = kernels.marcum_q1(a, b)
    assert np.all(q >= 0.0) and np.all(q <= 1.0)
    # decreasing in b, increasing in a -- up to the documented 1e-10 accuracy
    q_db = kernels.marcum_q1(a, b + 0.05)
    q_da = kernels.marcum_q1(a + 0.05, b)
    assert np.all(q_db <= q + 1e-10)
    assert np.all(q_da >= q - 1e-10)


def test_marcum_large_argument_tail():
    # far tails must saturate cleanly, not over/underflow
    assert kernels.marcum_q1(30.0, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert kernels.marcum_q1(1.0, 30.0) < 1e-80
    assert kernels.marcum_q1(200.0, 1.0) == 1.0  # normal-tail branch
    assert kernels.marcum_q1(200.0, 400.0) == pytest.approx(0.0, abs=1e-12)
    # factors this large make SciPy return nan; the normal-tail guard answers
    for b in (1e6, 0.5e6):
        q = kernels.marcum_q1(1e6, b)
        assert math.isfinite(q) and 0.0 <= q <= 1.0


def test_fading_cdf_basics():
    # K=0 is Rayleigh power: F(u) = 1 - exp(-u)
    u = np.linspace(0.0, 5.0, 50)
    got = kernels.fading_cdf(u, np.zeros_like(u))
    assert np.max(np.abs(got - (1.0 - np.exp(-u)))) < 1e-12
    # deterministic channel: unit step at u=1
    assert kernels.fading_cdf(0.999, np.inf) == 0.0
    assert kernels.fading_cdf(1.0, np.inf) == 1.0
    assert kernels.fading_cdf(0.0, 3.0) == 0.0


def test_fading_cdf_monotone_in_u_and_k():
    u = np.linspace(0.01, 2.0, 80)
    for k in (0.0, 0.5, 10.0, 300.0):
        F = kernels.fading_cdf(u, np.full_like(u, k))
        assert np.all(np.diff(F) >= -1e-13)
    # larger K concentrates power near 1: cdf at u=0.5 must drop with K
    ks = np.array([0.0, 1.0, 5.0, 25.0, 125.0])
    F = kernels.fading_cdf(np.full_like(ks, 0.5), ks)
    assert np.all(np.diff(F) < 0)


def test_fading_cdf_montecarlo_value():
    # frozen: 1e7 Philox draws, seed 987654321 -> mean 0.0990122 +- 9.4e-5 (1s)
    # and ncx2.cdf gives 0.09914858043484899
    got = kernels.fading_cdf(0.5, 10.0)
    assert got == pytest.approx(0.09914858043484899, abs=1e-10)
    assert abs(got - 0.0990122) < 4 * 9.45e-5


@pytest.mark.parametrize("k,eps,expected", NCX2_QUANTILES)
def test_effective_power_against_ncx2(k, eps, expected):
    assert kernels.effective_power(k, eps) == pytest.approx(expected, abs=2e-9)


def test_effective_power_roundtrip_and_shape():
    ks = np.array([0.0, 2.0, 7.0, 40.0, 900.0])
    f = kernels.effective_power(ks, 0.05)
    # definition: F(f) = eps
    back = kernels.fading_cdf(f, ks)
    assert np.max(np.abs(back - 0.05)) < 1e-9
    assert f.shape == ks.shape
    assert isinstance(kernels.effective_power(3.0, 0.05), float)


def test_effective_power_monotone_in_k():
    ks = np.logspace(-2, 4, 60)
    f = kernels.effective_power(ks, 0.01)
    assert np.all(np.diff(f) > 0)
    assert np.all((f > 0) & (f <= 1))


def test_effective_power_clamp_branch():
    # with a loose outage target the whole-power point can satisfy F(1) < eps;
    # the kernel then reports no fading margin at all
    assert kernels.effective_power(1e6, 0.7) == 1.0


def test_large_and_infinite_factor_guard():
    # K = 1e12 takes the normal tail, and SciPy's chndtr returns nan on part
    # of this grid; the kernels must fall back rather than pass nan on
    u = np.linspace(0.99, 1.01, 2001)
    F = kernels.fading_cdf(u, 1e12)
    assert not np.any(np.isnan(F))
    assert np.all(np.diff(F) >= -1e-13) and F[0] == 0.0 and F[-1] == 1.0
    assert kernels.fading_cdf(1.0, 1e12) == pytest.approx(0.5, abs=1e-5)
    # |g|^2 is close to Normal(1, 2K/(K+1)^2) for huge K
    f = kernels.effective_power(1e12, 0.01)
    want = 1.0 - 2.3263478740408408 * math.sqrt(2e12) / (1e12 + 1.0)
    assert f == pytest.approx(want, abs=1e-9)
    assert kernels.fading_cdf(f, 1e12) == pytest.approx(0.01, abs=1e-6)
    got = kernels.effective_power(np.array([1e12, np.inf]), 0.01)
    assert got[0] == f and got[1] == 1.0
    assert kernels.effective_power(np.inf, 0.01) == 1.0
    F = kernels.fading_cdf(u, np.inf)
    assert np.array_equal(F, (u >= 1.0).astype(float))


def test_huge_factors_skip_chndtrix(monkeypatch):
    # chndtrix's time grows with the noncentrality 2K (3.7 ms at 1e8,
    # seconds at 1e16): from 2K = 1e8 the quantile is the normal tail,
    # which matches chndtrix there to a few 1e-16, and below it chndtrix
    # alone, to the bit
    k = np.array([0.0, 3.0, 5e3, 5e7 * (1.0 - 1e-15), 5e7, 5e9, 1e18, 1e20])
    for eps in (0.001, 0.01, 0.1):
        got = kernels.effective_power(k, eps)
        low = 2.0 * k[:4]
        want = np.minimum(chndtrix(eps, 2.0, low) / (2.0 * (k[:4] + 1.0)),
                          1.0)
        assert got[:4].tobytes() == want.tobytes()
        for i in range(4, k.size):
            assert got[i] == kernels._ncx2_ppf_normal(
                eps, 2.0, 2.0 * k[i]) / (2.0 * (k[i] + 1.0))
        assert kernels.effective_power(5e7, eps) == pytest.approx(
            chndtrix(eps, 2.0, 1e8) / (2.0 * (5e7 + 1.0)), rel=1e-15)
    seen = []

    def spy(eps, df, nc):
        seen.append(np.max(nc))
        return chndtrix(eps, df, nc)

    monkeypatch.setattr(kernels, "chndtrix", spy)
    kernels.effective_power(k, 0.01)
    assert seen and max(seen) < kernels._NORMAL_NC


def test_ks_statistic_small_sample():
    # 1e6 empirical draws against the cdf at 1% significance (critical
    # value 1.6276/sqrt(n)); rigorous grid sandwich, no per-sample cdf calls
    from uavrice.evaluation import ks_upper_bound

    n = 1_000_000
    for k in (0.0, 10.0):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(42)))
        los = math.sqrt(k / (k + 1.0))
        sc = math.sqrt(0.5 / (k + 1.0))
        g = los + sc * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        p = np.abs(g) ** 2
        d = ks_upper_bound(p, lambda u, kk=k: kernels.fading_cdf(u, np.full_like(u, kk)))
        assert d < 1.6276 / math.sqrt(n), f"KS bound {d:.2e} too large at K={k}"


def test_warmup_is_repeatable():
    kernels.warmup()  # must be safe to call repeatedly
    kernels.warmup()
