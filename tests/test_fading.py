"""Effective-power surfaces: exact, closed-form branches, logistic surrogate.

Frozen reference values come from scipy.stats.ncx2.ppf and from a 1e7-draw
Monte-Carlo quantile (Philox, seed 987654321).
"""

import math
import tracemalloc

import numpy as np
import pytest

from uavrice import channel, fading


def test_inverse_q():
    # Q(1.2815515655446004) = 0.1; symmetric about 0.5
    assert fading.inverse_q(0.1) == pytest.approx(1.2815515655446004, abs=1e-12)
    assert fading.inverse_q(0.5) == pytest.approx(0.0, abs=1e-12)
    assert fading.inverse_q(0.9) == pytest.approx(-1.2815515655446004, abs=1e-12)
    x = fading.inverse_q(np.array([0.01, 0.05]))
    assert x[0] == pytest.approx(2.3263478740408408, abs=1e-12)
    for bad in (0.0, 1.0, -0.3):
        with pytest.raises(ValueError):
            fading.inverse_q(bad)


class TestExactEffectivePower:
    def test_rayleigh_closed_form(self):
        for eps in (0.001, 0.01, 0.05, 0.1):
            assert fading.exact_effective_power(0.0, eps) == pytest.approx(
                -math.log1p(-eps), abs=1e-12)

    def test_montecarlo_quantile(self):
        # frozen 1e7-draw empirical 0.1-quantile at K=10: 0.5016497923388252
        got = fading.exact_effective_power(10.0, 0.1)
        assert abs(got - 0.5016497923388252) < 1.3e-3
        # and the independent ncx2 inversion pins it much tighter
        assert got == pytest.approx(0.5014406276848203, abs=2e-9)

    def test_near_deterministic_channel(self):
        # enormous specular power: the quantile crowds toward (but never
        # reaches) 1, because half the fading mass always sits below 1
        got = fading.exact_effective_power(1e6, 0.01)
        assert got == pytest.approx(0.9967122561092645, abs=5e-9)
        assert got < 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            fading.exact_effective_power(5.0, 0.2)
        with pytest.raises(ValueError):
            fading.exact_effective_power(-1.0, 0.01)


class TestClosedForm:
    def test_threshold_self_consistency(self):
        # at K = kth^2/2 both branch formulas give the same w
        for eps in (0.01, 0.1):
            kth = fading.k_threshold(eps)
            qi = fading.inverse_q(eps)
            assert kth > qi
            k_switch = 0.5 * kth * kth
            w_low = math.sqrt(-2 * math.log1p(-eps)) * math.exp(0.5 * k_switch)
            t = math.sqrt(2 * k_switch)
            w_high = t + math.log(t / (t - qi)) / (2 * qi) - qi
            assert abs(w_low - w_high) <= 1e-8

    def test_continuity_at_switch(self):
        for eps in (0.01, 0.1):
            ks = 0.5 * fading.k_threshold(eps) ** 2
            lo = fading.closed_form_effective_power(ks * (1 - 1e-9), eps)
            hi = fading.closed_form_effective_power(ks * (1 + 1e-9), eps)
            assert abs(lo - hi) <= 1e-6

    def test_rayleigh_exact_equality(self):
        for eps in (0.001, 0.01, 0.05, 0.1):
            cf = fading.closed_form_effective_power(0.0, eps)
            ex = fading.exact_effective_power(0.0, eps)
            assert cf == pytest.approx(ex, abs=1e-12)

    def test_accuracy_at_strong_specular(self):
        cf = fading.closed_form_effective_power(100.0, 0.01)
        ex = fading.exact_effective_power(100.0, 0.01)
        assert abs(cf - ex) / ex < 0.15

    def test_monotone_spot_check(self):
        assert (fading.closed_form_effective_power(100.0, 0.01)
                > fading.closed_form_effective_power(1.0, 0.01))

    def test_clamped_to_unit(self):
        ks = np.logspace(0, 7, 40)
        f = fading.closed_form_effective_power(ks, 0.1)
        assert np.all(f <= 1.0) and np.all(f > 0.0)

    def test_scalar_and_array(self):
        out = fading.closed_form_effective_power(np.array([0.0, 5.0]), 0.05)
        assert out.shape == (2,)
        assert isinstance(fading.closed_form_effective_power(5.0, 0.05), float)


class TestRegressionSamples:
    def test_grid_and_endpoints(self):
        s = fading.generate_regression_samples(1.0, 1000.0, 0.01, 60)
        assert s.v.shape == (60,)
        assert s.v[0] == 0.0 and s.v[-1] == 1.0
        # v=0 is grazing incidence (K=k_min); v=1 is overhead (K=k_max)
        assert s.f[0] == pytest.approx(fading.exact_effective_power(1.0, 0.01), abs=1e-12)
        assert s.f[-1] == pytest.approx(fading.exact_effective_power(1000.0, 0.01), abs=1e-12)
        assert np.all(np.diff(s.f) > 0)

    def test_minimum_grid(self):
        with pytest.raises(ValueError):
            fading.generate_regression_samples(1.0, 1000.0, 0.01, 20)

    def test_grid_bound_is_a_memory_estimate(self, monkeypatch):
        # 2,200 B per sample point against the memory: with room for 1000
        # points, 1001 are refused before anything is tabulated
        monkeypatch.setattr(channel, "_memory_bytes", lambda: 2200 * 1000)
        assert channel.max_grid() == 1000
        with pytest.raises(ValueError, match="at most 1000"):
            fading.generate_regression_samples(1.0, 1000.0, 0.01, 1001)
        assert fading.generate_regression_samples(
            1.0, 1000.0, 0.01, 1000).v.size == 1000


class TestLogisticModel:
    def test_predict_endpoints(self):
        m = fading.LogisticModel(b1=-4.3221, b2=6.0750, c1=0.0, c2=1.0)
        assert m.predict(0.0) == pytest.approx(1.0 / (1.0 + math.exp(4.3221)), rel=1e-12)
        # frozen: 1/(1+e^(-1.7529)) evaluated independently
        assert m.predict(1.0) == pytest.approx(0.85232, abs=1e-4)

    def test_weights_must_be_normalized(self):
        with pytest.raises(ValueError):
            fading.LogisticModel(b1=0.0, b2=1.0, c1=0.3, c2=0.5)
        with pytest.raises(ValueError):
            fading.LogisticModel(b1=0.0, b2=-2.0, c1=0.0, c2=1.0)
        for b1, b2 in ((math.nan, 1.0), (math.inf, 1.0), (0.0, math.inf),
                       (0.0, math.nan)):
            with pytest.raises(ValueError, match="finite"):
                fading.LogisticModel(b1=b1, b2=b2, c1=0.0, c2=1.0)

    @pytest.mark.parametrize("b1", [-800.0, -710.0,
                                    np.nextafter(-fading._MAX_EXP, -np.inf)])
    def test_refuses_a_logistic_that_overflows(self, b1):
        # with b2 >= 0 the largest exponential predict takes on [0, 1] is
        # exp(-b1), which overflows here
        with pytest.raises(ValueError, match=r"exp\(-b1\) overflows"):
            fading.LogisticModel(b1=b1, b2=0.0, c1=0.0, c2=1.0)

    @pytest.mark.parametrize("b1, b2", [(-fading._MAX_EXP, 0.0),
                                        (-fading._MAX_EXP, 1e300),
                                        (800.0, 0.0)])
    def test_extreme_admissible_model_predicts_without_warning(self, b1, b2):
        # warnings are errors in this suite; overflow and invalid raise too
        m = fading.LogisticModel(b1=b1, b2=b2, c1=0.0, c2=1.0)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            out = m.predict(np.linspace(0.0, 1.0, 11))
        assert np.all(np.isfinite(out)) and np.all(out > 0.0)
        assert out[0] == pytest.approx(1.0 / (1.0 + math.exp(-b1)))


class TestFit:
    def test_recovers_synthetic_model(self):
        truth = fading.LogisticModel(b1=-3.0, b2=5.0, c1=0.1, c2=0.9)
        v = np.linspace(0, 1, 120)
        s = fading.RegressionSamples(v=v, f=truth.predict(v),
                                     k_min=1.0, k_max=10.0, epsilon=0.01)
        m = fading.fit_logistic(s)
        assert m.b1 == pytest.approx(-3.0, abs=1e-4)
        assert m.b2 == pytest.approx(5.0, abs=1e-4)
        assert m.c1 == pytest.approx(0.1, abs=1e-4)

    @pytest.mark.parametrize("eps", [0.001, 0.01, 0.1])
    @pytest.mark.parametrize("k", [1.0, 10.0])
    def test_flat_data_degenerates_gracefully(self, eps, k):
        # k_min == k_max: every sample is the same value, so the flattest
        # model is exact; warnings are errors in this suite
        s = fading.generate_regression_samples(k, k, eps, 80)
        m = fading.fit_logistic(s)
        assert m.b2 == 0.0
        assert math.isfinite(m.b1) and abs(m.b1) <= 50.0
        assert np.max(np.abs(m.predict(s.v) - s.f)) < 1e-3

    def test_reference_configuration(self):
        # 0 dB..30 dB at a 1% outage target: a steep saturating curve whose
        # bounded optimum has c1 on its bound 0.  Pinned so that a change
        # of the fit's objective moves these numbers on purpose, and checked
        # against SciPy's bounded least squares from another start.
        from scipy.optimize import least_squares
        s = fading.generate_regression_samples(1.0, 1000.0, 0.01, 200)
        m = fading.fit_logistic(s)
        assert m.b1 == pytest.approx(-4.139415896, rel=1e-8)
        assert m.b2 == pytest.approx(5.828693194, rel=1e-8)
        assert m.c1 == 0.0 and m.c2 == 1.0
        assert m.rmse == pytest.approx(0.01382445881, rel=1e-9)
        assert m.grid == 200 and m.epsilon == 0.01
        ref = least_squares(lambda x: fading._residuals(x, s.v, s.f)[0],
                            [-4.0, 6.0, 0.1],
                            jac=lambda x: fading._residuals(x, s.v, s.f)[1],
                            bounds=([-np.inf, 0.0, 0.0], [np.inf, np.inf, 1.0]),
                            xtol=1e-15, ftol=1e-15, gtol=1e-15)
        assert m.b1 == pytest.approx(ref.x[0], rel=1e-8)
        assert m.b2 == pytest.approx(ref.x[1], rel=1e-8)
        assert m.rmse <= math.sqrt(2.0 * ref.cost) * (1.0 + 1e-12)

    @pytest.mark.parametrize("x", [(-4.0, 6.0, 0.1), (-4.0, 0.0, 0.0),
                                   (-1.0, 0.5, 1.0)])
    def test_residual_jacobian_matches_central_differences(self, x):
        # inside the box, and on each bound
        s = fading.generate_regression_samples(1.0, 1000.0, 0.01, 60)
        r, jac = fading._residuals(np.array(x), s.v, s.f)
        assert r.shape == (60,) and jac.shape == (60, 3)
        for j in range(3):
            h = np.zeros(3)
            h[j] = 1e-6
            fd = (fading._residuals(np.array(x) + h, s.v, s.f)[0]
                  - fading._residuals(np.array(x) - h, s.v, s.f)[0]) / 2e-6
            np.testing.assert_allclose(jac[:, j], fd, atol=1e-8)

    def test_objective_is_the_mean_squared_error(self):
        s = fading.generate_regression_samples(1.0, 1000.0, 0.01, 60)
        x = (-1.0, 0.5, 0.3)
        r, _ = fading._residuals(np.array(x), s.v, s.f)
        pred = 0.3 + 0.7 / (1.0 + np.exp(-(-1.0 + 0.5 * s.v)))
        assert r @ r == pytest.approx(np.mean((pred - s.f) ** 2), rel=1e-12)

    @pytest.mark.parametrize("eps, k_max, on_bound", [
        (0.01, 1000.0, True), (0.001, 100.0, True), (0.1, 1e4, True),
        (0.1, 10 ** 0.5, False), (0.05, 100.0, False)])
    def test_fit_satisfies_the_bounded_optimality_conditions(self, eps, k_max,
                                                             on_bound):
        # a free parameter's gradient vanishes, and a parameter on a bound
        # has its gradient pointing out of the box
        s = fading.generate_regression_samples(1.0, k_max, eps)
        m = fading.fit_logistic(s)
        x = np.array([m.b1, m.b2, m.c1])
        r, jac = fading._residuals(x, s.v, s.f)
        grad = 2.0 * jac.T @ r
        size = 2.0 * np.linalg.norm(jac, axis=0) * np.linalg.norm(r)
        assert m.b2 > 0.0
        assert np.all(np.abs(grad[:2]) <= 1e-8 * size[:2])
        if on_bound:
            assert m.c1 == 0.0 and grad[2] > 1e-6 * size[2]
        else:
            assert 0.0 < m.c1 < 1.0 and abs(grad[2]) <= 1e-8 * size[2]

    def test_fit_memory_stays_under_the_grid_bound(self):
        # max_grid() and `fit --grid` size the sample grid by this figure
        s = fading.generate_regression_samples(1.0, 1000.0, 0.01, 20_000)
        tracemalloc.start()
        try:
            fading.fit_logistic(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < channel._FIT_BYTES_PER_POINT * s.v.size

    def test_fit_input_validation(self):
        v = np.linspace(0, 1, 30)
        s = fading.RegressionSamples(v=v, f=np.linspace(0.1, 0.9, 30),
                                     k_min=1.0, k_max=10.0, epsilon=0.01)
        with pytest.raises(ValueError):
            fading.fit_logistic(s)
        v2 = np.linspace(0.4, 0.6, 80)
        s2 = fading.RegressionSamples(v=v2, f=np.linspace(0.1, 0.9, 80),
                                      k_min=1.0, k_max=10.0, epsilon=0.01)
        with pytest.raises(ValueError):
            fading.fit_logistic(s2)
        f = np.linspace(0.1, 0.9, 80)
        f[7] = math.nan
        s3 = fading.RegressionSamples(v=np.linspace(0, 1, 80), f=f,
                                      k_min=1.0, k_max=10.0, epsilon=0.01)
        with pytest.raises(RuntimeError, match="finite"):
            fading.fit_logistic(s3)
