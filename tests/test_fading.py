"""Effective-power surfaces: exact, closed-form branches, logistic surrogate.

Frozen reference values come from scipy.stats.ncx2.ppf and from a 1e7-draw
Monte-Carlo quantile (Philox, seed 987654321).
"""

import math

import numpy as np
import pytest

from uavrice import fading


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

    def test_flat_data_degenerates_gracefully(self):
        s = fading.generate_regression_samples(10.0, 10.0, 0.01, 80)
        m = fading.fit_logistic(s)
        assert abs(m.b2) < 1e-3
        assert np.max(np.abs(m.predict(s.v) - s.f)) < 1e-3

    def test_reference_configuration(self):
        # 0 dB..30 dB at a 1% outage target: a steep saturating curve with a
        # tiny floor; the acceptance suite pins the exact quality gates
        s = fading.generate_regression_samples(1.0, 1000.0, 0.01, 200)
        m = fading.fit_logistic(s)
        assert -6.0 < m.b1 < -3.0
        assert 4.5 < m.b2 < 7.5
        assert m.c1 <= 0.02
        assert m.rmse <= 0.03
        assert m.grid == 200 and m.epsilon == 0.01

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
