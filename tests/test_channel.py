"""Slot geometry, Rician-factor model, sampling streams, and the rate kernel."""

import math

import numpy as np
import pytest

from uavrice import channel
from uavrice.evaluation import exact_rates, monte_carlo_outage
from uavrice.planner import LOS_MODEL, Plan, predicted_rates, slot_geometry


def make_scenario(**overrides):
    base = dict(
        sn_positions=[[200.0, 0.0]],
        q0=[0.0, 500.0], qf=[1000.0, 500.0],
        z0=100.0, zf=100.0,
        duration_s=26.0, n_slots=130,
        vxy=50.0, vz=20.0, h_min=100.0,
        p_tx=0.1, beta0=1e-6, alpha=2.0,
        sigma2=1.2589254117941663e-14, snr_gap=6.606934480075964,
        k_min=1.0, k_max=1000.0, epsilon=0.01, n_blocks=2,
    )
    base.update(overrides)
    return channel.Scenario(**base)


class TestScenario:
    def test_derived_quantities(self):
        s = make_scenario()
        assert s.n_sn == 1
        assert s.delta_s == pytest.approx(0.2)
        assert s.sxy == pytest.approx(10.0)
        assert s.sz == pytest.approx(4.0)
        a1, a2 = s.rician_coeffs
        assert a1 == 1.0
        assert a1 * math.exp(a2 * math.pi / 2) == pytest.approx(1000.0, rel=1e-12)
        assert s.snr_gamma_per_sn[0] == pytest.approx(
            0.1 * 1e-6 / (1.2589254117941663e-14 * 6.606934480075964), rel=1e-12)

    def test_p_tx_broadcast(self):
        s = make_scenario(sn_positions=[[0, 0], [1, 1], [2, 2]], p_tx=0.1)
        assert s.p_tx.shape == (3,)
        s2 = make_scenario(sn_positions=[[0, 0], [1, 1]], p_tx=[0.1, 0.2])
        assert s2.snr_gamma_per_sn[1] == pytest.approx(2 * s2.snr_gamma_per_sn[0])

    @pytest.mark.parametrize("bad", [
        dict(epsilon=0.0), dict(epsilon=0.2), dict(alpha=1.5), dict(alpha=7.0),
        dict(h_min=0.0), dict(z0=50.0), dict(n_slots=0), dict(duration_s=-1.0),
        dict(p_tx=0.0), dict(k_min=0.0), dict(k_min=2000.0),
        dict(duration_s=10.0),            # 1000 m at 50 m/s needs 20 s
        dict(zf=300.0, vz=1.0),           # 200 m climb at 1 m/s needs 200 s
    ])
    def test_rejects_bad_instances(self, bad):
        with pytest.raises(ValueError):
            make_scenario(**bad)


class TestGeometry:
    """``planner.slot_geometry`` is the one geometry path: planning, exact
    re-scoring and Monte-Carlo all take their distances from it."""

    @staticmethod
    def plan_over(scen, xy, z, n_slots=3):
        # every waypoint at one point, so each slot sees the same geometry
        q = np.tile(np.asarray(xy, dtype=float), (n_slots + 1, 1))
        return Plan(q=q, z=np.full(n_slots + 1, float(z)),
                    a=np.full((scen.n_sn, n_slots), 1.0 / scen.n_sn))

    def test_distance_and_pathloss(self):
        # 3-4-12 triangle: d = 13, sin(elevation) = 12/13
        scen = make_scenario(sn_positions=[[0.0, 4.0]])
        plan = self.plan_over(scen, [3.0, 0.0], 12.0)
        d2, v = slot_geometry(plan.q, plan.z, scen)
        assert np.all(d2 == 169.0)
        assert np.all(v == 12.0 / 13.0)
        # the path-loss model holds down to its 1 m reference distance only
        at_1m = self.plan_over(scen, [0.0, 4.0], 1.0)
        assert np.all(slot_geometry(at_1m.q, at_1m.z, scen)[0] == 1.0)
        inside = self.plan_over(scen, [0.0, 4.0], 0.5)
        with pytest.raises(ValueError, match="1 m reference"):
            slot_geometry(inside.q, inside.z, scen)

    def test_elevation_angle(self):
        # directly overhead -> v = 1; far away -> v sinks toward 0
        scen = make_scenario(sn_positions=[[5.0, 5.0], [-1e5, 0.0]])
        plan = self.plan_over(scen, [5.0, 5.0], 80.0)
        _, v = slot_geometry(plan.q, plan.z, scen)
        assert np.all(v[0] == 1.0)
        assert np.all((0.0 < v[1]) & (v[1] < 1e-3))

    def test_vectorized_over_trajectory(self):
        scen = make_scenario(sn_positions=[[50.0, 0.0], [0.0, 30.0],
                                           [80.0, 80.0]])
        q = np.stack([np.linspace(0, 100, 11), np.zeros(11)], axis=1)
        d2, v = slot_geometry(q, np.full(11, 100.0), scen)
        assert d2.shape == v.shape == (3, 10)
        # slot m sits at waypoint m, so waypoint 0 never enters
        assert d2[0].min() == pytest.approx(100.0 ** 2)
        assert d2[0, 4] == pytest.approx(100.0 ** 2)

    @pytest.mark.parametrize("score", ["predicted", "exact", "monte_carlo"])
    def test_rates_reject_slots_inside_reference_distance(self, score):
        # a hand-built plan flown at 0.5 m right over the node
        scen = make_scenario()
        plan = self.plan_over(scen, scen.sn_positions[0], 0.5,
                              n_slots=scen.n_slots)
        with pytest.raises(ValueError, match="1 m reference"):
            if score == "predicted":
                predicted_rates(plan.q, plan.z, scen, LOS_MODEL)
            elif score == "exact":
                exact_rates(plan.q, plan.z, scen)
            else:
                monte_carlo_outage(plan, scen, 10_000, 0,
                                   rates=np.ones((1, scen.n_slots)),
                                   owners=np.zeros(scen.n_slots, dtype=int))


class TestRicianFactor:
    def test_bounds_mapping(self):
        a1, a2 = channel.rician_coeffs_from_bounds(1.0, 1000.0)
        assert channel.rician_factor(0.0, a1, a2) == pytest.approx(1.0)
        assert channel.rician_factor(math.pi / 2, a1, a2) == pytest.approx(1000.0, rel=1e-12)
        # grows monotonically in elevation
        th = np.linspace(0, math.pi / 2, 40)
        k = channel.rician_factor(th, a1, a2)
        assert np.all(np.diff(k) > 0)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            channel.rician_factor(-0.1, 1.0, 1.0)
        with pytest.raises(ValueError):
            channel.rician_factor(1.7, 1.0, 1.0)
        with pytest.raises(ValueError):
            channel.rician_coeffs_from_bounds(5.0, 1.0)

    def test_equal_bounds_flat(self):
        a1, a2 = channel.rician_coeffs_from_bounds(10.0, 10.0)
        assert a2 == 0.0
        assert channel.rician_factor(0.7, a1, a2) == 10.0


class TestSampling:
    def test_moments(self):
        # E|g|^2 = 1 and E|g|^4 = (K^2+4K+2)/(K+1)^2 for the unit-power gain
        n = 2_000_000
        for k in (0.0, 3.0, 25.0):
            rng = channel.substream(1234, int(k))
            g = channel.sample_rician(k, rng, n)
            p = np.abs(g) ** 2
            m2, m4 = p.mean(), (p * p).mean()
            tol2 = 6 * math.sqrt((2 * k + 1)) / (k + 1) / math.sqrt(n)
            assert abs(m2 - 1.0) < tol2
            want4 = (k * k + 4 * k + 2) / (k + 1) ** 2
            tol4 = 6 * np.std(p * p) / math.sqrt(n)
            assert abs(m4 - want4) < tol4

    def test_deterministic_limit(self):
        g = channel.sample_rician(math.inf, channel.substream(9), 5)
        assert np.all(g == 1.0 + 0.0j)

    def test_substreams_are_order_independent(self):
        a1 = channel.substream(77, 3, 1).standard_normal(4)
        _ = channel.substream(77, 0, 0).standard_normal(1000)
        a2 = channel.substream(77, 3, 1).standard_normal(4)
        assert np.array_equal(a1, a2)
        b = channel.substream(77, 3, 2).standard_normal(4)
        assert not np.array_equal(a1, b)
        c = channel.substream(78, 3, 1).standard_normal(4)
        assert not np.array_equal(a1, c)


class TestRates:
    """``rate_from_gain`` is the one rate formula: outage rates feed it the
    effective fading power, Monte-Carlo feeds it the drawn |g|^2."""

    def test_outage_rate_formula(self):
        # f=1, gamma*d^-alpha = 3 -> log2(4) = 2
        got = channel.rate_from_gain(1.0, 3.0 * 10.0 ** 2, 10.0 ** 2, 2.0)
        assert got == pytest.approx(2.0)
        # scaling f by the SNR coefficient is equivalent to scaling gamma
        r1 = channel.rate_from_gain(0.25, 8.0e4, 50.0 ** 2, 2.0)
        r2 = channel.rate_from_gain(1.0, 0.25 * 8.0e4, 50.0 ** 2, 2.0)
        assert r1 == pytest.approx(r2)

    def test_outage_rate_monotone_in_f(self):
        fs = np.linspace(0.01, 1.0, 30)
        r = channel.rate_from_gain(fs, 1e5, 2 * 100.0 ** 2, 2.0)
        assert np.all(np.diff(r) > 0)

    def test_instantaneous_capacity(self):
        # per-block capacity of a drawn gain g is the same kernel at f=|g|^2
        scen = make_scenario(p_tx=0.1, beta0=1e-6, sigma2=1e-13, snr_gap=1.0)
        gamma = scen.snr_gamma_per_sn[0]
        got = channel.rate_from_gain(abs(1.0 + 0.0j) ** 2, gamma, 1.0, 2.0)
        assert got == pytest.approx(math.log2(1.0 + 1e6))
        g = np.array([math.sqrt(0.5), 1j * math.sqrt(0.5)])
        half = channel.rate_from_gain(np.abs(g) ** 2, gamma, 1.0, 2.0)
        assert half == pytest.approx(math.log2(1.0 + 5e5))
