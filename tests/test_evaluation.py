"""Exact re-scoring and Monte-Carlo outage verification.

Frozen reference values come from scipy.stats.ncx2 (the fading power of a
unit-mean Rician gain with factor K is noncentral chi-square with 2 degrees
of freedom and noncentrality 2K, scaled by 2(K+1)), composed with the rate
formula by hand — never from the code under test.
"""

import dataclasses
import math

import numpy as np
import pytest

from uavrice.channel import (Scenario, rate_from_gain, sample_rician,
                             substream)
from uavrice import evaluation as ev
from uavrice import planner, solvers
from uavrice.evaluation import (
    EvalReport,
    best_cruise_start,
    cruise_profile,
    evaluate_plan,
    exact_rates,
    monte_carlo_outage,
    owners_to_activity,
    run_scheme,
)
from uavrice.planner import (LOS_MODEL, Plan, initialize_plan,
                             max_min_rate, predicted_rates, round_schedule,
                             run_bcd)


@pytest.fixture(scope="module")
def fitted():
    # one surrogate fit shared by every scheme test (same channel bounds)
    return ev.fit_for_scenario(_scenario([[150.0, 0.0]]))


def _scenario(sn, m_slots=8, duration_s=8.0, q0=(0.0, 0.0),
              qf=(300.0, 0.0), z0=100.0, zf=100.0, vz=20.0,
              k_min=1.0, k_max=1000.0, epsilon=0.01):
    return Scenario(
        sn_positions=np.atleast_2d(np.asarray(sn, dtype=float)),
        q0=np.asarray(q0, dtype=float), qf=np.asarray(qf, dtype=float),
        z0=z0, zf=zf, duration_s=duration_s, n_slots=m_slots,
        vxy=50.0, vz=vz, h_min=100.0, p_tx=0.1, beta0=1e-6, alpha=2.0,
        sigma2=1.2589254117941663e-14, snr_gap=6.606934480075964,
        k_min=k_min, k_max=k_max, epsilon=epsilon)


def _exact_commitments(plan, scen):
    """Monte-Carlo keywords committing the exact outage rates on the
    plan's schedule rounded against them."""
    rates = exact_rates(plan.q, plan.z, scen)
    return {"rates": rates, "owners": round_schedule(plan.a, rates)}


def _hover(scen):
    """All waypoints parked on the (single) node at the floor altitude."""
    w = scen.sn_positions[0]
    m = scen.n_slots
    return Plan(q=np.tile(w, (m + 1, 1)), z=np.full(m + 1, scen.z0),
                a=np.ones((1, m)))


class TestExactRates:
    def test_hover_rate_matches_quantile_oracle(self):
        # directly over the node at z=100 the elevation is pi/2, so
        # K = k_max = 1000; ncx2.ppf(0.01, df=2, nc=2000)/2002 gives the
        # quantile and the rate follows from gamma/z^2 = 120.2264...
        scen = _scenario([[200.0, 0.0]], m_slots=4, duration_s=4.0,
                         q0=(200.0, 0.0), qf=(200.0, 0.0))
        hover = _hover(scen)
        rates = exact_rates(hover.q, hover.z, scen)
        assert rates.shape == (1, 4)
        assert rates == pytest.approx(6.768108235598043, rel=1e-9)

    def test_rate_approaches_clear_channel_as_k_grows(self):
        # ncx2 oracle: f = 0.96732 (K=1e4), 0.99671 (1e6), 0.99967 (1e8);
        # the clamp rule means the achieved rate climbs to the f=1 rate
        scen0 = _scenario([[200.0, 0.0]], m_slots=4, duration_s=4.0,
                          q0=(200.0, 0.0), qf=(200.0, 0.0))
        plan = _hover(scen0)
        los = rate_from_gain(1.0, scen0.snr_gamma_per_sn[0], 100.0 ** 2, 2.0)
        last = 0.0
        for k in (1e4, 1e6, 1e8):
            scen = dataclasses.replace(scen0, k_min=k, k_max=k)
            r = exact_rates(plan.q, plan.z, scen)[0, 0]
            assert last < r < los
            last = r
        assert los - last < 1e-3

    def test_raising_epsilon_never_lowers_rates(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            sn = rng.uniform(0.0, 300.0, (2, 2))
            scen = _scenario(sn)
            plan = initialize_plan(scen)
            plan.z = plan.z + rng.uniform(0.0, 15.0, plan.z.size)
            r_tight = exact_rates(plan.q, plan.z, scen)
            r_loose = exact_rates(
                plan.q, plan.z, dataclasses.replace(scen, epsilon=0.05))
            assert np.all(r_loose >= r_tight - 1e-12)

    def test_max_min_is_worst_scheduled_average(self):
        # two nodes, hand schedule: node 0 owns slots 0-1, node 1 slot 3
        scen = _scenario([[100.0, 0.0], [200.0, 50.0]], m_slots=4)
        plan = initialize_plan(scen)
        owners = np.array([0, 0, -1, 1])
        a = owners_to_activity(owners, 2)
        rates = exact_rates(plan.q, plan.z, scen)
        want = min(rates[0, [0, 1]].sum() / 4.0, rates[1, 3] / 4.0)
        assert max_min_rate(a, rates) == pytest.approx(want, rel=1e-12)


class TestMonteCarlo:
    def test_rayleigh_rate_hits_target_frequency(self):
        # K ~ 0 makes the fading power exponential, whose eps-quantile is
        # -log(1-eps) in closed form; committing that rate must produce
        # outage With frequency 0.01 on the nose
        scen = _scenario([[200.0, 0.0]], m_slots=4, duration_s=4.0,
                         q0=(200.0, 0.0), qf=(200.0, 0.0),
                         k_min=1e-12, k_max=1e-12)
        plan = _hover(scen)
        f = -math.log1p(-scen.epsilon)
        r = rate_from_gain(f, scen.snr_gamma_per_sn[0], 100.0 ** 2, 2.0)
        freq, samples = monte_carlo_outage(plan, scen, 100_000, 20240613,
                                           rates=np.full((1, 4), r),
                                           owners=np.zeros(4, dtype=int))
        assert np.all(samples == 200_000)
        assert freq == pytest.approx(0.01, abs=1e-3)

    def test_zero_rate_never_fails(self):
        scen = _scenario([[200.0, 0.0]], m_slots=4, duration_s=4.0,
                         q0=(200.0, 0.0), qf=(200.0, 0.0))
        freq, _ = monte_carlo_outage(_hover(scen), scen, 10_000, 3,
                                     rates=np.zeros((1, 4)),
                                     owners=np.zeros(4, dtype=int))
        assert np.all(freq == 0.0)

    def test_unreachable_rate_always_fails(self):
        # 2000 bps/Hz needs a power beyond the float range: the threshold is
        # inf, every block is in outage, and no overflow warning escapes
        scen = _scenario([[200.0, 0.0]], m_slots=4, duration_s=4.0,
                         q0=(200.0, 0.0), qf=(200.0, 0.0))
        freq, _ = monte_carlo_outage(_hover(scen), scen, 10_000, 3,
                                     rates=np.array([[0.0, 2000.0, 0.0,
                                                      2000.0]]),
                                     owners=np.zeros(4, dtype=int))
        assert np.array_equal(freq, [0.0, 1.0, 0.0, 1.0])

    def test_capacity_equal_to_rate_is_no_outage(self, monkeypatch):
        # hovering 1 m over the node with gamma = 3, every block of envelope
        # 1 has capacity log2(1 + 3) = 2 with no rounding; a committed rate
        # of exactly 2 is met, not missed, under either form of the test.
        # A pure line-of-sight channel (K = inf) draws envelope 1 exactly
        scen = dataclasses.replace(
            _scenario([[200.0, 0.0]], m_slots=4, duration_s=4.0,
                      q0=(200.0, 0.0), qf=(200.0, 0.0)),
            h_min=1.0, z0=1.0, zf=1.0, p_tx=3.0, beta0=1.0, sigma2=1.0,
            snr_gap=1.0)
        channel = ev._slot_channel

        def line_of_sight(q, z, scenario):
            d2, k = channel(q, z, scenario)
            return d2, np.full_like(k, math.inf)

        monkeypatch.setattr(ev, "_slot_channel", line_of_sight)
        plan = _hover(scen)
        assert np.all(line_of_sight(plan.q, plan.z, scen)[0] == 1.0)
        rates = np.array([[1.99, 2.0, 2.0, 2.01]])
        freq, _ = monte_carlo_outage(plan, scen, 10_000, 0, rates=rates,
                                     owners=np.zeros(4, dtype=int))
        assert np.array_equal(freq, [0.0, 0.0, 0.0, 1.0])
        cap = rate_from_gain(1.0, scen.snr_gamma_per_sn[0], 1.0, 2.0)
        assert cap == 2.0
        assert np.array_equal(cap < rates[0], freq == 1.0)

    def test_exact_rates_calibrate_per_slot(self):
        # at the exact quantile rates every slot is a Bernoulli(eps)
        # counter; 16 slots x 40k blocks stays within 3 sigma
        scen = _scenario([[150.0, 0.0]], m_slots=16, duration_s=16.0)
        plan = initialize_plan(scen)
        freq, samples = monte_carlo_outage(plan, scen, 20_000, 20240613,
                                           **_exact_commitments(plan, scen))
        sigma = np.sqrt(scen.epsilon * (1 - scen.epsilon) / samples)
        z = np.abs(freq - scen.epsilon) / sigma
        assert z.max() < 3.0     # observed 2.46 for this seed

    def test_needs_enough_trials(self):
        scen = _scenario([[150.0, 0.0]])
        with pytest.raises(ValueError, match="trials"):
            plan = initialize_plan(scen)
            monte_carlo_outage(plan, scen, 5_000, 0,
                               **_exact_commitments(plan, scen))

    @staticmethod
    def _three_node_check():
        # three nodes along the corridor, five of eight slots scheduled
        scen = _scenario([[60.0, 0.0], [150.0, 40.0], [260.0, -30.0]])
        plan = initialize_plan(scen)
        owners = np.array([0, -1, 0, 1, -1, 2, -1, 2])
        return scen, plan, owners, exact_rates(plan.q, plan.z, scen)

    @staticmethod
    def _reference(plan, scen, owners, rates, trials, seed):
        """Frequencies and sample counts slot by slot, each block's capacity
        from ``rate_from_gain`` on the drawn |g|^2 against the rate."""
        d2, k = ev._slot_channel(plan.q, plan.z, scen)
        gamma = scen.snr_gamma_per_sn
        freq = np.zeros(scen.n_slots)
        samples = np.zeros(scen.n_slots, dtype=np.int64)
        for m, n in enumerate(owners):
            if n < 0:
                continue
            g = sample_rician(float(k[n, m]), substream(seed, m),
                              size=(trials, scen.n_blocks))
            cap = rate_from_gain(np.abs(g) ** 2, gamma[n], d2[n, m],
                                 scen.alpha)
            samples[m] = trials * scen.n_blocks
            freq[m] = np.count_nonzero(cap < rates[n, m]) / samples[m]
        return freq, samples

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pool_matches_serial_loop(self, seed, monkeypatch):
        scen, plan, owners, rates = self._three_node_check()
        trials = 10_000
        want_freq, want_samples = self._reference(plan, scen, owners, rates,
                                                  trials, seed)
        assert np.count_nonzero(want_freq) >= 3    # the counts are not all 0
        # the usable CPUs as they are, then pools of one and of five workers
        for cpus in (None, {0}, set(range(5))):
            if cpus is not None:
                monkeypatch.setattr(ev.os, "sched_getaffinity",
                                    lambda pid, cpus=cpus: cpus)
            freq, samples = monte_carlo_outage(plan, scen, trials, seed,
                                               rates=rates, owners=owners)
            assert freq.tobytes() == want_freq.tobytes()
            assert np.array_equal(samples, want_samples)

    def test_threshold_counts_match_rate_reference(self):
        # the envelope threshold must count exactly the blocks whose
        # capacity misses the rate: 8 seeds x 24 slots, rates spread from
        # 0.6x to 1.4x the exact ones so frequencies run from 0 to near 1
        scen = _scenario([[60.0, 0.0], [150.0, 40.0], [260.0, -30.0]],
                         m_slots=24, duration_s=24.0)
        plan = initialize_plan(scen)
        owners = np.arange(scen.n_slots) % scen.n_sn
        rng = np.random.default_rng(5)
        rates = (exact_rates(plan.q, plan.z, scen)
                 * rng.uniform(0.6, 1.4, (scen.n_sn, scen.n_slots)))
        spread = []
        for seed in range(8):
            want, _ = self._reference(plan, scen, owners, rates, 10_000,
                                      seed)
            freq, _ = monte_carlo_outage(plan, scen, 10_000, seed,
                                         rates=rates, owners=owners)
            assert freq.tobytes() == want.tobytes()
            spread.extend(want)
        assert min(spread) == 0.0 and max(spread) > 0.5

    def test_pool_rejects_slot_inside_reference_distance(self):
        scen, plan, owners, rates = self._three_node_check()
        plan.q[3] = scen.sn_positions[1]
        plan.z[3] = 0.5
        with pytest.raises(ValueError, match="1 m reference"):
            monte_carlo_outage(plan, scen, 10_000, 0, rates=rates,
                               owners=owners)

    @pytest.mark.parametrize("field, bad", [
        pytest.param("owners", np.zeros(9, dtype=int), id="owners-too-long"),
        pytest.param("owners", np.zeros(7, dtype=int), id="owners-too-short"),
        pytest.param("owners", np.zeros((8, 1), dtype=int), id="owners-2d"),
        pytest.param("owners", np.array([0, -2, 0, 1, -1, 2, -1, 2]),
                     id="owners-below-idle"),
        pytest.param("owners", np.array([0, -1, 0, 3, -1, 2, -1, 2]),
                     id="owners-node-n"),
        pytest.param("owners", np.zeros(8), id="owners-float"),
        pytest.param("rates", np.ones(8), id="rates-1d"),
        pytest.param("rates", np.ones((3, 9)), id="rates-wrong-slots"),
        pytest.param("rates", np.full((3, 8), np.nan), id="rates-all-nan"),
        pytest.param("rates", np.full((3, 8), np.inf), id="rates-inf"),
        pytest.param("rates", np.full((3, 8), -0.5), id="rates-negative"),
    ])
    def test_rejects_bad_inputs(self, field, bad):
        scen, plan, owners, rates = self._three_node_check()
        args = {"owners": owners, "rates": rates, field: bad}
        with pytest.raises(ValueError, match=field):
            monte_carlo_outage(plan, scen, 10_000, 0, **args)

    def test_frequency_scatter_shrinks_like_binomial(self):
        # quadrupling the trial count should halve the seed-to-seed spread
        scen = _scenario([[150.0, 0.0]], m_slots=4)
        plan = initialize_plan(scen)
        lo, hi = [], []
        commit = _exact_commitments(plan, scen)
        for seed in range(20):
            f1, _ = monte_carlo_outage(plan, scen, 10_000, seed, **commit)
            f4, _ = monte_carlo_outage(plan, scen, 40_000, seed, **commit)
            lo.append(f1[2])
            hi.append(f4[2])
        ratio = np.std(lo, ddof=1) / np.std(hi, ddof=1)
        assert 1.3 < ratio < 3.0    # observed 1.73 across these 20 seeds


class TestEvalReport:
    def test_committed_schedule_and_objectives(self, monkeypatch):
        scen = _scenario([[100.0, 0.0], [250.0, 0.0]])
        monkeypatch.setattr(planner, "BCD_MAX_ITERS", 5)
        plan, _ = run_bcd(scen, LOS_MODEL)
        rep = evaluate_plan(plan, scen, LOS_MODEL, scheme="lb",
                            trials=10_000, simulate=False)
        m = scen.n_slots
        assert rep.owners.shape == (m,)
        idle = rep.owners < 0
        assert np.all(rep.outage_samples[idle] == 0)
        assert np.all(rep.rates_est[~idle] > 0)
        # recompute both objectives from the committed schedule by hand
        a = owners_to_activity(rep.owners, scen.n_sn)
        want_est = max_min_rate(a, predicted_rates(plan.q, plan.z, scen,
                                                   LOS_MODEL))
        want_ach = max_min_rate(a, exact_rates(plan.q, plan.z, scen))
        assert rep.eta_estimated == pytest.approx(want_est, rel=1e-12)
        assert rep.eta_achieved == pytest.approx(want_ach, rel=1e-12)
        assert rep.model_gap == pytest.approx(want_est - want_ach, rel=1e-9)

    def test_rejects_out_of_range_frequencies(self):
        with pytest.raises(ValueError, match="outage"):
            EvalReport(scheme="rfb", seed=0, trials=10_000, n_blocks=2,
                       owners=np.array([0]), rates_est=np.array([1.0]),
                       rates_exact=np.array([1.0]), eta_estimated=1.0,
                       eta_achieved=1.0, outage_freq=np.array([1.5]),
                       outage_samples=np.array([10]))

    def test_rejects_mismatched_slot_arrays(self):
        with pytest.raises(ValueError, match="per slot"):
            EvalReport(scheme="rfb", seed=0, trials=10_000, n_blocks=2,
                       owners=np.array([0, 1]), rates_est=np.array([1.0]),
                       rates_exact=np.array([1.0, 2.0]), eta_estimated=1.0,
                       eta_achieved=1.0, outage_freq=np.zeros(2),
                       outage_samples=np.zeros(2, dtype=int))


class TestCruiseProfile:
    def test_holds_level_and_pins_endpoints(self):
        scen = _scenario([[150.0, 0.0]], m_slots=8, vz=20.0)
        z = cruise_profile(scen, 140.0)
        # climb at 20 m/slot, hold 140, descend in time for the exit
        assert np.allclose(z, [100, 120, 140, 140, 140, 140, 140, 120, 100])

    def test_unreachable_level_degrades_to_tent(self):
        scen = _scenario([[150.0, 0.0]], m_slots=8, vz=20.0)
        z = cruise_profile(scen, 1000.0)
        assert np.allclose(z, [100, 120, 140, 160, 180, 160, 140, 120, 100])

    def test_floor_violation_rejected(self):
        scen = _scenario([[150.0, 0.0]])
        with pytest.raises(ValueError, match="floor"):
            cruise_profile(scen, 50.0)

    def test_respects_climb_rate_everywhere(self):
        rng = np.random.default_rng(5)
        scen = _scenario([[150.0, 0.0]], m_slots=12, duration_s=12.0,
                         z0=130.0, zf=100.0)
        for _ in range(25):
            h = rng.uniform(100.0, 400.0)
            z = cruise_profile(scen, h)
            assert z[0] == scen.z0 and z[-1] == scen.zf
            assert np.abs(np.diff(z)).max() <= scen.sz + 1e-12
            assert z.min() >= scen.h_min - 1e-12


class TestRunScheme:
    def test_floor_schemes_stay_on_the_floor(self, fitted):
        scen = _scenario([[150.0, 0.0]])
        for scheme in ("lb", "rfla"):
            plan, rep = run_scheme(scheme, scen, fitted, trials=10_000,
                                   simulate=False)
            assert np.all(plan.z == 100.0)
            assert rep.scheme == scheme

    def test_lb_estimates_with_clear_channel(self, fitted):
        scen = _scenario([[150.0, 0.0]])
        plan, rep = run_scheme("lb", scen, fitted, trials=10_000,
                               simulate=False)
        a = owners_to_activity(rep.owners, 1)
        clear = predicted_rates(plan.q, plan.z, scen, LOS_MODEL)
        assert rep.eta_estimated == pytest.approx(
            max_min_rate(a, clear), rel=1e-12)
        # the clear-channel promise always overshoots the exact rate
        assert rep.eta_achieved < rep.eta_estimated

    def test_fixed_altitude_sweep_picks_best_achieved(self, fitted,
                                                      monkeypatch):
        scen = _scenario([[150.0, 0.0]], m_slots=10, duration_s=10.0)
        monkeypatch.setattr(ev, "DEFAULT_ALTITUDES", (100.0, 150.0, 200.0))
        plan, rep = run_scheme("rffsa", scen, fitted, trials=10_000,
                               simulate=False)
        sweep = rep.extras["altitude_sweep"]
        assert [h for h, _ in sweep] == [100.0, 150.0, 200.0]
        assert rep.eta_achieved == pytest.approx(max(e for _, e in sweep))
        assert np.allclose(
            plan.z, cruise_profile(scen, rep.extras["altitude"]))

    def test_sweep_counts_every_failed_solve(self, fitted, monkeypatch):
        # a 3-step cap makes most interior-point solves stop short; the
        # report must count them over the whole altitude sweep
        failed = []
        solve = planner.maximize_concave_program

        def capped(c, rows, start):
            rep = solve(c, rows, start)
            failed.append(rep.status != "optimal")
            return rep

        monkeypatch.setattr(solvers, "MAX_NEWTON_STEPS", 3)
        monkeypatch.setattr(planner, "maximize_concave_program", capped)
        monkeypatch.setattr(ev, "DEFAULT_ALTITUDES", (100.0, 150.0, 200.0))
        scen = _scenario([[150.0, 0.0]], m_slots=10, duration_s=10.0)
        _, rep = run_scheme("rffsa", scen, fitted, simulate=False)
        counts = rep.extras["ipm_not_optimal"]
        assert sum(failed) > 0
        assert counts == {"horizontal": sum(failed), "vertical": 0}

    def test_sweep_dominates_floor_variant(self, fitted, monkeypatch):
        scen = _scenario([[150.0, 0.0]], m_slots=10, duration_s=10.0)
        monkeypatch.setattr(ev, "DEFAULT_ALTITUDES", (100.0, 150.0, 200.0))
        _, fixed = run_scheme("rffsa", scen, fitted, trials=10_000,
                              simulate=False)
        _, floor = run_scheme("rfla", scen, fitted, trials=10_000,
                              simulate=False)
        assert fixed.eta_achieved >= floor.eta_achieved - 1e-9

    def test_free_altitude_beats_fixed_floor(self, fitted):
        # dominance is guaranteed on the surrogate objective the planners
        # optimize; the exact re-scoring may reorder near-ties, so it only
        # gets a loose relative bound
        scen = _scenario([[150.0, 0.0]], m_slots=10, duration_s=10.0)
        _, free = run_scheme("rfb", scen, fitted, trials=10_000,
                             simulate=False)
        _, floor = run_scheme("rfla", scen, fitted, trials=10_000,
                              simulate=False)
        assert free.eta_estimated >= floor.eta_estimated - 1e-9
        assert free.eta_achieved >= floor.eta_achieved * (1.0 - 1e-3)
        assert free.extras["trace"] == sorted(free.extras["trace"])

    def test_unknown_scheme_rejected(self):
        scen = _scenario([[150.0, 0.0]])
        with pytest.raises(ValueError, match="scheme"):
            run_scheme("greedy", scen)

    def test_cruise_scan_prefers_altitude_when_model_does(self, fitted,
                                                          monkeypatch):
        # far-off node: the surrogate gains far more from elevation than it
        # loses to pathloss, so the scan must not pick the floor
        scen = _scenario([[150.0, 400.0]], m_slots=10, duration_s=10.0)
        monkeypatch.setattr(ev, "DEFAULT_ALTITUDES", (100.0, 200.0, 300.0))
        start = best_cruise_start(scen, fitted)
        assert start.z.max() > 100.0
