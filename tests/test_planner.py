"""Planner blocks: tangent bounds, scheduling, rounding, and the outer loop.

The tangent-bound suites are the load-bearing part: they verify by finite
differences and midpoint sampling that the expansion coefficients really do
produce global lower bounds on the rate, which is the property the whole
alternating scheme leans on.
"""

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uavrice.channel import Scenario, rate_from_gain
from uavrice import evaluation
from uavrice.evaluation import fit_for_scenario, run_scheme
from uavrice.fading import LogisticModel
from uavrice.files import bundled_scenario, load_scenario
from uavrice import planner, solvers
from uavrice.planner import (
    LOS_MODEL,
    Plan,
    check_plan,
    initialize_plan,
    max_min_rate,
    predicted_rates,
    round_schedule,
    run_bcd,
    solve_horizontal,
    solve_scheduling,
    solve_vertical,
    tangent_coefficients,
)

FIT = LogisticModel(b1=-4.3221, b2=6.0750, c1=0.0, c2=1.0)


def _scenario(sn, m_slots=8, duration_s=8.0, q0=(0.0, 0.0),
              qf=(300.0, 0.0), vxy=50.0, vz=20.0, z0=100.0, zf=100.0):
    return Scenario(
        sn_positions=np.atleast_2d(np.asarray(sn, dtype=float)),
        q0=np.asarray(q0, dtype=float), qf=np.asarray(qf, dtype=float),
        z0=z0, zf=zf, duration_s=duration_s, n_slots=m_slots,
        vxy=vxy, vz=vz, h_min=100.0, p_tx=0.1, beta0=1e-6, alpha=2.0,
        sigma2=1.2589254117941663e-14, snr_gap=6.606934480075964,
        k_min=1.0, k_max=1000.0, epsilon=0.01)


def _rate_uy(u, y, gamma, model, alpha):
    # rate as a function of the gain variable u = exp(-s) and the squared
    # 3D distance y; the tangent coefficients expand exactly this surface
    lin = model.c1 * (1.0 + u) + model.c2
    return np.log2(1.0 + gamma * lin / ((1.0 + u) * y ** (alpha / 2.0)))


def _assert_feasible(plan, scen):
    assert np.allclose(plan.q[0], scen.q0) and np.allclose(plan.q[-1], scen.qf)
    assert plan.z[0] == pytest.approx(scen.z0)
    assert plan.z[-1] == pytest.approx(scen.zf)
    seg = np.linalg.norm(np.diff(plan.q, axis=0), axis=1)
    assert seg.max() <= scen.sxy + 1e-6
    assert np.abs(np.diff(plan.z)).max() <= scen.sz + 1e-6
    assert plan.z.min() >= scen.h_min - 1e-6
    assert plan.a.min() >= -1e-9
    assert plan.a.sum(axis=0).max() <= 1.0 + 1e-9


class TestTangentCoefficients:
    def test_rate_value_matches_channel_formula(self):
        # r_hat must agree with the channel-module rate at the same point
        rng = np.random.default_rng(7)
        for _ in range(200):
            d2q = rng.uniform(1.0, 1e6)
            z = rng.uniform(100.0, 400.0)
            gamma = 10.0 ** rng.uniform(4.0, 7.0)
            coef = tangent_coefficients(d2q, z, gamma, FIT, 2.0)
            y = d2q + z * z
            f = FIT.predict(z / math.sqrt(y))
            want = rate_from_gain(f, gamma, y, 2.0)
            assert coef.r_hat == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("model", [FIT, LOS_MODEL], ids=["fit", "los"])
    def test_rate_value_is_the_planner_rate(self, model):
        # r_hat goes through the one rate kernel, so at the planner's own
        # geometry it equals predicted_rates bit for bit
        scen = load_scenario(bundled_scenario("scenario_4sn.json"))
        plan = initialize_plan(scen)
        z = plan.z + 37.0
        diff = plan.q[None, 1:, :] - scen.sn_positions[:, None, :]
        coef = tangent_coefficients(
            np.einsum("nmk,nmk->nm", diff, diff), z[None, 1:],
            scen.snr_gamma_per_sn[:, None], model, scen.alpha)
        assert np.array_equal(coef.r_hat,
                              predicted_rates(plan.q, z, scen, model))

    def test_sensitivities_match_finite_differences(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            d2q = rng.uniform(10.0, 1e6)
            z = rng.uniform(100.0, 400.0)
            gamma = 10.0 ** rng.uniform(4.0, 7.0)
            alpha = rng.choice([2.0, 2.4, 3.0])
            c1 = rng.uniform(0.0, 1.0)
            model = LogisticModel(b1=-4.0, b2=5.0, c1=c1, c2=1.0 - c1)
            coef = tangent_coefficients(d2q, z, gamma, model, alpha)
            u0 = math.exp(-coef.s_hat)
            y0 = coef.y
            # complex-step derivatives: immune to subtractive cancellation,
            # which matters because phi spans ten orders of magnitude
            h = 1e-20
            dru = np.imag(_rate_uy(u0 + 1j * h, y0, gamma, model, alpha)) / h
            dry = np.imag(_rate_uy(u0, y0 + 1j * h, gamma, model, alpha)) / h
            assert -dru == pytest.approx(coef.phi, rel=1e-9, abs=1e-300)
            assert -dry == pytest.approx(coef.psi, rel=1e-9)
            # v tangent slope: derivative of z / sqrt(d2 + z^2) in d2
            dv = np.imag(z / np.sqrt(d2q + 1j * h + z * z)) / h
            assert -dv == pytest.approx(coef.lam, rel=1e-9)

    def test_rate_is_midpoint_convex_in_u_and_y(self):
        # convexity in (u, y) is what turns the tangent into a lower bound
        rng = np.random.default_rng(9)
        for _ in range(2000):
            gamma = 10.0 ** rng.uniform(4.0, 7.0)
            alpha = rng.choice([2.0, 2.4, 3.0])
            c1 = rng.uniform(0.0, 1.0)
            model = LogisticModel(b1=-4.0, b2=5.0, c1=c1, c2=1.0 - c1)
            u1, u2 = rng.uniform(0.0, 60.0, size=2)
            y1, y2 = 10.0 ** rng.uniform(2.0, 6.0, size=2)
            mid = _rate_uy(0.5 * (u1 + u2), 0.5 * (y1 + y2),
                           gamma, model, alpha)
            avg = 0.5 * (_rate_uy(u1, y1, gamma, model, alpha)
                         + _rate_uy(u2, y2, gamma, model, alpha))
            assert mid <= avg + 1e-12

    def test_tangent_is_global_lower_bound(self):
        rng = np.random.default_rng(10)
        for _ in range(2000):
            gamma = 10.0 ** rng.uniform(4.0, 7.0)
            alpha = rng.choice([2.0, 2.4, 3.0])
            c1 = rng.uniform(0.0, 1.0)
            model = LogisticModel(b1=-4.0, b2=5.0, c1=c1, c2=1.0 - c1)
            d2q = rng.uniform(10.0, 1e6)
            z = rng.uniform(100.0, 400.0)
            coef = tangent_coefficients(d2q, z, gamma, model, alpha)
            u0 = math.exp(-coef.s_hat)
            u = rng.uniform(0.0, 60.0)
            y = 10.0 ** rng.uniform(2.0, 6.0)
            bound = coef.r_hat - coef.phi * (u - u0) - coef.psi * (y - coef.y)
            true = _rate_uy(u, y, gamma, model, alpha)
            assert bound <= true + 1e-9
        # and equality at the expansion point itself
        coef = tangent_coefficients(4.0e4, 150.0, 1.2e6, FIT, 2.0)
        u0 = math.exp(-coef.s_hat)
        assert coef.r_hat == pytest.approx(
            _rate_uy(u0, coef.y, 1.2e6, FIT, 2.0), rel=1e-12)

    def test_full_horizontal_surrogate_under_true_rate(self):
        # chain the v tangent and the rate tangent the way the horizontal
        # block does: the composite must sit below the true rate everywhere
        rng = np.random.default_rng(11)
        z = 150.0
        gamma = 1.2e6
        for _ in range(2000):
            d2_hat = rng.uniform(100.0, 4e5)
            d2_new = rng.uniform(100.0, 4e5)
            coef = tangent_coefficients(d2_hat, z, gamma, FIT, 2.0)
            u0 = math.exp(-coef.s_hat)
            s_new = FIT.b1 + FIT.b2 * (
                coef.v_hat - coef.lam * (d2_new - d2_hat))
            u_new = math.exp(-s_new)
            y_new = d2_new + z * z
            bound = (coef.r_hat - coef.phi * (u_new - u0)
                     - coef.psi * (y_new - coef.y))
            v_true = z / math.sqrt(y_new)
            true = rate_from_gain(FIT.predict(v_true), gamma, y_new, 2.0)
            assert bound <= true + 1e-9

    def test_vertical_surrogate_under_true_rate(self):
        # vertical block keeps the exact concave cap s <= b1 + b2 * v(z),
        # so the composite bound at any altitude is the rate tangent
        # evaluated at the true v
        rng = np.random.default_rng(12)
        gamma = 1.2e6
        for _ in range(2000):
            d2 = rng.uniform(100.0, 4e5)
            z_hat = rng.uniform(100.0, 350.0)
            z_new = rng.uniform(100.0, 350.0)
            coef = tangent_coefficients(d2, z_hat, gamma, FIT, 2.0)
            u0 = math.exp(-coef.s_hat)
            y_new = d2 + z_new * z_new
            v_new = z_new / math.sqrt(y_new)
            u_new = math.exp(-(FIT.b1 + FIT.b2 * v_new))
            bound = (coef.r_hat - coef.phi * (u_new - u0)
                     - coef.psi * (y_new - coef.y))
            true = rate_from_gain(FIT.predict(v_new), gamma, y_new, 2.0)
            assert bound <= true + 1e-9


class TestScheduling:
    def test_hand_solved_two_nodes(self):
        # node 0 only earns in slot 1, node 1 only in slot 2; giving each
        # node its own slot yields averages (1.0, 0.5), so eta* = 0.5
        rates = np.array([[2.0, 0.0], [0.0, 1.0]])
        a, eta, *_ = solve_scheduling(rates)
        assert eta == pytest.approx(0.5, abs=1e-9)
        assert a[0, 0] == pytest.approx(1.0, abs=1e-8)
        assert a[1, 1] == pytest.approx(1.0, abs=1e-8)

    def test_saturates_every_slot(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            rates = rng.uniform(0.1, 5.0, size=(4, 12))
            a, eta, *_ = solve_scheduling(rates)
            assert np.allclose(a.sum(axis=0), 1.0, atol=1e-9)
            totals = np.einsum("nm,nm->n", a, rates)
            assert eta == pytest.approx(totals.min() / 12, abs=1e-12)

    def test_bcd_schedules_saturate_every_slot(self, monkeypatch):
        # no repair pass follows the LP: the simplex vertex itself must
        # fill every slot of every schedule the outer loop sees
        schedules = []

        def recording(rates, start=None):
            out = solve_scheduling(rates, start)
            schedules.append(out[0])
            return out

        monkeypatch.setattr(planner, "solve_scheduling", recording)
        scen = _scenario([[260.0, 310.0], [700.0, 620.0], [150.0, -40.0]],
                         m_slots=10, duration_s=10.0)
        monkeypatch.setattr(planner, "BCD_MAX_ITERS", 4)
        run_bcd(scen, FIT)
        assert schedules
        for a in schedules:
            np.testing.assert_allclose(a.sum(axis=0), 1.0, rtol=0.0,
                                       atol=1e-9)

    def test_zero_rate_slot_stays_idle(self):
        # a slot no node can use adds nothing to any average, so the LP
        # leaves it empty and rounding marks it idle (-1); the other slots
        # still fill and eta is the hand-solved 0.75 (slot 3 split 1:3)
        rates = np.array([[2.0, 0.0, 1.0], [1.0, 0.0, 3.0]])
        a, eta, *_ = solve_scheduling(rates)
        assert eta == pytest.approx(0.75, abs=1e-9)
        np.testing.assert_allclose(a[:, [0, 2]].sum(axis=0), 1.0, atol=1e-9)
        assert np.all(a[:, 1] == 0.0)
        assert round_schedule(a, rates).tolist() == [0, -1, 1]

    def test_unreachable_node_leaves_the_others_scheduled(self):
        # node 1 earns nothing anywhere, so eta is 0; node 0 still gets
        # slot 0, and slot 1 (no rate at all) stays idle
        a, eta, *_ = solve_scheduling([[1.0, 0.0], [0.0, 0.0]])
        assert eta == 0.0
        np.testing.assert_array_equal(a, [[1.0, 0.0], [0.0, 0.0]])
        # with a third node the reachable pair keeps its own max-min split
        # (the hand-solved 1:3 share of slot 2 above)
        a, eta, *_ = solve_scheduling([[2.0, 0.0, 1.0], [1.0, 0.0, 3.0],
                                   [0.0, 0.0, 0.0]])
        assert eta == 0.0
        np.testing.assert_allclose(a, [[1.0, 0.0, 0.25], [0.0, 0.0, 0.75],
                                       [0.0, 0.0, 0.0]], atol=1e-15)

    @pytest.mark.parametrize("rates, text", [
        ([1.0, 2.0], "2-D"), (np.zeros((2, 0)), "empty"),
        ([[1.0, np.nan]], "non-finite"), ([[1.0, -2.0]], "negative")])
    def test_rejects_bad_rates(self, rates, text):
        with pytest.raises(ValueError, match=text):
            solve_scheduling(rates)

    def test_uncertified_schedule_raises(self, monkeypatch):
        # a schedule whose certificate fails never reaches the outer loop
        honest = solvers._max_min

        def idle(r, start, taus):
            sched = honest(r, start, taus)
            sched.a = sched.a * 0.5
            return sched

        monkeypatch.setattr(solvers, "_max_min", idle)
        with pytest.raises(RuntimeError, match="certificate failed"):
            solve_scheduling([[2.0, 0.0], [0.0, 1.0]])

    def test_beats_uniform_split(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            rates = rng.uniform(0.0, 3.0, size=(3, 9))
            _, eta, *_ = solve_scheduling(rates)
            uniform = (rates.mean(axis=1) / 3).min()
            assert eta >= uniform - 1e-9


def _round_schedule_loop(a, rates):
    # reference: the per-slot generator loop round_schedule replaced; the
    # array code must pick the same owner on every move
    a = np.asarray(a, dtype=float)
    rates = np.asarray(rates, dtype=float)
    n_sn, m_slots = a.shape
    sn = np.full(m_slots, -1, dtype=np.int64)
    active = a.max(axis=0) > 1e-9
    sn[active] = np.argmax(a[:, active], axis=0)

    def averages(assign):
        avg = np.zeros(n_sn)
        for n in range(n_sn):
            avg[n] = rates[n, assign == n].sum() / m_slots
        return avg

    avg = averages(sn)
    for _ in range(n_sn * m_slots):
        n_star = int(np.argmin(avg))
        best_gain = 0.0
        best_m = -1
        for m in range(m_slots):
            donor = sn[m]
            if donor == n_star:
                continue
            trial_min = min(
                avg[n] + (rates[n_star, m] / m_slots if n == n_star else 0.0)
                - (rates[donor, m] / m_slots if n == donor else 0.0)
                for n in range(n_sn))
            gain = trial_min - avg.min()
            if gain > best_gain + 1e-15:
                best_gain = gain
                best_m = m
        if best_m < 0:
            break
        donor = sn[best_m]
        sn[best_m] = n_star
        avg[n_star] += rates[n_star, best_m] / m_slots
        if donor >= 0:
            avg[donor] -= rates[donor, best_m] / m_slots
    return sn


class TestRounding:
    def test_argmax_and_inactive_slots(self):
        a = np.array([[0.9, 0.0], [0.1, 0.0]])
        rates = np.ones((2, 2))
        sn = round_schedule(a, rates)
        assert sn[0] == 0
        # the zero column starts unassigned; repair may still claim it
        # because an empty slot donates for free
        assert sn[1] in (-1, 1)

    def test_tie_prefers_lowest_index_then_repairs(self):
        a = np.full((2, 2), 0.5)
        rates = np.ones((2, 2))
        sn = round_schedule(a, rates)
        # argmax ties both slots to node 0; repair hands one to node 1
        assert sorted(sn.tolist()) == [0, 1]

    def test_matches_the_slot_loop_reference(self):
        # 2,400 seeded cases: 1-4 nodes, 1-24 slots, tied activities and
        # rates, all-zero activity columns and zero rates
        rng = np.random.default_rng(21)
        for case in range(2400):
            n_sn, m_slots = rng.integers(1, 5), rng.integers(1, 25)
            a = rng.uniform(size=(n_sn, m_slots))
            rates = rng.uniform(0.0, 3.0, size=(n_sn, m_slots))
            if case % 3 == 0:
                a = rng.integers(0, 3, size=a.shape) / 2.0
                rates = rng.integers(0, 3, size=rates.shape).astype(float)
            a[:, rng.uniform(size=m_slots) < 0.2] = 0.0
            rates[rng.uniform(size=rates.shape) < 0.2] = 0.0
            np.testing.assert_array_equal(
                round_schedule(a, rates), _round_schedule_loop(a, rates))

    def test_repair_never_hurts_the_min_average(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            rates = rng.uniform(0.0, 4.0, size=(3, 15))
            a, *_ = solve_scheduling(rates)
            sn = round_schedule(a, rates)
            raw = np.argmax(a, axis=0)

            def min_avg(assign):
                return min(rates[n, assign == n].sum() / 15 for n in range(3))

            assert min_avg(sn) >= min_avg(raw) - 1e-12
            # and rounding can never beat the fractional relaxation
            _, eta_frac, *_ = solve_scheduling(rates)
            assert min_avg(sn) <= eta_frac + 1e-9


def _built_step(block, model, bent=False):
    """A built (not solved) three-node trajectory step on the straight
    initial path with its scheduled activities: (scenario, plan, step).
    ``bent`` first moves the path off the straight line by one horizontal
    and one vertical solve, so neither block's incumbent is its target."""
    scen = _scenario([[260.0, 310.0], [700.0, 620.0], [150.0, -40.0]],
                     m_slots=10, duration_s=10.0)
    plan = initialize_plan(scen)
    plan.a, *_ = solve_scheduling(
        predicted_rates(plan.q, plan.z, scen, model))
    if bent:
        plan.q = solve_horizontal(plan, scen, model, reports=[])
        plan.z = solve_vertical(plan, scen, model, reports=[])
    data = (planner._horizontal_block if block == "horizontal"
            else planner._vertical_block)(plan, scen)
    return scen, plan, planner.build_trajectory_step(plan, scen, model,
                                                     **data)


def _tie_layout(objective, n_sn):
    """(t columns, eta column, tie rows) of a built step's ``objective`` by
    the builder's layout: the waypoint columns, then one t_n per node when
    N >= 2, and eta last; the rows run rate, tie (N >= 2), moves, floor."""
    eta = objective.size - 1
    n_t = n_sn if n_sn > 1 else 0
    return eta - n_t + np.arange(n_t), eta, n_sn + np.arange(n_t)


@pytest.fixture(scope="module", params=["scenario_1sn.json",
                                        "scenario_4sn.json"])
def built_steps(request):
    """Every trajectory step the four schemes build on a bundled scenario,
    the report of each step's solve, and each scheme's per-block count of
    solves that did not end "optimal"."""
    scen = load_scenario(bundled_scenario(request.param))
    model = fit_for_scenario(scen)
    out = {"steps": [], "reports": [], "not_optimal": {}}
    build = planner.build_trajectory_step
    solve = planner.maximize_concave_program

    def spy_build(*args, **kw):
        out["steps"].append(build(*args, **kw))
        return out["steps"][-1]

    def spy_solve(*args, **kw):
        out["reports"].append(solve(*args, **kw))
        return out["reports"][-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(planner, "build_trajectory_step", spy_build)
        patch.setattr(planner, "maximize_concave_program", spy_solve)
        for scheme in ("lb", "rfla", "rffsa", "rfb"):
            _, rep = run_scheme(scheme, scen, model, simulate=False)
            out["not_optimal"][scheme] = rep.extras["ipm_not_optimal"]
    assert out["steps"] and None not in out["steps"]
    return out


class TestTrajectoryBlocks:
    def test_horizontal_block_improves_single_node(self):
        scen = _scenario([[300.0, 200.0]])
        plan = initialize_plan(scen)
        plan.a, *_ = solve_scheduling(
            predicted_rates(plan.q, plan.z, scen, FIT))
        before = max_min_rate(plan.a,
                              predicted_rates(plan.q, plan.z, scen, FIT))
        reports = []
        q_new = solve_horizontal(plan, scen, FIT, reports=reports)
        assert q_new is not None
        # the first solve from the straight line ends optimal, well inside
        # the step cap
        (rep,) = reports
        assert rep.status == "optimal"
        after = max_min_rate(plan.a,
                             predicted_rates(q_new, plan.z, scen, FIT))
        assert after > before
        # the path must bend toward the node (it starts on y = 0)
        assert q_new[:, 1].max() > plan.q[:, 1].max() + 1.0

    @pytest.mark.parametrize("model", [FIT, LOS_MODEL], ids=["fit", "los"])
    @pytest.mark.parametrize("block, bent", [
        pytest.param("horizontal", False, id="horizontal"),
        pytest.param("vertical", False, id="vertical"),
        pytest.param("horizontal", True, id="bent-horizontal"),
        pytest.param("vertical", True, id="bent-vertical")])
    def test_built_bound_is_tight_at_expansion_point(self, block, bent,
                                                     model):
        # the SCA property the monotone trace rests on: with the waypoint
        # columns at the incumbent and every t_n and eta at 0, each
        # composed rate row equals the true average rate there, each
        # exponent equals its logistic argument there, and each tie row
        # has zero slack; off the straight line (bent) neither block's
        # incumbent is its target, so this holds only if the bound is
        # expanded at the incumbent
        scen, plan, step = _built_step(block, model, bent)
        assert step is not None
        t_cols, eta, tie_rows = _tie_layout(step.objective, scen.n_sn)
        assert step.objective.size == step.x_cols.size + scen.n_sn + 1
        assert step.rows.exp[0].size == np.count_nonzero(
            plan.a[:, :-1] > planner._SPARSIFY_TOL)

        q, z = plan.q, plan.z
        incumbent = q if block == "horizontal" else z[:, None]
        np.testing.assert_array_equal(step.path, incumbent)
        x = step.start.copy()
        x[step.x_cols] = incumbent[1:-1]
        x[t_cols] = x[eta] = 0.0
        g = step.rows.values(x)
        rates = predicted_rates(q, z, scen, model)
        active = plan.a > planner._SPARSIFY_TOL
        want = (np.where(active, plan.a, 0.0) * rates).sum(axis=1) \
            / scen.n_slots
        assert g[:scen.n_sn] == pytest.approx(want, rel=1e-9)
        _, v = planner.slot_geometry(q, z, scen)
        node, slot = np.nonzero(active[:, :-1])
        assert step.rows.inner.values(x) == pytest.approx(
            model.b1 + model.b2 * v[node, slot], rel=1e-12, abs=1e-12)
        assert g[tie_rows] == pytest.approx(0.0, abs=1e-12)

    def test_one_node_builds_no_tie_break(self):
        # one node: the rate row subtracts eta itself, the objective is eta
        # alone, and there is no t column and no tie row
        scen = _scenario([[300.0, 200.0]])
        plan = initialize_plan(scen)
        plan.a, *_ = solve_scheduling(
            predicted_rates(plan.q, plan.z, scen, FIT))
        for data in (planner._horizontal_block(plan, scen),
                     planner._vertical_block(plan, scen)):
            step = planner.build_trajectory_step(plan, scen, FIT, **data)
            eta = step.objective.size - 1
            assert eta == step.x_cols.size
            assert np.flatnonzero(step.objective).tolist() == [eta]
            assert step.objective[eta] == 1.0
            lin_rows, lin_cols, lin_vals = step.rows.lin
            at = lin_cols == eta
            assert (lin_rows[at].tolist(), lin_vals[at].tolist()) == (
                [0], [-1.0])
            n_floor = 0 if np.isinf(data.get("floor", -np.inf)) \
                else scen.n_slots - 1
            assert step.rows.d.size == 1 + scen.n_slots + n_floor

    @pytest.mark.parametrize("name", ["scenario_1sn.json",
                                      "scenario_4sn.json"])
    def test_solver_reads_the_built_epigraph(self, name, monkeypatch):
        # on every program run_scheme builds, the epigraph the solver reads
        # off the rows is the builder's: first each t_n over its rate row,
        # then eta, the last column, over the tie rows; with one node there
        # is no t_n, and eta is over the one rate row
        scen = load_scenario(bundled_scenario(name))
        model = fit_for_scenario(scen)
        programs = []
        solve = planner.maximize_concave_program

        def spy(c, rows, start, **kw):
            programs.append((c, rows, start))
            return solve(c, rows, start, **kw)

        monkeypatch.setattr(planner, "maximize_concave_program", spy)
        run_scheme("rfb", scen, model, simulate=False)
        vertical = set()
        n_sn = scen.n_sn
        for c, program_rows, start in programs:
            system = solvers._NewtonSystem(program_rows, c)
            first, second = solvers._epigraph(
                system, c, system.jacobian(program_rows.at(start)))
            t_cols, eta, tie_rows = _tie_layout(c, n_sn)
            assert np.flatnonzero(c).tolist() == t_cols.tolist() + [eta]
            assert (first[0].tolist(), first[1].tolist()) == (
                list(range(t_cols.size)), t_cols.tolist())
            eta_rows = tie_rows.tolist() if n_sn > 1 else [0]
            assert (second[0].tolist(), second[1].tolist()) == (
                eta_rows, [eta] * len(eta_rows))
            vertical.add(program_rows.inner.ratio[0].size > 0)
        assert vertical == {False, True}

    def test_every_bundled_solve_ends_optimal(self, built_steps):
        # every interior-point solve of the four schemes ends "optimal",
        # well inside the step cap, and the counts in the result say so
        assert built_steps["reports"]
        assert {rep.status for rep in built_steps["reports"]} == {"optimal"}
        for scheme, counts in built_steps["not_optimal"].items():
            assert counts == {"horizontal": 0, "vertical": 0}, scheme

    def test_no_bundled_solve_crawls(self, built_steps):
        # each bound is tight at the incumbent while the start sits 1e-2
        # toward the target, so no taut move row starts with almost no
        # slack: no interior-point solve of the four schemes crawls past
        # 40 Newton steps
        assert max(rep.iterations for rep in built_steps["reports"]) <= 40

    def test_long_mission_solves_end_optimal(self):
        # rfb on scenario_4sn stretched to 1000 slots of the same length:
        # the line search tests a trial by the barrier function alone, so
        # no solve stalls in a crawl of rejected feasible steps, and the
        # Jacobian is formed once per solve and once per accepted step,
        # never for a rejected trial
        base = load_scenario(bundled_scenario("scenario_4sn.json"))
        scen = dataclasses.replace(base, n_slots=1000,
                                   duration_s=base.delta_s * 1000)
        reports, calls = [], [0]
        solve = planner.maximize_concave_program
        jacobian = solvers._NewtonSystem.jacobian

        def spy_solve(*args, **kw):
            reports.append(solve(*args, **kw))
            return reports[-1]

        def spy_jacobian(self, p):
            calls[0] += 1
            return jacobian(self, p)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(planner, "maximize_concave_program", spy_solve)
            patch.setattr(solvers._NewtonSystem, "jacobian", spy_jacobian)
            _, rep = run_scheme("rfb", scen, fit_for_scenario(base),
                                simulate=False)
        assert reports
        assert {r.status for r in reports} == {"optimal"}
        assert rep.extras["ipm_not_optimal"] == {"horizontal": 0,
                                                 "vertical": 0}
        assert calls[0] == sum(r.iterations for r in reports) + len(reports)

    def test_every_built_column_has_diagonal_curvature(self, built_steps):
        # what keeps the Newton step's banded block positive definite with
        # no ridge: on every program the four schemes build, every waypoint
        # column has a positive diagonal curvature term from the move rows'
        # squares, and the objective columns (each t_n, eta) have none
        for step in built_steps["steps"]:
            diag = np.zeros(step.objective.size)
            rows = step.rows
            on = rows.curv_rows == rows.curv_cols
            np.add.at(diag, rows.curv_rows[on],
                      rows.at(step.start).curvature(np.ones(rows.d.size))[on])
            free = step.objective == 0.0
            assert np.all(diag[free] > 0.0)
            assert np.all(diag[~free] == 0.0)

    def test_built_patterns_follow_the_two_square_shapes(self, built_steps):
        # each row set states its sparsity once: an anchor square has its
        # Jacobian and curvature entries on x[i] alone, a difference square
        # on x[i] and x[j] plus the cross entry both ways, a ratio on x[i]
        # alone, an exponential term its inner row's entries, curvature
        # entries and every pair of its inner row's entries; the derivative
        # values line up with the pattern.  Only the inner moves are
        # differences of two free waypoints
        n_anchor = n_diff = n_inner = 0
        for step in built_steps["steps"]:
            rows, x = step.rows, step.start
            inner = rows.inner
            a_row, _, a_i, _ = rows.anchor
            d_row, _, d_i, d_j = rows.diff
            e_row, _ = rows.exp
            r_row, _, _, r_i = rows.ratio
            np.testing.assert_array_equal(d_i, step.x_cols[1:].ravel())
            np.testing.assert_array_equal(d_j, step.x_cols[:-1].ravel())
            n_anchor += a_row.size
            n_diff += d_row.size
            n_inner += inner.jac_rows.size
            # the exponents are the horizontal caps' anchor squares or the
            # vertical caps' ratios, one inner row per exponential term
            assert inner.d.size == e_row.size
            assert inner.lin[0].size == inner.diff[0].size == 0
            assert inner.anchor[0].size + inner.ratio[0].size > 0
            cols = [inner.jac_cols[inner.jac_rows == k]
                    for k in range(inner.d.size)]
            pairs = np.array([(a, b) for c in cols for a in c for b in c],
                             np.int64).reshape(-1, 2)
            jac = np.concatenate([
                np.stack([rows.lin[0], rows.lin[1]], 1),
                np.stack([a_row, a_i], 1), np.stack([d_row, d_i], 1),
                np.stack([d_row, d_j], 1),
                np.stack([e_row[inner.jac_rows], inner.jac_cols], 1),
                np.stack([r_row, r_i], 1)])
            curv = np.concatenate([
                np.stack([a_i, a_i], 1), np.stack([d_i, d_i], 1),
                np.stack([d_j, d_j], 1), np.stack([d_i, d_j], 1),
                np.stack([d_j, d_i], 1),
                np.stack([inner.curv_rows, inner.curv_cols], 1), pairs,
                np.stack([r_i, r_i], 1)])
            np.testing.assert_array_equal(
                np.stack([rows.jac_rows, rows.jac_cols], 1), jac)
            np.testing.assert_array_equal(
                np.stack([rows.curv_rows, rows.curv_cols], 1), curv)
            assert np.all((rows.jac_rows >= 0)
                          & (rows.jac_rows < rows.d.size))
            assert rows.at(x).grads.shape == rows.jac_rows.shape
            assert rows.at(x).curvature(np.ones(rows.d.size)).shape == \
                rows.curv_rows.shape
        # the rate-row distance terms and both end moves, the inner moves
        # and the exponents
        assert n_anchor > 0 and n_diff > 0 and n_inner > 0

    @pytest.mark.parametrize("block", ["horizontal", "vertical"])
    def test_floor_rows_come_last(self, block):
        # the rows run: rate rows, tie rows t_n - eta, moves, and last the
        # altitude floor, one linear row per free altitude, x - h_min; the
        # horizontal block has no floor
        scen, _, step = _built_step(block, FIT)
        rows, x = step.rows, step.start
        n_sn, m_slots = scen.n_sn, scen.n_slots
        t_cols, eta, tie_rows = _tie_layout(step.objective, n_sn)
        n_floor = 0 if block == "horizontal" else m_slots - 1
        assert rows.d.size == 2 * n_sn + m_slots + n_floor
        np.testing.assert_array_equal(rows.values(x)[tie_rows],
                                      x[t_cols] - x[eta])
        move_lo = 2 * n_sn
        limit = scen.sxy if block == "horizontal" else scen.sz
        np.testing.assert_array_equal(rows.d[move_lo:move_lo + m_slots],
                                      limit ** 2)
        floor = rows.lin[0] >= rows.d.size - n_floor
        assert np.count_nonzero(floor) == n_floor
        np.testing.assert_array_equal(rows.values(x)[rows.d.size - n_floor:],
                                      x[step.x_cols[:, 0]] - scen.h_min
                                      if n_floor else [])
        np.testing.assert_array_equal(rows.lin[0][floor],
                                      rows.d.size - n_floor
                                      + np.arange(n_floor))
        np.testing.assert_array_equal(rows.lin[1][floor],
                                      step.x_cols[:n_floor, 0])
        np.testing.assert_array_equal(rows.lin[2][floor], 1.0)

    @pytest.mark.parametrize("model", [FIT, LOS_MODEL], ids=["fit", "los"])
    @pytest.mark.parametrize("block", ["horizontal", "vertical"])
    def test_newton_step_matches_dense_solve(self, block, model,
                                             newton_step_gap):
        # the banded factor, Schur complement and Woodbury update solve the
        # same system as a dense factorization of the whole matrix
        scen, _, step = _built_step(block, model)
        gap = newton_step_gap(step.objective, step.rows, step.start)
        assert gap <= 1e-8
        # the t_n and eta are the dense columns
        assert solvers._NewtonSystem(step.rows,
                                     step.objective).nd == scen.n_sn + 1

    @pytest.mark.parametrize("block", ["horizontal", "vertical"])
    def test_solve_evaluates_each_point_once(self, block, monkeypatch):
        # each point the solver visits is evaluated once: its inner rows
        # (the elevation caps) once with it, their Jacobian values once per
        # accepted point, and an accepted trial's point carries over into
        # its Jacobian, the next Newton step and the final report
        scen = load_scenario(bundled_scenario("scenario_4sn.json"))
        model = fit_for_scenario(scen)
        plan = initialize_plan(scen)
        plan.a, *_ = solve_scheduling(
            predicted_rates(plan.q, plan.z, scen, model))
        data = (planner._horizontal_block if block == "horizontal"
                else planner._vertical_block)(plan, scen)
        step = planner.build_trajectory_step(plan, scen, model, **data)
        assert step is not None

        seen = {"points": [], "jacobian": [], "inner": 0, "inner_grads": 0}
        init = solvers.Point.__init__
        grads = solvers.Point.grads.func
        jacobian = solvers._NewtonSystem.jacobian

        def spy_init(point, rows, x):
            if rows is step.rows:
                seen["points"].append(x.copy())
            seen["inner"] += rows is step.rows.inner
            init(point, rows, x)

        def spy_grads(point):
            seen["inner_grads"] += point.rows is step.rows.inner
            return grads(point)

        def spy_jacobian(system, p):
            seen["jacobian"].append(p.x.copy())
            return jacobian(system, p)

        counted = functools.cached_property(spy_grads)
        counted.__set_name__(solvers.Point, "grads")
        monkeypatch.setattr(solvers.Point, "__init__", spy_init)
        monkeypatch.setattr(solvers.Point, "grads", counted)
        monkeypatch.setattr(solvers._NewtonSystem, "jacobian", spy_jacobian)
        rep = solvers.maximize_concave_program(step.objective, step.rows,
                                               step.start)
        assert rep.status == "optimal" and rep.iterations > 10
        assert seen["inner"] == len(seen["points"]) > rep.iterations
        assert (seen["inner_grads"] == len(seen["jacobian"])
                == rep.iterations + 1)
        for name in ("points", "jacobian"):
            xs = seen[name]
            again = [i for i in range(1, len(xs))
                     if np.array_equal(xs[i - 1], xs[i])]
            assert not again, (name, again)

    def test_taut_line_leaves_no_interior(self):
        # exactly enough speed to reach the end point: every speed row is
        # tight, so the subproblem has no strictly feasible start
        scen = _scenario([[500.0, 400.0]], m_slots=20, duration_s=20.0,
                         q0=(0.0, 0.0), qf=(1000.0, 0.0))
        plan = initialize_plan(scen)
        assert solve_horizontal(plan, scen, FIT, reports=[]) is None
        plan2, info = run_bcd(scen, FIT, freeze_vertical=True)
        assert np.allclose(plan2.q, plan.q)
        assert info["converged"]

    def test_vertical_skipped_when_no_climb_speed(self):
        scen = _scenario([[300.0, 200.0]], vz=0.0)
        plan = initialize_plan(scen)
        assert solve_vertical(plan, scen, FIT, reports=[]) is None
        plan2, _ = run_bcd(scen, FIT)
        assert np.allclose(plan2.z, 100.0)

    def test_no_angle_gain_keeps_floor_altitude(self):
        # with b2 = 0 the link gain is angle-independent, so climbing only
        # adds path loss and the optimizer hugs the altitude floor
        flat = LogisticModel(b1=0.0, b2=0.0, c1=0.0, c2=1.0)
        scen = _scenario([[300.0, 400.0]])
        plan, info = run_bcd(scen, flat)
        assert plan.z.max() <= 100.5
        _assert_feasible(plan, scen)

    def test_fitted_model_climbs_over_hovering_point(self):
        # hovering case: generous time, one node right of center; the
        # angle-dependent gain rewards altitude above the node
        scen = _scenario([[500.0, 500.0]], m_slots=16, duration_s=16.0,
                         q0=(200.0, 500.0), qf=(800.0, 500.0))
        plan, info = run_bcd(scen, FIT)
        # climbs right up to the two-slot speed ceiling on the approach leg
        # (and dips back to the floor overhead, where v = 1 at any altitude)
        assert plan.z.max() > 139.0
        mid = plan.n_slots // 2
        assert plan.z[mid] < 110.0
        _assert_feasible(plan, scen)


class TestOuterLoop:
    def test_trace_never_decreases_any_variant(self):
        scen = _scenario([[260.0, 310.0], [700.0, 620.0]], m_slots=10,
                         duration_s=10.0)
        for model, kw in ((FIT, {}), (FIT, {"freeze_vertical": True}),
                          (LOS_MODEL, {})):
            plan, info = run_bcd(scen, model, **kw)
            tr = np.asarray(info["trace"])
            assert np.all(np.diff(tr) >= -1e-9)
            assert info["eta_model"] == pytest.approx(tr[-1])
            _assert_feasible(plan, scen)

    @pytest.mark.parametrize("frozen", [True, False], ids=["frozen", "free"])
    @pytest.mark.parametrize("name", ["scenario_1sn.json",
                                      "scenario_4sn.json"])
    def test_plan_carries_its_own_lp_schedule(self, name, frozen):
        # every plan the ascent holds is scheduled by the LP on its own
        # trajectory, so the returned schedule and objective are that LP's,
        # and a move is accepted only if the LP's max-min does not fall
        scen = load_scenario(bundled_scenario(name))
        model = fit_for_scenario(scen)
        starts = [evaluation._level_start(scen, h)
                  for h in evaluation.cruise_levels(scen)]
        plan, info = run_bcd(scen, model, freeze_vertical=frozen,
                             starts=starts)
        a, eta, *_ = solve_scheduling(predicted_rates(plan.q, plan.z, scen,
                                                     model))
        assert np.array_equal(plan.a, a)
        assert info["eta_model"] == eta
        assert np.all(np.diff(info["trace"]) >= 0.0)

    def test_rfb_solves_only_the_lps_duality_leaves_open(self,
                                                         monkeypatch):
        # rfb on scenario_4sn has 9 + 6 candidates, one start per cruise
        # level and one trial per block per outer iteration, and solves
        # 1 + 4 LPs: the first start scanned leads, and the incumbent's LP
        # duals bound the other 10 below its max-min.  Each skipped
        # candidate's cold LP is indeed below the incumbent's, so no skip
        # changed a decision; no LP runs twice on equal rates; the first
        # LP is cold, and every other starts from the smoothed weights of
        # an earlier one and gives the cold LP's answer to the bit
        scen = load_scenario(bundled_scenario("scenario_4sn.json"))
        model = fit_for_scenario(scen)
        events = []      # ("rates", r) per candidate, ("lp", r, start, rep)
        rates_of, lp = planner.predicted_rates, planner.solve_lp

        def rates_spy(*args):
            events.append(("rates", rates_of(*args)))
            return events[-1][1]

        def lp_spy(rates, start=None):
            events.append(("lp", np.array(rates), start, lp(rates, start)))
            return events[-1][3]

        monkeypatch.setattr(planner, "predicted_rates", rates_spy)
        monkeypatch.setattr(planner, "solve_lp", lp_spy)
        _, rep = run_scheme("rfb", scen, model, simulate=False)
        monkeypatch.undo()
        levels = len(evaluation.cruise_levels(scen))
        assert (levels, rep.extras["iterations"]) == (9, 3)
        calls = [e[1:] for e in events if e[0] == "lp"]
        assert len(calls) == 5
        solved = {rates.tobytes() for rates, _, _ in calls}
        assert len(solved) == len(calls)
        assert rep.extras["trace"][0] == calls[0][2].objective

        # the incumbent's max-min at a candidate is the largest LP max-min
        # before it; every start's rates come before the first LP
        skipped, top, n_cand = 0, -np.inf, 0
        first_lp = next(i for i, e in enumerate(events) if e[0] == "lp")
        lead = max(e[3].objective for e in events[:first_lp + 1]
                   if e[0] == "lp")
        for event in events:
            if event[0] == "lp":
                top = max(top, event[3].objective)
                continue
            n_cand += 1
            rates = event[1]
            if rates.tobytes() not in solved:
                skipped += 1
                incumbent = lead if n_cand <= levels else top
                assert lp(rates).objective < incumbent
        assert n_cand == levels + 2 * rep.extras["iterations"] == 15
        assert skipped == 10

        assert calls[0][1] is None
        for i, (rates, start, warm) in enumerate(calls[1:], 1):
            assert any(start is c[2].smoothed for c in calls[:i])
            cold = lp(rates)
            assert warm.x.tobytes() == cold.x.tobytes()
            assert (warm.objective, warm.status, warm.stationarity) == (
                cold.objective, cold.status, cold.stationarity)

    def test_equal_best_starts_pick_the_first(self, monkeypatch):
        # two starts with equal rates, the best level's straight line with
        # its free waypoints' y at +0.0 and at -0.0, tie on the LP max-min:
        # as a full scan of cold LPs does, the ascent starts from the first
        # of them, which the sign of zero in the first horizontal step's
        # plan names
        scen = _scenario([[260.0, 310.0], [700.0, 620.0]], m_slots=10,
                         duration_s=10.0)
        levels = [evaluation._level_start(scen, h)
                  for h in (100.0, 150.0, 200.0)]

        def cold_eta(plan):
            return solvers.solve_lp(predicted_rates(plan.q, plan.z, scen,
                                                    FIT)).objective

        etas = [cold_eta(p) for p in levels]
        top = levels[etas.index(max(etas))]
        neg = top.copy()
        neg.q[1:-1, 1] = -0.0
        assert neg.q.tobytes() != top.q.tobytes()
        seen = []
        real = planner.solve_horizontal

        def spy(plan, *args, **kw):
            seen.append(plan.q.tobytes())
            return real(plan, *args, **kw)

        monkeypatch.setattr(planner, "solve_horizontal", spy)
        monkeypatch.setattr(planner, "BCD_MAX_ITERS", 1)
        others = [p for p in levels if p is not top]
        for pair in ((top, neg), (neg, top)):
            starts = [*others, *pair, top]
            full = [cold_eta(p) for p in starts]
            assert starts[full.index(max(full))] is pair[0]
            seen.clear()
            run_bcd(scen, FIT, freeze_vertical=True, starts=starts)
            assert seen[0] == pair[0].q.tobytes()

    def test_tie_scanned_later_with_a_lower_index_wins(self, monkeypatch):
        # start 1's rates [[2, 1], [1, 2]] have the larger own-total bound
        # (1.5 against 1), so its LP runs first, but both LPs give each
        # node its own slot at eta 1: the pick is start 0, as in a full
        # scan, and the first horizontal step sees its altitudes
        scen = _scenario([[40.0, 50.0], [60.0, -50.0]], m_slots=2,
                         duration_s=2.0, qf=(80.0, 0.0))
        starts = [evaluation._level_start(scen, h) for h in (100.0, 110.0)]
        fake = {starts[0].z.tobytes(): np.array([[2.0, 0.0], [0.0, 2.0]]),
                starts[1].z.tobytes(): np.array([[2.0, 1.0], [1.0, 2.0]])}
        real_rates = planner.predicted_rates
        real_step = planner.solve_horizontal
        seen = []

        def rates(q, z, *args):
            key = np.asarray(z).tobytes()
            return fake[key] if key in fake else real_rates(q, z, *args)

        def step(plan, *args, **kw):
            seen.append(plan.z.tobytes())
            return real_step(plan, *args, **kw)

        monkeypatch.setattr(planner, "predicted_rates", rates)
        monkeypatch.setattr(planner, "solve_horizontal", step)
        monkeypatch.setattr(planner, "BCD_MAX_ITERS", 1)
        _, info = run_bcd(scen, FIT, freeze_vertical=True, starts=starts)
        assert info["trace"][0] == 1.0
        assert seen[0] == starts[0].z.tobytes()

    def test_single_node_bound_is_the_lp_value(self, monkeypatch):
        # with one node the LP gives it every slot at weight 1, so a
        # candidate's bound is its own LP max-min: a candidate is skipped
        # exactly when its LP would fall short.  The ascent still keeps
        # its own LP schedule and a trace that never falls
        scen = _scenario([[150.0, 120.0]])
        pairs = []
        real = planner.dual_bound

        def spy(weights, rates):
            pairs.append((real(weights, rates),
                          solvers.solve_lp(rates).objective))
            return pairs[-1][0]

        monkeypatch.setattr(planner, "dual_bound", spy)
        starts = [evaluation._level_start(scen, h)
                  for h in (100.0, 150.0, 200.0)]
        plan, info = run_bcd(scen, FIT, starts=starts)
        assert len(pairs) >= len(starts) - 1
        for bound, eta in pairs:
            assert bound == pytest.approx(eta, rel=1e-14)
        a, eta, *_ = solve_scheduling(predicted_rates(plan.q, plan.z, scen,
                                                      FIT))
        assert np.array_equal(plan.a, a) and info["eta_model"] == eta
        assert np.all(np.diff(info["trace"]) >= 0.0)
        _assert_feasible(plan, scen)

    def test_no_start_is_refused(self):
        with pytest.raises(ValueError, match="at least one start"):
            run_bcd(_scenario([[150.0, 120.0]]), FIT, starts=[])

    def test_line_of_sight_model_has_unit_gain(self):
        scen = _scenario([[400.0, 300.0]])
        plan, info = run_bcd(scen, LOS_MODEL)
        d2, _ = planner.slot_geometry(plan.q, plan.z, scen)
        clear = rate_from_gain(1.0, scen.snr_gamma_per_sn[:, None], d2,
                               scen.alpha)
        assert info["eta_model"] == pytest.approx(
            max_min_rate(plan.a, clear), rel=1e-12)
        # the LOS gain is pinned at one everywhere
        assert LOS_MODEL.predict(np.linspace(0, 1, 5)) == pytest.approx(1.0)

    def test_stalled_inner_solves_are_counted(self, monkeypatch):
        # a solve that does not end "optimal" is counted per block, and the
        # count changes neither the plan nor the acceptance of moves
        scen = _scenario([[260.0, 310.0], [700.0, 620.0]], m_slots=10,
                         duration_s=10.0)
        plan_ok, info_ok = run_bcd(scen, FIT)
        assert info_ok["ipm_not_optimal"] == {"horizontal": 0, "vertical": 0}

        real = planner.maximize_concave_program
        calls = []

        def stalled(c, rows, start, **kw):
            calls.append(c.size)
            return dataclasses.replace(real(c, rows, start, **kw),
                                       status="stalled")

        monkeypatch.setattr(planner, "maximize_concave_program", stalled)
        plan, info = run_bcd(scen, FIT)
        counts = info["ipm_not_optimal"]
        assert counts["horizontal"] > 0 and counts["vertical"] > 0
        assert counts["horizontal"] + counts["vertical"] == len(calls)
        assert np.array_equal(plan.q, plan_ok.q)
        assert np.array_equal(plan.z, plan_ok.z)
        assert info["trace"] == info_ok["trace"]

        calls.clear()
        _, frozen = run_bcd(scen, FIT, freeze_vertical=True)
        assert frozen["ipm_not_optimal"] == {"horizontal": len(calls),
                                             "vertical": 0}

    def test_infeasible_trial_names_its_block(self, monkeypatch):
        # a horizontal step that breaks the speed limit is refused before
        # the acceptance test, naming the block and the violation
        scen = _scenario([[260.0, 310.0], [700.0, 620.0]], m_slots=10,
                         duration_s=10.0)

        def too_far(plan, scenario, model, *, reports):
            q = plan.q.copy()
            q[3, 1] += 3.0 * scenario.sxy
            return q

        monkeypatch.setattr(planner, "solve_horizontal", too_far)
        with pytest.raises(RuntimeError,
                           match="horizontal step .*horizontal step above "
                                 "sxy"):
            run_bcd(scen, FIT)

    def test_stops_at_its_fixed_point(self, monkeypatch):
        # an iteration that accepts no trajectory move leaves the rates and
        # the plan as they were, so the next one would replay it: no block
        # is asked to solve the same plan twice, and the run has converged
        scen = load_scenario(bundled_scenario("scenario_4sn.json"))
        calls = []
        for name in ("solve_horizontal", "solve_vertical"):
            def spy(plan, *args, _solve=getattr(planner, name), _name=name,
                    **kw):
                calls.append((_name, plan.q.tobytes(), plan.z.tobytes(),
                              plan.a.tobytes()))
                return _solve(plan, *args, **kw)

            monkeypatch.setattr(planner, name, spy)
        _, rep = run_scheme("rfb", scen, fit_for_scenario(scen),
                            simulate=False)
        assert {call[0] for call in calls} == {"solve_horizontal",
                                               "solve_vertical"}
        replays = len(calls) - len(set(calls))
        assert replays == 0
        assert rep.extras["converged"] is True

    def test_matches_brute_force_grid_tiny_case(self, monkeypatch):
        # two slots, one free waypoint, frozen altitude: sweep the free
        # waypoint over a fine grid of the reachable lens and compare
        scen = _scenario([[50.0, 80.0]], m_slots=2, duration_s=2.4,
                         q0=(0.0, 0.0), qf=(100.0, 0.0), vxy=50.0)
        gamma = float(scen.snr_gamma_per_sn[0])

        xs = np.linspace(20.0, 80.0, 241)
        ys = np.linspace(0.0, 45.0, 181)
        gx, gy = np.meshgrid(xs, ys)
        ok = ((gx ** 2 + gy ** 2 <= scen.sxy ** 2)
              & ((gx - 100.0) ** 2 + gy ** 2 <= scen.sxy ** 2))

        def true_rate(px, py):
            y3 = (px - 50.0) ** 2 + (py - 80.0) ** 2 + 100.0 ** 2
            v = 100.0 / np.sqrt(y3)
            return rate_from_gain(FIT.predict(v), gamma, y3, 2.0)

        r_end = true_rate(100.0, 0.0)
        eta_grid = 0.5 * (true_rate(gx, gy) + r_end)
        best = eta_grid[ok].max()

        monkeypatch.setattr(planner, "BCD_TOL", 1e-9)
        monkeypatch.setattr(planner, "BCD_MAX_ITERS", 100)
        plan, info = run_bcd(scen, FIT, freeze_vertical=True)
        # two-sided: must essentially reach the grid optimum, and must not
        # exceed it by more than the grid resolution allows
        assert info["eta_model"] >= 0.999 * best
        assert info["eta_model"] <= 1.001 * best
        _assert_feasible(plan, scen)

    def test_multi_node_run_uses_every_node(self):
        rng = np.random.default_rng(11)
        scen = _scenario(rng.uniform(0.0, 1000.0, size=(4, 2)), m_slots=12,
                         duration_s=12.0)
        plan, info = run_bcd(scen, FIT)
        owners = round_schedule(
            plan.a, predicted_rates(plan.q, plan.z, scen, FIT))
        assert set(owners[owners >= 0]) == {0, 1, 2, 3}
        assert info["eta_model"] > 0.0
        _assert_feasible(plan, scen)

    def test_plan_shapes_and_initialization(self):
        scen = _scenario([[100.0, 100.0], [600.0, 900.0]], m_slots=5,
                         duration_s=5.0, qf=(200.0, 0.0))
        plan = initialize_plan(scen)
        assert plan.q.shape == (6, 2)
        assert plan.z.shape == (6,)
        assert plan.a.shape == (2, 5)
        assert np.allclose(plan.a.sum(axis=0), 1.0)
        rates = predicted_rates(plan.q, plan.z, scen, FIT)
        assert rates.shape == (2, 5)
        # objective convention: worst node's activity-weighted slot average
        want = min((plan.a * rates).sum(axis=1) / 5)
        assert max_min_rate(plan.a, rates) == pytest.approx(want, rel=1e-12)
        with pytest.raises(ValueError):
            Plan(q=plan.q, z=plan.z[:-1], a=plan.a)
        with pytest.raises(ValueError, match="shape"):
            Plan(q=plan.q, z=plan.z, a=plan.a[0])
        with pytest.raises(ValueError, match="shape"):
            Plan(q=plan.q, z=plan.z, a=plan.a[:, :, None])
        with pytest.raises(ValueError, match="shape"):
            Plan(q=plan.q, z=plan.z, a=np.stack([plan.a] * 3, axis=-1))


class TestCheckPlan:
    def _plan(self):
        scen = _scenario([[150.0, 40.0], [200.0, -60.0]])
        return initialize_plan(scen), scen

    def test_feasible_plan_passes(self):
        plan, scen = self._plan()
        assert check_plan(plan, scen) == []
        # a planned mission sits on its limits, within the tolerance
        planned, _ = run_bcd(scen, FIT)
        assert check_plan(planned, scen) == []

    def test_shape_mismatch_names_the_slots(self):
        plan, scen = self._plan()
        other = dataclasses.replace(scen, n_slots=16, duration_s=16.0)
        (problem,) = check_plan(plan, other)
        assert "8 slots" in problem and "2 x 16" in problem

    def test_non_finite_values_are_named(self):
        plan, scen = self._plan()
        plan.z[3] = math.nan
        assert check_plan(plan, scen) == ["plan holds non-finite values"]

    @pytest.mark.parametrize("attr, index, value, name, excess", [
        ("a", (0, 2), 7.0, "activity outside", 6.0),
        ("a", (0, 2), -0.25, "activity outside", 0.25),
        ("a", (slice(None), 2), 0.75, "slot activity sum", 0.5),
        ("q", (3, 1), 5000.0, "horizontal step above sxy", None),
        ("z", 4, 98.5, "altitude below h_min", 1.5),
        ("z", 4, 130.0, "climb above sz", 10.0),
        ("q", (-1, 0), 301.0, "endpoint off its pin", 1.0),
    ])
    def test_each_violation_reports_its_worst_case(self, attr, index, value,
                                                   name, excess):
        plan, scen = self._plan()
        getattr(plan, attr)[index] = value
        (hit,) = [p for p in check_plan(plan, scen) if p.startswith(name)]
        if excess is not None:
            assert float(hit.rsplit(" ", 1)[1]) == pytest.approx(excess)

    def test_violation_within_the_relative_tolerance_passes(self):
        plan, scen = self._plan()
        plan.z[4] = scen.h_min * (1.0 - 0.5 * planner.PLAN_RTOL)
        plan.a[:, 2] = 0.5 * (1.0 + 0.5 * planner.PLAN_RTOL)
        assert check_plan(plan, scen) == []
        plan.z[4] = scen.h_min * (1.0 - 2.0 * planner.PLAN_RTOL)
        assert [p.split(" by ")[0] for p in check_plan(plan, scen)] == [
            "altitude below h_min"]


_BASE_1SN = dataclasses.replace(
    load_scenario(bundled_scenario("scenario_1sn.json")), n_slots=20)
_DEGENERATE = {
    "one_slot": dict(n_slots=1),
    "two_slots": dict(n_slots=2),
    "hover": dict(vxy=0.0, qf=_BASE_1SN.q0),
    "no_climb": dict(vz=0.0),
    "flat_k": dict(k_min=_BASE_1SN.k_max),
    "node_under_start": dict(sn_positions=[_BASE_1SN.q0]),
    "node_under_end": dict(sn_positions=[_BASE_1SN.qf, [200.0, 0.0]]),
}


class TestDegenerateScenarios:
    """Edge cases of scenario_1sn at 20 slots, planned with one fitted
    model: every plan fits its scenario, earns a positive rate, never lets
    the outer trace fall, and reruns byte for byte."""

    @pytest.fixture(scope="class")
    def model(self):
        return fit_for_scenario(_BASE_1SN)

    @pytest.mark.parametrize("scheme", ["lb", "rfb"])
    @pytest.mark.parametrize("case", sorted(_DEGENERATE))
    def test_plans_stay_feasible_monotone_and_repeatable(self, case, scheme,
                                                         model):
        scen = dataclasses.replace(_BASE_1SN, **_DEGENERATE[case])
        plan, rep = run_scheme(scheme, scen, model, simulate=False)
        assert check_plan(plan, scen) == []
        assert rep.eta_achieved > 0.0
        trace = rep.extras["trace"]
        assert all(b >= a for a, b in zip(trace, trace[1:]))
        again, rep2 = run_scheme(scheme, scen, model, simulate=False)
        for attr in ("q", "z", "a"):
            assert getattr(again, attr).tobytes() == getattr(plan,
                                                             attr).tobytes()
        assert rep2.eta_achieved == rep.eta_achieved
        assert rep2.extras == rep.extras


@st.composite
def _small_scenarios(draw):
    """Scenarios of 1-3 nodes and 1-20 slots, reachable in time: the
    horizontal leg takes a drawn share of the full-speed range and the
    altitude change one of the climb range."""
    n_slots = draw(st.integers(1, 20))
    duration_s = n_slots * draw(st.sampled_from([0.5, 1.0, 2.0]))
    vxy, vz = draw(st.sampled_from([0.0, 20.0, 50.0])), 10.0
    reach = draw(st.floats(0.0, 1.0)) * vxy * duration_s
    heading = draw(st.floats(0.0, 2.0 * math.pi))
    qf = reach * np.array([math.cos(heading), math.sin(heading)])
    zf = 100.0 + draw(st.floats(0.0, 1.0)) * vz * duration_s
    nodes = draw(st.lists(st.tuples(st.floats(-300.0, 300.0),
                                    st.floats(-300.0, 300.0)),
                          min_size=1, max_size=3))
    return _scenario(nodes, m_slots=n_slots, duration_s=duration_s, qf=qf,
                     vxy=vxy, vz=vz, zf=zf)


@settings(max_examples=25)
@given(scen=_small_scenarios())
def test_random_small_scenarios_plan_cleanly(scen):
    # lb and rfb on drawn scenarios: a plan that fits and carries its own
    # LP schedule, an outer trace that never falls, and a byte-identical
    # rerun
    for scheme, model in (("lb", LOS_MODEL), ("rfb", FIT)):
        plan, rep = run_scheme(scheme, scen, model, simulate=False)
        assert check_plan(plan, scen) == [], scheme
        lp, *_ = solve_scheduling(
            predicted_rates(plan.q, plan.z, scen, model))
        assert np.array_equal(plan.a, lp), scheme
        trace = rep.extras["trace"]
        assert all(b >= a for a, b in zip(trace, trace[1:])), scheme
        again, rep2 = run_scheme(scheme, scen, model, simulate=False)
        for attr in ("q", "z", "a"):
            assert getattr(again, attr).tobytes() == \
                getattr(plan, attr).tobytes(), (scheme, attr)
        assert rep2.eta_achieved == rep.eta_achieved
