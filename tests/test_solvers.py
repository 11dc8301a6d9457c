"""Solver-layer tests.

The LP path (HiGHS behind ``solve_lp``) is checked on hand-solved
instances, on its own optimality certificate (feasibility, dual signs,
complementary slackness, strong duality) for random boxed instances, whose
optimum must also match HiGHS's interior-point method, and on
degenerate/infeasible/unbounded cases; the barrier path is checked against
analytic optima and a multi-start SLSQP oracle on random concave programs,
and its structured Newton step against a dense solve, also where the
banded factorization needs the ridge and where no ridge helps.
Determinism is asserted bit-for-bit.
"""

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse

from uavrice.solvers import (
    ConcaveProgram,
    LinearProgram,
    LinearRows,
    QuadExpRows,
    SolverReport,
    VRatioRows,
    _NewtonSystem,
    maximize_concave_program,
    solve_lp,
)


def _box_lp(c, a_ub, b_ub, lb, ub):
    return LinearProgram(c=np.asarray(c, float), a_ub=np.asarray(a_ub, float),
                         b_ub=np.asarray(b_ub, float), lb=np.asarray(lb, float),
                         ub=np.asarray(ub, float))


class TestSolveLP:
    def test_single_variable(self):
        lp = _box_lp([1.0], np.zeros((1, 1)), [5.0], [0.0], [3.0])
        rep = solve_lp(lp)
        assert rep.status == "optimal"
        assert rep.objective == pytest.approx(3.0, abs=1e-12)
        assert rep.feasibility <= 1e-12

    def test_textbook_two_var(self):
        # max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 -> (2, 6), obj 36
        lp = _box_lp([3.0, 5.0],
                     [[1.0, 0.0], [0.0, 2.0], [3.0, 2.0]],
                     [4.0, 12.0, 18.0],
                     [0.0, 0.0], [np.inf, np.inf])
        rep = solve_lp(lp)
        assert rep.status == "optimal"
        np.testing.assert_allclose(rep.x, [2.0, 6.0], atol=1e-10)
        assert rep.objective == pytest.approx(36.0, abs=1e-9)

    def test_scheduling_shape_single_node(self):
        # one node, five slots: eta <= mean-rate, per-slot activity <= 1;
        # everything should saturate and eta hits the full average
        m_slots = 5
        rates = np.array([1.0, 2.0, 0.5, 3.0, 1.5])
        n = m_slots + 1                      # activities then eta
        c = np.zeros(n)
        c[-1] = 1.0
        rows = []
        rhs = []
        for m in range(m_slots):            # a_m <= 1
            r = np.zeros(n)
            r[m] = 1.0
            rows.append(r)
            rhs.append(1.0)
        r = np.zeros(n)                      # eta - mean(r*a) <= 0
        r[:m_slots] = -rates / m_slots
        r[-1] = 1.0
        rows.append(r)
        rhs.append(0.0)
        lp = _box_lp(c, rows, rhs, np.zeros(n), np.full(n, np.inf))
        rep = solve_lp(lp)
        assert rep.status == "optimal"
        np.testing.assert_allclose(rep.x[:m_slots], 1.0, atol=1e-10)
        assert rep.objective == pytest.approx(rates.mean(), abs=1e-10)

    def test_max_min_two_nodes_matches_shared_slot_split(self):
        # two nodes competing for one good slot: the max-min optimum splits
        # it so both averages are equal; solved by hand for these numbers
        #   node0 rates: [4, 0], node1 rates: [4, 1]
        # Variables a0[0], a0[1], a1[0], a1[1], eta; slots share a0+a1 <= 1.
        c = np.array([0.0, 0.0, 0.0, 0.0, 1.0])
        rows = np.array([
            [1.0, 0.0, 1.0, 0.0, 0.0],           # slot 0 occupancy
            [0.0, 1.0, 0.0, 1.0, 0.0],           # slot 1 occupancy
            [-2.0, 0.0, 0.0, 0.0, 1.0],          # eta <= (4*a00 + 0)/2
            [0.0, 0.0, -2.0, -0.5, 1.0],         # eta <= (4*a10 + 1*a11)/2
        ])
        rhs = np.array([1.0, 1.0, 0.0, 0.0])
        lp = _box_lp(c, rows, rhs, np.zeros(5), np.full(5, np.inf))
        rep = solve_lp(lp)
        assert rep.status == "optimal"
        # equalized optimum: a00 = x, a10 = 1 - x, with 4x = 4(1-x) + 1 at
        # a11 = 1  ->  x = 5/8, eta = 4 * (5/8) / 2 = 1.25
        assert rep.objective == pytest.approx(1.25, abs=1e-9)

    @pytest.mark.parametrize("seed", [3, 17, 29, 101, 555])
    def test_random_instances_match_linprog(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 12))
        m = int(rng.integers(3, 10))
        A = rng.normal(size=(m, n))
        b = np.abs(rng.normal(size=m)) + 0.1
        c = rng.normal(size=n)
        lb = np.zeros(n)
        ub = np.full(n, 2.0)
        rep = solve_lp(_box_lp(c, A, b, lb, ub))
        assert rep.status == "optimal"
        # the same rows handed over sparse give the same answer
        sparse = solve_lp(LinearProgram(c=c, a_ub=scipy.sparse.csc_array(A),
                                        b_ub=b, lb=lb, ub=ub))
        assert sparse.status == rep.status
        assert np.array_equal(sparse.x, rep.x)
        assert rep.feasibility <= 1e-8
        assert rep.stationarity <= 1e-6
        lam, upper = rep.duals["ineq"], rep.duals["upper"]
        reduced = rep.duals["reduced_costs"]
        # dual feasibility and stationarity c = A'lam + upper - reduced
        for d in (lam, upper, reduced):
            assert np.all(d >= -1e-10)
        np.testing.assert_allclose(A.T @ lam + upper - reduced, c, atol=1e-9)
        # complementary slackness on the rows and on both bounds
        assert np.max(np.abs(lam * (b - A @ rep.x))) <= 1e-8
        assert np.max(np.abs(upper * (ub - rep.x))) <= 1e-8
        assert np.max(np.abs(reduced * (rep.x - lb))) <= 1e-8
        # strong duality (lb = 0, so the lower bounds add nothing)
        assert lam @ b + upper @ ub == pytest.approx(rep.objective, abs=1e-8)
        # the interior-point method reaches the same optimum
        ref = scipy.optimize.linprog(-c, A_ub=A, b_ub=b,
                                     bounds=[(0.0, 2.0)] * n,
                                     method="highs-ipm")
        assert ref.status == 0
        assert rep.objective == pytest.approx(-ref.fun, abs=1e-8)

    def test_lower_bound_row_as_negative_rhs(self):
        # x + y >= 0.5 written as -x - y <= -0.5 plus a duplicated cap row
        lp = _box_lp([1.0, 1.0],
                     [[1.0, 1.0], [1.0, 1.0], [-1.0, -1.0]],
                     [1.0, 1.0, -0.5],
                     [0.0, 0.0], [1.0, 1.0])
        rep = solve_lp(lp)
        assert rep.status == "optimal"
        assert rep.objective == pytest.approx(1.0, abs=1e-9)

    def test_infeasible_is_reported(self):
        lp = _box_lp([1.0], [[-1.0]], [-10.0], [0.0], [1.0])  # x >= 10, x <= 1
        rep = solve_lp(lp)
        assert rep.status == "infeasible"
        assert rep.message

    def test_unbounded_is_reported(self):
        lp = _box_lp([1.0, 0.0], [[-1.0, 0.0]], [0.0],
                     [0.0, 0.0], [np.inf, 1.0])
        rep = solve_lp(lp)
        assert rep.status == "unbounded"
        assert rep.message

    def test_duals_satisfy_complementary_slackness(self):
        lp = _box_lp([3.0, 5.0],
                     [[1.0, 0.0], [0.0, 2.0], [3.0, 2.0]],
                     [4.0, 12.0, 18.0],
                     [0.0, 0.0], [np.inf, np.inf])
        rep = solve_lp(lp)
        lam = rep.duals["ineq"]
        assert np.all(lam >= -1e-10)
        slack = lp.b_ub - lp.a_ub @ rep.x
        assert np.max(np.abs(lam * slack)) <= 1e-8
        # strong duality
        assert lam @ lp.b_ub == pytest.approx(rep.objective, abs=1e-8)

    def test_determinism(self):
        rng = np.random.default_rng(77)
        A = rng.normal(size=(8, 10))
        b = np.abs(rng.normal(size=8)) + 0.1
        c = rng.normal(size=10)
        lp1 = _box_lp(c, A, b, np.zeros(10), np.full(10, 2.0))
        lp2 = _box_lp(c, A, b, np.zeros(10), np.full(10, 2.0))
        r1, r2 = solve_lp(lp1), solve_lp(lp2)
        assert np.array_equal(r1.x, r2.x)
        assert r1.objective == r2.objective
        assert r1.iterations == r2.iterations

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            LinearProgram(c=np.ones(2), a_ub=np.ones((1, 2)), b_ub=np.ones(2),
                          lb=np.zeros(2), ub=np.ones(2))
        with pytest.raises(ValueError):
            LinearProgram(c=np.ones(2), a_ub=np.ones((1, 2)), b_ub=np.ones(1),
                          lb=np.array([0.0, -np.inf]), ub=np.ones(2))
        for a_ub in (np.ones((1, 3)), scipy.sparse.csr_array(np.ones((1, 3))),
                     np.ones(2)):
            with pytest.raises(ValueError):
                LinearProgram(c=np.ones(2), a_ub=a_ub, b_ub=np.ones(1),
                              lb=np.zeros(2), ub=np.ones(2))


# ---------------------------------------------------------------------------
# concave barrier solver
# ---------------------------------------------------------------------------

def _quad_row_block(d, c_row, terms):
    """Build a QuadExpRows block from (row, w, p, i, q, j, r) term tuples."""
    terms = list(terms)
    return QuadExpRows(
        d=np.asarray(d, float), C=np.asarray(c_row, float),
        quad_row=[t[0] for t in terms], quad_w=[t[1] for t in terms],
        quad_p=[t[2] for t in terms], quad_i=[t[3] for t in terms],
        quad_q=[t[4] for t in terms], quad_j=[t[5] for t in terms],
        quad_r=[t[6] for t in terms])


class TestBarrier:
    def test_box_corner(self):
        cp = ConcaveProgram(n_vars=2, objective=np.array([1.0, 1.0]),
                            blocks=[], lb=np.zeros(2), ub=np.array([1.0, 2.0]))
        rep = maximize_concave_program(cp, np.array([0.5, 0.5]))
        assert rep.status == "optimal"
        np.testing.assert_allclose(rep.x, [1.0, 2.0], atol=1e-6)
        assert rep.objective == pytest.approx(3.0, abs=1e-6)

    def test_quadratic_cap(self):
        # maximize eta subject to eta <= 4 - x^2: optimum eta=4 at x=0
        blk = _quad_row_block([4.0], [[-1.0, 0.0]],
                              [(0, 1.0, 1.0, 1, 0.0, 0, 0.0)])
        cp = ConcaveProgram(n_vars=2, objective=np.array([1.0, 0.0]),
                            blocks=[blk],
                            lb=np.array([-np.inf, -3.0]),
                            ub=np.array([np.inf, 3.0]))
        rep = maximize_concave_program(cp, np.array([2.0, 0.9]))
        assert rep.status == "optimal"
        assert rep.objective == pytest.approx(4.0, abs=1e-6)
        assert abs(rep.x[1]) <= 1e-4

    def test_exponential_row(self):
        # maximize -u subject to exp(-u) <= 3: optimum u = -ln 3
        blk = QuadExpRows(d=np.array([3.0]), C=np.zeros((1, 1)),
                          exp_row=[0], exp_coef=[1.0], exp_idx=[0])
        cp = ConcaveProgram(n_vars=1, objective=np.array([-1.0]),
                            blocks=[blk], lb=np.array([-10.0]),
                            ub=np.array([10.0]))
        rep = maximize_concave_program(cp, np.array([0.0]))
        assert rep.status == "optimal"
        assert rep.x[0] == pytest.approx(-np.log(3.0), abs=1e-6)

    def test_altitude_ratio_row(self):
        # maximize s with s <= 0.2 + 6 z / sqrt(2500 + z^2), z in [1, 100]:
        # ratio increases with z, so z -> 100
        blk = VRatioRows(d=np.array([0.2]), b2=6.0, c=np.array([2500.0]),
                         z_idx=np.array([0]), s_idx=np.array([1]))
        cp = ConcaveProgram(n_vars=2, objective=np.array([0.0, 1.0]),
                            blocks=[blk],
                            lb=np.array([1.0, -np.inf]),
                            ub=np.array([100.0, np.inf]))
        start = np.array([50.0, 0.0])
        rep = maximize_concave_program(cp, start)
        assert rep.status == "optimal"
        s_best = 0.2 + 6.0 * 100.0 / np.sqrt(2500.0 + 100.0 ** 2)
        assert rep.x[0] == pytest.approx(100.0, abs=1e-4)
        assert rep.objective == pytest.approx(s_best, abs=1e-5)

    @pytest.mark.parametrize("seed", [11, 42, 90])
    def test_random_program_matches_slsqp(self, seed):
        rng = np.random.default_rng(seed)
        n = 5
        c = rng.normal(size=n)
        blocks = []
        cons = []
        for k in range(3):
            nt = int(rng.integers(1, 4))
            terms = [(0, float(rng.uniform(0.2, 1.0)), float(rng.normal()),
                      int(rng.integers(0, n)), float(rng.normal()),
                      int(rng.integers(0, n)), float(rng.normal() * 0.3))
                     for _ in range(nt)]
            crow = rng.normal(size=(1, n)) * 0.3
            blk = _quad_row_block([0.0], crow, terms)
            # lift d so the origin is comfortably feasible
            d0 = float(-blk.values(np.zeros(n))[0]) + 2.0
            blk = _quad_row_block([d0], crow, terms)
            blocks.append(blk)

            def g_fun(x, blk=blk):
                return blk.values(x)[0]
            cons.append({"type": "ineq", "fun": g_fun})

        cp = ConcaveProgram(n_vars=n, objective=c, blocks=blocks,
                            lb=np.full(n, -2.0), ub=np.full(n, 2.0))
        rep = maximize_concave_program(cp, np.zeros(n))
        assert rep.status == "optimal"
        assert rep.feasibility <= 1e-8

        best = -np.inf
        for s in range(5):
            x0 = np.random.default_rng(1000 + s).uniform(-0.5, 0.5, n)
            ref = scipy.optimize.minimize(
                lambda x: -c @ x, x0, method="SLSQP", constraints=cons,
                bounds=[(-2.0, 2.0)] * n,
                options={"maxiter": 500, "ftol": 1e-12})
            if ref.success:
                best = max(best, float(-ref.fun))
        assert np.isfinite(best)
        assert rep.objective == pytest.approx(best, abs=5e-6)

    def test_trace_is_nondecreasing(self):
        blk = _quad_row_block([4.0], [[-1.0, 0.0]],
                              [(0, 1.0, 1.0, 1, 0.0, 0, 0.0)])
        cp = ConcaveProgram(n_vars=2, objective=np.array([1.0, 0.0]),
                            blocks=[blk],
                            lb=np.array([-np.inf, -3.0]),
                            ub=np.array([np.inf, 3.0]))
        rep = maximize_concave_program(cp, np.array([0.0, 0.5]))
        diffs = np.diff(np.asarray(rep.trace))
        assert np.all(diffs >= -1e-9)

    def test_never_worse_than_start(self):
        # start hugging the optimal corner: early centering pulls inward,
        # but the returned point must not lose objective
        cp = ConcaveProgram(n_vars=2, objective=np.array([1.0, 1.0]),
                            blocks=[], lb=np.zeros(2), ub=np.array([1.0, 2.0]))
        start = np.array([1.0 - 1e-9, 2.0 - 1e-9])
        rep = maximize_concave_program(cp, start)
        assert rep.objective >= float(cp.objective @ start) - 1e-9

    def test_infeasible_start_rejected(self):
        cp = ConcaveProgram(n_vars=1, objective=np.array([1.0]),
                            blocks=[], lb=np.array([0.0]), ub=np.array([1.0]))
        with pytest.raises(ValueError, match="strictly feasible"):
            maximize_concave_program(cp, np.array([1.5]))

    @pytest.mark.parametrize("program, start", [
        ("disc", [np.nan, 0.0]), ("disc", [0.0, np.nan]),
        ("disc", [np.inf, 0.0]), ("disc", [-np.inf, 0.0]),
        # a +inf slack is not a strictly feasible start either
        ("half_line", [np.inf]),
        # nor is a non-finite entry where there are no rows to see it
        ("free", [np.nan])])
    def test_non_finite_start_rejected(self, program, start):
        cp = {
            "disc": ConcaveProgram(          # maximize x0, x0^2 + x1^2 <= 1
                n_vars=2, objective=np.array([1.0, 0.0]),
                blocks=[_quad_row_block([1.0], [[0.0, 0.0]],
                                        [(0, 1.0, 1.0, 0, 0.0, 0, 0.0),
                                         (0, 1.0, 1.0, 1, 0.0, 1, 0.0)])]),
            "half_line": ConcaveProgram(     # maximize -x0, x0 >= 0
                n_vars=1, objective=np.array([-1.0]), blocks=[],
                lb=np.array([0.0])),
            "free": ConcaveProgram(n_vars=1, objective=np.array([0.0]),
                                   blocks=[]),
        }[program]
        with pytest.raises(ValueError, match="strictly feasible"):
            maximize_concave_program(cp, np.array(start))

    def test_determinism(self):
        blk = _quad_row_block([4.0], [[-1.0, 0.2]],
                              [(0, 1.0, 1.0, 1, 0.0, 0, 0.0)])

        def run():
            cp = ConcaveProgram(n_vars=2, objective=np.array([1.0, 0.1]),
                                blocks=[blk],
                                lb=np.array([-np.inf, -3.0]),
                                ub=np.array([np.inf, 3.0]))
            return maximize_concave_program(cp, np.array([0.0, 0.5]))

        r1, r2 = run(), run()
        assert np.array_equal(r1.x, r2.x)
        assert r1.objective == r2.objective
        assert r1.trace == r2.trace

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError, match="concavity"):
            QuadExpRows(d=np.zeros(1), C=np.zeros((1, 1)),
                        quad_row=[0], quad_w=[-1.0], quad_p=[1.0],
                        quad_i=[0], quad_q=[0.0], quad_j=[0], quad_r=[0.0])


def _random_program(seed):
    rng = np.random.default_rng(seed)
    n = 5
    c = rng.normal(size=n)
    blocks = []
    for _ in range(3):
        terms = [(0, float(rng.uniform(0.2, 1.0)), float(rng.normal()),
                  int(rng.integers(0, n)), float(rng.normal()),
                  int(rng.integers(0, n)), float(rng.normal() * 0.3))
                 for _ in range(int(rng.integers(1, 4)))]
        crow = rng.normal(size=(1, n)) * 0.3
        d0 = float(-_quad_row_block([0.0], crow, terms).values(
            np.zeros(n))[0]) + 2.0
        blocks.append(_quad_row_block([d0], crow, terms))
    return (ConcaveProgram(n_vars=n, objective=c, blocks=blocks,
                           lb=np.full(n, -2.0), ub=np.full(n, 2.0)),
            np.zeros(n))


# the TestBarrier programs with their start points
_BARRIER_PROGRAMS = {
    "box": lambda: (ConcaveProgram(
        n_vars=2, objective=np.array([1.0, 1.0]), blocks=[], lb=np.zeros(2),
        ub=np.array([1.0, 2.0])), np.array([0.5, 0.5])),
    "quadratic_cap": lambda: (ConcaveProgram(
        n_vars=2, objective=np.array([1.0, 0.0]),
        blocks=[_quad_row_block([4.0], [[-1.0, 0.0]],
                                [(0, 1.0, 1.0, 1, 0.0, 0, 0.0)])],
        lb=np.array([-np.inf, -3.0]), ub=np.array([np.inf, 3.0])),
        np.array([2.0, 0.9])),
    "exponential": lambda: (ConcaveProgram(
        n_vars=1, objective=np.array([-1.0]),
        blocks=[QuadExpRows(d=np.array([3.0]), C=np.zeros((1, 1)),
                            exp_row=[0], exp_coef=[1.0], exp_idx=[0])],
        lb=np.array([-10.0]), ub=np.array([10.0])), np.array([0.0])),
    "altitude_ratio": lambda: (ConcaveProgram(
        n_vars=2, objective=np.array([0.0, 1.0]),
        blocks=[VRatioRows(d=np.array([0.2]), b2=6.0, c=np.array([2500.0]),
                           z_idx=np.array([0]), s_idx=np.array([1]))],
        lb=np.array([1.0, -np.inf]), ub=np.array([100.0, np.inf])),
        np.array([50.0, 0.0])),
    "coupled_cap": lambda: (ConcaveProgram(
        n_vars=2, objective=np.array([1.0, 0.1]),
        blocks=[_quad_row_block([4.0], [[-1.0, 0.2]],
                                [(0, 1.0, 1.0, 1, 0.0, 0, 0.0)])],
        lb=np.array([-np.inf, -3.0]), ub=np.array([np.inf, 3.0])),
        np.array([0.0, 0.5])),
    # no objective column at all: nothing to eliminate, no coupling rows
    "zero_objective": lambda: (ConcaveProgram(
        n_vars=2, objective=np.zeros(2), blocks=[], lb=np.zeros(2),
        ub=np.array([1.0, 3.0])), np.array([0.2, 0.5])),
    "random_11": lambda: _random_program(11),
    "random_42": lambda: _random_program(42),
    "random_90": lambda: _random_program(90),
}


@pytest.mark.parametrize("name", sorted(_BARRIER_PROGRAMS))
def test_newton_step_matches_dense_solve(name, newton_step_gap):
    cp, start = _BARRIER_PROGRAMS[name]()
    assert newton_step_gap(cp, start) <= 1e-8


@pytest.mark.parametrize("name", sorted(_BARRIER_PROGRAMS))
def test_dual_scale_is_largest_weighted_row_entry(name):
    # dual_scale reads max_i lam_i * max_j |G_ij| straight off the entries
    cp, x = _BARRIER_PROGRAMS[name]()
    system = _NewtonSystem(cp.all_blocks(), cp.objective, x)
    gu = system.jacobian(x)
    lam = np.random.default_rng(5).uniform(0.1, 10.0, system.m)
    row_max = np.zeros(system.m)
    np.maximum.at(row_max, system.urow, np.abs(gu))
    assert system.dual_scale(gu, lam) == float(np.max(lam * row_max))


class _SaddleRows:
    """One constant row whose curvature term joins x[1] and x[2] by
    w * [[1, 1 + delta], [1 + delta, 1]].  That is indefinite for
    delta > 0, so no concave row has it; it makes the banded factor fail
    until the ridge tau exceeds delta."""

    def __init__(self, delta):
        self.delta = delta
        self.d = np.ones(1)

    def values(self, x):
        return self.d.copy()

    def grads(self, x):
        return np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0)

    def curvature(self, x, w):
        off = 1.0 + self.delta
        return (np.array([1, 2, 1, 2]), np.array([1, 2, 2, 1]),
                w[0] * np.array([1.0, 1.0, off, off]))


def _saddle_program(delta):
    """maximize x0 subject to x0 <= 1, plus a saddle on (x1, x2)."""
    rows = LinearRows(d=np.ones(1), rows=[0], cols=[0], vals=[-1.0])
    return ConcaveProgram(n_vars=3, objective=np.array([1.0, 0.0, 0.0]),
                          blocks=[rows, _SaddleRows(delta)])


def test_ridge_recovers_failed_banded_factorization():
    # tau = 0, 1e-14, 1e-12 and 1e-10 leave the saddle indefinite; 1e-8 is
    # the first ridge under which the banded factor exists
    cp = _saddle_program(1e-9)
    x = np.zeros(3)
    system = _NewtonSystem(cp.all_blocks(), cp.objective, x)
    assert (system.nb, system.nd, system.k) == (2, 1, 1)
    lam = w = np.ones(2)
    rhs = np.array([1.0, 0.5, -0.25])
    step = system.direction(x, lam, w, system.jacobian(x), rhs)
    # every diagonal entry is 1, so equilibration leaves the matrix as is
    hess = np.array([[1.0, 0.0, 0.0],
                     [0.0, 1.0, 1.0 + 1e-9],
                     [0.0, 1.0 + 1e-9, 1.0]])
    dense = np.linalg.solve(hess + 1e-8 * np.eye(3), rhs)
    assert step is not None
    assert np.linalg.norm(step - dense) <= 1e-6 * np.linalg.norm(dense)


@pytest.mark.parametrize("name", sorted(_BARRIER_PROGRAMS) + ["saddle"])
def test_no_direction_when_every_ridge_fails(name):
    cp, x = ((_saddle_program(1e-9), np.zeros(3)) if name == "saddle"
             else _BARRIER_PROGRAMS[name]())
    system = _NewtonSystem(cp.all_blocks(), cp.objective, x)
    nan = np.full(system.m, np.nan)
    assert system.direction(x, np.ones(system.m), nan, system.jacobian(x),
                            cp.objective) is None


def test_solver_stalls_without_a_direction():
    # a saddle of depth 0.5 outlasts the largest ridge (1e-2), so the
    # first Newton step already has no direction
    cp = _saddle_program(0.5)
    start = np.array([0.5, 0.0, 0.0])
    rep = maximize_concave_program(cp, start)
    assert rep.status == "stalled"
    assert rep.message == "no Newton direction under any ridge"
    assert rep.iterations == 0
    assert np.array_equal(rep.x, start)
