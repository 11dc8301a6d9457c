"""Solver-layer tests.

The scheduling LP (the dual simplex behind ``solve_lp``) is checked on
hand-solved instances, on its own optimality certificate (nonnegative
activities, slot sums, dual weights in the simplex, complementary
slackness, strong duality), against SciPy's HiGHS as an oracle on seeded
and Hypothesis-drawn rates with zeros, equal rows and duplicate slots, on
disconnected rates and on its input checks; its pivot sides are checked
against a walk over the tie sets.  The barrier path is checked against
analytic optima and a multi-start SLSQP oracle on random concave programs,
and its structured Newton step against a dense solve; a failed
factorization or a non-finite step gives no direction.  Its line
search is checked on a tie-break program the epigraph correction finishes,
on the epigraph columns it reads off the rows (and those it must not
read), and on the eight bundled plans (four schemes on each bundled
scenario), where every step the pre-screen skips is evaluated and fails.
The row set's derivatives are checked against their closed forms and
central differences, with all five term groups at once too, its squares
against the rows along a step, which they bound, and its checks on rows,
columns, term-group shapes, weights and ratio offsets.
Determinism is asserted bit-for-bit.
"""

import itertools
import types

import numpy as np
import pytest
import scipy.linalg.lapack
import scipy.optimize
import scipy.sparse
from hypothesis import given, strategies as st

from uavrice import planner, solvers
from uavrice.evaluation import fit_for_scenario, run_scheme
from uavrice.files import bundled_scenario, load_scenario
from uavrice.solvers import (
    ConcaveRows,
    _NewtonSystem,
    maximize_concave_program,
    solve_lp,
)


def _highs(rates, method="highs"):
    """The scheduling LP through linprog: activities (N, M) and eta."""
    n, m = rates.shape
    nv = n * m + 1
    c = np.zeros(nv)
    c[-1] = -1.0
    col = np.arange(n * m)
    row = np.concatenate([col % m, m + col // m, m + np.arange(n)])
    var = np.concatenate([col, col, np.full(n, nv - 1)])
    val = np.concatenate([np.ones(col.size), -rates.ravel() / m,
                          np.ones(n)])
    rhs = np.zeros(m + n)
    rhs[:m] = 1.0
    res = scipy.optimize.linprog(
        c, A_ub=scipy.sparse.csr_array((val, (row, var)), shape=(m + n, nv)),
        b_ub=rhs, bounds=(0.0, None), method=method)
    assert res.status == 0
    return res.x[:-1].reshape(n, m), -res.fun


def _assert_certified(rep, rates):
    """The report's own certificate, re-derived from its activities and
    node weights."""
    a, w = rep.x, rep.duals
    m = rates.shape[1]
    assert rep.status == "optimal"
    assert a.shape == rates.shape and np.all(a >= 0.0)
    assert np.all(a.sum(axis=0) <= 1.0 + 1e-12)
    assert np.all(w >= 0.0) and w.sum() == pytest.approx(1.0, abs=1e-12)
    totals = np.einsum("nm,nm->n", a, rates) / m
    assert rep.objective == totals.min()
    # complementary slackness: activity only on a slot's top nodes, and
    # every weighted node at the bottleneck
    val = w[:, None] * rates
    top = val.max(axis=0)
    assert np.all((a <= 1e-12) | (val >= top - 1e-12 * (1.0 + top)))
    assert np.all(totals[w > 0.0] <= rep.objective * (1 + 1e-12) + 1e-15)
    # strong duality
    assert top.sum() / m == pytest.approx(rep.objective, rel=1e-12,
                                          abs=1e-15)


class TestSolveLP:
    def test_single_variable(self):
        rep = solve_lp([[3.0]])
        _assert_certified(rep, np.array([[3.0]]))
        assert rep.x.tolist() == [[1.0]]
        assert rep.objective == 3.0
        assert rep.iterations == 0

    def test_scheduling_shape_single_node(self):
        # one node, five slots: everything saturates and eta hits the full
        # average
        rates = np.array([[1.0, 2.0, 0.5, 3.0, 1.5]])
        rep = solve_lp(rates)
        _assert_certified(rep, rates)
        assert np.all(rep.x == 1.0)
        assert rep.objective == pytest.approx(rates.mean(), abs=1e-15)

    def test_max_min_two_nodes_matches_shared_slot_split(self):
        # two nodes competing for one good slot: the max-min optimum splits
        # it so both averages are equal; solved by hand for these numbers
        #   node0 rates: [4, 0], node1 rates: [4, 1]
        # equalized optimum: a00 = x, a10 = 1 - x, with 4x = 4(1-x) + 1 at
        # a11 = 1  ->  x = 5/8, eta = 4 * (5/8) / 2 = 1.25
        rates = np.array([[4.0, 0.0], [4.0, 1.0]])
        rep = solve_lp(rates)
        _assert_certified(rep, rates)
        assert rep.objective == pytest.approx(1.25, abs=1e-15)
        np.testing.assert_allclose(rep.x, [[0.625, 0.0], [0.375, 1.0]],
                                   atol=1e-15)
        np.testing.assert_allclose(rep.duals, [0.5, 0.5], atol=1e-15)

    @pytest.mark.parametrize("seed", [3, 17, 29, 101, 555])
    def test_random_instances_match_linprog(self, seed):
        rng = np.random.default_rng(seed)
        rates = rng.uniform(0.1, 5.0, size=(int(rng.integers(2, 7)),
                                            int(rng.integers(20, 200))))
        rep = solve_lp(rates)
        _assert_certified(rep, rates)
        for method in ("highs-ds", "highs-ipm"):
            a_ref, eta_ref = _highs(rates, method)
            assert rep.objective == pytest.approx(eta_ref, rel=1e-9)
        np.testing.assert_allclose(rep.x, _highs(rates)[0], atol=1e-9)

    def test_duals_satisfy_complementary_slackness(self):
        # node 1 only earns in slot 2, node 0 everywhere: the weights tie in
        # slot 0 or 1 and every weighted node sits at eta
        rates = np.array([[3.0, 2.0, 0.5], [1.0, 1.0, 2.0]])
        rep = solve_lp(rates)
        _assert_certified(rep, rates)
        assert np.all(rep.duals > 0.0)
        totals = np.einsum("nm,nm->n", rep.x, rates) / 3
        np.testing.assert_allclose(totals, rep.objective, rtol=1e-14)

    def test_determinism(self):
        rng = np.random.default_rng(77)
        rates = rng.uniform(0.0, 3.0, size=(5, 140))
        rates[rng.random(rates.shape) < 0.3] = 0.0
        r1, r2 = solve_lp(rates), solve_lp(rates.copy())
        assert np.array_equal(r1.x, r2.x)
        assert np.array_equal(r1.duals, r2.duals)
        assert r1.objective == r2.objective
        assert r1.iterations == r2.iterations

    @pytest.mark.parametrize("zeros", [0.0, 0.3, 0.8])
    def test_warm_start_gives_the_cold_solution(self, zeros):
        # from a related LP's smoothed weights, or any positive weights, the
        # warm start smooths at the last two temperatures only and pivots
        # another way to the same vertex: activities, eta, node weights and
        # certificate to the bit, on 3 x 40 seeded rate matrices, the
        # zero rates splitting some into components
        for seed in range(40):
            rng = np.random.default_rng(seed)
            n, m = int(rng.integers(2, 8)), int(rng.integers(5, 200))
            rates = rng.uniform(0.05, 5.0, (n, m)) * 10.0 ** rng.uniform(
                -3.0, 3.0, (n, 1))
            rates[rng.random((n, m)) < zeros] = 0.0
            cold = solve_lp(rates)
            related = solve_lp(rates * rng.uniform(0.8, 1.25, rates.shape))
            for start in (related.smoothed, rng.uniform(0.01, 100.0, n)):
                warm = solve_lp(rates, start)
                assert warm.x.tobytes() == cold.x.tobytes()
                assert warm.duals.tobytes() == cold.duals.tobytes()
                assert (warm.objective, warm.status, warm.feasibility,
                        warm.stationarity) == (
                    cold.objective, cold.status, cold.feasibility,
                    cold.stationarity)
                assert np.all(warm.smoothed > 0.0)

    def test_smoothing_runs_the_short_ladder_from_a_warm_start(self,
                                                               monkeypatch):
        # a cold LP smooths from 1 / totals over every temperature, a warm
        # one from its start over the last two
        seen = []
        smoothed = solvers._smoothed_weights

        def spy(r, w, taus):
            seen.append((w.copy(), taus))
            return smoothed(r, w, taus)

        monkeypatch.setattr(solvers, "_smoothed_weights", spy)
        rates = np.array([[3.0, 1.0, 2.0], [1.0, 2.0, 2.0]])
        cold = solve_lp(rates)
        warm = solve_lp(rates, [2.0, 5.0])
        assert [taus for _, taus in seen] == [solvers._TAUS,
                                              solvers._TAUS[-2:]]
        np.testing.assert_array_equal(seen[0][0], 1.0 / rates.sum(axis=1))
        np.testing.assert_array_equal(seen[1][0], [2.0, 5.0])
        assert warm.x.tobytes() == cold.x.tobytes()

    @pytest.mark.parametrize("start", [[1.0], [1.0, 0.0], [1.0, -2.0],
                                       [1.0, np.nan], [[1.0, 1.0]]])
    def test_rejects_a_bad_start(self, start):
        with pytest.raises(ValueError, match="start"):
            solve_lp([[3.0, 1.0], [1.0, 2.0]], start)

    def test_rejects_mismatched_shapes(self):
        for rates, text in (([1.0, 2.0], "2-D"), ([[[1.0]]], "2-D"),
                            (np.zeros((0, 3)), "empty"),
                            (np.zeros((2, 0)), "empty")):
            with pytest.raises(ValueError, match=text):
                solve_lp(rates)

    @pytest.mark.parametrize("bad, text", [(np.nan, "non-finite"),
                                           (np.inf, "non-finite"),
                                           (-1e-300, "negative")])
    def test_rejects_bad_entries(self, bad, text):
        rates = np.ones((2, 3))
        rates[1, 2] = bad
        with pytest.raises(ValueError, match=text):
            solve_lp(rates)

    def test_disconnected_components_solve_on_their_own(self):
        # nodes 0 and 1 share slots 0-1, node 2 owns slot 2 alone, slot 3
        # is empty: components {0, 1} (eta 1.0) and {2} (eta 0.25)
        rates = np.array([[4.0, 2.0, 0.0, 0.0],
                          [2.0, 4.0, 0.0, 0.0],
                          [0.0, 0.0, 1.0, 0.0]])
        rep = solve_lp(rates)
        _assert_certified(rep, rates)
        assert rep.objective == 0.25
        np.testing.assert_allclose(
            rep.x, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], atol=1e-15)
        np.testing.assert_array_equal(rep.duals, [0.0, 0.0, 1.0])

    def test_node_no_one_else_can_serve_drops_out(self):
        # node 0 alone earns in slot 0 and far out-earns node 1; the
        # optimum gives slot 1 to node 1, weight 0 to node 0, which keeps
        # slot 0
        rates = np.array([[10.0, 1.0], [0.0, 1.0]])
        rep = solve_lp(rates)
        _assert_certified(rep, rates)
        assert rep.objective == 0.5
        np.testing.assert_array_equal(rep.x, [[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_array_equal(rep.duals, [0.0, 1.0])

    @pytest.mark.parametrize("rates, moves", [
        # the dropped nodes' bottleneck falls short but ties no slot an
        # active node holds, so the active nodes drop out instead
        ([[0.0, 0.0, 0.3, 1.8, 0.0, 0.0, 0.0, 0.0],
          [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.4, 0.0],
          [1.8, 2.2, 1.5, 2.6, 0.0, 0.0, 0.3, 0.0]], "swap"),
        # a dropped node falls short and rejoins through a tie slot
        ([[0.0, 0.0, 0.0, 0.6, 0.0, 1.4, 0.4, 0.0],
          [0.0, 1.5, 2.0, 0.3, 2.2, 0.0, 0.0, 0.0],
          [0.0, 0.0, 1.9, 0.0, 0.3, 0.0, 0.0, 0.0]], "tie"),
    ])
    def test_dropped_side_rejoins_when_short(self, rates, moves, monkeypatch):
        seen = []
        rejoin = solvers._rejoin

        def recording(r, w, active, owner, ties, rest, free, sub):
            was = active.copy()
            rejoin(r, w, active, owner, ties, rest, free, sub)
            seen.append("tie" if active[was].any() else "swap")

        monkeypatch.setattr(solvers, "_rejoin", recording)
        rates = np.array(rates)
        rep = solve_lp(rates)
        assert moves in seen
        _assert_certified(rep, rates)
        assert rep.objective == pytest.approx(_highs(rates)[1], rel=1e-12)

    def test_short_dropped_side_cannot_end_the_solve(self):
        # dropping nodes 0 and 1 with slots 0 and 3 would leave node 1 at
        # 1.4 / 4 against node 2's 1.5 / 4; the optimum gives node 1 a
        # share of slot 2 as well
        rates = np.array([[1.0, 1.0, 0.0, 10.0], [1.4, 0.0, 0.6, 0.0],
                          [0.0, 1.0, 0.5, 0.0]])
        rep = solve_lp(rates)
        _assert_certified(rep, rates)
        assert rep.objective == pytest.approx(1.6 / 1.1 / 4, rel=1e-14)

    def test_failed_certificate_is_reported(self, monkeypatch):
        honest = solvers._max_min

        def shifted(r, start, taus):
            sched = honest(r, start, taus)
            sched.w = sched.w[::-1].copy()
            return sched

        monkeypatch.setattr(solvers, "_max_min", shifted)
        rep = solve_lp([[3.0, 1.0], [1.0, 2.0]])
        assert rep.status == "stalled"
        assert "certificate failed" in rep.message
        assert rep.stationarity > 1e-12


def _looped_components(pos):
    """The components found by growing each unseen node's set through the
    nodes it shares a slot with, in the order of their first node."""
    n = pos.shape[0]
    edges = pos.astype(float)
    share = edges @ edges.T > 0.0
    seen = np.zeros(n, bool)
    out = []
    for i in range(n):
        if seen[i]:
            continue
        nodes = np.zeros(n, bool)
        nodes[i] = True
        while True:
            grown = nodes | share[nodes].any(axis=0)
            if np.array_equal(grown, nodes):
                break
            nodes = grown
        seen |= nodes
        out.append((np.flatnonzero(nodes),
                    np.flatnonzero(pos[nodes].any(axis=0))))
    return out


def test_components_match_a_node_by_node_search():
    # sparse to dense patterns leave edgeless nodes and empty slots; the
    # all-true pattern takes the fast path
    patterns = [np.ones((3, 5), bool), np.zeros((2, 4), bool)]
    for seed in range(1500):
        rng = np.random.default_rng(seed)
        n, k = int(rng.integers(1, 9)), int(rng.integers(1, 25))
        patterns.append(rng.random((n, k)) < rng.uniform(0.0, 0.6))
    assert any(not p.any(axis=1).all() for p in patterns)
    assert any(not p.any(axis=0).all() for p in patterns)
    for pos in patterns:
        got, want = solvers._components(pos), _looped_components(pos)
        assert len(got) == len(want)
        for (nodes, slots), (ref_nodes, ref_slots) in zip(got, want):
            assert np.array_equal(nodes, ref_nodes)
            assert np.array_equal(slots, ref_slots)


def _walked_side(ties, node, slot):
    """Nodes the hypertree of tie sets still joins to node once it leaves
    slot's tie set, found by walking the tie sets."""
    side, frontier = {node}, [node]
    while frontier:
        i = frontier.pop()
        for s, t in ties.items():
            if s != slot and i in t:
                new = set(t) - side
                side |= new
                frontier.extend(new)
    return side


@pytest.mark.parametrize("zeros", [0.0, 0.3])
def test_pivot_side_is_the_part_cut_off(zeros, monkeypatch):
    # every pivot's side, read off the basis matrix, is the part of the
    # hypertree the leaving node stays joined to; cold starts pivot often,
    # and row scales 1e-8..1e4 with zero rates make sides drop out and
    # rejoin
    calls, drops, rejoins = [], [], []
    pivot, rejoin = solvers._pivot, solvers._rejoin

    def recording(r, w, active, owner, ties, slot, node, side):
        calls.append((dict(ties), slot, node, side.copy()))
        moved = pivot(r, w, active, owner, ties, slot, node, side)
        drops.append(not active[side].any())
        return moved

    def counted(*args):
        rejoins.append(True)
        rejoin(*args)

    monkeypatch.setattr(solvers, "_pivot", recording)
    monkeypatch.setattr(solvers, "_rejoin", counted)
    monkeypatch.setattr(solvers, "_smoothed_weights",
                        lambda r, w, taus: w)
    for seed in range(150):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(2, 8)), int(rng.integers(5, 200))
        rates = rng.uniform(0.05, 5.0, (n, m)) * 10.0 ** rng.uniform(
            -8.0, 4.0, (n, 1))
        rates[rng.random((n, m)) < zeros] = 0.0
        _assert_certified(solve_lp(rates), rates)
    assert len(calls) > 10000
    assert any(drops) == any(rejoins) == (zeros > 0.0)
    for ties, slot, node, side in calls:
        want = np.zeros(side.size, bool)
        want[list(_walked_side(ties, node, slot))] = True
        assert np.array_equal(side, want)


@st.composite
def _rates(draw):
    """Rates with N in 1..6 and M in 1..300, from a seeded generator, with
    optional zeros, equal rows and duplicate slots; the flag says whether
    the draw is generic (a unique optimum, almost surely)."""
    n = draw(st.sampled_from(range(1, 7)))
    m = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rates = rng.uniform(0.05, 5.0, size=(n, m))
    zeros = draw(st.sampled_from([0.0, 0.0, 0.3, 0.8]))
    rates[rng.random((n, m)) < zeros] = 0.0
    equal_rows = n > 1 and draw(st.booleans())
    if equal_rows:
        rates[n - 1] = rates[0]
    dup_slots = m > 1 and draw(st.booleans())
    if dup_slots:
        rates[:, m - m // 2:] = rates[:, :m // 2]
    return rates, not (zeros or equal_rows or dup_slots)


@given(_rates())
def test_solve_lp_matches_highs(drawn):
    rates, generic = drawn
    rep = solve_lp(rates)
    _assert_certified(rep, rates)
    a_ref, _ = _highs(rates)
    a_ref = a_ref.clip(0.0, 1.0)
    eta_ref = np.einsum("nm,nm->n", a_ref, rates).min() / rates.shape[1]
    assert rep.objective == pytest.approx(eta_ref, rel=1e-12, abs=1e-300)
    if generic:
        np.testing.assert_allclose(rep.x, a_ref, rtol=0.0, atol=1e-9)


# ---------------------------------------------------------------------------
# concave barrier solver
# ---------------------------------------------------------------------------

def _lin(c):
    """The nonzero entries of a dense linear part c, row by row, as COO
    triples."""
    c = np.asarray(c, float)
    rows, cols = np.nonzero(c)
    return rows, cols, c[rows, cols]


def _quad_rows(d, c_row, anchor=(), diff=()):
    """A row set from a dense linear part, anchor squares (row, w, i, a)
    and difference squares (row, v, i, j)."""
    return ConcaveRows(d=np.asarray(d, float), lin=_lin(c_row),
                       anchor=tuple(zip(*anchor)) or ((),) * 4,
                       diff=tuple(zip(*diff)) or ((),) * 4)


def _stack(*sets):
    """One row set holding the rows of ``sets`` in order: each set's term
    groups renumbered past the rows of the sets before it, and their inner
    rows stacked the same way, in the order of their exponential terms."""
    lo = np.cumsum([0] + [rows.d.size for rows in sets])
    groups = {}
    for name in ("lin", "anchor", "diff", "exp", "ratio"):
        parts = [getattr(rows, name) for rows in sets]
        groups[name] = (
            np.concatenate([part[0] + k for part, k in zip(parts, lo)]),
            *map(np.concatenate, zip(*(part[1:] for part in parts))))
    inner = [rows.inner for rows in sets if rows.inner is not None]
    return ConcaveRows(d=np.concatenate([rows.d for rows in sets]),
                       inner=_stack(*inner) if inner else None, **groups)


def _columns(cols):
    """Inner rows that are the columns ``cols`` themselves, one row each:
    exponential terms exp(-x[u])."""
    cols = np.asarray(cols, np.int64)
    return ConcaveRows(d=np.zeros(cols.size),
                       lin=(np.arange(cols.size), cols, np.ones(cols.size)))


def _bounds(lb, ub):
    """One linear row per finite bound, lower bounds first:
    x[i] - lb[i] >= 0, then ub[i] - x[i] >= 0."""
    lb, ub = np.asarray(lb, float), np.asarray(ub, float)
    lo, hi = np.flatnonzero(np.isfinite(lb)), np.flatnonzero(np.isfinite(ub))
    return ConcaveRows(
        d=np.concatenate([-lb[lo], ub[hi]]),
        lin=(np.arange(lo.size + hi.size), np.concatenate([lo, hi]),
             np.repeat([1.0, -1.0], [lo.size, hi.size])))


def _quadratic_cap():
    """maximize eta subject to eta <= 4 - x^2, x in [-3, 3]: optimum eta=4
    at x=0.  Variables (eta, x)."""
    return (np.array([1.0, 0.0]),
            _stack(_quad_rows([4.0], [[-1.0, 0.0]], anchor=[(0, 1.0, 1, 0.0)]),
                   _bounds([-np.inf, -3.0], [np.inf, 3.0])))


def _epigraph_form(c, rows, start):
    """maximize c @ x over ``rows`` restated as: maximize t subject to
    c @ x - t >= 0 and ``rows``, t a new last column started with slack 1
    in its row.  The solver refuses curvature on an objective column, and
    this form keeps every curvature term on the x columns.  Returns
    (objective, rows, start)."""
    c, start = np.asarray(c, float), np.asarray(start, float)
    n, cols = c.size, np.flatnonzero(c)
    epi = ConcaveRows(d=np.zeros(1), lin=(np.zeros(cols.size + 1, np.int64),
                                          np.append(cols, n),
                                          np.append(c[cols], -1.0)))
    return (np.eye(n + 1)[n], _stack(rows, epi),
            np.append(start, c @ start - 1.0))


def _epigraph_of(c, rows, x):
    """The solver's epigraph columns of the program at x, as lists of
    [rows, cols] by level."""
    system = _NewtonSystem(rows, c)
    return [[part.tolist() for part in level]
            for level in solvers._epigraph(system, c,
                                           system.jacobian(rows.at(x)))]


class TestBarrier:
    def test_box_corner(self):
        rep = maximize_concave_program(
            np.array([1.0, 1.0]), _bounds(np.zeros(2), [1.0, 2.0]),
            np.array([0.5, 0.5]))
        assert rep.status == "optimal"
        np.testing.assert_allclose(rep.x, [1.0, 2.0], atol=1e-6)
        assert rep.objective == pytest.approx(3.0, abs=1e-6)

    def test_quadratic_cap(self):
        rep = maximize_concave_program(*_quadratic_cap(),
                                       np.array([2.0, 0.9]))
        assert rep.status == "optimal"
        assert rep.objective == pytest.approx(4.0, abs=1e-6)
        assert abs(rep.x[1]) <= 1e-4

    def test_exponential_row(self):
        # maximize -u subject to exp(-u) <= 3: optimum u = -ln 3
        rep = maximize_concave_program(*_BARRIER_PROGRAMS["exponential"]())
        assert rep.status == "optimal"
        assert rep.x[0] == pytest.approx(-np.log(3.0), abs=1e-6)

    def test_altitude_ratio_row(self):
        # maximize s with s <= 0.2 + 6 z / sqrt(2500 + z^2), z in [1, 100]:
        # ratio increases with z, so z -> 100
        rep = maximize_concave_program(*_BARRIER_PROGRAMS["altitude_ratio"]())
        assert rep.status == "optimal"
        s_best = 0.2 + 6.0 * 100.0 / np.sqrt(2500.0 + 100.0 ** 2)
        assert rep.x[0] == pytest.approx(100.0, abs=1e-4)
        assert rep.objective == pytest.approx(s_best, abs=1e-5)

    @pytest.mark.parametrize("seed", [11, 42, 90])
    def test_random_program_matches_slsqp(self, seed):
        c, rows, start = _random_program(seed)
        n = c.size
        cons = [{"type": "ineq", "fun": lambda x, k=k: rows.values(x)[k]}
                for k in range(3)]
        rep = maximize_concave_program(*_epigraph_form(c, rows, start))
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
        rep = maximize_concave_program(*_quadratic_cap(),
                                       np.array([0.0, 0.5]))
        diffs = np.diff(np.asarray(rep.trace))
        assert np.all(diffs >= -1e-9)

    def test_never_worse_than_start(self):
        # start hugging the optimal corner: early centering pulls inward,
        # but the returned point must not lose objective
        c = np.array([1.0, 1.0])
        start = np.array([1.0 - 1e-9, 2.0 - 1e-9])
        rep = maximize_concave_program(
            c, _bounds(np.zeros(2), [1.0, 2.0]), start)
        assert rep.objective >= float(c @ start) - 1e-9

    def test_infeasible_start_rejected(self):
        with pytest.raises(ValueError, match="strictly feasible"):
            maximize_concave_program(np.array([1.0]), _bounds([0.0], [1.0]),
                                     np.array([1.5]))

    @pytest.mark.parametrize("program, start", [
        ("disc", [np.nan, 0.0]), ("disc", [0.0, np.nan]),
        ("disc", [np.inf, 0.0]), ("disc", [-np.inf, 0.0]),
        # a +inf slack is not a strictly feasible start either
        ("half_line", [np.inf]),
        # nor is a non-finite entry where there are no rows to see it
        ("free", [np.nan])])
    def test_non_finite_start_rejected(self, program, start):
        c, rows = {
            "disc": (                        # maximize x0, x0^2 + x1^2 <= 1
                np.array([1.0, 0.0]),
                _quad_rows([1.0], [[0.0, 0.0]],
                           anchor=[(0, 1.0, 0, 0.0), (0, 1.0, 1, 0.0)])),
            "half_line": (                   # maximize -x0, x0 >= 0
                np.array([-1.0]), _bounds([0.0], [np.inf])),
            "free": (np.array([0.0]), ConcaveRows(d=np.zeros(0))),
        }[program]
        with pytest.raises(ValueError, match="strictly feasible"):
            maximize_concave_program(c, rows, np.array(start))

    def test_program_without_rows_is_refused(self):
        with pytest.raises(ValueError, match="no constraint rows"):
            maximize_concave_program(np.array([1.0, 0.0]),
                                     ConcaveRows(d=np.zeros(0)), np.zeros(2))

    @pytest.mark.parametrize("start", [np.zeros(1), np.zeros(3),
                                       np.zeros((2, 1))])
    def test_start_must_match_the_objective(self, start):
        with pytest.raises(ValueError, match="does not match the objective"):
            maximize_concave_program(*_quadratic_cap(), start)

    def test_box_rows_are_linear_rows_lower_bounds_first(self):
        # the bounds these programs pass as rows are linear rows, one per
        # finite bound, without curvature
        box = _bounds([0.0, -np.inf, -1.0], [2.0, 5.0, np.inf])
        x = np.array([0.5, 1.0, 3.0])
        np.testing.assert_array_equal(box.values(x), [0.5, 4.0, 1.5, 4.0])
        np.testing.assert_array_equal(box.jac_rows, [0, 1, 2, 3])
        np.testing.assert_array_equal(box.jac_cols, [0, 2, 0, 1])
        np.testing.assert_array_equal(box.at(x).grads, [1.0, 1.0, -1.0, -1.0])
        assert box.curv_rows.size == box.curv_cols.size == 0
        assert box.at(x).curvature(np.ones(4)).size == 0

    def test_determinism(self):
        def run():
            return maximize_concave_program(
                *_BARRIER_PROGRAMS["coupled_cap"]())

        r1, r2 = run(), run()
        assert np.array_equal(r1.x, r2.x)
        assert r1.objective == r2.objective
        assert r1.trace == r2.trace

    @pytest.mark.parametrize("group", [
        {"anchor": ([0], [-1.0], [0], [0.0])},
        {"diff": ([0], [-1.0], [0], [1])},
        {"exp": ([0], [-1.0])},
        {"ratio": ([0], [-1.0], [1.0], [0])}],
        ids=["anchor", "diff", "exp", "ratio"])
    def test_negative_weights_rejected(self, group):
        with pytest.raises(ValueError, match="concavity"):
            ConcaveRows(d=np.zeros(1), **group)

    @pytest.mark.parametrize("c", [0.0, -1.0])
    def test_ratio_offset_must_be_positive(self, c):
        # b x / sqrt(c + x^2) is concave in x >= 0 only for c > 0
        with pytest.raises(ValueError, match="offset c must be positive"):
            ConcaveRows(d=np.zeros(1), ratio=([0], [1.0], [c], [0]))


def _random_program(seed):
    """maximize a random c @ x over three rows, each a random linear part
    less one to three anchor squares and up to two difference squares, in
    the box [-2, 2]^5; the origin has slack 2 in every row."""
    rng = np.random.default_rng(seed)
    n = 5
    c = rng.normal(size=n)
    sets = []
    for _ in range(3):
        anchor = [(0, float(rng.uniform(0.2, 1.0)), int(rng.integers(0, n)),
                   float(rng.normal() * 0.3))
                  for _ in range(int(rng.integers(1, 4)))]
        diff = [(0, float(rng.uniform(0.2, 1.0)),
                 *map(int, rng.choice(n, 2, replace=False)))
                for _ in range(int(rng.integers(0, 3)))]
        crow = rng.normal(size=(1, n)) * 0.3
        d0 = float(-_quad_rows([0.0], crow, anchor, diff).values(
            np.zeros(n))[0]) + 2.0
        sets.append(_quad_rows([d0], crow, anchor, diff))
    sets.append(_bounds(np.full(n, -2.0), np.full(n, 2.0)))
    return c, _stack(*sets), np.zeros(n)


def _tie_break_program(delta=0.05):
    """A max-min program with a tie-break over x (6 chained columns), t
    (3 per-node columns) and eta: maximize (1 - 3 delta) eta + delta sum t
    subject to per-node rows 4 - sum (x_i - a)^2 - t_n >= 0 over two x
    columns each, tie rows t_n - eta >= 0, move rows
    1 - (x_i - x_i+1)^2 >= 0 and end rows 1 - x_0^2, 1 - x_5^2 >= 0.
    Six coupling rows on four objective columns leave a rank-2 update."""
    a = np.random.default_rng(4).uniform(-0.5, 0.5, 6)
    rates = _quad_rows([4.0] * 3, np.hstack([np.zeros((3, 6)), -np.eye(3),
                                              np.zeros((3, 1))]),
                       anchor=[(i // 2, 1.0, i, a[i]) for i in range(6)])
    ties = ConcaveRows(d=np.zeros(3), lin=([0, 1, 2, 0, 1, 2],
                                           [6, 7, 8, 9, 9, 9],
                                           [1.0, 1.0, 1.0, -1.0, -1.0, -1.0]))
    moves = _quad_rows([1.0] * 7, np.zeros((7, 10)),
                       anchor=[(5, 1.0, 0, 0.0), (6, 1.0, 5, 0.0)],
                       diff=[(i, 1.0, i, i + 1) for i in range(5)])
    c = np.concatenate([np.zeros(6), np.full(3, delta), [1.0 - 3.0 * delta]])
    start = np.concatenate([np.zeros(6), np.zeros(3), [-1.0]])
    return c, _stack(rates, ties, moves), start


# the TestBarrier programs as (objective, rows, start)
_BARRIER_PROGRAMS = {
    "box": lambda: (np.array([1.0, 1.0]), _bounds(np.zeros(2), [1.0, 2.0]),
                    np.array([0.5, 0.5])),
    "quadratic_cap": lambda: (*_quadratic_cap(), np.array([2.0, 0.9])),
    "exponential": lambda: _epigraph_form(
        [-1.0], _stack(ConcaveRows(d=np.array([3.0]), exp=([0], [1.0]),
                                   inner=_columns([0])),
                       _bounds([-10.0], [10.0])), [0.0]),
    # s <= 0.2 + 6 z / sqrt(2500 + z^2) over (z, s), z in [1, 100]
    "altitude_ratio": lambda: (
        np.array([0.0, 1.0]),
        _stack(ConcaveRows(d=np.array([0.2]), lin=([0], [1], [-1.0]),
                           ratio=([0], [6.0], [2500.0], [0])),
               _bounds([1.0, -np.inf], [100.0, np.inf])),
        np.array([50.0, 0.0])),
    "coupled_cap": lambda: _epigraph_form(
        [1.0, 0.1],
        _stack(_quad_rows([4.0], [[-1.0, 0.2]], anchor=[(0, 1.0, 1, 0.0)]),
               _bounds([-np.inf, -3.0], [np.inf, 3.0])), [0.0, 0.5]),
    # no objective column at all: nothing to eliminate, no coupling rows
    "zero_objective": lambda: (
        np.zeros(2), _bounds(np.zeros(2), [1.0, 3.0]), np.array([0.2, 0.5])),
    "random_11": lambda: _epigraph_form(*_random_program(11)),
    "random_42": lambda: _epigraph_form(*_random_program(42)),
    "random_90": lambda: _epigraph_form(*_random_program(90)),
    "tie_break": lambda: _tie_break_program(),
}


@pytest.mark.parametrize("name", sorted(_BARRIER_PROGRAMS))
def test_newton_step_matches_dense_solve(name, newton_step_gap):
    assert newton_step_gap(*_BARRIER_PROGRAMS[name]()) <= 1e-8


@pytest.mark.parametrize("name", sorted(_BARRIER_PROGRAMS))
def test_dual_scale_is_largest_weighted_row_entry(name):
    # dual_scale reads max_i lam_i * max_j |G_ij| straight off the entries
    c, rows, x = _BARRIER_PROGRAMS[name]()
    system = _NewtonSystem(rows, c)
    # the eliminated dense columns are exactly the objective's columns
    assert system.nd == np.count_nonzero(c)
    gu = system.jacobian(rows.at(x))
    lam = np.random.default_rng(5).uniform(0.1, 10.0, system.m)
    row_max = np.zeros(system.m)
    np.maximum.at(row_max, system.urow, np.abs(gu))
    assert system.dual_scale(gu, lam) == float(np.max(lam * row_max))


@pytest.mark.parametrize("term", ["cross", "diagonal"])
def test_rejects_curvature_on_an_objective_column(term):
    # cross: 4 - x0 - (x0 - x1)^2 >= 0 with the objective on x0 alone, whose
    # cross term would fall between the dense and the banded block;
    # diagonal: the exponential program unrestated, maximize -u subject to
    # exp(-u) <= 3, whose exponential term lies on its objective column
    if term == "cross":
        c, rows, start = (
            np.array([1.0, 0.0]),
            _stack(_quad_rows([4.0], [[-1.0, 0.0]], diff=[(0, 1.0, 0, 1)]),
                   _bounds([-np.inf, -3.0], [np.inf, 3.0])),
            np.array([0.0, 0.5]))
    else:
        c, rows, start = (
            np.array([-1.0]),
            _stack(ConcaveRows(d=np.array([3.0]), exp=([0], [1.0]),
                               inner=_columns([0])),
                   _bounds([-10.0], [10.0])), np.array([0.0]))
    with pytest.raises(ValueError, match="curvature term lies on an "
                                         "objective column"):
        maximize_concave_program(c, rows, start)


@pytest.mark.parametrize("name", sorted(_BARRIER_PROGRAMS))
def test_woodbury_rank_is_coupling_rows_less_objective_columns(name,
                                                               monkeypatch):
    # the banded solve takes one right-hand side per rank of the update
    # plus the step's own: k - nd + 1 columns
    c, rows, x = _BARRIER_PROGRAMS[name]()
    system = _NewtonSystem(rows, c)
    widths = []
    lapack = solvers._lapack

    def spy(routine, *arrays):
        if routine is scipy.linalg.lapack.dpbtrs:
            widths.append(arrays[-1].shape[1])
        return lapack(routine, *arrays)

    monkeypatch.setattr(solvers, "_lapack", spy)
    p = rows.at(x)
    lam = 1.0 / p.g
    assert system.direction(p, lam, lam * lam, system.jacobian(p),
                            c) is not None
    assert widths == [system.k - system.nd + 1]
    assert name != "tie_break" or (system.k, system.nd) == (6, 4)


def test_objective_columns_beyond_their_rows_get_no_direction():
    # maximize x0 + x1 subject to x0 + x1 <= 1: one coupling row on two
    # objective columns, so U_d'U_d is singular
    rows = ConcaveRows(d=np.ones(1), lin=([0, 0], [0, 1], [-1.0, -1.0]))
    c, x = np.ones(2), np.zeros(2)
    system = _NewtonSystem(rows, c)
    assert (system.k, system.nd) == (1, 2)
    p = rows.at(x)
    assert system.direction(p, np.ones(1), np.ones(1), system.jacobian(p),
                            c) is None


class _SaddleRows:
    """A row set of two rows: 1 - x0 >= 0, and a constant row whose
    curvature term joins x[1] and x[2] by w * [[1, 1 + delta],
    [1 + delta, 1]].  That is indefinite for delta > 0, so no concave row
    has it; it makes the banded factor fail."""

    jac_rows = jac_cols = np.zeros(1, np.int64)
    curv_rows, curv_cols = np.array([1, 2, 1, 2]), np.array([1, 2, 2, 1])

    def __init__(self, delta):
        self.delta = delta
        self.d = np.ones(2)

    def at(self, x):
        off = 1.0 + self.delta
        return types.SimpleNamespace(
            x=x, g=self.d - np.array([x[0], 0.0]), grads=np.array([-1.0]),
            curvature=lambda w: w[1] * np.array([1.0, 1.0, off, off]))


def _saddle_program(delta):
    """maximize x0 subject to x0 <= 1, plus a saddle on (x1, x2), as
    (objective, rows)."""
    return np.array([1.0, 0.0, 0.0]), _SaddleRows(delta)


@pytest.mark.parametrize("name", sorted(_BARRIER_PROGRAMS) + ["saddle"])
def test_no_direction_from_a_failed_factorization_or_nan_weights(name):
    # the saddle's banded factor fails at unit weights, with no retry;
    # every other program's NaN weights give no finite step
    if name == "saddle":
        (c, rows), x = _saddle_program(1e-9), np.zeros(3)
        fill = 1.0
    else:
        c, rows, x = _BARRIER_PROGRAMS[name]()
        fill = np.nan
    system = _NewtonSystem(rows, c)
    w = np.full(system.m, fill)
    p = rows.at(x)
    assert system.direction(p, np.ones(system.m), w, system.jacobian(p),
                            c) is None


def test_solver_stalls_without_a_direction():
    # the saddle leaves the first Newton step without a direction
    start = np.array([0.5, 0.0, 0.0])
    rep = maximize_concave_program(*_saddle_program(0.5), start)
    assert rep.status == "stalled"
    assert rep.message == "no Newton direction"
    assert rep.iterations == 0
    assert np.array_equal(rep.x, start)


def _random_rows(rng, n, m, n_anchor, n_diff, n_exp, n_ratio=0,
                 inner=None):
    """A row set of m rows over n variables: a random linear part and the
    given numbers of random anchor, difference (over two distinct
    variables), exponential and ratio terms.  The exponents are the rows
    of ``inner``, or else random columns (``_columns``)."""
    d_i = rng.integers(0, n, n_diff)
    return ConcaveRows(
        d=np.ones(m), lin=_lin(rng.normal(size=(m, n))),
        anchor=(rng.integers(0, m, n_anchor), rng.uniform(0.1, 1.0, n_anchor),
                rng.integers(0, n, n_anchor), rng.normal(size=n_anchor)),
        diff=(rng.integers(0, m, n_diff), rng.uniform(0.1, 1.0, n_diff), d_i,
              (d_i + rng.integers(1, n, n_diff)) % n),
        exp=(rng.integers(0, m, n_exp), rng.uniform(0.1, 1.0, n_exp)),
        ratio=(rng.integers(0, m, n_ratio), rng.uniform(0.1, 1.0, n_ratio),
               rng.uniform(0.5, 2.0, n_ratio), rng.integers(0, n, n_ratio)),
        inner=(inner if inner is not None or not n_exp
               else _columns(rng.integers(0, n, n_exp))))


def test_values_read_the_array_as_it_is_now():
    # nothing is remembered between calls: the slacks of an array changed
    # in place (as the trajectory builder changes its start) are the new
    # ones, and a point keeps the slacks of the x it was made at
    rng = np.random.default_rng(11)
    rows = _random_rows(rng, 5, 4, 3, 3, 3, 2)
    x = rng.uniform(0.5, 1.5, 5)
    before, p = rows.values(x), rows.at(x.copy())
    x[2] += 0.5
    after = rows.values(x)
    assert not np.array_equal(before, after)
    assert after.tobytes() == rows.values(x.copy()).tobytes()
    assert p.g.tobytes() == before.tobytes()


@pytest.mark.parametrize("anchor, diff, exp, ratio",
                         list(itertools.product([True, False], repeat=4)))
def test_empty_term_groups_leave_the_derivatives_as_they_were(anchor, diff,
                                                              exp, ratio):
    # grads and curvature return the formula's values over every group in
    # the pattern's order, whichever groups are empty: an anchor square has
    # entries on x[i] alone, a difference square on x[i] and x[j] and the
    # cross entry both ways, a ratio on x[i] alone
    rng = np.random.default_rng(7)
    n = 6
    rows = _random_rows(rng, n, 3, 5 * anchor, 4 * diff, 4 * exp, 3 * ratio)
    x, w = rng.normal(size=n), rng.uniform(0.5, 2.0, 3)
    a_row, a_w, a_i, a = rows.anchor
    d_row, d_v, d_i, d_j = rows.diff
    e_row, e = rows.exp
    # each exponent is a column: the one entry of its inner row
    u = rows.inner.lin[1] if exp else np.zeros(0, np.int64)
    r_row, b, c, r_i = rows.ratio
    ta, td, z = x[a_i] - a, x[d_i] - x[d_j], x[r_i]
    grads = np.concatenate([rows.lin[2], -(2.0 * a_w * ta), -(2.0 * d_v * td),
                            2.0 * d_v * td, e * np.exp(-x[u]),
                            b * c / (c + z * z) ** 1.5])
    ca, cd = 2.0 * a_w * w[a_row], 2.0 * d_v * w[d_row]
    curv = np.concatenate([ca, cd, cd, -cd, -cd,
                           w[e_row] * (e * np.exp(-x[u])),
                           w[r_row] * (3.0 * b * c * z / (c + z * z) ** 2.5)])
    assert rows.at(x).grads.tobytes() == grads.tobytes()
    assert rows.at(x).curvature(w).tobytes() == curv.tobytes()
    np.testing.assert_array_equal(rows.jac_rows, np.concatenate(
        [rows.lin[0], a_row, d_row, d_row, e_row, r_row]))
    np.testing.assert_array_equal(rows.jac_cols, np.concatenate(
        [rows.lin[1], a_i, d_i, d_j, u, r_i]))
    np.testing.assert_array_equal(rows.curv_rows, np.concatenate(
        [a_i, d_i, d_j, d_i, d_j, u, r_i]))
    np.testing.assert_array_equal(rows.curv_cols, np.concatenate(
        [a_i, d_i, d_j, d_j, d_i, u, r_i]))


def _assert_central_differences(rows, x, lam, h, jac_tol, hess_tol):
    """grads and curvature, scattered onto their patterns, match the first
    and second central differences of the slacks at x, each within its
    (rtol, atol)."""
    n, eye = x.size, np.eye(x.size)
    jac = np.zeros((rows.d.size, n))
    np.add.at(jac, (rows.jac_rows, rows.jac_cols), rows.at(x).grads)
    fd_jac = np.stack([(rows.values(x + h * e) - rows.values(x - h * e))
                       / (2.0 * h) for e in eye], axis=1)
    np.testing.assert_allclose(jac, fd_jac, *jac_tol)
    hess = np.zeros((n, n))
    np.add.at(hess, (rows.curv_rows, rows.curv_cols),
              rows.at(x).curvature(lam))

    def f(z):
        return lam @ rows.values(z)
    fd_hess = np.array([[-(f(x + h * (a + b)) - f(x + h * (a - b))
                           - f(x - h * (a - b)) + f(x - h * (a + b)))
                         / (4.0 * h * h) for b in eye] for a in eye])
    np.testing.assert_allclose(hess, fd_hess, *hess_tol)


@pytest.mark.parametrize("shape", ["anchor", "diff"])
def test_square_derivatives_match_the_formula_and_central_differences(shape):
    # each shape's grads and curvature equal its closed form bit for bit,
    # and, scattered onto their patterns, the central differences of the
    # slacks: exact up to rounding, since the rows are quadratic
    rng = np.random.default_rng(3)
    n, m = 4, 2
    rows = _random_rows(rng, n, m, 6 * (shape == "anchor"),
                        6 * (shape == "diff"), 0)
    x, lam = rng.normal(size=n), rng.uniform(0.5, 2.0, m)
    r, w, i, y = getattr(rows, shape)
    t = x[i] - (y if shape == "anchor" else x[y])
    c2 = 2.0 * w * lam[r]
    grads, curv = (-(2.0 * w * t), c2) if shape == "anchor" else (
        np.concatenate([-(2.0 * w * t), 2.0 * w * t]),
        np.concatenate([c2, c2, -c2, -c2]))
    k = rows.lin[2].size
    assert rows.at(x).grads[k:].tobytes() == grads.tobytes()
    assert rows.at(x).curvature(lam).tobytes() == curv.tobytes()
    _assert_central_differences(rows, x, lam, 1e-2, jac_tol=(1e-9, 1e-10),
                                hess_tol=(1e-7, 1e-8))


def test_all_five_term_groups_match_central_differences():
    # one row set with linear, anchor, difference, exponential and ratio
    # terms, several on each row, whose exponents are inner rows with
    # linear, anchor, difference and ratio terms: the exponential and ratio
    # terms are not quadratic, so the differences carry O(h^2) truncation
    # error
    rng = np.random.default_rng(9)
    n, m = 5, 3
    rows = _random_rows(rng, n, m, 4, 3, 3, 4,
                        inner=_random_rows(rng, n, 3, 2, 1, 0, 2))
    assert all(getattr(rows, g)[0].size for g in
               ("lin", "anchor", "diff", "exp", "ratio"))
    x, lam = rng.uniform(0.2, 1.5, n), rng.uniform(0.5, 2.0, m)
    _assert_central_differences(rows, x, lam, 1e-4, jac_tol=(1e-6, 1e-7),
                                hess_tol=(1e-6, 1e-7))


def test_squares_bound_every_row_along_a_step():
    # along x + t dx a row never rises above g + t gdx - t^2 squares(dx):
    # rows of linear, anchor and difference terms alone equal it, and a
    # row with an exponential or ratio term lies strictly below (those
    # terms are concave along the step, the ratios while their columns
    # stay nonnegative)
    rng = np.random.default_rng(12)
    n, m = 5, 4
    five = _random_rows(rng, n, m, 4, 3, 3, 4,
                        inner=_random_rows(rng, n, 3, 2, 1, 0, 2))
    quad = _random_rows(rng, n, m, 5, 4, 0)
    x, dx = rng.uniform(0.2, 1.5, n), rng.normal(size=n)
    ratio_cols = np.concatenate([five.ratio[3], five.inner.ratio[3]])
    dx[ratio_cols] = np.abs(dx[ratio_cols])
    curved = np.union1d(five.exp[0], five.ratio[0])
    assert 0 < curved.size < m
    for rows in (five, quad):
        jac = np.zeros((m, n))
        np.add.at(jac, (rows.jac_rows, rows.jac_cols), rows.at(x).grads)
        g, gdx, q = rows.values(x), jac @ dx, rows.squares(dx)
        assert q.shape == (m,) and np.all(q > 0.0)
        for t in (0.1, 0.5, 1.0, 3.0):
            bound = g + t * gdx - t * t * q
            gt = rows.values(x + t * dx)
            flat = (np.arange(m) if rows is quad
                    else np.setdiff1d(np.arange(m), curved))
            np.testing.assert_allclose(gt[flat], bound[flat], rtol=1e-12,
                                       atol=1e-12 * (1.0 + t * t))
            if rows is five:
                assert np.all(gt[curved] < bound[curved])


@pytest.mark.parametrize("group", [
    {"lin": ([1], [0], [1.0])}, {"anchor": ([-1], [1.0], [0], [0.0])},
    {"diff": ([1], [1.0], [0], [1])}, {"exp": ([2], [1.0])},
    {"ratio": ([1], [1.0], [1.0], [0])}],
    ids=["lin", "anchor", "diff", "exp", "ratio"])
def test_rows_refuse_a_row_outside_the_set(group):
    # a row past d.size would add a slack the set does not have, and a
    # negative one would wrap onto its last row
    with pytest.raises(ValueError, match=r"row index lies outside \[0, 1\)"):
        ConcaveRows(d=np.ones(1), **group)


@pytest.mark.parametrize("group", [
    {"lin": ([0], [-1], [1.0])}, {"anchor": ([0], [1.0], [-1], [0.0])},
    {"diff": ([0], [1.0], [0], [-2])},
    {"ratio": ([0], [1.0], [1.0], [-1])}],
    ids=["lin", "anchor", "diff", "ratio"])
def test_rows_refuse_a_negative_column(group):
    with pytest.raises(ValueError, match="column index is negative"):
        ConcaveRows(d=np.ones(1), **group)


@pytest.mark.parametrize("group", [
    {"lin": ([0, 0], [0], [1.0])}, {"anchor": ([0], [1.0], [0])},
    {"diff": ([[0]], [1.0], [0], [1])},
    {"ratio": ([0], [1.0], [2500.0, 1.0], [0])},
    {"exp": ([0], [1.0], [0])}],
    ids=["ragged", "short", "2-D", "ratio-ragged", "exp-column"])
def test_rows_refuse_a_malformed_term_group(group):
    # exp-column: an exponential term takes its exponent from an inner
    # row, not from a column
    with pytest.raises(ValueError, match="1-D arrays of one size"):
        ConcaveRows(d=np.ones(1), **group)


@pytest.mark.parametrize("n_inner", [0, 2])
def test_exp_terms_want_one_inner_row_each(n_inner):
    inner = _columns(np.zeros(n_inner, np.int64)) if n_inner else None
    with pytest.raises(ValueError, match="exp: want one inner row per term"):
        ConcaveRows(d=np.ones(1), exp=([0], [1.0]), inner=inner)


@pytest.mark.parametrize("extra", ["linear", "saddle"])
def test_solver_refuses_a_column_beyond_the_start(extra):
    # maximize x0 subject to x0 <= 1, plus a row that reaches column 2 of
    # a two-variable start: a linear entry, or a curvature term whose
    # values never index x.  Its Jacobian key would alias onto the next
    # row, so the solver refuses it before the first Newton step
    rows = (ConcaveRows(d=np.ones(2), lin=([0, 1], [0, 2], [-1.0, -1.0]))
            if extra == "linear" else _SaddleRows(0.0))
    with pytest.raises(ValueError, match="beyond the 2 variables"):
        maximize_concave_program(np.array([1.0, 0.0]), rows,
                                 np.array([0.5, 0.0]))


# ---------------------------------------------------------------------------
# line search: pre-screen and epigraph correction
# ---------------------------------------------------------------------------

def _tie_program(t_slope=1.0):
    """maximize 0.9 eta + 0.05 (t0 + t1) over (x, t0, t1, eta), x in
    [-100, 100], subject to the rate rows
    t0 <= -0.1 (x - 10)^2 - 0.1 exp(-s(x))  (row 0, s(x) = -0.1 x^2 its
    inner row) and t1 <= 1 - 0.1 x  (row 1), and the tie rows
    eta <= t0, eta <= t1  (rows 2 and 3).  Row 0 is written with
    -t_slope * t0, scaled through; with slope 1 the solver reads t0 and t1
    over their rate rows and eta over the tie rows.  Started at x = 0,
    each t_n 1e-6 under its rate row and eta 1e-6 under t0."""
    k = t_slope
    rates = ConcaveRows(
        d=[0.0, 1.0], lin=([0, 1, 1], [1, 0, 2], [-k, -0.1, -1.0]),
        anchor=([0], [0.1 * k], [0], [10.0]), exp=([0], [0.1 * k]),
        inner=ConcaveRows(d=[0.0], anchor=([0], [0.1], [0], [0.0])))
    ties = ConcaveRows(d=np.zeros(2), lin=([0, 0, 1, 1], [1, 3, 2, 3],
                                           [1.0, -1.0, 1.0, -1.0]))
    free = np.full(3, np.inf)
    rows = _stack(rates, ties, _bounds(np.append(-100.0, -free),
                                       np.append(100.0, free)))
    start = np.array([0.0, -10.1 - 1e-6, 1.0 - 1e-6, -10.1 - 2e-6])
    return np.array([0.0, 0.05, 0.05, 0.9]), rows, start


def _tie_optimum():
    """The optimum of the tie program's one-variable reduction, with each
    t_n on its rate row and eta = t0, the smaller."""
    return scipy.optimize.minimize_scalar(
        lambda x: (0.95 * (0.1 * (x - 10.0) ** 2 + 0.1 * np.exp(0.1 * x * x))
                   - 0.05 * (1.0 - 0.1 * x)),
        bounds=(-100.0, 100.0), method="bounded", options={"xatol": 1e-10})


def test_epigraph_is_read_off_the_tie_program():
    # two levels: each t_n over its rate row, then eta over the tie rows
    assert _epigraph_of(*_tie_program()) == [[[0, 1], [1, 2]],
                                             [[2, 3], [3, 3]]]
    # a rate row written with -2 t0 leaves t0 no epigraph column; t1 and
    # eta still are
    assert _epigraph_of(*_tie_program(t_slope=2.0)) == [[[1], [2]],
                                                        [[2, 3], [3, 3]]]


def test_epigraph_correction_finishes_a_tie_program_crawl():
    # with row 0 written with -2 t0 the solver reads no epigraph column
    # over it, so every long step bends that rate row negative and the
    # solve crawls into the 200-step cap; with -t0 the correction restores
    # the rows' linear predictions and the solve ends optimal
    crawl = maximize_concave_program(*_tie_program(t_slope=2.0))
    assert crawl.status == "stalled" and crawl.iterations == 200
    rep = maximize_concave_program(*_tie_program())
    assert rep.status == "optimal" and rep.iterations <= 20
    best = _tie_optimum()
    assert rep.x[0] == pytest.approx(best.x, abs=1e-5)
    assert rep.objective == pytest.approx(-best.fun, abs=2e-6)
    assert rep.objective > crawl.objective


@pytest.mark.parametrize("slope", [1.0, 0.5])
def test_objective_column_off_slope_gets_no_eta_correction(slope,
                                                           monkeypatch):
    # maximize eta over (eta, x), x in [-3, 3], subject to
    # eta <= 5 - exp(x^2) and slope * eta <= slope * (2 + 2 x): the optimum
    # is eta = 2 + 2 x at the root of 5 - exp(x^2) = 2 + 2 x.  The
    # exponential's curvature is hidden from the pre-screen, so some trials
    # fail and reach the correction.  With slope 0.5, eta enters its second
    # row off -1, so it is no epigraph column and the correction never
    # moves it
    c = np.array([1.0, 0.0])
    rows = _stack(ConcaveRows(d=[5.0, 2.0 * slope],
                              lin=_lin([[-1.0, 0.0], [-slope, 2.0 * slope]]),
                              exp=([0], [1.0]),
                              inner=ConcaveRows(d=[0.0], anchor=([0], [1.0],
                                                                 [1], [0.0]))),
                  _bounds([-np.inf, -3.0], [np.inf, 3.0]))
    start = np.zeros(2)
    eta = [[0, 1], [0, 0]] if slope == 1.0 else [[], []]
    assert _epigraph_of(c, rows, start) == [[[], []], eta]
    correct = solvers._epigraph_correction
    moved = []

    def spy(epigraph, rows, pt, pred):
        corrected = correct(epigraph, rows, pt, pred)
        moved.append(corrected.x[0] != pt.x[0])
        return corrected

    monkeypatch.setattr(solvers, "_epigraph_correction", spy)
    rep = maximize_concave_program(c, rows, start)
    assert moved and any(moved) == (slope == 1.0)
    assert rep.status == "optimal"
    best = scipy.optimize.brentq(
        lambda x: 3.0 - np.exp(x * x) - 2.0 * x, 0.0, 1.0, xtol=1e-14)
    assert rep.objective == pytest.approx(2.0 + 2.0 * best, abs=1e-6)
    assert rep.x[1] == pytest.approx(best, abs=1e-6)


def test_pre_screen_skips_only_trials_that_fail(monkeypatch):
    # every trial step the pre-screen skips on the eight bundled
    # plans (four schemes on each bundled scenario) fails strict
    # positivity, before and after the epigraph correction, so evaluating
    # it could not have changed the solve
    # (objective, rows, start, x, dx, first t, t_max), one per line search
    steps = []
    solve, direction = planner.maximize_concave_program, _NewtonSystem.direction
    trial_steps = solvers._trial_steps
    seen = {}

    def spy_solve(c, rows, start, **kw):
        seen["program"] = c, rows, start
        return solve(c, rows, start, **kw)

    def spy_direction(system, p, *args):
        dx = direction(system, p, *args)
        seen["x"], seen["dx"] = p.x, dx
        return dx

    def spy_trial_steps(t, t_max):
        steps.append((*seen["program"], seen["x"], seen["dx"], t, t_max))
        return trial_steps(t, t_max)

    monkeypatch.setattr(planner, "maximize_concave_program", spy_solve)
    monkeypatch.setattr(_NewtonSystem, "direction", spy_direction)
    monkeypatch.setattr(solvers, "_trial_steps", spy_trial_steps)
    for name in ("scenario_1sn.json", "scenario_4sn.json"):
        scen = load_scenario(bundled_scenario(name))
        model = fit_for_scenario(scen)
        for scheme in ("lb", "rfla", "rffsa", "rfb"):
            run_scheme(scheme, scen, model, simulate=False)
    monkeypatch.undo()

    skipped = 0
    for c, rows, start, x, dx, t, t_max in steps:
        if t <= t_max:
            continue
        system = _NewtonSystem(rows, c)
        epigraph = solvers._epigraph(system, c,
                                     system.jacobian(rows.at(start)))
        p = rows.at(x)
        gdx = system.matvec(system.jacobian(p), dx)
        while t > t_max:
            pt = rows.at(x + t * dx)
            assert not pt.g.min() > 0.0
            corrected = solvers._epigraph_correction(epigraph, rows, pt,
                                                     p.g + t * gdx)
            assert not corrected.g.min() > 0.0
            skipped += 1
            t *= 0.5
    assert len(steps) > 400 and skipped > 100
