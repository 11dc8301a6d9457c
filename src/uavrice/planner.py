"""Trajectory and scheduling optimization.

The planner alternates two tangent-bound trajectory steps, on the horizontal
path and on the altitude profile, until the max-min average rate stops
improving; every plan it holds carries the scheduling LP's slot activities
for its own trajectory.  Rate expressions use the fitted logistic
link-quality model; a degenerate model with c2 = 0 collapses everything to
the pure line-of-sight planner used as the lower benchmark.

Discretization convention: a mission of M slots has M+1 waypoints indexed
0..M.  Waypoints 0 and M are the fixed endpoints; slot m (1-based) is
evaluated at waypoint m.  Slot-indexed arrays are stored 0-based, so column
k corresponds to slot k+1 at waypoint k+1.
"""

import math
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .channel import Scenario, rate_from_gain
from .fading import LogisticModel
from .solvers import (ConcaveRows, dual_bound, maximize_concave_program,
                      solve_lp)

LOG2E = math.log2(math.e)

#: logistic parameters that pin the link gain at 1 (pure line-of-sight)
LOS_MODEL = LogisticModel(b1=0.0, b2=0.0, c1=1.0, c2=0.0)


@dataclass
class Plan:
    """One candidate mission: waypoints, altitudes, and slot activities."""

    q: np.ndarray            # (M+1, 2) horizontal waypoints
    z: np.ndarray            # (M+1,) altitudes
    a: np.ndarray            # (N, M) activity fractions for slots 1..M

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=float)
        self.z = np.asarray(self.z, dtype=float)
        self.a = np.asarray(self.a, dtype=float)
        if self.q.ndim != 2 or self.q.shape[1] != 2:
            raise ValueError("waypoints must have shape (M+1, 2)")
        if self.z.shape != (self.q.shape[0],):
            raise ValueError("altitude count must match waypoint count")
        if self.a.ndim != 2:
            raise ValueError("activities must have shape (N, M)")
        if self.a.shape[1] != self.q.shape[0] - 1:
            raise ValueError("activity columns must equal the slot count")

    @property
    def n_slots(self):
        return self.q.shape[0] - 1

    def copy(self):
        return Plan(q=self.q.copy(), z=self.z.copy(), a=self.a.copy())


#: tolerance of check_plan, relative to each limit (or to 1 when smaller)
PLAN_RTOL = 1e-6


def check_plan(plan: Plan, scenario: Scenario):
    """Worst violation of each feasibility constraint: one message per
    violated constraint, none when the plan fits the scenario.

    The constraints are the (N, M) activity shape, finite values, activity
    in [0, 1] with each slot's column sum at most 1, the horizontal step
    limit sxy, the climb limit sz, the altitude floor h_min and the pinned
    endpoints.
    """
    want = (scenario.n_sn, scenario.n_slots)
    if plan.a.shape != want:
        return [f"plan was made for {plan.a.shape[0]} nodes x "
                f"{plan.a.shape[1]} slots; scenario has {want[0]} x "
                f"{want[1]}"]
    if not all(np.isfinite(x).all() for x in (plan.q, plan.z, plan.a)):
        return ["plan holds non-finite values"]
    pins = np.concatenate([scenario.q0, scenario.qf,
                           [scenario.z0, scenario.zf]])
    ends = np.concatenate([plan.q[0], plan.q[-1], plan.z[[0, -1]]])
    worst = {  # constraint: (worst excess over its limit, the limit)
        "activity outside [0, 1]":
            (max(-plan.a.min(), plan.a.max() - 1.0), 1.0),
        "slot activity sum above 1": (plan.a.sum(axis=0).max() - 1.0, 1.0),
        "horizontal step above sxy":
            (np.linalg.norm(np.diff(plan.q, axis=0), axis=1).max()
             - scenario.sxy, scenario.sxy),
        "climb above sz":
            (np.abs(np.diff(plan.z)).max() - scenario.sz, scenario.sz),
        "altitude below h_min":
            (scenario.h_min - plan.z.min(), scenario.h_min),
        "endpoint off its pin":
            (np.abs(ends - pins).max(), np.abs(pins).max()),
    }
    return [f"{name} by {excess:.9g}" for name, (excess, limit)
            in worst.items() if excess > PLAN_RTOL * max(limit, 1.0)]


def slot_geometry(q, z, scenario: Scenario):
    """Squared distance and elevation indicator per (node, slot), each of
    shape (N, M): slot m sits at waypoint m.  Raises when a slot comes
    closer to a node than the path-loss model's 1 m reference distance."""
    q = np.asarray(q, dtype=float)[1:]          # (M, 2)
    z = np.asarray(z, dtype=float)[1:]          # (M,)
    diff = q[None, :, :] - scenario.sn_positions[:, None, :]
    d2 = np.einsum("nmk,nmk->nm", diff, diff) + z[None, :] ** 2
    if np.any(d2 < 1.0):
        raise ValueError("distance below the 1 m reference is outside the model")
    return d2, z[None, :] / np.sqrt(d2)


def predicted_rates(q, z, scenario: Scenario, model: LogisticModel):
    """Model-based per-slot rates, shape (N, M)."""
    d2, v = slot_geometry(q, z, scenario)
    f = model.predict(np.clip(v, 0.0, 1.0))
    return rate_from_gain(f, scenario.snr_gamma_per_sn[:, None], d2,
                          scenario.alpha)


def max_min_rate(a, rates):
    """Max-min objective: worst per-node average of activity-weighted rates
    for activities a and per-slot rates, both (N, M)."""
    a = np.asarray(a, dtype=float)
    totals = np.einsum("nm,nm->n", a, np.asarray(rates, dtype=float))
    return float(totals.min()) / a.shape[1]


def initialize_plan(scenario: Scenario) -> Plan:
    """Straight-line path at linear altitude with evenly shared slots."""
    m_slots = scenario.n_slots
    frac = np.linspace(0.0, 1.0, m_slots + 1)
    q = scenario.q0[None, :] + frac[:, None] * (scenario.qf - scenario.q0)
    z = scenario.z0 + frac * (scenario.zf - scenario.z0)
    a = np.full((scenario.n_sn, m_slots), 1.0 / scenario.n_sn)
    return Plan(q=q, z=z, a=a)


# ---------------------------------------------------------------------------
# scheduling block
# ---------------------------------------------------------------------------

def solve_scheduling(rates, start=None):
    """Max-min slot assignment LP for fixed per-slot rates (N, M).

    Returns the activities, their max-min objective, the LP's node weights
    (its duals, for ``dual_bound``) and its smoothed start weights, solved
    exactly by ``solve_lp``'s dual simplex over the node weights;
    ``start``, smoothed weights of a related LP, warm-starts it.
    Every slot where some node has a positive rate (every planner slot) is
    filled; a slot where all rates are exactly zero stays idle.  Raises
    ValueError for rates that are not a nonempty 2-D array of finite
    nonnegative numbers, and RuntimeError when the schedule's optimality
    certificate fails.
    """
    rep = solve_lp(rates, start)
    if rep.status != "optimal":
        raise RuntimeError(f"scheduling LP came back {rep.status}: "
                           f"{rep.message}")
    return rep.x, rep.objective, rep.duals, rep.smoothed


def round_schedule(a, rates):
    """Integer slot owners from fractional activities: argmax per slot, then
    greedy reassignment toward the max-min objective.  Returns (M,) owner
    indices with -1 for slots carrying no activity at all."""
    a = np.asarray(a, dtype=float)
    rates = np.asarray(rates, dtype=float)
    n_sn, m_slots = a.shape
    sn = np.full(m_slots, -1, dtype=np.int64)
    active = a.max(axis=0) > 1e-9
    sn[active] = np.argmax(a[:, active], axis=0)
    share = rates / m_slots
    node = np.arange(n_sn)[:, None]
    avg = np.array([rates[n, sn == n].sum() for n in range(n_sn)]) / m_slots
    for _ in range(n_sn * m_slots):
        n_star = int(np.argmin(avg))
        trial = (avg[:, None] + np.where(node == n_star, share, 0.0)
                 - np.where(node == sn, share, 0.0))
        gain = np.where(sn == n_star, -np.inf, trial.min(axis=0) - avg.min())
        # the first slot that beats every earlier one by more than 1e-15
        best_m, best_gain = -1, 0.0
        while (beat := np.flatnonzero(gain[best_m + 1:]
                                      > best_gain + 1e-15)).size:
            best_m += 1 + int(beat[0])
            best_gain = gain[best_m]
        if best_m < 0:
            break
        donor = sn[best_m]
        sn[best_m] = n_star
        avg[n_star] += share[n_star, best_m]
        if donor >= 0:
            avg[donor] -= share[donor, best_m]
    return sn


# ---------------------------------------------------------------------------
# tangent-bound coefficients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SCACoefficients:
    """Per-(node, slot) constants of the tangent lower bound taken at the
    current iterate.  All arrays share one broadcast shape."""

    v_hat: np.ndarray        # elevation indicator at the expansion point
    s_hat: np.ndarray        # logistic argument b1 + b2 * v_hat
    r_hat: np.ndarray        # rate value at the expansion point
    phi: np.ndarray          # sensitivity to exp(-s)
    psi: np.ndarray          # sensitivity to the squared horizontal offset
    lam: np.ndarray          # tangent slope of v in the squared offset
    y: np.ndarray            # squared 3D distance at the expansion point


def tangent_coefficients(d2q, z, gamma, model: LogisticModel,
                         alpha) -> SCACoefficients:
    """Expansion constants at squared horizontal offsets d2q and altitude z.

    The same formulas serve both trajectory blocks: the horizontal step
    perturbs the squared offset at fixed altitude, the vertical step
    perturbs the squared altitude at a fixed offset, and both enter the
    rate only through their sum.
    """
    d2q = np.asarray(d2q, dtype=float)
    y = d2q + np.square(z)
    v_hat = np.clip(z / np.sqrt(y), 0.0, 1.0)
    s_hat = model.b1 + model.b2 * v_hat
    x_fac = 1.0 + np.exp(-s_hat)
    lin = model.c1 * x_fac + model.c2
    denom = x_fac * y ** (alpha / 2.0) + gamma * lin
    r_hat = rate_from_gain(model.predict(v_hat), gamma, y, alpha)
    phi = LOG2E * gamma * model.c2 / (x_fac * denom)
    psi = LOG2E * (alpha / 2.0) * gamma * lin / (y * denom)
    lam = z / (2.0 * y ** 1.5)
    return SCACoefficients(v_hat=v_hat, s_hat=s_hat, r_hat=r_hat,
                           phi=phi, psi=psi, lam=lam, y=y)


# ---------------------------------------------------------------------------
# trajectory blocks
# ---------------------------------------------------------------------------

_SPARSIFY_TOL = 1e-6
_SLACK_GAP = 1e-6
#: weight of the target in the blend that gives the interior-point start
#: (the bound itself is expanded at the incumbent)
_BLEND = 1e-2
#: share of a multi-node step's objective on the mean per-node bound, the
#: max-min's tie-break (each t_n weighs 0.05 at four nodes)
TIE_BREAK = 0.2


@dataclass
class TrajectoryStep:
    """One built tangent-bound subproblem: maximize ``objective`` @ x over
    ``rows``.  Variables: the free waypoints' D coordinates slot by slot
    (``x_cols``, which keeps the move rows banded), one t_n per node when
    N >= 2, then eta.  Rows: the N rate rows, each node's concave bound
    (each term's exponent its elevation cap, an inner row) less its t_n,
    or less eta for one node; the N tie rows t_n - eta; one move row per
    slot; one floor row per free altitude.  The objective (1 - TIE_BREAK)
    eta + TIE_BREAK mean(t_n), or eta for one node, breaks max-min ties."""

    objective: np.ndarray
    rows: ConcaveRows
    start: np.ndarray        # strictly interior start, at the blended path
    path: np.ndarray         # (M+1, D) expansion path: the incumbent
    x_cols: np.ndarray       # (M-1, D)


def build_trajectory_step(plan: Plan, scenario: Scenario,
                          model: LogisticModel, *, path, target, limit, ends,
                          anchors, floor=-np.inf, offset=None):
    """Tangent-bound subproblem for one trajectory block, or None when it
    has no strict interior (e.g. a maximally taut path).

    ``path`` holds the incumbent (M+1, D) block coordinates, where every
    bound is expanded and so tight; the start is the incumbent blended
    ``_BLEND`` toward ``target``.  ``ends`` holds the two fixed endpoints,
    ``limit`` the per-slot move limit and ``floor`` a lower bound on every
    free coordinate.  Rates see the block through the squared distance to
    ``anchors`` (N, D).  ``offset`` picks the elevation cap of each
    logistic argument: None for the horizontal block (altitude fixed at
    ``plan.z``, cap tangent to v in the squared offset), or the fixed
    squared horizontal offsets (N, M) of the altitude block, capped exactly
    by b1 + b2 z / sqrt(offset + z^2).
    """
    m_slots = plan.n_slots
    n_free = m_slots - 1
    if n_free <= 0:
        return None
    dim = path.shape[1]
    n_sn = scenario.n_sn

    # the bound is expanded at the incumbent, so it is tight there; the
    # start blends a touch toward the target so every move row (and the
    # floor) has positive slack
    blend = path.copy()
    blend[1:-1] = (1.0 - _BLEND) * path[1:-1] + _BLEND * target[1:-1]
    seg = np.diff(blend, axis=0)
    if not (np.max(np.einsum("mk,mk->m", seg, seg)) < limit ** 2 - 1e-12
            and blend[1:-1].min() > floor + 1e-12):
        return None

    diff = path[None, 1:, :] - anchors[:, None, :]           # (N, M, D)
    p2 = np.einsum("nmk,nmk->nm", diff, diff)
    if offset is None:           # horizontal block: altitude held fixed
        d2q, z = p2, plan.z[None, 1:]
    else:                        # altitude block: offsets held fixed
        d2q, z = offset, path[None, 1:, 0]
    coef = tangent_coefficients(d2q, z, scenario.snr_gamma_per_sn[:, None],
                                model, scenario.alpha)

    # own: the column each rate row subtracts, t_n (or eta for one node)
    x_cols = np.arange(n_free * dim).reshape(n_free, dim)
    n_t = n_sn if n_sn > 1 else 0
    eta_col = x_cols.size + n_t
    own = x_cols.size + np.arange(n_sn)
    move_lo = n_sn + n_t
    floor_cols = (x_cols.ravel() if np.isfinite(floor)
                  else np.zeros(0, np.int64))

    def dist2_terms(row, weight, n, m):  # weight * |x_{m+1} - anchor_n|^2
        return (np.repeat(row, dim), np.repeat(weight, dim),
                x_cols[m].ravel(), anchors[n].ravel())

    # per-node rate rows:  sum_m (a/M) * bound_rate  -  t_n  >=  0
    # the constant of each slot's bound: r_hat, plus for a free waypoint
    # the constants of its tangent terms (slot M sits on the endpoint)
    active = plan.a > _SPARSIFY_TOL
    am = np.where(active, plan.a, 0.0) / m_slots
    bound = coef.r_hat.copy()
    bound[:, :-1] += (coef.psi * p2 + coef.phi * np.exp(-coef.s_hat))[:, :-1]
    r_node, r_slot = np.nonzero(active[:, :-1])
    # each rate term's exponent, one inner row per term: its elevation cap
    term = np.arange(r_node.size)
    if offset is None:           # b1 + b2 (v_hat - lam (|x - w|^2 - p2))
        b2lam = model.b2 * coef.lam[r_node, r_slot]
        inner = ConcaveRows(
            d=coef.s_hat[r_node, r_slot] + b2lam * p2[r_node, r_slot],
            anchor=dist2_terms(term, b2lam, r_node, r_slot))
    else:                        # b1 + b2 z / sqrt(offset + z^2)
        inner = ConcaveRows(
            d=np.full(term.size, model.b1),
            ratio=(term, np.full(term.size, model.b2),
                   np.maximum(offset[r_node, r_slot], 1e-9),
                   x_cols[r_slot, 0]))

    # move rows:  limit^2 - |x_{m+1} - x_m|^2 >= 0; the first and the last
    # move square a free waypoint's offset from a fixed endpoint, the inner
    # ones the difference of two free waypoints
    end_moves = (move_lo + np.repeat([0, m_slots - 1], dim),
                 np.ones(2 * dim), np.concatenate([x_cols[0], x_cols[-1]]),
                 np.asarray(ends, float).ravel())
    inner_moves = (move_lo + np.repeat(np.arange(1, m_slots - 1), dim),
                   np.ones(x_cols[1:].size), x_cols[1:].ravel(),
                   x_cols[:-1].ravel())

    # row constants: the rate bounds, 0 per tie, limit^2 per move, and
    # -floor per floor row  x - floor >= 0
    d = np.concatenate([np.sum(am * bound, axis=1), np.zeros(n_t),
                        np.full(m_slots, limit ** 2),
                        np.full(floor_cols.size, -floor)])
    # linear part: -t_n in each rate row, t_n - eta in each tie, +x in floors
    tie = n_sn + np.arange(n_t)
    lin = (np.concatenate([np.arange(n_sn), tie, tie,
                           np.arange(move_lo + m_slots, d.size)]),
           np.concatenate([own, own[:n_t], np.full(n_t, eta_col),
                           floor_cols]),
           np.repeat([-1.0, 1.0, -1.0, 1.0],
                     [n_sn, n_t, n_t, floor_cols.size]))
    rows = ConcaveRows(
        d=d, lin=lin,
        anchor=tuple(np.concatenate(part) for part in zip(
            dist2_terms(r_node, (am * coef.psi)[r_node, r_slot],
                        r_node, r_slot), end_moves)),
        diff=inner_moves, exp=(r_node, (am * coef.phi)[r_node, r_slot]),
        inner=inner)
    objective = np.zeros(eta_col + 1)
    objective[own] = TIE_BREAK / n_sn
    objective[eta_col] = 1.0 - TIE_BREAK if n_t else 1.0
    # start: each rate row's column just under it, eta under the least t_n
    start = np.zeros(eta_col + 1)
    start[x_cols] = blend[1:-1]
    rate = rows.values(start)[:n_sn]
    start[own] = rate - _SLACK_GAP * np.maximum(1.0, np.abs(rate))
    if n_t:
        low = float(start[own].min())
        start[eta_col] = low - _SLACK_GAP * max(1.0, abs(low))
    if rows.values(start).min() <= 0.0:
        return None
    return TrajectoryStep(objective=objective, rows=rows, start=start,
                          path=path, x_cols=x_cols)


def _horizontal_block(plan: Plan, scenario: Scenario):
    """Builder data of the horizontal step: 2-D waypoints under the speed
    limit, the start blended toward the straight line."""
    return dict(path=plan.q, target=initialize_plan(scenario).q,
                limit=scenario.sxy, ends=(scenario.q0, scenario.qf),
                anchors=scenario.sn_positions)


def _vertical_block(plan: Plan, scenario: Scenario):
    """Builder data of the altitude step: 1-D altitudes under the climb
    limit and above the floor, the start blended toward a gentle ridge
    lifted off the floor, with the horizontal offsets held fixed."""
    m_slots = plan.n_slots
    line = initialize_plan(scenario).z
    climb = np.abs(scenario.zf - scenario.z0) / m_slots
    ridge_slope = 0.5 * max(scenario.sz - climb, 0.0)
    idx = np.arange(m_slots + 1, dtype=float)
    ridge = np.minimum(np.minimum(idx, m_slots - idx) * ridge_slope, 20.0)
    diff = plan.q[None, 1:, :] - scenario.sn_positions[:, None, :]
    return dict(path=plan.z[:, None], target=(line + ridge)[:, None],
                limit=scenario.sz, ends=([scenario.z0], [scenario.zf]),
                anchors=np.zeros((scenario.n_sn, 1)), floor=scenario.h_min,
                offset=np.einsum("nmk,nmk->nm", diff, diff))


def _improve(plan, scenario, model, data, reports):
    """Build and solve one step; the new (M+1, D) path, or None.  The
    solver's report is appended to ``reports``."""
    step = build_trajectory_step(plan, scenario, model, **data)
    if step is None:
        return None
    rep = maximize_concave_program(step.objective, step.rows, step.start)
    reports.append(rep)
    new = np.array(data["path"], dtype=float)
    new[1:-1] = rep.x[step.x_cols]
    return new


def solve_horizontal(plan: Plan, scenario: Scenario, model: LogisticModel,
                     *, reports):
    """One tangent-bound improvement of the horizontal waypoints.

    Returns updated waypoints or None when the subproblem has no strict
    interior (e.g. a maximally taut path), in which case the caller keeps
    the incumbent.  The interior-point report goes to the ``reports`` list.
    """
    return _improve(plan, scenario, model, _horizontal_block(plan, scenario),
                    reports)


def solve_vertical(plan: Plan, scenario: Scenario, model: LogisticModel,
                   *, reports):
    """One tangent-bound improvement of the altitude profile (waypoints
    fixed horizontally).  Returns new altitudes or None when skipped; the
    interior-point report goes to ``reports`` as in solve_horizontal."""
    z_new = _improve(plan, scenario, model, _vertical_block(plan, scenario),
                     reports)
    return None if z_new is None else z_new[:, 0]


# ---------------------------------------------------------------------------
# outer loop
# ---------------------------------------------------------------------------

BCD_TOL = 1e-4          # relative gain that ends the ascent
BCD_MAX_ITERS = 50      # outer iterations before it stops unconverged
#: relative margin by which a candidate's dual bound must fall below the
#: incumbent's eta before its LP is skipped.  A certified LP's eta can
#: exceed its true value by the certificate's 1e-12 slot-sum allowance plus
#: the rounding of an M-term sum, and the bound's own M-term sum rounds by
#: at most about M * 1.1e-16 (1.1e-13 at 1000 slots); 1e-9 covers both up
#: to about a million slots, so a skipped LP would have lost to the bit,
#: and it lies far below the shortfalls a skip meets on the bundled plans
#: (2e-7 and more)
_SKIP_RTOL = 1e-9


def _require_feasible(trial: Plan, scenario: Scenario, block):
    """Raise RuntimeError naming the block when its trial plan breaks a
    constraint of check_plan."""
    problems = check_plan(trial, scenario)
    if problems:
        raise RuntimeError(f"{block} step gave an infeasible plan: "
                           + "; ".join(problems))


def run_bcd(scenario: Scenario, model: LogisticModel, *,
            freeze_vertical=False, starts=None):
    """Block-coordinate ascent on (schedule, path, altitude).

    Every plan the ascent holds carries the scheduling LP's schedule for
    its own trajectory, and no LP is solved twice.  A candidate is one of
    ``starts`` (by default the straight line of ``initialize_plan``; an
    empty list raises ValueError) or a trajectory block's trial.  Its LP
    is solved only if it could change the ascent: the candidate's
    ``dual_bound`` under the incumbent's LP duals is an upper bound on its
    LP max-min, and when that falls short of the incumbent's by more than
    ``_SKIP_RTOL`` the LP is skipped and the candidate loses, as its LP
    would have lost.  The starts are scanned best-first by min_n sum_m
    r_nm / M, a bound no schedule's max-min exceeds, so the first LP
    (cold) usually finds the leader and rules the rest out; the ascent
    starts from the first start whose LP max-min is largest, and its LP
    schedule replaces the start's own.  Every later LP is warm-started from the incumbent's
    smoothed weights.  A block's move is accepted iff the trial's LP
    max-min is at least the incumbent's.  Each outer iteration tries the
    horizontal block, then the vertical one.  After every attempt (skipped
    or rejected too) the ascent stops, converged, when the last attempts,
    one per block, gain less than ``BCD_TOL`` relative (``stop``
    "tolerance", or "fixed point" when they accepted no move), and
    unconverged after ``BCD_MAX_ITERS`` outer iterations ("iteration
    cap").  The chosen start and every trial (under the incumbent's
    schedule) must pass check_plan, or RuntimeError names the block and
    the violations.  Returns (plan, info) where info carries the objective
    trace (the start, then one per outer iteration begun), the
    ``iterations`` begun, the convergence flag, ``stop`` and
    ``ipm_not_optimal``: per trajectory block, how many interior-point
    solves did not end "optimal" (their moves face the same test).
    """
    if starts is None:
        starts = [initialize_plan(scenario)]
    if not starts:
        raise ValueError("run_bcd needs at least one start")
    inc = None      # incumbent: (plan, LP max-min, LP duals, smoothed weights)

    def scheduled(cand, rates):
        """The incumbent-shaped tuple of the candidate scheduled by its LP,
        or None when the incumbent's duals rule that LP out."""
        if inc is not None and (dual_bound(inc[2], rates)
                                < inc[1] * (1.0 - _SKIP_RTOL)):
            return None
        a, eta_lp, duals, weights = solve_scheduling(
            rates, None if inc is None else inc[3])
        return replace(cand, a=a), eta_lp, duals, weights

    rates = [predicted_rates(s.q, s.z, scenario, model) for s in starts]
    pick = None
    for i in sorted(range(len(starts)),
                    key=lambda i: -float(rates[i].sum(axis=1).min())):
        cand = scheduled(starts[i].copy(), rates[i])
        # the first of the starts whose LP max-min is largest
        if cand and (inc is None or cand[1] > inc[1]
                     or (cand[1] == inc[1] and i < pick)):
            inc, pick = cand, i
    plan, eta = inc[:2]
    _require_feasible(plan, scenario, "scheduling")
    # block functions are looked up per call, so module wrappers apply
    blocks = [("q", "horizontal", solve_horizontal)]
    if not freeze_vertical:
        blocks.append(("z", "vertical", solve_vertical))
    n = len(blocks)
    trace = [eta]
    window = deque([inc], maxlen=n + 1)     # incumbents of the last n attempts
    stop = None
    not_optimal = {"horizontal": 0, "vertical": 0}

    for k in range(1, BCD_MAX_ITERS * n + 1):
        attr, name, solve = blocks[(k - 1) % n]
        reports = []
        new = solve(plan, scenario, model, reports=reports)
        not_optimal[name] += sum(r.status != "optimal" for r in reports)
        if new is not None:
            trial = replace(plan, **{attr: new})
            _require_feasible(trial, scenario, name)
            trial = scheduled(trial, predicted_rates(trial.q, trial.z,
                                                     scenario, model))
            if trial and trial[1] >= eta:
                inc = trial
                plan, eta = inc[:2]
        window.append(inc)
        old = window[0]
        if k >= n and (eta - old[1]) / max(abs(old[1]), 1e-12) < BCD_TOL:
            # with no move taken the next window would replay this one
            stop = "fixed point" if old is inc else "tolerance"
        if stop or k % n == 0:
            trace.append(eta)       # one entry per outer iteration begun
            if stop:
                break

    info = {"trace": trace, "iterations": len(trace) - 1,
            "converged": stop is not None, "stop": stop or "iteration cap",
            "eta_model": eta, "ipm_not_optimal": not_optimal}
    return plan, info
