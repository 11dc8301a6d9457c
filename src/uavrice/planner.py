"""Trajectory and scheduling optimization.

The planner alternates three blocks until the max-min average rate stops
improving: a scheduling LP over slot-activity fractions, one tangent-bound
step on the horizontal path, and one on the altitude profile.  Rate
expressions use the fitted logistic link-quality model; a degenerate model
with c2 = 0 collapses everything to the pure line-of-sight planner used as
the lower benchmark.

Discretization convention: a mission of M slots has M+1 waypoints indexed
0..M.  Waypoints 0 and M are the fixed endpoints; slot m (1-based) is
evaluated at waypoint m.  Slot-indexed arrays are stored 0-based, so column
k corresponds to slot k+1 at waypoint k+1.
"""

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
import scipy.sparse

from .channel import Scenario, rate_from_gain
from .fading import LogisticModel
from .solvers import (
    ConcaveProgram,
    LinearProgram,
    QuadExpRows,
    VRatioRows,
    maximize_concave_program,
    solve_lp,
)

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
        if self.a.shape[1] != self.q.shape[0] - 1:
            raise ValueError("activity columns must equal the slot count")

    @property
    def n_slots(self):
        return self.q.shape[0] - 1

    def copy(self):
        return Plan(q=self.q.copy(), z=self.z.copy(), a=self.a.copy())


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

def solve_scheduling(rates):
    """Max-min slot assignment LP for fixed per-slot rates (N, M).

    Variables are the N*M activity fractions plus the bottleneck average;
    each slot's total activity is capped at one.  Leftover capacity in any
    slot is donated to whichever node currently has the worst average, so
    the returned schedule always saturates every slot.
    """
    rates = np.asarray(rates, dtype=float)
    n_sn, m_slots = rates.shape
    nv = n_sn * m_slots + 1
    c = np.zeros(nv)
    c[-1] = 1.0
    col = np.arange(n_sn * m_slots)             # activity of node n, slot m
    rows = np.zeros((m_slots + n_sn, nv))
    rows[col % m_slots, col] = 1.0              # occupancy caps
    rows[m_slots + col // m_slots, col] = -rates.ravel() / m_slots
    rows[m_slots:, -1] = 1.0                    # eta <= average rate of n
    rhs = np.zeros(m_slots + n_sn)
    rhs[:m_slots] = 1.0
    lp = LinearProgram(c=c, a_ub=rows, b_ub=rhs, lb=np.zeros(nv),
                       ub=np.full(nv, np.inf))
    rep = solve_lp(lp)
    if rep.status not in ("optimal", "stalled"):
        raise RuntimeError(f"scheduling LP came back {rep.status}")
    a = rep.x[:-1].reshape(n_sn, m_slots).clip(0.0, 1.0)

    # saturation pass: donate per-slot slack to the worst node
    totals = np.einsum("nm,nm->n", a, rates)
    for m in range(m_slots):
        slack = 1.0 - a[:, m].sum()
        if slack > 1e-12:
            n_star = int(np.argmin(totals))
            a[n_star, m] += slack
            totals[n_star] += slack * rates[n_star, m]
    return a, float(totals.min()) / m_slots


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
    r_hat = np.log2(1.0 + gamma * lin / (x_fac * y ** (alpha / 2.0)))
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


@dataclass
class TrajectoryStep:
    """One built tangent-bound subproblem.  Variables run slot by slot:
    each free waypoint 1..M-1 has its D coordinates (``x_cols``) followed
    by one logistic argument s per active (node, slot) pair at it
    (``s_cols``, node-major); eta comes last.  This order keeps the
    move and cap rows banded for the Newton step.  Stacked
    ``program.all_blocks()`` rows start with the N rate rows;
    ``cap_rows`` holds each s's cap."""

    program: ConcaveProgram
    start: np.ndarray        # strictly interior start
    path: np.ndarray         # (M+1, D) expansion path
    x_cols: np.ndarray       # (M-1, D)
    s_cols: np.ndarray
    cap_rows: np.ndarray


def _stacked_values(cp: ConcaveProgram, x):
    return np.concatenate([blk.values(x) for blk in cp.all_blocks()])


def build_trajectory_step(plan: Plan, scenario: Scenario,
                          model: LogisticModel, *, path, target, limit, ends,
                          anchors, floor=-np.inf, offset=None):
    """Tangent-bound subproblem for one trajectory block, or None when it
    has no strict interior (e.g. a maximally taut path).

    ``path`` holds the incumbent (M+1, D) block coordinates, ``ends`` the
    two fixed endpoints, ``limit`` the per-slot move limit and ``floor`` a
    lower bound on every free coordinate.  Rates see the block through the
    squared distance to ``anchors`` (N, D).  ``offset`` picks the elevation
    cap: None for the horizontal block (altitude fixed at ``plan.z``, cap
    tangent to v in the squared offset), or the fixed squared horizontal
    offsets (N, M) of the altitude block, capped exactly by VRatioRows.
    """
    m_slots = plan.n_slots
    n_free = m_slots - 1
    if n_free <= 0:
        return None
    dim = path.shape[1]
    n_sn = scenario.n_sn
    with_s = model.c2 > 0.0

    # expansion point and start: blend a touch toward the target so every
    # move row (and the floor) has positive slack
    for tau in (1e-3, 1e-2, 0.1):
        hat = path.copy()
        hat[1:-1] = (1.0 - tau) * path[1:-1] + tau * target[1:-1]
        seg = np.diff(hat, axis=0)
        if (np.max(np.einsum("mk,mk->m", seg, seg)) < limit ** 2 - 1e-12
                and hat[1:-1].min() > floor + 1e-12):
            break
    else:
        return None

    diff = hat[None, 1:, :] - anchors[:, None, :]            # (N, M, D)
    p2 = np.einsum("nmk,nmk->nm", diff, diff)
    if offset is None:           # horizontal block: altitude held fixed
        d2q, z = p2, plan.z[None, 1:]
    else:                        # altitude block: offsets held fixed
        d2q, z = offset, hat[None, 1:, 0]
    coef = tangent_coefficients(d2q, z, scenario.snr_gamma_per_sn[:, None],
                                model, scenario.alpha)

    active = plan.a > _SPARSIFY_TOL
    has_s = active[:, :-1] & with_s          # (node, slot) pairs with an s
    s_node, s_slot = np.nonzero(has_s)       # node-major
    # waypoint m+1's group: its D coordinates, then the s of slot m+1
    first = np.concatenate([[0], np.cumsum(dim + has_s.sum(axis=0))])
    x_cols = first[:-1, None] + np.arange(dim)              # (M-1, D)
    s_cols = (first[:-1] + dim + np.cumsum(has_s, axis=0) - 1)[s_node, s_slot]
    nv = int(first[-1]) + 1
    eta_col = nv - 1
    n_caps = s_cols.size if offset is None else 0
    move_lo = n_sn + n_caps

    def dist2_terms(row, weight, n, m):  # weight * |x_{m+1} - anchor_n|^2
        return (np.repeat(row, dim), np.repeat(weight, dim),
                np.ones(row.size * dim), x_cols[m].ravel(),
                np.zeros(row.size * dim), x_cols[m].ravel(),
                -anchors[n].ravel())

    # per-node rate rows:  sum_m (a/M) * bound_rate  -  eta  >=  0
    # the constant of each slot's bound: r_hat, plus for a free waypoint
    # the constants of its tangent terms (slot M sits on the endpoint)
    am = np.where(active, plan.a, 0.0) / m_slots
    bound = coef.r_hat.copy()
    bound[:, :-1] += (coef.psi * p2 + coef.phi * np.exp(-coef.s_hat))[:, :-1]
    d = [np.sum(am * bound, axis=1)]
    r_node, r_slot = np.nonzero(active[:, :-1])
    terms = [dist2_terms(r_node, (am * coef.psi)[r_node, r_slot],
                         r_node, r_slot)]

    # horizontal caps:  s <= b1 + b2 * tangent bound of v
    if n_caps:
        b2lam = model.b2 * coef.lam[s_node, s_slot]
        d.append(model.b1 + model.b2 * coef.v_hat[s_node, s_slot]
                 + b2lam * p2[s_node, s_slot])
        terms.append(dist2_terms(n_sn + np.arange(n_caps), b2lam,
                                 s_node, s_slot))

    # move rows:  limit^2 - |x_{m+1} - x_m|^2 >= 0; the first and the last
    # move square one free waypoint against a fixed endpoint
    d.append(np.full(m_slots, limit ** 2))
    one, inner = np.ones(dim), np.ones(x_cols[1:].size)
    terms.append((
        move_lo + np.repeat(np.arange(m_slots), dim),             # row
        np.ones(m_slots * dim),                                   # w
        np.concatenate([one, inner, -one]),                       # p
        np.concatenate([x_cols[0], x_cols[1:].ravel(), x_cols[-1]]),  # i
        np.concatenate([0.0 * one, -inner, 0.0 * one]),           # q
        np.concatenate([x_cols[0], x_cols[:-1].ravel(), x_cols[-1]]),  # j
        np.concatenate([-np.asarray(ends[0], float), 0.0 * inner,
                        np.asarray(ends[1], float)])))            # r

    # linear part: -eta in each rate row, -s in each horizontal cap
    C = scipy.sparse.coo_array(
        (-np.ones(n_sn + n_caps),
         (np.arange(n_sn + n_caps),
          np.concatenate([np.full(n_sn, eta_col), s_cols[:n_caps]]))),
        shape=(move_lo + m_slots, nv))
    quad = [np.concatenate(part) for part in zip(*terms)]
    blocks = [QuadExpRows(
        d=np.concatenate(d), C=C, quad_row=quad[0], quad_w=quad[1],
        quad_p=quad[2], quad_i=quad[3], quad_q=quad[4], quad_j=quad[5],
        quad_r=quad[6], exp_row=s_node,
        exp_coef=(am * coef.phi)[s_node, s_slot], exp_idx=s_cols)]
    if s_cols.size and offset is not None:
        blocks.append(VRatioRows(
            d=np.full(s_cols.size, model.b1), b2=model.b2,
            c=np.maximum(offset[s_node, s_slot], 1e-9),
            z_idx=x_cols[s_slot, 0], s_idx=s_cols))
    lb = np.full(nv, -np.inf)
    lb[x_cols] = floor
    objective = np.zeros(nv)
    objective[eta_col] = 1.0
    cp = ConcaveProgram(n_vars=nv, objective=objective, blocks=blocks, lb=lb)

    # start: each s just under its cap, eta just under the worst rate row
    cap_lo = n_sn if offset is None else move_lo + m_slots
    cap_rows = np.arange(cap_lo, cap_lo + s_cols.size)
    start = np.zeros(nv)
    start[x_cols] = hat[1:-1]
    start[s_cols] = _stacked_values(cp, start)[cap_rows] - _SLACK_GAP
    eta0 = float(_stacked_values(cp, start)[:n_sn].min())
    start[eta_col] = eta0 - _SLACK_GAP * max(1.0, abs(eta0))
    if _stacked_values(cp, start).min() <= 0.0:
        return None
    return TrajectoryStep(program=cp, start=start, path=hat, x_cols=x_cols,
                          s_cols=s_cols, cap_rows=cap_rows)


def _horizontal_block(plan: Plan, scenario: Scenario):
    """Builder data of the horizontal step: 2-D waypoints under the speed
    limit, blended toward the straight line."""
    line = scenario.q0[None, :] + np.linspace(0.0, 1.0, plan.n_slots + 1)[
        :, None] * (scenario.qf - scenario.q0)
    return dict(path=plan.q, target=line, limit=scenario.sxy,
                ends=(scenario.q0, scenario.qf),
                anchors=scenario.sn_positions)


def _vertical_block(plan: Plan, scenario: Scenario):
    """Builder data of the altitude step: 1-D altitudes under the climb
    limit and above the floor, blended toward a gentle ridge lifted off the
    floor, with the horizontal offsets held fixed."""
    m_slots = plan.n_slots
    frac = np.linspace(0.0, 1.0, m_slots + 1)
    line = scenario.z0 + frac * (scenario.zf - scenario.z0)
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
    solver's report is appended to ``reports`` unless that is None."""
    step = build_trajectory_step(plan, scenario, model, **data)
    if step is None:
        return None
    rep = maximize_concave_program(step.program, step.start)
    if reports is not None:
        reports.append(rep)
    new = np.array(data["path"], dtype=float)
    new[1:-1] = rep.x[step.x_cols]
    return new


def solve_horizontal(plan: Plan, scenario: Scenario, model: LogisticModel,
                     *, reports=None):
    """One tangent-bound improvement of the horizontal waypoints.

    Returns updated waypoints or None when the subproblem has no strict
    interior (e.g. a maximally taut path), in which case the caller keeps
    the incumbent.  The interior-point report goes to the ``reports`` list
    when one is given.
    """
    return _improve(plan, scenario, model, _horizontal_block(plan, scenario),
                    reports)


def solve_vertical(plan: Plan, scenario: Scenario, model: LogisticModel,
                   *, reports=None):
    """One tangent-bound improvement of the altitude profile (waypoints
    fixed horizontally).  Returns new altitudes or None when skipped; the
    interior-point report goes to ``reports`` as in solve_horizontal."""
    z_new = _improve(plan, scenario, model, _vertical_block(plan, scenario),
                     reports)
    return None if z_new is None else z_new[:, 0]


# ---------------------------------------------------------------------------
# outer loop
# ---------------------------------------------------------------------------

def run_bcd(scenario: Scenario, model: Optional[LogisticModel] = None, *,
            freeze_vertical=False, tol=1e-4, max_iters=50,
            init: Optional[Plan] = None):
    """Block-coordinate ascent on (schedule, path, altitude).

    Each outer iteration runs the scheduling LP and one tangent-bound step
    per trajectory block, accepting a block's move only if the model-based
    objective does not fall.  ``model=None`` plans for pure line-of-sight
    (``LOS_MODEL``).  Returns (plan, info) where info carries the
    per-iteration objective trace, iteration count, convergence flag, and
    ``ipm_not_optimal``: per trajectory block, how many interior-point
    solves did not end "optimal" (their moves still face the same test).
    """
    if model is None:
        model = LOS_MODEL
    plan = init.copy() if init is not None else initialize_plan(scenario)
    rates = predicted_rates(plan.q, plan.z, scenario, model)
    eta = max_min_rate(plan.a, rates)
    trace = [eta]
    converged = False
    iterations = 0
    not_optimal = {"horizontal": 0, "vertical": 0}

    for _ in range(max_iters):
        iterations += 1
        a_new, eta_lp = solve_scheduling(rates)
        if eta_lp >= eta - 1e-12:
            plan.a = a_new
            eta = max_min_rate(a_new, rates)

        # the incumbent's rates and objective ride along; block functions
        # are looked up per call so wrappers set on this module take effect
        blocks = [("q", "horizontal", solve_horizontal)]
        if not freeze_vertical:
            blocks.append(("z", "vertical", solve_vertical))
        for attr, name, solve in blocks:
            reports = []
            new = solve(plan, scenario, model, reports=reports)
            not_optimal[name] += sum(r.status != "optimal" for r in reports)
            if new is None:
                continue
            trial = replace(plan, **{attr: new})
            trial_rates = predicted_rates(trial.q, trial.z, scenario, model)
            trial_eta = max_min_rate(trial.a, trial_rates)
            if trial_eta >= eta:
                plan, rates, eta = trial, trial_rates, trial_eta

        rel = (eta - trace[-1]) / max(abs(trace[-1]), 1e-12)
        trace.append(eta)
        if 0.0 <= rel < tol:
            converged = True
            break

    info = {"trace": trace, "iterations": iterations, "converged": converged,
            "eta_model": eta, "ipm_not_optimal": not_optimal}
    return plan, info
