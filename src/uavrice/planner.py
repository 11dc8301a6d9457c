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
    shape (N, M): slot m sits at waypoint m."""
    q = np.asarray(q, dtype=float)[1:]          # (M, 2)
    z = np.asarray(z, dtype=float)[1:]          # (M,)
    diff = q[None, :, :] - scenario.sn_positions[:, None, :]
    d2 = np.einsum("nmk,nmk->nm", diff, diff) + z[None, :] ** 2
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
    rows = np.zeros((m_slots + n_sn, nv))
    rhs = np.zeros(m_slots + n_sn)
    for m in range(m_slots):                    # occupancy caps
        rows[m, m::m_slots][:n_sn] = 1.0
        rhs[m] = 1.0
    for n in range(n_sn):                       # eta <= average rate of n
        rows[m_slots + n, n * m_slots:(n + 1) * m_slots] = -rates[n] / m_slots
        rows[m_slots + n, -1] = 1.0
        rhs[m_slots + n] = 0.0
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


class _RowBuilder:
    """Accumulates QuadExpRows terms with readable append calls."""

    def __init__(self, n_rows, n_vars):
        self.d = np.zeros(n_rows)
        self.C = np.zeros((n_rows, n_vars))
        self.qrow, self.qw, self.qp, self.qi = [], [], [], []
        self.qq, self.qj, self.qr = [], [], []
        self.erow, self.ecoef, self.eidx = [], [], []

    def add_square(self, row, weight, p, i, q, j, r):
        self.qrow.append(row)
        self.qw.append(weight)
        self.qp.append(p)
        self.qi.append(i)
        self.qq.append(q)
        self.qj.append(j)
        self.qr.append(r)

    def add_exp(self, row, coef, idx):
        self.erow.append(row)
        self.ecoef.append(coef)
        self.eidx.append(idx)

    def block(self):
        return QuadExpRows(
            d=self.d, C=self.C,
            quad_row=self.qrow, quad_w=self.qw, quad_p=self.qp,
            quad_i=self.qi, quad_q=self.qq, quad_j=self.qj, quad_r=self.qr,
            exp_row=self.erow, exp_coef=self.ecoef, exp_idx=self.eidx)


@dataclass
class TrajectoryStep:
    """One built tangent-bound subproblem.  Variables: the D coordinates of
    each free waypoint 1..M-1, one logistic argument s per active (node,
    slot) pair (``s_cols``), then eta.  Stacked ``program.all_blocks()``
    rows start with the N rate rows; ``cap_rows`` holds each s's cap."""

    program: ConcaveProgram
    start: np.ndarray        # strictly interior start
    path: np.ndarray         # (M+1, D) expansion path
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
    s_pairs = [(n, m) for n in range(n_sn) for m in range(m_slots - 1)
               if active[n, m]] if with_s else []
    n_x = dim * n_free
    s_pos = {pair: n_x + k for k, pair in enumerate(s_pairs)}
    nv = n_x + len(s_pairs) + 1
    eta_col = nv - 1
    tangent_caps = s_pairs if offset is None else []
    move_lo = n_sn + len(tangent_caps)
    rb = _RowBuilder(move_lo + m_slots, nv)

    def xcol(m):                 # first coordinate of waypoint m in 1..M-1
        return dim * (m - 1)

    def add_dist2(row, weight, n, m):    # weight * |x_{m+1} - anchor_n|^2
        for k in range(dim):
            rb.add_square(row, weight, 1.0, xcol(m + 1) + k, 0.0, 0,
                          -anchors[n, k])

    # per-node rate rows:  sum_m (a/M) * bound_rate  -  eta  >=  0
    for n in range(n_sn):
        rb.C[n, eta_col] = -1.0
        for m in range(m_slots):                          # slot m+1
            am = plan.a[n, m] / m_slots
            if am * m_slots <= _SPARSIFY_TOL:
                continue
            r_hat = coef.r_hat[n, m]
            if m == m_slots - 1:                          # fixed endpoint
                rb.d[n] += am * r_hat
                continue
            phi, psi = coef.phi[n, m], coef.psi[n, m]
            rb.d[n] += am * (r_hat + psi * p2[n, m])
            add_dist2(n, am * psi, n, m)
            if with_s:
                rb.d[n] += am * phi * math.exp(-coef.s_hat[n, m])
                rb.add_exp(n, am * phi, s_pos[(n, m)])

    # horizontal caps:  s <= b1 + b2 * tangent bound of v
    for k, (n, m) in enumerate(tangent_caps):
        row = n_sn + k
        b2lam = model.b2 * coef.lam[n, m]
        rb.d[row] = model.b1 + model.b2 * coef.v_hat[n, m] + b2lam * p2[n, m]
        rb.C[row, s_pos[(n, m)]] = -1.0
        add_dist2(row, b2lam, n, m)

    # move rows:  limit^2 - |x_{m+1} - x_m|^2 >= 0
    for m in range(m_slots):
        row = move_lo + m
        rb.d[row] = limit ** 2
        for k in range(dim):
            if m == 0:
                rb.add_square(row, 1.0, 1.0, xcol(1) + k, 0.0, 0,
                              -ends[0][k])
            elif m == m_slots - 1:
                rb.add_square(row, 1.0, -1.0, xcol(m_slots - 1) + k,
                              0.0, 0, ends[1][k])
            else:
                rb.add_square(row, 1.0, 1.0, xcol(m + 1) + k,
                              -1.0, xcol(m) + k, 0.0)

    blocks = [rb.block()]
    if s_pairs and offset is not None:
        blocks.append(VRatioRows(
            d=np.full(len(s_pairs), model.b1), b2=model.b2,
            c=np.array([max(offset[n, m], 1e-9) for n, m in s_pairs]),
            z_idx=np.array([m for _, m in s_pairs], dtype=np.int64),
            s_idx=np.array([s_pos[p] for p in s_pairs], dtype=np.int64)))
    lb = np.full(nv, -np.inf)
    lb[:n_x] = floor
    objective = np.zeros(nv)
    objective[eta_col] = 1.0
    cp = ConcaveProgram(n_vars=nv, objective=objective, blocks=blocks, lb=lb)

    # start: each s just under its cap, eta just under the worst rate row
    s_cols = np.arange(n_x, eta_col)
    cap_lo = n_sn if offset is None else move_lo + m_slots
    cap_rows = np.arange(cap_lo, cap_lo + len(s_pairs))
    start = np.zeros(nv)
    start[:n_x] = hat[1:-1].ravel()
    start[s_cols] = _stacked_values(cp, start)[cap_rows] - _SLACK_GAP
    eta0 = float(_stacked_values(cp, start)[:n_sn].min())
    start[eta_col] = eta0 - _SLACK_GAP * max(1.0, abs(eta0))
    if _stacked_values(cp, start).min() <= 0.0:
        return None
    return TrajectoryStep(program=cp, start=start, path=hat, s_cols=s_cols,
                          cap_rows=cap_rows)


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


def _improve(plan, scenario, model, data):
    """Build and solve one step; the new (M+1, D) path, or None."""
    step = build_trajectory_step(plan, scenario, model, **data)
    if step is None:
        return None
    rep = maximize_concave_program(step.program, step.start)
    new = np.array(data["path"], dtype=float)
    new[1:-1] = rep.x[:new[1:-1].size].reshape(new[1:-1].shape)
    return new


def solve_horizontal(plan: Plan, scenario: Scenario, model: LogisticModel):
    """One tangent-bound improvement of the horizontal waypoints.

    Returns updated waypoints or None when the subproblem has no strict
    interior (e.g. a maximally taut path), in which case the caller keeps
    the incumbent.
    """
    return _improve(plan, scenario, model, _horizontal_block(plan, scenario))


def solve_vertical(plan: Plan, scenario: Scenario, model: LogisticModel):
    """One tangent-bound improvement of the altitude profile (waypoints
    fixed horizontally).  Returns new altitudes or None when skipped."""
    z_new = _improve(plan, scenario, model, _vertical_block(plan, scenario))
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
    per-iteration objective trace, iteration count, and convergence flag.
    """
    if model is None:
        model = LOS_MODEL
    plan = init.copy() if init is not None else initialize_plan(scenario)
    rates = predicted_rates(plan.q, plan.z, scenario, model)
    eta = max_min_rate(plan.a, rates)
    trace = [eta]
    converged = False
    iterations = 0

    for _ in range(max_iters):
        iterations += 1
        a_new, eta_lp = solve_scheduling(rates)
        if eta_lp >= eta - 1e-12:
            plan.a = a_new
            eta = max_min_rate(a_new, rates)

        # the incumbent's rates and objective ride along; block functions
        # are looked up per call so wrappers set on this module take effect
        blocks = [("q", solve_horizontal)]
        if not freeze_vertical:
            blocks.append(("z", solve_vertical))
        for name, solve in blocks:
            new = solve(plan, scenario, model)
            if new is None:
                continue
            trial = replace(plan, **{name: new})
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
            "eta_model": eta}
    return plan, info
