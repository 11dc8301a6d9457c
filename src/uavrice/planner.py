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
from dataclasses import dataclass, field
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


def plan_eta(plan: Plan, rates):
    """Max-min objective: worst per-node average of activity-weighted rates."""
    totals = np.einsum("nm,nm->n", plan.a, rates)
    return float(totals.min()) / plan.n_slots


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


def _blend_path(values, target, tau):
    return (1.0 - tau) * values + tau * target


def solve_horizontal(plan: Plan, scenario: Scenario, model: LogisticModel):
    """One tangent-bound improvement of the horizontal waypoints.

    Returns updated waypoints or None when the subproblem has no strict
    interior (e.g. a maximally taut path), in which case the caller keeps
    the incumbent.
    """
    m_slots = plan.n_slots
    n_free = m_slots - 1
    if n_free <= 0:
        return None
    n_sn = scenario.n_sn
    gam = scenario.snr_gamma_per_sn
    sxy = scenario.sxy
    w = scenario.sn_positions
    a = plan.a
    with_s = model.c2 > 0.0

    # expansion point and start: blend a touch toward the straight line so
    # every speed row has positive slack
    line = scenario.q0[None, :] + np.linspace(0.0, 1.0, m_slots + 1)[:, None] \
        * (scenario.qf - scenario.q0)
    for tau in (1e-3, 1e-2, 0.1):
        q_hat = plan.q.copy()
        q_hat[1:-1] = _blend_path(plan.q[1:-1], line[1:-1], tau)
        seg = np.diff(q_hat, axis=0)
        if np.max(np.einsum("mk,mk->m", seg, seg)) < sxy ** 2 - 1e-12:
            break
    else:
        return None

    diff = q_hat[None, 1:, :] - w[:, None, :]            # (N, M, 2)
    d2q = np.einsum("nmk,nmk->nm", diff, diff)
    coef = tangent_coefficients(d2q, plan.z[None, 1:], gam[:, None],
                                model, scenario.alpha)

    active = a > _SPARSIFY_TOL
    s_pairs = [(n, m) for n in range(n_sn) for m in range(m_slots - 1)
               if active[n, m]] if with_s else []
    s_pos = {pair: 2 * n_free + k for k, pair in enumerate(s_pairs)}
    nv = 2 * n_free + len(s_pairs) + 1
    eta_col = nv - 1

    def xcol(m):                 # waypoint m in 1..M-1
        return 2 * (m - 1)

    n_rows = n_sn + len(s_pairs) + m_slots
    rb = _RowBuilder(n_rows, nv)

    # per-node rate rows:  sum_m (a/M) * bound_rate  -  eta  >=  0
    for n in range(n_sn):
        rb.C[n, eta_col] = -1.0
        for m in range(m_slots):                          # slot m+1
            am = a[n, m] / m_slots
            if am * m_slots <= _SPARSIFY_TOL:
                continue
            r_hat = coef.r_hat[n, m]
            if m == m_slots - 1:                          # fixed endpoint
                rb.d[n] += am * r_hat
                continue
            phi, psi = coef.phi[n, m], coef.psi[n, m]
            rb.d[n] += am * (r_hat + psi * d2q[n, m])
            ix = xcol(m + 1)
            rb.add_square(n, am * psi, 1.0, ix, 0.0, 0, -w[n, 0])
            rb.add_square(n, am * psi, 1.0, ix + 1, 0.0, 0, -w[n, 1])
            if with_s:
                rb.d[n] += am * phi * math.exp(-coef.s_hat[n, m])
                rb.add_exp(n, am * phi, s_pos[(n, m)])

    # logistic-argument caps:  s <= b1 + b2 * tangent bound of v
    for k, (n, m) in enumerate(s_pairs):
        row = n_sn + k
        b2lam = model.b2 * coef.lam[n, m]
        rb.d[row] = model.b1 + model.b2 * coef.v_hat[n, m] + b2lam * d2q[n, m]
        rb.C[row, s_pos[(n, m)]] = -1.0
        ix = xcol(m + 1)
        rb.add_square(row, b2lam, 1.0, ix, 0.0, 0, -w[n, 0])
        rb.add_square(row, b2lam, 1.0, ix + 1, 0.0, 0, -w[n, 1])

    # speed rows:  sxy^2 - |q_{m+1} - q_m|^2 >= 0
    for m in range(m_slots):
        row = n_sn + len(s_pairs) + m
        rb.d[row] = sxy ** 2
        for axis in range(2):
            if m == 0:
                rb.add_square(row, 1.0, 1.0, xcol(1) + axis, 0.0, 0,
                              -scenario.q0[axis])
            elif m == m_slots - 1:
                rb.add_square(row, 1.0, -1.0, xcol(m_slots - 1) + axis,
                              0.0, 0, scenario.qf[axis])
            else:
                rb.add_square(row, 1.0, 1.0, xcol(m + 1) + axis,
                              -1.0, xcol(m) + axis, 0.0)

    objective = np.zeros(nv)
    objective[eta_col] = 1.0
    cp = ConcaveProgram(n_vars=nv, objective=objective, blocks=[rb.block()])

    start = np.zeros(nv)
    start[:2 * n_free] = q_hat[1:-1].ravel()
    block = cp.all_blocks()[0]
    if s_pairs:
        probe = start.copy()
        probe[eta_col] = -1e18
        bound_rows = block.values(probe)[n_sn:n_sn + len(s_pairs)]
        start[2 * n_free:eta_col] = bound_rows - _SLACK_GAP
    rate_vals = (block.values(start)[:n_sn])[: n_sn]
    eta0 = float(rate_vals.min())
    start[eta_col] = eta0 - _SLACK_GAP * max(1.0, abs(eta0))
    if block.values(start).min() <= 0.0:
        return None

    rep = maximize_concave_program(cp, start)
    q_new = plan.q.copy()
    q_new[1:-1] = rep.x[:2 * n_free].reshape(n_free, 2)
    return q_new


def solve_vertical(plan: Plan, scenario: Scenario, model: LogisticModel):
    """One tangent-bound improvement of the altitude profile (waypoints
    fixed horizontally).  Returns new altitudes or None when skipped."""
    m_slots = plan.n_slots
    n_free = m_slots - 1
    if n_free <= 0 or scenario.sz <= 1e-12:
        return None
    n_sn = scenario.n_sn
    gam = scenario.snr_gamma_per_sn
    sz = scenario.sz
    w = scenario.sn_positions
    a = plan.a
    with_s = model.c2 > 0.0

    # interior start: blend toward a gentle ridge lifted off the floor
    frac = np.linspace(0.0, 1.0, m_slots + 1)
    line = scenario.z0 + frac * (scenario.zf - scenario.z0)
    climb = np.abs(scenario.zf - scenario.z0) / m_slots
    ridge_slope = 0.5 * max(sz - climb, 0.0)
    idx = np.arange(m_slots + 1, dtype=float)
    ridge = np.minimum(idx, m_slots - idx) * ridge_slope
    ridge = np.minimum(ridge, 20.0)
    target = line + ridge
    for tau in (1e-3, 1e-2, 0.1):
        z_hat = plan.z.copy()
        z_hat[1:-1] = _blend_path(plan.z[1:-1], target[1:-1], tau)
        dz = np.diff(z_hat)
        if (np.max(np.abs(dz)) < sz - 1e-12
                and z_hat[1:-1].min() > scenario.h_min + 1e-12):
            break
    else:
        return None

    diff = plan.q[None, 1:, :] - w[:, None, :]
    d2q = np.einsum("nmk,nmk->nm", diff, diff)
    coef = tangent_coefficients(d2q, z_hat[None, 1:], gam[:, None],
                                model, scenario.alpha)

    active = a > _SPARSIFY_TOL
    s_pairs = [(n, m) for n in range(n_sn) for m in range(m_slots - 1)
               if active[n, m]] if with_s else []
    s_pos = {pair: n_free + k for k, pair in enumerate(s_pairs)}
    nv = n_free + len(s_pairs) + 1
    eta_col = nv - 1

    n_rows = n_sn + m_slots
    rb = _RowBuilder(n_rows, nv)

    for n in range(n_sn):
        rb.C[n, eta_col] = -1.0
        for m in range(m_slots):
            am = a[n, m] / m_slots
            if am * m_slots <= _SPARSIFY_TOL:
                continue
            r_hat = coef.r_hat[n, m]
            if m == m_slots - 1:
                rb.d[n] += am * r_hat
                continue
            phi, psi = coef.phi[n, m], coef.psi[n, m]
            zh = z_hat[m + 1]
            rb.d[n] += am * (r_hat + psi * zh * zh)
            rb.add_square(n, am * psi, 1.0, m, 0.0, 0, 0.0)
            if with_s:
                rb.d[n] += am * phi * math.exp(-coef.s_hat[n, m])
                rb.add_exp(n, am * phi, s_pos[(n, m)])

    for m in range(m_slots):                    # climb-rate rows
        row = n_sn + m
        rb.d[row] = sz ** 2
        if m == 0:
            rb.add_square(row, 1.0, 1.0, 0, 0.0, 0, -scenario.z0)
        elif m == m_slots - 1:
            rb.add_square(row, 1.0, -1.0, m_slots - 2, 0.0, 0, scenario.zf)
        else:
            rb.add_square(row, 1.0, 1.0, m, -1.0, m - 1, 0.0)

    blocks = [rb.block()]
    if s_pairs:
        c_off = np.array([max(d2q[n, m], 1e-9) for n, m in s_pairs])
        z_idx = np.array([m for _, m in s_pairs], dtype=np.int64)
        s_idx = np.array([s_pos[p] for p in s_pairs], dtype=np.int64)
        blocks.append(VRatioRows(
            d=np.full(len(s_pairs), model.b1), b2=model.b2,
            c=c_off, z_idx=z_idx, s_idx=s_idx))

    lb = np.full(nv, -np.inf)
    lb[:n_free] = scenario.h_min
    objective = np.zeros(nv)
    objective[eta_col] = 1.0
    cp = ConcaveProgram(n_vars=nv, objective=objective, blocks=blocks, lb=lb)

    start = np.zeros(nv)
    start[:n_free] = z_hat[1:-1]
    all_blocks = cp.all_blocks()

    def stacked(xv):
        return np.concatenate([blk.values(xv) for blk in all_blocks])

    if s_pairs:
        probe = start.copy()
        vals = blocks[1].values(probe)
        start[n_free:eta_col] = vals - _SLACK_GAP
    rate_vals = all_blocks[0].values(start)[:n_sn]
    eta0 = float(rate_vals.min())
    start[eta_col] = eta0 - _SLACK_GAP * max(1.0, abs(eta0))
    if stacked(start).min() <= 0.0:
        return None

    rep = maximize_concave_program(cp, start)
    z_new = plan.z.copy()
    z_new[1:-1] = rep.x[:n_free]
    return z_new


# ---------------------------------------------------------------------------
# outer loop
# ---------------------------------------------------------------------------

def run_bcd(scenario: Scenario, model: Optional[LogisticModel] = None, *,
            los_only=False, freeze_vertical=False, tol=1e-4,
            max_iters=50, init: Optional[Plan] = None):
    """Block-coordinate ascent on (schedule, path, altitude).

    Each outer iteration runs the scheduling LP and one tangent-bound step
    per trajectory block, accepting a block's move only if the model-based
    objective does not fall.  Returns (plan, info) where info carries the
    per-iteration objective trace, iteration count, and convergence flag.
    """
    if los_only or model is None:
        model = LOS_MODEL
    plan = init.copy() if init is not None else initialize_plan(scenario)
    eta = plan_eta(plan, predicted_rates(plan.q, plan.z, scenario, model))
    trace = [eta]
    converged = False
    iterations = 0

    for _ in range(max_iters):
        iterations += 1
        rates = predicted_rates(plan.q, plan.z, scenario, model)
        a_new, eta_lp = solve_scheduling(rates)
        if eta_lp >= plan_eta(plan, rates) - 1e-12:
            plan.a = a_new

        q_new = solve_horizontal(plan, scenario, model)
        if q_new is not None:
            rates_new = predicted_rates(q_new, plan.z, scenario, model)
            trial = Plan(q=q_new, z=plan.z, a=plan.a)
            if plan_eta(trial, rates_new) >= plan_eta(
                    plan, predicted_rates(plan.q, plan.z, scenario, model)):
                plan = trial

        if not freeze_vertical:
            z_new = solve_vertical(plan, scenario, model)
            if z_new is not None:
                rates_new = predicted_rates(plan.q, z_new, scenario, model)
                trial = Plan(q=plan.q, z=z_new, a=plan.a)
                if plan_eta(trial, rates_new) >= plan_eta(
                        plan, predicted_rates(plan.q, plan.z, scenario, model)):
                    plan = trial

        eta_new = plan_eta(plan, predicted_rates(plan.q, plan.z,
                                                 scenario, model))
        trace.append(eta_new)
        rel = (eta_new - eta) / max(abs(eta), 1e-12)
        eta = eta_new
        if 0.0 <= rel < tol:
            converged = True
            break

    info = {"trace": trace, "iterations": iterations, "converged": converged,
            "eta_model": eta}
    return plan, info
