"""Solvers for the planner's two subproblem shapes.

The scheduling linear program goes to SciPy's HiGHS (``linprog``), and its
marginals come back as the report's duals together with a re-derived
optimality certificate.  The smooth concave trajectory subproblems use an
in-repo primal-dual interior-point method in plain numpy: problem sizes are
small (hundreds of variables), so dense factorizations beat any sparse
machinery, and every Newton step and line search is reproducible
bit-for-bit across runs.  Callers leave fixed quantities (path endpoints)
out of the variable vector, so each Newton step works on every variable.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.optimize

# linprog status codes other than 0 (solved): 1 iteration limit,
# 2 infeasible, 3 unbounded, 4 numerical difficulties
_HIGHS_FAILURES = {1: "stalled", 2: "infeasible", 3: "unbounded",
                   4: "stalled"}


@dataclass
class SolverReport:
    """Outcome of one solve.  status='optimal' certifies feasibility <= 1e-8
    and stationarity <= 1e-6; anything weaker is 'stalled' (best iterate is
    still returned), 'infeasible', or 'unbounded'."""

    x: np.ndarray
    objective: float
    feasibility: float
    stationarity: float
    iterations: int
    status: str
    message: str = ""
    trace: tuple = ()
    duals: Optional[dict] = None


# ===========================================================================
# Linear programming
# ===========================================================================

@dataclass
class LinearProgram:
    """maximize c @ x  subject to  a_ub @ x <= b_ub,  lb <= x <= ub.

    Lower bounds must be finite (instances here always have them); upper
    bounds may be +inf.
    """

    c: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray
    lb: np.ndarray
    ub: np.ndarray

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        n = self.c.size
        self.a_ub = np.asarray(self.a_ub, dtype=float).reshape(-1, n)
        self.b_ub = np.asarray(self.b_ub, dtype=float).reshape(-1)
        self.lb = np.asarray(self.lb, dtype=float).reshape(-1)
        self.ub = np.asarray(self.ub, dtype=float).reshape(-1)
        if self.a_ub.shape[0] != self.b_ub.size:
            raise ValueError("a_ub and b_ub row counts differ")
        if self.lb.size != n or self.ub.size != n:
            raise ValueError("bound arrays must match the variable count")
        if not np.all(np.isfinite(self.lb)):
            raise ValueError("lower bounds must be finite")
        if np.any(self.ub < self.lb):
            raise ValueError("upper bound below lower bound")


def solve_lp(lp: LinearProgram) -> SolverReport:
    """Solve the boxed inequality-form LP with HiGHS.

    HiGHS minimizes, so the objective is negated and its marginals flipped
    back into the nonnegative multipliers of the maximization.  The report
    re-derives the optimality certificate from those duals in the variables
    y = x - lb (dual infeasibility, complementary slackness, duality gap),
    so 'optimal' never rests on the solver's word alone.
    """
    m_ub = lp.a_ub.shape[0]
    res = scipy.optimize.linprog(
        -lp.c, A_ub=lp.a_ub if m_ub else None, b_ub=lp.b_ub if m_ub else None,
        bounds=np.column_stack([lp.lb, lp.ub]), method="highs")
    x = lp.lb.copy() if res.x is None else res.x
    fin = np.flatnonzero(np.isfinite(lp.ub))
    feas = max(0.0, float(np.max(lp.a_ub @ x - lp.b_ub, initial=0.0)),
               float(np.max(lp.lb - x)),
               float(np.max((x - lp.ub)[fin], initial=0.0)))
    report = dict(x=x, objective=float(lp.c @ x), feasibility=feas,
                  iterations=int(res.nit), message=res.message)
    if res.status in _HIGHS_FAILURES:
        return SolverReport(stationarity=np.inf,
                            status=_HIGHS_FAILURES[res.status], **report)

    lam_ub = -res.ineqlin.marginals if m_ub else np.zeros(0)
    lam_box = -res.upper.marginals
    reduced = lp.a_ub.T @ lam_ub + lam_box - lp.c
    # the same LP shifted to y >= 0, with the finite upper bounds as rows
    y = x - lp.lb
    lam = np.concatenate([lam_ub, lam_box[fin]])
    b = np.concatenate([lp.b_ub - lp.a_ub @ lp.lb, lp.ub[fin] - lp.lb[fin]])
    slack = np.concatenate([lp.b_ub - lp.a_ub @ x, lp.ub[fin] - x[fin]])
    dual_infeas = max(0.0, float(-np.min(lam, initial=0.0)),
                      float(-reduced.min()))
    compl = max(float(np.max(np.abs(lam * slack), initial=0.0)),
                float(np.max(np.abs(reduced * y))))
    scale = 1.0 + abs(float(lp.c @ y))
    gap = abs(float(lp.c @ y) - float(lam @ b)) / scale
    stat = max(dual_infeas, compl / scale, gap)
    ok = feas <= 1e-8 and stat <= 1e-6
    report["message"] = "" if ok else "optimality tolerances not met"
    return SolverReport(
        stationarity=stat, status="optimal" if ok else "stalled",
        duals={"ineq": lam_ub, "upper": lam_box, "reduced_costs": reduced},
        **report)


# ===========================================================================
# Smooth concave maximization (log-barrier Newton)
# ===========================================================================
# Constraint rows are grouped into batched blocks.  Every block exposes the
# same protocol on the whole variable vector:
#   values(x)            -> (m,) slacks, feasible iff all > 0
#   grads(x)             -> (m, n) dense Jacobian of the slacks
#   add_curvature(x, w, H) -> H += sum_i w[i] * (-hess g_i)   (n, n) in place
# All rows are concave, so -hess g_i is positive semidefinite and the
# barrier Hessian stays PSD by construction.


@dataclass
class LinearRows:
    """Rows  d + C @ x >= 0  (box bounds, simple linear side constraints)."""

    C: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        self.C = np.asarray(self.C, dtype=float)
        self.d = np.asarray(self.d, dtype=float)

    def values(self, x):
        return self.d + self.C @ x

    def grads(self, x):
        return self.C

    def add_curvature(self, x, w, H):
        pass


@dataclass
class QuadExpRows:
    """Rows  d + C@x - sum_k w_k (p_k x[i_k] + q_k x[j_k] + r_k)^2
                    - sum_k e_k exp(-x[u_k])  >= 0.

    Each squared/exponential term is tagged with the row it belongs to, so a
    single block can hold every per-node rate row (many terms per row), the
    per-slot speed rows (one two-variable square each), and the horizontal
    fading-bound rows.  w_k >= 0 and e_k >= 0 keep every row concave.
    """

    d: np.ndarray
    C: np.ndarray
    quad_row: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    quad_w: np.ndarray = field(default_factory=lambda: np.zeros(0))
    quad_p: np.ndarray = field(default_factory=lambda: np.zeros(0))
    quad_i: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    quad_q: np.ndarray = field(default_factory=lambda: np.zeros(0))
    quad_j: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    quad_r: np.ndarray = field(default_factory=lambda: np.zeros(0))
    exp_row: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    exp_coef: np.ndarray = field(default_factory=lambda: np.zeros(0))
    exp_idx: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))

    def __post_init__(self):
        self.d = np.asarray(self.d, dtype=float)
        self.C = np.asarray(self.C, dtype=float)
        for name in ("quad_row", "quad_i", "quad_j", "exp_row", "exp_idx"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.int64))
        for name in ("quad_w", "quad_p", "quad_q", "quad_r", "exp_coef"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))
        if np.any(self.quad_w < 0) or np.any(self.exp_coef < 0):
            raise ValueError("negative term weights would break concavity")

    def _t(self, x):
        return self.quad_p * x[self.quad_i] + self.quad_q * x[self.quad_j] + self.quad_r

    def values(self, x):
        g = self.d + self.C @ x
        m = g.size
        if self.quad_row.size:
            t = self._t(x)
            g -= np.bincount(self.quad_row, self.quad_w * t * t, minlength=m)
        if self.exp_row.size:
            g -= np.bincount(self.exp_row,
                             self.exp_coef * np.exp(-x[self.exp_idx]),
                             minlength=m)
        return g

    def grads(self, x):
        G = np.array(self.C, copy=True)
        if self.quad_row.size:
            t2w = 2.0 * self.quad_w * self._t(x)
            np.add.at(G, (self.quad_row, self.quad_i), -t2w * self.quad_p)
            np.add.at(G, (self.quad_row, self.quad_j), -t2w * self.quad_q)
        if self.exp_row.size:
            np.add.at(G, (self.exp_row, self.exp_idx),
                      self.exp_coef * np.exp(-x[self.exp_idx]))
        return G

    def add_curvature(self, x, w, H):
        if self.quad_row.size:
            c2 = 2.0 * self.quad_w * w[self.quad_row]
            np.add.at(H, (self.quad_i, self.quad_i), c2 * self.quad_p ** 2)
            np.add.at(H, (self.quad_j, self.quad_j), c2 * self.quad_q ** 2)
            cross = c2 * self.quad_p * self.quad_q
            np.add.at(H, (self.quad_i, self.quad_j), cross)
            np.add.at(H, (self.quad_j, self.quad_i), cross)
        if self.exp_row.size:
            np.add.at(H, (self.exp_idx, self.exp_idx),
                      w[self.exp_row] * self.exp_coef * np.exp(-x[self.exp_idx]))


@dataclass
class VRatioRows:
    """Rows  d + b2 * x[z] / sqrt(c + x[z]^2) - x[s]  >= 0.

    The exact elevation-indicator bound of the vertical subproblem; the
    ratio is concave in the altitude for nonnegative altitudes, so it rides
    the barrier directly with analytic first/second derivatives.
    """

    d: np.ndarray
    b2: float
    c: np.ndarray
    z_idx: np.ndarray
    s_idx: np.ndarray

    def __post_init__(self):
        self.d = np.asarray(self.d, dtype=float)
        self.c = np.asarray(self.c, dtype=float)
        self.z_idx = np.asarray(self.z_idx, dtype=np.int64)
        self.s_idx = np.asarray(self.s_idx, dtype=np.int64)
        if np.any(self.c <= 0):
            raise ValueError("horizontal offset term must be positive")

    def values(self, x):
        z = x[self.z_idx]
        return self.d + self.b2 * z / np.sqrt(self.c + z * z) - x[self.s_idx]

    def grads(self, x):
        z = x[self.z_idx]
        G = np.zeros((self.d.size, x.size))
        dv = self.b2 * self.c / (self.c + z * z) ** 1.5
        np.add.at(G, (np.arange(self.d.size), self.z_idx), dv)
        np.add.at(G, (np.arange(self.d.size), self.s_idx), -1.0)
        return G

    def add_curvature(self, x, w, H):
        z = x[self.z_idx]
        curv = 3.0 * self.b2 * self.c * z / (self.c + z * z) ** 2.5
        np.add.at(H, (self.z_idx, self.z_idx), w * curv)


@dataclass
class ConcaveProgram:
    """maximize objective @ x over concave-slack blocks and a box; fixed
    quantities belong in the row constants, not the variable vector."""

    n_vars: int
    objective: np.ndarray
    blocks: list
    lb: Optional[np.ndarray] = None   # entries -inf where unbounded
    ub: Optional[np.ndarray] = None

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        if self.objective.size != self.n_vars:
            raise ValueError("objective length must equal n_vars")

    def all_blocks(self):
        """Constraint blocks plus one row per finite box bound."""
        blocks = list(self.blocks)
        rows = []
        for bound, sgn in ((self.lb, 1.0), (self.ub, -1.0)):
            if bound is None:
                continue
            bound = np.asarray(bound, dtype=float)
            for i in np.flatnonzero(np.isfinite(bound)):
                row = np.zeros(self.n_vars)
                row[i] = sgn
                rows.append((row, -sgn * bound[i]))
        if rows:
            C = np.stack([r for r, _ in rows])
            d = np.array([v for _, v in rows])
            blocks.append(LinearRows(C=C, d=d))
        return blocks


def _block_values(blocks, x):
    if not blocks:
        return np.zeros(0)
    return np.concatenate([blk.values(x) for blk in blocks])


def maximize_concave_program(cp: ConcaveProgram, start,
                             max_iters=200) -> SolverReport:
    """Primal-dual interior-point maximization.

    Newton steps on the perturbed KKT system (stationarity c + G'lam = 0,
    complementarity lam_i g_i = mu) with explicit dual iterates, equal
    primal/dual step length, a fraction-to-boundary rule on both slacks
    and multipliers, and a residual-norm backtracking test.  Eliminating
    dlam gives an SPD system in dx whose metric weights each row by
    lam_i / g_i.  Carrying the duals is what makes this problem family
    tractable: a slack-only barrier weights tight rows by mu / g_i**2,
    and when the objective variable of a max-min program leans on several
    nearly-active rows at once that weight crushes exactly the direction
    the objective needs, freezing progress at a crawl no mu schedule can
    fix.  Here lam_i approaches the true multiplier instead, so the metric
    stays bounded and the step count stays flat as the gap shrinks.

    The start must be strictly feasible.  The trace records the true
    objective after each accepted step (interior iterates may dip while
    recentering); the returned objective never falls below the start.
    """
    n = cp.n_vars
    x = np.asarray(start, dtype=float).copy()
    if x.size != n:
        raise ValueError("start length must equal n_vars")
    blocks = cp.all_blocks()
    c = cp.objective

    g = _block_values(blocks, x)
    if g.size and g.min() <= 0.0:
        k = int(np.argmin(g))
        raise ValueError(f"start point is not strictly feasible "
                         f"(row {k}, slack {g.min():.3e})")
    m = g.size
    if m == 0:
        stat0 = float(np.max(np.abs(c), initial=0.0))
        ok = stat0 <= 1e-6
        return SolverReport(
            x=x, objective=float(c @ x), feasibility=0.0, stationarity=stat0,
            iterations=0, status="optimal" if ok else "stalled",
            message="" if ok else "unconstrained nonzero gradient",
            trace=(float(c @ x),))
    sizes = [blk.values(x).size for blk in blocks]
    offsets = np.concatenate([[0], np.cumsum(sizes)])

    lam = ((1.0 + abs(float(c @ x))) / m) / g
    best_x = x.copy()
    best_obj = float(c @ x)
    trace = []
    it_total = 0
    stalled = False
    sigma = 0.2
    eye = np.eye(n)

    for _ in range(max_iters):
        g = _block_values(blocks, x)
        G = np.vstack([blk.grads(x) for blk in blocks])
        rd = c + G.T @ lam
        gap = float(lam @ g)
        obj = float(c @ x)
        row_scale = np.max(np.abs(G), axis=1)
        denom = 1.0 + float(np.max(np.abs(c))) + float(np.max(lam * row_scale))
        if np.max(np.abs(rd)) <= 1e-7 * denom and gap <= 3e-7 * (1.0 + abs(obj)):
            break

        mu_t = max(sigma * gap / m, 1e-18 * (1.0 + abs(obj)))
        H = np.zeros((n, n))
        for blk, lo, hi in zip(blocks, offsets[:-1], offsets[1:]):
            blk.add_curvature(x, lam[lo:hi], H)
        W = lam / g
        H += (G * W[:, None]).T @ G
        rhs = c + G.T @ (mu_t / g)

        # Jacobi equilibration keeps the ridge proportional to each
        # variable's own curvature; without it the heavily weighted rows
        # would drown the gentle directions and the step would quietly
        # stop being a Newton step.
        diag = np.maximum(np.diagonal(H), 1e-300)
        dsc = 1.0 / np.sqrt(diag)
        Hs = H * dsc[:, None] * dsc[None, :]
        rs = rhs * dsc
        dx = None
        tau = 0.0
        for _ in range(8):
            try:
                cf = scipy.linalg.cho_factor(Hs + tau * eye, lower=True)
                d = scipy.linalg.cho_solve(cf, rs) * dsc
                if np.all(np.isfinite(d)):
                    dx = d
                    break
            except np.linalg.LinAlgError:
                pass
            tau = 1e-14 if tau == 0.0 else tau * 100.0
        if dx is None:
            stalled = True
            break
        dlam = mu_t / g - lam - W * (G @ dx)

        # equal step length, fraction-to-boundary on the multipliers,
        # then backtrack on strict slack positivity and the KKT merit
        neg = dlam < 0.0
        t = 1.0
        if np.any(neg):
            t = min(1.0, 0.995 * float(np.min(-lam[neg] / dlam[neg])))
        merit0 = float(rd @ rd) + float(np.sum((lam * g - mu_t) ** 2))
        ok = False
        for _ in range(50):
            xt = x + t * dx
            lt = lam + t * dlam
            gt = _block_values(blocks, xt)
            if gt.min() > 0.0 and lt.min() > 0.0:
                rdt = c + np.vstack([blk.grads(xt) for blk in blocks]).T @ lt
                meritt = float(rdt @ rdt) + float(np.sum((lt * gt - mu_t) ** 2))
                if meritt <= (1.0 - 1e-4 * t) * merit0 + 1e-30:
                    ok = True
                    break
            t *= 0.5
        if not ok:
            stalled = True
            break
        x = xt
        lam = lt
        it_total += 1
        sigma = 0.8 if t < 0.2 else (0.1 if t > 0.8 else 0.3)
        obj_now = float(c @ x)
        trace.append(obj_now)
        if obj_now > best_obj:
            best_obj = obj_now
            best_x = x.copy()

    # prefer the final iterate (consistent multipliers) unless an earlier
    # point genuinely beat it on the true objective
    obj_final = float(c @ x)
    if obj_final >= best_obj - 1e-9 * max(1.0, abs(best_obj)):
        best_x = x.copy()
        best_obj = obj_final

    g_best = _block_values(blocks, best_x)
    feas = max(0.0, float(-g_best.min()))
    G = np.vstack([blk.grads(best_x) for blk in blocks])
    resid = float(np.max(np.abs(c + G.T @ lam)))
    row_scale = np.max(np.abs(G), axis=1)
    denom = 1.0 + float(np.max(np.abs(c))) + float(np.max(lam * row_scale))
    gap = float(lam @ g_best)
    stat = max(resid / denom, gap / (1.0 + abs(best_obj)))
    ok = (not stalled) and feas <= 1e-8 and stat <= 1e-6
    return SolverReport(
        x=best_x, objective=best_obj, feasibility=feas, stationarity=stat,
        iterations=it_total, status="optimal" if ok else "stalled",
        message="" if ok else
        ("step rejected by merit backtracking" if stalled else
         "tolerances not met"),
        trace=tuple(trace))
