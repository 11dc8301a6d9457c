"""Solvers for the planner's two subproblem shapes.

The max-min scheduling linear program is solved exactly through its dual,
which has one weight per node: an in-repo dual simplex moves between the
dual's vertices, reads each vertex's activities off one small square
solve, and certifies the result by its duality gap.  The node weights come
back as the report's duals.  The smooth concave trajectory subproblems use
an in-repo primal-dual interior-point method whose Newton step takes time
linear in the number of slots (``_NewtonSystem``) and whose line search
corrects a trial along the program's epigraph columns (``_epigraph``).
The factorizations call LAPACK through ``scipy.linalg.lapack``, bound on
first use, so a run that factors no matrix (``uavrice fit``, ``uavrice
evaluate``) never loads ``scipy.linalg``.  Every Newton step and line
search is reproducible bit-for-bit across runs.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np


@dataclass
class SolverReport:
    """Outcome of one solve.  status='optimal' certifies feasibility <= 1e-8
    and stationarity <= 1e-6 for the interior-point method, and for the
    scheduling LP nonnegative activities, slot sums at most one and a
    duality gap at most 1e-12 (1 + eta); anything weaker is 'stalled'
    (best iterate is still returned).  An LP's ``smoothed`` weights, one
    positive weight per node, are the start of its dual simplex and a warm
    start for a related LP."""

    x: np.ndarray
    objective: float
    feasibility: float
    stationarity: float
    iterations: int
    status: str
    message: str = ""
    trace: tuple = ()
    duals: Optional[np.ndarray] = None
    smoothed: Optional[np.ndarray] = None


# ===========================================================================
# Max-min scheduling LP (dual simplex over the node weights)
# ===========================================================================
# The LP  max eta  s.t.  sum_n a_nm <= 1,  sum_m r_nm a_nm / M >= eta,
# a >= 0  has the dual  min over weights w >= 0, sum w = 1  of
# sum_m max_n w_n r_nm / M.  At a vertex of that dual the slots whose top
# is tied (tie slots, each with its tie set of nodes) join the nodes as a
# hypertree, sum over tie slots of (|tie set| - 1) = N - 1, and every other
# slot belongs to its top node.  One square basis matrix B gives the rest:
# B x = b (each tie slot shared out in full, every node at the same total)
# gives the tie slots' shares and eta, B^T y = -e_eta the node weights
# (w_j r_js = w_i r_is on each tie set, sum w = 1), and B^T y = e_share
# the pivot's side: y is a positive multiple of w on the nodes the share's
# node stays joined to once it leaves its tie set, a negative one on the
# rest.  A negative share leaves, and scaling down its side lowers the
# dual until a node of the other side ties a slot the side holds, which
# enters.  As in generalized upper bounding (Dantzig & Van Slyke,
# J. Comput. Syst. Sci. 1(3), 1967), the slot rows never enter B.  Totals
# below are sums over slots, eta times M.

_SHARE_TOL = 1e-12     # a share above -_SHARE_TOL counts as nonnegative
_CERT_TOL = 1e-12      # certificate: relative gap and slot-sum allowance
_JOIN_RTOL = 1e-13     # dropped nodes this close to the active total stay out
#: the softmax temperatures of a cold start's smoothing, coarse to fine; a
#: warm start, from a related LP's smoothed weights, takes the last two
_TAUS = (0.3, 0.1, 0.03, 0.01)


@dataclass
class _Schedule:
    """Max-min schedule of one rate block, in the block's own indices."""

    a: np.ndarray        # (n, k) activities
    total: float         # bottleneck total
    w: np.ndarray        # (n,) weights, zero off the bottleneck's active nodes
    smoothed: np.ndarray  # (n,) positive weights the start basis came from
    owner: np.ndarray    # (k,) node holding each slot, -1 for an idle slot
    ties: dict           # tie slot -> sorted tuple of its active nodes
    pivots: int


def solve_lp(rates, start=None) -> SolverReport:
    """Max-min slot assignment for per-slot rates (N, M): maximize
    eta = min_n sum_m r_nm a_nm / M over activities a >= 0 with each slot's
    column sum at most one.

    The dual simplex starts from weights smoothed (``_smoothed_weights``)
    from ``start``: by default 1 / (each node's rate total), over every
    temperature of ``_TAUS``; given, a related LP's ``smoothed`` weights
    (N positive weights), over the last two only.

    Each connected component of the positive rates is solved on its own and
    eta is the smallest component value; a slot where every rate is zero
    stays idle.  ``x`` holds the (N, M) activities, ``objective`` eta,
    ``iterations`` the dual-simplex pivots, ``duals`` the node weights
    of the bottleneck component (zero elsewhere) and ``smoothed`` the
    weights the start came from.  The report is 'optimal' only when the
    activities are nonnegative, every slot sums to at most one (to 1e-12
    of rounding) and the duality gap sum_m max_n w_n r_nm / M - eta is at
    most 1e-12 (1 + eta).
    """
    r = np.asarray(rates, dtype=float)
    if r.ndim != 2:
        raise ValueError(f"rates must be a 2-D (nodes, slots) array, "
                         f"got {r.ndim}-D")
    if r.size == 0:
        raise ValueError(f"rates of shape {r.shape} are empty")
    if not np.all(np.isfinite(r)):
        raise ValueError("rates hold non-finite entries")
    if np.any(r < 0.0):
        raise ValueError("rates hold negative entries")
    if start is None:
        totals = r.sum(axis=1)
        start, taus = 1.0 / np.where(totals > 0.0, totals, 1.0), _TAUS
    else:
        start, taus = np.asarray(start, dtype=float), _TAUS[-2:]
        if start.shape != r.shape[:1] or not np.all(
                np.isfinite(start) & (start > 0.0)):
            raise ValueError(f"start must be {r.shape[0]} finite positive "
                             f"weights")
    m_slots = r.shape[1]
    sched = _max_min(r, start, taus)
    a, w = sched.a, sched.w
    eta = float(np.einsum("nm,nm->n", a, r).min()) / m_slots
    gap = (dual_bound(w, r) - eta) / (1.0 + eta)
    over = float(a.sum(axis=0).max()) - 1.0
    ok = a.min() >= 0.0 and over <= _CERT_TOL and gap <= _CERT_TOL
    return SolverReport(
        x=a, objective=eta, feasibility=max(0.0, -float(a.min()), over),
        stationarity=max(gap, 0.0), iterations=sched.pivots,
        status="optimal" if ok else "stalled",
        message="" if ok else (f"certificate failed: relative gap {gap:.3e}, "
                               f"slot sum over one by {over:.3e}"),
        duals=w, smoothed=sched.smoothed)


def dual_bound(weights, rates):
    """Upper bound on the max-min LP's eta for rates (N, M) from node
    weights w >= 0, not all zero: sum_m max_n w_n r_nm / (M sum w), the
    LP dual's objective at w normalized to sum one.  Weak duality (Boyd &
    Vandenberghe, *Convex Optimization*, section 5.2.2) makes it hold for
    any such w; at the LP's own duals it is the certificate's bound."""
    w = np.asarray(weights, dtype=float)
    r = np.asarray(rates, dtype=float)
    return float(np.max(w[:, None] * r, axis=0).sum()) / (r.shape[1]
                                                           * w.sum())


def _max_min(r, start, taus):
    """Each connected component of the block's positive rates on its own;
    the bottleneck component's weights are the block's."""
    n, k = r.shape
    out = _Schedule(a=np.zeros((n, k)), total=np.inf, w=np.zeros(n),
                    smoothed=np.empty(n), owner=np.full(k, -1), ties={},
                    pivots=0)
    for nodes, slots in _components(r > 0.0):
        sub = _component(r[np.ix_(nodes, slots)], start[nodes], taus)
        out.a[np.ix_(nodes, slots)] = sub.a
        out.smoothed[nodes] = sub.smoothed
        out.owner[slots] = nodes[sub.owner]
        out.ties.update({slots[s]: tuple(nodes[list(t)])
                         for s, t in sub.ties.items()})
        out.pivots += sub.pivots
        if sub.total < out.total:
            out.total = sub.total
            out.w = np.zeros(n)
            out.w[nodes] = sub.w
    return out


def _components(pos):
    """(nodes, slots) of each connected component of the bipartite graph
    pos (n, k), in the order of their first node.  A node without an edge
    is a component without slots; a slot without one belongs to none."""
    n, k = pos.shape
    if pos.all():
        return [(np.arange(n), np.arange(k))]
    import scipy.sparse  # here: with csgraph it adds 4.7 MB to a CLI run
    from scipy.sparse.csgraph import connected_components

    node, slot = np.nonzero(pos)
    graph = scipy.sparse.coo_array((np.ones(node.size), (node, n + slot)),
                                   shape=(n + k, n + k))
    _, label = connected_components(graph, directed=False)
    return [(np.flatnonzero(label[:n] == c), np.flatnonzero(label[n:] == c))
            for c in np.unique(label[:n])]


def _component(r, start, taus):
    """Max-min schedule of a connected block r (n, k).

    The dual simplex runs on the active nodes, at first all of them.  Each
    basis is one square system (``_basis``): its solves give the shares,
    the node weights and, for the leaving share, the side its pivot
    scales.  A side whose slots no other node can use drops out with
    weight zero and keeps those slots.  Once the active nodes are optimal,
    the dropped ones are solved on their own slots.  If they fall short of
    the active total, their bottleneck's weights rise from zero, on the
    line towards its own optimal weights, until one of its nodes ties a
    slot an active node holds; every such move lowers the dual, so no
    basis repeats.
    """
    n, k = r.shape
    active = np.ones(n, bool)
    smoothed = _smoothed_weights(r, start, taus)
    owner, ties = _start_basis(r, smoothed)
    pivots, bland, rest = 0, False, None
    limit = 50 * (n + k)
    while True:
        keys, shares, total, y = _basis(r, active, owner, ties)
        w = 0.0 - y[-1]      # not -y[-1]: no -0.0 off the active nodes
        neg = np.flatnonzero(shares < -_SHARE_TOL)
        if pivots >= limit:
            break
        if neg.size:
            # most negative share, or Bland's lowest index after a step
            # that moved no weight, which rules out cycling
            pick = neg[0] if bland else neg[np.argmin(shares[neg])]
            bland = _pivot(r, w, active, owner, ties, *keys[pick],
                           y[pick] > 0.0)
            pivots += 1
            continue
        if active.all():
            break
        rest, free = np.flatnonzero(~active), np.flatnonzero(owner < 0)
        sub = _max_min(r[np.ix_(rest, free)], start[rest], taus)
        pivots += sub.pivots
        if sub.total >= total * (1.0 - _JOIN_RTOL):
            total = min(total, sub.total)
            break
        _rejoin(r, w, active, owner, ties, rest, free, sub)
        pivots += 1
        rest = None

    a = np.zeros((n, k))
    held = np.flatnonzero(owner >= 0)
    a[owner[held], held] = 1.0
    for (s, j), share in zip(keys, shares):
        a[j, s] = max(share, 0.0)
    tied = list(ties)
    a[:, tied] /= np.maximum(a[:, tied].sum(axis=0), 1.0)
    if rest is not None:
        a[np.ix_(rest, free)] = sub.a
        owner[free] = rest[sub.owner]
    return _Schedule(a=a, total=total, w=w, smoothed=smoothed, owner=owner,
                     ties=ties, pivots=pivots)


def _smoothed_weights(r, w, taus):
    """Weights at which the softmax-smoothed schedule, slot m shared in
    proportion to (w_n r_nm)^(1/tau), gives every node the same total:
    damped Newton on the log totals in log w, a few steps at each tau of
    ``taus``, from w.  Only a start: returns w instead when a step leaves
    the finite numbers or a weight underflows."""
    n = r.shape[0]
    if n == 1:
        return w
    # here: scipy.linalg adds 5 MB to a run that factors nothing
    from scipy.linalg.lapack import dgesv
    with np.errstate(divide="ignore"):
        log_r = np.log(r)
    v = np.log(w)

    def residual(v, tau):
        z = (v[:, None] + log_r) * (1.0 / tau)
        q = np.exp(z - z.max(axis=0))
        q *= 1.0 / q.sum(axis=0)
        rq = r * q
        total = rq.sum(axis=1)
        log_t = np.log(np.maximum(total, 1e-300))
        return log_t[1:] - log_t[0], q, rq, total

    for tau in taus:
        with np.errstate(over="ignore", invalid="ignore"):
            f, q, rq, total = residual(v, tau)
        for _ in range(3):
            norm = float(np.abs(f).max())
            if not (np.isfinite(norm) and total.min() > 0.0):
                return w
            if norm < 1e-2:
                break
            # d log T_n / d v_j = (delta_nj - sum_m r_nm q_nm q_jm / T_n) / tau
            jac = -(rq @ q.T) / total[:, None]
            jac.flat[::n + 1] += 1.0
            _, _, step, info = dgesv((jac[1:, 1:] - jac[:1, 1:]) / tau, -f)
            if info or not np.all(np.isfinite(step)):
                return w
            t = 1.0
            while True:
                trial = v.copy()
                trial[1:] += t * step
                with np.errstate(over="ignore", invalid="ignore"):
                    res = residual(trial, tau)
                if t < 1e-3 or np.abs(res[0]).max() < (1.0 - 0.1 * t) * norm:
                    break
                t *= 0.5
            v, (f, q, rq, total) = trial, res
    out = np.exp(v - v.max())
    return out if np.all(out > 0.0) else w


def _start_basis(r, w):
    """A first vertex near the weights w: every slot to its top node, then
    the groups of tied nodes joined one tie at a time, each time by scaling
    up the group that needs the smallest factor to tie a slot it does not
    hold.  The smallest factor overtakes no other slot."""
    n, k = r.shape
    cols = np.arange(k)
    val = w[:, None] * r
    owner = np.argmax(val, axis=0)
    group = np.arange(n)
    ties = {}
    for _ in range(n - 1):
        other = np.where(group[:, None] == group[owner], 0.0, val)
        best = np.argmax(other, axis=0)
        cand = np.flatnonzero(other[best, cols] > 0.0)
        factor = val[owner[cand], cand] / other[best[cand], cand]
        s = cand[np.argmin(factor)]
        up = group == group[best[s]]
        val[up] *= factor.min()
        _tie(ties, owner, s, best[s])
        group[up] = group[owner[s]]
    return owner, ties


def _tie(ties, owner, slot, node):
    """Add node to slot's tie set, which starts from the slot's owner."""
    ties[slot] = tuple(sorted(ties.get(slot, (owner[slot],)) + (node,)))


def _basis(r, active, owner, ties):
    """The square basis matrix B of a basis, solved both ways: B for every
    tie slot shared out in full and every active node at the same total,
    B^T for the weights and sides.  Returns the (slot, node) key of each
    share, the shares, the total and y (size, n), whose row c is the node
    rows of the solution of B^T y = e_c (zero off the active nodes).  Row
    -1 is minus the node weights; a share's row is positive exactly on
    the side its leaving cuts off, the nodes its node stays joined to."""
    n = r.shape[0]
    nodes = np.flatnonzero(active)
    node_row = np.full(n, -1)
    node_row[nodes] = len(ties) + np.arange(nodes.size)
    keys = [(s, j) for s in sorted(ties) for j in ties[s]]
    size = len(keys) + 1
    mat = np.zeros((size, size))
    rhs = np.zeros(size)
    rhs[:len(ties)] = 1.0
    held = owner >= 0
    held[list(ties)] = False
    cols = np.flatnonzero(held)
    rhs[len(ties):] = -np.bincount(owner[cols], r[owner[cols], cols],
                                   minlength=n)[nodes]
    row = {s: i for i, s in enumerate(sorted(ties))}
    for col, (s, j) in enumerate(keys):
        mat[row[s], col] = 1.0
        mat[node_row[j], col] = r[j, s]
    mat[len(ties):, -1] = -1.0
    sol = np.linalg.solve(mat, rhs)
    y = np.zeros((size, n))
    y[:, nodes] = np.linalg.inv(mat)[:, len(ties):]
    return keys, sol[:-1], float(sol[-1]), y


def _pivot(r, w, active, owner, ties, slot, node, side):
    """Take node out of slot's tie set and scale its side (the mask of
    nodes it stays joined to) down until a node of the other side ties a
    slot the side holds, which enters; with no such slot the side drops
    out, weight zero, keeping its slots.  True when the step moved no
    weight."""
    rest = tuple(j for j in ties.pop(slot) if j != node)
    if len(rest) > 1:
        ties[slot] = rest
    owner[slot] = rest[0]
    mine = np.zeros(r.shape[1], bool)
    held = owner >= 0
    mine[held] = side[owner[held]]
    val = w[:, None] * r
    other = np.where(side[:, None], 0.0, val).max(axis=0)
    cand = np.flatnonzero(mine & (other > 0.0))
    if not cand.size:
        active[side] = False
        for s in [s for s, t in ties.items() if side[t[0]]]:
            del ties[s]
        owner[mine] = -1
        return False
    ratio = np.minimum(other[cand] / val[owner[cand], cand], 1.0)
    best = int(np.argmax(ratio))
    enter = cand[best]
    j = int(np.argmax(np.where(side, -1.0, val[:, enter])))
    _tie(ties, owner, enter, j)
    return bool(ratio[best] == 1.0)


def _rejoin(r, w, active, owner, ties, rest, free, sub):
    """Raise the dropped bottleneck's weights (``sub`` solved the dropped
    nodes ``rest`` on the slots ``free``) from zero until one of its nodes
    ties a slot an active node holds; with no such slot the active nodes
    drop out instead."""
    joined = sub.w > 0.0
    wz = np.zeros(r.shape[0])
    wz[rest] = sub.w
    held = np.flatnonzero(owner >= 0)
    val = wz[:, None] * r[:, held]
    top = val.max(axis=0)
    cand = np.flatnonzero(top > 0.0)
    if cand.size:
        cols = held[cand]
        ratio = w[owner[cols]] * r[owner[cols], cols] / top[cand]
        enter = cols[np.argmin(ratio)]
        j = int(np.argmax(wz * r[:, enter]))
        _tie(ties, owner, enter, j)
    else:
        active[:] = False
        ties.clear()
        owner[held] = -1
    active[rest[joined]] = True
    mine = joined[np.maximum(sub.owner, 0)] & (sub.owner >= 0)
    owner[free[mine]] = rest[sub.owner[mine]]
    ties.update({free[s]: tuple(rest[list(t)]) for s, t in sub.ties.items()
                 if joined[list(t)].all()})


# ===========================================================================
# Smooth concave maximization (log-barrier Newton)
# ===========================================================================
# A program's constraint rows are one ConcaveRows set.  It states its
# sparsity once, at construction, as fixed COO index arrays over the whole
# variable vector; a Point, the rows evaluated at one x, gives the values
# that go with them, in the same order.  Repeated (row, col) entries add up.
#   d                -> (m,) row constants; d.size is the row count
#   at(x)            -> the Point p at x
#   p.g, values(x)   -> (m,) slacks, feasible iff all > 0
#   jac_rows, jac_cols   -> the Jacobian's entries, rows numbered 0..m-1
#   p.grads              -> their values
#   curv_rows, curv_cols -> the entries of sum_i w[i] * (-hess g_i),
#                           off-diagonal ones listed in both orders
#   p.curvature(w)       -> their values
#   squares(dx)          -> (m,) t^2 coefficients of the square terms
#                           along a step dx
# All rows are concave, so -hess g_i is positive semidefinite and the
# barrier Hessian stays PSD by construction.


def _terms(name, arrays, dtypes, m):
    """A term group (rows, ...) cast to dtypes; ValueError naming the group
    unless its arrays are 1-D and of one length, its rows lie in [0, m) and
    its other integer arrays, column indices, are nonnegative."""
    out = tuple(np.asarray(a, dtype=t) for a, t in zip(arrays, dtypes))
    if (len(arrays) != len(dtypes)
            or any(a.shape != (out[0].size,) for a in out)):
        raise ValueError(f"{name}: want {len(dtypes)} 1-D arrays of one size")
    if np.any((out[0] < 0) | (out[0] >= m)):
        raise ValueError(f"{name}: a row index lies outside [0, {m})")
    if any(np.any(a < 0) for a in out[1:] if a.dtype == np.int64):
        raise ValueError(f"{name}: a column index is negative")
    return out


@dataclass
class ConcaveRows:
    """Rows  d + sum b x[i] / sqrt(c + x[i]^2) + L@x - sum w (x[i] - a)^2
                - sum v (x[i] - x[j])^2 - sum e exp(-s_k(x))  >= 0,
    each sum over its group's terms, s_k the slack of row k of ``inner``.

    Each term group is a tuple of equal-length arrays led by the rows its
    terms belong to, kept in the order given: ``lin`` the entries of L as
    COO triples (rows, cols, vals), the anchor squares ``anchor`` (rows, w,
    i, a), the difference squares ``diff`` (rows, v, i, j), ``exp``
    (rows, e) and the elevation ratios ``ratio`` (rows, b, c, i).  So one
    set holds every row of a trajectory step, its inner rows the elevation
    caps.  w, v, e, b >= 0 and c > 0 keep every row concave where the
    ratio's x[i] is nonnegative (the floor keeps altitudes there), and
    -exp(-s) of a concave s is concave.  An anchor square has its entries
    on x[i] alone; a difference square on x[i] and x[j], plus the cross
    entry (i, j) in both orders; a ratio on x[i] alone; an exponential
    term on its inner row's Jacobian entries, with its curvature
    e exp(-s) (grad s grad s' - hess s) on that row's curvature entries
    and on every pair of its Jacobian entries.
    """

    d: np.ndarray
    lin: tuple = ((), (), ())
    anchor: tuple = ((), (), (), ())
    diff: tuple = ((), (), (), ())
    exp: tuple = ((), ())
    ratio: tuple = ((), (), (), ())
    inner: Optional["ConcaveRows"] = None

    def __post_init__(self):
        self.d = np.asarray(self.d, dtype=float)
        m, i8 = self.d.size, np.int64
        self.lin = _terms("lin", self.lin, (i8, i8, float), m)
        self.anchor = _terms("anchor", self.anchor, (i8, float, i8, float), m)
        self.diff = _terms("diff", self.diff, (i8, float, i8, i8), m)
        self.exp = _terms("exp", self.exp, (i8, float), m)
        self.ratio = _terms("ratio", self.ratio, (i8, float, float, i8), m)
        if np.any(np.concatenate([self.anchor[1], self.diff[1], self.exp[1],
                                  self.ratio[1]]) < 0):
            raise ValueError("negative term weights would break concavity")
        if np.any(self.ratio[2] <= 0):
            raise ValueError("ratio: the offset c must be positive")
        if (self.inner.d.size if self.inner else 0) != self.exp[0].size:
            raise ValueError("exp: want one inner row per term")
        # the inner rows' Jacobian and curvature entries (none without them)
        ir, ic, cr, cc = ((self.inner.jac_rows, self.inner.jac_cols,
                           self.inner.curv_rows, self.inner.curv_cols)
                          if self.inner else (self.exp[0],) * 4)
        # both shapes square x[i] - y: y = a for the anchors, then x[j]
        self._row, self._w, self._i = (np.concatenate(pair) for pair
                                       in zip(self.anchor[:3], self.diff[:3]))
        # every pair (a, b) of entries of one inner row, and that row
        by_row = np.argsort(ir, kind="stable")
        a, b = _pairs_within_rows(ir[by_row])
        self._pair = ir[by_row[a]], by_row[a], by_row[b]
        i, j, r = self._i, self.diff[3], self.ratio[3]
        self.jac_rows = np.concatenate([self.lin[0], self._row, self.diff[0],
                                        self.exp[0][ir], self.ratio[0]])
        self.jac_cols = np.concatenate([self.lin[1], i, j, ic, r])
        pa, pb = ic[self._pair[1]], ic[self._pair[2]]
        self.curv_rows = np.concatenate([i, j, self.diff[2], j, cr, pa, r])
        self.curv_cols = np.concatenate([i, j, j, self.diff[2], cc, pb, r])

    def at(self, x):
        """The rows evaluated at x (a ``Point``)."""
        return Point(self, x)

    def values(self, x):
        """(m,) slacks at x."""
        return self.at(x).g

    def squares(self, dx):
        """Each row's t^2 coefficient of its square terms along x + t dx:
        sum w (dx[i] - dx[j])^2, dx[j] = 0 for an anchor square.  Every
        other term is linear or concave along the step, so a row never
        rises above g + t gdx - t^2 squares(dx)."""
        u = dx[self._i]
        u[self.anchor[0].size:] -= dx[self.diff[3]]
        return np.bincount(self._row, self._w * u * u, minlength=self.d.size)


class Point:
    """A ``ConcaveRows`` set evaluated once at one point x: the slacks
    ``g``, and what its Jacobian values ``grads`` and its ``curvature``
    share with them there, each square's gap, each ratio's x[i] and, for
    the exponential terms, the inner rows' point and e exp(-s).  Those are
    read off x when the point is made; ``x`` is kept, not copied."""

    def __init__(self, rows, x):
        self.rows, self.x = rows, x
        # x[i] - a of each anchor square, then x[i] - x[j] of each diff
        self.gap = x[rows._i] - np.concatenate([rows.anchor[3],
                                                x[rows.diff[3]]])
        self.z = x[rows.ratio[3]]
        m = rows.d.size
        g = rows.d
        r_rows, b, c, _ = rows.ratio
        if r_rows.size:
            z = self.z
            g = g + np.bincount(r_rows, b * z / np.sqrt(c + z * z),
                                minlength=m)
        l_rows, l_cols, l_vals = rows.lin
        g = g + np.bincount(l_rows, l_vals * x[l_cols], minlength=m)
        if rows._row.size:
            t = self.gap
            g -= np.bincount(rows._row, rows._w * t * t, minlength=m)
        self.inner = Point(rows.inner, x) if rows.inner else None
        if self.inner:      # e exp(-s) of each exponential term
            self.e = rows.exp[1] * np.exp(-self.inner.g)
            g -= np.bincount(rows.exp[0], self.e, minlength=m)
        self.g = g

    @cached_property
    def grads(self):
        """Values of the Jacobian entries (jac_rows, jac_cols)."""
        rows = self.rows
        # -2 w t on x[i], +2 w t on a difference's x[j]
        t2w = 2.0 * rows._w * self.gap
        _, b, c, _ = rows.ratio
        z = self.z
        parts = [rows.lin[2], -t2w, t2w[rows.anchor[0].size:]]
        if self.inner:      # e exp(-s) grad s
            parts.append(self.e[rows.inner.jac_rows] * self.inner.grads)
        return np.concatenate(parts + [b * c / (c + z * z) ** 1.5])

    def curvature(self, w):
        """Values of the entries (curv_rows, curv_cols) of
        sum_i w[i] * (-hess g_i)."""
        rows = self.rows
        # 2 w on x[i], then on a difference's x[j]; -2 w on its cross entries
        c2 = 2.0 * rows._w * w[rows._row]
        cross = -c2[rows.anchor[0].size:]
        r_rows, b, c, _ = rows.ratio
        z = self.z
        parts = [c2, -cross, cross, cross]
        if self.inner:      # w e exp(-s) (-hess s), then (grad s grad s')
            k, a, b_ = rows._pair
            we = w[rows.exp[0]] * self.e
            ds = self.inner.grads
            parts += [self.inner.curvature(we), we[k] * ds[a] * ds[b_]]
        return np.concatenate(
            parts + [w[r_rows] * (3.0 * b * c * z / (c + z * z) ** 2.5)])


def _epigraph(system, c, gu):
    """The epigraph columns, read off the start's Jacobian gu, as two
    levels of (rows, cols) entries.  An epigraph column is an objective
    column whose negative entries all have slope -1: lowering it lifts
    those rows.  Those that also enter a row with positive slope (each t_n,
    in its tie row t_n - eta) make the first level, the rest (eta) the
    second."""
    col = system.ucol
    on = (c != 0.0)[col]          # the entries on objective columns
    off = np.bincount(col[on & (gu < 0.0) & (gu != -1.0)], minlength=system.n)
    up = np.bincount(col[on & (gu > 0.0)], minlength=system.n)[col] > 0
    own = on & (gu == -1.0) & (off[col] == 0)
    return [(system.urow[own & up], col[own & up]),
            (system.urow[own & ~up], col[own & ~up])]


def _epigraph_correction(epigraph, rows, pt, pred):
    """Second-order correction (Nocedal & Wright, *Numerical Optimization*,
    2nd ed., section 18.3) of a trial point pt that failed positivity, on
    the epigraph columns: level by level, each column drops by the worst
    curvature residual min(0, g(xt) - pred) over its rows, restoring their
    linear prediction pred (each t_n its rate row, then eta the tie rows).
    Returns the corrected point."""
    for own_rows, own_cols in epigraph:
        drop = np.zeros(pt.x.size)
        np.minimum.at(drop, own_cols, pt.g[own_rows] - pred[own_rows])
        if drop.any():
            pt = rows.at(pt.x + drop)
    return pt


def _pairs_within_rows(rows):
    """All index pairs (a, b), a and b in one row, of a sorted row array."""
    start = np.searchsorted(rows, rows, side="left")
    count = np.searchsorted(rows, rows, side="right") - start
    a = np.repeat(np.arange(rows.size), count)
    b = (np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
         + np.repeat(start, count))
    return a, b


class _NewtonSystem:
    """The barrier Newton matrix  H = curvature + G' diag(W) G  of one
    program, split by the sparsity pattern its rows state.

    The dense columns d are the objective's columns.  They enter the rows
    linearly: a curvature term on any of them is refused.  Rows with an
    entry in d are the coupling rows, every other row is local.  The
    remaining columns b keep the program's order, so a program whose local
    rows only join neighbouring variables (the planner numbers its
    variables slot by slot) has a banded local part A_bb: curvature plus
    local rows.  A_bb must be positive definite, and every program the
    planner builds has one: each free waypoint column carries the move
    rows' squared terms, which chain the free waypoints to the two pinned
    endpoints.  A program without that (a column of b with neither a local
    row nor a curvature term, or an indefinite curvature) gets no
    direction, and its solve ends "stalled".  After Jacobi equilibration,
    with U = W_K^(1/2) G_K the weighted coupling rows (k of them),

        H = [[A_bb + U_b'U_b, U_b'U_d], [U_d'U_b, U_d'U_d]].

    The d columns are eliminated first, which leaves A_bb + U_b' P U_b on
    b, where P = I - U_d (U_d'U_d)^-1 U_d' is the orthogonal projector onto
    the complement of U_d's range.  Their Schur complement takes out
    exactly the direction that dominates near a max-min optimum, so what
    reaches the banded Cholesky of A_bb as a Woodbury update is the
    rank-(k - nd) rest: nothing at all for one node.  Each step costs one
    banded factorization, one banded solve with one right-hand side per
    rank of the update plus one for the step's own right-hand side, one QR
    of U_d and a few dense solves of that size.
    """

    def __init__(self, rows, c):
        n, m = c.size, rows.d.size
        self.n, self.m = n, m
        ukey, self.jac_inv = np.unique(rows.jac_rows * n + rows.jac_cols,
                                       return_inverse=True)
        self.urow, self.ucol = ukey // n, ukey % n
        cr, cc = rows.curv_rows, rows.curv_cols
        self.curv_diag = cr == cc
        self.curv_diag_rows = cr[self.curv_diag]

        dense = c != 0.0
        if np.any(dense[cr] | dense[cc]):
            raise ValueError("a curvature term lies on an objective column; "
                             "objective columns must enter the rows linearly")
        coupling = np.zeros(m, bool)
        coupling[self.urow[dense[self.ucol]]] = True
        local = ~coupling[self.urow]
        self.order = np.concatenate([np.flatnonzero(~dense),
                                     np.flatnonzero(dense)])
        pos = np.empty(n, np.int64)
        pos[self.order] = np.arange(n)
        self.pos = pos
        nb = int(n - dense.sum())
        self.nb, self.nd = nb, n - nb

        # lower-triangle entries of A_bb, curvature terms and products of
        # two entries of one local row, as slots of its band
        self.curv_keep = pos[cr] >= pos[cc]
        loc = np.flatnonzero(local)
        a, b = _pairs_within_rows(self.urow[loc])
        ea, eb = loc[a], loc[b]
        low = pos[self.ucol[ea]] >= pos[self.ucol[eb]]
        self.pair_a, self.pair_b = ea[low], eb[low]
        self.src_r = np.concatenate([cr[self.curv_keep],
                                     self.ucol[self.pair_a]])
        self.src_c = np.concatenate([cc[self.curv_keep],
                                     self.ucol[self.pair_b]])
        r, col = pos[self.src_r], pos[self.src_c]
        self.bw = int(np.max(r - col, initial=0))
        self.slot = (r - col) * nb + col

        # the coupling rows' entries, as slots of a dense (k, n) matrix
        self.k_ent = np.flatnonzero(~local)
        self.k_urow, self.k_ucol = self.urow[self.k_ent], self.ucol[self.k_ent]
        k_rows = np.flatnonzero(coupling)
        self.k = k_rows.size
        self.k_slot = (np.searchsorted(k_rows, self.k_urow) * n
                       + pos[self.k_ucol])

    def jacobian(self, p):
        """Values of the Jacobian's distinct (row, col) entries at the
        point p."""
        return np.bincount(self.jac_inv, p.grads, minlength=self.urow.size)

    def rmatvec(self, gu, v):
        """G' v."""
        return np.bincount(self.ucol, gu * v[self.urow], minlength=self.n)

    def matvec(self, gu, dx):
        """G dx."""
        return np.bincount(self.urow, gu * dx[self.ucol], minlength=self.m)

    def dual_scale(self, gu, lam):
        """max over rows i of lam_i times row i's largest |G_ij|.  With
        lam > 0 and rounding monotone, that is the largest |lam_i G_ij|."""
        return float(np.max(lam[self.urow] * np.abs(gu), initial=0.0))

    def direction(self, p, lam, w, gu, rhs):
        """Solve H dx = rhs at the point p, H with row weights w = lam / g;
        None when a factorization fails or the step is not finite.  The d
        block is the Cholesky factor of U_d'U_d, and the Woodbury update's
        factor V is Q_perp'U_b, Q_perp the last k - nd columns of a
        complete QR of U_d (Householder, ``dgeqrf`` / ``dorgqr``)."""
        # here: scipy.linalg adds 5 MB to a run that factors nothing
        from scipy.linalg.lapack import (dgeqrf, dorgqr, dpbtrf, dpbtrs,
                                         dpotrf, dpotrs)
        nb, nd, k = self.nb, self.nd, self.k
        if k < nd:      # U_d has fewer rows than columns: U_d'U_d is singular
            return None
        cv = p.curvature(lam)
        wg = w[self.urow] * gu
        diag = (np.bincount(self.ucol, wg * gu, minlength=self.n)
                + np.bincount(self.curv_diag_rows, cv[self.curv_diag],
                              minlength=self.n))
        # Jacobi equilibration: without it the heavily weighted rows would
        # drown the gentle directions in rounding
        dsc = 1.0 / np.sqrt(np.maximum(diag, 1e-300))
        vals = np.concatenate([cv[self.curv_keep],
                               wg[self.pair_a] * gu[self.pair_b]])
        # bincount of an empty index array is integer-valued
        band = np.bincount(self.slot, vals * dsc[self.src_r] * dsc[self.src_c],
                           minlength=(self.bw + 1) * nb)
        band = band.astype(float, copy=False).reshape(self.bw + 1, nb)
        u = np.bincount(self.k_slot, np.sqrt(w[self.k_urow]) * gu[self.k_ent]
                        * dsc[self.k_ucol], minlength=k * self.n)
        u = u.astype(float, copy=False).reshape(k, self.n)
        rs = (rhs * dsc)[self.order]
        try:
            chol = _lapack(dpbtrf, band)
            u_b, u_d = u[:, :nb], u[:, nb:]
            h_dd = _lapack(dpotrf, u_d.T @ u_d)
            # P = Q_perp Q_perp', so U_b' P U_b = V'V with V = Q_perp' U_b
            q = np.empty((k, k))
            if k:
                qr, tau, _, _ = dgeqrf(u_d)
                q[:, :nd] = qr
                q = dorgqr(q, tau)[0]
            v = q[:, nd:].T @ u_b
            # one banded solve for A^-1 V' and for A^-1 of the b part of the
            # right-hand side with the d columns eliminated
            w_d = _lapack(dpotrs, h_dd, rs[nb:])
            rank = k - nd
            both = np.empty((nb, rank + 1), order="F")
            both[:, :rank] = v.T
            both[:, rank] = rs[:nb] - u_b.T @ (u_d @ w_d)
            both = _lapack(dpbtrs, chol, both)
            z, y = both[:, :rank], both[:, rank]
            # Woodbury: (A + V'V)^-1 = A^-1 - A^-1 V' (I + V A^-1 V')^-1 V A^-1
            cap = v @ z
            cap.flat[::rank + 1] += 1.0
            y_b = y - z @ _lapack(dpotrs, _lapack(dpotrf, cap), v @ y)
            y_d = w_d - _lapack(dpotrs, h_dd, u_d.T @ (u_b @ y_b))
        except np.linalg.LinAlgError:
            return None
        dx = np.concatenate([y_b, y_d])[self.pos] * dsc
        return dx if np.all(np.isfinite(dx)) else None


def _lapack(routine, *arrays):
    """One lower-triangle Cholesky factorization or solve, called straight
    through SciPy's LAPACK bindings: at the sizes here the public wrappers'
    per-call checks cost more than the arithmetic.  An empty last operand
    needs no work.  LinAlgError when a factorization meets a matrix that is
    not positive definite."""
    if not arrays[-1].size:
        return arrays[-1]
    out, info = routine(*arrays, lower=1)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"{routine.__name__}: leading minor {info} not positive definite")
    if info < 0:
        raise ValueError(f"{routine.__name__}: illegal argument {-info}")
    return out


MAX_NEWTON_STEPS = 200      # an interior-point solve's step cap
STOP_TOL = 1e-7             # its relative stop; the duality gap's is 3x


def _trial_steps(t, t_max):
    """The step lengths the backtracking tries: t, t/2, ..., 50 in all,
    without those above t_max, the longest step at which every screened
    row's bound stays nonnegative."""
    for _ in range(50):
        if t <= t_max:
            yield t
        t *= 0.5


def maximize_concave_program(objective, rows, start) -> SolverReport:
    """Primal-dual interior-point maximization of objective @ x over the
    concave-slack ``rows`` (a ``ConcaveRows``); fixed quantities belong in
    the row constants, not the variable vector, and a bound on a variable
    is one more linear row.

    Newton steps on the perturbed KKT system (stationarity c + G'lam = 0,
    complementarity lam_i g_i = mu) with explicit dual iterates, equal
    primal/dual step length, a fraction-to-boundary rule on both slacks
    and multipliers, and Armijo backtracking on the barrier function
    c x + mu sum log g(x) at the step's mu (Nocedal & Wright, *Numerical
    Optimization*, 2nd ed., section 19.4).  Eliminating dlam gives an SPD
    system H dx = c + G'(mu / g) in dx whose metric weights each row by
    lam_i / g_i, so dx ascends that barrier function; ``_NewtonSystem``
    solves it through the program's banded-plus-low-rank structure.
    Carrying the duals is what makes this problem family tractable: a
    slack-only barrier weights tight rows by mu / g_i**2, and when the
    objective variable of a max-min program leans on several nearly-active
    rows at once that weight crushes exactly the direction the objective
    needs, freezing progress at a crawl no mu schedule can fix.  Here lam_i
    approaches the true multiplier instead, so the metric stays bounded and
    the step count stays flat as the gap shrinks.

    A trial step (``_trial_steps``) that fails positivity gets the
    epigraph correction (``_epigraph_correction``) on the columns
    ``_epigraph`` reads off the start's Jacobian before the positivity and
    barrier tests; the dual step is not corrected.  Without it, a rate row
    whose slack its t_n has pushed to 1e-10 turns long waypoint steps
    negative through its curvature, and the step length crawls.

    A program needs rows and a strictly feasible start of the objective's
    shape.  The trace records the true objective after each accepted step
    (interior iterates may dip while recentering); the returned objective
    never falls below the start.
    """
    c = np.asarray(objective, dtype=float)
    x = np.asarray(start, dtype=float).copy()
    if x.shape != c.shape:
        raise ValueError(f"start of shape {x.shape} does not match the "
                         f"objective's {c.shape}")
    if np.any(np.concatenate([rows.jac_cols, rows.curv_rows]) >= x.size):
        raise ValueError(f"a row column lies beyond the {x.size} variables")
    if not np.all(np.isfinite(x)):
        raise ValueError("start point is not strictly feasible "
                         "(non-finite entry)")
    # each point the loop visits is evaluated once: its slacks, Jacobian
    # and curvature come from one Point
    p = rows.at(x)
    g = p.g
    bad = np.flatnonzero(~(np.isfinite(g) & (g > 0.0)))
    if bad.size:
        raise ValueError(f"start point is not strictly feasible "
                         f"(row {bad[0]}, slack {g[bad[0]]:.3e})")
    m = g.size
    if m == 0:
        raise ValueError("program has no constraint rows")
    system = _NewtonSystem(rows, c)
    gu = system.jacobian(p)
    epigraph = _epigraph(system, c, gu)
    rate_rows, eta_rows = epigraph[0][0], epigraph[-1][0]
    row_scale = np.abs(rows.d)

    best_obj = obj = float(c @ x)
    log_g = float(np.sum(np.log(g)))
    lam = ((1.0 + abs(obj)) / m) / g
    best = p
    c_scale = 1.0 + float(np.max(np.abs(c)))
    trace = []
    it_total = 0
    stall = ""             # why the loop stopped short, if it did
    sigma = 0.2
    # point p = (x, g), its c x and sum log g, Jacobian gu and dual
    # residual rd always belong to (x, lam)
    rd = c + system.rmatvec(gu, lam)

    for _ in range(MAX_NEWTON_STEPS):
        gap = float(lam @ g)
        if (gap <= 3.0 * STOP_TOL * (1.0 + abs(obj))
                and np.max(np.abs(rd)) <= STOP_TOL * (
                    c_scale + system.dual_scale(gu, lam))):
            break

        mu_t = max(sigma * gap / m, 1e-18 * (1.0 + abs(obj)))
        W = lam / g
        mu_g = mu_t / g
        dx = system.direction(p, lam, W, gu, c + system.rmatvec(gu, mu_g))
        if dx is None:
            stall = "no Newton direction"
            break
        gdx = system.matvec(gu, dx)
        dlam = mu_g - lam - W * gdx

        # equal step length, fraction-to-boundary on the multipliers,
        # then backtrack on strict slack positivity and the barrier test.
        # A row never rises above g + t gdx - t^2 q, q its squares(dx).
        # The epigraph correction lifts each t_n's rate row to at most its
        # linear prediction (so q is taken as 0 there) and eta's rows above
        # theirs (unscreened), and lifts no other row.  So a t at which a
        # screened row's bound falls below zero by more than rounding fails
        # positivity; it is never evaluated.
        neg = dlam < 0.0
        t = 1.0
        if np.any(neg):
            t = min(1.0, 0.995 * float(np.min(-lam[neg] / dlam[neg])))
        lo = g + 1e-12 * (1.0 + row_scale + np.abs(g))
        hi = gdx + 1e-12 * np.abs(gdx)
        q = rows.squares(dx) * (1.0 - 1e-12)
        q[rate_rows] = 0.0
        down = (hi < 0.0) | (q > 0.0)
        down[eta_rows] = False
        lo, hi, q = lo[down], hi[down], q[down]
        # the root of lo + hi t - q t^2 = 0 in t > 0, in the form without
        # cancellation for each sign of hi; lo / -hi at q = 0
        root = np.sqrt(hi * hi + 4.0 * q * lo)
        fall = hi < 0.0
        t_max = float(min(np.min(2.0 * lo[fall] / (root[fall] - hi[fall]),
                                 initial=np.inf),
                          np.min((hi[~fall] + root[~fall]) / (2.0 * q[~fall]),
                                 initial=np.inf)))
        # Armijo on the barrier function c x + mu sum log g(x): its slope
        # along dx is (c + G'(mu / g)) dx = dx' H dx > 0
        phi = obj + mu_t * log_g
        slope = float(c @ dx) + float(mu_g @ gdx)
        for t in _trial_steps(t, t_max):
            pt = rows.at(x + t * dx)
            if not pt.g.min() > 0.0:
                pt = _epigraph_correction(epigraph, rows, pt, g + t * gdx)
            if pt.g.min() > 0.0:
                pt_obj = float(c @ pt.x)
                pt_log_g = float(np.sum(np.log(pt.g)))
                if pt_obj + mu_t * pt_log_g >= phi + 1e-4 * t * slope:
                    break
        else:
            stall = "step rejected by barrier backtracking"
            break
        p, lam = pt, lam + t * dlam
        x, g = p.x, p.g
        gu = system.jacobian(p)
        rd = c + system.rmatvec(gu, lam)
        it_total += 1
        sigma = 0.8 if t < 0.2 else (0.1 if t > 0.8 else 0.3)
        obj, log_g = pt_obj, pt_log_g
        trace.append(obj)
        if obj > best_obj:
            best_obj = obj
            best = p

    # prefer the final iterate (consistent multipliers) unless an earlier
    # point genuinely beat it on the true objective
    if obj >= best_obj - 1e-9 * max(1.0, abs(best_obj)):
        best = p
        best_obj = obj
    else:
        g = best.g
        gu = system.jacobian(best)
        rd = c + system.rmatvec(gu, lam)

    feas = max(0.0, float(-g.min()))
    resid = float(np.max(np.abs(rd)))
    denom = c_scale + system.dual_scale(gu, lam)
    gap = float(lam @ g)
    stat = max(resid / denom, gap / (1.0 + abs(best_obj)))
    ok = not stall and feas <= 1e-8 and stat <= 1e-6
    return SolverReport(
        x=best.x, objective=best_obj, feasibility=feas, stationarity=stat,
        iterations=it_total, status="optimal" if ok else "stalled",
        message="" if ok else (stall or "tolerances not met"),
        trace=tuple(trace))
