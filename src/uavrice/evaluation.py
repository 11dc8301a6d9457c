"""Ground-truth plan assessment: exact outage rates, Monte-Carlo outage
verification, and the four benchmark mission designs.

The planner works with a fitted surrogate of the effective fading power; this
module re-scores its plans with the exact quantile (the inverse noncentral
chi-square cdf) and, on request, with brute-force link simulation: per
scheduled slot, draw Rician gains block by block and count how often the
instantaneous capacity falls short of the committed rate.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import DEFAULT_SEED
from .channel import (
    Scenario,
    rate_from_gain,
    rician_factor,
    sample_rician,
    substream,
)
from .fading import LogisticModel, exact_effective_power, fit_logistic, \
    generate_regression_samples
from .planner import (
    LOS_MODEL,
    Plan,
    initialize_plan,
    max_min_rate,
    predicted_rates,
    round_schedule,
    run_bcd,
    slot_geometry,
    solve_scheduling,
)

SCHEMES = ("lb", "rfla", "rffsa", "rfb")

DEFAULT_TRIALS = 100_000

# candidate fixed altitudes swept by the best-fixed-altitude benchmark [m]
DEFAULT_ALTITUDES = tuple(float(h) for h in range(100, 301, 25))


def ks_upper_bound(samples, cdf, n_grid=200_000):
    """Rigorous upper bound on the Kolmogorov-Smirnov statistic.

    Sandwiches sup |F_hat - F| using a quantile-spaced grid of sample points,
    so the model cdf is evaluated n_grid times instead of once per sample.
    Both F_hat and F are monotone, hence on each cell (g[i-1], g[i]]:

        sup (F_hat - F) <= F_hat(g[i]) - F(g[i-1])
        sup (F - F_hat) <= F(g[i]) - F_hat(g[i-1])

    and the tails beyond the extreme samples contribute max(1/n, F(g[0])) and
    1 - F(g[-1]).  The bound overshoots the true statistic by at most one
    cell's probability mass (~ n/n_grid samples).
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    idx = np.unique(np.linspace(0, n - 1, min(n_grid, n)).astype(np.int64))
    g = x[idx]
    rank = np.searchsorted(x, g, side="right") / n   # F_hat at grid points
    F = np.asarray(cdf(g), dtype=float)
    d = max(
        float(np.max(rank[1:] - F[:-1])),
        float(np.max(F[1:] - rank[:-1])),
        float(max(rank[0], F[0])),        # left tail
        float(1.0 - F[-1]),               # right tail
        float(1.0 - rank[-1]),
    )
    return d


# ---------------------------------------------------------------------------
# exact re-scoring
# ---------------------------------------------------------------------------

def _slot_channel(q, z, scenario: Scenario):
    """Squared distance and Rician factor per (node, slot), each (N, M);
    the factor follows from the elevation angle."""
    d2, v = slot_geometry(q, z, scenario)
    a1, a2 = scenario.rician_coeffs
    return d2, rician_factor(np.arcsin(np.clip(v, 0.0, 1.0)), a1, a2)


def exact_rates(q, z, scenario: Scenario):
    """Outage rates under the exact fading quantile, shape (N, M).

    The effective power is the noncentral chi-square quantile at each
    slot's Rician factor; the rate comes from the shared kernel.
    """
    d2, k = _slot_channel(q, z, scenario)
    f = exact_effective_power(k, scenario.epsilon)
    return rate_from_gain(f, scenario.snr_gamma_per_sn[:, None], d2,
                          scenario.alpha)


def owners_to_activity(owners, n_sn):
    """Expand per-slot owner indices into a 0/1 activity matrix (N, M)."""
    owners = np.asarray(owners, dtype=int)
    a = np.zeros((n_sn, owners.size))
    on = owners >= 0
    a[owners[on], np.nonzero(on)[0]] = 1.0
    return a


# ---------------------------------------------------------------------------
# Monte-Carlo outage verification
# ---------------------------------------------------------------------------

def monte_carlo_outage(plan: Plan, scenario: Scenario, trials, seed, *,
                       rates=None, owners=None):
    """Empirical outage frequency per slot from brute-force link simulation.

    For each scheduled slot the owner's committed rate is tested against
    ``trials`` independent slots of ``scenario.n_blocks`` Rician fading
    blocks each; a block is in outage when its instantaneous capacity falls
    below the rate.  Returns ``(freq, samples)`` where ``samples[m]`` is the
    number of fading blocks drawn for slot m (0 when unscheduled, in which
    case ``freq[m]`` is 0 by convention).

    ``rates`` defaults to the exact outage rates for the plan's geometry, in
    which case every frequency estimates the scenario's outage target.
    Passing planner-model rates instead measures how far the surrogate's
    rate commitments miss that target.  ``owners`` defaults to rounding the
    plan's activities against ``rates``.

    Slot streams are derived from ``(seed, slot)`` so results do not depend
    on evaluation order.
    """
    trials = int(trials)
    if trials < 10_000:
        raise ValueError("need at least 1e4 trials per slot for a "
                         "meaningful frequency")
    if rates is None:
        rates = exact_rates(plan.q, plan.z, scenario)
    rates = np.asarray(rates, dtype=float)
    if owners is None:
        owners = round_schedule(plan.a, rates)
    owners = np.asarray(owners, dtype=int)

    d2, k_all = _slot_channel(plan.q, plan.z, scenario)
    gamma = scenario.snr_gamma_per_sn

    n_blocks = scenario.n_blocks
    m_slots = scenario.n_slots
    freq = np.zeros(m_slots)
    samples = np.zeros(m_slots, dtype=np.int64)
    for m in range(m_slots):
        n = owners[m]
        if n < 0:
            continue
        rng = substream(seed, m)
        g = sample_rician(float(k_all[n, m]), rng, size=(trials, n_blocks))
        cap = rate_from_gain(np.abs(g) ** 2, gamma[n], d2[n, m],
                             scenario.alpha)
        samples[m] = trials * n_blocks
        freq[m] = np.count_nonzero(cap < rates[n, m]) / samples[m]
    return freq, samples


# ---------------------------------------------------------------------------
# reports and the benchmark protocol
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class EvalReport:
    """Exact re-scoring of one plan, plus its Monte-Carlo outage check.

    ``owners`` holds the committed slot schedule (-1 = idle slot); the two
    rate arrays give the owning node's planner-model and exact rates per
    slot (0 where idle).  ``eta_estimated`` and ``eta_achieved`` are the
    max-min objective under those two rate sets for the same schedule; the
    achieved value may exceed the estimate when the planner's surrogate is
    conservative, so no ordering is implied.  ``outage_freq[m]`` counts
    fading blocks whose capacity fell below the committed exact rate, out of
    ``outage_samples[m]`` drawn.  ``extras`` carries run metadata (objective
    trace, iteration counts, interior-point solves per trajectory block
    that did not end optimal, altitude sweeps) for serialization.
    """

    scheme: str
    seed: int
    trials: int
    n_blocks: int
    owners: np.ndarray
    rates_est: np.ndarray
    rates_exact: np.ndarray
    eta_estimated: float
    eta_achieved: float
    outage_freq: np.ndarray
    outage_samples: np.ndarray
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        self.owners = np.asarray(self.owners, dtype=int)
        self.rates_est = np.asarray(self.rates_est, dtype=float)
        self.rates_exact = np.asarray(self.rates_exact, dtype=float)
        self.outage_freq = np.asarray(self.outage_freq, dtype=float)
        self.outage_samples = np.asarray(self.outage_samples, dtype=np.int64)
        m = self.owners.size
        for name in ("rates_est", "rates_exact", "outage_freq",
                     "outage_samples"):
            if getattr(self, name).shape != (m,):
                raise ValueError(f"{name} must have one entry per slot")
        if np.any(self.outage_freq < 0.0) or np.any(self.outage_freq > 1.0):
            raise ValueError("outage frequencies must lie in [0, 1]")

    @property
    def model_gap(self):
        """Estimated-minus-achieved max-min rate (positive = overpromise)."""
        return self.eta_estimated - self.eta_achieved


def evaluate_plan(plan: Plan, scenario: Scenario, model: LogisticModel, *,
                  scheme="rfb", seed=DEFAULT_SEED, trials=DEFAULT_TRIALS,
                  simulate=True, extras=None):
    """Score a plan: commit a slot schedule, compare model vs exact rates,
    and (optionally) verify the outage target by link simulation.

    ``model`` must be the surrogate the planner itself used, so that
    ``eta_estimated`` reproduces its view of the plan.  The schedule is the
    rounded activity matrix; both objectives are computed on that same
    schedule so their gap isolates the channel model.
    """
    rates_model = predicted_rates(plan.q, plan.z, scenario, model)
    rates_true = exact_rates(plan.q, plan.z, scenario)
    owners = round_schedule(plan.a, rates_model)
    a_int = owners_to_activity(owners, scenario.n_sn)

    idx = np.arange(owners.size)
    on = owners >= 0
    est = np.zeros(owners.size)
    exact = np.zeros(owners.size)
    est[on] = rates_model[owners[on], idx[on]]
    exact[on] = rates_true[owners[on], idx[on]]

    if simulate:
        freq, samples = monte_carlo_outage(plan, scenario, trials, seed,
                                           rates=rates_true, owners=owners)
    else:
        freq = np.zeros(owners.size)
        samples = np.zeros(owners.size, dtype=np.int64)

    return EvalReport(
        scheme=scheme, seed=int(seed), trials=int(trials),
        n_blocks=scenario.n_blocks, owners=owners,
        rates_est=est, rates_exact=exact,
        eta_estimated=max_min_rate(a_int, rates_model),
        eta_achieved=max_min_rate(a_int, rates_true),
        outage_freq=freq, outage_samples=samples,
        extras=dict(extras or {}),
    )


def cruise_profile(scenario: Scenario, h):
    """Altitude profile that moves to cruise altitude h at full vertical
    speed, holds it, and meets the exit altitude the same way.

    The fixed-altitude benchmarks fly this shape with the cruise level as
    their only vertical degree of freedom; endpoints always stay pinned, so
    the profile degrades to a tent when the mission is too short to reach h.
    """
    h = float(h)
    if h < scenario.h_min:
        raise ValueError("cruise altitude below the floor")
    step = scenario.sz
    t = np.arange(scenario.n_slots + 1, dtype=float)
    z = np.clip(h, scenario.z0 - step * t, scenario.z0 + step * t)
    return np.clip(z, scenario.zf - step * t[::-1],
                   scenario.zf + step * t[::-1])


def _level_start(scenario: Scenario, h):
    """Straight-line plan flown at the cruise profile for altitude h."""
    plan = initialize_plan(scenario)
    return Plan(q=plan.q, z=cruise_profile(scenario, h), a=plan.a)


def best_cruise_start(scenario: Scenario, model: LogisticModel,
                      altitudes=DEFAULT_ALTITUDES):
    """Pick the cruise-profile start whose schedule-optimized surrogate
    objective is largest.

    Coordinate ascent from a floor-level line can stall when nodes near the
    corridor pin the max-min objective: no single vertical move helps until
    the schedule shifts, and the schedule has no reason to shift at the
    floor.  A one-dimensional scan over cruise levels (one scheduling LP
    each) costs little and starts the ascent on the right side of that
    coupling.
    """
    best = None
    for h in altitudes:
        if h < scenario.h_min:
            continue
        plan = _level_start(scenario, h)
        a, eta = solve_scheduling(
            predicted_rates(plan.q, plan.z, scenario, model))
        if best is None or eta > best[0]:
            best = (eta, Plan(q=plan.q, z=plan.z, a=a))
    return best[1]


def fit_for_scenario(scenario: Scenario, grid_size=200):
    """Fit the logistic effective-power surrogate to this scenario's channel."""
    samples = generate_regression_samples(scenario.k_min, scenario.k_max,
                                          scenario.epsilon,
                                          grid_size=grid_size)
    return fit_logistic(samples)


def run_scheme(scheme, scenario: Scenario, model: Optional[LogisticModel] = None,
               *, seed=DEFAULT_SEED, trials=DEFAULT_TRIALS,
               altitudes=None, simulate=True, tol=1e-4, max_iters=50):
    """Plan and score one benchmark mission design.  Returns (plan, report).

    lb     planner that pretends fading never bites (surrogate = 1) and
           stays at the altitude floor,
    rfla   fading-aware planner pinned to the altitude floor,
    rffsa  fading-aware planner on a full-speed climb/hold/descend profile,
           cruising at the best of several candidate altitudes (selected on
           the achieved, exact-rate objective),
    rfb    the full design with free altitude, started from the best
           cruise level so the ascent does not stall at the floor.

    ``model`` is the fitted surrogate shared by the fading-aware schemes; it
    is fitted from the scenario's channel constants when omitted.  All
    schemes are re-scored with exact rates; the report's estimates use the
    surrogate each planner actually optimized.
    """
    scheme = str(scheme).lower()
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of "
                         f"{'/'.join(SCHEMES)}")
    if scheme == "lb":
        model = LOS_MODEL
    elif model is None:
        model = fit_for_scenario(scenario)
    if altitudes is None:
        altitudes = DEFAULT_ALTITUDES

    if scheme in ("lb", "rfla"):
        plan, info = run_bcd(scenario, model, freeze_vertical=True,
                             init=_level_start(scenario, scenario.h_min),
                             tol=tol, max_iters=max_iters)
    elif scheme == "rffsa":
        sweep = []
        best = None
        for h in altitudes:
            cand, cinfo = run_bcd(scenario, model, freeze_vertical=True,
                                  init=_level_start(scenario, h),
                                  tol=tol, max_iters=max_iters)
            rep = evaluate_plan(cand, scenario, model, scheme=scheme,
                                seed=seed, trials=trials, simulate=False)
            sweep.append([float(h), rep.eta_achieved])
            if best is None or rep.eta_achieved > best[3].eta_achieved:
                best = (float(h), cand, cinfo, rep)
        h_best, plan, info, _ = best
    else:
        plan, info = run_bcd(scenario, model, tol=tol, max_iters=max_iters,
                             init=best_cruise_start(scenario, model,
                                                    altitudes))

    extras = {"trace": [float(t) for t in info["trace"]],
              "iterations": info["iterations"],
              "converged": info["converged"],
              "ipm_not_optimal": info["ipm_not_optimal"]}
    if scheme == "rffsa":
        extras["altitude_sweep"] = sweep
        extras["altitude"] = h_best

    report = evaluate_plan(plan, scenario, model, scheme=scheme,
                           seed=seed, trials=trials, simulate=simulate,
                           extras=extras)
    return plan, report
