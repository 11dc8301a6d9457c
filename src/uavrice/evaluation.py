"""Ground-truth plan assessment: exact outage rates, Monte-Carlo outage
verification, and the four benchmark mission designs.

The planner works with a fitted surrogate of the effective fading power; this
module re-scores its plans with the exact quantile (the inverse noncentral
chi-square cdf) and, on request, with brute-force link simulation: per
scheduled slot, draw Rician envelopes block by block and count how often the
instantaneous capacity falls short of the committed rate.
"""

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import DEFAULT_SEED
from .channel import (
    Scenario,
    gain_for_rate,
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
    solve_scheduling,  # noqa: F401  perfbench traces the LP by this name too
)

SCHEMES = ("lb", "rfla", "rffsa", "rfb")

DEFAULT_TRIALS = 100_000
#: the fewest Monte-Carlo trials per slot that give a meaningful frequency
MIN_TRIALS = 10_000
#: sample points of ks_upper_bound's quantile-spaced grid
KS_GRID = 200_000

#: cruise levels the altitude scans try, read at call time [m]
DEFAULT_ALTITUDES = tuple(float(h) for h in range(100, 301, 25))


def ks_upper_bound(samples, cdf):
    """Rigorous upper bound on the Kolmogorov-Smirnov statistic.

    Sandwiches sup |F_hat - F| using a quantile-spaced grid of sample points,
    so the model cdf is evaluated KS_GRID times instead of once per sample.
    Both F_hat and F are monotone, hence on each cell (g[i-1], g[i]]:

        sup (F_hat - F) <= F_hat(g[i]) - F(g[i-1])
        sup (F - F_hat) <= F(g[i]) - F_hat(g[i-1])

    and the tails beyond the extreme samples contribute max(1/n, F(g[0])) and
    1 - F(g[-1]).  The bound overshoots the true statistic by at most one
    cell's probability mass (~ n/KS_GRID samples).
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    idx = np.unique(np.linspace(0, n - 1, min(KS_GRID, n)).astype(np.int64))
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


def exact_rates(q, z, scenario: Scenario, owners=None):
    """Outage rates under the exact fading quantile, shape (N, M).

    The effective power is the noncentral chi-square quantile at each
    slot's Rician factor; the rate comes from the shared kernel.  Given
    ``owners`` (M,), -1 marking an idle slot, only each slot's owner gets
    its rate, the same to the bit, and every other entry is 0.
    """
    d2, k = _slot_channel(q, z, scenario)
    gamma, eps = scenario.snr_gamma_per_sn, scenario.epsilon
    if owners is None:
        return rate_from_gain(exact_effective_power(k, eps), gamma[:, None],
                              d2, scenario.alpha)
    owners = np.asarray(owners)
    slots = np.flatnonzero(owners >= 0)
    at = owners[slots], slots
    out = np.zeros_like(d2)
    out[at] = rate_from_gain(exact_effective_power(k[at], eps), gamma[at[0]],
                             d2[at], scenario.alpha)
    return out


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

def usable_cpus():
    """CPUs this process may run on (all of them where affinity is not
    exposed)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def monte_carlo_outage(plan: Plan, scenario: Scenario, trials, seed, *,
                       rates, owners):
    """Empirical outage frequency per slot from brute-force link simulation.

    For each scheduled slot the owner's committed rate is tested against
    ``trials`` independent slots of ``scenario.n_blocks`` Rician fading
    blocks each; a block is in outage when its instantaneous capacity falls
    below the rate.  That is the event "envelope below
    ``sqrt(gain_for_rate(rate))``", so the threshold is computed once per
    (node, slot) and ``sample_rician`` counts the envelopes below it without
    holding them all.  Returns
    ``(freq, samples)`` where ``samples[m]`` is the number of fading blocks
    drawn for slot m (0 when unscheduled, in which case ``freq[m]`` is 0 by
    convention).

    With the exact outage rates of the plan's geometry (``exact_rates``)
    every frequency estimates the scenario's outage target; planner-model
    rates instead measure how far the surrogate's rate commitments miss
    that target.  ``rates`` must be (N, M), finite and nonnegative;
    ``owners`` must be (M,) integers in [-1, N), -1 marking an idle slot.

    Scheduled slots run concurrently on a thread pool with one worker per
    CPU the process may use.  Each slot draws from its own counter-based
    stream derived from ``(seed, slot)``, so results do not depend on the
    pool size or on the order slots finish in.
    """
    trials = int(trials)
    if trials < MIN_TRIALS:
        raise ValueError(f"need at least {MIN_TRIALS} trials per slot for a "
                         f"meaningful frequency")
    n_sn, m_slots = scenario.n_sn, scenario.n_slots
    rates = np.asarray(rates, dtype=float)
    if rates.shape != (n_sn, m_slots):
        raise ValueError(f"rates must have shape ({n_sn}, {m_slots}), "
                         f"got {rates.shape}")
    if not np.all(np.isfinite(rates)) or np.any(rates < 0.0):
        raise ValueError("rates must be finite and nonnegative")
    owners = np.asarray(owners)
    if owners.shape != (m_slots,):
        raise ValueError(f"owners must have shape ({m_slots},), "
                         f"got {owners.shape}")
    if owners.dtype.kind not in "iu":
        raise ValueError("owners must be integer node indices")
    if np.any(owners < -1) or np.any(owners >= n_sn):
        raise ValueError(f"owners must lie in [-1, {n_sn})")
    owners = owners.astype(int)

    d2, k_all = _slot_channel(plan.q, plan.z, scenario)
    threshold = np.sqrt(gain_for_rate(
        rates, scenario.snr_gamma_per_sn[:, None], d2, scenario.alpha))
    n_blocks = scenario.n_blocks

    def outages(m):
        n = owners[m]
        return sample_rician(float(k_all[n, m]), substream(seed, m),
                             size=(trials, n_blocks), below=threshold[n, m])

    busy = np.flatnonzero(owners >= 0)
    with ThreadPoolExecutor(max_workers=usable_cpus()) as pool:
        counts = list(pool.map(outages, busy))

    freq = np.zeros(m_slots)
    samples = np.zeros(m_slots, dtype=np.int64)
    samples[busy] = trials * n_blocks
    freq[busy] = np.divide(counts, trials * n_blocks)
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
    owners = round_schedule(plan.a, rates_model)
    # the exact quantile only where a slot is scheduled: nothing reads it
    # elsewhere
    rates_true = exact_rates(plan.q, plan.z, scenario, owners)
    a_int = owners_to_activity(owners, scenario.n_sn)
    est = (a_int * rates_model).sum(axis=0)
    exact = (a_int * rates_true).sum(axis=0)

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


def cruise_levels(scenario: Scenario):
    """The cruise levels the altitude scans try: those of
    ``DEFAULT_ALTITUDES`` at or above the floor, or the floor alone when
    none is."""
    return ([h for h in DEFAULT_ALTITUDES if h >= scenario.h_min]
            or [scenario.h_min])


def best_cruise_start(scenario: Scenario, model: LogisticModel):
    """The free-altitude ascent from the best cruise start: ``run_bcd``
    from the level starts of the ``cruise_levels``, of which it picks the
    one whose scheduled surrogate objective is largest.  Returns
    ``run_bcd``'s (plan, info).

    Each tangent step is local, so the ascent from a floor-level line can
    settle at a poor fixed point when nodes near the corridor pin the
    max-min (on ``scenario_4sn``: 0.311 from the floor, 0.382 from the
    pick).  The scan costs one LP per level, and the winner's LP schedule
    is the ascent's first.
    """
    return run_bcd(scenario, model, starts=[_level_start(scenario, h)
                                            for h in cruise_levels(scenario)])


def fit_for_scenario(scenario: Scenario):
    """Fit the logistic effective-power surrogate to this scenario's channel."""
    samples = generate_regression_samples(scenario.k_min, scenario.k_max,
                                          scenario.epsilon)
    return fit_logistic(samples)


def run_scheme(scheme, scenario: Scenario, model: Optional[LogisticModel] = None,
               *, seed=DEFAULT_SEED, trials=DEFAULT_TRIALS, simulate=True):
    """Plan and score one benchmark mission design.  Returns (plan, report).

    lb     planner that pretends fading never bites (surrogate = 1) and
           stays at the altitude floor,
    rfla   fading-aware planner pinned to the altitude floor,
    rffsa  fading-aware planner on a full-speed climb/hold/descend profile,
           cruising at the best of the ``cruise_levels`` (selected on the
           achieved, exact-rate objective),
    rfb    the full design with free altitude, started from the best
           cruise level so the ascent does not settle near the floor.

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

    if scheme in ("lb", "rfla"):
        plan, info = run_bcd(scenario, model, freeze_vertical=True,
                             starts=[_level_start(scenario, scenario.h_min)])
    elif scheme == "rffsa":
        sweep = []
        best = None
        not_optimal = {"horizontal": 0, "vertical": 0}
        for h in cruise_levels(scenario):
            cand, cinfo = run_bcd(scenario, model, freeze_vertical=True,
                                  starts=[_level_start(scenario, h)])
            for block, count in cinfo["ipm_not_optimal"].items():
                not_optimal[block] += count
            rep = evaluate_plan(cand, scenario, model, scheme=scheme,
                                seed=seed, trials=trials, simulate=False)
            sweep.append([float(h), rep.eta_achieved])
            if best is None or rep.eta_achieved > best[3].eta_achieved:
                best = (float(h), cand, cinfo, rep)
        h_best, plan, info, _ = best
        # every altitude's solves count, not only the winner's
        info = {**info, "ipm_not_optimal": not_optimal}
    else:
        plan, info = best_cruise_start(scenario, model)

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
