"""Output checks applied to every benchmark operation.

Each check takes the result file an operation wrote and returns a list of
problems; an empty list means the output is correct.  The checks read the
file back through the package's own loaders (``uavrice.files``), so a
result that no longer loads is itself a failure.
"""

import math
from statistics import NormalDist

import numpy as np

# Family-wise false-alarm rate of the outage checks: the two-sided tail of
# a 4-sigma normal test.  The pooled frequency is tested at 4 sigma and each
# of the S scheduled slots at the Bonferroni share ALPHA / S, so one seed in
# about 16,000 fails either test by chance.
OUTAGE_SIGMAS = 4.0
ALPHA = 2.0 * NormalDist().cdf(-OUTAGE_SIGMAS)

# Geometry tolerance, relative to the limit checked (speed, climb, floor).
GEOMETRY_RTOL = 1e-6
ETA_RTOL = 1e-9


def _load(files, path):
    doc = files.load_result(path)
    return doc, files.plan_from_json(doc["plan"])


def check_plan_result(files, path, scenario):
    """Problems with a plan result: feasibility, pinned endpoints, schedule."""
    try:
        doc, plan = _load(files, path)
    except (OSError, ValueError) as exc:
        return [f"result does not load: {exc}"]
    problems = []
    n_slots = scenario.n_slots
    if plan.a.shape != (scenario.n_sn, n_slots):
        return [f"activity shape {plan.a.shape} != "
                f"{(scenario.n_sn, n_slots)}"]
    values = np.concatenate([plan.q.ravel(), plan.z, plan.a.ravel()])
    if not np.all(np.isfinite(values)):
        return ["plan holds non-finite values"]

    step = np.linalg.norm(np.diff(plan.q, axis=0), axis=1)
    if step.max() > scenario.sxy * (1.0 + GEOMETRY_RTOL):
        problems.append(f"horizontal step {step.max():.9g} m exceeds "
                        f"sxy = {scenario.sxy:.9g} m")
    climb = np.abs(np.diff(plan.z))
    if climb.max() > scenario.sz * (1.0 + GEOMETRY_RTOL):
        problems.append(f"climb {climb.max():.9g} m exceeds "
                        f"sz = {scenario.sz:.9g} m")
    if plan.z.min() < scenario.h_min * (1.0 - GEOMETRY_RTOL):
        problems.append(f"altitude {plan.z.min():.9g} m below "
                        f"h_min = {scenario.h_min:.9g} m")
    pinned = (plan.q[[0, -1]], plan.z[[0, -1]])
    wanted = (np.stack([scenario.q0, scenario.qf]),
              np.array([scenario.z0, scenario.zf]))
    if not all(np.allclose(got, want, rtol=1e-12, atol=1e-9)
               for got, want in zip(pinned, wanted)):
        problems.append("endpoints are not pinned to the scenario's")
    if plan.a.min() < -1e-9 or plan.a.sum(axis=0).max() > 1.0 + 1e-9:
        problems.append("activity outside [0, 1] or a slot's column "
                        "sums above 1")
    eta = doc["eta_achieved"]
    if not (isinstance(eta, (int, float)) and math.isfinite(eta)
            and eta > 0.0):
        problems.append(f"eta_achieved {eta!r} is not finite and positive")
    return problems


def outage_problems(freq, samples, eps):
    """Per-slot Bonferroni and pooled tests of Monte-Carlo outage
    frequencies against the target eps; unscheduled slots (0 samples) are
    skipped."""
    freq = np.asarray(freq, dtype=float)
    samples = np.asarray(samples, dtype=float)
    on = samples > 0
    if not np.any(on):
        return ["no scheduled slot was simulated"]
    problems = []
    z_slot = NormalDist().inv_cdf(1.0 - ALPHA / (2.0 * np.count_nonzero(on)))
    sigma = np.sqrt(eps * (1.0 - eps) / samples[on])
    z = np.abs(freq[on] - eps) / sigma
    if z.max() > z_slot:
        worst = int(np.flatnonzero(on)[np.argmax(z)])
        problems.append(f"slot {worst + 1}: outage {freq[worst]:.6g} is "
                        f"{z.max():.2f} sigma from eps = {eps} "
                        f"(Bonferroni bound {z_slot:.2f})")
    total = samples[on].sum()
    pooled = float(freq[on] @ samples[on]) / total
    z_pooled = abs(pooled - eps) / math.sqrt(eps * (1.0 - eps) / total)
    if z_pooled > OUTAGE_SIGMAS:
        problems.append(f"pooled outage {pooled:.6g} is {z_pooled:.2f} "
                        f"sigma from eps = {eps}")
    return problems


def check_evaluation_result(files, path, scenario, eta_expected):
    """Problems with an evaluation result: the exact objective must repeat
    the stored plan's and the simulated outage must match the target."""
    try:
        doc, plan = _load(files, path)
    except (OSError, ValueError) as exc:
        return [f"result does not load: {exc}"]
    problems = []
    if plan.a.shape != (scenario.n_sn, scenario.n_slots):
        problems.append(f"activity shape {plan.a.shape} does not match "
                        f"the scenario")
    eta = doc["eta_achieved"]
    if not abs(eta - eta_expected) <= ETA_RTOL * abs(eta_expected):
        problems.append(f"eta_achieved {eta!r} differs from the stored "
                        f"plan's {eta_expected!r}")
    problems += outage_problems(doc["outage_freq"], doc["outage_samples"],
                                scenario.epsilon)
    return problems
