"""How far the eight bundled plans move when the solvers stop elsewhere.

    OPENBLAS_NUM_THREADS=1 python3 benchmarks/bench_determinacy.py --out d.json

Imports ``uavrice`` from this checkout's ``src`` and plans every scheme on
both bundled scenarios with ``run_scheme(..., simulate=False)`` under three
variants:

  stop        the solvers as they are;
  tight_stop  ``solvers.STOP_TOL`` 100 times smaller, so every
              interior-point solve runs to a 100 times tighter stop;
  highs_ipm   the scheduling LP solved by SciPy's
              ``linprog(method="highs-ipm")`` in place of ``solve_lp``.

Per plan it records each variant's ``eta_achieved``, the relative spread
(max - min) / max of ``eta_achieved`` over the variants, and the largest
distance in metres between one waypoint (q, z) of two variants.  A plan
whose spreads are within ``ETA_RTOL`` and ``WAYPOINT_M`` is a function of
its scenario rather than of where its solvers stopped.  The variants are
set by assigning module attributes and undone after each run.  A Markdown
table of the spreads goes to stderr.  The BLAS thread variables set in
the environment are recorded with the versions.
"""

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.optimize  # noqa: E402
import scipy.sparse  # noqa: E402

from uavrice import planner, solvers  # noqa: E402
from uavrice.evaluation import (SCHEMES, fit_for_scenario,  # noqa: E402
                                run_scheme)
from uavrice.files import bundled_scenario, load_scenario  # noqa: E402

SCENARIOS = {"1sn": "scenario_1sn.json", "4sn": "scenario_4sn.json"}
ETA_RTOL = 1e-4
WAYPOINT_M = 0.1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def highs_ipm_lp(rates, start=None):
    """The max-min scheduling LP through ``linprog(method="highs-ipm")``,
    as the ``solve_lp`` report the planner reads: activities clipped to
    [0, 1] per slot, eta their max-min, and the node rows' marginals as
    the duals the planner's dual bound reads (any weights >= 0 bound eta
    from above).  HiGHS takes no warm start, so ``start`` is ignored and
    the report carries no smoothed weights."""
    r = np.asarray(rates, dtype=float)
    n, m = r.shape
    nv = n * m + 1
    col = np.arange(n * m)
    rows = np.concatenate([col % m, m + col // m, m + np.arange(n)])
    cols = np.concatenate([col, col, np.full(n, nv - 1)])
    vals = np.concatenate([np.ones(col.size), -r.ravel() / m, np.ones(n)])
    objective = np.zeros(nv)
    objective[-1] = -1.0
    res = scipy.optimize.linprog(
        objective,
        A_ub=scipy.sparse.csr_array((vals, (rows, cols)), shape=(m + n, nv)),
        b_ub=np.concatenate([np.ones(m), np.zeros(n)]), bounds=(0.0, None),
        method="highs-ipm")
    a = np.clip(res.x[:-1].reshape(n, m), 0.0, None)
    a /= np.maximum(a.sum(axis=0), 1.0)
    return solvers.SolverReport(
        x=a, objective=planner.max_min_rate(a, r), feasibility=0.0,
        stationarity=0.0, iterations=int(res.nit),
        status="optimal" if res.status == 0 else "stalled",
        message=res.message,
        duals=np.maximum(-res.ineqlin.marginals[m:], 0.0))


#: (module, attribute, value) of each variant
VARIANTS = {
    "stop": [],
    "tight_stop": [(solvers, "STOP_TOL", solvers.STOP_TOL / 100.0)],
    "highs_ipm": [(planner, "solve_lp", highs_ipm_lp)],
}


def run_variant(patches, scenario, model, scheme):
    """(eta_achieved, (M+1, 3) waypoints) of one plan under ``patches``."""
    saved = [(mod, name, getattr(mod, name)) for mod, name, _ in patches]
    try:
        for mod, name, value in patches:
            setattr(mod, name, value)
        plan, rep = run_scheme(scheme, scenario, model, simulate=False)
    finally:
        for mod, name, value in saved:
            setattr(mod, name, value)
    return rep.eta_achieved, np.column_stack([plan.q, plan.z])


def spreads(runs):
    """The record of one plan from its {variant: (eta, waypoints)}."""
    etas = {key: eta for key, (eta, _) in runs.items()}
    points = [pts for _, pts in runs.values()]
    eta_spread = (max(etas.values()) - min(etas.values())) / max(etas.values())
    moved = max(float(np.linalg.norm(a - b, axis=1).max())
                for i, a in enumerate(points) for b in points[i + 1:])
    return {"eta_achieved": etas, "eta_rel_spread": eta_spread,
            "waypoint_spread_m": moved,
            "determinate": eta_spread <= ETA_RTOL and moved <= WAYPOINT_M}


def table(plans):
    """Markdown table of the plans' spreads."""
    lines = ["| plan | " + " | ".join(VARIANTS) + " | eta rel. spread "
             "| waypoint spread (m) | determinate |", "|---" * 7 + "|"]
    for key, rec in plans.items():
        etas = " | ".join(f"{rec['eta_achieved'][v]:.6f}" for v in VARIANTS)
        lines.append(f"| {key} | {etas} | {rec['eta_rel_spread']:.2e} "
                     f"| {rec['waypoint_spread_m']:.3g} "
                     f"| {'yes' if rec['determinate'] else 'no'} |")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="JSON output path (default: stdout)")
    args = parser.parse_args(argv)
    plans = {}
    for name, path in SCENARIOS.items():
        scenario = load_scenario(bundled_scenario(path))
        model = fit_for_scenario(scenario)
        for scheme in SCHEMES:
            plans[f"{scheme}/{name}"] = spreads({
                key: run_variant(patches, scenario, model, scheme)
                for key, patches in VARIANTS.items()})
    doc = {
        "command": "python3 benchmarks/bench_determinacy.py",
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "nproc": os.cpu_count(),
            "thread_env": {v: os.environ[v] for v in THREAD_VARS
                           if v in os.environ},
        },
        "bounds": {"eta_rel_spread": ETA_RTOL,
                   "waypoint_spread_m": WAYPOINT_M},
        "plans": plans,
        "all_determinate": all(rec["determinate"] for rec in plans.values()),
    }
    print(table(plans), file=sys.stderr)
    text = json.dumps(doc, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)


if __name__ == "__main__":
    main()
