"""The eight bundled plans, scheme by scenario, and one long mission, with
their solver counts.

    OPENBLAS_NUM_THREADS=1 python3 benchmarks/bench_plans.py --out plans.json

Imports ``uavrice`` from this checkout's ``src``, fits the surrogate of each
bundled scenario once, then plans every scheme on it with
``run_scheme(..., simulate=False)``.  A ninth run, ``rfb/4sn-1000``, plans
``rfb`` on ``scenario_4sn`` stretched to 1000 slots of the same length,
with the surrogate fitted to ``scenario_4sn``.  Per plan it records the
wall time, the outer iterations, the interior-point solves (calls, Newton
steps, and how many did not end "optimal"), the scheduling LPs (calls and
dual-simplex pivots), ``eta_achieved``, ``extras["ipm_not_optimal"]`` and the sha256 of
the plan's ``q``, ``z`` and ``a`` bytes.  The solver counts come from
wrapping ``planner.maximize_concave_program`` and ``planner.solve_lp``.
The BLAS thread count changes the interior-point time, so the run records
the thread variables it saw; set them before starting the script.

``--against PREV.json`` compares each plan with the same plan in an earlier
output: whether the sha256 is equal, the relative change in
``eta_achieved``, and the outer iterations, Newton steps, LP pivots and
non-optimal interior-point solves as [previous, this run].  The comparison
goes into each run's ``parity`` entry and, as a Markdown table, to stderr;
a run the earlier output lacks gets none.
"""

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from uavrice import planner  # noqa: E402
from uavrice.evaluation import fit_for_scenario, run_scheme  # noqa: E402
from uavrice.files import bundled_scenario, load_scenario  # noqa: E402

SCHEMES = ("lb", "rfla", "rffsa", "rfb")
SCENARIOS = {"1sn": "scenario_1sn.json", "4sn": "scenario_4sn.json"}
LONG_SLOTS = 1000
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def plan_sha256(plan):
    """sha256 of the plan's q, z and a bytes, in that order."""
    digest = hashlib.sha256()
    for attr in ("q", "z", "a"):
        digest.update(np.ascontiguousarray(getattr(plan, attr)).tobytes())
    return digest.hexdigest()


class Counter:
    """Counts the solves of planner's two solvers while installed."""

    def __init__(self):
        self.ipm = self.newton = self.ipm_not_optimal = 0
        self.lp = self.pivots = 0

    def __enter__(self):
        self._saved = planner.maximize_concave_program, planner.solve_lp
        ipm, lp = self._saved

        def counted_ipm(*args, **kwargs):
            rep = ipm(*args, **kwargs)
            self.ipm += 1
            self.newton += rep.iterations
            self.ipm_not_optimal += rep.status != "optimal"
            return rep

        def counted_lp(*args, **kwargs):
            rep = lp(*args, **kwargs)
            self.lp += 1
            self.pivots += rep.iterations
            return rep

        planner.maximize_concave_program = counted_ipm
        planner.solve_lp = counted_lp
        return self

    def __exit__(self, *exc):
        planner.maximize_concave_program, planner.solve_lp = self._saved


def run_plan(scheme, scenario, model):
    with Counter() as count:
        start = time.perf_counter()
        plan, rep = run_scheme(scheme, scenario, model, simulate=False)
        wall = time.perf_counter() - start
    return {
        "wall_s": round(wall, 4),
        "outer_iters": rep.extras["iterations"],
        "ipm_calls": count.ipm,
        "newton_steps": count.newton,
        "ipm_not_optimal": count.ipm_not_optimal,
        "lp_calls": count.lp,
        "lp_pivots": count.pivots,
        "eta_achieved": rep.eta_achieved,
        "extras_ipm_not_optimal": rep.extras["ipm_not_optimal"],
        "sha256": plan_sha256(plan),
    }


PARITY_COUNTS = ("outer_iters", "newton_steps", "lp_pivots",
                 "ipm_not_optimal")


def parity(prev, run):
    """How ``run`` differs from the same plan's earlier record ``prev``."""
    eta0 = prev["eta_achieved"]
    out = {"sha256_equal": prev["sha256"] == run["sha256"],
           "eta_rel_change": (run["eta_achieved"] - eta0) / abs(eta0)}
    out.update({key: [prev[key], run[key]] for key in PARITY_COUNTS})
    return out


def parity_table(runs):
    """Markdown table of the runs' ``parity`` entries."""
    lines = ["| plan | sha256 equal | eta rel. change | outer iters "
             "| Newton steps | LP pivots | IPM not optimal |",
             "|---" * 7 + "|"]
    for key, run in runs.items():
        if "parity" not in run:
            continue
        par = run["parity"]
        counts = " | ".join("{} -> {}".format(*par[c]) for c in PARITY_COUNTS)
        lines.append(f"| {key} | {'yes' if par['sha256_equal'] else 'no'} "
                     f"| {par['eta_rel_change']:.2e} | {counts} |")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="JSON output path (default: stdout)")
    parser.add_argument("--against", metavar="PREV.json",
                        help="earlier output to compare every plan with")
    args = parser.parse_args(argv)
    prev = (json.loads(Path(args.against).read_text())["runs"]
            if args.against else None)

    jobs = []            # (key, scheme, scenario, model)
    for name, path in SCENARIOS.items():
        scenario = load_scenario(bundled_scenario(path))
        model = fit_for_scenario(scenario)
        jobs += [(f"{scheme}/{name}", scheme, scenario, model)
                 for scheme in SCHEMES]
    # the last scenario (4sn) with LONG_SLOTS slots of the same length
    long = dataclasses.replace(scenario, n_slots=LONG_SLOTS,
                               duration_s=scenario.delta_s * LONG_SLOTS)
    jobs.append((f"rfb/{name}-{LONG_SLOTS}", "rfb", long, model))

    runs = {}
    for key, scheme, scenario, model in jobs:
        runs[key] = run_plan(scheme, scenario, model)
        if prev is not None and key in prev:
            runs[key]["parity"] = parity(prev[key], runs[key])
        print(f"{key}: {runs[key]['wall_s']:.2f} s, "
              f"eta {runs[key]['eta_achieved']:.6f}", file=sys.stderr)

    doc = {
        "command": "python3 benchmarks/bench_plans.py",
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "nproc": os.cpu_count(),
            "thread_env": {v: os.environ[v] for v in THREAD_VARS
                           if v in os.environ},
        },
        "runs": runs,
    }
    if prev is not None:
        doc["against"] = args.against
        print(parity_table(runs), file=sys.stderr)
    text = json.dumps(doc, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
