"""The eight bundled plans, scheme by scenario, and one long mission, with
their solver counts.

    OPENBLAS_NUM_THREADS=1 python3 benchmarks/bench_plans.py --out plans.json

Imports ``uavrice`` from this checkout's ``src``, fits the surrogate of each
bundled scenario once, then plans every scheme on it with
``run_scheme(..., simulate=False)``.  A ninth run, ``rfb/4sn-1000``, plans
``rfb`` on ``scenario_4sn`` stretched to 1000 slots of the same length,
with the surrogate fitted to ``scenario_4sn``.  Under ``fits`` it records
each fit's wall time (``fit_logistic`` alone), b1, b2, c1 and rmse: one
per bundled scenario and one per point of a grid, the outage targets
``FIT_EPS`` by k_max in ``FIT_KMAX_DB`` (k_min 0 dB, 200 samples).  Per plan it records the
wall time, the outer iterations, why the ascent stopped
(``extras["stop"]``), its block attempts (calls of the two trajectory
blocks, skipped ones included), the interior-point solves (calls, Newton
steps, and how many did not end "optimal"), the scheduling LPs (calls and
dual-simplex pivots), ``eta_achieved``, ``extras["ipm_not_optimal"]`` and the sha256 of
the plan's ``q``, ``z`` and ``a`` bytes.  Under ``blocks`` it splits the
interior-point solves by trajectory block, horizontal and vertical: calls,
Newton steps, the most steps in one solve, and solves that did not end
"optimal"; each block, and the plan as a whole, also records the line-search
trials the solves evaluated (the step lengths ``solvers._trial_steps``
yielded) and their epigraph corrections (``solvers._epigraph_correction``
calls).  Under ``grid`` it records ``eta_achieved`` of every scheme on
each bundled scenario at each ``GRID`` setting (the bundled one, then
k_max, the outage target and the climb speed varied one at a time), each
setting with its own fitted surrogate, whether the order
rfb >= rffsa >= rfla >= lb holds there, and whether rfb reaches rffsa
within ``REACH_RTOL``; both are reported, not gated.  The solver counts
come from wrapping
``planner.solve_horizontal``, ``planner.solve_vertical`` (whose reports
hold each interior-point solve), ``planner.solve_lp`` and the two
line-search helpers.  The BLAS thread count changes the interior-point
time, so the run records the thread variables it saw; set them before
starting the script.  Markdown tables of
the per-block counts, of the grid and of the fits go to stderr.

``--against PREV.json`` compares each plan with the same plan in an earlier
output: whether the sha256 is equal, the relative change in
``eta_achieved``, and the outer iterations, Newton steps, LP pivots and
non-optimal interior-point solves as [previous, this run], and each
block's counts the same way when the earlier output has them.  The LP
calls, the trials, the corrections, the stop reason and the block
attempts are paired the same way (None where the earlier output lacks
them), but they are reported, not gated: a change to which LPs run, to
the line search or to when the ascent stops may move them while every
plan stays.  The comparison
goes into each run's ``parity`` entry and, as Markdown tables,
to stderr; a run the earlier output lacks gets none.  The stderr report
then has one line naming the plans whose sha256 differ and one
naming those whose counts differ (any of the four above, or one of a
block's first four counts), and the script exits 1 if any plan is named, so one command checks
that a change keeps every plan and every count.  Each fit the earlier
output also holds gets a ``parity`` entry beside it: the relative change of
b1, b2, c1 and rmse (None where the earlier value is 0) and both wall
times.  The closing stderr line names the fits whose rmse rose by more
than ``RMSE_RISE`` relative (rounding moves it by about 4e-16), or from 0,
and the script exits 1 if it names one: a fit may move, but not get worse.
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

from uavrice import planner, solvers  # noqa: E402
from uavrice.evaluation import fit_for_scenario, run_scheme  # noqa: E402
from uavrice.fading import (fit_logistic,  # noqa: E402
                            generate_regression_samples)
from uavrice.files import bundled_scenario, load_scenario  # noqa: E402

SCHEMES = ("lb", "rfla", "rffsa", "rfb")
SCENARIOS = {"1sn": "scenario_1sn.json", "4sn": "scenario_4sn.json"}
LONG_SLOTS = 1000
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
FIT_EPS = (0.001, 0.005, 0.01, 0.02, 0.05, 0.1)
FIT_KMAX_DB = tuple(range(0, 45, 5))
FIT_FIELDS = ("b1", "b2", "c1", "rmse")
#: the largest relative rise of a fit's rmse that the exit rule forgives
RMSE_RISE = 1e-12
#: scenario fields of each grid setting: k_max 10, 20 and 40 dB (30 dB is
#: bundled), outage targets 0.001 and 0.05 (0.01), climb 5 m/s (20 m/s)
GRID = {"bundled": {}, "kmax=10dB": {"k_max": 10.0},
        "kmax=20dB": {"k_max": 100.0}, "kmax=40dB": {"k_max": 1e4},
        "eps=0.001": {"epsilon": 0.001}, "eps=0.05": {"epsilon": 0.05},
        "vz=5": {"vz": 5.0}}
#: how far below rffsa rfb may end and still reach it on the grid: the
#: determinacy spread bar, since two equal plans differ by model-versus-exact
#: rounding
REACH_RTOL = 1e-4


def plan_sha256(plan):
    """sha256 of the plan's q, z and a bytes, in that order."""
    digest = hashlib.sha256()
    for attr in ("q", "z", "a"):
        digest.update(np.ascontiguousarray(getattr(plan, attr)).tobytes())
    return digest.hexdigest()


BLOCKS = ("horizontal", "vertical")
BLOCK_COUNTS = ("calls", "newton_steps", "max_steps", "not_optimal")
#: line-search counts, per block and per plan: reported, not gated
TRIAL_COUNTS = ("trials", "corrections")
#: plan fields paired by ``--against`` but not gated: a change to which
#: LPs run or to when the ascent stops may move them while every plan and
#: gated count stays
REPORTED = ("lp_calls",) + TRIAL_COUNTS + ("stop", "attempts")


class Counter:
    """Collects the interior-point reports of each trajectory block, counts
    the block attempts, each block's line-search trials and epigraph
    corrections, and the scheduling LPs while installed."""

    def __init__(self):
        self.reports = {name: [] for name in BLOCKS}
        self.line_search = {name: dict.fromkeys(TRIAL_COUNTS, 0)
                            for name in BLOCKS}
        self.lp = self.pivots = self.attempts = 0
        self.block = None

    def __enter__(self):
        self._saved = (planner.solve_horizontal, planner.solve_vertical,
                       planner.solve_lp, solvers._trial_steps,
                       solvers._epigraph_correction)
        lp, trial_steps, correction = self._saved[2:]

        def counted_block(name, solve):
            def counted(*args, reports, **kwargs):
                mine = []
                self.block = name
                self.attempts += 1
                out = solve(*args, reports=mine, **kwargs)
                self.reports[name] += mine
                reports += mine
                return out
            return counted

        def counted_lp(*args, **kwargs):
            rep = lp(*args, **kwargs)
            self.lp += 1
            self.pivots += rep.iterations
            return rep

        def counted_trial_steps(*args):
            for t in trial_steps(*args):
                self.line_search[self.block]["trials"] += 1
                yield t

        def counted_correction(*args):
            self.line_search[self.block]["corrections"] += 1
            return correction(*args)

        planner.solve_horizontal, planner.solve_vertical = (
            counted_block(name, solve)
            for name, solve in zip(BLOCKS, self._saved))
        planner.solve_lp = counted_lp
        solvers._trial_steps = counted_trial_steps
        solvers._epigraph_correction = counted_correction
        return self

    def __exit__(self, *exc):
        (planner.solve_horizontal, planner.solve_vertical, planner.solve_lp,
         solvers._trial_steps, solvers._epigraph_correction) = self._saved

    def blocks(self):
        """BLOCK_COUNTS and TRIAL_COUNTS of each block's interior-point
        solves."""
        out = {}
        for name, reps in self.reports.items():
            steps = [rep.iterations for rep in reps]
            out[name] = {
                "calls": len(reps),
                "newton_steps": sum(steps),
                "max_steps": max(steps, default=0),
                "not_optimal": sum(rep.status != "optimal" for rep in reps),
                **self.line_search[name],
            }
        return out


def run_plan(scheme, scenario, model):
    with Counter() as count:
        start = time.perf_counter()
        plan, rep = run_scheme(scheme, scenario, model, simulate=False)
        wall = time.perf_counter() - start
    blocks = count.blocks()
    return {
        "wall_s": round(wall, 4),
        "outer_iters": rep.extras["iterations"],
        "stop": rep.extras["stop"],
        "attempts": count.attempts,
        "ipm_calls": sum(b["calls"] for b in blocks.values()),
        "newton_steps": sum(b["newton_steps"] for b in blocks.values()),
        "ipm_not_optimal": sum(b["not_optimal"] for b in blocks.values()),
        **{key: sum(b[key] for b in blocks.values()) for key in TRIAL_COUNTS},
        "lp_calls": count.lp,
        "lp_pivots": count.pivots,
        "eta_achieved": rep.eta_achieved,
        "extras_ipm_not_optimal": rep.extras["ipm_not_optimal"],
        "sha256": plan_sha256(plan),
        "blocks": blocks,
    }


def order_holds(etas):
    """Whether ``eta_achieved`` of the schemes, by name, falls in the order
    rfb >= rffsa >= rfla >= lb."""
    ranked = [etas[scheme] for scheme in reversed(SCHEMES)]
    return all(a >= b for a, b in zip(ranked, ranked[1:]))


def reaches_rffsa(etas):
    """Whether rfb's ``eta_achieved`` is at least (1 - REACH_RTOL) times
    rffsa's: the full design does not lose to its restricted variant."""
    return etas["rfb"] >= (1.0 - REACH_RTOL) * etas["rffsa"]


def run_grid(scenarios):
    """``eta_achieved`` of every scheme at each GRID setting of each named
    scenario, with the order's and rfb's verdicts:
    {scenario: {setting: record}}."""
    grid = {}
    for name, base in scenarios.items():
        for setting, change in GRID.items():
            scenario = dataclasses.replace(base, **change)
            model = fit_for_scenario(scenario)
            etas = {scheme: run_scheme(scheme, scenario, model,
                                       simulate=False)[1].eta_achieved
                    for scheme in SCHEMES}
            grid.setdefault(name, {})[setting] = dict(
                etas, order_holds=order_holds(etas),
                rfb_reaches_rffsa=reaches_rffsa(etas))
    return grid


def grid_table(grid):
    """Markdown table of the grid."""
    lines = ["| scenario | setting | " + " | ".join(SCHEMES)
             + " | rfb >= rffsa >= rfla >= lb "
             + f"| rfb >= (1 - {REACH_RTOL:g}) rffsa |", "|---" * 8 + "|"]
    for name, settings in grid.items():
        for setting, rec in settings.items():
            etas = " | ".join(f"{rec[scheme]:.4f}" for scheme in SCHEMES)
            verdicts = " | ".join("yes" if rec[key] else "no" for key in
                                  ("order_holds", "rfb_reaches_rffsa"))
            lines.append(f"| {name} | {setting} | {etas} | {verdicts} |")
    return "\n".join(lines)


def run_fit(k_min, k_max, eps):
    """(model, record) of the surrogate fit to this channel."""
    samples = generate_regression_samples(k_min, k_max, eps)
    start = time.perf_counter()
    model = fit_logistic(samples)
    wall = time.perf_counter() - start
    record = {"wall_s": round(wall, 5)}
    record.update({key: getattr(model, key) for key in FIT_FIELDS})
    return model, record


def fit_parity(prev, fit):
    """Relative change of each FIT_FIELDS value of ``fit`` against the
    earlier record ``prev`` (None where that value is 0), and both wall
    times."""
    out = {key: (fit[key] - prev[key]) / abs(prev[key]) if prev[key] else None
           for key in FIT_FIELDS}
    out["wall_s"] = [prev["wall_s"], fit["wall_s"]]
    return out


def fit_table(fits):
    """Markdown table of the fits, with their ``parity`` entries where
    they have one."""
    lines = ["| fit | wall ms | b1 | b2 | c1 | rmse |", "|---" * 6 + "|"]
    for key, fit in fits.items():
        par = fit.get("parity")
        if par is None:
            cells = [f"{1e3 * fit['wall_s']:.1f}"]
            cells += [f"{fit[f]:.10g}" for f in FIT_FIELDS]
        else:
            cells = ["{:.1f} -> {:.1f}".format(*(1e3 * w for w in par["wall_s"]))]
            cells += ["was 0" if par[f] is None else f"{par[f]:+.2e}"
                      for f in FIT_FIELDS]
        lines.append(f"| {key} | {' | '.join(cells)} |")
    return "\n".join(lines)


PARITY_COUNTS = ("outer_iters", "newton_steps", "lp_pivots",
                 "ipm_not_optimal")


def parity(prev, run):
    """How ``run`` differs from the same plan's earlier record ``prev``."""
    eta0 = prev["eta_achieved"]
    out = {"sha256_equal": prev["sha256"] == run["sha256"],
           "eta_rel_change": (run["eta_achieved"] - eta0) / abs(eta0)}
    out.update({key: [prev[key], run[key]] for key in PARITY_COUNTS})
    out.update({key: [prev.get(key), run[key]] for key in REPORTED})
    if "blocks" in prev:
        out["blocks"] = {
            name: {key: [prev["blocks"][name].get(key),
                         run["blocks"][name][key]]
                   for key in BLOCK_COUNTS + TRIAL_COUNTS}
            for name in BLOCKS}
    return out


def _count_pairs(par):
    """Every gated [previous, this run] count pair of a ``parity`` entry:
    the REPORTED fields are left out."""
    pairs = [par[key] for key in PARITY_COUNTS]
    for block in par.get("blocks", {}).values():
        pairs += [block[key] for key in BLOCK_COUNTS]
    return pairs


def report_drift(runs):
    """Print to stderr one line naming the compared plans whose sha256
    differ and one naming those whose counts differ; the exit status, 1
    when either line names a plan."""
    compared = {key: run["parity"] for key, run in runs.items()
                if "parity" in run}
    moved = [key for key, par in compared.items() if not par["sha256_equal"]]
    drift = [key for key, par in compared.items()
             if any(a != b for a, b in _count_pairs(par))]
    print(f"sha256 differs: {', '.join(moved) or 'none'}", file=sys.stderr)
    print(f"counts differ: {', '.join(drift) or 'none'}", file=sys.stderr)
    return 1 if moved or drift else 0


def report_fit_rise(fits):
    """Print to stderr one line naming the compared fits whose rmse rose by
    more than RMSE_RISE relative, or from 0; the exit status, 1 when it
    names a fit."""
    risen = [key for key, fit in fits.items() if "parity" in fit
             and (fit["rmse"] > 0.0 if fit["parity"]["rmse"] is None
                  else fit["parity"]["rmse"] > RMSE_RISE)]
    print(f"rmse rises: {', '.join(risen) or 'none'}", file=sys.stderr)
    return 1 if risen else 0


def parity_table(runs):
    """Markdown table of the runs' ``parity`` entries."""
    lines = ["| plan | sha256 equal | eta rel. change | outer iters "
             "| Newton steps | LP pivots | IPM not optimal | LP calls "
             "| trials | corrections | stop | block attempts |",
             "|---" * 12 + "|"]
    for key, run in runs.items():
        if "parity" not in run:
            continue
        par = run["parity"]
        counts = " | ".join("{} -> {}".format(*par[c])
                            for c in PARITY_COUNTS + REPORTED)
        lines.append(f"| {key} | {'yes' if par['sha256_equal'] else 'no'} "
                     f"| {par['eta_rel_change']:.2e} | {counts} |")
    return "\n".join(lines)


def block_table(runs):
    """Markdown table of each run's per-block counts, as previous -> this
    run where its ``parity`` entry has them."""
    lines = ["| plan | block | IPM calls | Newton steps | most steps "
             "| not optimal | trials | corrections |", "|---" * 8 + "|"]
    for key, run in runs.items():
        prev = run.get("parity", {}).get("blocks")
        for name in BLOCKS:
            cells = ("{} -> {}".format(*prev[name][c]) if prev
                     else str(run["blocks"][name][c])
                     for c in BLOCK_COUNTS + TRIAL_COUNTS)
            lines.append(f"| {key} | {name} | {' | '.join(cells)} |")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="JSON output path (default: stdout)")
    parser.add_argument("--against", metavar="PREV.json",
                        help="earlier output to compare every plan with")
    args = parser.parse_args(argv)
    earlier = (json.loads(Path(args.against).read_text())
               if args.against else {})
    prev = earlier.get("runs")

    jobs = []            # (key, scheme, scenario, model)
    fits, bundled = {}, {}
    for name, path in SCENARIOS.items():
        scenario = bundled[name] = load_scenario(bundled_scenario(path))
        model, fits[name] = run_fit(scenario.k_min, scenario.k_max,
                                    scenario.epsilon)
        jobs += [(f"{scheme}/{name}", scheme, scenario, model)
                 for scheme in SCHEMES]
    # the last scenario (4sn) with LONG_SLOTS slots of the same length
    long = dataclasses.replace(scenario, n_slots=LONG_SLOTS,
                               duration_s=scenario.delta_s * LONG_SLOTS)
    jobs.append((f"rfb/{name}-{LONG_SLOTS}", "rfb", long, model))

    for eps in FIT_EPS:
        for kmax_db in FIT_KMAX_DB:
            fits[f"{eps}/{kmax_db}dB"] = run_fit(1.0, 10.0 ** (kmax_db / 10),
                                                 eps)[1]
    for key, fit in fits.items():
        if key in earlier.get("fits", {}):
            fit["parity"] = fit_parity(earlier["fits"][key], fit)

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
        "grid": run_grid(bundled),
        "fits": fits,
    }
    if prev is not None:
        doc["against"] = args.against
        print(parity_table(runs), file=sys.stderr)
    print(block_table(runs), file=sys.stderr)
    print(grid_table(doc["grid"]), file=sys.stderr)
    print(fit_table(fits), file=sys.stderr)
    status = (max(report_drift(runs), report_fit_rise(fits))
              if args.against else 0)
    text = json.dumps(doc, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
