"""Command-line interface: fit, plan, evaluate, and parameter sweeps.

Subcommands write JSON/CSV artifacts suitable for offline plotting.  Every
run is deterministic given its arguments: only ``evaluate`` draws random
numbers, from --seed (falling back to a fixed package constant, never the
clock), and outputs are written atomically so a failure leaves no partial
files.
"""

import argparse
import dataclasses
import math
import sys

from . import DEFAULT_SEED
from .channel import max_grid, max_trials
from .evaluation import (DEFAULT_TRIALS, MIN_TRIALS, SCHEMES, evaluate_plan,
                         fit_for_scenario, run_scheme, usable_cpus)
from .fading import (MAX_EPSILON, MIN_GRID, fit_logistic,
                     generate_regression_samples)
from .files import (db_to_linear, linear_to_db, load_model, load_result,
                    load_scenario, model_to_json, save_json, save_model,
                    scenario_to_config, write_outputs)
# unused here since load_result returns what it parsed, but perfbench traces
# the result parsers by these names
from .files import model_from_json, plan_from_json  # noqa: F401
from .planner import LOS_MODEL, check_plan

SWEEP_PARAMS = ("T", "vz", "eps", "kmax_db")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="uavrice",
        description="Plan and evaluate data-collection missions over "
                    "angle-dependent Rician fading links.")
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser(
        "fit", help="fit the logistic effective-power model and save it")
    fit.add_argument("--kmin-db", type=float, default=0.0,
                     help="Rician factor at zenith-less geometry, dB")
    fit.add_argument("--kmax-db", type=float, default=30.0,
                     help="Rician factor directly overhead, dB")
    fit.add_argument("--eps", type=float, default=0.01,
                     help="target outage probability")
    fit.add_argument("--grid", type=int, default=200,
                     help="number of regression sample points")
    fit.add_argument("--out", required=True, help="model JSON output path")

    plan = sub.add_parser(
        "plan", help="design a mission with one of the benchmark schemes")
    plan.add_argument("--scenario", required=True,
                      help="scenario JSON input path")
    plan.add_argument("--model",
                      help="fitted model JSON (default: fit internally)")
    plan.add_argument("--scheme", required=True, choices=SCHEMES)
    plan.add_argument("--out", required=True, help="result JSON output path")
    plan.add_argument("--traj", help="optional trajectory CSV output path")

    ev = sub.add_parser(
        "evaluate", help="Monte-Carlo outage check of a planned mission")
    ev.add_argument("--scenario", required=True)
    ev.add_argument("--plan", required=True,
                    help="result JSON produced by the plan subcommand")
    ev.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    ev.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ev.add_argument("--out", required=True, help="result JSON output path")
    ev.add_argument("--traj", help="optional trajectory CSV output path")

    sweep = sub.add_parser(
        "sweep", help="re-plan over a parameter range, one row per value")
    sweep.add_argument("--scenario", required=True)
    sweep.add_argument("--param", required=True, choices=SWEEP_PARAMS)
    sweep.add_argument("--values", required=True,
                       help="comma-separated parameter values")
    sweep.add_argument("--out", required=True, help="sweep JSON output path")

    return parser


# the channel constants a fitted model records, as (document key,
# attribute, shown in the document's units)
_MODEL_CHANNEL = (("kmin_db", "k_min", linear_to_db),
                  ("kmax_db", "k_max", linear_to_db),
                  ("epsilon", "epsilon", float))


def _check_channel(model, scenario, source):
    """ValueError naming ``source`` (the option and file the model came
    from) and the field when the model records channel constants other
    than the scenario's; a model that records none passes."""
    for key, attr, show in _MODEL_CHANNEL:
        fitted, want = getattr(model, attr), getattr(scenario, attr)
        if fitted is not None and not math.isclose(fitted, want,
                                                    rel_tol=1e-9):
            raise ValueError(f"{source}: {key}={show(fitted):g} differs "
                             f"from the scenario's {show(want):g}")


def _resolve_model(scenario, scheme, model_path):
    """The surrogate a scheme plans with.  A --model file is loaded and
    checked against the scenario for every scheme, though ``lb`` plans
    with ``LOS_MODEL``; without one the fading-aware schemes fit."""
    if model_path is not None:
        model = load_model(model_path)
        _check_channel(model, scenario, f"--model {model_path}")
    elif scheme != "lb":
        model = fit_for_scenario(scenario)
    return LOS_MODEL if scheme == "lb" else model


def _linear(option, db):
    """db_to_linear, with a ValueError naming the option and the value when
    the dB value is not finite or its linear value overflows or underflows
    to 0."""
    try:
        linear = db_to_linear(db)
    except OverflowError:
        linear = math.inf
    if not 0.0 < linear < math.inf:
        raise ValueError(f"{option}={db:g} dB is out of range")
    return linear


def _cmd_fit(args):
    if not 0.0 < args.eps <= MAX_EPSILON:
        raise ValueError(f"--eps={args.eps:g} is outside (0, {MAX_EPSILON}], "
                         f"the outage targets a fit covers")
    if args.grid < MIN_GRID:
        raise ValueError(f"--grid={args.grid} is below {MIN_GRID}, the "
                         f"fewest regression points a fit takes")
    limit = max_grid()
    if args.grid > limit:
        raise ValueError(f"--grid={args.grid} exceeds {limit}, the most "
                         f"regression points whose fit fits in memory")
    if args.kmin_db > args.kmax_db:
        raise ValueError("--kmin-db must not exceed --kmax-db")
    samples = generate_regression_samples(
        _linear("--kmin-db", args.kmin_db), _linear("--kmax-db", args.kmax_db),
        args.eps, args.grid)
    model = fit_logistic(samples)
    save_model(args.out, model)
    print(f"fit: rmse={model.rmse:.6f} b1={model.b1:.6f} "
          f"b2={model.b2:.6f} -> {args.out}")
    return 0


def _cmd_plan(args):
    scenario = load_scenario(args.scenario)
    model = _resolve_model(scenario, args.scheme, args.model)
    plan, report = run_scheme(args.scheme, scenario, model, simulate=False)
    write_outputs(plan, report, scenario, model,
                  result_path=args.out, traj_path=args.traj)
    print(f"plan {args.scheme}: eta_estimated={report.eta_estimated:.6f} "
          f"eta_achieved={report.eta_achieved:.6f} -> {args.out}")
    return 0


def _cmd_evaluate(args):
    if not 0 <= args.seed < 2 ** 63:
        raise ValueError(f"--seed={args.seed} is outside [0, 2**63), the "
                         f"seeds a result file holds")
    if args.trials < MIN_TRIALS:
        raise ValueError(f"--trials={args.trials} is below {MIN_TRIALS}, the "
                         f"fewest per slot for a meaningful frequency")
    scenario = load_scenario(args.scenario)
    workers = usable_cpus()
    limit = max_trials(scenario.n_blocks, workers)
    if args.trials > limit:
        raise ValueError(f"--trials={args.trials} exceeds {limit}, the most "
                         f"whose {scenario.n_blocks} fading blocks per trial "
                         f"fit in memory on {workers} workers")
    doc = load_result(args.plan)
    plan, model = doc.plan, doc.model
    # eta_estimated comes from this model's surrogate, so it must fit too
    _check_channel(model, scenario, f"--plan {args.plan} model")
    problems = check_plan(plan, scenario)
    if problems:
        raise ValueError(f"plan {args.plan} does not fit the scenario: "
                         + "; ".join(problems))
    report = evaluate_plan(plan, scenario, model, scheme=doc["scheme"],
                           seed=args.seed, trials=args.trials,
                           extras=doc["extras"])
    write_outputs(plan, report, scenario, model, result_path=args.out,
                  traj_path=args.traj, kind="evaluation")
    worst = float(report.outage_freq.max()) if report.outage_freq.size else 0.0
    print(f"evaluate {doc['scheme']}: "
          f"eta_estimated={report.eta_estimated:.6f} "
          f"eta_achieved={report.eta_achieved:.6f} "
          f"max_outage={worst:.5f} -> {args.out}")
    return 0


def _sweep_scenario(scenario, param, value):
    """Scenario with one parameter replaced; slot length stays fixed, so a
    duration T must be a whole number of slots.  Every ValueError names
    the parameter and the value."""
    if param == "T":
        slots = value / scenario.delta_s
        n_slots = int(round(slots))
        if n_slots < 1 or abs(slots - n_slots) > 1e-9 * slots:
            raise ValueError(f"--values: T={value:g} s is not a whole "
                             f"number of {scenario.delta_s:g} s slots")
        change = {"duration_s": float(value), "n_slots": n_slots}
    elif param == "vz":
        change = {"vz": float(value)}
    elif param == "eps":
        change = {"epsilon": float(value)}
    else:
        change = {"k_max": _linear("--values: kmax_db", value)}
    try:
        return dataclasses.replace(scenario, **change)
    except ValueError as exc:
        raise ValueError(f"--values: {param}={value:g}: {exc}") from None


def _sweep_row(scen, value):
    # each swept scenario gets its own surrogate: eps and kmax_db change
    # the fading law, and T and vz refit to the same model
    model = fit_for_scenario(scen)
    row = {"value": float(value), "model": model_to_json(model)}
    for scheme in ("rfb", "lb"):
        plan, report = run_scheme(scheme, scen, model, simulate=False)
        row[scheme] = {
            "eta_estimated": report.eta_estimated,
            "eta_achieved": report.eta_achieved,
            "z_max_m": float(plan.z.max()),
            "z_mean_m": float(plan.z.mean()),
        }
    return row


def _cmd_sweep(args):
    scenario = load_scenario(args.scenario)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError:
        raise ValueError(f"--values: expected comma-separated numbers, "
                         f"got {args.values!r}") from None
    if not values:
        raise ValueError("--values: at least one value required")
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"--values: expected finite numbers, "
                         f"got {args.values!r}")
    scens = [_sweep_scenario(scenario, args.param, v) for v in values]
    rows = [_sweep_row(scen, v) for scen, v in zip(scens, values)]

    doc = {
        "kind": "sweep",
        "param": args.param,
        "seed": DEFAULT_SEED,
        "scenario": scenario_to_config(scenario),
        "rows": rows,
    }
    save_json(args.out, doc)
    for row in rows:
        print(f"sweep {args.param}={row['value']:g}: "
              f"rfb={row['rfb']['eta_achieved']:.6f} "
              f"lb={row['lb']['eta_achieved']:.6f}")
    print(f"-> {args.out}")
    return 0


_COMMANDS = {"fit": _cmd_fit, "plan": _cmd_plan,
             "evaluate": _cmd_evaluate, "sweep": _cmd_sweep}


def cli(argv):
    """Run one subcommand; return the process exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except Exception as exc:
        print(f"uavrice: error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
