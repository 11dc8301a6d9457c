"""``benchmarks/bench_plans.py --against``: the parity record and the exit
rule, on hand-made run records with no planning, and the line-search
counts on one small plan."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_plans.py"
_spec = importlib.util.spec_from_file_location("bench_plans", _PATH)
bench_plans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_plans)


def _run(sha="aa", outer_iters=17, vertical_max_steps=20,
         vertical_trials=500, lp_calls=15):
    """One plan's record as ``run_plan`` writes it, without timings."""
    blocks = {name: {"calls": 17, "newton_steps": 219, "max_steps": 20,
                     "not_optimal": 0, "trials": 500, "corrections": 400}
              for name in bench_plans.BLOCKS}
    blocks["vertical"]["max_steps"] = vertical_max_steps
    blocks["vertical"]["trials"] = vertical_trials
    return {"eta_achieved": 0.25, "sha256": sha, "outer_iters": outer_iters,
            "newton_steps": 438, "lp_calls": lp_calls, "lp_pivots": 8,
            "ipm_not_optimal": 0,
            "trials": 500 + vertical_trials, "corrections": 800,
            "blocks": blocks}


def test_parity_pairs_every_count():
    par = bench_plans.parity(_run(), _run(sha="bb", outer_iters=18,
                                          lp_calls=5))
    assert par["sha256_equal"] is False and par["eta_rel_change"] == 0.0
    assert par["lp_calls"] == [15, 5] and par["lp_pivots"] == [8, 8]
    assert par["outer_iters"] == [17, 18] and par["newton_steps"] == [438, 438]
    assert par["blocks"]["vertical"]["max_steps"] == [20, 20]
    assert par["trials"] == [1000, 1000] and par["corrections"] == [800, 800]
    assert par["blocks"]["horizontal"]["corrections"] == [400, 400]
    # an earlier output without per-block counts gets no block comparison
    old = _run()
    del old["blocks"]
    assert "blocks" not in bench_plans.parity(old, _run())
    # nor LP calls and trial counts where it lacks them
    old = _run()
    del old["lp_calls"]
    for rec in [old, *old["blocks"].values()]:
        del rec["trials"], rec["corrections"]
    par = bench_plans.parity(old, _run(vertical_trials=60))
    assert par["lp_calls"] == [None, 15] and par["trials"] == [None, 560]
    assert par["blocks"]["vertical"]["trials"] == [None, 60]
    assert ("| 8 -> 8 | 0 -> 0 | None -> 15 | None -> 560 | None -> 800 |"
            in bench_plans.parity_table({"p": {"parity": par}}))


@pytest.mark.parametrize("change, moved, drift", [
    ({}, "none", "none"),
    ({"sha": "bb"}, "p", "none"),
    ({"outer_iters": 18}, "none", "p"),
    ({"vertical_max_steps": 21}, "none", "p"),
    ({"sha": "bb", "outer_iters": 18}, "p", "p"),
    ({"vertical_trials": 60}, "none", "none"),
    ({"lp_calls": 5}, "none", "none"),
], ids=["equal", "sha256", "outer-iters", "block-count", "both", "trials",
        "lp-calls"])
def test_exit_rule_names_sha256_and_count_changes(change, moved, drift,
                                                  capsys):
    runs = {"p": _run(**change), "q": _run(sha="new")}
    runs["p"]["parity"] = bench_plans.parity(_run(), runs["p"])
    # "q" is missing from the earlier output: it is compared with nothing
    status = bench_plans.report_drift(runs)
    err = capsys.readouterr().err.splitlines()
    assert err == [f"sha256 differs: {moved}", f"counts differ: {drift}"]
    assert status == (0 if moved == drift == "none" else 1)


def test_fit_parity_is_relative_and_skips_zero_values():
    prev = {"wall_s": 0.05, "b1": -4.0, "b2": 6.0, "c1": 0.0, "rmse": 0.01}
    fit = {"wall_s": 0.004, "b1": -4.0 * (1 + 1e-9), "b2": 6.0, "c1": 0.0,
           "rmse": 0.0125}
    par = bench_plans.fit_parity(prev, fit)
    assert par["b1"] == pytest.approx(-1e-9, rel=1e-6)
    assert par["b2"] == 0.0 and par["c1"] is None
    assert par["rmse"] == pytest.approx(0.25)
    assert par["wall_s"] == [0.05, 0.004]
    fit["parity"] = par
    table = bench_plans.fit_table({"4sn": fit, "new": dict(prev)})
    assert "| 4sn | 50.0 -> 4.0 | -1.00e-09 | +0.00e+00 | was 0 |" in table
    assert "| new | 50.0 | -4 | 6 | 0 | 0.01 |" in table


@pytest.mark.parametrize("rmse, risen", [
    (0.01, "none"),
    (0.01 * (1 - 1e-6), "none"),
    (0.01 * (1 + 4e-16), "none"),
    (0.01 * (1 + 2e-12), "f"),
    (0.0125, "f"),
], ids=["equal", "fell", "rounding", "rose", "rose-far"])
def test_exit_rule_names_fits_whose_rmse_rose(rmse, risen, capsys):
    prev = {"wall_s": 0.05, "b1": -4.0, "b2": 6.0, "c1": 0.0, "rmse": 0.01}
    fits = {"f": dict(prev, rmse=rmse), "new": dict(prev)}
    fits["f"]["parity"] = bench_plans.fit_parity(prev, fits["f"])
    # "new" is missing from the earlier output: it is compared with nothing
    status = bench_plans.report_fit_rise(fits)
    assert capsys.readouterr().err.splitlines() == [f"rmse rises: {risen}"]
    assert status == (0 if risen == "none" else 1)


def test_exit_rule_names_a_fit_whose_rmse_rose_from_zero(capsys):
    prev = {"wall_s": 0.05, "b1": -4.0, "b2": 0.0, "c1": 0.0, "rmse": 0.0}
    fits = {"flat": dict(prev), "worse": dict(prev, rmse=1e-18)}
    for fit in fits.values():
        fit["parity"] = bench_plans.fit_parity(prev, fit)
    assert bench_plans.report_fit_rise(fits) == 1
    assert capsys.readouterr().err == "rmse rises: worse\n"


def test_grid_reports_the_order_per_point():
    rec = {"lb": 0.1, "rfla": 0.2, "rffsa": 0.3, "rfb": 0.3}
    assert bench_plans.order_holds(rec)
    assert not bench_plans.order_holds(dict(rec, rfb=0.29))
    assert not bench_plans.order_holds(dict(rec, lb=0.25))
    table = bench_plans.grid_table(
        {"4sn": {"vz=5": dict(rec, order_holds=True, rfb_reaches_rffsa=True),
                 "eps=0.05": dict(rec, rfb=0.29, order_holds=False,
                                  rfb_reaches_rffsa=False)}})
    assert "| rfb >= (1 - 0.0001) rffsa |" in table
    assert ("| 4sn | vz=5 | 0.1000 | 0.2000 | 0.3000 | 0.3000 | yes | yes |"
            in table)
    assert ("| 4sn | eps=0.05 | 0.1000 | 0.2000 | 0.3000 | 0.2900 | no | no |"
            in table)


@pytest.mark.parametrize("rfb, reaches, order", [
    (0.3, True, True),
    (0.3 * (1 - 0.5e-4), True, False),
    (0.3 * (1 - 2e-4), False, False),
    (0.31, True, True),
], ids=["tie", "within-bar", "below-bar", "above"])
def test_grid_reports_whether_rfb_reaches_rffsa(rfb, reaches, order):
    # rfb may end up to REACH_RTOL below rffsa and still reach it, while
    # the order column stays exact
    rec = {"lb": 0.1, "rfla": 0.2, "rffsa": 0.3, "rfb": rfb}
    assert bench_plans.REACH_RTOL == 1e-4
    assert bench_plans.reaches_rffsa(rec) is reaches
    assert bench_plans.order_holds(rec) is order


def test_counter_counts_each_blocks_trials_and_corrections():
    # every accepted Newton step is one evaluated trial, and a correction
    # follows a trial; the plan's counts are its blocks' sums
    scenario = bench_plans.load_scenario(
        bench_plans.bundled_scenario("scenario_1sn.json"))
    model = bench_plans.fit_for_scenario(scenario)
    run = bench_plans.run_plan("rfb", scenario, model)
    blocks = run["blocks"].values()
    for block in blocks:
        assert block["calls"] > 0
        assert block["trials"] >= block["newton_steps"]
        assert block["trials"] >= block["corrections"]
    for key in bench_plans.TRIAL_COUNTS:
        assert run[key] == sum(block[key] for block in blocks)
    assert run["corrections"] > 0
    # the wrapped helpers are restored
    assert bench_plans.solvers._trial_steps.__name__ == "_trial_steps"
    assert (bench_plans.solvers._epigraph_correction.__name__
            == "_epigraph_correction")
