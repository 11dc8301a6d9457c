"""Self-test of the benchmark's output checks and span accounting.

    python3 -m pytest -q perfbench

Runs the CLI on the 8-slot one-node scenario of acceptance check C11, so it
takes a few seconds.
"""

import json

import numpy as np
import pytest

import checks
import run as bench
import spans

cli, files = bench.import_program()

TINY = {
    "alpha": 2.0, "beta0_db": -60.0, "duration_s": 8.0,
    "epsilon": 0.01, "gamma_db": 8.2, "h_min_m": 100.0,
    "kmax_db": 30.0, "kmin_db": 0.0, "n_slots": 8, "p_tx_w": 0.1,
    "q0_m": [0.0, 0.0], "qf_m": [300.0, 0.0], "sigma2_dbm": -109.0,
    "sn_positions_m": [[150.0, 0.0]], "vxy_mps": 50.0,
    "vz_mps": 20.0, "z0_m": 100.0, "zf_m": 100.0,
}


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_times_subtract_direct_children():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)
    with tracer.span("cli"):
        clock.now += 1.0
        with tracer.span("solvers.lp"):
            clock.now += 2.0
            with tracer.span("fading.quantile"):
                clock.now += 4.0
        with tracer.span("solvers.lp"):
            clock.now += 8.0
    assert tracer.self_s == {"cli": 1.0, "solvers.lp": 10.0,
                             "fading.quantile": 4.0}
    assert tracer.total_s["solvers.lp"] == 14.0
    assert tracer.calls["solvers.lp"] == 2
    values = spans.layer_values(tracer, wall_s=15.5)
    assert values["solvers.lp.self_s"] == 10.0
    assert values["unattributed_s"] == pytest.approx(0.5)


def test_missing_entry_point_is_absent_not_a_crash():
    tracer = spans.Tracer()
    sites = (("solvers.ipm", ("uavrice.planner:no_such_solver",), None),
             ("x.y", ("uavrice_no_such_module:f",), None))
    tracer.install(sites)
    tracer.uninstall()
    assert set(tracer.absent) == {"uavrice.planner:no_such_solver",
                                  "uavrice_no_such_module:f"}
    assert set(tracer.missing_spans(sites)) == {"solvers.ipm", "x.y"}


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    work = tmp_path_factory.mktemp("tiny")
    scen = work / "scenario.json"
    files.save_json(scen, TINY)
    model = work / "model.json"
    assert cli.cli(["fit", "--out", str(model)]) == 0
    return work, str(scen), files.load_scenario(scen), str(model)


def test_traced_plan_accounts_for_its_wall_time(tiny):
    work, scen, scenario, model = tiny
    out = work / "plan.json"
    argv = ["plan", "--scenario", scen, "--model", model, "--scheme", "rfb",
            "--out", str(out)]
    tracer = spans.Tracer()
    with tracer.active():
        status, wall = bench.run_op(cli, argv, tracer)
    assert status == 0 and tracer.absent == {}
    values = spans.layer_values(tracer, wall)
    self_sum = sum(v for k, v in values.items() if k.endswith(".self_s"))
    assert self_sum + values["unattributed_s"] == pytest.approx(wall,
                                                                abs=1e-12)
    assert 0.0 <= values["unattributed_s"] < wall
    assert values["solvers.ipm.calls"] > 0
    assert values["solvers.lp.calls"] > 0
    assert values["planner.bcd.outer_iters"] > 0
    assert values["fading.quantile.count"] == scenario.n_slots
    assert values["evaluation.mc.blocks"] == 0
    assert checks.check_plan_result(files, out, scenario) == []


def _tampered(src, dst, change):
    doc = json.loads(src.read_text())
    change(doc)
    dst.write_text(json.dumps(doc))
    return dst


def test_plan_checks_reject_broken_results(tiny):
    work, scen, scenario, model = tiny
    good = work / "good.json"
    assert cli.cli(["plan", "--scenario", scen, "--model", model,
                    "--scheme", "rfb", "--out", str(good)]) == 0

    def far(doc):
        doc["plan"]["q_m"][3][1] += 500.0

    def dive(doc):
        doc["plan"]["z_m"][4] = 50.0

    def loose_end(doc):
        doc["plan"]["z_m"][-1] += 1.0

    def overbooked(doc):
        doc["plan"]["a"][0][2] = 1.5

    def zero_rate(doc):
        doc["eta_achieved"] = 0.0

    for change, words in ((far, "horizontal step"), (dive, "climb"),
                          (loose_end, "endpoints"), (overbooked, "sums"),
                          (zero_rate, "eta_achieved")):
        bad = _tampered(good, work / "bad.json", change)
        problems = checks.check_plan_result(files, bad, scenario)
        assert any(words in p for p in problems), (change.__name__, problems)
    (work / "bad.json").write_text("{")
    assert checks.check_plan_result(files, work / "bad.json", scenario)


def test_evaluation_checks(tiny):
    work, scen, scenario, model = tiny
    plan = work / "for_eval.json"
    out = work / "eval.json"
    assert cli.cli(["plan", "--scenario", scen, "--model", model,
                    "--scheme", "rfb", "--out", str(plan)]) == 0
    assert cli.cli(["evaluate", "--scenario", scen, "--plan", str(plan),
                    "--trials", "10000", "--out", str(out)]) == 0
    eta = json.loads(plan.read_text())["eta_achieved"]
    assert checks.check_evaluation_result(files, out, scenario, eta) == []
    problems = checks.check_evaluation_result(files, out, scenario,
                                              eta * (1 + 1e-6))
    assert any("stored plan" in p for p in problems)


def test_outage_tests_flag_one_bad_slot_and_a_pooled_bias():
    eps, n = 0.01, 200_000
    samples = np.full(130, n)
    samples[5] = 0                      # unscheduled slot: skipped
    sigma = np.sqrt(eps * (1 - eps) / n)
    assert checks.outage_problems(np.full(130, eps), samples, eps) == []
    one_off = np.full(130, eps)
    one_off[7] += 6.0 * sigma
    assert any("slot 8" in p for p in
               checks.outage_problems(one_off, samples, eps))
    biased = np.full(130, eps + 0.5 * sigma)   # within each slot's bound
    problems = checks.outage_problems(biased, samples, eps)
    assert len(problems) == 1 and "pooled" in problems[0]


def test_reported_metrics_match_benchmark_json():
    declared = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        assert bench.metric_units(trace) == {
            m["name"]: m["unit"] for m in declared[key]}


def test_stored_plan_is_refused_when_its_shape_no_longer_fits(tiny):
    _, _, scenario, _ = tiny
    with pytest.raises(bench.SetupError, match="shape"):
        bench.load_stored_plan(files, scenario)
    four = files.load_scenario(files.bundled_scenario("scenario_4sn.json"))
    assert bench.load_stored_plan(files, four) > 0


def test_hash_mismatch_within_and_across_runs_fails_the_op(tmp_path):
    store = tmp_path / "hashes.json"
    first = [{"sha256": "a" * 64, "problems": []},
             {"sha256": "b" * 64, "problems": []}]
    bench.check_hashes(first, "key", store)
    assert [bool(op["problems"]) for op in first] == [False, True]
    later = [{"sha256": "b" * 64, "problems": []}]
    bench.check_hashes(later, "key", store)
    assert later[0]["problems"]
    other = [{"sha256": "b" * 64, "problems": []}]
    bench.check_hashes(other, "other code", store)
    assert other[0]["problems"] == []
