"""Command-line surface: subcommands, exit codes, and output files.

Commands run in-process through cli() so exit codes are asserted exactly;
one smoke test goes through a real subprocess to cover the module entry
point.  All scenarios here are small (8 slots) to keep the planner runs
fast.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import uavrice
from uavrice import DEFAULT_SEED, channel, evaluation
from uavrice import cli as cli_module
from uavrice.cli import cli
from uavrice.files import dump_json, load_model, load_result, model_to_json
from uavrice.planner import LOS_MODEL


@pytest.fixture()
def scen_path(tmp_path):
    doc = {
        "alpha": 2.0, "beta0_db": -60.0, "duration_s": 8.0,
        "epsilon": 0.01, "gamma_db": 8.2, "h_min_m": 100.0,
        "kmax_db": 30.0, "kmin_db": 0.0, "n_slots": 8, "p_tx_w": 0.1,
        "q0_m": [0.0, 0.0], "qf_m": [300.0, 0.0], "sigma2_dbm": -109.0,
        "sn_positions_m": [[150.0, 0.0]], "vxy_mps": 50.0, "vz_mps": 20.0,
        "z0_m": 100.0, "zf_m": 100.0,
    }
    path = tmp_path / "scen.json"
    path.write_text(dump_json(doc))
    return path


@pytest.fixture()
def model_path(tmp_path):
    path = tmp_path / "model.json"
    assert cli(["fit", "--out", str(path)]) == 0
    return path


def _never(*args, **kwargs):
    raise AssertionError("the options should have been refused first")


class TestArgumentHandling:
    def test_no_command_is_a_usage_error(self, capsys):
        assert cli([]) == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_scheme_is_a_usage_error(self, scen_path, tmp_path,
                                             capsys):
        code = cli(["plan", "--scenario", str(scen_path), "--scheme",
                    "best", "--out", str(tmp_path / "x.json")])
        assert code == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert cli(["--help"]) == 0
        assert "fit" in capsys.readouterr().out


class TestFit:
    def test_writes_normalized_mixture_weights(self, tmp_path, capsys):
        out = tmp_path / "model.json"
        assert cli(["fit", "--kmin-db", "0", "--kmax-db", "30",
                    "--eps", "0.01", "--grid", "120",
                    "--out", str(out)]) == 0
        model = load_model(out)
        assert model.c1 + model.c2 == pytest.approx(1.0, abs=1e-9)
        assert model.rmse < 0.03
        assert model.grid == 120
        capsys.readouterr()

    def test_inverted_bounds_fail_cleanly(self, tmp_path, capsys):
        out = tmp_path / "model.json"
        assert cli(["fit", "--kmin-db", "30", "--kmax-db", "0",
                    "--out", str(out)]) == 1
        assert "error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("option, db", [
        ("--kmin-db", "4000"), ("--kmax-db", "4000"), ("--kmin-db", "nan"),
        ("--kmax-db", "inf"), ("--kmin-db", "-4000")])
    def test_db_out_of_range_fails_naming_the_option(self, tmp_path, capsys,
                                                     option, db):
        # a linear value that overflows, is not finite or underflows to 0
        out = tmp_path / "m.json"
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli_module, "generate_regression_samples", _never)
            assert cli(["fit", "--kmin-db", "0", "--kmax-db", "4000", option,
                        db, "--out", str(out)]) == 1
        assert f"{option}={db} dB is out of range" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("argv, message", [
        (["--grid", "10"], "--grid=10 is below 50"),
        (["--eps", "0.5"], "--eps=0.5 is outside (0, 0.1]"),
        (["--eps", "0"], "--eps=0 is outside (0, 0.1]"),
        (["--eps", "nan"], "--eps=nan is outside (0, 0.1]"),
    ])
    def test_out_of_range_option_fails_naming_it(self, tmp_path, capsys,
                                                  argv, message):
        out = tmp_path / "m.json"
        assert cli(["fit", *argv, "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_refuses_a_grid_beyond_memory(self, tmp_path, capsys,
                                          monkeypatch):
        # 2**62 points exceed any machine; 2,200 B per point, so with
        # memory for 1000 points 1001 are refused, each before any sample
        # is tabulated, and 1000 fit
        out = tmp_path / "m.json"
        with monkeypatch.context() as patch:
            patch.setattr(cli_module, "generate_regression_samples", _never)
            assert cli(["fit", "--grid", str(2 ** 62), "--out",
                        str(out)]) == 1
            assert f"--grid={2 ** 62} exceeds" in capsys.readouterr().err
            monkeypatch.setattr(channel, "_memory_bytes", lambda: 2200 * 1000)
            assert cli(["fit", "--grid", "1001", "--out", str(out)]) == 1
        assert ("--grid=1001 exceeds 1000, the most regression points whose "
                "fit fits in memory" in capsys.readouterr().err)
        assert not out.exists()
        assert cli(["fit", "--grid", "1000", "--out", str(out)]) == 0
        assert load_model(out).grid == 1000


class TestPlanAndEvaluate:
    def test_lb_gap_is_one_sided(self, scen_path, model_path, tmp_path,
                                 capsys):
        planned = tmp_path / "lb.json"
        assert cli(["plan", "--scenario", str(scen_path), "--model",
                    str(model_path), "--scheme", "lb",
                    "--out", str(planned)]) == 0
        evaluated = tmp_path / "lb_eval.json"
        assert cli(["evaluate", "--scenario", str(scen_path), "--plan",
                    str(planned), "--trials", "10000",
                    "--out", str(evaluated)]) == 0
        doc = load_result(evaluated)
        assert doc["kind"] == "evaluation"
        assert doc["scheme"] == "lb"
        # clear-channel commitments are optimistic, so the ground-truth
        # rate falls noticeably short of the planner's estimate ...
        assert doc["eta_achieved"] <= doc["eta_estimated"] - 0.1
        # ... while the simulation itself stays calibrated: it draws
        # against the outage-safe exact rates, keeping frequencies near
        # the design target in every scheduled slot
        assert 0.0 < max(doc["outage_freq"]) < 0.02
        capsys.readouterr()

    def test_plan_result_embeds_configuration(self, scen_path, model_path,
                                              tmp_path, capsys):
        out = tmp_path / "rfla.json"
        assert cli(["plan", "--scenario", str(scen_path), "--model",
                    str(model_path), "--scheme", "rfla",
                    "--out", str(out)]) == 0
        doc = load_result(out)
        assert doc["kind"] == "plan_result"
        assert doc["scenario"]["n_slots"] == 8
        assert doc["model"]["c1"] + doc["model"]["c2"] == pytest.approx(1.0)
        assert doc["extras"]["trace"]
        assert doc["seed"] == DEFAULT_SEED
        capsys.readouterr()

    def test_reruns_are_byte_identical(self, scen_path, model_path,
                                       tmp_path, capsys):
        outs = []
        for tag in ("a", "b"):
            res = tmp_path / f"{tag}.json"
            csv = tmp_path / f"{tag}.csv"
            assert cli(["plan", "--scenario", str(scen_path), "--model",
                        str(model_path), "--scheme", "rfb",
                        "--out", str(res), "--traj", str(csv)]) == 0
            outs.append((res.read_bytes(), csv.read_bytes()))
        assert outs[0] == outs[1]
        capsys.readouterr()

    @pytest.mark.parametrize("scheme", ["rffsa", "rfb"])
    @pytest.mark.parametrize("floor", [120.0, 320.0])
    def test_plans_above_a_raised_floor(self, scen_path, model_path,
                                        tmp_path, capsys, scheme, floor):
        # the cruise scans try the default levels at or above the floor
        # (125 m up at 120 m), or the floor alone when none is (320 m)
        doc = json.loads(scen_path.read_text())
        doc.update(h_min_m=floor, z0_m=floor, zf_m=floor)
        scen_path.write_text(dump_json(doc))
        out = tmp_path / "p.json"
        assert cli(["plan", "--scenario", str(scen_path), "--model",
                    str(model_path), "--scheme", scheme,
                    "--out", str(out)]) == 0
        result = load_result(out)
        assert min(result["plan"]["z_m"]) >= floor * (1.0 - 1e-9)
        if scheme == "rffsa":
            levels = [h for h, _ in result["extras"]["altitude_sweep"]]
            assert levels == ([floor] if floor > 300.0
                              else list(evaluation.DEFAULT_ALTITUDES[1:]))
        capsys.readouterr()

    def test_failed_run_leaves_no_output(self, scen_path, tmp_path, capsys):
        bad = tmp_path / "bad_scen.json"
        doc = json.loads(scen_path.read_text())
        doc["windspeed"] = 9.0
        bad.write_text(dump_json(doc))
        out = tmp_path / "never.json"
        assert cli(["plan", "--scenario", str(bad), "--scheme", "lb",
                    "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "uavrice: error" in err and "windspeed" in err
        assert not out.exists()

    def test_evaluate_rejects_mismatched_plan(self, scen_path, model_path,
                                              tmp_path, capsys):
        planned = tmp_path / "p.json"
        assert cli(["plan", "--scenario", str(scen_path), "--model",
                    str(model_path), "--scheme", "lb",
                    "--out", str(planned)]) == 0
        other = tmp_path / "other.json"
        doc = json.loads(scen_path.read_text())
        doc["n_slots"] = 16
        doc["duration_s"] = 16.0
        other.write_text(dump_json(doc))
        out = tmp_path / "e.json"
        assert cli(["evaluate", "--scenario", str(other), "--plan",
                    str(planned), "--trials", "10000",
                    "--out", str(out)]) == 1
        assert "slots" in capsys.readouterr().err
        assert not out.exists()


class TestBoundaryChecks:
    @pytest.mark.parametrize("path, value, reason", [
        (("plan", "a", 0, 2), 7.0, "activity outside [0, 1] by 6"),
        (("plan", "q_m", 3, 0), 5000.0, "horizontal step above sxy"),
        (("plan", "z_m", 4), 98.5, "altitude below h_min by 1.5"),
        (("scheme",), {"name": "lb"}, "result.scheme"),
    ], ids=["activity-7", "5km-jump", "under-floor", "scheme-object"])
    def test_evaluate_refuses_a_hand_edited_plan(self, scen_path, tmp_path,
                                                 capsys, path, value, reason):
        planned = tmp_path / "p.json"
        assert cli(["plan", "--scenario", str(scen_path), "--scheme", "lb",
                    "--out", str(planned)]) == 0
        doc = json.loads(planned.read_text())
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        planned.write_text(dump_json(doc))
        out, traj = tmp_path / "e.json", tmp_path / "e.csv"
        assert cli(["evaluate", "--scenario", str(scen_path), "--plan",
                    str(planned), "--trials", "10000", "--out", str(out),
                    "--traj", str(traj)]) == 1
        assert reason in capsys.readouterr().err
        assert not out.exists() and not traj.exists()

    @pytest.mark.parametrize("change, field", [
        ({"kmax_db": 20.0}, "kmax_db=30 differs from the scenario's 20"),
        ({"kmax_db": 20.0, "epsilon": 0.05},
         "kmax_db=30 differs from the scenario's 20"),
        ({"epsilon": 0.05}, "epsilon=0.01 differs from the scenario's 0.05"),
    ], ids=["kmax", "kmax-and-eps", "eps"])
    def test_evaluate_refuses_a_plan_fitted_to_another_channel(
            self, scen_path, tmp_path, capsys, monkeypatch, change, field):
        # the stored eta_estimated would come from the other channel's
        # surrogate, so the plan is refused before any draw
        planned = tmp_path / "p.json"
        assert cli(["plan", "--scenario", str(scen_path), "--scheme", "rfla",
                    "--out", str(planned)]) == 0
        other = tmp_path / "other.json"
        other.write_text(dump_json(json.loads(scen_path.read_text())
                                   | change))
        monkeypatch.setattr(cli_module, "evaluate_plan", _never)
        out, traj = tmp_path / "e.json", tmp_path / "e.csv"
        assert cli(["evaluate", "--scenario", str(other), "--plan",
                    str(planned), "--trials", "10000", "--out", str(out),
                    "--traj", str(traj)]) == 1
        assert f"--plan {planned} model: {field}" in capsys.readouterr().err
        assert not out.exists() and not traj.exists()

    @pytest.mark.parametrize("seed", [-1, 2 ** 63])
    def test_evaluate_refuses_a_seed_no_result_holds(self, scen_path,
                                                     tmp_path, capsys, seed):
        planned = tmp_path / "p.json"
        assert cli(["plan", "--scenario", str(scen_path), "--scheme", "lb",
                    "--out", str(planned)]) == 0
        out, traj = tmp_path / "e.json", tmp_path / "e.csv"
        assert cli(["evaluate", "--scenario", str(scen_path), "--plan",
                    str(planned), "--trials", "10000", "--seed", str(seed),
                    "--out", str(out), "--traj", str(traj)]) == 1
        assert f"--seed={seed}" in capsys.readouterr().err
        assert not out.exists() and not traj.exists()

    def test_evaluate_refuses_too_few_trials(self, scen_path, tmp_path,
                                             capsys, monkeypatch):
        planned = tmp_path / "p.json"
        assert cli(["plan", "--scenario", str(scen_path), "--scheme", "lb",
                    "--out", str(planned)]) == 0
        monkeypatch.setattr(cli_module, "evaluate_plan", _never)
        out = tmp_path / "e.json"
        assert cli(["evaluate", "--scenario", str(scen_path), "--plan",
                    str(planned), "--trials", "5", "--out", str(out)]) == 1
        assert "--trials=5 is below 10000" in capsys.readouterr().err
        assert not out.exists()

    def test_evaluate_refuses_trials_beyond_memory(self, scen_path, tmp_path,
                                                   capsys, monkeypatch):
        # 16 B per envelope on every worker at once: with memory for 1e4
        # trials of the scenario's 2 blocks, 10001 trials are refused
        # before any draw, and 10000 run
        planned = tmp_path / "p.json"
        assert cli(["plan", "--scenario", str(scen_path), "--scheme", "lb",
                    "--out", str(planned)]) == 0
        workers = evaluation.usable_cpus()
        monkeypatch.setattr(channel, "_memory_bytes",
                            lambda: 16 * 2 * workers * 10_000)
        out = tmp_path / "e.json"
        with monkeypatch.context() as patch:
            patch.setattr(cli_module, "evaluate_plan", _never)
            assert cli(["evaluate", "--scenario", str(scen_path), "--plan",
                        str(planned), "--trials", "10001",
                        "--out", str(out)]) == 1
        assert (f"--trials=10001 exceeds 10000, the most whose 2 fading "
                f"blocks per trial fit in memory on {workers} workers"
                in capsys.readouterr().err)
        assert not out.exists()
        assert cli(["evaluate", "--scenario", str(scen_path), "--plan",
                    str(planned), "--trials", "10000",
                    "--out", str(out)]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("fit_args, field", [
        (["--eps", "0.05"], "epsilon=0.05 differs from the scenario's 0.01"),
        (["--kmax-db", "20"], "kmax_db=20 differs from the scenario's 30"),
        (["--kmin-db", "3"], "kmin_db=3 differs from the scenario's 0"),
    ])
    def test_refuses_a_model_fitted_to_another_channel(
            self, scen_path, tmp_path, capsys, fit_args, field):
        model = tmp_path / "m.json"
        assert cli(["fit", *fit_args, "--grid", "60",
                    "--out", str(model)]) == 0
        out = tmp_path / "x.json"
        assert cli(["plan", "--scenario", str(scen_path), "--model",
                    str(model), "--scheme", "rfla", "--out", str(out)]) == 1
        assert f"--model {model}: {field}" in capsys.readouterr().err
        assert not out.exists()

    def test_model_without_channel_fields_still_plans(self, scen_path,
                                                      tmp_path, capsys):
        # the channel fields are optional, for lb as for the others
        model = tmp_path / "m.json"
        assert cli(["fit", "--eps", "0.05", "--grid", "60",
                    "--out", str(model)]) == 0
        doc = json.loads(model.read_text())
        for key in ("kmin_db", "kmax_db", "epsilon"):
            del doc[key]
        model.write_text(dump_json(doc))
        out = tmp_path / "x.json"
        for scheme in ("lb", "rfla"):
            assert cli(["plan", "--scenario", str(scen_path), "--model",
                        str(model), "--scheme", scheme,
                        "--out", str(out)]) == 0
        capsys.readouterr()

    def test_lb_reads_and_checks_its_model(self, scen_path, model_path,
                                           tmp_path, capsys):
        # lb plans with the clear-channel model, but a --model it is given
        # must still load and fit the scenario
        out = tmp_path / "x.json"
        missing = tmp_path / "none.json"
        assert cli(["plan", "--scenario", str(scen_path), "--model",
                    str(missing), "--scheme", "lb", "--out", str(out)]) == 1
        assert str(missing) in capsys.readouterr().err
        other = tmp_path / "m.json"
        assert cli(["fit", "--eps", "0.05", "--grid", "60",
                    "--out", str(other)]) == 0
        assert cli(["plan", "--scenario", str(scen_path), "--model",
                    str(other), "--scheme", "lb", "--out", str(out)]) == 1
        assert (f"--model {other}: epsilon=0.05 differs from the scenario's "
                f"0.01" in capsys.readouterr().err)
        assert not out.exists()
        assert cli(["plan", "--scenario", str(scen_path), "--model",
                    str(model_path), "--scheme", "lb",
                    "--out", str(out)]) == 0
        assert load_result(out)["model"] == model_to_json(LOS_MODEL)
        capsys.readouterr()

    def test_largest_seed_reloads(self, scen_path, tmp_path, capsys):
        planned, out = tmp_path / "p.json", tmp_path / "e.json"
        assert cli(["plan", "--scenario", str(scen_path), "--scheme", "lb",
                    "--out", str(planned)]) == 0
        assert cli(["evaluate", "--scenario", str(scen_path), "--plan",
                    str(planned), "--trials", "10000",
                    "--seed", str(2 ** 63 - 1), "--out", str(out)]) == 0
        assert load_result(out)["seed"] == 2 ** 63 - 1
        capsys.readouterr()

    @pytest.mark.parametrize("key, value", [
        ("duration_s", "NaN"), ("vxy_mps", "Infinity"),
        ("beta0_db", "NaN"), ("kmax_db", "1e999"),
    ])
    def test_plan_refuses_a_non_finite_scenario(self, scen_path, tmp_path,
                                                capsys, key, value):
        doc = json.loads(scen_path.read_text())
        doc[key] = "@"
        scen_path.write_text(dump_json(doc).replace('"@"', value))
        out = tmp_path / "p.json"
        assert cli(["plan", "--scenario", str(scen_path), "--scheme", "lb",
                    "--out", str(out)]) == 1
        assert f"non-finite number {value}" in capsys.readouterr().err
        assert not out.exists()

    def test_plan_refuses_a_floor_below_the_reference_distance(
            self, scen_path, tmp_path, capsys):
        # the path-loss model starts at 1 m, so a lower floor is refused
        # when the file loads, before any scheme plans
        doc = json.loads(scen_path.read_text())
        doc.update(h_min_m=0.5, z0_m=0.5, zf_m=0.5)
        scen_path.write_text(dump_json(doc))
        out = tmp_path / "p.json"
        assert cli(["plan", "--scenario", str(scen_path), "--scheme", "rffsa",
                    "--out", str(out)]) == 1
        assert ("h_min=0.5 m is below the path-loss model's 1 m reference"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_plan_refuses_a_non_finite_model(self, scen_path, model_path,
                                             tmp_path, capsys):
        doc = json.loads(model_path.read_text())
        doc["b1"] = math.nan
        model_path.write_text(json.dumps(doc))
        out = tmp_path / "p.json"
        assert cli(["plan", "--scenario", str(scen_path), "--model",
                    str(model_path), "--scheme", "rfb",
                    "--out", str(out)]) == 1
        assert "non-finite number NaN" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["plan", "sweep"])
    def test_only_evaluate_takes_a_seed(self, scen_path, tmp_path, capsys,
                                        command):
        extra = (["--scheme", "lb"] if command == "plan" else
                 ["--param", "vz", "--values", "20"])
        assert cli([command, "--scenario", str(scen_path), *extra,
                    "--seed", "3", "--out", str(tmp_path / "x.json")]) == 2
        assert "--seed" in capsys.readouterr().err


class TestSweep:
    def test_one_row_per_value_with_embedded_config(self, scen_path,
                                                    tmp_path, capsys):
        out = tmp_path / "sweep.json"
        assert cli(["sweep", "--scenario", str(scen_path), "--param", "vz",
                    "--values", "0,20", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["kind"] == "sweep" and doc["param"] == "vz"
        assert [r["value"] for r in doc["rows"]] == [0.0, 20.0]
        for row in doc["rows"]:
            assert set(row) == {"value", "model", "rfb", "lb"}
            for scheme in ("rfb", "lb"):
                assert row[scheme]["eta_achieved"] > 0.0
                assert row[scheme]["z_max_m"] >= 100.0
        assert doc["scenario"]["n_slots"] == 8
        capsys.readouterr()

    def test_outage_relaxation_pays_off(self, scen_path, tmp_path, capsys):
        # larger tolerable outage -> smaller fading margin -> higher rate;
        # the models are refit per value since epsilon changes the channel
        out = tmp_path / "eps.json"
        assert cli(["sweep", "--scenario", str(scen_path), "--param", "eps",
                    "--values", "0.01,0.1", "--out", str(out)]) == 0
        rows = json.loads(out.read_text())["rows"]
        assert rows[1]["rfb"]["eta_achieved"] >= (
            rows[0]["rfb"]["eta_achieved"] * 0.98)
        assert rows[0]["model"]["b1"] != rows[1]["model"]["b1"]
        capsys.readouterr()

    def test_duration_sweep_rescales_slot_count(self, scen_path, tmp_path,
                                                capsys):
        out = tmp_path / "t.json"
        assert cli(["sweep", "--scenario", str(scen_path), "--param", "T",
                    "--values", "8,12", "--out", str(out)]) == 0
        rows = json.loads(out.read_text())["rows"]
        # more mission time -> never a worse max-min rate
        assert rows[1]["rfb"]["eta_achieved"] >= (
            rows[0]["rfb"]["eta_achieved"] * 0.98)
        capsys.readouterr()

    def test_takes_no_model(self, scen_path, model_path, tmp_path, capsys):
        # each swept scenario is fitted by the sweep itself
        assert cli(["sweep", "--scenario", str(scen_path), "--model",
                    str(model_path), "--param", "vz", "--values", "20",
                    "--out", str(tmp_path / "s.json")]) == 2
        assert "--model" in capsys.readouterr().err

    def test_bad_values_fail_cleanly(self, scen_path, tmp_path, capsys):
        out = tmp_path / "s.json"
        assert cli(["sweep", "--scenario", str(scen_path), "--param", "vz",
                    "--values", "a,b", "--out", str(out)]) == 1
        assert "values" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("param, values", [
        ("vz", "nan"), ("vz", "inf"), ("kmax_db", "inf"), ("T", "8,inf"),
        ("eps", "0.01,-inf")])
    def test_non_finite_values_fail_cleanly(self, scen_path, tmp_path,
                                            capsys, param, values):
        out = tmp_path / "n.json"
        assert cli(["sweep", "--scenario", str(scen_path), "--param", param,
                    "--values", values, "--out", str(out)]) == 1
        assert "--values: expected finite numbers" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_kmax_fails_naming_the_value(self, scen_path,
                                                     tmp_path, capsys):
        out = tmp_path / "k.json"
        assert cli(["sweep", "--scenario", str(scen_path), "--param",
                    "kmax_db", "--values", "30,4000", "--out", str(out)]) == 1
        assert ("--values: kmax_db=4000 dB is out of range"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("param, values, message", [
        # the slot length (1 s here) stays fixed, so T must be a whole
        # number of slots
        ("T", "8,8.5", "--values: T=8.5 s is not a whole number of 1 s slots"),
        ("T", "0.4", "--values: T=0.4 s is not a whole number of 1 s slots"),
        # a value the scenario refuses is named before the scenario's reason
        ("kmax_db", "-5", "--values: kmax_db=-5: need 0 < k_min <= k_max"),
        ("vz", "-1", "--values: vz=-1: speed limits must be nonnegative"),
        ("T", "1e300", "--values: T=1e+300: n_slots="),
    ], ids=["T-8,8.5", "T-0.4", "kmax_db--5", "vz--1", "T-1e300"])
    def test_bad_value_fails_naming_it(self, scen_path, tmp_path, capsys,
                                       monkeypatch, param, values, message):
        # nothing is planned or written
        monkeypatch.setattr(cli_module, "run_scheme", _never)
        out = tmp_path / "t.json"
        assert cli(["sweep", "--scenario", str(scen_path), "--param", param,
                    "--values", values, "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


def _child_env():
    # the child must import the same package as this process, which may
    # come from the pytest path setting rather than an install
    src = str(Path(uavrice.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


_FOOTPRINT = '''
import json, sys
from uavrice.cli import cli
code = cli(sys.argv[1:])
loaded = sorted({".".join(m.split(".")[:2]) for m in sys.modules
                 if m.split(".")[:2] in (["scipy", "linalg"],
                                         ["scipy", "optimize"],
                                         ["scipy", "sparse"])})
print(json.dumps({"code": code, "loaded": loaded}))
'''


class TestEntryPoint:
    def test_module_runs_as_script(self, tmp_path):
        out = tmp_path / "model.json"
        proc = subprocess.run(
            [sys.executable, "-m", "uavrice.cli", "fit", "--grid", "60",
             "--out", str(out)],
            capture_output=True, text=True, env=_child_env())
        assert proc.returncode == 0, proc.stderr
        assert out.exists()
        assert "rmse" in proc.stdout

    @pytest.mark.parametrize("command, loaded", [
        ("fit", []),
        ("plan", ["scipy.linalg"]),
        ("evaluate", []),
    ], ids=["fit", "plan", "evaluate"])
    def test_each_cli_run_loads_only_the_scipy_it_uses(self, scen_path,
                                                       tmp_path, command,
                                                       loaded):
        # scipy.optimize and scipy.sparse hold about 19 MB of a run's peak
        # memory and no command needs them; scipy.linalg about 5 MB, and
        # only a plan factors a matrix.  Each command in a fresh process,
        # since this one has imported all three
        model, plan = str(tmp_path / "m.json"), str(tmp_path / "p.json")
        argv = {"fit": ["fit", "--grid", "60", "--out", model],
                "plan": ["plan", "--scenario", str(scen_path), "--model",
                         model, "--scheme", "rfb", "--out", plan],
                "evaluate": ["evaluate", "--scenario", str(scen_path),
                             "--plan", plan, "--trials", "10000",
                             "--out", str(tmp_path / "e.json")]}
        # the inputs the command reads, made in this process
        for step in {"fit": [], "plan": ["fit"],
                     "evaluate": ["fit", "plan"]}[command]:
            assert cli(argv[step]) == 0
        proc = subprocess.run(
            [sys.executable, "-c", _FOOTPRINT, *argv[command]],
            capture_output=True, text=True, env=_child_env())
        assert proc.returncode == 0, proc.stderr
        child = json.loads(proc.stdout.splitlines()[-1])
        assert child == {"code": 0, "loaded": loaded}
