"""Scenario/model/result documents and the trajectory CSV.

Conversion oracles are computed inline from the dB definitions
(10^(db/10), milliwatt offset for dBm); placement resolution is checked
against an independently constructed generator stream.
"""

import json

import numpy as np
import pytest

from uavrice import files
from uavrice.evaluation import EvalReport, evaluate_plan
from uavrice.fading import LogisticModel
from uavrice.files import (
    FileFormatError,
    bundled_scenario,
    dump_json,
    load_model,
    load_result,
    load_scenario,
    model_from_json,
    model_to_json,
    plan_from_json,
    result_to_json,
    save_model,
    scenario_from_config,
    scenario_to_config,
    trajectory_csv,
    write_outputs,
)
from uavrice.planner import LOS_MODEL, Plan, initialize_plan


def _config(**overrides):
    doc = {
        "alpha": 2.0, "beta0_db": -60.0, "duration_s": 8.0,
        "epsilon": 0.01, "gamma_db": 8.2, "h_min_m": 100.0,
        "kmax_db": 30.0, "kmin_db": 0.0, "n_slots": 8, "p_tx_w": 0.1,
        "q0_m": [0.0, 0.0], "qf_m": [300.0, 0.0], "sigma2_dbm": -109.0,
        "sn_positions_m": [[150.0, 0.0]], "vxy_mps": 50.0, "vz_mps": 20.0,
        "z0_m": 100.0, "zf_m": 100.0,
    }
    doc.update(overrides)
    return {k: v for k, v in doc.items() if v is not None}


class TestConversions:
    def test_db_pairs(self):
        assert files.db_to_linear(-60.0) == pytest.approx(1e-6, rel=1e-12)
        assert files.db_to_linear(0.0) == 1.0
        assert files.db_to_linear(30.0) == pytest.approx(1000.0, rel=1e-12)
        assert files.dbm_to_watt(-109.0) == pytest.approx(
            1.2589254117941663e-14, rel=1e-12)
        assert files.dbm_to_watt(0.0) == pytest.approx(1e-3, rel=1e-12)

    def test_round_trips(self):
        for x in (1e-6, 0.5, 1.0, 42.0, 1e6):
            assert files.db_to_linear(files.linear_to_db(x)) == (
                pytest.approx(x, rel=1e-12))
        for w in (1e-14, 1e-3, 0.1):
            assert files.dbm_to_watt(files.watt_to_dbm(w)) == (
                pytest.approx(w, rel=1e-12))


class TestScenarioDocuments:
    def test_load_applies_unit_conversion_once(self):
        scen = scenario_from_config(_config())
        assert scen.beta0 == pytest.approx(1e-6, rel=1e-12)
        assert scen.sigma2 == pytest.approx(1.2589254117941663e-14,
                                            rel=1e-12)
        assert scen.snr_gap == pytest.approx(10.0 ** 0.82, rel=1e-12)
        assert scen.k_min == pytest.approx(1.0, rel=1e-12)
        assert scen.k_max == pytest.approx(1000.0, rel=1e-12)
        assert scen.n_slots == 8
        assert scen.n_blocks == 2  # default when omitted

    def test_bundled_single_node_defaults(self):
        scen = load_scenario(bundled_scenario("scenario_1sn.json"))
        assert scen.n_slots == 130
        assert scen.duration_s == 26.0
        assert scen.delta_s == pytest.approx(0.2)
        assert scen.vxy == 50.0 and scen.vz == 20.0 and scen.h_min == 100.0
        assert scen.q0.tolist() == [0.0, 500.0]
        assert scen.qf.tolist() == [1000.0, 500.0]
        assert scen.z0 == 100.0 and scen.zf == 100.0
        assert scen.sn_positions.tolist() == [[200.0, 0.0]]
        assert scen.epsilon == 0.01

    def test_bundled_placement_resolves_deterministically(self):
        scen = load_scenario(bundled_scenario("scenario_4sn.json"))
        expect = np.random.default_rng(11).uniform(0.0, 1000.0, (4, 2))
        assert np.array_equal(scen.sn_positions, expect)

    def test_unknown_field_is_named_in_the_error(self):
        with pytest.raises(FileFormatError, match=r"scenario\.windspeed"):
            scenario_from_config(_config(windspeed=3.0))

    def test_unknown_placement_subfield_is_named(self):
        cfg = _config(sn_positions_m=None,
                      sn_placement={"count": 2, "area_m": [100.0, 100.0],
                                    "seed": 1, "shape": "disc"})
        with pytest.raises(FileFormatError,
                           match=r"scenario\.sn_placement\.shape"):
            scenario_from_config(cfg)

    def test_missing_epsilon_rejected(self):
        with pytest.raises(FileFormatError, match=r"scenario\.epsilon"):
            scenario_from_config(_config(epsilon=None))

    def test_k_bounds_out_of_order_rejected(self):
        with pytest.raises(FileFormatError, match="kmin_db"):
            scenario_from_config(_config(kmin_db=31.0))

    def test_positions_and_placement_are_mutually_exclusive(self):
        both = _config(sn_placement={"count": 1, "area_m": [1.0, 1.0],
                                     "seed": 0})
        with pytest.raises(FileFormatError, match="exactly one"):
            scenario_from_config(both)
        with pytest.raises(FileFormatError, match="exactly one"):
            scenario_from_config(_config(sn_positions_m=None))

    def test_wrong_typed_field_is_named(self):
        with pytest.raises(FileFormatError, match=r"scenario\.n_slots"):
            scenario_from_config(_config(n_slots=8.5))
        with pytest.raises(FileFormatError, match=r"scenario\.q0_m"):
            scenario_from_config(_config(q0_m=[0.0]))

    def test_infeasible_geometry_surfaces_the_planner_message(self):
        with pytest.raises(FileFormatError, match="unreachable"):
            scenario_from_config(_config(duration_s=2.0))

    def test_config_round_trip(self):
        scen = scenario_from_config(_config(p_tx_w=[0.1]))
        back = scenario_from_config(scenario_to_config(scen))
        assert np.array_equal(back.sn_positions, scen.sn_positions)
        assert back.n_slots == scen.n_slots
        assert back.n_blocks == scen.n_blocks
        for name in ("z0", "zf", "duration_s", "vxy", "vz", "h_min",
                     "alpha", "epsilon"):
            assert getattr(back, name) == getattr(scen, name)
        for name in ("beta0", "sigma2", "snr_gap", "k_min", "k_max"):
            assert getattr(back, name) == pytest.approx(
                getattr(scen, name), rel=1e-12)
        assert np.allclose(back.p_tx, scen.p_tx, rtol=1e-12)


class TestModelDocuments:
    def test_round_trip_with_metadata(self, tmp_path):
        model = LogisticModel(b1=-4.1, b2=5.8, c1=0.2, c2=0.8, rmse=0.013,
                              k_min=1.0, k_max=1000.0, epsilon=0.01,
                              grid=200)
        path = tmp_path / "model.json"
        save_model(path, model)
        back = load_model(path)
        assert back.b1 == model.b1 and back.b2 == model.b2
        assert back.c1 == model.c1 and back.c2 == model.c2
        assert back.rmse == model.rmse
        assert back.k_min == pytest.approx(model.k_min, rel=1e-12)
        assert back.k_max == pytest.approx(model.k_max, rel=1e-12)
        assert back.epsilon == model.epsilon
        assert back.grid == model.grid

    def test_clear_channel_model_serializes_without_metadata(self):
        doc = model_to_json(LOS_MODEL)
        back = model_from_json(json.loads(dump_json(doc)))
        assert back.c1 == 1.0 and back.c2 == 0.0
        assert back.rmse is None

    def test_unknown_model_field_rejected(self):
        with pytest.raises(FileFormatError, match=r"model\.slope"):
            model_from_json({"b1": 0.0, "b2": 0.0, "c1": 1.0, "c2": 0.0,
                             "slope": 2.0})

    def test_missing_coefficient_rejected(self):
        with pytest.raises(FileFormatError, match=r"model\.b2"):
            model_from_json({"b1": 0.0, "c1": 1.0, "c2": 0.0})


class TestResultDocuments:
    def _small_result(self):
        scen = scenario_from_config(_config())
        plan = initialize_plan(scen)
        report = evaluate_plan(plan, scen, LOS_MODEL, scheme="lb",
                               simulate=False,
                               extras={"trace": [1.0, 2.0],
                                       "iterations": 2, "converged": True})
        return plan, report, scen

    def test_plan_round_trip(self):
        plan, report, scen = self._small_result()
        doc = json.loads(dump_json(result_to_json(plan, report, scen,
                                                  LOS_MODEL)))
        plan2 = plan_from_json(doc["plan"])
        assert np.array_equal(plan2.q, plan.q)
        assert np.array_equal(plan2.z, plan.z)
        assert np.array_equal(plan2.a, plan.a)
        scen2 = scenario_from_config(doc["scenario"])
        assert scen2.n_slots == scen.n_slots

    def test_unknown_kind_rejected(self, tmp_path):
        plan, report, scen = self._small_result()
        doc = result_to_json(plan, report, scen, LOS_MODEL)
        doc["kind"] = "mystery"
        path = tmp_path / "result.json"
        path.write_text(dump_json(doc))
        with pytest.raises(FileFormatError, match="kind"):
            load_result(path)

    def test_saved_result_loads_identically(self, tmp_path):
        plan, report, scen = self._small_result()
        path = tmp_path / "result.json"
        write_outputs(plan, report, scen, LOS_MODEL, result_path=path)
        doc = load_result(path)
        assert doc == json.loads(dump_json(
            result_to_json(plan, report, scen, LOS_MODEL)))


class TestTrajectoryCsv:
    def test_one_row_per_slot_with_header(self):
        scen = load_scenario(bundled_scenario("scenario_1sn.json"))
        plan = initialize_plan(scen)
        report = evaluate_plan(plan, scen, LOS_MODEL, simulate=False)
        text = trajectory_csv(plan, report, scen)
        lines = text.splitlines()
        assert lines[0] == ("slot,t_s,x_m,y_m,z_m,sn,a,"
                            "rate_est_bpshz,rate_exact_bpshz")
        assert len(lines) == 1 + 130
        assert text.endswith("\n")

    def test_rows_carry_slot_midpoint_and_owner(self):
        scen = scenario_from_config(_config())
        plan = initialize_plan(scen)
        report = evaluate_plan(plan, scen, LOS_MODEL, simulate=False)
        rows = trajectory_csv(plan, report, scen).splitlines()[1:]
        first = rows[0].split(",")
        assert first[0] == "1"
        assert float(first[1]) == pytest.approx(scen.delta_s)
        assert float(first[2]) == pytest.approx(plan.q[1, 0])
        assert float(first[4]) == pytest.approx(plan.z[1])
        assert int(first[5]) == int(report.owners[0])

    def test_idle_slot_written_as_minus_one(self):
        scen = scenario_from_config(_config())
        plan = initialize_plan(scen)
        m = scen.n_slots
        report = EvalReport(
            scheme="lb", seed=0, trials=0, n_blocks=2,
            owners=np.array([-1] + [0] * (m - 1)),
            rates_est=np.ones(m), rates_exact=np.ones(m),
            eta_estimated=1.0, eta_achieved=1.0,
            outage_freq=np.zeros(m),
            outage_samples=np.zeros(m, dtype=np.int64))
        row = trajectory_csv(plan, report, scen).splitlines()[1].split(",")
        assert row[5] == "-1"
        assert float(row[6]) == 0.0

    def test_two_renders_are_byte_identical(self, tmp_path):
        scen = scenario_from_config(_config())
        plan = initialize_plan(scen)
        report = evaluate_plan(plan, scen, LOS_MODEL, simulate=False)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_outputs(plan, report, scen, LOS_MODEL, traj_path=p1)
        write_outputs(plan, report, scen, LOS_MODEL, traj_path=p2)
        assert p1.read_bytes() == p2.read_bytes()
