"""Scenario/model/result documents and the trajectory CSV.

Conversion oracles are computed inline from the dB definitions
(10^(db/10), milliwatt offset for dBm); placement resolution is checked
against an independently constructed generator stream.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from uavrice import channel, files
from uavrice.cli import cli
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


_STORED_PLAN = (Path(__file__).resolve().parents[1] / "perfbench" / "data"
                / "plan_rfb_4sn.json")


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

    def test_placement_count_beyond_memory_is_refused(self, monkeypatch):
        # 2**62 nodes leave no slot in memory; refused before any draw
        def never(*args, **kwargs):
            raise AssertionError("the count should have been refused first")

        monkeypatch.setattr(np.random, "default_rng", never)
        cfg = _config(sn_positions_m=None,
                      sn_placement={"count": 2 ** 62, "area_m": [1.0, 1.0],
                                    "seed": 0})
        with pytest.raises(FileFormatError,
                           match=rf"scenario\.sn_placement\.count: {2 ** 62} "
                                 r"nodes leave no slot"):
            scenario_from_config(cfg)

    def test_placement_short_of_n_slots_is_refused_before_drawing(
            self, monkeypatch):
        # memory for one slot of 1000 nodes: 8 slots are refused by the
        # placement itself, before the generator draws 1000 coordinates
        def never(*args, **kwargs):
            raise AssertionError("n_slots should have been refused first")

        per_slot = (channel._PLAN_BYTES_PER_SLOT
                    + channel._PLAN_BYTES_PER_NODE_SLOT * 1000)
        monkeypatch.setattr(channel, "_memory_bytes", lambda: per_slot)
        monkeypatch.setattr(np.random, "default_rng", never)
        cfg = _config(sn_positions_m=None, n_slots=8,
                      sn_placement={"count": 1000, "area_m": [1.0, 1.0],
                                    "seed": 0})
        with pytest.raises(FileFormatError,
                           match=r"scenario\.sn_placement\.count: 1000 nodes "
                                 r"leave no slot past 1 .*n_slots is 8"):
            scenario_from_config(cfg)

    def test_negative_placement_area_is_named(self):
        cfg = _config(sn_positions_m=None,
                      sn_placement={"count": 2, "area_m": [100.0, -1.0],
                                    "seed": 0})
        with pytest.raises(FileFormatError,
                           match=r"scenario\.sn_placement\.area_m: extent "
                                 r"\[100\.0, -1\.0\] is negative"):
            scenario_from_config(cfg)

    def test_wrong_length_power_list_is_refused(self):
        cfg = _config(sn_positions_m=[[150.0, 0.0], [200.0, 50.0]],
                      p_tx_w=[0.1, 0.1, 0.1])
        with pytest.raises(FileFormatError,
                           match=r"scenario: p_tx has 3 values for 2 nodes"):
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

    def test_slot_count_beyond_memory_is_named(self):
        # a hand-edited count the planner could never allocate
        with pytest.raises(FileFormatError,
                           match=r"n_slots=9223372036854775807 exceeds"):
            scenario_from_config(_config(n_slots=2 ** 63 - 1))

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

    def test_overflowing_logistic_rejected(self):
        with pytest.raises(FileFormatError,
                           match=r"model: b1=-800 .* exp\(-b1\) overflows"):
            model_from_json({"b1": -800.0, "b2": 0.0, "c1": 0.0, "c2": 1.0})


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

    @pytest.mark.parametrize("edit, where", [
        (lambda d: d.update(scheme={"x": 1}), r"result\.scheme"),
        (lambda d: d.update(kind=["plan_result"]), r"result\.kind"),
        (lambda d: d.update(extras=[1, 2]), r"result\.extras"),
        (lambda d: d.update(seed=1.5), r"result\.seed"),
        (lambda d: d["rates_exact_bpshz"].pop(), "one entry per slot"),
        (lambda d: d["outage_samples"].__setitem__(0, 0.5),
         r"result\.outage_samples"),
        (lambda d: [d[k].pop() for k in ("owners", "rates_est_bpshz",
                                         "rates_exact_bpshz", "outage_freq",
                                         "outage_samples")],
         r"result\.owners: needs one entry per plan slot"),
        (lambda d: d["plan"]["a"][0].__setitem__(0, "0.5"),
         r"result\.plan\.a"),
        (lambda d: d["model"].update(b2=True), r"result\.model\.b2"),
        (lambda d: d["scenario"].pop("epsilon"), r"result\.scenario\.epsilon"),
        (lambda d: d["owners"].__setitem__(0, 99),
         r"result\.owners: node 99 outside \[-1, 1\)"),
        (lambda d: d["owners"].__setitem__(0, 1),
         r"result\.owners: node 1 outside \[-1, 1\)"),
        (lambda d: d["owners"].__setitem__(0, -2),
         r"result\.owners: -2 is below -1"),
        (lambda d: d["outage_samples"].__setitem__(0, -1),
         r"result\.outage_samples: -1 is below 0"),
        (lambda d: d["rates_est_bpshz"].__setitem__(0, -0.5),
         r"result\.rates_est_bpshz: -0\.5 is below 0"),
        (lambda d: d["rates_exact_bpshz"].__setitem__(0, -0.5),
         r"result\.rates_exact_bpshz: -0\.5 is below 0"),
        (lambda d: d.update(eta_achieved=-0.25),
         r"result\.eta_achieved: -0\.25 is below 0"),
        (lambda d: d.update(trials=-3), r"result\.trials: -3 is below 0"),
        (lambda d: d.update(n_blocks=0), r"result\.n_blocks: 0 is below 1"),
        (lambda d: d.update(seed=-1), r"result\.seed: -1 is below 0"),
    ])
    def test_each_field_is_type_checked_on_load(self, tmp_path, edit, where):
        plan, report, scen = self._small_result()
        doc = json.loads(dump_json(result_to_json(plan, report, scen,
                                                  LOS_MODEL)))
        edit(doc)
        path = tmp_path / "result.json"
        path.write_text(dump_json(doc))
        with pytest.raises(FileFormatError, match=where):
            load_result(path)

    def test_stored_plan_loads(self):
        # the 4-node plan the benchmark evaluates passes every range check
        doc = load_result(_STORED_PLAN)
        assert len(doc["plan"]["a"]) == 4 and max(doc["owners"]) == 3

    def test_loaded_result_carries_the_plan_and_model_it_checked(self):
        # the document is the JSON object itself, and beside it the plan
        # and model its check built, equal to a second parse of the same
        doc = load_result(_STORED_PLAN)
        assert doc == json.loads(_STORED_PLAN.read_text())
        again = plan_from_json(doc["plan"])
        for attr in ("q", "z", "a"):
            assert getattr(doc.plan, attr).tobytes() == \
                getattr(again, attr).tobytes()
        assert doc.model == model_from_json(doc["model"])

    @pytest.mark.parametrize("samples, freq, owner, where", [
        (7, 0.9, None, r"outage_samples\[0\]: 7 is neither 0 nor "
                       r"trials \* n_blocks = 200000"),
        (200000, 0.0, -1, r"outage_samples\[0\]: 200000 drawn for an "
                          r"idle slot"),
        (0, 0.25, None, r"outage_freq\[0\]: 0.25 with no block drawn"),
        (200000, 0.0123456789, None,
         r"outage_freq\[0\]: 0.0123457 is no whole count"),
        (200000, 2469 / 200000, None, None),
    ], ids=["7-blocks", "idle-slot", "freq-undrawn", "fractional", "whole"])
    def test_monte_carlo_counts_must_agree(self, tmp_path, samples, freq,
                                           owner, where):
        # on the stored plan (1e5 trials of 2 blocks): a slot draws every
        # block or none, and its frequency counts whole blocks
        doc = json.loads(_STORED_PLAN.read_text())
        doc["outage_samples"][0] = samples
        doc["outage_freq"][0] = freq
        if owner is not None:
            doc["owners"][0] = owner
        path = tmp_path / "result.json"
        path.write_text(dump_json(doc))
        if where is None:
            assert load_result(path)["outage_samples"][0] == samples
        else:
            with pytest.raises(FileFormatError, match=where):
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


# ---------------------------------------------------------------------------
# non-finite numbers and schema properties
# ---------------------------------------------------------------------------

_DB_KEYS = {"beta0_db", "sigma2_dbm", "gamma_db", "kmin_db", "kmax_db"}


def _finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def scenario_docs(draw):
    """Valid scenario documents in the form the writer produces."""
    nodes = draw(st.lists(st.lists(_finite(-1e3, 1e3), min_size=2,
                                   max_size=2), min_size=1, max_size=4))
    duration = draw(_finite(1.0, 100.0))
    vxy, vz = draw(_finite(0.0, 100.0)), draw(_finite(0.0, 30.0))
    h_min = draw(_finite(1.0, 200.0))
    q0 = [draw(_finite(-1e3, 1e3)), draw(_finite(-1e3, 1e3))]
    reach = 0.99 * vxy * duration * draw(_finite(0.0, 1.0))
    heading = draw(_finite(0.0, 2.0 * math.pi))
    z0 = h_min + draw(_finite(0.0, 100.0))
    kmin_db = draw(_finite(-10.0, 20.0))
    return {
        "sn_positions_m": nodes, "q0_m": q0,
        "qf_m": [q0[0] + reach * math.cos(heading),
                 q0[1] + reach * math.sin(heading)],
        "z0_m": z0, "zf_m": z0 + 0.99 * vz * duration * draw(_finite(0, 1)),
        "duration_s": duration, "n_slots": draw(st.integers(1, 200)),
        "vxy_mps": vxy, "vz_mps": vz, "h_min_m": h_min,
        "p_tx_w": draw(st.lists(_finite(1e-3, 10.0), min_size=len(nodes),
                                max_size=len(nodes))),
        "beta0_db": draw(_finite(-90.0, -30.0)),
        "alpha": draw(_finite(2.0, 6.0)),
        "sigma2_dbm": draw(_finite(-130.0, -80.0)),
        "gamma_db": draw(_finite(0.0, 15.0)),
        "kmin_db": kmin_db, "kmax_db": kmin_db + draw(_finite(0.0, 30.0)),
        "epsilon": draw(_finite(1e-4, 0.1)),
        "n_blocks": draw(st.integers(1, 8)),
    }


@st.composite
def model_docs(draw):
    """Valid model documents, each optional field present or not."""
    c1 = draw(_finite(0.0, 1.0))
    doc = {"b1": draw(_finite(-20.0, 20.0)), "b2": draw(_finite(0.0, 20.0)),
           "c1": c1, "c2": 1.0 - c1}
    optional = {"rmse": _finite(0.0, 1.0), "kmin_db": _finite(-10.0, 20.0),
                "kmax_db": _finite(20.0, 40.0),
                "epsilon": _finite(1e-4, 0.1), "grid": st.integers(2, 1000)}
    for key in draw(st.sets(st.sampled_from(sorted(optional)))):
        doc[key] = draw(optional[key])
    return doc


def _assert_same_document(back, doc):
    # dB fields pass through 10^(x/10) and back, so they match to rounding
    assert back.keys() == doc.keys()
    for key, val in doc.items():
        if key in _DB_KEYS:
            assert back[key] == pytest.approx(val, rel=1e-12, abs=1e-12)
        else:
            assert back[key] == val


def _number_paths(doc, path=()):
    """Path of every number in a document (all its leaves are numbers)."""
    if isinstance(doc, (dict, list)):
        items = doc.items() if isinstance(doc, dict) else enumerate(doc)
        return [p for k, v in items for p in _number_paths(v, path + (k,))]
    return [path]


def _replace(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


class TestSchemaProperties:
    @given(scenario_docs())
    def test_scenario_documents_round_trip(self, doc):
        _assert_same_document(scenario_to_config(scenario_from_config(doc)),
                              doc)

    @given(model_docs())
    def test_model_documents_round_trip(self, doc):
        _assert_same_document(model_to_json(model_from_json(doc)), doc)

    @given(st.data(), _NON_FINITE)
    def test_non_finite_scenario_number_is_rejected(self, data, bad):
        doc = data.draw(scenario_docs())
        path = data.draw(st.sampled_from(_number_paths(doc)))
        _replace(doc, path, bad)
        with pytest.raises(FileFormatError, match=rf"scenario\.{path[0]}"):
            scenario_from_config(doc)

    @given(st.data(), _NON_FINITE)
    def test_non_finite_model_number_is_rejected(self, data, bad):
        doc = data.draw(model_docs())
        key = data.draw(st.sampled_from(sorted(doc)))
        doc[key] = bad
        with pytest.raises(FileFormatError, match=rf"model\.{key}"):
            model_from_json(doc)


class TestNonFiniteFiles:
    @pytest.mark.parametrize("key, text, token", [
        ("duration_s", "NaN", "NaN"), ("q0_m", "[NaN, 0.0]", "NaN"),
        ("vxy_mps", "Infinity", "Infinity"), ("beta0_db", "NaN", "NaN"),
        ("kmin_db", "-Infinity", "-Infinity"), ("kmax_db", "1e999", "1e999"),
    ])
    def test_scenario_file(self, tmp_path, key, text, token):
        path = tmp_path / "scen.json"
        path.write_text(dump_json(_config(**{key: "@"})).replace('"@"', text))
        with pytest.raises(FileFormatError) as err:
            load_scenario(path)
        assert str(err.value) == (f"scenario file {path}: non-finite "
                                  f"number {token}")

    @pytest.mark.parametrize("text", ["100000000000000000000",
                                      "-9223372036854775809"])
    def test_oversized_integer_file(self, tmp_path, text):
        path = tmp_path / "scen.json"
        path.write_text(dump_json(_config(n_slots="@")).replace('"@"', text))
        with pytest.raises(FileFormatError) as err:
            load_scenario(path)
        assert str(err.value) == (f"scenario file {path}: integer {text} "
                                  f"outside int64")

    @pytest.mark.parametrize("key, value", [("n_slots", 10 ** 20),
                                            ("duration_s", 10 ** 400)])
    def test_oversized_number_names_its_field(self, key, value):
        with pytest.raises(FileFormatError,
                           match=rf"scenario\.{key}: number out of range"):
            scenario_from_config(_config(**{key: value}))

    @pytest.mark.parametrize("key", ["kmax_db", "beta0_db", "sigma2_dbm"])
    def test_overflowing_db_field_names_its_field(self, tmp_path, key):
        # 4000 dB is a finite number whose linear value is not
        path = tmp_path / "scen.json"
        path.write_text(dump_json(_config(**{key: 4000.0})))
        with pytest.raises(FileFormatError, match=rf"scenario\.{key}: "
                                                  "number out of range"):
            load_scenario(path)

    def test_overflowing_model_db_field_names_its_field(self, tmp_path):
        doc = model_to_json(LogisticModel(b1=-4.1, b2=5.8, c1=0.2, c2=0.8))
        doc["kmax_db"] = 4000.0
        path = tmp_path / "model.json"
        path.write_text(dump_json(doc))
        with pytest.raises(FileFormatError,
                           match=r"model\.kmax_db: number out of range"):
            load_model(path)

    def test_plan_refuses_an_overflowing_db_field(self, tmp_path, capsys):
        scen, out = tmp_path / "scen.json", tmp_path / "plan.json"
        scen.write_text(dump_json(_config(kmax_db=4000.0)))
        assert cli(["plan", "--scenario", str(scen), "--scheme", "lb",
                    "--out", str(out)]) == 1
        assert "scenario.kmax_db: number out of range" in (
            capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("key", ["b1", "b2"])
    def test_model_file(self, tmp_path, key):
        doc = model_to_json(LogisticModel(b1=-4.1, b2=5.8, c1=0.2, c2=0.8))
        doc[key] = math.nan
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError, match="non-finite number NaN"):
            load_model(path)

    def test_writers_refuse_what_readers_refuse(self):
        with pytest.raises(ValueError):
            dump_json({"x": math.inf})
