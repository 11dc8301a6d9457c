"""Scenario/model/result files and trajectory CSV output.

Scenario files keep channel quantities in their customary dB units and
geometry in SI; conversion to linear units happens exactly once, at load.
All writers are atomic (temp file + rename in the target directory), so a
failing run never leaves a partial output behind, and serialization is
canonical (sorted keys, repr-shortest floats) so identical inputs give
byte-identical files.
"""

import json
import math
import os
import tempfile
from importlib import resources

import numpy as np

from .channel import Scenario
from .fading import LogisticModel
from .planner import Plan


class FileFormatError(ValueError):
    """Schema violation in a scenario/model/result document."""


def db_to_linear(db):
    return 10.0 ** (float(db) / 10.0)


def linear_to_db(x):
    return 10.0 * math.log10(float(x))


def dbm_to_watt(dbm):
    return 10.0 ** (float(dbm) / 10.0) / 1000.0


def watt_to_dbm(w):
    return 10.0 * math.log10(float(w) * 1000.0)


# ---------------------------------------------------------------------------
# atomic, canonical writers
# ---------------------------------------------------------------------------

def save_text(path, text):
    """Write text atomically: the file appears complete or not at all."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".uavrice-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def dump_json(obj):
    """Canonical JSON text: sorted keys, two-space indent, trailing newline."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def save_json(path, obj):
    save_text(path, dump_json(obj))


def _load_json(path, what):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise FileFormatError(f"{what} file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{what} file {path}: invalid JSON "
                              f"({exc})") from exc
    if not isinstance(doc, dict):
        raise FileFormatError(f"{what}: top level must be a JSON object")
    return doc


# ---------------------------------------------------------------------------
# schema helpers
# ---------------------------------------------------------------------------

def _want_number(doc, path, key, minimum=None):
    val = doc[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise FileFormatError(f"{path}.{key}: expected a number")
    val = float(val)
    if minimum is not None and val < minimum:
        raise FileFormatError(f"{path}.{key}: must be >= {minimum}")
    return val


def _want_int(doc, path, key, minimum=None):
    val = doc[key]
    if isinstance(val, bool) or not isinstance(val, int):
        raise FileFormatError(f"{path}.{key}: expected an integer")
    if minimum is not None and val < minimum:
        raise FileFormatError(f"{path}.{key}: must be >= {minimum}")
    return int(val)


def _want_pair(doc, path, key):
    val = doc[key]
    if (not isinstance(val, list) or len(val) != 2
            or any(isinstance(v, bool) or not isinstance(v, (int, float))
                   for v in val)):
        raise FileFormatError(f"{path}.{key}: expected [x, y] numbers")
    return [float(v) for v in val]


def _check_fields(doc, path, required, optional=()):
    for key in doc:
        if key not in required and key not in optional:
            raise FileFormatError(f"{path}.{key}: unknown field")
    for key in required:
        if key not in doc:
            raise FileFormatError(f"{path}.{key}: missing required field")


# ---------------------------------------------------------------------------
# scenario documents
# ---------------------------------------------------------------------------

_SCENARIO_REQUIRED = (
    "q0_m", "qf_m", "z0_m", "zf_m", "duration_s", "n_slots", "vxy_mps",
    "vz_mps", "h_min_m", "p_tx_w", "beta0_db", "alpha", "sigma2_dbm",
    "gamma_db", "kmin_db", "kmax_db", "epsilon",
)
_SCENARIO_OPTIONAL = ("sn_positions_m", "sn_placement", "n_blocks")


def scenario_from_config(doc):
    """Validate a scenario document and build the in-memory Scenario."""
    _check_fields(doc, "scenario", _SCENARIO_REQUIRED, _SCENARIO_OPTIONAL)

    has_pos = "sn_positions_m" in doc
    has_gen = "sn_placement" in doc
    if has_pos == has_gen:
        raise FileFormatError(
            "scenario: exactly one of sn_positions_m and sn_placement "
            "is required")
    if has_pos:
        raw = doc["sn_positions_m"]
        if not isinstance(raw, list) or not raw:
            raise FileFormatError(
                "scenario.sn_positions_m: expected a non-empty list of "
                "[x, y] pairs")
        positions = [_want_pair({"p": p}, "scenario.sn_positions_m", "p")
                     for p in raw]
    else:
        gen = doc["sn_placement"]
        if not isinstance(gen, dict):
            raise FileFormatError("scenario.sn_placement: expected an object")
        _check_fields(gen, "scenario.sn_placement",
                      ("count", "area_m", "seed"))
        count = _want_int(gen, "scenario.sn_placement", "count", minimum=1)
        area = _want_pair(gen, "scenario.sn_placement", "area_m")
        seed = _want_int(gen, "scenario.sn_placement", "seed", minimum=0)
        rng = np.random.default_rng(seed)
        positions = rng.uniform([0.0, 0.0], area, (count, 2)).tolist()

    kmin_db = _want_number(doc, "scenario", "kmin_db")
    kmax_db = _want_number(doc, "scenario", "kmax_db")
    if kmin_db > kmax_db:
        raise FileFormatError("scenario.kmin_db: must not exceed kmax_db")

    p_tx = doc["p_tx_w"]
    if isinstance(p_tx, list):
        p_tx = [_want_number({"p": p}, "scenario.p_tx_w", "p") for p in p_tx]
    else:
        p_tx = _want_number(doc, "scenario", "p_tx_w")

    try:
        return Scenario(
            sn_positions=positions,
            q0=_want_pair(doc, "scenario", "q0_m"),
            qf=_want_pair(doc, "scenario", "qf_m"),
            z0=_want_number(doc, "scenario", "z0_m"),
            zf=_want_number(doc, "scenario", "zf_m"),
            duration_s=_want_number(doc, "scenario", "duration_s"),
            n_slots=_want_int(doc, "scenario", "n_slots", minimum=1),
            vxy=_want_number(doc, "scenario", "vxy_mps", minimum=0.0),
            vz=_want_number(doc, "scenario", "vz_mps", minimum=0.0),
            h_min=_want_number(doc, "scenario", "h_min_m"),
            p_tx=p_tx,
            beta0=db_to_linear(_want_number(doc, "scenario", "beta0_db")),
            alpha=_want_number(doc, "scenario", "alpha"),
            sigma2=dbm_to_watt(_want_number(doc, "scenario", "sigma2_dbm")),
            snr_gap=db_to_linear(_want_number(doc, "scenario", "gamma_db")),
            k_min=db_to_linear(kmin_db),
            k_max=db_to_linear(kmax_db),
            epsilon=_want_number(doc, "scenario", "epsilon"),
            n_blocks=_want_int(doc, "scenario", "n_blocks", minimum=1)
            if "n_blocks" in doc else 2,
        )
    except ValueError as exc:
        if isinstance(exc, FileFormatError):
            raise
        raise FileFormatError(f"scenario: {exc}") from exc


def load_scenario(path):
    return scenario_from_config(_load_json(path, "scenario"))


def scenario_to_config(scenario):
    """Resolved scenario document (placement expanded to coordinates)."""
    return {
        "sn_positions_m": scenario.sn_positions.tolist(),
        "q0_m": scenario.q0.tolist(),
        "qf_m": scenario.qf.tolist(),
        "z0_m": scenario.z0,
        "zf_m": scenario.zf,
        "duration_s": scenario.duration_s,
        "n_slots": scenario.n_slots,
        "vxy_mps": scenario.vxy,
        "vz_mps": scenario.vz,
        "h_min_m": scenario.h_min,
        "p_tx_w": scenario.p_tx.tolist(),
        "beta0_db": linear_to_db(scenario.beta0),
        "alpha": scenario.alpha,
        "sigma2_dbm": watt_to_dbm(scenario.sigma2),
        "gamma_db": linear_to_db(scenario.snr_gap),
        "kmin_db": linear_to_db(scenario.k_min),
        "kmax_db": linear_to_db(scenario.k_max),
        "epsilon": scenario.epsilon,
        "n_blocks": scenario.n_blocks,
    }


def bundled_scenario(name):
    """Filesystem path of a scenario document shipped with the package."""
    return str(resources.files("uavrice.data").joinpath(name))


# ---------------------------------------------------------------------------
# fitted-model documents
# ---------------------------------------------------------------------------

_MODEL_REQUIRED = ("b1", "b2", "c1", "c2")
_MODEL_OPTIONAL = ("rmse", "kmin_db", "kmax_db", "epsilon", "grid")


def model_to_json(model):
    out = {"b1": model.b1, "b2": model.b2, "c1": model.c1, "c2": model.c2}
    if model.rmse is not None:
        out["rmse"] = model.rmse
    if model.k_min is not None:
        out["kmin_db"] = linear_to_db(model.k_min)
    if model.k_max is not None:
        out["kmax_db"] = linear_to_db(model.k_max)
    if model.epsilon is not None:
        out["epsilon"] = model.epsilon
    if model.grid is not None:
        out["grid"] = model.grid
    return out


def model_from_json(doc):
    _check_fields(doc, "model", _MODEL_REQUIRED, _MODEL_OPTIONAL)
    kwargs = {k: _want_number(doc, "model", k) for k in _MODEL_REQUIRED}
    if "rmse" in doc:
        kwargs["rmse"] = _want_number(doc, "model", "rmse")
    if "kmin_db" in doc:
        kwargs["k_min"] = db_to_linear(_want_number(doc, "model", "kmin_db"))
    if "kmax_db" in doc:
        kwargs["k_max"] = db_to_linear(_want_number(doc, "model", "kmax_db"))
    if "epsilon" in doc:
        kwargs["epsilon"] = _want_number(doc, "model", "epsilon")
    if "grid" in doc:
        kwargs["grid"] = _want_int(doc, "model", "grid")
    try:
        return LogisticModel(**kwargs)
    except ValueError as exc:
        raise FileFormatError(f"model: {exc}") from exc


def save_model(path, model):
    save_json(path, model_to_json(model))


def load_model(path):
    return model_from_json(_load_json(path, "model"))


# ---------------------------------------------------------------------------
# result documents (plan + evaluation report)
# ---------------------------------------------------------------------------

_RESULT_REQUIRED = (
    "kind", "scheme", "seed", "trials", "n_blocks", "eta_estimated",
    "eta_achieved", "owners", "rates_est_bpshz", "rates_exact_bpshz",
    "outage_freq", "outage_samples", "extras", "plan", "model", "scenario",
)


def result_to_json(plan, report, scenario, model, kind="plan_result"):
    """Full result document: objectives, schedule, plan geometry, and the
    resolved configuration that produced them (audit trail)."""
    return {
        "kind": kind,
        "scheme": report.scheme,
        "seed": report.seed,
        "trials": report.trials,
        "n_blocks": report.n_blocks,
        "eta_estimated": report.eta_estimated,
        "eta_achieved": report.eta_achieved,
        "owners": report.owners.tolist(),
        "rates_est_bpshz": report.rates_est.tolist(),
        "rates_exact_bpshz": report.rates_exact.tolist(),
        "outage_freq": report.outage_freq.tolist(),
        "outage_samples": report.outage_samples.tolist(),
        "extras": report.extras,
        "plan": {"q_m": plan.q.tolist(), "z_m": plan.z.tolist(),
                 "a": plan.a.tolist()},
        "model": model_to_json(model),
        "scenario": scenario_to_config(scenario),
    }


def load_result(path):
    doc = _load_json(path, "result")
    _check_fields(doc, "result", _RESULT_REQUIRED)
    if doc["kind"] not in ("plan_result", "evaluation"):
        raise FileFormatError(f"result.kind: unknown kind {doc['kind']!r}")
    return doc


def plan_from_json(doc):
    _check_fields(doc, "result.plan", ("q_m", "z_m", "a"))
    try:
        return Plan(q=np.asarray(doc["q_m"], dtype=float),
                    z=np.asarray(doc["z_m"], dtype=float),
                    a=np.asarray(doc["a"], dtype=float))
    except (TypeError, ValueError) as exc:
        raise FileFormatError(f"result.plan: {exc}") from exc


# ---------------------------------------------------------------------------
# trajectory CSV
# ---------------------------------------------------------------------------

CSV_HEADER = "slot,t_s,x_m,y_m,z_m,sn,a,rate_est_bpshz,rate_exact_bpshz"


def trajectory_csv(plan, report, scenario):
    """One row per slot: position flown, committed owner (-1 = idle), the
    owner's activity fraction, and its model/exact rates."""
    delta = scenario.delta_s
    lines = [CSV_HEADER]
    for m in range(1, scenario.n_slots + 1):
        owner = int(report.owners[m - 1])
        activity = float(plan.a[owner, m - 1]) if owner >= 0 else 0.0
        lines.append(",".join([
            str(m),
            repr(m * delta),
            repr(float(plan.q[m, 0])),
            repr(float(plan.q[m, 1])),
            repr(float(plan.z[m])),
            str(owner),
            repr(activity),
            repr(float(report.rates_est[m - 1])),
            repr(float(report.rates_exact[m - 1])),
        ]))
    return "\n".join(lines) + "\n"


def write_outputs(plan, report, scenario, model, result_path=None,
                  traj_path=None, kind="plan_result"):
    """Render every requested file first, then write each atomically."""
    rendered = []
    if result_path is not None:
        rendered.append((result_path,
                         dump_json(result_to_json(plan, report, scenario,
                                                  model, kind=kind))))
    if traj_path is not None:
        rendered.append((traj_path, trajectory_csv(plan, report, scenario)))
    for path, text in rendered:
        save_text(path, text)
