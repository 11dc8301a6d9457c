"""Scenario/model/result files and trajectory CSV output.

Each document has one field table (key, attribute, reader, unit conversion
both ways) from which its loader, writer and key lists derive.  Channel
quantities keep their customary dB units in files and become linear once,
at load.  No document may hold NaN or an infinity.  All writers are atomic
(temp file + rename), and serialization is canonical (sorted keys,
repr-shortest floats), so identical inputs give byte-identical files.
"""

import json
import math
import os
import tempfile
from dataclasses import fields
from functools import partial
from importlib import resources
from typing import Callable, NamedTuple

import numpy as np

from .channel import Scenario, max_slots
from .evaluation import SCHEMES, EvalReport
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


_INT64 = range(-2 ** 63, 2 ** 63)


def _load_json(path, what):
    """Parse a document, refusing NaN, Infinity, overflowing literals and
    integers outside int64."""
    def finite(token):
        val = float(token)
        if not math.isfinite(val):
            raise FileFormatError(f"{what} file {path}: non-finite number "
                                  f"{token}")
        return val

    def int64(token):
        val = int(token)
        if val not in _INT64:
            raise FileFormatError(f"{what} file {path}: integer {token} "
                                  f"outside int64")
        return val
    try:
        with open(path) as fh:
            return json.load(fh, parse_float=finite, parse_constant=finite,
                             parse_int=int64)
    except OSError as exc:
        raise FileFormatError(f"{what} file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{what} file {path}: invalid JSON "
                              f"({exc})") from exc


# ---------------------------------------------------------------------------
# field readers (a JSON value and its dotted path) and field tables
# ---------------------------------------------------------------------------

def _object(val, path):
    if not isinstance(val, dict):
        raise FileFormatError(f"{path}: expected an object")
    return val


def _choice(val, path, options):
    if val not in options:
        raise FileFormatError(f"{path}: {val!r} is not one of {options}")
    return val


def _array(val, path, ndim, integer=False):
    """ndim-deep lists of finite numbers (or integers) as an array or, for
    ndim = 0, a Python number."""
    kind = int if integer else (int, float)
    arr = np.array(val, dtype=object)
    try:
        ok = arr.ndim == ndim and all(
            isinstance(v, kind) and not isinstance(v, bool)
            and math.isfinite(v) for v in arr.flat)
        if ok:
            arr = arr.astype(np.int64 if integer else float)
    except OverflowError as exc:
        raise FileFormatError(f"{path}: number out of range ({exc})") from exc
    if not ok:
        what = "integer" if integer else "finite number"
        raise FileFormatError(f"{path}: expected {'list[' * ndim}{what}"
                              f"{']' * ndim}")
    return arr if ndim else arr.item()


_number = partial(_array, ndim=0)
_int = partial(_array, ndim=0, integer=True)
_vector = partial(_array, ndim=1)
_matrix = partial(_array, ndim=2)
_counts = partial(_array, ndim=1, integer=True)


def _pair(val, path):
    if not isinstance(val, list) or len(val) != 2:
        raise FileFormatError(f"{path}: expected [x, y] numbers")
    return _vector(val, path)


def _power(val, path):
    """Transmit power: one value for every node, or a list of them."""
    return _vector(val, path) if isinstance(val, list) else _number(val, path)


def _same(x):
    return x


def _plain(x):
    return x.tolist() if isinstance(x, np.ndarray) else x


class _Field(NamedTuple):
    """A document key, the attribute it fills, its JSON reader and its units
    (into the attribute, back into the document; no writer: only read)."""

    key: str
    attr: str
    read: Callable
    unit: tuple = (_same, _plain)
    required: bool = True


def _read(table, doc, path):
    """{attribute: value} of every field present, after checking the keys."""
    for key in _object(doc, path):
        if key not in {f.key for f in table}:
            raise FileFormatError(f"{path}.{key}: unknown field")
    for f in table:
        if f.required and f.key not in doc:
            raise FileFormatError(f"{path}.{f.key}: missing required field")
    return {f.attr: _value(f, doc[f.key], f"{path}.{f.key}")
            for f in table if f.key in doc}


def _value(f, val, path):
    """One field read and converted into its attribute's units."""
    try:
        return f.unit[0](f.read(val, path))
    except OverflowError as exc:
        raise FileFormatError(f"{path}: number out of range in its units "
                              f"({exc})") from exc


def _write(table, values):
    """Document of every field that has a writer and a value."""
    return {f.key: f.unit[1](values[f.attr]) for f in table
            if f.unit[1] is not None and values[f.attr] is not None}


def _build(cls, values, path):
    try:
        return cls(**values)
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# scenario documents
# ---------------------------------------------------------------------------

_PLACEMENT = (
    _Field("count", "count", _int),
    _Field("area_m", "area", _pair),
    _Field("seed", "seed", _int),
)


def _placement(val, path, n_slots):
    """Node coordinates drawn uniformly over [0, area_m] from the seed, once
    n_slots slots (at least one) of that many nodes fit in memory."""
    gen = _read(_PLACEMENT, val, path)
    if gen["count"] < 1 or gen["seed"] < 0:
        raise FileFormatError(f"{path}: count must be >= 1 and seed >= 0")
    if gen["area"].min() < 0.0:
        raise FileFormatError(f"{path}.area_m: extent "
                              f"{gen['area'].tolist()} is negative")
    room = max_slots(gen["count"])
    if max(n_slots, 1) > room:
        raise FileFormatError(f"{path}.count: {gen['count']} nodes leave no "
                              f"slot past {room} whose planning arrays fit "
                              f"in this machine's memory; n_slots is "
                              f"{n_slots}")
    rng = np.random.default_rng(gen["seed"])
    return rng.uniform([0.0, 0.0], gen["area"], (gen["count"], 2))


_SCENARIO = (
    _Field("sn_positions_m", "sn_positions", _matrix, required=False),
    # drawn by scenario_from_config once n_slots is read
    _Field("sn_placement", "sn_positions", _object, (_same, None), False),
    _Field("q0_m", "q0", _pair),
    _Field("qf_m", "qf", _pair),
    _Field("z0_m", "z0", _number),
    _Field("zf_m", "zf", _number),
    _Field("duration_s", "duration_s", _number),
    _Field("n_slots", "n_slots", _int),
    _Field("vxy_mps", "vxy", _number),
    _Field("vz_mps", "vz", _number),
    _Field("h_min_m", "h_min", _number),
    _Field("p_tx_w", "p_tx", _power),
    _Field("beta0_db", "beta0", _number, (db_to_linear, linear_to_db)),
    _Field("alpha", "alpha", _number),
    _Field("sigma2_dbm", "sigma2", _number, (dbm_to_watt, watt_to_dbm)),
    _Field("gamma_db", "snr_gap", _number, (db_to_linear, linear_to_db)),
    _Field("kmin_db", "k_min", _number, (db_to_linear, linear_to_db)),
    _Field("kmax_db", "k_max", _number, (db_to_linear, linear_to_db)),
    _Field("epsilon", "epsilon", _number),
    _Field("n_blocks", "n_blocks", _int, required=False),
)


def scenario_from_config(doc, path="scenario"):
    """Validate a scenario document and build the in-memory Scenario."""
    if ("sn_positions_m" in _object(doc, path)) == ("sn_placement" in doc):
        raise FileFormatError(f"{path}: exactly one of sn_positions_m and "
                              f"sn_placement is required")
    values = _read(_SCENARIO, doc, path)
    if "sn_placement" in doc:
        values["sn_positions"] = _placement(
            doc["sn_placement"], f"{path}.sn_placement", values["n_slots"])
    if values["k_min"] > values["k_max"]:
        raise FileFormatError(f"{path}.kmin_db: must not exceed kmax_db")
    return _build(Scenario, values, path)


def load_scenario(path):
    return scenario_from_config(_load_json(path, "scenario"))


def scenario_to_config(scenario):
    """Resolved scenario document (placement expanded to coordinates)."""
    return _write(_SCENARIO, vars(scenario))


def bundled_scenario(name):
    """Filesystem path of a scenario document shipped with the package."""
    return str(resources.files("uavrice.data").joinpath(name))


# ---------------------------------------------------------------------------
# fitted-model documents
# ---------------------------------------------------------------------------

_MODEL = (
    _Field("b1", "b1", _number),
    _Field("b2", "b2", _number),
    _Field("c1", "c1", _number),
    _Field("c2", "c2", _number),
    _Field("rmse", "rmse", _number, required=False),
    _Field("kmin_db", "k_min", _number, (db_to_linear, linear_to_db), False),
    _Field("kmax_db", "k_max", _number, (db_to_linear, linear_to_db), False),
    _Field("epsilon", "epsilon", _number, required=False),
    _Field("grid", "grid", _int, required=False),
)


def model_to_json(model):
    return _write(_MODEL, vars(model))


def model_from_json(doc, path="model"):
    return _build(LogisticModel, _read(_MODEL, doc, path), path)


def save_model(path, model):
    save_json(path, model_to_json(model))


def load_model(path):
    return model_from_json(_load_json(path, "model"))


# ---------------------------------------------------------------------------
# result documents (plan + evaluation report)
# ---------------------------------------------------------------------------

_PLAN = (
    _Field("q_m", "q", _matrix),
    _Field("z_m", "z", _vector),
    _Field("a", "a", _matrix),
)


def plan_from_json(doc, path="result.plan"):
    return _build(Plan, _read(_PLAN, doc, path), path)


_RESULT = (
    _Field("kind", "kind", partial(_choice,
                                   options=("plan_result", "evaluation"))),
    _Field("scheme", "scheme", partial(_choice, options=SCHEMES)),
    _Field("seed", "seed", _int),
    _Field("trials", "trials", _int),
    _Field("n_blocks", "n_blocks", _int),
    _Field("eta_estimated", "eta_estimated", _number),
    _Field("eta_achieved", "eta_achieved", _number),
    _Field("owners", "owners", _counts),
    _Field("rates_est_bpshz", "rates_est", _vector),
    _Field("rates_exact_bpshz", "rates_exact", _vector),
    _Field("outage_freq", "outage_freq", _vector),
    _Field("outage_samples", "outage_samples", _counts),
    _Field("extras", "extras", _object),
    _Field("plan", "plan", plan_from_json,
           (_same, lambda plan: _write(_PLAN, vars(plan)))),
    _Field("model", "model", model_from_json, (_same, model_to_json)),
    _Field("scenario", "scenario", scenario_from_config,
           (_same, scenario_to_config)),
)


def result_to_json(plan, report, scenario, model, kind="plan_result"):
    """Full result document: objectives, schedule, plan geometry, and the
    resolved configuration that produced them (audit trail)."""
    return _write(_RESULT, dict(vars(report), kind=kind, plan=plan,
                                model=model, scenario=scenario))


# the smallest value each ranged field of a result document may hold
_RESULT_MIN = {"seed": 0, "trials": 0, "n_blocks": 1, "eta_estimated": 0.0,
               "eta_achieved": 0.0, "owners": -1, "rates_est_bpshz": 0.0,
               "rates_exact_bpshz": 0.0, "outage_samples": 0}


def load_result(path):
    """Check every field of a result document and its range; returns the
    document."""
    doc = _load_json(path, "result")
    values = _read(_RESULT, doc, "result")
    report = _build(EvalReport, {f.name: values[f.name]
                                 for f in fields(EvalReport)}, "result")
    n_sn, n_slots = values["plan"].a.shape
    if report.owners.size != n_slots:
        raise FileFormatError("result.owners: needs one entry per plan slot")
    for key, low in _RESULT_MIN.items():
        worst = np.min(doc[key], initial=low)
        if worst < low:
            raise FileFormatError(f"result.{key}: {worst:g} is below {low}")
    if np.max(report.owners, initial=-1) >= n_sn:
        raise FileFormatError(f"result.owners: node {report.owners.max()} "
                              f"outside [-1, {n_sn})")
    _check_outage_counts(report)
    return doc


def _check_outage_counts(report):
    """FileFormatError unless the Monte-Carlo columns agree: a slot draws
    trials * n_blocks fading blocks when simulated and scheduled, none
    otherwise, and its frequency is a whole count of the blocks drawn."""
    drawn = report.trials * report.n_blocks
    samples, freq = report.outage_samples, report.outage_freq
    for bad, what in (
            ((samples != 0) & (samples != drawn),
             f"is neither 0 nor trials * n_blocks = {drawn}"),
            ((samples != 0) & (report.owners < 0), "drawn for an idle slot")):
        if bad.any():
            m = int(np.flatnonzero(bad)[0])
            raise FileFormatError(f"result.outage_samples[{m}]: "
                                  f"{samples[m]} {what}")
    count = freq * samples
    for bad, what in (
            ((samples == 0) & (freq != 0.0), "with no block drawn"),
            (np.abs(count - np.round(count)) > 1e-12 * samples,
             "is no whole count of the blocks drawn")):
        if bad.any():
            m = int(np.flatnonzero(bad)[0])
            raise FileFormatError(f"result.outage_freq[{m}]: {freq[m]:g} "
                                  f"{what}")


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
