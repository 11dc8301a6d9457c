"""uavrice benchmark: one workload per process, driven through the CLI.

    python3 perfbench/run.py --workload plan-rfb-4sn --seed 0 --seconds 40 --trace 0

Each run imports ``uavrice.cli`` from the checkout's ``src``, fits the
fading surrogate (``uavrice fit``) and loads the workload's inputs a few
times (set-up), then repeats the workload's operation -- one
``uavrice plan`` or ``uavrice evaluate`` call, made in-process through
``uavrice.cli.cli`` -- until ``--seconds`` have passed.  Every operation's
output is read back and checked, and its sha256 must repeat within the run
and across runs of the same code, workload and seed.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it alternates untraced and traced operations; the traced ones
wrap each layer's entry points from outside (see ``spans.py``) and give the
per-layer metrics, the untraced ones give the tracing overhead.

The last line of standard output is the result as one JSON object; the line
before it is a JSON record with the environment fingerprint, per-operation
times and hashes.  The benchmark sets no thread-count environment variable:
the BLAS thread count changes the interior-point time by more than 2x on a
2-core machine, so it is recorded instead.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
STORED_PLAN = HERE / "data" / "plan_rfb_4sn.json"
WORK_ROOT = ROOT / ".perfbench_work"

SETUP_ROUNDS = 3
# Seeds other than 0 move each node by at most this much: the input and the
# plan's last digits change, the solver's path does not.  Larger moves
# change the work done, so op_s would compare different work across seeds:
# at 1 m scenario_4sn took 9 to 20 outer iterations instead of 18, and at
# 1 mm some seeds already end on another plan (eta 0.28865, not 0.28846).
JITTER_M = 1e-6

# name -> (operation, bundled scenario)
WORKLOADS = {
    # full 3D design; interior-point solves, exact re-scoring and the LP
    "plan-rfb-4sn": ("plan", "scenario_4sn.json"),
    # the same solver on the one-node corridor, where 11 of 28 solves hit
    # the step cap; about 47 s per operation, so it is not in BENCHMARK.json
    "plan-rfb-1sn": ("plan", "scenario_1sn.json"),
    # Monte-Carlo check of the stored rfb plan; no solver runs
    "evaluate-4sn": ("evaluate", "scenario_4sn.json"),
}

END_TO_END_UNITS = {"setup_s": "s", "op_s": "s", "eta_achieved": "bps/Hz",
                    "peak_rss_mb": "MB"}
# traced-run metrics that are not in spans.LAYER_METRICS
TRACE_UNITS = {"unattributed_s": "s", "files.bytes_written": "B",
               "fading.fit.self_s": "s", "fading.fit.total_s": "s",
               "trace.wall_s": "s", "trace.overhead_s": "s"}


def metric_units(trace):
    """Metric name -> unit, in report order, for a run with ``--trace``."""
    if not trace:
        return dict(END_TO_END_UNITS)
    units = {name: unit for name, unit, _, _ in spans.LAYER_METRICS}
    units.update(TRACE_UNITS)
    return units


class SetupError(Exception):
    """The benchmark cannot run: missing program, broken stored input."""


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _blas_threads():
    """Thread count of every OpenBLAS library mapped into this process."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return {}
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "openblas" in line and line.split()[-1].startswith("/")})
    threads = {}
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[Path(path).name] = fn()
                break
    return threads


def fingerprint(seed):
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ[k] for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                        "MKL_NUM_THREADS") if k in os.environ},
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def code_digest():
    """sha256 of the program source and the stored input: the hash store
    compares outputs only between runs of identical code."""
    h = hashlib.sha256()
    files = [p for p in sorted(SOURCE.rglob("*"))
             if p.is_file() and "__pycache__" not in p.parts]
    for path in files + [STORED_PLAN]:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def workload_scenario(files, name, seed, work):
    """Scenario path for a plan workload: the bundled file for seed 0,
    otherwise a copy with every node moved by at most JITTER_M."""
    bundled = files.bundled_scenario(name)
    if seed == 0:
        return bundled
    with open(bundled) as fh:
        doc = json.load(fh)
    positions = files.load_scenario(bundled).sn_positions
    rng = np.random.default_rng(seed)
    moved = positions + rng.uniform(-JITTER_M, JITTER_M, positions.shape)
    doc.pop("sn_placement", None)
    doc["sn_positions_m"] = moved.tolist()
    path = work / f"scenario_seed{seed}.json"
    files.save_json(path, doc)
    return str(path)


def load_stored_plan(files, scenario):
    """The stored evaluate-4sn input; refuses a plan that no longer loads
    or no longer fits the scenario."""
    try:
        doc = files.load_result(STORED_PLAN)
        plan = files.plan_from_json(doc["plan"])
    except (OSError, ValueError) as exc:
        raise SetupError(f"stored plan {STORED_PLAN.name}: {exc}") from exc
    if plan.a.shape != (scenario.n_sn, scenario.n_slots):
        raise SetupError(f"stored plan {STORED_PLAN.name} has shape "
                         f"{plan.a.shape}; scenario is "
                         f"{(scenario.n_sn, scenario.n_slots)}")
    return doc["eta_achieved"]


def setup_round(cli, files, workload, seed, work):
    """Load the inputs and fit the surrogate for their channel (the
    default 200-point grid); returns the op's argv and what its checks
    need."""
    kind, name = WORKLOADS[workload]
    try:
        if kind == "plan":
            path = workload_scenario(files, name, seed, work)
        else:
            path = files.bundled_scenario(name)
        scenario = files.load_scenario(path)
        eta = load_stored_plan(files, scenario) if kind == "evaluate" \
            else None
    except (OSError, ValueError) as exc:
        raise SetupError(f"inputs of {workload}: {exc}") from exc

    channel = files.scenario_to_config(scenario)
    model = work / "model.json"
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.cli(["fit", "--kmin-db", repr(channel["kmin_db"]),
                          "--kmax-db", repr(channel["kmax_db"]),
                          "--eps", repr(channel["epsilon"]),
                          "--out", str(model)])
    if status != 0:
        raise SetupError(f"uavrice fit exited with {status}")

    out = work / "result.json"
    if kind == "plan":
        argv = ["plan", "--scenario", path, "--model", str(model),
                "--scheme", "rfb", "--out", str(out)]
    else:
        argv = ["evaluate", "--scenario", path, "--plan", str(STORED_PLAN),
                "--seed", str(seed), "--out", str(out)]
    return argv, out, scenario, eta


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def run_op(cli, argv, tracer=None):
    """One CLI call; returns (exit status, wall seconds)."""
    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        if tracer is None:
            status = cli.cli(argv)
        else:
            with tracer.span("cli"):
                status = cli.cli(argv)
    return status, time.perf_counter() - start


def op_problems(files, kind, status, out, scenario, eta):
    if status != 0:
        return [f"exit status {status}"]
    if kind == "plan":
        return checks.check_plan_result(files, out, scenario)
    return checks.check_evaluation_result(files, out, scenario, eta)


def check_hashes(ops, key, path=WORK_ROOT / "hashes.json"):
    """Every op's result hash must equal the first one's, and the hash that
    earlier runs stored under ``key``; the first run stores it."""
    hashes = [op["sha256"] for op in ops if "sha256" in op]
    if not hashes:
        return
    try:
        store = json.loads(path.read_text())
    except (OSError, ValueError):
        store = {}
    if key not in store:
        store[key] = hashes[0]
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
        os.replace(tmp, path)
    expected = store[key]
    for op in ops:
        if op.get("sha256", expected) != expected:
            op["problems"].append(
                f"sha256 {op['sha256'][:12]} differs from {expected[:12]} "
                f"for the same code, workload and seed")


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_program():
    """uavrice.cli and uavrice.files from this checkout's source tree."""
    sys.path.insert(0, str(SOURCE))
    try:
        cli = importlib.import_module("uavrice.cli")
        files = importlib.import_module("uavrice.files")
    except ImportError as exc:
        raise SetupError(f"cannot import uavrice from {SOURCE}: {exc}") \
            from exc
    if not Path(cli.__file__).resolve().is_relative_to(SOURCE):
        raise SetupError(f"uavrice was imported from {cli.__file__}, "
                         f"not from {SOURCE}")
    return cli, files


def run(args, work, cli, files, import_s):
    kind = WORKLOADS[args.workload][0]

    tracer = spans.Tracer() if args.trace else None
    setup_times, fit_self, fit_total = [], [], []
    for _ in range(SETUP_ROUNDS):
        with tracer.active() if tracer else contextlib.nullcontext():
            start = time.perf_counter()
            argv, out, scenario, eta_expected = setup_round(
                cli, files, args.workload, args.seed, work)
            setup_times.append(time.perf_counter() - start)
        if tracer:
            fit_self.append(tracer.self_s["fading.fit"])
            fit_total.append(tracer.total_s["fading.fit"])
    env = fingerprint(args.seed)

    ops = []
    start = time.perf_counter()
    while True:
        traced = bool(tracer) and len(ops) % 2 == 1
        if traced:
            with tracer.active():
                status, wall = run_op(cli, argv, tracer)
        else:
            status, wall = run_op(cli, argv)
        op = {"traced": traced, "wall_s": wall, "status": status,
              "problems": op_problems(files, kind, status, out, scenario,
                                      eta_expected)}
        if out.exists():
            data = out.read_bytes()
            out.unlink()
            op["sha256"] = hashlib.sha256(data).hexdigest()
            op["bytes"] = len(data)
            try:
                op["eta_achieved"] = float(json.loads(data)["eta_achieved"])
            except (ValueError, KeyError, TypeError):
                pass
        if traced:
            op["layers"] = spans.layer_values(tracer, wall)
        ops.append(op)
        done = time.perf_counter() - start >= args.seconds
        if done and (not tracer or len(ops) >= 2):
            break

    check_hashes(ops, f"{args.workload} seed={args.seed} "
                      f"code={code_digest()}")
    failed = sum(1 for op in ops if op["problems"])

    untraced = [op["wall_s"] for op in ops if not op["traced"]]
    traced_ops = [op for op in ops if op["traced"]]
    etas = [op["eta_achieved"] for op in ops if "eta_achieved" in op]
    if tracer:
        values = {name: median([op["layers"][name] for op in traced_ops])
                  for name in traced_ops[0]["layers"]}
        traced_wall = median([op["wall_s"] for op in traced_ops])
        values.update({
            "files.bytes_written": median([op.get("bytes", 0)
                                           for op in traced_ops]),
            "fading.fit.self_s": median(fit_self),
            "fading.fit.total_s": median(fit_total),
            "trace.wall_s": traced_wall,
            "trace.overhead_s": traced_wall - median(untraced),
        })
        missing = tracer.missing_spans()
        absent = {name: missing[span] for name, _, span, _ in
                  spans.LAYER_METRICS if span in missing}
    else:
        values = {
            "setup_s": import_s + median(setup_times),
            "op_s": median(untraced),
            "eta_achieved": etas[0] if etas else 0.0,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        absent = {}
    metrics = {name: (values[name], unit)
               for name, unit in metric_units(args.trace).items()}

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": env, "import_s": import_s, "setup_round_s":
        setup_times, "ops": ops, "absent": absent,
        "absent_sites": tracer.absent if tracer else {},
    }
    return record, metrics, failed


def report(record, metrics, failed):
    ops = record["ops"]
    env = record["environment"]
    print(f"perfbench {record['workload']} seed={record['seed']} "
          f"trace={record['trace']}")
    print(f"  python {env['python']}, numpy {env['numpy']}, scipy "
          f"{env['scipy']}, numba {'yes' if env['numba_importable'] else 'no'}"
          f", {env['blas']}, BLAS threads {env['blas_threads']}, "
          f"nproc {env['nproc']}")
    n_timed = sum(1 for op in ops if op["traced"] == bool(record["trace"]))
    for name, (value, unit) in metrics.items():
        note = ""
        if name in ("op_s", "trace.wall_s"):
            note = f"  (median of {n_timed} ops)"
        if name in record["absent"]:
            note = f"  absent: {record['absent'][name]}"
        print(f"  {name:34s} {value:14.6g} {unit}{note}")
    for i, op in enumerate(ops):
        for problem in op["problems"]:
            print(f"  op {i}: FAILED: {problem}")
    print(f"  {len(ops) - failed}/{len(ops)} ops correct")
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        cli, files = import_program()
        import_s = time.perf_counter() - PROCESS_START
        WORK_ROOT.mkdir(exist_ok=True)
        work = Path(tempfile.mkdtemp(dir=WORK_ROOT, prefix="run-"))
        try:
            record, metrics, failed = run(args, work, cli, files, import_s)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    report(record, metrics, failed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
