"""Per-layer spans recorded from outside the program.

The traced run replaces each layer's public entry point, at the module
where its caller looks the name up, with a wrapper that opens a span and
updates counters from the call's result.  Wrapping ``uavrice.solvers``
alone would see nothing: ``planner`` imported ``maximize_concave_program``
and ``solve_lp`` by name, so those are the names its callers use.

A span's self time is its duration minus the durations of the spans it
directly caused.  Calls are sequential, so direct children never overlap,
and the self times of all spans add up to the duration of the root span.
"""

import functools
import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np


def _ipm(counts, args, result):
    counts["solvers.ipm.newton_steps"] += result.iterations
    counts["solvers.ipm.capped"] += result.status != "optimal"


def _lp(counts, args, result):
    counts["solvers.lp.pivots"] += result.iterations
    counts["solvers.lp.not_optimal"] += result.status != "optimal"


def _bcd(counts, args, result):
    counts["planner.bcd.outer_iters"] += result[1]["iterations"]


def _skipped(key):
    def count(counts, args, result):
        counts[key] += result is None
    return count


def _quantiles(counts, args, result):
    counts["fading.quantile.count"] += np.size(args[0])


def _mc(counts, args, result):
    counts["evaluation.mc.blocks"] += int(np.sum(result[1]))


# (span name, "module:attribute" sites where callers look the name up,
#  counter update applied to (counts, positional args, result))
SITES = (
    ("evaluation.run_scheme", ("uavrice.cli:run_scheme",), None),
    ("evaluation.evaluate_plan", ("uavrice.cli:evaluate_plan",
                                  "uavrice.evaluation:evaluate_plan"), None),
    ("evaluation.best_cruise_start",
     ("uavrice.evaluation:best_cruise_start",), None),
    ("planner.bcd", ("uavrice.evaluation:run_bcd",), _bcd),
    ("planner.horizontal", ("uavrice.planner:solve_horizontal",),
     _skipped("planner.horizontal.skipped")),
    ("planner.vertical", ("uavrice.planner:solve_vertical",),
     _skipped("planner.vertical.skipped")),
    ("planner.scheduling", ("uavrice.planner:solve_scheduling",
                            "uavrice.evaluation:solve_scheduling"), None),
    ("planner.round_schedule", ("uavrice.evaluation:round_schedule",), None),
    ("planner.predicted_rates", ("uavrice.planner:predicted_rates",
                                 "uavrice.evaluation:predicted_rates"), None),
    ("solvers.ipm", ("uavrice.planner:maximize_concave_program",), _ipm),
    ("solvers.lp", ("uavrice.planner:solve_lp",), _lp),
    ("fading.quantile", ("uavrice.evaluation:exact_effective_power",
                         "uavrice.fading:exact_effective_power"), _quantiles),
    ("fading.fit", ("uavrice.cli:generate_regression_samples",
                    "uavrice.cli:fit_logistic"), None),
    ("evaluation.exact_rates", ("uavrice.evaluation:exact_rates",), None),
    ("evaluation.mc", ("uavrice.evaluation:monte_carlo_outage",), _mc),
    ("channel.sample_rician", ("uavrice.evaluation:sample_rician",), None),
    ("files.load", ("uavrice.cli:load_scenario", "uavrice.cli:load_result",
                    "uavrice.cli:load_model", "uavrice.cli:plan_from_json",
                    "uavrice.cli:model_from_json"), None),
    ("files.write", ("uavrice.cli:write_outputs", "uavrice.cli:save_model"),
     None),
)


class Tracer:
    """Nested spans aggregated per name: call count, total and self time."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._open = []              # [name, child seconds] per open span
        self._restore = []
        self.absent = {}             # "module:attribute" -> reason
        self.reset()

    def reset(self):
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = Counter()

    @contextmanager
    def span(self, name):
        frame = [name, 0.0]
        self._open.append(frame)
        start = self.clock()
        try:
            yield
        finally:
            duration = self.clock() - start
            self._open.pop()
            if self._open:
                self._open[-1][1] += duration
            self.calls[name] += 1
            self.total_s[name] += duration
            self.self_s[name] += duration - frame[1]

    def wrap(self, site, name, on_result=None):
        """Replace the callable at "module:attribute" with a traced one.
        A site that cannot be found is recorded in ``absent``."""
        module_name, attr = site.split(":")
        try:
            module = importlib.import_module(module_name)
        except ImportError as exc:
            self.absent[site] = f"cannot import {module_name}: {exc}"
            return
        original = getattr(module, attr, None)
        if not callable(original):
            self.absent[site] = f"{module_name} has no callable {attr}"
            return

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if on_result is not None:
                on_result(self.counts, args, result)
            return result

        setattr(module, attr, traced)
        self._restore.append((module, attr, original))

    def install(self, sites=SITES):
        for name, where, on_result in sites:
            for site in where:
                self.wrap(site, name, on_result)

    def uninstall(self):
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    @contextmanager
    def active(self):
        """Wrap the entry points with fresh aggregates; unwrap on exit."""
        self.install()
        self.reset()
        try:
            yield self
        finally:
            self.uninstall()

    def missing_spans(self, sites=SITES):
        """Span names none of whose sites could be wrapped, with reasons."""
        return {name: "; ".join(self.absent[s] for s in where)
                for name, where, _ in sites
                if all(s in self.absent for s in where)}


def _ratio(num, den):
    return num / den if den else 0.0


# (metric, unit, span it depends on, value from a Tracer snapshot)
LAYER_METRICS = (
    ("solvers.ipm.calls", "count", "solvers.ipm",
     lambda t: t.calls["solvers.ipm"]),
    ("solvers.ipm.newton_steps", "count", "solvers.ipm",
     lambda t: t.counts["solvers.ipm.newton_steps"]),
    ("solvers.ipm.capped", "count", "solvers.ipm",
     lambda t: t.counts["solvers.ipm.capped"]),
    ("solvers.ipm.optimal_ratio", "ratio", "solvers.ipm",
     lambda t: _ratio(t.calls["solvers.ipm"] - t.counts["solvers.ipm.capped"],
                      t.calls["solvers.ipm"])),
    ("solvers.ipm.self_s", "s", "solvers.ipm",
     lambda t: t.self_s["solvers.ipm"]),
    ("solvers.lp.calls", "count", "solvers.lp",
     lambda t: t.calls["solvers.lp"]),
    ("solvers.lp.pivots", "count", "solvers.lp",
     lambda t: t.counts["solvers.lp.pivots"]),
    ("solvers.lp.not_optimal", "count", "solvers.lp",
     lambda t: t.counts["solvers.lp.not_optimal"]),
    ("solvers.lp.self_s", "s", "solvers.lp",
     lambda t: t.self_s["solvers.lp"]),
    ("planner.bcd.outer_iters", "count", "planner.bcd",
     lambda t: t.counts["planner.bcd.outer_iters"]),
    ("planner.horizontal.self_s", "s", "planner.horizontal",
     lambda t: t.self_s["planner.horizontal"]),
    ("planner.horizontal.skipped", "count", "planner.horizontal",
     lambda t: t.counts["planner.horizontal.skipped"]),
    ("planner.vertical.self_s", "s", "planner.vertical",
     lambda t: t.self_s["planner.vertical"]),
    ("planner.vertical.skipped", "count", "planner.vertical",
     lambda t: t.counts["planner.vertical.skipped"]),
    ("planner.scheduling.self_s", "s", "planner.scheduling",
     lambda t: t.self_s["planner.scheduling"]),
    ("planner.round_schedule.self_s", "s", "planner.round_schedule",
     lambda t: t.self_s["planner.round_schedule"]),
    ("planner.predicted_rates.calls", "count", "planner.predicted_rates",
     lambda t: t.calls["planner.predicted_rates"]),
    ("planner.predicted_rates.self_s", "s", "planner.predicted_rates",
     lambda t: t.self_s["planner.predicted_rates"]),
    ("fading.quantile.count", "count", "fading.quantile",
     lambda t: t.counts["fading.quantile.count"]),
    ("fading.quantile.self_s", "s", "fading.quantile",
     lambda t: t.self_s["fading.quantile"]),
    ("fading.quantile.per_s", "1/s", "fading.quantile",
     lambda t: _ratio(t.counts["fading.quantile.count"],
                      t.self_s["fading.quantile"])),
    ("evaluation.exact_rates.self_s", "s", "evaluation.exact_rates",
     lambda t: t.self_s["evaluation.exact_rates"]),
    ("evaluation.mc.blocks", "count", "evaluation.mc",
     lambda t: t.counts["evaluation.mc.blocks"]),
    ("evaluation.mc.self_s", "s", "evaluation.mc",
     lambda t: t.self_s["evaluation.mc"]),
    ("evaluation.mc.blocks_per_s", "1/s", "evaluation.mc",
     lambda t: _ratio(t.counts["evaluation.mc.blocks"],
                      t.total_s["evaluation.mc"])),
    ("channel.sample_rician.self_s", "s", "channel.sample_rician",
     lambda t: t.self_s["channel.sample_rician"]),
    ("files.load.self_s", "s", "files.load",
     lambda t: t.self_s["files.load"]),
    ("files.write.self_s", "s", "files.write",
     lambda t: t.self_s["files.write"]),
    ("cli.self_s", "s", "cli", lambda t: t.self_s["cli"]),
)

def layer_values(tracer, wall_s):
    """Per-layer metric values for one traced operation of ``wall_s``
    seconds.  ``unattributed_s`` is the wall time not covered by a reported
    self time: the glue spans (run_scheme, evaluate_plan, best_cruise_start,
    run_bcd) and anything outside the root span.  The reported self times
    and it add up to ``wall_s``."""
    values = {name: get(tracer) for name, _, _, get in LAYER_METRICS}
    reported = sum(value for name, value in values.items()
                   if name.endswith(".self_s"))
    values["unattributed_s"] = wall_s - reported
    return values
