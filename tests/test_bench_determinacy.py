"""``benchmarks/bench_determinacy.py``: the spread record on hand-made
runs, and its HiGHS interior-point LP, duals too, against ``solve_lp``."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from uavrice.solvers import dual_bound, solve_lp

_PATH = (Path(__file__).resolve().parent.parent / "benchmarks"
         / "bench_determinacy.py")
_spec = importlib.util.spec_from_file_location("bench_determinacy", _PATH)
bench_determinacy = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_determinacy)


def test_spreads_are_relative_eta_and_largest_waypoint_move():
    pts = np.zeros((4, 3))
    moved = pts.copy()
    moved[2] = [0.03, 0.0, 0.04]           # 0.05 m
    rec = bench_determinacy.spreads({"stop": (2.0, pts),
                                     "tight_stop": (2.0001, moved),
                                     "highs_ipm": (2.0, pts)})
    assert rec["eta_rel_spread"] == pytest.approx(1e-4 / 2.0001)
    assert rec["waypoint_spread_m"] == pytest.approx(0.05)
    assert rec["determinate"] is True
    moved[1, 0] = 0.2
    rec = bench_determinacy.spreads({"stop": (2.0, pts), "x": (2.0, moved)})
    assert rec["waypoint_spread_m"] == pytest.approx(0.2)
    assert rec["determinate"] is False


@pytest.mark.parametrize("seed", [0, 1])
def test_highs_ipm_lp_matches_solve_lp(seed):
    rates = np.random.default_rng(seed).uniform(0.1, 2.0, (3, 12))
    rep = bench_determinacy.highs_ipm_lp(rates)
    assert rep.status == "optimal" and rep.x.shape == rates.shape
    assert np.all(rep.x >= 0.0) and np.all(rep.x.sum(axis=0) <= 1.0)
    exact = solve_lp(rates)
    assert rep.objective == pytest.approx(exact.objective, rel=1e-7)
    # its node weights are the LP's duals, so the planner's bound holds
    np.testing.assert_allclose(rep.duals, exact.duals, atol=1e-7)
    assert dual_bound(rep.duals, rates) >= exact.objective
