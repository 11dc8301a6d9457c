"""Shared test fixtures."""

import numpy as np
import pytest
from hypothesis import settings

from uavrice.solvers import _NewtonSystem

# property tests draw the same 50 examples on every run and keep no
# database, so the suite stays deterministic and quick
settings.register_profile("uavrice", derandomize=True, database=None,
                          deadline=None, max_examples=50)
settings.load_profile("uavrice")


def _newton_step_gap(c, rows, x):
    """Relative 2-norm gap between the interior-point method's structured
    Newton direction at x for maximizing c @ x over ``rows`` and
    ``np.linalg.solve`` of the dense Jacobi-equilibrated matrix, with the
    method's first multipliers and centering target."""
    n = c.size
    g = rows.values(x)
    lam = ((1.0 + abs(float(c @ x))) / g.size) / g
    mu = 0.2 * float(lam @ g) / g.size
    hess = np.zeros((n, n))
    np.add.at(hess, (rows.curv_rows, rows.curv_cols), rows.curvature(x, lam))
    jac = np.zeros((g.size, n))
    np.add.at(jac, (rows.jac_rows, rows.jac_cols), rows.grads(x))
    w = lam / g
    hess += (jac * w[:, None]).T @ jac
    rhs = c + jac.T @ (mu / g)
    dsc = 1.0 / np.sqrt(np.maximum(np.diagonal(hess), 1e-300))
    dense = np.linalg.solve(hess * dsc[:, None] * dsc[None, :],
                            rhs * dsc) * dsc

    system = _NewtonSystem(rows, c)
    step = system.direction(x, lam, w, system.jacobian(x), rhs)
    return float(np.linalg.norm(step - dense) / np.linalg.norm(dense))


@pytest.fixture
def newton_step_gap():
    return _newton_step_gap
