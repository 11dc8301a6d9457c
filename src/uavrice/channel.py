"""Scenario constants and the angle-dependent Rician channel.

Pure, stateless math shared by the planner and the evaluator: the
elevation-dependent Rician factor, counter-based gain sampling, and the one
rate kernel, :func:`rate_from_gain`.  Per-slot geometry comes from
:func:`uavrice.planner.slot_geometry`; the fading-power cdf and Marcum Q1
live in :mod:`uavrice.kernels`.  All quantities are linear-scale SI; dB
conversion happens once at file load (see :mod:`uavrice.files`).
"""

import math
from dataclasses import dataclass

import numpy as np

_HALF_PI = math.pi / 2.0


@dataclass
class Scenario:
    """One complete problem instance.

    Geometry is metric, channel constants linear.  ``p_tx`` may be a scalar
    (shared by every node) or one value per node.
    """

    sn_positions: np.ndarray      # (N, 2) horizontal node coordinates [m]
    q0: np.ndarray                # initial horizontal position [m]
    qf: np.ndarray                # final horizontal position [m]
    z0: float                     # initial altitude [m]
    zf: float                     # final altitude [m]
    duration_s: float             # mission duration [s]
    n_slots: int                  # slot count
    vxy: float                    # max horizontal speed [m/s]
    vz: float                     # max vertical speed [m/s]
    h_min: float                  # altitude floor [m]
    p_tx: np.ndarray              # per-node transmit power [W]
    beta0: float                  # channel gain at 1 m [linear]
    alpha: float                  # path-loss exponent
    sigma2: float                 # noise power [W]
    snr_gap: float                # SNR gap to capacity [linear]
    k_min: float                  # Rician factor at grazing incidence [linear]
    k_max: float                  # Rician factor at vertical incidence [linear]
    epsilon: float                # outage probability target
    n_blocks: int = 2             # fading blocks per slot (Monte-Carlo only)

    def __post_init__(self):
        self.sn_positions = np.atleast_2d(np.asarray(self.sn_positions, dtype=float))
        self.q0 = np.asarray(self.q0, dtype=float).reshape(2)
        self.qf = np.asarray(self.qf, dtype=float).reshape(2)
        self.p_tx = np.broadcast_to(
            np.asarray(self.p_tx, dtype=float), (self.n_sn,)
        ).copy()
        self.validate()

    # -- derived quantities -------------------------------------------------

    @property
    def n_sn(self) -> int:
        return self.sn_positions.shape[0]

    @property
    def delta_s(self) -> float:
        """Slot length [s]."""
        return self.duration_s / self.n_slots

    @property
    def sxy(self) -> float:
        """Per-slot horizontal displacement limit [m]."""
        return self.vxy * self.delta_s

    @property
    def sz(self) -> float:
        """Per-slot vertical displacement limit [m]."""
        return self.vz * self.delta_s

    @property
    def rician_coeffs(self):
        return rician_coeffs_from_bounds(self.k_min, self.k_max)

    @property
    def snr_gamma_per_sn(self) -> np.ndarray:
        """Outage-rate SNR coefficient, one entry per node."""
        return self.p_tx * self.beta0 / (self.sigma2 * self.snr_gap)

    # -- checks ------------------------------------------------------------

    def validate(self):
        if self.sn_positions.ndim != 2 or self.sn_positions.shape[1] != 2:
            raise ValueError("sn_positions must be an (N, 2) array")
        if self.n_sn < 1:
            raise ValueError("at least one sensor node required")
        if self.n_slots < 1:
            raise ValueError("n_slots must be >= 1")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if not (2.0 <= self.alpha <= 6.0):
            raise ValueError(f"alpha={self.alpha} outside the supported [2, 6]")
        if not (0.0 < self.epsilon <= 0.1):
            raise ValueError(f"epsilon={self.epsilon} outside (0, 0.1]")
        if self.h_min <= 0:
            raise ValueError("h_min must be positive")
        if self.z0 < self.h_min or self.zf < self.h_min:
            raise ValueError("endpoint altitudes must respect the altitude floor")
        if self.n_blocks < 1:
            raise ValueError("n_blocks must be >= 1")
        for name in ("beta0", "sigma2", "snr_gap"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if np.any(self.p_tx <= 0):
            raise ValueError("p_tx must be positive")
        if self.vxy < 0 or self.vz < 0:
            raise ValueError("speed limits must be nonnegative")
        rician_coeffs_from_bounds(self.k_min, self.k_max)  # bound sanity
        # reachability of the endpoints within the mission time
        horiz = float(np.linalg.norm(self.qf - self.q0))
        if horiz > self.vxy * self.duration_s + 1e-9:
            need = horiz / self.vxy if self.vxy > 0 else math.inf
            raise ValueError(
                f"endpoints unreachable horizontally: need duration >= {need:.3f} s"
            )
        vert = abs(self.zf - self.z0)
        if vert > self.vz * self.duration_s + 1e-9:
            need = vert / self.vz if self.vz > 0 else math.inf
            raise ValueError(
                f"endpoints unreachable vertically: need duration >= {need:.3f} s"
            )


# ---------------------------------------------------------------------------
# Rician factor and gain sampling
# ---------------------------------------------------------------------------

def rician_factor(theta, a1, a2):
    """Rician factor K = a1 * exp(a2 * theta) for elevation theta in [0, pi/2]."""
    theta = np.asarray(theta, dtype=float)
    if np.any(theta < -1e-12) or np.any(theta > _HALF_PI + 1e-12):
        raise ValueError("elevation angle outside [0, pi/2]")
    out = a1 * np.exp(a2 * theta)
    return float(out) if out.ndim == 0 else out


def rician_coeffs_from_bounds(k_min, k_max):
    """Invert the exponential angle model so (K at 0, K at pi/2) = (k_min, k_max)."""
    if not (0.0 < k_min <= k_max):
        raise ValueError("need 0 < k_min <= k_max")
    a1 = float(k_min)
    a2 = math.log(k_max / k_min) / _HALF_PI
    return a1, a2


def sample_rician(k, rng, size=None):
    """Draw unit-mean-power Rician gains with factor k from an explicit stream.

    The deterministic component is fixed on the positive real axis; power
    statistics do not depend on its phase.
    """
    if k < 0:
        raise ValueError("Rician factor must be nonnegative")
    if math.isinf(k):
        shape = () if size is None else size
        return np.ones(shape, dtype=np.complex128)
    los = math.sqrt(k / (k + 1.0))
    scale = math.sqrt(0.5 / (k + 1.0))  # per-quadrature std of the diffuse part
    re = rng.standard_normal(size)
    im = rng.standard_normal(size)
    return los + scale * (re + 1j * im)


def substream(seed, *path):
    """Counter-based generator for (seed, *path), independent of draw order.

    Philox keyed through a SeedSequence spawn key, so e.g. per-slot streams
    never overlap and can be consumed in any order or in parallel.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


def rate_from_gain(f, gamma, d2, alpha):
    """log2(1 + f * gamma / d2^(alpha/2)), the one rate kernel (d2 = squared
    distance).  f is the effective fading power for an outage rate or a drawn
    |g|^2 for an instantaneous capacity.  Vectorized over any broadcastable
    combination."""
    f = np.asarray(f, dtype=float)
    d2 = np.asarray(d2, dtype=float)
    out = np.log2(1.0 + f * gamma * d2 ** (-0.5 * alpha))
    return float(out) if out.ndim == 0 else out
