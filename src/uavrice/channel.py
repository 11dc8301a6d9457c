"""Link geometry and the angle-dependent Rician channel.

Pure, stateless math shared by the planner and the evaluator: distances and
elevation angles between the vehicle and ground nodes, the elevation-dependent
Rician factor, the fading-power cdf and Marcum Q1 (both from SciPy's
noncentral chi-square), gain sampling, and the outage-aware rate.  All
quantities are linear-scale SI; dB conversion happens once at file load (see
:mod:`uavrice.files`).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels

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
        return snr_gamma(self.p_tx, self.beta0, self.sigma2, self.snr_gap)

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
# Geometry
# ---------------------------------------------------------------------------

def _check_positive_altitude(z):
    if np.any(np.asarray(z) <= 0):
        raise ValueError("altitude must be positive")


def distance(q, w, z):
    """Euclidean node–vehicle distance from horizontal positions and altitude."""
    _check_positive_altitude(z)
    q = np.asarray(q, dtype=float)
    w = np.asarray(w, dtype=float)
    d2 = np.sum((q - w) ** 2, axis=-1) + np.square(z)
    return np.sqrt(d2)


def pathloss(d, beta0, alpha):
    """Average channel power gain beta0 * d^-alpha (reference distance 1 m)."""
    d = np.asarray(d, dtype=float)
    if np.any(d < 1.0):
        raise ValueError("distance below the 1 m reference is outside the model")
    out = beta0 * d ** (-alpha)
    return float(out) if out.ndim == 0 else out


def elevation_angle(q, w, z):
    """Elevation of the vehicle as seen from the node, in (0, pi/2]."""
    return np.arcsin(angle_indicator(q, w, z))


def angle_indicator(q, w, z):
    """sin(elevation) = z / distance; the regressor of the fading-power model."""
    _check_positive_altitude(z)
    out = z / distance(q, w, z)
    return float(out) if np.ndim(out) == 0 else out


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


# ---------------------------------------------------------------------------
# Channel statistics
# ---------------------------------------------------------------------------

def marcum_q1(a, b):
    """First-order Marcum Q function (Rician envelope tail probability).

    Accurate in absolute terms only: deep in the upper tail it returns 0
    where the true value is tiny but positive (Q1(1.67, 24.69) is
    5.67e-117 by quadrature); see ``kernels.marcum_q1``.
    """
    if np.any(np.asarray(a) < 0) or np.any(np.asarray(b) < 0):
        raise ValueError("marcum_q1 arguments must be nonnegative")
    return kernels.marcum_q1(a, b)


def fading_power_cdf(u, k):
    """P(|g|^2 <= u) for the unit-power Rician gain with factor k."""
    if np.any(np.asarray(u) < 0):
        raise ValueError("power threshold must be nonnegative")
    if np.any(np.asarray(k) < 0):
        raise ValueError("Rician factor must be nonnegative")
    return kernels.fading_cdf(u, k)


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


def snr_gamma(p, beta0, sigma2, gap):
    """Rate-equation SNR coefficient p * beta0 / (sigma2 * gap)."""
    arrs = [np.asarray(x, dtype=float) for x in (p, beta0, sigma2, gap)]
    if any(np.any(a <= 0) for a in arrs):
        raise ValueError("snr_gamma inputs must be positive")
    out = arrs[0] * arrs[1] / (arrs[2] * arrs[3])
    return float(out) if out.ndim == 0 else out


def rate_from_gain(f, gamma, d2, alpha):
    """log2(1 + f * gamma / d2^(alpha/2)) — shared rate kernel (d2 = squared
    distance).  Vectorized over any broadcastable combination."""
    f = np.asarray(f, dtype=float)
    d2 = np.asarray(d2, dtype=float)
    out = np.log2(1.0 + f * gamma * d2 ** (-0.5 * alpha))
    return float(out) if out.ndim == 0 else out


def outage_rate(f, gamma, q, w, z, alpha):
    """Largest rate whose decoding-failure probability stays at the outage
    target, given effective fading power f."""
    f = np.asarray(f, dtype=float)
    if np.any(f < 0) or np.any(f > 1):
        raise ValueError("effective fading power must lie in [0, 1]")
    _check_positive_altitude(z)
    q = np.asarray(q, dtype=float)
    w = np.asarray(w, dtype=float)
    d2 = np.sum((q - w) ** 2, axis=-1) + np.square(z)
    return rate_from_gain(f, gamma, d2, alpha)


def instantaneous_capacity(g, beta, p, sigma2, gap):
    """Per-block capacity for a concrete complex gain draw."""
    if beta <= 0 or p <= 0 or sigma2 <= 0 or gap <= 0:
        raise ValueError("instantaneous_capacity constants must be positive")
    power = np.abs(np.asarray(g)) ** 2
    out = np.log2(1.0 + power * beta * p / (sigma2 * gap))
    return float(out) if out.ndim == 0 else out
