"""Scenario constants and the angle-dependent Rician channel.

Pure, stateless math shared by the planner and the evaluator: the
elevation-dependent Rician factor, counter-based sampling of the Rician
envelope, and the one rate kernel, :func:`rate_from_gain`, with its inverse
:func:`gain_for_rate`.  Per-slot geometry comes from
:func:`uavrice.planner.slot_geometry`; the fading-power cdf and Marcum Q1
live in :mod:`uavrice.kernels`.  All quantities are linear-scale SI; dB
conversion happens once at file load (see :mod:`uavrice.files`).
"""

import math
import os
import sys
from dataclasses import dataclass

import numpy as np

_HALF_PI = math.pi / 2.0

#: the largest outage target the closed forms and the fit cover
MAX_EPSILON = 0.1

# Draws per buffer of the count form of sample_rician, 256 KB of float64.
# On the stored 4-node plan (1e5 trials, 2 workers) 16,384 draws took 8%
# more Monte-Carlo time, and 65,536 no less time but 1.3 MB more memory.
COUNT_CHUNK = 32_768

# Peak memory of planning one scenario, per slot: the interior-point
# programs hold about 6 KB, and each node's (N, M) arrays about 128 B more.
# Fitted to the tracemalloc peak of rfla and rfb plans of 1-32 nodes over
# 130-1000 slots (5.8-10.0 KB per slot).
_PLAN_BYTES_PER_SLOT = 6144
_PLAN_BYTES_PER_NODE_SLOT = 128
# Peak memory of tabulating and fitting the surrogate, per sample point: the
# fit's start grid holds 121 logistic arguments and the 121 logistic values
# they give, whose squared errors are taken in place.  Rounded up from the
# tracemalloc peak of tabulating and fitting 2,000-100,000 points (1,986 B).
_FIT_BYTES_PER_POINT = 2200


def _memory_bytes():
    """Physical memory of this machine; the address space where the
    platform does not report it."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return sys.maxsize


def max_slots(n_sn):
    """The most slots whose planning arrays for n_sn nodes fit in memory."""
    per_slot = _PLAN_BYTES_PER_SLOT + _PLAN_BYTES_PER_NODE_SLOT * int(n_sn)
    return _memory_bytes() // per_slot


def max_grid():
    """The most regression sample points whose surrogate fit fits in
    memory."""
    return _memory_bytes() // _FIT_BYTES_PER_POINT


def max_trials(n_blocks, workers):
    """The most Monte-Carlo trials per slot whose envelopes fit in memory
    when ``workers`` slots of ``n_blocks`` fading blocks are drawn at once.
    The worst case is 16 B per envelope: two float64 arrays in the array
    form of ``sample_rician``, and a position and an in-phase power per
    block in its count form when every block may fall below the
    threshold."""
    return _memory_bytes() // (16 * int(n_blocks) * int(workers))


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
        p_tx = np.asarray(self.p_tx, dtype=float)
        if p_tx.size not in (1, self.n_sn):
            raise ValueError(f"p_tx has {p_tx.size} values for {self.n_sn} "
                             f"nodes; give one value or one per node")
        self.p_tx = np.broadcast_to(p_tx, (self.n_sn,)).copy()
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
        for name, value in vars(self).items():
            if not np.all(np.isfinite(np.asarray(value, dtype=float))):
                raise ValueError(f"{name} must be finite")
        if self.sn_positions.ndim != 2 or self.sn_positions.shape[1] != 2:
            raise ValueError("sn_positions must be an (N, 2) array")
        if self.n_sn < 1:
            raise ValueError("at least one sensor node required")
        if self.n_slots < 1:
            raise ValueError("n_slots must be >= 1")
        limit = max_slots(self.n_sn)
        if self.n_slots > limit:
            raise ValueError(
                f"n_slots={self.n_slots} exceeds {limit}, the most whose "
                f"planning arrays for {self.n_sn} node(s) fit in this "
                f"machine's memory")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if not (2.0 <= self.alpha <= 6.0):
            raise ValueError(f"alpha={self.alpha} outside the supported [2, 6]")
        if not (0.0 < self.epsilon <= MAX_EPSILON):
            raise ValueError(f"epsilon={self.epsilon} outside (0, {MAX_EPSILON}]")
        if self.h_min < 1.0:
            raise ValueError(f"h_min={self.h_min:g} m is below the path-loss "
                             f"model's 1 m reference distance")
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
        for name, limit in (("vxy", self.sxy), ("vz", self.sz)):
            if not math.isfinite(limit * limit):
                raise ValueError(f"{name}: per-slot limit {limit:g} m "
                                 f"overflows when squared")
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
# Rician factor and envelope sampling
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
    if not (0.0 < k_min <= k_max < math.inf):
        raise ValueError("need 0 < k_min <= k_max < inf")
    a1 = float(k_min)
    a2 = math.log(k_max / k_min) / _HALF_PI
    return a1, a2


def sample_rician(k, rng, size=None, *, below=None):
    """Draw envelopes |g| of unit-mean-power Rician gains with factor k from
    an explicit stream, or count how many fall below a threshold.

    The deterministic component is fixed on the positive real axis; the
    envelope does not depend on its phase.  The stream's first
    ``standard_normal`` draw of the full shape is the in-phase part, the
    second the quadrature part, and the result equals
    ``sqrt((los + scale * re)**2 + (scale * im)**2)`` bit for bit, squares
    taken as products.  No complex gain is formed: every caller needs |g| or
    |g|^2 only.  A scalar draw (``size=None``) is a float.

    With ``below=t`` the call returns ``np.count_nonzero(envelopes < t)``
    for the same draws, as an int, in memory that does not grow with
    ``size`` unless many envelopes fall below t (see :func:`_count_below`).
    """
    if k < 0:
        raise ValueError("Rician factor must be nonnegative")
    shape = () if size is None else size
    if below is not None:
        return _count_below(k, rng, math.prod(np.broadcast_shapes(shape)),
                            float(below))
    if math.isinf(k):
        return np.ones(shape)[()]
    los, scale = _rician_parts(k)
    env = np.empty(shape)
    rng.standard_normal(out=env)
    env *= scale
    env += los
    np.square(env, out=env)
    quad = np.empty(shape)
    rng.standard_normal(out=quad)
    quad *= scale
    np.square(quad, out=quad)
    env += quad
    return np.sqrt(env, out=env)[()]


def _rician_parts(k):
    """Line-of-sight amplitude and per-quadrature std of the diffuse part."""
    return math.sqrt(k / (k + 1.0)), math.sqrt(0.5 / (k + 1.0))


def _count_below(k, rng, n, t):
    """How many of n envelopes drawn as :func:`sample_rician` draws them
    fall below t.

    The in-phase normals stream through one buffer of ``COUNT_CHUNK``
    draws, then the quadrature normals, in the array form's order.  A
    block's in-phase power ``e = (los + scale * re)**2`` is kept, with its
    position, only when ``sqrt(e) < t``: sqrt is correctly rounded and
    monotone and the quadrature power is nonnegative, so no other block can
    fall below t.  The kept blocks finish with the array form's operations
    in its order, so the count is exact.  At worst every block is kept, 16 B
    per block.  A threshold of inf counts every envelope and one at or
    below 0 none; those, like k = inf, leave the stream undrawn."""
    if math.isinf(k):
        return n if 1.0 < t else 0
    if not 0.0 < t < math.inf:
        return n if t > 0.0 else 0
    los, scale = _rician_parts(k)
    buf = np.empty(min(n, COUNT_CHUNK))
    kept = []
    for start in range(0, n, COUNT_CHUNK):
        chunk = buf[:min(COUNT_CHUNK, n - start)]
        rng.standard_normal(out=chunk)
        chunk *= scale
        chunk += los
        np.square(chunk, out=chunk)
        idx = np.flatnonzero(np.sqrt(chunk) < t)
        kept.append((chunk.size, idx, chunk[idx]))
    count = 0
    for size, idx, env in kept:
        chunk = buf[:size]
        rng.standard_normal(out=chunk)
        quad = chunk[idx]
        quad *= scale
        np.square(quad, out=quad)
        env += quad
        count += int(np.count_nonzero(np.sqrt(env, out=env) < t))
    return count


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
    combination; :func:`gain_for_rate` is its inverse."""
    f = np.asarray(f, dtype=float)
    d2 = np.asarray(d2, dtype=float)
    out = np.log2(1.0 + f * gamma * d2 ** (-0.5 * alpha))
    return float(out) if out.ndim == 0 else out


def gain_for_rate(r, gamma, d2, alpha):
    """(2^r - 1) * d2^(alpha/2) / gamma, the inverse of :func:`rate_from_gain`
    in f: the fading power whose rate is exactly r.  A block whose power falls
    below it is in outage at rate r.  A power beyond the float range comes
    back as inf, since no finite power reaches such a rate."""
    r = np.asarray(r, dtype=float)
    d2 = np.asarray(d2, dtype=float)
    with np.errstate(over="ignore"):
        out = (np.exp2(r) - 1.0) * d2 ** (0.5 * alpha) / gamma
    return float(out) if out.ndim == 0 else out
