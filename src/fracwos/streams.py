"""Counter-based random streams for reproducible, coupled Monte Carlo.

Every variate produced here is a pure function of (seed, indices): a keyed
counter hash (Philox-style 4x32 network, 10 rounds) maps integer counters to
uniforms, and all distributions are derived from those uniforms by inverse /
rejection transforms that consume counters in a fixed per-slot order.  This
makes any entry of any stream computable without generating its predecessors,
so paths started at different points can share the n-th tuple (the coupling
device) and every sample has the same bits however samples are batched.

Uncoupled Monte Carlo (point estimates, assumption checks) draws instead
from numpy Philox Generators keyed by labelled substreams
(:func:`batch_generator`), which are pure in (seed, labels) as well.
"""

from __future__ import annotations

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

_PHILOX_M0 = np.uint64(0xD2511F53)
_PHILOX_M1 = np.uint64(0xCD9E8D57)
_PHILOX_W0 = np.uint64(0x9E3779B9)
_PHILOX_W1 = np.uint64(0xBB67AE85)
_LO32 = np.uint64(0xFFFFFFFF)
_ROUNDS = 10

# component tags (counter word 2): keep distinct per distribution
TAG_DIRECTIONS = np.uint32(1)   # exit direction + source direction angles
TAG_SOURCE = np.uint32(2)       # source radial variate
TAG_BETA = np.uint32(3)         # exit-radius Beta variate (rejection)

_BETA_FLOOR = 1e-280  # keeps 1/sqrt(beta) and downstream positions finite
_BETA_CEIL = float(np.nextafter(1.0, 0.0))  # strict open-interval support


def _splitmix64(x: np.ndarray | np.uint64) -> np.ndarray | np.uint64:
    with np.errstate(over="ignore"):
        x = x + _GAMMA          # uint64 arithmetic wraps modulo 2^64
        x = (x ^ (x >> np.uint64(30))) * _MIX1
        x = (x ^ (x >> np.uint64(27))) * _MIX2
        return x ^ (x >> np.uint64(31))


def derive_key(seed: int, *fields) -> np.uint64 | np.ndarray:
    """Hash a master seed and stream labels into a 64-bit stream key.

    Fields are integer scalars or arrays (broadcast); distinct label tuples
    give statistically independent streams; a float seed or label is refused.
    """
    if not isinstance(seed, (int, np.integer)):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    k = _splitmix64(np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF))
    for label in fields:
        f = np.asarray(label)
        if f.dtype.kind not in "iu":
            raise ValueError(f"label must be an integer, got {label!r}")
        k = _splitmix64(k ^ _splitmix64(f.astype(np.int64).astype(np.uint64)))
    return k


def _philox(c0, c1, c2, c3, k0, k1):
    """One 4x32 keyed counter-hash evaluation; each word is a uint64 of 32 bits."""
    for _ in range(_ROUNDS):
        p0 = c0 * _PHILOX_M0
        p1 = c2 * _PHILOX_M1
        c0, c1, c2, c3 = ((p1 >> np.uint64(32)) ^ c1 ^ k0, p1 & _LO32,
                          (p0 >> np.uint64(32)) ^ c3 ^ k1, p0 & _LO32)
        k0, k1 = (k0 + _PHILOX_W0) & _LO32, (k1 + _PHILOX_W1) & _LO32
    return c0, c1, c2, c3


def _to_unit(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """Two 32-bit words in uint64 -> one float64 uniform strictly inside (0, 1)."""
    bits = (hi << np.uint64(32)) | lo
    return ((bits >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


def uniform_pair(key, draw, step, tag):
    """Two independent U(0,1) arrays at counter (draw, step, tag, 0).

    All index arguments broadcast (the Philox rounds broadcast them); `key`
    is a uint64 key (scalar or array) from :func:`derive_key`.
    """
    key = np.asarray(key, dtype=np.uint64)
    ctr = [np.asarray(w, np.uint32).astype(np.uint64) for w in (draw, step, tag, 0)]
    o0, o1, o2, o3 = _philox(*ctr, key & _LO32, key >> np.uint64(32))
    return _to_unit(o0, o1), _to_unit(o2, o3)


def _logsum(lx: np.ndarray, ly: np.ndarray) -> np.ndarray:
    """log(exp(lx) + exp(ly)) as max(lx, ly) + log1p(exp(-|lx - ly|)), the
    stable form of np.logaddexp on vector exp/log1p loops; overwrites ly."""
    m = np.maximum(lx, ly)
    np.minimum(lx, ly, out=ly)
    ly -= m                     # -|lx - ly|, exactly
    np.exp(ly, out=ly)
    np.log1p(ly, out=ly)
    return np.add(ly, m, out=ly)


def _johnk(alpha: float, n: int, uniforms) -> np.ndarray:
    """n Beta(alpha/2, (2-alpha)/2) draws by Johnk's rejection method.

    Round r calls uniforms(pending slots, r) for two uniform arrays U1, U2
    over the slots still pending; a slot accepts when X + Y <= 1 for
    X = U1^(2/alpha), Y = U2^(2/(2-alpha)) and takes X/(X + Y), computed in
    log space to survive extreme exponents at small alpha: with the stable
    log-sum l = log(X + Y) (:func:`_logsum`), it accepts when l <= 0 and takes
    exp(log X - l).  Round 0 writes every slot; later rounds redo rejections.
    """
    inv_a = 2.0 / alpha
    inv_b = 2.0 / (2.0 - alpha)
    out = np.empty(n, dtype=np.float64)
    pend = np.arange(n)
    r = 0
    while pend.size:
        u1, u2 = uniforms(pend, r)
        lx, ly = np.log(u1), np.log(u2)
        lx *= inv_a
        ly *= inv_b
        logsum = _logsum(lx, ly)
        accept = logsum <= 0.0
        lx -= logsum
        if r == 0:
            np.exp(lx, out=out)
        else:
            out[pend[accept]] = np.exp(lx[accept])
        pend = pend[~accept]
        r += 1
    return np.clip(out, _BETA_FLOOR, _BETA_CEIL, out=out)


def johnk_beta(alpha: float, key, step) -> np.ndarray:
    """Beta(alpha/2, (2-alpha)/2) variates by Johnk's rejection method.

    Both shape parameters are below one for alpha in (0, 2), where Johnk's
    generator is valid.  Rejection retries consume further counters in the
    `draw` word, so each slot's value depends only on (key, step) and not on
    its neighbours in a batch.
    """
    key = np.asarray(key, dtype=np.uint64)
    step = np.asarray(step, dtype=np.uint32)
    shape = np.broadcast_shapes(key.shape, step.shape)
    key = np.broadcast_to(key, shape).ravel()
    step = np.broadcast_to(step, shape).ravel()
    return _johnk(alpha, key.size, lambda pend, r: uniform_pair(
        key[pend], np.uint32(r), step[pend], TAG_BETA)).reshape(shape)


def step_tuples(alpha: float, key, step):
    """The shared per-step tuple (beta, Theta, S, Phi) for WOS sampling.

    beta is the exit-radius Beta variate, Theta and Phi are independent
    uniform directions on the unit circle, and S is uniform on (0, 1).
    `key` and `step` broadcast, so a (1, R) key row against a (B, 1) step
    column gives B steps of R realizations in one call; each entry equals
    the one-step call at its (key, step), and Theta and Phi gain a last
    axis of length 2.
    """
    key = np.atleast_1d(np.asarray(key, dtype=np.uint64))
    beta = johnk_beta(alpha, key, step)
    theta, phi = unit_vectors(np.stack(uniform_pair(key, 0, step,
                                                    TAG_DIRECTIONS)))
    return beta, theta, uniform_pair(key, 0, step, TAG_SOURCE)[0], phi


def unit_vectors(u: np.ndarray) -> np.ndarray:
    """Unit vectors (cos 2 pi u, sin 2 pi u), stacked on the last axis, in
    half-angle form: t = tan(pi (u - 1/2)) gives (t^2 - 1, -2t)/(1 + t^2),
    one vector tan for libm's scalar cos and sin.  For u in [0, 1] (|t| <
    1.7e16): within 8.9e-16 of (cos, sin), and of norm 1 within 4.5e-16.
    """
    t = np.subtract(u, 0.5, out=np.empty(np.shape(u)))
    np.tan(np.multiply(t, np.pi, out=t), out=t)
    out = np.empty(t.shape + (2,))
    cos, sin = out[..., 0], out[..., 1]
    np.multiply(t, t, out=cos)
    np.add(cos, 1.0, out=sin)       # 1 + t^2
    cos -= 1.0
    cos /= sin
    np.divide(t, sin, out=sin)
    sin *= -2.0
    return out


def batch_generator(seed: int, *fields) -> np.random.Generator:
    """A numpy Generator on an independent substream labelled by `fields`.

    Used for uncoupled Monte Carlo (point estimates, assumption checks)
    where per-draw counter addressing is not needed; the substream label
    keeps batches reproducible and non-overlapping.
    """
    return np.random.Generator(np.random.Philox(key=int(derive_key(seed, *fields))))


def johnk_beta_rng(alpha: float, rng: np.random.Generator, n: int) -> np.ndarray:
    """Beta(alpha/2, (2-alpha)/2) draws from a bulk Generator stream.

    Same Johnk log-space scheme as :func:`johnk_beta`, but fed by a numpy
    Generator for uncoupled Monte Carlo loops.  Retry rounds redraw only the
    rejected slots, so each slot is an honest independent Johnk sample.
    """
    return _johnk(alpha, n, lambda pend, r: rng.random((2, pend.size)))
