"""Monte Carlo checks of the coupling-contraction and boundary functionals.

Both quantities look at a single walk step x1 = x0 + Theta d(x0)/sqrt(beta):

* the pairwise contraction  I2(x0, y0) = E[(|x1-y1|/|x0-y0|)^(mu alpha);
  x1, y1 in D]  with (beta, Theta) shared between the two updates, and
* the boundary-accumulation functional  I1(x0) = E[Phi(x1)/Phi(x0); x1 in D]
  with Phi(x) = max(A, 1/d(x)^t).

Estimates below one certify the contraction/accumulation behaviour the
multilevel coupling rate rests on.  Start points are drawn uniformly on the
domain (20 points, 1e6 samples by default); an optional stress mode places
pairs near the boundary on a shared inward normal, the geometry that makes
exponents mu > 1 fail.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield
from typing import NamedTuple

import numpy as np

from .geometry import Domain, _norm, box
from .sampling import _check_alpha
from .streams import batch_generator, johnk_beta_rng, unit_vectors

_BATCH = 1 << 17
_LABEL_STARTS = 0x57A7
_LABEL_I1 = 0x11
_LABEL_I2 = 0x12


class CheckResult(NamedTuple):
    max_over_starts: float
    per_start: list[tuple[float, float]]   # (estimate, standard error)


@dataclass
class AssumptionConfig:
    """Parameters of one checker run."""

    alpha: float
    mu: float = 1.0
    t: float = 1.0
    A: float = 1e4
    samples_M: int = 10 ** 6
    start_points_J: int = 20
    domain: Domain = dfield(default_factory=lambda: box(0.0, 0.0, 1.0, 1.0))
    seed: int = 0

    def __post_init__(self):
        _check_alpha(self.alpha)
        if not 0.0 < self.mu <= 1.5:
            raise ValueError("mu must be in (0, 1.5]")
        if not 0.0 < self.t <= 1.0:
            raise ValueError("t must be in (0, 1]")
        if self.A <= 0:
            raise ValueError("A must be positive")
        if self.samples_M < 2 or self.start_points_J < 1:
            raise ValueError("need at least 2 samples and 1 start point")


def _estimate(cfg: AssumptionConfig, label: int, j: int,
              batch) -> tuple[float, float]:
    """Mean and standard error of cfg.samples_M one-step values at start j.

    Each batch of at most _BATCH samples draws beta, then Theta, from start
    j's substream; `batch(beta, theta)` returns its values.  beta and theta
    stay bound until the next batch, so the allocator keeps their pages.
    """
    rng = batch_generator(cfg.seed, label, j)
    n = cfg.samples_M
    tot = tot_sq = 0.0
    for done in range(0, n, _BATCH):
        size = min(_BATCH, n - done)
        beta = johnk_beta_rng(cfg.alpha, rng, size)
        theta = unit_vectors(rng.random(size))
        vals = batch(beta, theta)
        tot += vals.sum()
        tot_sq += (vals * vals).sum()
    mean = tot / n
    var = max((tot_sq - n * mean * mean) / (n - 1), 0.0)
    return mean, float(np.sqrt(var / n))


def check_I2(cfg: AssumptionConfig, pairs: np.ndarray | None = None,
             stress: bool = False) -> CheckResult:
    """Pairwise one-step contraction moment, maximized over start pairs.

    Pairs share (beta, Theta) between their updates; the expectation carries
    the both-survive indicator.  `pairs` overrides the uniform draw with an
    explicit (J, 2, 2) array of [x0, y0] rows.
    """
    if pairs is None:
        rng = batch_generator(cfg.seed, _LABEL_STARTS, _LABEL_I2)
        if stress:
            pairs = _boundary_pairs(cfg.domain, cfg.start_points_J, rng)
        else:
            pts = cfg.domain.sample_uniform(rng, 2 * cfg.start_points_J)
            pairs = pts.reshape(cfg.start_points_J, 2, 2)
    pairs = np.asarray(pairs, dtype=np.float64)
    per_start = []
    expo = cfg.mu * cfg.alpha
    for j, (x0, y0) in enumerate(pairs):
        r0 = float(np.hypot(*(x0 - y0)))
        if r0 == 0.0:
            raise ValueError(f"start pair {j} is degenerate (x0 == y0)")
        d0x = float(cfg.domain.distance(x0))
        d0y = float(cfg.domain.distance(y0))

        def batch(beta, theta):
            # jump, x1 and y1 as an x row and a y row
            jump = np.divide(theta.T, np.sqrt(beta), out=np.empty((2, beta.size)))
            x1 = d0x * jump
            x1 += x0[:, None]
            y1 = d0y * jump
            y1 += y0[:, None]
            both = np.asarray(cfg.domain._contains(x1.T)) \
                & np.asarray(cfg.domain._contains(y1.T))
            x1 -= y1
            r1 = _norm(x1.T)
            return np.where(both, (r1 / r0) ** expo, 0.0)

        per_start.append(_estimate(cfg, _LABEL_I2, j, batch))
    return CheckResult(max(v for v, _ in per_start), per_start)


def check_I1(cfg: AssumptionConfig,
             starts: np.ndarray | None = None) -> CheckResult:
    """One-step moment of the boundary functional, maximized over starts."""
    if starts is None:
        rng = batch_generator(cfg.seed, _LABEL_STARTS, _LABEL_I1)
        starts = cfg.domain.sample_uniform(rng, cfg.start_points_J)
    starts = np.asarray(starts, dtype=np.float64)
    per_start = []
    for j, x0 in enumerate(starts):
        d0 = float(cfg.domain.distance(x0))
        if d0 <= 0.0:
            raise ValueError(f"start point {j} is not interior")
        phi0 = max(cfg.A, d0 ** -cfg.t)

        def batch(beta, theta):
            x1 = np.multiply(theta.T, d0 / np.sqrt(beta),
                             out=np.empty((2, beta.size)))
            x1 += x0[:, None]
            d1 = cfg.domain._distance(x1.T)
            inside = d1 > 0.0
            vals = np.zeros(beta.size)
            vals[inside] = np.maximum(cfg.A, d1[inside] ** -cfg.t) / phi0
            return vals

        per_start.append(_estimate(cfg, _LABEL_I1, j, batch))
    return CheckResult(max(v for v, _ in per_start), per_start)


def _boundary_pairs(domain: Domain, count: int, rng) -> np.ndarray:
    """Pairs on a shared inward normal line near the boundary (stress mode)."""
    pts = domain.sample_uniform(rng, count)
    # push each point toward the boundary along the outward direction of
    # steepest distance decrease, found by finite differences
    h = 1e-6
    pairs = np.empty((count, 2, 2))
    for j, p in enumerate(pts):
        gx = (float(domain.distance(p + [h, 0.0])) - float(domain.distance(p - [h, 0.0]))) / (2 * h)
        gy = (float(domain.distance(p + [0.0, h])) - float(domain.distance(p - [0.0, h]))) / (2 * h)
        grad = np.array([gx, gy])
        grad /= max(np.linalg.norm(grad), 1e-12)
        d0 = float(domain.distance(p))
        z = p - d0 * grad          # nearest boundary point, approximately
        delta = 10.0 ** rng.uniform(-4, -1)
        r0 = delta * rng.uniform(0.1, 1.0)
        pairs[j, 0] = z + delta * grad
        pairs[j, 1] = z + (delta + r0) * grad
    return pairs

