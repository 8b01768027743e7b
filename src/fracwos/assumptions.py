"""Monte Carlo checks of the coupling-contraction and boundary functionals.

Both quantities look at a single walk step x1 = x0 + Theta d(x0)/sqrt(beta):

* the pairwise contraction  I2(x0, y0) = E[(|x1-y1|/|x0-y0|)^(mu alpha);
  x1, y1 in D]  with (beta, Theta) shared between the two updates, and
* the boundary-accumulation functional  I1(x0) = E[Phi(x1)/Phi(x0); x1 in D]
  with Phi(x) = max(A, 1/d(x)^t).

Estimates below one certify the contraction/accumulation behaviour the
multilevel coupling rate rests on.  Start points are drawn uniformly on the
domain (20 points, 1e6 samples by default) unless the caller passes them;
pairs near the boundary on a shared inward normal, the geometry that makes
the contraction fail, can be passed that way.  Every start point must lie
inside the domain.

Each check draws its (beta, Theta) from one labelled substream, shared by
every start (common random numbers): each start's estimate and standard
error are those of a check run on that start alone, while the estimates of
different starts are correlated.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield
from typing import NamedTuple

import numpy as np

from .geometry import Domain, _norm, box
from .sampling import _check_alpha, check_count, check_positive
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
        for name in ("mu", "t", "A"):
            check_positive(name, getattr(self, name))
        if self.mu > 1.5:
            raise ValueError("mu must be in (0, 1.5]")
        if self.t > 1.0:
            raise ValueError("t must be in (0, 1]")
        check_count("samples_M", self.samples_M, 2)
        check_count("start_points_J", self.start_points_J, 1)


def _estimate(cfg: AssumptionConfig, label: int,
              batches: list) -> list[tuple[float, float]]:
    """Mean and standard error of cfg.samples_M one-step values per start.

    Each batch of at most _BATCH samples draws beta, then Theta, once from
    the check's one substream and forms the jump Theta/sqrt(beta), a (2, n)
    array of an x row and a y row; `batches[j](jump)` turns it into start
    j's values.  Every start consumes the same draws, so start j's estimate
    does not depend on which other starts share the call.
    """
    rng = batch_generator(cfg.seed, label)
    n = cfg.samples_M
    tot = np.zeros(len(batches))
    tot_sq = np.zeros(len(batches))
    for done in range(0, n, _BATCH):
        size = min(_BATCH, n - done)
        beta = johnk_beta_rng(cfg.alpha, rng, size)
        theta = unit_vectors(rng.random(size))
        jump = np.divide(theta.T, np.sqrt(beta), out=np.empty((2, size)))
        for j, batch in enumerate(batches):
            vals = batch(jump)
            tot[j] += vals.sum()
            tot_sq[j] += (vals * vals).sum()
    mean = tot / n
    var = np.maximum((tot_sq - n * mean * mean) / (n - 1), 0.0)
    return list(zip(mean.tolist(), np.sqrt(var / n).tolist()))


def _start_distance(domain: Domain, x: np.ndarray, name: str) -> float:
    """d(x) at a start point; a point not inside the domain fails by name."""
    d = float(domain.distance(x))
    if not d > 0.0:
        raise ValueError(f"{name} is not interior")
    return d


def check_I2(cfg: AssumptionConfig,
             pairs: np.ndarray | None = None) -> CheckResult:
    """Pairwise one-step contraction moment, maximized over start pairs.

    Pairs share (beta, Theta) between their updates; the expectation carries
    the both-survive indicator.  `pairs` overrides the uniform draw with an
    explicit non-empty (J, 2, 2) array of [x0, y0] rows.
    """
    if pairs is None:
        rng = batch_generator(cfg.seed, _LABEL_STARTS, _LABEL_I2)
        pts = cfg.domain.sample_uniform(rng, 2 * cfg.start_points_J)
        pairs = pts.reshape(cfg.start_points_J, 2, 2)
    pairs = np.asarray(pairs, dtype=np.float64)
    if pairs.ndim != 3 or pairs.shape[1:] != (2, 2) or not len(pairs):
        raise ValueError("pairs must be a non-empty (J, 2, 2) array")
    expo = cfg.mu * cfg.alpha
    batches = []  # every pair is checked before any sample is drawn
    for j, (x0, y0) in enumerate(pairs):
        name = f"start pair {j}"
        r0 = float(np.hypot(*(x0 - y0)))
        if r0 == 0.0:
            raise ValueError(f"{name} is degenerate (x0 == y0)")
        d0x = _start_distance(cfg.domain, x0, name)
        d0y = _start_distance(cfg.domain, y0, name)

        def batch(jump, x0=x0[:, None], y0=y0[:, None], r0=r0, d0x=d0x,
                  d0y=d0y):
            # x1 and y1 as an x row and a y row
            x1 = d0x * jump
            x1 += x0
            y1 = d0y * jump
            y1 += y0
            both = np.asarray(cfg.domain._contains(x1.T)) \
                & np.asarray(cfg.domain._contains(y1.T))
            x1 -= y1
            r1 = _norm(x1.T)
            return np.where(both, (r1 / r0) ** expo, 0.0)

        batches.append(batch)
    per_start = _estimate(cfg, _LABEL_I2, batches)
    return CheckResult(max(v for v, _ in per_start), per_start)


def check_I1(cfg: AssumptionConfig,
             starts: np.ndarray | None = None) -> CheckResult:
    """One-step moment of the boundary functional, maximized over starts.

    `starts` overrides the uniform draw with an explicit non-empty (J, 2)
    array of start points.  x1 has a density that stays positive up to the
    boundary, so for t >= 1/2 Phi(x1)/Phi(x0) has infinite variance in 2-D
    and the standard error is no error bar; at t = 1, the default, the mean
    itself diverges logarithmically.
    """
    if starts is None:
        rng = batch_generator(cfg.seed, _LABEL_STARTS, _LABEL_I1)
        starts = cfg.domain.sample_uniform(rng, cfg.start_points_J)
    starts = np.asarray(starts, dtype=np.float64)
    if starts.ndim != 2 or starts.shape[1] != 2 or not len(starts):
        raise ValueError("starts must be a non-empty (J, 2) array")
    batches = []  # every start is checked before any sample is drawn
    for j, x0 in enumerate(starts):
        d0 = _start_distance(cfg.domain, x0, f"start point {j}")

        def batch(jump, x0=x0[:, None], d0=d0,
                  phi0=max(cfg.A, d0 ** -cfg.t)):
            x1 = d0 * jump
            x1 += x0
            d1 = cfg.domain._distance(x1.T)
            inside = d1 > 0.0
            vals = np.zeros(d1.size)
            vals[inside] = np.maximum(cfg.A, d1[inside] ** -cfg.t) / phi0
            return vals

        batches.append(batch)
    per_start = _estimate(cfg, _LABEL_I1, batches)
    return CheckResult(max(v for v, _ in per_start), per_start)
