"""Probability kernels of the walk-outside-spheres method.

The alpha-stable process exits the maximal inscribed ball B(x, d(x)) at
x + Theta d(x)/sqrt(beta) with beta ~ Beta(alpha/2, (2-alpha)/2) and Theta
uniform on the circle, so the walk jumps strictly outside the inscribed ball
at every step and exits the domain in finitely many steps almost surely --
there is no boundary-shell parameter in this method.  The source term is
accumulated along the walk via the estimator

    F(x; S, Phi) = A1 d(x)^alpha ((f(x + d(x) S^(1/alpha) Phi) - f(x))
                   * P(beta < 1 - S^(2/alpha)) + A2 f(x)),

whose constants A1 and A2 have closed forms, computed once per problem.

:func:`walk` is the one step loop.  Point estimates feed it tuples from a
numpy Generator, one realization per walk; coupled fields (fracwos.field)
feed it counter-based tuples shared by every walk of a realization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import betainc, gammaln

from .streams import batch_generator, johnk_beta_rng, unit_vectors

POINT_BATCH = 1 << 15  # fixed batch width; estimates are pure in (seed, M)
MAX_WALK_STEPS = 1_000_000


class MaxStepsExceededError(RuntimeError):
    """A walk failed to exit within the step cap (pathological path)."""


class NonFiniteStatisticError(ValueError):
    """A sample statistic, or the sample count it implies, is not finite.

    The alpha-stable exit law has finite moments only below order alpha, so
    data g growing like |x|^p needs p < alpha/2 for a finite variance; past
    that, sample moments overflow or are meaningless.  Names alpha, the term
    whose statistic failed and the statistic itself.
    """

    def __init__(self, alpha: float, term: str, name: str, value: float,
                 detail: str = "is not finite"):
        self.alpha, self.term, self.name, self.value = alpha, term, name, value
        super().__init__(
            f"{name} = {value!r} of the {term} at alpha = {alpha!r} {detail}; "
            f"data growing like |x|^p need p < alpha/2 for a finite variance")


def reg_inc_beta(t, alpha: float):
    """P(beta < t) for the exit-radius law Beta(alpha/2, (2-alpha)/2).

    scipy's regularized incomplete beta, with t > 1 - 1e-6 evaluated as the
    complement 1 - I_{1-t}(b, a), where 1 - t is exact: at alpha = 1 scipy's
    closed form for a = b = 1/2 loses accuracy near t = 1 (1e-9 absolute at
    1 - t = 1e-15).  Absolute accuracy below 1e-12; accepts scalars or
    arrays of t in [0, 1].
    """
    _check_alpha(alpha)
    t_arr = np.asarray(t, dtype=np.float64)
    if np.any(t_arr < -1e-12) or np.any(t_arr > 1.0 + 1e-12):
        raise ValueError("t must lie in [0, 1]")
    t1 = np.clip(np.atleast_1d(t_arr), 0.0, 1.0)
    a, b = 0.5 * alpha, 1.0 - 0.5 * alpha
    res = betainc(a, b, t1)
    tail = t1 > 1.0 - 1e-6
    if tail.any():
        res[tail] = 1.0 - betainc(b, a, 1.0 - t1[tail])
    return res.reshape(t_arr.shape) if t_arr.shape else float(res[0])


def _check_alpha(alpha: float) -> None:
    if not (0.0 < alpha < 2.0):
        raise ValueError(f"alpha must lie in (0, 2), got {alpha}")


def check_positive(name: str, value: float, above: float = 0.0) -> None:
    """Reject, by name, a value that is NaN, infinite or not above `above`."""
    if math.isnan(value):
        raise ValueError(f"{name} must not be NaN")
    if math.isinf(value):
        raise ValueError(f"{name} must be finite")
    if not value > above:
        raise ValueError(f"{name} must be positive" if above == 0.0
                         else f"{name} must be greater than {above:g}")


@dataclass(frozen=True)
class StableParams:
    """Precomputed constants of the source-term estimator for one alpha."""

    alpha: float
    a1: float
    a2: float

    def __post_init__(self):
        _check_alpha(self.alpha)
        if not (self.a1 > 0.0 and math.isfinite(self.a1)):
            raise ValueError("a1 must be positive and finite")
        if not (0.0 < self.a2 < 1.0):
            raise ValueError("a2 must lie in (0, 1)")


def make_params(alpha: float) -> StableParams:
    """Constants of the source estimator, both in closed form.

    a2 = E[(1 - beta)^(alpha/2)] = 2 sin(pi alpha/2) / (pi alpha); the sine
    is taken at min(alpha, 2 - alpha), which keeps 2 ulp accuracy near 2.
    """
    _check_alpha(alpha)
    a, b = 0.5 * alpha, 1.0 - 0.5 * alpha
    log_a1 = (math.log(2.0) * (1.0 - alpha) - math.log(alpha)
              - 2.0 * gammaln(a) + gammaln(b) + gammaln(a) - gammaln(a + b))
    a1 = math.exp(log_a1)
    a2 = (2.0 * math.sin(0.5 * math.pi * min(alpha, 2.0 - alpha))
          / (math.pi * alpha))
    return StableParams(alpha=alpha, a1=a1, a2=a2)


class PointEstimate(NamedTuple):
    mean: float
    variance: float
    total_steps: int


def walk(starts: np.ndarray, problem, count: int, draw):
    """The walk-outside-spheres loop: `count` realizations, each walking
    every start point.

    Each step asks the domain once, for d(x).  A walk with `not d > 0`
    (boundary, exterior or NaN) has exited with g at its position plus its
    source sum; every other walk adds F(x; S, Phi) to that sum and jumps to
    x + Theta d(x)/sqrt(beta), leaving the inscribed ball B(x, d(x)).
    `draw(n, rows)` returns step n's tuples (beta, Theta, S, Phi) for the
    realizations `rows` (ascending) with a live walk, so all walks of one
    realization consume the same tuple at their n-th step.  Returns
    (values (count, V), cost), the cost being the number of jumps (0 for a
    start already outside).  A walk still inside after MAX_WALK_STEPS jumps
    raises MaxStepsExceededError.

    The live walks' state is 1-D: positions are a (2, n) array, an x row
    and a y row, and the domain, f and g get its (n, 2) view pos.T.
    """
    starts = np.asarray(starts, dtype=np.float64)
    nv = starts.shape[0]
    alpha = problem.alpha
    params = problem.params
    inv_alpha = 1.0 / alpha

    pos = np.tile(starts.T, count)
    slot = np.arange(count * nv)
    acc = np.zeros(count * nv)
    out = np.empty(count * nv)
    cost = 0
    for n in range(MAX_WALK_STEPS + 1):
        d = problem.domain._distance(pos.T)
        inside = d > 0.0
        if not inside.all():
            left = ~inside
            out[slot[left]] = np.asarray(
                problem.g(np.compress(left, pos, axis=1).T)) + acc[left]
            pos = np.compress(inside, pos, axis=1)
            slot, acc, d = slot[inside], acc[inside], d[inside]
        if not slot.size:
            break
        if n == MAX_WALK_STEPS:
            raise MaxStepsExceededError(
                f"{slot.size} walks exceeded {MAX_WALK_STEPS} steps")
        cost += slot.size
        # rows: the live realizations, ascending; at: each walk's position
        # in rows, which indexes its realization's tuple
        rows, at = slot, slice(None)
        if nv > 1:
            rows = slot // nv                # each walk's realization
            first = np.r_[True, rows[1:] != rows[:-1]]
            rows, at = rows[first], np.cumsum(first) - 1
        beta, theta, s, phi = draw(n, rows)
        theta_x, theta_y, s_rad = theta[:, 0], theta[:, 1], s ** inv_alpha
        phi_x, phi_y = phi[:, 0], phi[:, 1]
        # the source point x + (d S^(1/alpha)) Phi, formed in place
        src = np.stack((phi_x[at], phi_y[at]))
        src *= d * s_rad[at]
        src += pos
        fy = problem.f(src.T)
        del src  # freed before f(x) and the sum run
        fx = problem.f(pos.T)
        diff = fy - fx
        del fy
        if diff.any():
            # the weight only multiplies f(y) - f(x): a step where that is
            # all zero (a constant f) keeps the same zeros without it
            weight = reg_inc_beta(1.0 - s ** (2.0 * inv_alpha), alpha)
            diff = diff * weight[at]
        acc += params.a1 * d ** alpha * (diff + params.a2 * fx)
        del fx, diff  # freed before the jump
        r = d / np.sqrt(beta[at])
        pos[0] += r * theta_x[at]
        pos[1] += r * theta_y[at]
    return out.reshape(count, nv), cost


def _generator_draw(alpha: float, rng: np.random.Generator):
    """A `walk` draw with fresh Generator tuples for every live realization."""
    def draw(n, rows):
        u_dir = rng.random(rows.size)
        u_src = rng.random(rows.size)
        u_s = rng.random(rows.size)
        beta = johnk_beta_rng(alpha, rng, rows.size)
        return beta, unit_vectors(u_dir), u_s, unit_vectors(u_src)
    return draw


def point_estimate(x, problem, M: int, seed: int) -> PointEstimate:
    """Sample mean and unbiased sample variance of M walk realizations at x.

    The estimator is unbiased for the solution value u(x).  Realizations run
    through :func:`walk` in batches of POINT_BATCH; batch b draws its tuples
    from the numpy Generator `batch_generator(seed, 0x90, b)`, so results
    are a pure function of (x, problem, M, seed).
    """
    if M < 2:
        raise ValueError("need at least two samples")
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ValueError("non-finite evaluation point")
    if not problem.domain.distance(x) > 0.0:  # already exited: no step
        g0 = float(np.asarray(problem.g(x[None, :])).ravel()[0])
        return PointEstimate(g0, 0.0, 0)
    total = np.zeros(3)
    for b, i0 in enumerate(range(0, M, POINT_BATCH)):
        draw = _generator_draw(problem.alpha, batch_generator(seed, 0x90, b))
        vals, steps = walk(x[None, :], problem, min(POINT_BATCH, M - i0), draw)
        vals = vals[:, 0]
        total += (vals.sum(), (vals * vals).sum(), steps)
    mean = total[0] / M
    var = (total[1] - M * mean * mean) / (M - 1)
    for name, value in (("mean", mean), ("variance", var)):
        if not np.isfinite(value):
            raise NonFiniteStatisticError(problem.alpha,
                                          f"point estimate at {tuple(x.tolist())}",
                                          name, float(value))
    return PointEstimate(float(mean), float(max(var, 0.0)), int(total[2]))
