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

scipy.special is imported by the functions that call it, on first use, so
`import fracwos` and the assumption checks load no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count
from typing import NamedTuple

import numpy as np

from .streams import batch_generator, johnk_beta_rng, unit_vectors

POINT_BATCH = 1 << 15  # live walks (lanes) of a point-estimate walk call
_POINT_CALL = 8 * POINT_BATCH  # walks per call; estimates are pure in (seed, M)
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
    arrays of t in [0, 1] and rejects NaN.
    """
    from scipy.special import betainc
    _check_alpha(alpha)
    t_arr = np.asarray(t, dtype=np.float64)
    if not np.all((t_arr >= -1e-12) & (t_arr <= 1.0 + 1e-12)):  # NaN fails
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


def check_count(name: str, value, least: int) -> None:
    """Reject, by name, a non-integer count (NaN, 10.0) or one below `least`."""
    if not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}")


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
    from scipy.special import gammaln
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


def walk(starts: np.ndarray, problem, draw, realization=None, lanes=None):
    """The walk-outside-spheres loop: one walk from each of the (W, 2)
    `starts`, walk i in realization `realization[i]` (ascending; default i).

    Each step asks the domain once, for d(x).  A walk with `not d > 0`
    (boundary, exterior or NaN) has exited with g at its position plus its
    source sum; every other walk adds F(x; S, Phi) to that sum and jumps to
    x + Theta d(x)/sqrt(beta), leaving the inscribed ball B(x, d(x)).
    `draw(n, rows)` returns loop iteration n's tuples (beta, Theta, S, Phi)
    for the realizations `rows` (ascending) with a live walk, so all walks
    of one realization consume the same tuple at their n-th step.  Returns
    (values (W,), steps (W,)), a walk's steps being its jumps (0 for a
    start already outside).  A walk still inside after MAX_WALK_STEPS of
    its own jumps raises MaxStepsExceededError.

    With `lanes` (not with `realization`), at most `lanes` walks are live:
    whenever fewer than half are, the next starts are admitted in order, up
    to `lanes`, so a few long walks do not run alone.  Iteration n is then
    the own step n only of the walks admitted at iteration 0.

    The live walks' state is 1-D: positions are a (2, n) array, an x row
    and a y row, and the domain, f and g get its (n, 2) view pos.T.  Exits
    are compacted away by index; live walks are counted per realization,
    whose tuple reaches its (adjacent) walks by np.repeat.
    """
    if lanes is not None and realization is not None:
        raise ValueError("lanes cannot be combined with realization")
    starts = np.asarray(starts, dtype=np.float64)
    width = starts.shape[0]
    lanes = width if lanes is None else lanes
    alpha = problem.alpha
    params = problem.params
    inv_alpha = 1.0 / alpha

    pos, slot, acc, admitted = np.empty((2, 0)), np.arange(0), np.empty(0), 0
    out = np.empty(width)
    # -(iteration of admission) until the exit adds its iteration; a walk's
    # jumps are at most MAX_WALK_STEPS
    steps = np.empty(width, dtype=np.int32)
    # live walks per realization; None: each walk is its own realization
    live = None if realization is None else np.bincount(realization)

    def spread(v, axis=None):  # a row's value for each of its cnt walks
        if live is None:  # the walks are the rows; (2, rows) pairs fresh
            return v if axis is None else v.copy()
        return np.repeat(v, cnt, axis=axis)

    for n in count():
        if 2 * slot.size < lanes and admitted < width:
            a, b = admitted, min(admitted + lanes - slot.size, width)
            pos = np.concatenate((pos, starts[a:b].T), axis=1)  # a copy
            slot = np.concatenate((slot, np.arange(a, b)))
            acc = np.concatenate((acc, np.zeros(b - a)))
            steps[a:b] = -n
            admitted = b
            if admitted == width:
                starts = None  # a caller's temporary is freed while walking
        d = problem.domain._distance(pos.T)
        inside = d > 0.0
        if not inside.all():
            keep, left = np.flatnonzero(inside), np.flatnonzero(~inside)
            gone = slot.take(left)
            out[gone] = np.asarray(
                problem.g(pos.take(left, axis=1).T)) + acc.take(left)
            steps[gone] += n
            if live is not None:
                live -= np.bincount(realization[gone], minlength=live.size)
            pos = pos.take(keep, axis=1)
            slot, acc, d = slot.take(keep), acc.take(keep), d.take(keep)
        if not slot.size:
            if admitted == width:
                break
            continue
        # the first live walk was admitted first, so it has jumped the most
        if n + steps[slot[0]] >= MAX_WALK_STEPS:
            capped = np.count_nonzero(n + steps[slot] >= MAX_WALK_STEPS)
            raise MaxStepsExceededError(
                f"{capped} walks exceeded {MAX_WALK_STEPS} steps")
        rows = slot  # the live realizations, ascending
        if live is not None:
            rows = np.flatnonzero(live)
            cnt = live[rows]
        beta, theta, s, phi = draw(n, rows)
        # the source point x + (d S^(1/alpha)) Phi, formed in place
        src = spread(phi.T, axis=1)
        src *= d * spread(s ** inv_alpha)
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
            diff = diff * spread(weight)
        acc += params.a1 * d ** alpha * (diff + params.a2 * fx)
        del fx, diff  # freed before the jump
        th = spread(theta.T, axis=1)
        th *= d / spread(np.sqrt(beta))  # sqrt per row: correctly rounded
        pos += th
    return out, steps


def _generator_draw(alpha: float, rng: np.random.Generator):
    """A `walk` draw with fresh Generator tuples for every live realization."""
    def draw(n, rows):
        u = rng.random((3, rows.size))  # direction, source direction, S
        beta = johnk_beta_rng(alpha, rng, rows.size)
        theta, phi = unit_vectors(u[:2])
        return beta, theta, u[2], phi
    return draw


def point_estimate(x, problem, M: int, seed: int) -> PointEstimate:
    """Sample mean and unbiased sample variance of M walk realizations at x.

    The estimator is unbiased for the solution value u(x).  Realizations run
    through :func:`walk` in calls of _POINT_CALL walks, each through
    POINT_BATCH lanes that are refilled as walks exit, so a call's few long
    walks do not run alone; call b draws its tuples from the numpy Generator
    `batch_generator(seed, 0x90, b)`, so results are a pure function of
    (x, problem, M, seed).  No array grows with M.  A start outside the
    domain returns g(x) with no step; a non-finite mean or variance, g(x)
    included, raises NonFiniteStatisticError.
    """
    check_count("M", M, 2)
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (2,):
        raise ValueError(f"x must be one (2,) point, got shape {x.shape}")
    total, shift = np.zeros(3), None  # sums about the first call's mean
    if problem.domain.distance(x) > 0.0:
        for b, i0 in enumerate(range(0, M, _POINT_CALL)):
            draw = _generator_draw(problem.alpha,
                                   batch_generator(seed, 0x90, b))
            starts = np.broadcast_to(x, (min(_POINT_CALL, M - i0), 2))
            vals, steps = walk(starts, problem, draw, lanes=POINT_BATCH)
            shift = vals.mean() if shift is None else shift
            vals -= shift  # squared in place: no temporary of the call size
            total += (vals.sum(), np.square(vals, out=vals).sum(), steps.sum())
            del vals, steps  # freed before the next call walks
        mean = shift + total[0] / M
        var = (total[1] - total[0] * (total[0] / M)) / (M - 1)
    else:  # already exited: no step
        mean, var = np.asarray(problem.g(x[None, :])).ravel()[0], 0.0
    for name, value in (("mean", mean), ("variance", var)):
        if not np.isfinite(value):
            raise NonFiniteStatisticError(problem.alpha,
                                          f"point estimate at {tuple(x.tolist())}",
                                          name, float(value))
    return PointEstimate(float(mean), float(max(var, 0.0)), int(total[2]))
