"""Probability kernels of the walk-outside-spheres method.

The alpha-stable process exits the maximal inscribed ball B(x, d(x)) at
x + Theta d(x)/sqrt(beta) with beta ~ Beta(alpha/2, (2-alpha)/2) and Theta
uniform on the circle, so the walk jumps strictly outside the inscribed ball
at every step and exits the domain in finitely many steps almost surely --
there is no boundary-shell parameter in this method.  The source term is
accumulated along the walk via the estimator

    F(x; S, Phi) = A1 d(x)^alpha ((f(x + d(x) S^(1/alpha) Phi) - f(x))
                   * P(beta < 1 - S^(2/alpha)) + A2 f(x)),

whose constants A1 (closed form) and A2 (quadrature) are precomputed once
per alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np
from scipy import integrate
from scipy.special import betainc, gammaln

from .geometry import Domain
from .streams import RandomSequence, batch_generator, johnk_beta_rng

POINT_BATCH = 1 << 15  # fixed batch width; estimates are pure in (seed, M)


class DegenerateDistanceError(ValueError):
    """A walk step was requested from a point with zero boundary distance."""


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


@lru_cache(maxsize=128)
def make_params(alpha: float) -> StableParams:
    """Constants for the source estimator: a1 in closed form, a2 by quadrature."""
    _check_alpha(alpha)
    a, b = 0.5 * alpha, 1.0 - 0.5 * alpha
    log_a1 = (math.log(2.0) * (1.0 - alpha) - math.log(alpha)
              - 2.0 * gammaln(a) + gammaln(b) + gammaln(a) - gammaln(a + b))
    a1 = math.exp(log_a1)

    def integrand(z: float) -> float:
        return float(reg_inc_beta(1.0 - z ** (2.0 / alpha), alpha))

    a2, _ = integrate.quad(integrand, 0.0, 1.0, epsabs=1e-10, epsrel=1e-10,
                           limit=200)
    return StableParams(alpha=alpha, a1=a1, a2=a2)


def sample_beta(alpha: float, u1: float, u2: float, retries=None) -> float:
    """One Beta(alpha/2, (2-alpha)/2) variate by Johnk's generator.

    The first trial consumes (u1, u2); rejection retries consume further
    pairs from `retries` (a callable returning a uniform pair).  Without an
    owning stream the retries come from a substream derived from the bits of
    (u1, u2), keeping the result a pure function of the inputs.
    """
    _check_alpha(alpha)
    if not (0.0 < u1 < 1.0 and 0.0 < u2 < 1.0):
        raise ValueError("u1, u2 must be in (0, 1)")
    if retries is None:
        key = np.frombuffer(np.array([u1, u2]).tobytes(), dtype=np.uint64)
        rng = batch_generator(int(key[0] ^ key[1]), 0xBE7A)
        retries = lambda: tuple(rng.random(2))
    inv_a = 2.0 / alpha
    inv_b = 2.0 / (2.0 - alpha)
    while True:
        logx = inv_a * math.log(u1)
        logy = inv_b * math.log(u2)
        logsum = np.logaddexp(logx, logy)
        if logsum <= 0.0:
            return max(float(np.exp(logx - logsum)), 1e-280)
        u1, u2 = retries()


def wos_step(x, domain: Domain, beta: float, theta) -> np.ndarray:
    """One walk update x -> x + Theta d(x)/sqrt(beta).

    The jump length exceeds d(x) almost surely (beta < 1), so the walk
    leaves the inscribed ball exactly.
    """
    x = np.asarray(x, dtype=np.float64)
    d = float(domain.distance(x))
    if d <= 0.0:
        raise DegenerateDistanceError(f"no inscribed ball at {tuple(x)}")
    return x + np.asarray(theta, dtype=np.float64) * (d / math.sqrt(beta))


def f_term(x, s: float, phi, params: StableParams, f: Callable,
           domain: Domain) -> float:
    """Source-term contribution of one walk position.

    The sample point x + d(x) S^(1/alpha) Phi lies in the open inscribed
    ball, hence inside the domain.
    """
    x = np.asarray(x, dtype=np.float64)
    d = float(domain.distance(x))
    if d <= 0.0:
        raise DegenerateDistanceError(f"no inscribed ball at {tuple(x)}")
    if not (0.0 < s < 1.0):
        raise ValueError("s must be in (0, 1)")
    alpha = params.alpha
    y = x + d * s ** (1.0 / alpha) * np.asarray(phi, dtype=np.float64)
    w = float(reg_inc_beta(1.0 - s ** (2.0 / alpha), alpha))
    fx = float(np.asarray(f(x[None, :])).ravel()[0])
    fy = float(np.asarray(f(y[None, :])).ravel()[0])
    return params.a1 * d ** alpha * ((fy - fx) * w + params.a2 * fx)


@dataclass
class WosPath:
    """One realized walk: positions up to and including the exit point."""

    positions: np.ndarray
    exit_index: int
    steps_consumed: int


def run_path(x0, domain: Domain, seq: RandomSequence, offset: int = 0,
             max_steps: int = 1_000_000) -> WosPath:
    """Run one walk from x0, consuming entries offset, offset+1, ... of seq."""
    x = np.asarray(x0, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ValueError("non-finite start point")
    positions = [x.copy()]
    if not bool(domain.contains(x)):
        return WosPath(np.array(positions), 0, 0)
    for n in range(max_steps):
        beta, theta, _, _ = seq.entry(offset + n)
        x = wos_step(x, domain, beta, theta)
        positions.append(x.copy())
        if not bool(domain.contains(x)):
            return WosPath(np.array(positions), n + 1, n + 1)
    raise MaxStepsExceededError(f"walk from {tuple(x0)} exceeded {max_steps} steps")


class PointEstimate(NamedTuple):
    mean: float
    variance: float
    total_steps: int


def _walk_point_batch(x: np.ndarray, problem, seed: int, bindex: int,
                      count: int, max_steps: int):
    """Vectorized batch of independent walks from one start point.

    Returns (sum v, sum v^2, steps, exit-step histogram sums) for `count`
    independent realizations driven by the (seed, bindex) substream.
    """
    rng = batch_generator(seed, 0x90, bindex)
    domain = problem.domain
    alpha = problem.alpha
    params = problem.params
    pos = np.broadcast_to(x, (count, 2)).copy()
    acc = np.zeros(count)
    vals = np.empty(count)
    exit_steps = np.empty(count, dtype=np.int64)
    idx = np.arange(count)
    steps = 0
    for n in range(max_steps):
        if not idx.size:
            break
        a = idx.size
        steps += a
        d = domain._distance(pos)
        if np.any(d <= 0.0):
            # landed within one ulp of the boundary: already exited
            gone = d <= 0.0
            vals[idx[gone]] = np.asarray(problem.g(pos[gone])) + acc[gone]
            exit_steps[idx[gone]] = n
            keep = ~gone
            pos, acc, idx, d = pos[keep], acc[keep], idx[keep], d[keep]
            if not idx.size:
                break
            a = idx.size
        u_dir = rng.random(a)
        u_src = rng.random(a)
        u_s = rng.random(a)
        beta = johnk_beta_rng(alpha, rng, a)
        # source term
        w = reg_inc_beta(1.0 - u_s ** (2.0 / alpha), alpha)
        src = np.cos(2.0 * np.pi * u_src), np.sin(2.0 * np.pi * u_src)
        y = pos + (d * u_s ** (1.0 / alpha))[:, None] * np.column_stack(src)
        fx = problem.f(pos)
        fy = problem.f(y)
        acc += params.a1 * d ** alpha * ((fy - fx) * w + params.a2 * fx)
        # exit-law jump
        step_len = d / np.sqrt(beta)
        pos = pos + step_len[:, None] * np.column_stack(
            [np.cos(2.0 * np.pi * u_dir), np.sin(2.0 * np.pi * u_dir)])
        inside = domain._contains(pos)
        if not inside.all():
            out = ~inside
            vals[idx[out]] = np.asarray(problem.g(pos[out])) + acc[out]
            exit_steps[idx[out]] = n + 1
            pos, acc, idx = pos[inside], acc[inside], idx[inside]
    if idx.size:
        raise MaxStepsExceededError(f"{idx.size} walks exceeded {max_steps} steps")
    return vals.sum(), (vals * vals).sum(), steps, exit_steps


def point_estimate(x, problem, M: int, seed: int,
                   max_steps: int = 1_000_000) -> PointEstimate:
    """Sample mean and unbiased sample variance of M walk realizations at x.

    The estimator is unbiased for the solution value u(x).  Results are a
    pure function of (x, problem, M, seed); parallel callers can split over
    batch index and merge in order without changing them.
    """
    if M < 2:
        raise ValueError("need at least two samples")
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ValueError("non-finite evaluation point")
    if not bool(problem.domain.contains(x)):
        g0 = float(np.asarray(problem.g(x[None, :])).ravel()[0])
        return PointEstimate(g0, 0.0, 0)
    total = np.zeros(3)
    for b, i0 in enumerate(range(0, M, POINT_BATCH)):
        count = min(POINT_BATCH, M - i0)
        s, s2, steps, _ = _walk_point_batch(x, problem, seed, b, count, max_steps)
        total += (s, s2, steps)
    mean = total[0] / M
    var = (total[1] - M * mean * mean) / (M - 1)
    for name, value in (("mean", mean), ("variance", var)):
        if not np.isfinite(value):
            raise NonFiniteStatisticError(problem.alpha,
                                          f"point estimate at {tuple(x.tolist())}",
                                          name, float(value))
    return PointEstimate(float(mean), float(max(var, 0.0)), int(total[2]))


def exit_step_counts(x, problem, M: int, seed: int,
                     max_steps: int = 1_000_000) -> np.ndarray:
    """Exit step counts of M independent walks from x (diagnostics)."""
    counts = []
    for b, i0 in enumerate(range(0, M, POINT_BATCH)):
        count = min(POINT_BATCH, M - i0)
        *_, exits = _walk_point_batch(x, problem, seed, b, count, max_steps)
        counts.append(exits)
    return np.concatenate(counts)
