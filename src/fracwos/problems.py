"""Benchmark exterior-value problems on the unit ball.

Each problem bundles the fractional order, the domain, the interior source
f, the exterior data g (defined on the whole complement, not just the
boundary), and, where known, the exact solution for error reporting.
Scalar fields are plain vectorized functions (closures here) mapping an
(N, 2) float64 point array to an (N,) value array; the array may be a
strided view (the walk passes the transpose of its (2, N) positions).
Fields must be elementwise: a point's value may not depend on the other
points in the call, which is what makes walk values independent of
batching.  g must accept arbitrary finite points since the alpha-stable
exit overshoots the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield
from typing import Callable

import numpy as np
from scipy.special import gamma

from .geometry import Domain, unit_ball
from .sampling import StableParams, _check_alpha, make_params


def _r2(pts: np.ndarray) -> np.ndarray:
    pts = np.asarray(pts, dtype=np.float64)
    return pts[..., 0] ** 2 + pts[..., 1] ** 2


def constant_field(value: float) -> Callable:
    value = float(value)
    return lambda pts: np.full(np.asarray(pts).shape[:-1], value)


def _ball_poly(coeff: float, power: float) -> Callable:
    """c * (1 - |x|^2)_+^p  (zero outside the unit ball)."""
    coeff, power = float(coeff), float(power)
    return lambda pts: coeff * np.maximum(1.0 - _r2(pts), 0.0) ** power


@dataclass(frozen=True)
class Problem:
    """One exterior-value problem instance (`make_params` checks alpha)."""

    alpha: float
    domain: Domain
    f: Callable
    g: Callable
    exact: Callable | None = None
    name: str = "custom"
    params: StableParams = dfield(init=False)

    def __post_init__(self):
        object.__setattr__(self, "params", make_params(self.alpha))


def example1(alpha: float) -> Problem:
    """Unit source, zero exterior data, on the unit ball.

    The solution is the mean first-exit time of the alpha-stable process:
    u(x) = (1 - |x|^2)^(alpha/2) / (2^alpha Gamma(1 + alpha/2)^2).
    """
    _check_alpha(alpha)  # before 2^alpha can overflow
    coeff = 1.0 / (2.0 ** alpha * gamma(1.0 + alpha / 2.0) ** 2)
    return Problem(alpha=alpha, domain=unit_ball(),
                   f=constant_field(1.0), g=constant_field(0.0),
                   exact=_ball_poly(coeff, alpha / 2.0), name="example1")


def example2(alpha: float) -> Problem:
    """Polynomial source whose solution is u(x) = (1 - |x|^2)^(1 + alpha/2)."""
    _check_alpha(alpha)  # before 2^alpha can overflow
    scale = 2.0 ** alpha * gamma(2.0 + alpha / 2.0) * gamma(1.0 + alpha / 2.0)
    return Problem(alpha=alpha, domain=unit_ball(),
                   f=lambda pts: (1.0 - (1.0 + alpha / 2.0) * _r2(pts)) * scale,
                   g=constant_field(0.0),
                   exact=_ball_poly(1.0, 1.0 + alpha / 2.0), name="example2")


def example3(alpha: float) -> Problem:
    """Oscillatory exterior data g = sin(|x|^2) with source f = 2 + |x|^2.

    Less regular coefficients; no closed-form solution is attached.
    """
    return Problem(alpha=alpha, domain=unit_ball(),
                   f=lambda pts: 2.0 + _r2(pts), g=lambda pts: np.sin(_r2(pts)),
                   name="example3")


BY_NAME = {"example1": example1, "example2": example2, "example3": example3}


def by_name(name: str, alpha: float) -> Problem:
    try:
        return BY_NAME[name](alpha)
    except KeyError:
        raise ValueError(f"unknown problem {name!r}; "
                         f"choose from {sorted(BY_NAME)} or build a custom one")
