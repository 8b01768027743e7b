"""Inexact Arnoldi iteration for the smallest fractional-Laplacian eigenvalue.

The solution operator maps vertex values v to the solved field u of the
exterior-value problem with zero exterior data and source equal to the
piecewise-linear interpolant of v; its largest eigenvalue is the reciprocal
of the smallest eigenvalue of the discretized operator.  Each Arnoldi step
applies this operator by a multilevel walk solve, so the matrix-vector
products are inexact.  The per-step solve tolerance starts at tol/(B*m) and
is relaxed by the ratio of the current spectral gap to the previous
residual proxy, which is what makes later (cheaper) steps possible without
losing eigenvalue accuracy.  Each solve pilots at mlmc.PILOT_FLOOR samples
per term: relaxed steps plan fewer samples than any larger pilot, which
would walk past their plan and hide the saving.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield
from functools import partial

import numpy as np

from . import mlmc
from .mesh import MeshHierarchy, interpolate
from .problems import Problem, constant_field
from .sampling import check_count, check_positive
from .streams import derive_key

_BREAKDOWN = 1e-14
RELAX_CAP = 100.0


class ComplexLeadingRitzError(RuntimeError):
    """The leading Ritz value came out genuinely complex (diagnostic abort)."""


def leading_ritz(H: np.ndarray):
    """Leading (largest real part) eigenpair of a small dense matrix, and
    its spectral gap.

    The inverse operator is positivity-preserving, so the leading Ritz value
    is real in practice; a complex leading value aborts with a diagnostic.
    The eigenvector is normalized with a deterministic sign.  The gap is the
    distance from the leading Ritz value to the nearest other one, None for
    a 1x1 matrix.
    """
    vals, vecs = np.linalg.eig(H)
    idx = int(np.argmax(vals.real))
    theta = vals[idx]
    if abs(theta.imag) > 1e-9 * max(1.0, abs(theta.real)):
        raise ComplexLeadingRitzError(f"leading Ritz value {theta} is complex")
    w = vecs[:, idx]
    if np.abs(w.imag).max() > 1e-9:
        raise ComplexLeadingRitzError("leading Ritz vector is complex")
    w = w.real
    w = w / np.linalg.norm(w)
    pivot = int(np.argmax(np.abs(w)))
    if w[pivot] < 0:
        w = -w
    gap = (float(np.abs(np.delete(vals, idx) - theta).min())
           if vals.size > 1 else None)
    return float(theta.real), w, gap


def wos_tolerance(tol: float, B: float, m: int, gap: float | None,
                  r_prev: float | None) -> float:
    """Per-step solve tolerance: base tol/(B m), relaxed by gap/residual.

    The relaxation factor is floored at 1 (never tighter than the base) and
    capped at RELAX_CAP so one noisy residual cannot blow up a run.  `m` is
    checked by `run_arnoldi`.
    """
    check_positive("tol", tol)
    check_positive("B", B, above=1.0)
    base = tol / (B * m)
    if gap is None or r_prev is None:
        return base
    with np.errstate(divide="ignore"):
        ratio = gap / r_prev if r_prev > 0 else np.inf
    return base * float(min(max(ratio, 1.0), RELAX_CAP))


@dataclass
class ArnoldiState:
    """Orthonormal Krylov basis, growing Hessenberg matrix, and one row per
    step, keyed k, theta, lambda, residual, gap, wos_tol, cost (iters.csv)."""

    basis: list
    H: np.ndarray
    breakdown: bool = False
    history: list = dfield(default_factory=list)

    @property
    def cost_history(self) -> list:
        # read-only: perfbench/tracing.py reads out.state.cost_history[2:],
        # and the benchmark's code does not change with the library's
        return [row["cost"] for row in self.history]


@dataclass
class EigenResult:
    lam: float
    theta: float
    residual: float
    iterations: int
    total_cost: int
    state: ArnoldiState

    @property
    def history(self):
        return self.state.history


def run_arnoldi(apply_op, v0, m, tol, B, variable=True) -> EigenResult:
    """m inexact Arnoldi steps: apply, orthogonalize, update Ritz data.

    `apply_op(v, wos_tol, k)` must return (A^{-1} v estimate, cost).
    Classical Gram-Schmidt with one reorthogonalization pass keeps the
    basis orthonormal; a vanishing continuation norm declares a converged
    invariant subspace and ends the iteration.  Without `variable`, every
    step gets the base tolerance tol/(B m).
    """
    check_count("m", m, 2)
    v0 = np.asarray(v0, dtype=np.float64)
    if v0.ndim != 1:
        raise ValueError("start vector must be a 1-D vector")
    if not np.isfinite(v0).all():
        raise ValueError("start vector must be finite")
    nrm = np.linalg.norm(v0)
    if nrm == 0:
        raise ValueError("zero start vector")
    state = ArnoldiState(basis=[v0 / nrm], H=np.zeros((m + 1, m)))
    prev_gap = None       # spectral gap of the previous step's Ritz values
    while len(state.history) < m and not state.breakdown:
        k = len(state.history) + 1
        gap = prev_gap if variable else None
        r_prev = state.history[-1]["residual"] if state.history else None
        wtol = wos_tolerance(tol, B, m, gap, r_prev)

        u, cost = apply_op(state.basis[k - 1], wtol, k)
        u = np.asarray(u, dtype=np.float64)

        V = np.column_stack(state.basis)
        h = V.T @ u
        u = u - V @ h
        h2 = V.T @ u          # one reorthogonalization pass
        u = u - V @ h2
        h = h + h2
        state.H[:k, k - 1] = h
        h_next = float(np.linalg.norm(u))
        state.H[k, k - 1] = h_next

        theta, w, prev_gap = leading_ritz(state.H[:k, :k])
        state.history.append({"k": k, "theta": theta, "lambda": 1.0 / theta,
                              "residual": h_next * abs(w[-1]), "gap": gap,
                              "wos_tol": wtol, "cost": cost})
        if h_next < _BREAKDOWN:
            state.breakdown = True
        else:
            state.basis.append(u / h_next)
    return EigenResult(lam=1.0 / theta, theta=theta,
                       residual=state.history[-1]["residual"], iterations=k,
                       total_cost=int(sum(row["cost"] for row in state.history)),
                       state=state)


def apply_inverse(v, alpha: float, hier: MeshHierarchy, rms_tol: float,
                  seed: int, l0: int):
    """Solve with source equal to the interpolant of v and zero exterior data.

    `rms_tol` is the per-vertex root-mean-square accuracy (the Euclidean
    norm of the error vector divided by sqrt(N)); the field solver's L2
    tolerance is rms_tol * sqrt(masked area).  The telescope starts at l0.
    It pilots at mlmc.PILOT_FLOOR samples per term: a relaxed step plans
    fewer than any larger pilot would walk, and a term that plans more is
    extended to its plan.  Returns (vertex values, cost).
    """
    check_positive("rms_tol", rms_tol)
    level = hier.level(hier.finest)
    vals = np.asarray(v, dtype=np.float64)
    if vals.ndim != 1:
        raise ValueError("v must be a 1-D vector")
    if vals.shape[0] != level.num_vertices:
        raise ValueError("vector length does not match the finest level")
    if not np.isfinite(vals).all():
        raise ValueError("v must be finite")
    if not np.any(vals):
        return np.zeros_like(vals), 0
    problem = Problem(alpha=alpha, domain=hier.domain,
                      f=partial(interpolate, level, vals), g=constant_field(0.0),
                      name="inverse-apply")
    eps_l2 = rms_tol * np.sqrt(hier.masked_area(hier.finest))
    res = mlmc.run(hier, problem, eps_l2, l0, seed, mlmc.PILOT_FLOOR,
                   fixed_L=hier.finest)
    return res.solution.values, res.total_cost


def smallest_eigenvalue(alpha: float, hier: MeshHierarchy, tol: float,
                        B: float, m: int, seed: int, l0: int,
                        workers: int = 1, variable_accuracy: bool = True
                        ) -> EigenResult:
    """Smallest eigenvalue of the fractional Laplacian on the meshed domain.

    Runs m inexact Arnoldi steps from the normalized interior indicator
    (positive, hence overlapping the principal eigenfunction) and returns
    1/theta for the leading Ritz pair.  `workers` is kept for old callers;
    sampling runs in this process, so it must be 1.
    """
    if workers != 1:
        raise ValueError("workers must be 1: sampling runs in this process")
    inside = hier.domain.contains(hier.level(hier.finest).vertices)
    if not np.any(inside):
        raise ValueError("hierarchy has no interior vertices")
    v0 = inside.astype(np.float64)

    def apply_op(vec, wtol, k):
        # an independent solver seed per Arnoldi step
        return apply_inverse(vec, alpha, hier, wtol,
                             int(derive_key(seed, 0xA7, k)), l0=l0)

    return run_arnoldi(apply_op, v0, m, tol, B, variable=variable_accuracy)
