"""Coupled field realizations: one walk per mesh vertex, shared randomness.

A field sample evaluates the walk functional at every interior vertex of a
mesh level using a single tuple stream: step n of every vertex's path
consumes entry n, and paths that exit early simply stop consuming.  Because
the fine and coarse interpolants of one realization agree at inherited
vertices, the multilevel fine-minus-coarse correction is exactly the
midpoint defect of the fine field, and its variance decays with the mesh
width -- that is the whole point of the coupling.

The walk itself is :func:`fracwos.sampling.walk`: K independent
realizations (one key each) times V start vertices run as one flat array
program, with exited paths compressed away each step.  Step tuples depend
only on (key, step), so results are bit-identical no matter how
realizations are batched or distributed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy import sparse

from .mesh import FieldVector, MeshHierarchy, MeshLevel, midpoint_defect, restrict
from .problems import Problem
from .sampling import MAX_WALK_STEPS, walk
from .streams import RandomSequence, step_tuples


class InsufficientSamplesError(ValueError):
    """Statistics over fewer than two samples were requested."""


@dataclass
class FieldSample:
    """A coupled fine/coarse pair from one field realization."""

    fine: FieldVector
    coarse: FieldVector
    cost: int


def walk_starts(starts: np.ndarray, problem: Problem, keys: np.ndarray,
                max_steps: int = MAX_WALK_STEPS):
    """Walk every start point for each keyed realization.

    starts: (V, 2) points strictly inside the domain; keys: (K,) stream
    keys, one per realization.  All V paths of realization k consume that
    realization's step-n tuple at their n-th step; tuples are drawn only for
    realizations with a live path.  Returns (values (K, V), total steps).
    """
    keys = np.atleast_1d(np.asarray(keys, dtype=np.uint64))
    alpha = problem.alpha
    return walk(starts, problem, keys.size,
                lambda n, rows: step_tuples(alpha, keys[rows], np.uint32(n)),
                max_steps)


def field_values(level: MeshLevel, problem: Problem, keys: np.ndarray,
                 max_steps: int = MAX_WALK_STEPS):
    """Field realizations at all vertices of a level, one row per key.

    Interior vertices get walk values; the rest get the exterior data g
    exactly (the solution equals g off the domain).
    """
    keys = np.atleast_1d(np.asarray(keys, dtype=np.uint64))
    interior = level.interior_mask
    if interior is None:
        interior = np.asarray(problem.domain.contains(level.vertices))
    vals = np.empty((keys.size, level.num_vertices))
    if (~interior).any():
        vals[:, ~interior] = np.asarray(problem.g(level.vertices[~interior]))
    cost = 0
    if interior.any():
        walked, cost = walk_starts(level.vertices[interior], problem, keys,
                                   max_steps)
        vals[:, interior] = walked
    return vals, cost


def sample_field(level: MeshLevel, problem: Problem, seq: RandomSequence,
                 max_steps: int = MAX_WALK_STEPS):
    """One field realization driven by the given tuple sequence."""
    if seq.alpha != problem.alpha:
        raise ValueError("sequence and problem disagree on alpha")
    vals, cost = field_values(level, problem, np.array([seq.key]), max_steps)
    return FieldVector(level.level, vals[0]), cost


def sample_pair(hier: MeshHierarchy, ell: int, problem: Problem,
                seq: RandomSequence, max_steps: int = MAX_WALK_STEPS) -> FieldSample:
    """One coupled fine/coarse pair across the transition ell -> ell+1.

    The realization is evaluated once at the fine vertices; the coarse field
    is its restriction, because inherited vertices see identical paths.
    """
    fine, cost = sample_field(hier.level(ell + 1), problem, seq, max_steps)
    return FieldSample(fine=fine, coarse=restrict(hier, fine), cost=cost)


def batch_defects(hier: MeshHierarchy, fine_vals: np.ndarray, ell: int) -> np.ndarray:
    """Midpoint defects of batched fine fields (rows) at transition ell -> ell+1."""
    parents = hier.parents(ell + 1)
    nc = hier.level(ell).num_vertices
    out = np.zeros_like(fine_vals)
    pa, pb = parents[nc:, 0], parents[nc:, 1]
    out[:, nc:] = fine_vals[:, nc:] - 0.5 * (fine_vals[:, pa] + fine_vals[:, pb])
    return out


def mass_matrix(level: MeshLevel, mask: np.ndarray | None = None) -> sparse.csr_matrix:
    """PL mass matrix over (masked) triangles; phi' M phi is the squared
    L2 norm of the interpolant, identical to the midpoint cubature."""
    tris = level.triangles if mask is None else level.triangles[mask]
    areas = level.areas() if mask is None else level.areas()[mask]
    t = tris.shape[0]
    local = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0
    data = (areas[:, None, None] * local).ravel()
    rows = np.repeat(tris, 3, axis=1).ravel()
    cols = np.tile(tris, (1, 3)).ravel()
    n = level.num_vertices
    return sparse.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()


class FieldMoments:
    """Streaming first/second moments of field batches in the masked L2 sense.

    Accumulates the vector sum and the sum of squared norms, which is all
    the multilevel estimator needs: mean field, unbiased sample variance
    E||d - Ed||^2, and mean cost.
    """

    def __init__(self, mass: sparse.csr_matrix):
        self.mass = mass
        self.sum_vec = np.zeros(mass.shape[0])
        self.sum_sq = 0.0
        self.count = 0
        self.cost = 0

    def add(self, vals: np.ndarray, cost: int) -> None:
        vals = np.atleast_2d(vals)
        self.sum_vec += vals.sum(axis=0)
        self.sum_sq += float(np.einsum("kn,kn->", vals @ self.mass, vals))
        self.count += vals.shape[0]
        self.cost += cost

    def merge(self, other: "FieldMoments") -> None:
        self.sum_vec += other.sum_vec
        self.sum_sq += other.sum_sq
        self.count += other.count
        self.cost += other.cost

    @property
    def mean_field(self) -> np.ndarray:
        return self.sum_vec / self.count

    @property
    def mean_norm(self) -> float:
        m = self.mean_field
        return float(np.sqrt(max(m @ (self.mass @ m), 0.0)))

    @property
    def variance(self) -> float:
        if self.count < 2:
            raise InsufficientSamplesError("need at least two samples")
        m = self.mean_field
        mean_sq = float(m @ (self.mass @ m))
        return max((self.sum_sq - self.count * mean_sq) / (self.count - 1), 0.0)

    @property
    def mean_cost(self) -> float:
        return self.cost / self.count


def defect_statistics(samples: Iterable[FieldSample], hier: MeshHierarchy):
    """Unbiased variance of the coupled corrections, plus mean cost.

    The correction of each sample is its midpoint defect; the variance is
    taken in the masked L2 sense.  Returns (V_hat, C_hat, M_used).
    """
    moments = None
    for smp in samples:
        if moments is None:
            ell_fine = smp.fine.level
            moments = FieldMoments(mass_matrix(hier.level(ell_fine),
                                               hier.norm_mask(ell_fine)))
        d = midpoint_defect(hier, smp.fine)
        moments.add(d.values[None, :], smp.cost)
    if moments is None or moments.count < 2:
        raise InsufficientSamplesError("need at least two coupled samples")
    return moments.variance, moments.mean_cost, moments.count
