"""Coupled field realizations: one walk per mesh vertex, shared randomness.

:func:`field_values` evaluates the walk functional at every interior vertex
of a mesh level, one row per realization key: step n of every vertex's path
consumes that key's step-n tuple, and paths that exit early simply stop
consuming.  Coarse vertices keep their indices on the finer level, so the
level-l values of a key are the first n_l columns of its level-(l+1)
values.  The multilevel fine-minus-coarse correction is therefore the fine
field minus the interpolant of its own prefix (:func:`batch_defects`), and
its variance decays with the mesh width -- that is the whole point of the
coupling.  :class:`FieldMoments` accumulates batches of such fields in the
L2 norm of the mass matrix, sqrt(v' M v).

The walk itself is :func:`fracwos.sampling.walk`: K independent
realizations (one key each) times V start vertices run as one flat array
program, with exited paths compressed away each step.  Its state is 1-D:
positions are a (2, K V) array, an x row and a y row, and each step
gathers the tuple columns of a walk's realization as 1-D arrays.  Step
tuples depend only on (key, step), so results are bit-identical no matter
how realizations are batched.  :func:`walk_starts` draws them in blocks of
_TUPLE_BLOCK steps, one `step_tuples` call per block, so the values do not
depend on the block width either.  :func:`field_values` walks its keys in
sub-blocks of at most _WALK_BUDGET walks (keys times interior vertices), so
a call's walk state stays bounded however many keys it is given; its output
is the only part that grows with them.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .mesh import MeshHierarchy, MeshLevel
from .problems import Problem
from .sampling import walk
from .streams import step_tuples


_TUPLE_BLOCK = 8  # walk steps of tuples drawn per step_tuples call
_WALK_BUDGET = 1 << 18  # walks (keys * interior vertices) per walk_starts call


class InsufficientSamplesError(ValueError):
    """Statistics over fewer than two samples were requested."""


def walk_starts(starts: np.ndarray, problem: Problem, keys: np.ndarray):
    """Walk every start point for each keyed realization.

    starts: (V, 2) points strictly inside the domain; keys: (K,) stream
    keys, one per realization.  All V paths of realization k consume that
    realization's step-n tuple at their n-th step.  Tuples are drawn in
    blocks of _TUPLE_BLOCK steps for the realizations with a live path at
    the block's first step; a tuple is pure in (key, step), so the values
    are those of one draw per step.  Returns (values (K, V), total steps).
    """
    keys = np.atleast_1d(np.asarray(keys, dtype=np.uint64))
    alpha = problem.alpha
    n0, block_rows, block = -_TUPLE_BLOCK, None, None

    def draw(n, rows):
        nonlocal n0, block_rows, block
        if n - n0 >= _TUPLE_BLOCK:
            n0, block_rows = n, rows
            steps = np.arange(n, n + _TUPLE_BLOCK, dtype=np.uint32)
            # step-major (steps, rows): each step's tuples are contiguous
            block = step_tuples(alpha, keys[rows][None, :], steps[:, None])
        # rows only shrink and stay ascending, so they index the block's rows
        at = (slice(None) if rows.size == block_rows.size
              else np.searchsorted(block_rows, rows))
        return tuple(v[n - n0, at] for v in block)

    return walk(starts, problem, keys.size, draw)


def field_values(level: MeshLevel, problem: Problem, keys: np.ndarray):
    """Field realizations at all vertices of a level, one row per key.

    Vertices inside the problem's domain get walk values; the rest get the
    exterior data g exactly (the solution equals g off the domain).  The
    keys are walked in sub-blocks of at most _WALK_BUDGET walks (at least
    one key each); a walk's value depends only on its own key, so the
    values do not depend on the sub-blocks.  Returns (values (K, N), total
    walk steps).
    """
    keys = np.atleast_1d(np.asarray(keys, dtype=np.uint64))
    interior = np.asarray(problem.domain.contains(level.vertices))
    vals = np.empty((keys.size, level.num_vertices))
    if (~interior).any():
        vals[:, ~interior] = np.asarray(problem.g(level.vertices[~interior]))
    cost = 0
    if interior.any():
        starts = level.vertices[interior]
        block = max(1, _WALK_BUDGET // starts.shape[0])
        for k in range(0, keys.size, block):
            walked, steps = walk_starts(starts, problem, keys[k:k + block])
            vals[k:k + block, interior] = walked
            cost += steps
    return vals, cost


def batch_defects(hier: MeshHierarchy, fine_vals: np.ndarray, ell: int) -> np.ndarray:
    """Fine-minus-coarse corrections of batched fine fields (rows) at
    transition ell -> ell+1: zero at inherited vertices, and at each new
    vertex its value minus the mean of its two parent values.

    The mean and the difference are formed in the output itself, so the
    parent values' gathers are the only other arrays of its size.
    """
    parents = hier.parents(ell + 1)
    nc = hier.level(ell).num_vertices
    out = np.zeros_like(fine_vals)
    pa, pb = parents[nc:, 0], parents[nc:, 1]
    new = out[:, nc:]
    np.add(fine_vals[:, pa], fine_vals[:, pb], out=new)
    new *= 0.5
    np.subtract(fine_vals[:, nc:], new, out=new)
    return out


def mass_matrix(level: MeshLevel, mask: np.ndarray) -> sparse.csr_matrix:
    """PL mass matrix over the triangles that `mask` selects; phi' M phi is
    the squared L2 norm over them of the piecewise-linear interpolant of phi."""
    tris = level.triangles[mask]
    areas = level.areas()[mask]
    local = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0
    data = (areas[:, None, None] * local).ravel()
    rows = np.repeat(tris, 3, axis=1).ravel()
    cols = np.tile(tris, (1, 3)).ravel()
    n = level.num_vertices
    return sparse.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()


def mass_norm(mass: sparse.csr_matrix, v: np.ndarray) -> float:
    """L2 norm sqrt(v' M v) of the interpolant of v under mass matrix M."""
    return float(np.sqrt(max(v @ (mass @ v), 0.0)))


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

    @property
    def mean_field(self) -> np.ndarray:
        return self.sum_vec / self.count

    @property
    def mean_norm(self) -> float:
        return mass_norm(self.mass, self.mean_field)

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

