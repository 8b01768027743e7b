"""Coupled field realizations: one walk per mesh vertex, shared randomness.

:func:`field_values` evaluates the walk functional at every interior vertex
of a mesh level, one row per realization key: step n of every vertex's path
consumes that key's step-n tuple, and paths that exit early simply stop
consuming.  Coarse vertices keep their indices on the finer level, so the
level-l values of a key are the first n_l columns of its level-(l+1)
values.  The multilevel fine-minus-coarse correction (:func:`batch_defects`)
is therefore the fine field minus `mesh.prolong` of its own prefix, and its
variance decays with the mesh width -- that is the whole point of the
coupling.  :class:`FieldMoments` accumulates batches of such fields in the
masked L2 norm sqrt(v' M v), the P1 mass matrix M in element form, read by
:func:`squared_norms` alone: sum_T |T|/12 ((a+b+c)^2 + a^2 + b^2 + c^2).

The walk itself is :func:`fracwos.sampling.walk`: flat (W, 2) start
points, each with the index of its realization (one key each), run as one
array program on 1-D state: positions are a (2, W) array, an x row and a y
row.  Each step compacts exited paths away by index, keeps a live-walk
count per realization and spreads each tuple to its walks by np.repeat.  Step
tuples depend only on (key, step), so results are bit-identical no matter
how realizations are batched.  :func:`walk_starts` hands `walk` the starts
of a list of keys and draws their tuples in blocks of _TUPLE_BLOCK steps,
one `step_tuples` call per block, so the values do not depend on the block
width either.  :func:`field_values` is the one field walker, and the one
planner of walk calls: it streams (level, keys) spans, such as all spans of
an MLMC phase, and walks their keys in order, in walk_starts calls of at
most _WALK_BUDGET walks (keys times interior vertices).  Small spans share a
call, and so the loop's per-step cost, and a large span's walk state stays
bounded however many keys it has; its output is the only part that grows.
"""

from __future__ import annotations

import numpy as np

from .mesh import MeshHierarchy, MeshLevel, prolong
from .problems import Problem
from .sampling import walk
from .streams import step_tuples


_TUPLE_BLOCK = 8  # walk steps of tuples drawn per step_tuples call
_WALK_BUDGET = 1 << 18  # walks (keys * interior vertices) per walk_starts call


class InsufficientSamplesError(ValueError):
    """Statistics over fewer than two samples were requested."""


def walk_starts(starts, problem: Problem, keys: np.ndarray):
    """Walk keyed realizations: starts[k] holds the (n_k, 2) start points of
    the walks of realization keys[k].

    The walks run flat, in order, in one :func:`fracwos.sampling.walk` call,
    and all paths of a realization consume its step-n tuple at their n-th
    step.  Tuples are drawn in blocks of _TUPLE_BLOCK steps for the
    realizations with a live path at the block's first step; a tuple is pure
    in (key, step), so the values are those of one draw per step.  Returns
    (values (W,), total steps, steps per walk (W,)).
    """
    keys = np.atleast_1d(np.asarray(keys, dtype=np.uint64))
    realization = np.repeat(np.arange(keys.size, dtype=np.int32),
                            [len(s) for s in starts])
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

    # the flat starts, formed in the call, are freed once walk has copied them
    values, steps = walk(np.concatenate(starts), problem, draw, realization)
    return values, int(steps.sum()), steps


def field_values(spans, problem: Problem):
    """Field realizations at all vertices of each span's level, one row per
    key of the span, for a (lazy) iterable of (level, (K,) keys) spans.

    Vertices inside the problem's domain get walk values; the rest get the
    exterior data g exactly (the solution equals g off the domain).  The
    keys of all spans are walked in order, in walk_starts calls of at most
    _WALK_BUDGET walks (keys times interior vertices), cut between keys and
    at least one key each; a walk's value depends only on its own key, so
    the values do not depend on the cuts.  Yields (values (K, N), total walk
    steps) for each span, in order, once the call holding its last key has
    walked.  A span's rows are written as they walk, and its g once its last
    key is in the open call, so a span read ahead takes no memory but its
    walked rows, and no yielded span is held here while a call walks.
    """
    call, size, ended = [], 0, []  # the open call's parts; spans it ends
    for level, keys in spans:
        interior = np.asarray(problem.domain.contains(level.vertices))
        starts = level.vertices[interior]
        span = [np.empty((len(keys), level.num_vertices)), 0]  # values, steps
        n, r = len(starts), 0
        while r < len(keys):
            if size and size + n > _WALK_BUDGET:  # the next key opens a call
                _walk_call(call, problem)
                call, size = [], 0
                while ended:
                    yield tuple(ended.pop(0))
            take = min(len(keys) - r, max(1, (_WALK_BUDGET - size) // max(n, 1)))
            call.append((span, interior, starts, keys[r:r + take], r))
            size, r = size + take * n, r + take
        if not interior.all():
            span[0][:, ~interior] = np.asarray(
                problem.g(level.vertices[~interior]))
        ended.append(span)
    if call:
        _walk_call(call, problem)
    while ended:
        yield tuple(ended.pop(0))


def _walk_call(call, problem: Problem) -> None:
    """Walk one call's (span, interior, starts, keys, first row) parts in one
    walk_starts call, and write each part's values and steps to its span."""
    values, _, steps = walk_starts(
        [starts for _, _, starts, keys, _ in call for _ in keys], problem,
        np.concatenate([keys for _, _, _, keys, _ in call]))
    at = 0
    for span, interior, starts, keys, r in call:
        k, width = len(keys), len(keys) * len(starts)
        span[0][r:r + k, interior] = values[at:at + width].reshape(k, -1)
        span[1] += int(steps[at:at + width].sum())
        at += width


def batch_defects(hier: MeshHierarchy, fine_vals: np.ndarray, ell: int) -> np.ndarray:
    """Fine-minus-coarse corrections of batched fine fields (rows) at
    transition ell -> ell+1: each row minus `prolong` of its own level-ell
    prefix, subtracted in prolong's output.  So +0.0 at inherited vertices,
    and at each new vertex its value minus the mean of its parent values."""
    fine = hier.level(ell + 1)
    out = prolong(fine, fine_vals[:, :fine.parent.num_vertices])
    return np.subtract(fine_vals, out, out=out)


def mass_matrix(level: MeshLevel, mask: np.ndarray):
    """Element form of the P1 mass matrix over the triangles that `mask`
    selects: their corner indices, (3, T) contiguous, and weights |T|/12."""
    return (np.ascontiguousarray(level.triangles[mask].T),
            level.areas()[mask] / 12.0)


def norm_mass(hier: MeshHierarchy, ell: int):  # over level ell's norm mask
    return mass_matrix(hier.level(ell), hier.norm_mask(ell))


def squared_norms(mass, v: np.ndarray):
    """v' M v of a vector, or of each row of a 2-D array, for the element
    form M of :func:`mass_matrix`; a sum of squares, so never negative."""
    x = np.take(v, mass[0], axis=-1)  # (..., 3, T) corner values
    q = x.sum(axis=-2) ** 2 + np.einsum("...ct,...ct->...t", x, x)
    return q @ mass[1]


def mass_norm(mass, v: np.ndarray) -> float:
    """L2 norm sqrt(v' M v) of the interpolant of v under mass matrix M."""
    return float(np.sqrt(squared_norms(mass, v)))


class FieldMoments:
    """Streaming first/second moments of field batches in the masked L2 sense.

    Accumulates the vector sum and the sum of squared norms about a fixed
    shift K, the first batch's mean field, which is all the multilevel
    estimator needs: mean field, unbiased sample variance E||d - Ed||^2, and
    mean cost.  The shift keeps the variance's digits when the mean's norm
    dwarfs the spread.
    """

    def __init__(self, mass):
        self.mass = mass
        self.sum_vec = 0.0  # the vector sum from the first add on
        self.shift = None
        self.sum_sq = 0.0  # sum of ||v - shift||^2
        self.count = 0
        self.cost = 0

    def add(self, vals: np.ndarray, cost: int) -> None:
        vals = np.atleast_2d(vals)
        if self.shift is None:
            self.shift = vals.mean(axis=0)
        self.sum_vec += vals.sum(axis=0)
        for j in range(0, vals.shape[0], 16):  # dev and its gathers stay small
            dev = vals[j:j + 16] - self.shift
            self.sum_sq += float(squared_norms(self.mass, dev).sum())
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
        m = self.mean_field - self.shift
        mean_sq = float(squared_norms(self.mass, m))
        return max((self.sum_sq - self.count * mean_sq) / (self.count - 1), 0.0)

    @property
    def mean_cost(self) -> float:
        return self.cost / self.count

