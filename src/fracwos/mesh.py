"""Nested triangle meshes: uniform quadrisection, location, interpolation.

Each refinement splits every triangle into four through its edge midpoints,
with children of triangle t stored at indices 4t..4t+3 (corner children
first, medial triangle last).  Coarse vertices keep their indices in the
fine level, so restriction is a prefix view and every new vertex is the
exact midpoint of one coarse edge.  The depth-D descendants of a base
triangle are therefore the cells of a uniform 2^D grid in its barycentric
coordinates, and point location is a brute-force search over the few base
triangles followed by one lookup in a per-level grid table: constant work
per point at any depth, vectorized over many query points.  The first
`locate` on a level builds its table (the grid, and every triangle's corner
indices, corner coordinates and determinant, each in contiguous rows), so a
query gathers whole rows and repeats no per-triangle arithmetic.  The grid
is the query's own rule applied to every fine triangle's centroid.  Points
are always (P, 2) arrays.  A hierarchy is built for the domain D it meshes:
D decides the triangles each level's L2 norm counts (`norm_mask`).
`prolong` is the one prolongation, of the MLMC telescope's term means and
of its corrections alike: it works on rows of raw vertex values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .geometry import Ball, Domain, unit_ball
from .sampling import check_count

_BARY_TOL = 1e-12
_BLOCK = 1 << 13  # points per locate call in interpolate


class PointOutsideMeshError(ValueError):
    """Raised by point location for queries outside the meshed polygon."""

    def __init__(self, points):
        self.points = np.atleast_2d(points)
        super().__init__(f"{self.points.shape[0]} point(s) outside mesh, "
                         f"first: {tuple(self.points[0])}")


@dataclass
class MeshLevel:
    """One triangulation of the meshed polygon; a refined level keeps the
    level it refines and the parent edge of each of its new vertices."""

    level: int
    vertices: np.ndarray          # (N, 2)
    triangles: np.ndarray         # (T, 3) vertex indices, counter-clockwise
    mesh_width: float             # longest edge over all triangles
    parent: "MeshLevel | None" = None
    parent_edges: np.ndarray | None = None   # (N - N_parent, 2), see refine
    _areas: np.ndarray | None = field(default=None, repr=False)
    _table: "_LocateTable | None" = field(default=None, repr=False)  # built by locate

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_triangles(self) -> int:
        return self.triangles.shape[0]

    def areas(self) -> np.ndarray:
        if self._areas is None:
            self._areas = _signed_areas(self.vertices, self.triangles)
        return self._areas


@dataclass
class FieldVector:
    """Vertex values of a piecewise-linear function on one mesh level."""

    level: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1:
            raise ValueError("field values must be a flat vector")
        if not np.isfinite(self.values).all():
            raise ValueError("non-finite field value")


def _signed_areas(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    x1, y1, x2, y2, x3, y3 = vertices[triangles].reshape(-1, 6).T
    return 0.5 * ((x2 - x1) * (y3 - y1) - (y2 - y1) * (x3 - x1))


def _max_edge(vertices: np.ndarray, triangles: np.ndarray) -> float:
    tv = vertices[triangles]
    edges = np.roll(tv, -1, axis=1) - tv
    return float(np.hypot(edges[..., 0], edges[..., 1]).max())


def make_base(vertices, triangles) -> MeshLevel:
    """Validate and wrap a base triangulation as level 1.

    Triangles must be a non-empty integer (T, 3) array, counter-clockwise;
    duplicate vertices and degenerate or inverted triangles are rejected.
    """
    v = np.asarray(vertices, dtype=np.float64)
    t = np.asarray(triangles)
    if v.ndim != 2 or v.shape[1] != 2 or not np.isfinite(v).all():
        raise ValueError("vertices must be a finite (N, 2) array")
    if (t.ndim != 2 or t.shape[1] != 3 or t.shape[0] == 0
            or not np.issubdtype(t.dtype, np.integer)):
        raise ValueError("triangles must be an (T, 3) index array")
    t = t.astype(np.int64)
    if t.min() < 0 or t.max() >= v.shape[0]:
        raise ValueError("triangle index out of range")
    if np.unique(v.round(decimals=14), axis=0).shape[0] != v.shape[0]:
        raise ValueError("duplicate vertices in base mesh")
    if np.any(_signed_areas(v, t) <= 0.0):
        raise ValueError("inverted or degenerate triangle in base mesh")
    return MeshLevel(level=1, vertices=v, triangles=t,
                     mesh_width=_max_edge(v, t))


def square_ball_base(domain: Ball | None = None) -> MeshLevel:
    """The 4-triangle diagonal split of the square around a ball (level 1).

    The square is [cx - r, cx + r] x [cy - r, cy + r] for the ball's center
    (cx, cy) and radius r; the default unit ball gives [-1, 1]^2.
    """
    domain = domain or unit_ball()
    if not isinstance(domain, Ball):
        raise ValueError("square_ball_base needs a Ball domain")
    (cx, cy), r = domain.center, domain.radius
    v = np.array([[cx - r, cy - r], [cx + r, cy - r], [cx + r, cy + r],
                  [cx - r, cy + r], [cx, cy]])
    t = np.array([[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]])
    return make_base(v, t)


def base_mesh_for(domain: Domain):
    """Base triangulation covering the domain: the 4-triangle diagonal split
    of the bounding square for balls, a centroid fan for convex polygons."""
    if isinstance(domain, Ball):
        return square_ball_base(domain)
    verts = domain.vertices
    centroid = verts.mean(axis=0)
    v = np.vstack([verts, centroid])
    n = verts.shape[0]
    t = np.array([[i, (i + 1) % n, n] for i in range(n)])
    return make_base(v, t)


def refine(level: MeshLevel) -> MeshLevel:
    """Quadrisect every triangle; returns the fine level.

    Row i of its `parent_edges` holds the two coarse vertex indices whose
    midpoint is fine vertex nc + i, for nc coarse vertices.  Midpoints are
    deduplicated by parent index pair, never by coordinate comparison, so
    nesting is exact.
    """
    v = level.vertices
    tris = level.triangles
    nc = v.shape[0]
    # edges ab, bc, ca of each triangle; a midpoint is numbered by the first
    # appearance of its edge in this order
    edges = np.sort(tris[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    pairs, first, inverse = np.unique(edges, axis=0, return_index=True,
                                      return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    mab, mbc, mca = (nc + rank[inverse.reshape(-1)]).reshape(-1, 3).T
    a, b, c = tris.T
    new_tris = np.column_stack([a, mab, mca, b, mbc, mab, c, mca, mbc,
                                mab, mbc, mca]).reshape(-1, 3)
    pairs = pairs[order]
    mids = 0.5 * (v[pairs[:, 0]] + v[pairs[:, 1]])
    fine_v = np.vstack([v, mids])
    return MeshLevel(level=level.level + 1, vertices=fine_v, triangles=new_tris,
                     mesh_width=_max_edge(fine_v, new_tris), parent=level,
                     parent_edges=pairs)


@dataclass
class MeshHierarchy:
    """Nested levels from the base up to the finest, and their norm masks."""

    levels: list[MeshLevel]
    domain: Domain                      # norm masks, eig; walks use the problem's
    _norm_masks: dict = field(default_factory=dict, repr=False)  # norm_mask's

    @property
    def coarsest(self) -> int:
        return self.levels[0].level

    @property
    def finest(self) -> int:
        return self.levels[-1].level

    def level(self, ell: int) -> MeshLevel:
        i = ell - self.coarsest
        if not 0 <= i < len(self.levels):
            raise ValueError(f"level {ell} not in hierarchy "
                             f"[{self.coarsest}, {self.finest}]")
        return self.levels[i]

    def norm_mask(self, ell: int) -> np.ndarray:
        """Triangles whose three vertices lie in the closed domain.

        Error norms use only these, so boundary-straddling interpolation is
        not charged to the solver; the omitted strip has measure O(h).
        """
        if ell not in self._norm_masks:
            lvl = self.level(ell)
            inside = np.asarray(self.domain.contains_closed(lvl.vertices))
            self._norm_masks[ell] = inside[lvl.triangles].all(axis=1)
        return self._norm_masks[ell]

    def masked_area(self, ell: int) -> float:
        return float(self.level(ell).areas()[self.norm_mask(ell)].sum())


def build_hierarchy(base: MeshLevel, finest_level: int,
                    domain: Domain) -> MeshHierarchy:
    """Refine `base` to `finest_level` (inclusive) for the meshed domain."""
    check_count("finest_level", finest_level, base.level)
    levels = [base]
    while levels[-1].level < finest_level:
        levels.append(refine(levels[-1]))
    return MeshHierarchy(levels=levels, domain=domain)


class _LocateTable(NamedTuple):
    """What `locate` reads of one level, each part in contiguous rows."""

    cells: np.ndarray      # fine triangle of every barycentric grid half-cell
    corners: np.ndarray    # (3, T) vertex indices of corners 1, 2, 3
    coords: np.ndarray     # (3, 2, T) x and y of corners 2, 3, 1: pairs (2, 3)
                           # and (3, 1) are adjacent slices
    det: np.ndarray        # (T,) twice every triangle's signed area


def _root(level: MeshLevel) -> MeshLevel:
    while level.parent is not None:
        level = level.parent
    return level


def _table(level: MeshLevel) -> _LocateTable:
    """The level's location table, built on first use."""
    if level._table is None:
        corners = np.ascontiguousarray(level.triangles.T)
        xy = level.vertices[corners].transpose(0, 2, 1)    # (3, 2, T)
        level._table = _LocateTable(
            _cell_table(level, _root(level)), corners,
            np.ascontiguousarray(xy[[1, 2, 0]]), 2.0 * level.areas())
    return level._table


def _cell_table(level: MeshLevel, base: MeshLevel) -> np.ndarray:
    """Fine triangle of every barycentric grid cell, flattened.

    In the barycentric coordinates (w1, w2) of a base triangle, the depth-D
    quadrisection descendants are the cells of a uniform grid with
    n = 2^D: cell (i, j) is split by its diagonal into a lower half (o = 0)
    and an upper half (o = 1).  Entry ((b n + i) n + j) 2 + o holds the
    fine triangle that the query's own rule, `_cell`, puts there from its
    centroid.  Halves past the far edge (i + j + o >= n) hold an inside
    half that touches that edge, so points on it, perturbed by rounding,
    still resolve.
    """
    n = 1 << (level.level - base.level)
    table = np.empty(base.num_triangles * n * n * 2, dtype=np.int64)
    for lo in range(0, level.num_triangles, _BLOCK):  # temporaries of _BLOCK
        tris = level.triangles[lo:lo + _BLOCK]
        centroids = level.vertices[tris].mean(axis=1).T   # (2, B)
        table[_cell(base, n, centroids)] = np.arange(lo, lo + len(tris))
    table = table.reshape(-1, n, n, 2)
    rows = max(_BLOCK // (2 * n), 1)  # grid rows of about _BLOCK halves
    for i0 in range(0, n, rows):  # the inside halves read are never past
        i, j, o = np.meshgrid(np.arange(i0, min(i0 + rows, n)), np.arange(n),
                              [0, 1], indexing="ij")
        past = i + j + o >= n
        i, j = i[past], j[past]
        e = i + j - (n - 1)            # grid steps past the far edge
        di = np.where(i >= j, (e + 1) // 2, e // 2)
        table[:, i0:i0 + rows][:, past] = table[:, i - di, j - (e - di), 0]
    return table.ravel()


def _base_search(base: MeshLevel, pxy: np.ndarray):
    """Base triangle and its (w1, w2) rows for points given as (x, y) rows.

    A triangle's score is its smallest barycentric coordinate and the first
    best triangle wins.  Its cross products are of offsets that each base
    vertex takes once; triangles that share an edge share its cross
    product, since (v, u)'s is exactly the negative of (u, v)'s.  Points
    whose best score is below the tolerance, or NaN, raise.
    """
    det = (2.0 * base.areas()).tolist()
    d = base.vertices[:, :, None] - pxy            # (V, 2, P) offsets
    dx, dy = d[:, 0], d[:, 1]
    size = pxy.shape[1]
    w = np.empty((2, base.num_triangles, size))    # w1 and w2 rows
    cross = {}
    for k, (a, b, c) in enumerate(base.triangles.tolist()):
        for out, u, v in ((w[0, k], b, c), (w[1, k], c, a)):
            if (v, u) in cross:
                np.divide(cross[v, u], -det[k], out=out)
            else:
                cross[u, v] = uv = dx[u] * dy[v]
                uv -= dy[u] * dx[v]
                np.divide(uv, det[k], out=out)
    del d, dx, dy, cross
    worst = np.subtract(1.0, w[0])
    worst -= w[1]
    np.minimum(worst, w[0], out=worst)
    np.minimum(worst, w[1], out=worst)
    best = np.fmax(worst[0], -np.inf)              # NaN scores never win
    tri = np.zeros(size, dtype=np.min_scalar_type(len(worst)))
    better = np.empty(size, dtype=bool)
    for k in range(1, len(worst)):
        np.greater(worst[k], best, out=better)
        np.fmax(best, worst[k], out=best)
        # the last triangle to beat all before it; small ints pass quickly
        np.maximum(tri, better * tri.dtype.type(k), out=tri)
    bad = best < -_BARY_TOL * max(base.mesh_width, 1.0)
    if bad.any():
        raise PointOutsideMeshError(pxy.T[bad])
    tri = tri.astype(np.intp)
    return tri, np.take(w.reshape(2, -1), tri * size + np.arange(size), axis=1)


def _cell(base: MeshLevel, n: int, pxy: np.ndarray) -> np.ndarray:
    """Flat index ((b n + i) n + j) 2 + o of the grid half-cell (see
    _cell_table) of points given as (x, y) rows: (i, j) is the cell of the
    base coordinates (s, t) = n (w1, w2), clamped into the grid."""
    tri, st = _base_search(base, pxy)
    st *= n
    ij = st.astype(np.intp)
    np.maximum(ij, 0, out=ij)
    np.minimum(ij, n - 1, out=ij)
    st -= ij
    tri *= 2 * n * n
    tri += (2 * n) * ij[0]
    tri += 2 * ij[1]
    tri += st[0] + st[1] >= 1.0
    return tri


def locate(level: MeshLevel, p):
    """Containing triangles (P,) and barycentric coordinates (P, 3) of the
    (P, 2) query points p.

    Raises PointOutsideMeshError when barycentric coordinates fall below
    -1e-12 (or a point is not finite).  The base level is searched by brute
    force; the base barycentric coordinates then index the level's grid
    table (built on the first call) directly, so the cost does not grow
    with depth.  The (P, 3) weights are a view of three contiguous rows.
    """
    pxy = np.asarray(p, dtype=np.float64).T        # (2, P): x row, y row
    if pxy.ndim != 2 or pxy.shape[0] != 2:
        raise ValueError("query points must be a (P, 2) array")
    base = _root(level)
    tab = _table(level)
    tri = tab.cells[_cell(base, 1 << (level.level - base.level), pxy)]

    # _base_search's arithmetic on the fine corners' offsets from the points
    d = np.take(tab.coords, tri, axis=2)          # corners 2, 3, 1
    d -= pxy
    w = np.empty((3, pxy.shape[1]))
    np.multiply(d[:2, 0], d[1:, 1], out=w[:2])     # dx2 dy3, dx3 dy1
    w[:2] -= d[:2, 1] * d[1:, 0]                   # dy2 dx3, dy3 dx1
    w[:2] /= tab.det[tri]
    np.subtract(1.0, w[0], out=w[2])
    w[2] -= w[1]
    bad = w.min(axis=0) < -_BARY_TOL
    if bad.any():
        raise PointOutsideMeshError(pxy.T[bad])
    # clamp, then divide by the sum taken left to right; eig's bits rely on it
    np.maximum(w, 0.0, out=w)
    w /= (w[0] + w[1]) + w[2]
    return tri, w.T


def interpolate(level: MeshLevel, f, p):
    """Piecewise-linear interpolant of the vertex values f, evaluated at
    the (P, 2) points p.

    Points are located _BLOCK at a time: past that, numpy's fresh
    temporaries cost more in page faults than in arithmetic.  The first
    block with a point outside the mesh raises PointOutsideMeshError.
    """
    vals = np.asarray(f, dtype=np.float64)
    if vals.ndim != 1:
        raise ValueError("f must be a 1-D vector")
    if vals.shape[0] != level.num_vertices:
        raise ValueError("field length does not match mesh level")
    pts = np.asarray(p, dtype=np.float64)
    out = np.empty(pts.shape[0])
    for lo in range(0, pts.shape[0], _BLOCK):
        tri, w = locate(level, pts[lo:lo + _BLOCK])
        fw = vals[np.take(_table(level).corners, tri, axis=1)]   # (3, P)
        fw *= w.T
        # summed in the order of einsum("pk,pk->p"), which this replaced
        np.add(fw[0], fw[2], out=out[lo:lo + _BLOCK])
        out[lo:lo + _BLOCK] += fw[1]
    return out


def prolong(level: MeshLevel, coarse) -> np.ndarray:
    """Exact linear prolongation of rows (any leading shape) of vertex values
    on `level`'s parent: inherited vertices are copied, and each new vertex
    is (a + b) * 0.5 of its parent edge's ends, formed in the output."""
    coarse = np.asarray(coarse, dtype=np.float64)
    if level.parent is None:
        raise ValueError(f"level {level.level} has no coarser level")
    nc = level.parent.num_vertices
    if coarse.shape[-1] != nc:
        raise ValueError("field length does not match its level")
    out = np.empty(coarse.shape[:-1] + (level.num_vertices,))
    out[..., :nc] = coarse
    pa, pb = level.parent_edges.T
    new = np.add(coarse[..., pa], coarse[..., pb], out=out[..., nc:])
    new *= 0.5
    return out


def prolong_to(hier: MeshHierarchy, values, ell: int, L: int) -> np.ndarray:
    """Vertex values on level ell prolonged level by level onto level L."""
    for fine in range(ell + 1, L + 1):
        values = prolong(hier.level(fine), values)
    return values
