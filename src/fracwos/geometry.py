"""Planar domains with exact membership tests and distance to the boundary.

Every walk step needs the distance d(x) from the current position to the
boundary of the domain; supported shapes (balls and convex polygons,
including axis-aligned boxes) admit exact, branch-light formulas that
vectorize over arrays of points.  Points on the boundary report distance 0
and are not contained, so a path landing exactly on the boundary counts as
exited.

The walk asks only `_distance` and retires a path once `not d > 0`, so each
shape keeps `_contains(p) == (_distance(p) > 0)`, NaN included; `_contains`
stays for `contains`, `sample_uniform`, `check_I2` and perfbench's tracer.

A convex polygon's `_contains` ANDs a > b over its edges and its `_edge_min`
takes the running minimum of a - b, for the pair (a, b) of `_half_planes`.
For floats a - b > 0 exactly when a > b (gradual underflow) and a NaN fails
both, so the two still agree.  Axis-aligned edges, a box's four, form no
product, so an infinite coordinate makes no inf * 0 = NaN there.

A ball's three tests take r = |p - center| as sqrt(dx*dx + dy*dy), within
2 ulp of np.hypot at a fraction of its cost.  The squares may overflow: a
point beyond about 1e154 reads r = inf, which is outside, with no warning.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_CLOSED_TOL = 1e-12


def _as_points(p) -> np.ndarray:
    pts = np.asarray(p, dtype=np.float64)
    if pts.shape[-1] != 2:
        raise ValueError("points must have shape (..., 2)")
    return pts


def _norm(d: np.ndarray) -> np.ndarray:
    """sqrt(x*x + y*y) of the (..., 2) array d, formed in (overwriting) its
    x column; squares that overflow give inf, with no warning."""
    r, y = d[..., 0], d[..., 1]
    with np.errstate(over="ignore"):
        r *= r
        r += y * y
    return np.sqrt(r, out=r)


def _finite_points(p) -> np.ndarray:
    pts = _as_points(p)
    if not np.isfinite(pts).all():
        raise ValueError("non-finite point coordinates")
    return pts


class _Domain:
    """Validated `contains`/`distance` over a shape's raw `_contains` and
    `_distance`, which the walk calls directly on finite (..., 2) arrays."""

    def contains(self, p):
        return self._contains(_finite_points(p))

    def distance(self, p):
        return self._distance(_finite_points(p))


@dataclass(frozen=True)
class Ball(_Domain):
    """Open disc of given center and radius."""

    center: tuple[float, float]
    radius: float

    def __post_init__(self):
        c = np.asarray(self.center, dtype=np.float64)
        if c.shape != (2,) or not np.isfinite(c).all():
            raise ValueError("ball center must be a finite 2-vector")
        if not (np.isfinite(self.radius) and self.radius > 0):
            raise ValueError("ball radius must be positive and finite")
        object.__setattr__(self, "center", (float(c[0]), float(c[1])))
        object.__setattr__(self, "radius", float(self.radius))

    @property
    def diameter(self) -> float:
        return 2.0 * self.radius

    def _r(self, pts: np.ndarray):
        return _norm(np.subtract(pts, self.center))

    def _contains(self, pts: np.ndarray):
        return self._r(pts) < self.radius

    def _distance(self, pts: np.ndarray):
        return np.maximum(self.radius - self._r(pts), 0.0)

    def contains_closed(self, p) -> np.ndarray | bool:
        """Membership in the closure, with a small tolerance for vertices
        that land exactly on the boundary circle."""
        return self._r(_as_points(p)) <= self.radius * (1.0 + _CLOSED_TOL)

    def sample_uniform(self, rng: np.random.Generator, size: int) -> np.ndarray:
        rad = self.radius * np.sqrt(rng.random(size))
        ang = 2.0 * np.pi * rng.random(size)
        return np.column_stack([self.center[0] + rad * np.cos(ang),
                                self.center[1] + rad * np.sin(ang)])


@dataclass(frozen=True, eq=False)
class ConvexPolygon(_Domain):
    """Open convex polygon; distance is the minimum over half-plane distances.

    For an interior point of a convex region the nearest boundary point is
    the foot of a perpendicular onto some edge line, so the exact distance
    is min_i <p - v_i, n_i> over inward edge normals n_i (horizontal and
    vertical edges skip their zero products).  Polygons are equal when they
    list one counter-clockwise cycle of vertices from any start; `vertices`
    keeps the given order (reversed if clockwise).
    """

    vertices: np.ndarray
    _edges: tuple = field(init=False, repr=False, compare=False)
    _diameter: float = field(init=False, repr=False, compare=False)
    _cycle: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=np.float64)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
            raise ValueError("polygon needs at least 3 vertices of shape (n, 2)")
        if not np.isfinite(v).all():
            raise ValueError("non-finite polygon vertex")
        area2 = np.sum(v[:, 0] * np.roll(v[:, 1], -1) - np.roll(v[:, 0], -1) * v[:, 1])
        if area2 < 0:
            v = v[::-1].copy()  # was clockwise; normalize to CCW
        edges = np.roll(v, -1, axis=0) - v
        lengths = np.hypot(edges[:, 0], edges[:, 1])
        if np.any(lengths == 0.0):
            raise ValueError("polygon has a zero-length edge")
        nxt = np.roll(edges, -1, axis=0)
        cross = edges[:, 0] * nxt[:, 1] - edges[:, 1] * nxt[:, 0]
        # left turns only, 2 pi in all (a star winding k times turns 2 pi k)
        turns = np.arctan2(cross, np.einsum("ij,ij->i", edges, nxt))
        if np.any(cross < 0) or turns.sum() > 3.0 * np.pi:
            raise ValueError("polygon is not convex (or self-intersecting)")
        if area2 == 0:
            raise ValueError("polygon is degenerate (zero area)")
        normals = np.column_stack([-edges[:, 1], edges[:, 0]]) / lengths[:, None]
        object.__setattr__(self, "vertices", v)
        # (nx, ny, off) per edge as Python floats: a horizontal or vertical
        # edge's normal is exactly (+-0, +-1) or (+-1, +-0), as hypot(a, 0) = |a|
        offsets = np.einsum("ij,ij->i", normals, v)
        object.__setattr__(self, "_edges",
                           tuple(zip(*normals.T.tolist(), offsets.tolist())))
        d = v[:, None, :] - v[None, :, :]
        object.__setattr__(self, "_diameter",
                           float(np.hypot(d[..., 0], d[..., 1]).max()))
        # the cycle from its least (x, y) vertex; -0.0 equals and hashes as 0.0
        cycle = np.roll(v, -np.lexsort((v[:, 1], v[:, 0]))[0], axis=0)
        object.__setattr__(self, "_cycle", tuple(cycle.ravel().tolist()))

    def __eq__(self, other):
        return (self._cycle == other._cycle
                if isinstance(other, ConvexPolygon) else NotImplemented)

    def __hash__(self):
        return hash(self._cycle)

    @property
    def diameter(self) -> float:
        return self._diameter

    def _half_planes(self, pts: np.ndarray):
        # per edge (a, b), inside when a > b, at signed distance a - b.  An
        # axis-aligned edge gives (x, off) or (-off, x), or the same in y:
        # the bits of x*nx + y*ny - off bar the sign of a zero, which a walk
        # reads as an exit either way
        x, y = pts[..., 0], pts[..., 1]
        for nx, ny, off in self._edges:
            if ny == 0.0:
                yield (x, off) if nx > 0.0 else (-off, x)
            elif nx == 0.0:
                yield (y, off) if ny > 0.0 else (-off, y)
            else:
                yield x * nx + y * ny, off

    def _edge_min(self, pts: np.ndarray):
        # smallest signed distance to an edge line, positive inside, as a
        # running minimum one edge at a time: elementwise, so a point's bits
        # do not depend on how many points share the call (a matmul's do);
        # in two buffers of its own, never in the caller's x or y view
        planes = self._half_planes(pts)
        m = np.subtract(*next(planes), out=np.empty(pts.shape[:-1]))
        buf = np.empty_like(m)
        for a, b in planes:
            np.minimum(m, np.subtract(a, b, out=buf), out=m)
        return m

    def _contains(self, pts: np.ndarray):
        # a - b > 0 exactly when a > b (gradual underflow; NaN fails both)
        inside = True
        for a, b in self._half_planes(pts):
            inside &= a > b
        return inside

    def _distance(self, pts: np.ndarray):
        return np.maximum(self._edge_min(pts), 0.0)

    def contains_closed(self, p):
        pts = _as_points(p)
        scale = max(self.diameter, 1.0)
        return self._edge_min(pts) >= -_CLOSED_TOL * scale

    def bounding_box(self):
        v = self.vertices
        return (v[:, 0].min(), v[:, 1].min(), v[:, 0].max(), v[:, 1].max())

    def sample_uniform(self, rng: np.random.Generator, size: int) -> np.ndarray:
        x0, y0, x1, y1 = self.bounding_box()
        out = np.empty((size, 2))
        have = 0
        while have < size:
            n = max(2 * (size - have), 64)
            cand = np.column_stack([rng.uniform(x0, x1, n), rng.uniform(y0, y1, n)])
            cand = cand[self._contains(cand)]
            take = min(cand.shape[0], size - have)
            out[have:have + take] = cand[:take]
            have += take
        return out


Domain = Ball | ConvexPolygon


def box(x0: float, y0: float, x1: float, y1: float) -> ConvexPolygon:
    """Axis-aligned box as a convex polygon (distance = min edge distance)."""
    if not (x1 > x0 and y1 > y0):
        raise ValueError("box needs x1 > x0 and y1 > y0")
    return ConvexPolygon(np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]]))


def unit_ball() -> Ball:
    return Ball((0.0, 0.0), 1.0)
