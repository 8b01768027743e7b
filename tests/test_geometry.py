import warnings

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from fracwos.geometry import _CLOSED_TOL, Ball, ConvexPolygon, box, unit_ball

finite_coord = st.floats(min_value=-10, max_value=10, allow_nan=False)


CONTAINS_DOMAINS = [
    unit_ball(), Ball((0.3, -1.7), 0.45), box(-1.0, -2.0, 3.0, 1.5),
    ConvexPolygon([[0, 0], [2, 0], [3, 2], [1, 3], [-1, 1]]),
]
unit = st.floats(min_value=0.0, max_value=1.0)


def log_uniform(lo, hi):
    """10^e for e uniform in [lo, hi]."""
    return st.floats(min_value=lo, max_value=hi).map(lambda e: 10.0 ** e)


@st.composite
def thin_box(draw):
    """A box of width 1e-3..1e3 and aspect ratio up to 1e6, either way up."""
    w, aspect = draw(log_uniform(-3, 3)), draw(log_uniform(0, 6))
    h = w / aspect
    if draw(st.booleans()):
        w, h = h, w
    x0, y0 = draw(finite_coord), draw(finite_coord)
    return box(x0, y0, x0 + w, y0 + h)


@st.composite
def off_centre_ball(draw):
    return Ball((draw(finite_coord), draw(finite_coord)),
                draw(log_uniform(-6, 6)))


@st.composite
def ellipse_polygon(draw, aspect=(-3, 3), turn=False):
    """A convex polygon on the ellipse of semi-axes a and a b, b = 10^e for e
    in `aspect` (up to 1e3 either way by default): 3 to 12 vertices at
    sorted angles, no gap below a tenth of the largest.  With `turn`, the
    ellipse is rotated by any angle, so a thin one fills as little as about
    1e-6 of its bounding box."""
    k = draw(st.integers(3, 12))
    gaps = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=k, max_size=k)))
    t = draw(st.floats(0.0, 2 * np.pi)) + 2 * np.pi * np.cumsum(gaps) / gaps.sum()
    a, b = draw(log_uniform(-3, 3)), draw(log_uniform(*aspect))
    c = np.array([draw(finite_coord), draw(finite_coord)])
    v = a * np.column_stack([np.cos(t), b * np.sin(t)])
    if turn:
        phi = draw(st.floats(0.0, np.pi))
        v = v @ np.array([[np.cos(phi), np.sin(phi)], [-np.sin(phi), np.cos(phi)]])
    try:
        return ConvexPolygon(c + v)
    except ValueError:  # rounding bent a nearly straight turn the wrong way
        reject()


any_domain = st.one_of(st.sampled_from(CONTAINS_DOMAINS), thin_box(),
                       off_centre_ball(), ellipse_polygon(),
                       ellipse_polygon(aspect=(-6, -1), turn=True))


@st.composite
def point_near(draw, domain):
    """A random point, one within a diameter of the domain, a point built on
    the boundary, a far point, or one with a NaN or infinite coordinate
    (where a wild jump can land)."""
    kind = draw(st.sampled_from(["random", "near", "boundary", "vertex", "far",
                                 "nonfinite"]))
    if kind == "random":
        return draw(finite_coord), draw(finite_coord)
    if kind == "near":
        c = (domain.center if isinstance(domain, Ball)
             else domain.vertices.mean(axis=0))
        off = st.floats(min_value=-1.0, max_value=1.0)
        return (c[0] + domain.diameter * draw(off),
                c[1] + domain.diameter * draw(off))
    if kind == "nonfinite":
        odd = st.sampled_from([np.nan, np.inf, -np.inf])
        return draw(odd), draw(st.one_of(odd, finite_coord))
    if kind == "far":
        big = st.floats(min_value=1e6, max_value=1e300)
        return (draw(big) * draw(st.sampled_from([-1, 1])),
                draw(big) * draw(st.sampled_from([-1, 1])))
    if isinstance(domain, Ball):
        t = draw(st.floats(min_value=0.0, max_value=2 * np.pi))
        c, r = domain.center, domain.radius
        return c[0] + r * np.cos(t), c[1] + r * np.sin(t)
    v = domain.vertices
    i = draw(st.integers(0, v.shape[0] - 1))
    if kind == "vertex":
        return tuple(v[i])
    s = draw(unit)
    return tuple(v[i] + s * (v[(i + 1) % v.shape[0]] - v[i]))


class TestBall:
    def test_center_inside(self, ball):
        assert ball.contains((0.0, 0.0))
        assert ball.distance((0.0, 0.0)) == 1.0

    def test_outside(self, ball):
        assert not ball.contains((2.0, 0.0))
        assert ball.distance((2.0, 0.0)) == 0.0

    def test_radial_distance(self, ball):
        assert ball.distance((0.5, 0.0)) == 0.5

    def test_boundary_point_not_interior(self, ball):
        assert not ball.contains((1.0, 0.0))
        assert ball.distance((1.0, 0.0)) == 0.0
        assert ball.contains_closed((1.0, 0.0))

    def test_vectorized(self, ball):
        pts = np.array([[0.0, 0.0], [0.9, 0.0], [1.5, 1.5]])
        np.testing.assert_array_equal(ball.contains(pts), [True, True, False])

    def test_rejects_nonfinite(self, ball):
        with pytest.raises(ValueError):
            ball.contains((np.nan, 0.0))
        with pytest.raises(ValueError):
            ball.distance((np.inf, 0.0))

    def test_bad_construction(self):
        with pytest.raises(ValueError):
            Ball((0.0, 0.0), -1.0)
        with pytest.raises(ValueError):
            Ball((np.nan, 0.0), 1.0)


    @pytest.mark.parametrize("domain", [
        unit_ball(), Ball((0.3, -1.7), 0.45), Ball((2.5, -1.0), 1e-3),
        Ball((-40.0, 7.0), 1e3)], ids=["unit", "off_centre", "tiny", "large"])
    def test_distance_matches_hypot_reference(self, domain):
        # random points out to 1.5 radii, and points within 1e-9 radii of
        # the circle, where R - r cancels
        rng = np.random.default_rng(11)
        c, R = np.array(domain.center), domain.radius
        rad = R * np.concatenate([rng.uniform(0.0, 1.5, 20000),
                                  1.0 + rng.uniform(-1e-9, 1e-9, 20000)])
        ang = rng.uniform(0.0, 2 * np.pi, rad.size)
        pts = c + rad[:, None] * np.column_stack([np.cos(ang), np.sin(ang)])
        want = np.maximum(R - np.hypot(pts[:, 0] - c[0], pts[:, 1] - c[1]), 0.0)
        assert np.abs(domain._distance(pts) - want).max() <= 4 * np.spacing(R)

    def test_far_points_outside_without_warning(self, ball):
        # squares past about 1e154 overflow to inf: r = inf, which is outside
        pts = np.array([[1e155, 0.0], [-3e200, 2e300], [0.0, -1.7e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not ball._contains(pts).any()
            assert not (ball._distance(pts) > 0.0).any()
            assert not ball.contains_closed(pts).any()


class TestBox:
    def test_boundary_not_interior(self):
        b = box(0.0, 0.0, 1.0, 1.0)
        assert not b.contains((0.5, 1.0))
        assert b.contains((0.5, 0.5))

    def test_min_edge_distance(self):
        b = box(0.0, 0.0, 1.0, 1.0)
        # min over the four edge distances
        assert b.distance((0.25, 0.5)) == pytest.approx(0.25, abs=1e-15)
        assert b.distance((0.5, 0.5)) == pytest.approx(0.5, abs=1e-15)

    def test_diameter(self):
        assert box(0.0, 0.0, 3.0, 4.0).diameter == 5.0

    @pytest.mark.parametrize("corners", [(1, 0, 0, 1), (0, 1, 1, 0),
                                         (0, 0, 0, 1)])
    def test_rejects_corners_out_of_order(self, corners):
        with pytest.raises(ValueError, match="^box needs x1 > x0 and y1 > y0$"):
            box(*corners)


class TestConvexPolygon:
    def test_clockwise_input_normalized(self):
        tri_ccw = ConvexPolygon([[0, 0], [1, 0], [0, 1]])
        tri_cw = ConvexPolygon([[0, 0], [0, 1], [1, 0]])
        p = (0.2, 0.2)
        assert tri_ccw.distance(p) == pytest.approx(tri_cw.distance(p))

    def test_rejects_nonconvex(self):
        with pytest.raises(ValueError):
            ConvexPolygon([[0, 0], [2, 0], [1, 0.1], [0, 2]])

    def test_rejects_star_that_winds_twice(self):
        # the regular pentagon's vertices in the order 0, 2, 4, 1, 3: left
        # turns only and a positive area, but it turns by 4 pi in all
        with pytest.raises(ValueError, match="not convex"):
            ConvexPolygon([(0.000000, 1.000000), (-0.587785, -0.809017),
                           (0.951057, 0.309017), (-0.951057, 0.309017),
                           (0.587785, -0.809017)])

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            ConvexPolygon([[0, 0], [1, 1], [2, 2]])

    def test_rejects_nonfinite(self):
        tri = ConvexPolygon(np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]]))
        with pytest.raises(ValueError):
            tri.contains((np.nan, 0.0))
        with pytest.raises(ValueError):
            tri.distance((np.inf, 0.0))
        with pytest.raises(ValueError):
            tri.contains(np.array([[0.2, 0.2], [0.3, -np.inf]]))
        with pytest.raises(ValueError):
            tri.distance(np.array([[0.2, 0.2], [np.nan, 0.1]]))

    def test_value_equality_and_hash(self):
        a, b = box(0, 0, 1, 1), box(0, 0, 1, 1)
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != box(0, 0, 1, 2) and a != unit_ball()
        # clockwise input is stored reversed, so counter-clockwise from the
        # last vertex; -0.0 equals 0.0
        cw = ConvexPolygon([[0.0, 1.0], [1.0, 1.0], [1.0, 0.0], [-0.0, 0.0]])
        assert cw == a and hash(cw) == hash(a)
        assert len({a, b, cw}) == 1

    def test_equality_ignores_the_first_vertex(self):
        a = box(0, 0, 1, 1)
        from_1_0 = ConvexPolygon([(1, 0), (1, 1), (0, 1), (0, 0)])
        clockwise = ConvexPolygon([(1, 0), (0, 0), (0, 1), (1, 1)])
        assert a == from_1_0 == clockwise
        assert hash(a) == hash(from_1_0) == hash(clockwise)
        # the stored order, which base_mesh_for's fan numbers, is kept
        np.testing.assert_array_equal(from_1_0.vertices,
                                      [(1, 0), (1, 1), (0, 1), (0, 0)])
        np.testing.assert_array_equal(clockwise.vertices,
                                      [(1, 1), (0, 1), (0, 0), (1, 0)])
        assert a != ConvexPolygon([(1, 0), (1, 1), (0, 1), (0, 0.5)])

    def test_problems_on_equal_polygons_compare(self):
        from fracwos.problems import Problem, constant_field
        zero = constant_field(0.0)
        p, q = (Problem(alpha=1.0, domain=box(0, 0, 1, 1), f=zero, g=zero)
                for _ in range(2))
        assert p.domain is not q.domain and p == q

    @pytest.mark.parametrize("vertices, msg", [
        ([[0, 0], [1, 0]], "polygon needs at least 3 vertices"),
        ([[0, 0, 0], [1, 0, 0], [0, 1, 0]],
         "polygon needs at least 3 vertices"),
        ([0, 0, 1, 0, 0, 1], "polygon needs at least 3 vertices"),
        ([[0, 0], [1, np.inf], [0, 1]], "non-finite polygon vertex"),
        ([[0, 0], [1, 0], [1, 0], [0, 1]], "polygon has a zero-length edge")])
    def test_rejects_malformed_vertices(self, vertices, msg):
        with pytest.raises(ValueError, match=f"^{msg}"):
            ConvexPolygon(vertices)

    def test_triangle_incenter(self):
        tri = ConvexPolygon([[0, 0], [1, 0], [0, 1]])
        # incenter radius of the right isoceles triangle
        r = (2 - np.sqrt(2)) / 2
        inc = (r, r)
        assert tri.distance(inc) == pytest.approx(r, rel=1e-12)


@pytest.mark.parametrize("domain", CONTAINS_DOMAINS[::2])
@pytest.mark.parametrize("points", [(0.1, 0.2, 0.3), [[0.1], [0.2]]])
def test_points_of_another_shape_rejected(domain, points):
    for query in (domain.contains, domain.distance):
        with pytest.raises(ValueError, match=r"^points must have shape "
                                             r"\(\.\.\., 2\)$"):
            query(points)


def _full_product_edge_min(polygon, pts):
    """Reference for `_edge_min`: x*nx + y*ny - off on every edge, products
    with a zero normal component included, as a running minimum."""
    x, y = pts[..., 0], pts[..., 1]
    m = None
    for nx, ny, off in polygon._edges:
        d = x * nx + y * ny - off
        m = d if m is None else np.minimum(m, d)
    return m


_ROT = np.array([[np.cos(0.5), -np.sin(0.5)], [np.sin(0.5), np.cos(0.5)]])
# each with its count of axis-aligned edges
EXACT_DOMAINS = [
    (box(0.0, 0.0, 1.0, 1.0), 4),
    # the regular pentagon, whose bottom edge is horizontal
    (ConvexPolygon([(0.0, 1.0), (-0.951057, 0.309017), (-0.587785, -0.809017),
                    (0.587785, -0.809017), (0.951057, 0.309017)]), 1),
    (ConvexPolygon([[0.1, 0.2], [2.3, 0.7], [0.9, 1.9]]), 0),
    (ConvexPolygon([[-1.0, -0.5], [1.0, -0.5], [1.0, 0.5], [-1.0, 0.5]]
                   @ _ROT.T + (0.2, -0.3)), 0),
]


class TestFullProductReference:
    @given(case=st.sampled_from(EXACT_DOMAINS), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_queries_keep_the_full_product_bits(self, case, data):
        # `_contains` compares and axis-aligned edges skip their zero
        # products; on every kind of point, nudged one ulp either way, the
        # booleans and every positive distance keep the reference's bits
        domain, n_axis = case
        assert sum(0.0 in e[:2] for e in domain._edges) == n_axis
        pts = np.array(data.draw(st.lists(point_near(domain), min_size=1,
                                          max_size=20)), dtype=np.float64)
        pts = np.concatenate([pts, np.nextafter(pts, np.inf),
                              np.nextafter(pts, -np.inf)])
        # inf * 0, and sums past the largest float, in the products
        with np.errstate(invalid="ignore", over="ignore"):
            ref = _full_product_edge_min(domain, pts)
            inside, d = domain._contains(pts), domain._distance(pts)
            closed = domain.contains_closed(pts)
        np.testing.assert_array_equal(inside, ref > 0.0)
        assert d[inside].tobytes() == ref[inside].tobytes()
        assert not (d[~inside] > 0.0).any()
        np.testing.assert_array_equal(
            closed, ref >= -_CLOSED_TOL * max(domain.diameter, 1.0))

    @pytest.mark.parametrize("case", EXACT_DOMAINS, ids=["box", "pentagon",
                                                         "triangle", "rotated"])
    def test_queries_leave_the_points_unmodified(self, case):
        # the walk hands the domain pos.T, the (n, 2) view of its (2, n)
        # positions: a query whose x or y view took a - b in place would
        # move every walk
        domain = case[0]
        pos = np.random.default_rng(5).uniform(-1.5, 2.5, (2, 257))
        pos[:, :3] = [[0.0, -0.0, np.nan], [1.0, np.inf, 0.5]]
        before = pos.copy()
        for pts in (pos.T, np.ascontiguousarray(pos.T), pos.T[0]):
            with np.errstate(invalid="ignore"):  # inf * 0 off the box
                domain._edge_min(pts)
                domain._distance(pts)
                domain.contains_closed(pts)
            assert pos.tobytes() == before.tobytes()

    def test_box_with_infinite_coordinate_runs_clean(self):
        b = box(0.0, 0.0, 1.0, 1.0)
        pts = np.array([[np.inf, 0.5], [-np.inf, 0.5], [0.5, np.inf],
                        [0.5, -np.inf], [np.inf, -np.inf]])
        with np.errstate(all="raise"):
            assert not b._contains(pts).any()
            assert not (b._distance(pts) > 0.0).any()
            assert not b.contains_closed(pts).any()


class TestProperties:
    @given(x1=finite_coord, y1=finite_coord, x2=finite_coord, y2=finite_coord)
    @settings(max_examples=200, deadline=None)
    def test_lipschitz_ball(self, x1, y1, x2, y2):
        d = unit_ball()
        p, q = np.array([x1, y1]), np.array([x2, y2])
        assert abs(float(d.distance(p)) - float(d.distance(q))) \
            <= np.linalg.norm(p - q) + 1e-12

    @given(x1=finite_coord, y1=finite_coord, x2=finite_coord, y2=finite_coord)
    @settings(max_examples=200, deadline=None)
    def test_lipschitz_polygon(self, x1, y1, x2, y2):
        d = box(-1.0, -2.0, 3.0, 1.5)
        p, q = np.array([x1, y1]), np.array([x2, y2])
        assert abs(float(d.distance(p)) - float(d.distance(q))) \
            <= np.linalg.norm(p - q) + 1e-12

    @given(domain=any_domain, data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_contains_is_positive_distance(self, domain, data):
        # the walk retires a path once `not distance > 0` and never asks
        # `_contains`, so the two must agree element by element
        pts = data.draw(st.lists(point_near(domain), min_size=1, max_size=20))
        pts = np.array(pts, dtype=np.float64)
        with np.errstate(invalid="ignore"):  # inf * 0 in the polygon's edge products
            np.testing.assert_array_equal(domain._contains(pts),
                                          domain._distance(pts) > 0.0)
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32)))
        assert domain.contains(domain.sample_uniform(rng, 64)).all()

    @pytest.mark.parametrize("domain", [
        unit_ball(), box(0.0, 0.0, 2.0, 1.0),
        ConvexPolygon([[0, 0], [2, 0], [3, 2], [1, 3], [-1, 1]]),
    ])
    def test_contains_implies_positive_distance(self, domain, rng):
        pts = domain.sample_uniform(rng, 500)
        d = domain.distance(pts)
        assert np.all(domain.contains(pts))
        assert np.all(d > 0)

    @pytest.mark.parametrize("domain", [
        unit_ball(), box(0.0, 0.0, 2.0, 1.0),
        ConvexPolygon([[0, 0], [2, 0], [3, 2], [1, 3], [-1, 1]]),
    ])
    def test_inscribed_ball_inside(self, domain, rng):
        # B(p, distance(p)) stays inside the domain
        pts = domain.sample_uniform(rng, 300)
        d = np.asarray(domain.distance(pts))
        ang = rng.uniform(0, 2 * np.pi, pts.shape[0])
        s = rng.uniform(0, 1, pts.shape[0]) * (1 - 1e-12)
        probe = pts + (s * d)[:, None] * np.column_stack([np.cos(ang), np.sin(ang)])
        assert np.all(domain.contains(probe))

    @pytest.mark.parametrize("domain", [
        unit_ball(), box(0.0, 0.0, 2.0, 1.0),
        ConvexPolygon([[0, 0], [2, 0], [3, 2], [1, 3], [-1, 1]]),
    ])
    def test_distance_below_half_diameter(self, domain, rng):
        pts = domain.sample_uniform(rng, 500)
        assert np.all(np.asarray(domain.distance(pts)) <= domain.diameter / 2 + 1e-12)



def _polygon_moments(v):
    """E[x], E[y], E[x^2], E[x y], E[y^2] of the uniform law on the polygon
    with counter-clockwise vertices v, from the shoelace-type formulas."""
    x, y = v[:, 0], v[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    c = x * yn - xn * y
    area = c.sum() / 2.0
    return np.array([((x + xn) * c).sum() / 6.0, ((y + yn) * c).sum() / 6.0,
                     ((x * x + x * xn + xn * xn) * c).sum() / 12.0,
                     ((x * yn + 2.0 * (x * y + xn * yn) + xn * y) * c).sum() / 24.0,
                     ((y * y + y * yn + yn * yn) * c).sum() / 12.0]) / area


def _turned_ellipse_polygon(k, b, turn, centre):
    t = 2 * np.pi * np.arange(k) / k
    x, y = np.cos(t), b * np.sin(t)
    return ConvexPolygon(np.asarray(centre) + np.column_stack(
        [x * np.cos(turn) - y * np.sin(turn), x * np.sin(turn) + y * np.cos(turn)]))


class TestSampleUniform:
    """A polygon draws its uniform points on its triangle fan, in a round or
    two however little of its bounding box it fills; a box, which fills it,
    keeps drawing there."""

    @staticmethod
    def counting_contains(monkeypatch):
        calls = []
        contains = ConvexPolygon._contains

        def counting(self, pts):
            calls.append(len(pts))
            return contains(self, pts)

        monkeypatch.setattr(ConvexPolygon, "_contains", counting)
        return calls

    @pytest.mark.parametrize("w", [1e-2, 1e-4, 1e-6])
    def test_thin_quadrilateral_in_few_rounds(self, w, monkeypatch):
        # a bounding-box round kept a share w of its candidates: 64 points
        # took 16 s at w = 1e-6
        quad = ConvexPolygon([[0.0, 0.0], [1.0, 1.0 - w], [1.0, 1.0], [0.0, w]])
        calls = self.counting_contains(monkeypatch)
        pts = quad.sample_uniform(np.random.default_rng(4), 64)
        assert len(calls) <= 3 and sum(calls) <= 3 * 128
        monkeypatch.undo()
        assert pts.shape == (64, 2) and quad.contains(pts).all()

    @pytest.mark.parametrize("corners", [(0.0, 0.0, 1.0, 1.0),
                                         (-1.0, -2.0, 3.0, 1.5),
                                         (2.0, 5.0, 2.001, 9.0)])
    @pytest.mark.parametrize("size", [1, 5, 40, 100])
    def test_box_draws_in_its_bounding_box_as_before(self, corners, size):
        # the rule criterion 8 and the check-assumptions pins drew with
        x0, y0, x1, y1 = corners
        rng = np.random.default_rng(8)
        out = np.empty((0, 2))
        while len(out) < size:
            n = max(2 * (size - len(out)), 64)
            cand = np.column_stack([rng.uniform(x0, x1, n), rng.uniform(y0, y1, n)])
            inside = (cand > [x0, y0]).all(axis=1) & (cand < [x1, y1]).all(axis=1)
            out = np.vstack([out, cand[inside]])
        got = box(*corners).sample_uniform(np.random.default_rng(8), size)
        assert got.tobytes() == out[:size].tobytes()

    @pytest.mark.parametrize("polygon", [
        ConvexPolygon([[0, 0], [2, 0], [3, 2], [1, 3], [-1, 1]]),
        _turned_ellipse_polygon(12, 1e-4, 0.3, (2.0, -1.0))],
        ids=["pentagon", "turned-thin"])
    def test_fan_points_are_uniform(self, polygon):
        # the first and second moments about the vertex mean, each within
        # five standard errors of the polygon's own
        shift = polygon.vertices.mean(axis=0)
        p = polygon.sample_uniform(np.random.default_rng(6), 100_000) - shift
        x, y = p[:, 0], p[:, 1]
        stats = np.array([x, y, x * x, x * y, y * y])
        want = _polygon_moments(polygon.vertices - shift)
        z = (stats.mean(axis=1) - want) / (stats.std(axis=1) / np.sqrt(len(p)))
        assert np.abs(z).max() < 5.0, z
