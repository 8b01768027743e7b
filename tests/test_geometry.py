import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracwos.geometry import Ball, ConvexPolygon, box, unit_ball

finite_coord = st.floats(min_value=-10, max_value=10, allow_nan=False)


CONTAINS_DOMAINS = [
    unit_ball(), Ball((0.3, -1.7), 0.45), box(-1.0, -2.0, 3.0, 1.5),
    ConvexPolygon([[0, 0], [2, 0], [3, 2], [1, 3], [-1, 1]]),
]
unit = st.floats(min_value=0.0, max_value=1.0)


@st.composite
def point_near(draw, domain):
    """A random point, a point built on the boundary, a far point, or one
    with a NaN or infinite coordinate (where a wild jump can land)."""
    kind = draw(st.sampled_from(["random", "boundary", "vertex", "far",
                                 "nonfinite"]))
    if kind == "random":
        return draw(finite_coord), draw(finite_coord)
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

    def test_triangle_incenter(self):
        tri = ConvexPolygon([[0, 0], [1, 0], [0, 1]])
        # incenter radius of the right isoceles triangle
        r = (2 - np.sqrt(2)) / 2
        inc = (r, r)
        assert tri.distance(inc) == pytest.approx(r, rel=1e-12)


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

    @given(domain=st.sampled_from(CONTAINS_DOMAINS), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_contains_is_positive_distance(self, domain, data):
        # the walk retires a path once `not distance > 0` and never asks
        # `_contains`, so the two must agree element by element
        pts = data.draw(st.lists(point_near(domain), min_size=1, max_size=20))
        pts = np.array(pts, dtype=np.float64)
        with np.errstate(invalid="ignore"):  # inf * 0 in the polygon's edge products
            np.testing.assert_array_equal(domain._contains(pts),
                                          domain._distance(pts) > 0.0)

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

