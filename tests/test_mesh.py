import pickle

import numpy as np
import pytest

import fracwos.mesh
from fracwos.cli import write_field_csv
from fracwos.field import batch_defects, mass_matrix, mass_norm
from fracwos.geometry import Ball, ConvexPolygon, box, unit_ball
from fracwos.mesh import (_BARY_TOL, FieldVector, PointOutsideMeshError, _bary,
                          _cell_table, base_mesh_for, build_hierarchy,
                          interpolate, locate, make_base, prolong, prolong_to,
                          square_ball_base)

# degree-5 cubature on the reference triangle (7-point rule)
_Q5_BARY = np.array([
    [1 / 3, 1 / 3, 1 / 3],
    [0.059715871789770, 0.470142064105115, 0.470142064105115],
    [0.470142064105115, 0.059715871789770, 0.470142064105115],
    [0.470142064105115, 0.470142064105115, 0.059715871789770],
    [0.797426985353087, 0.101286507323456, 0.101286507323456],
    [0.101286507323456, 0.797426985353087, 0.101286507323456],
    [0.101286507323456, 0.101286507323456, 0.797426985353087],
])
_Q5_W = np.array([0.225,
                  0.132394152788506, 0.132394152788506, 0.132394152788506,
                  0.125939180544827, 0.125939180544827, 0.125939180544827])


def l2_norm_quadrature_oracle(level, values, mask=None):
    """Brute-force L2 norm by degree-5 quadrature of the squared interpolant."""
    tris = level.triangles if mask is None else level.triangles[mask]
    areas = level.areas() if mask is None else level.areas()[mask]
    f3 = values[tris]                       # (T, 3)
    node_vals = f3 @ _Q5_BARY.T             # (T, 7) interpolant at cubature nodes
    integral = (areas[:, None] * _Q5_W * node_vals ** 2).sum()
    return float(np.sqrt(integral))


def midpoint_norm_oracle(level, values, mask=None):
    """L2 norm of the interpolant by the edge-midpoint cubature
    Area/3 sum phi(m_i), which is exact for squares of linear functions."""
    f3 = values[level.triangles]
    mid = 0.5 * (f3 + np.roll(f3, -1, axis=1))
    q = level.areas() / 3.0 * (mid * mid).sum(axis=1)
    return float(np.sqrt((q if mask is None else q[mask]).sum()))


def mass_l2(level, values, mask=None):
    """The production L2 norm: sqrt(v' M v) with the mass matrix over the
    masked triangles (all of them without a mask)."""
    if mask is None:
        mask = np.ones(level.num_triangles, dtype=bool)
    return mass_norm(mass_matrix(level, mask), values)


def defect(hier, fine_ell, values):
    """batch_defects of one fine field."""
    return batch_defects(hier, np.asarray(values)[None, :], fine_ell - 1)[0]


def descent_locate(level, pts):
    """Reference point location: barycentric descent of the quadtree.

    Brute-forces the base level, then at every finer level picks the child
    from the barycentric coordinates in the parent (a coordinate >= 1/2
    selects that corner child, otherwise the medial one), and finally
    recomputes the weights in the fine triangle.  This was the library's
    own method before the per-level grid table replaced it.
    """
    def bary(lvl, tri):
        tv = lvl.vertices[lvl.triangles[tri]]
        v1, v2, v3 = tv[:, 0], tv[:, 1], tv[:, 2]
        det = ((v2[:, 0] - v1[:, 0]) * (v3[:, 1] - v1[:, 1])
               - (v2[:, 1] - v1[:, 1]) * (v3[:, 0] - v1[:, 0]))
        w1 = ((v2[:, 0] - pts[:, 0]) * (v3[:, 1] - pts[:, 1])
              - (v2[:, 1] - pts[:, 1]) * (v3[:, 0] - pts[:, 0])) / det
        w2 = ((v3[:, 0] - pts[:, 0]) * (v1[:, 1] - pts[:, 1])
              - (v3[:, 1] - pts[:, 1]) * (v1[:, 0] - pts[:, 0])) / det
        return np.column_stack([w1, w2, 1.0 - w1 - w2])

    chain = [level]
    while chain[-1].parent is not None:
        chain.append(chain[-1].parent)
    chain.reverse()
    base = chain[0]
    worst = np.stack([bary(base, np.full(len(pts), t)).min(axis=1)
                      for t in range(base.num_triangles)], axis=1)
    tri = worst.argmax(axis=1)
    assert np.all(worst[np.arange(len(pts)), tri]
                  >= -1e-12 * max(base.mesh_width, 1.0))
    for lvl in chain[1:]:
        w = bary(lvl.parent, tri)
        child = np.where(w[:, 0] >= 0.5, 0,
                         np.where(w[:, 1] >= 0.5, 1,
                                  np.where(w[:, 2] >= 0.5, 2, 3)))
        tri = 4 * tri + child
    w = bary(level, tri)
    assert np.all(w.min(axis=1) >= -1e-12)
    w = np.clip(w, 0.0, None)
    w /= w.sum(axis=1, keepdims=True)
    return tri, w


def grid_locate_reference(level, pts):
    """Reference point location: the grid table with the old weight tail.

    The base brute force and the cell-table lookup of `locate`, followed by
    the (P, 3) weight tail it used before the column-wise one: stack the
    three coordinates, reject by the row minimum, clip, and divide by the
    row sum.
    """
    px, py = pts[:, 0].copy(), pts[:, 1].copy()
    base = level
    while base.parent is not None:
        base = base.parent
    best = np.full(px.shape, -np.inf)
    tri = np.zeros(px.shape, dtype=np.int64)
    b1, b2 = np.zeros(px.shape), np.zeros(px.shape)
    for k, corners in enumerate(base.vertices[base.triangles].tolist()):
        (x1, y1), (x2, y2), (x3, y3) = corners
        w1, w2 = _bary(x1, y1, x2, y2, x3, y3, px, py)
        worst = np.minimum(np.minimum(w1, w2), 1.0 - w1 - w2)
        better = worst > best
        best[better], b1[better], b2[better] = worst[better], w1[better], w2[better]
        tri[better] = k
    bad = best < -_BARY_TOL * max(base.mesh_width, 1.0)
    if bad.any():
        raise PointOutsideMeshError(pts[bad])
    n = 1 << (level.level - base.level)
    s, t = n * b1, n * b2
    i = np.clip(s.astype(np.int64), 0, n - 1)
    j = np.clip(t.astype(np.int64), 0, n - 1)
    o = (s - i) + (t - j) >= 1.0
    tri = _cell_table(level, base)[((tri * n + i) * n + j) * 2 + o]
    x, y = level.vertices[:, 0], level.vertices[:, 1]
    c1, c2, c3 = level.triangles[tri].T
    w1, w2 = _bary(x[c1], y[c1], x[c2], y[c2], x[c3], y[c3], px, py)
    w = np.column_stack([w1, w2, 1.0 - w1 - w2])
    bad = w.min(axis=1) < -_BARY_TOL
    if bad.any():
        raise PointOutsideMeshError(pts[bad])
    w = np.clip(w, 0.0, None)
    w /= w.sum(axis=1, keepdims=True)
    return tri, w


_HEXAGON_ANGLES = np.arange(6) * np.pi / 3.0
_HEXAGON = ConvexPolygon(np.column_stack([np.cos(_HEXAGON_ANGLES),
                                          np.sin(_HEXAGON_ANGLES)]))


def hexagon_fan_base():
    """Regular hexagon split into six triangles around its centre."""
    v = np.vstack([_HEXAGON.vertices, [0.0, 0.0]])
    return make_base(v, [[i, (i + 1) % 6, 6] for i in range(6)])


@pytest.fixture(scope="module")
def hex5():
    return build_hierarchy(hexagon_fan_base(), 5, domain=_HEXAGON)


def probe_points(level, rng, count=4000):
    """Random points in random triangles, every vertex, every edge midpoint."""
    tri = rng.integers(0, level.num_triangles, count)
    w = rng.dirichlet(np.ones(3), count)
    tv = level.vertices[level.triangles]
    inside = np.einsum("pk,pkd->pd", w, tv[tri])
    mids = 0.5 * (tv + np.roll(tv, -1, axis=1)).reshape(-1, 2)
    return inside, np.vstack([inside, level.vertices, mids])


@pytest.fixture(scope="module")
def unit_square_hier():
    base = make_base([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]],
                     [[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]])
    return build_hierarchy(base, 4, domain=box(0.0, 0.0, 1.0, 1.0))


def loop_refine(level):
    """Reference quadrisection: the per-triangle loop `refine` replaced.

    Numbers each new midpoint when its edge first appears in the order
    ab, bc, ca of triangle 0, 1, ...; returns (vertices, triangles,
    parent pairs of the new vertices).
    """
    v, tris = level.vertices, level.triangles
    nc = v.shape[0]
    edge_index, mid_pairs = {}, []

    def midpoint(a, b):
        key = (a, b) if a < b else (b, a)
        idx = edge_index.get(key)
        if idx is None:
            idx = edge_index[key] = nc + len(mid_pairs)
            mid_pairs.append(key)
        return idx

    new_tris = np.empty((4 * tris.shape[0], 3), dtype=np.int64)
    for k, (a, b, c) in enumerate(tris):
        mab, mbc, mca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
        new_tris[4 * k:4 * k + 4] = [(a, mab, mca), (b, mbc, mab),
                                     (c, mca, mbc), (mab, mbc, mca)]
    pairs = np.array(mid_pairs, dtype=np.int64)
    fine_v = np.vstack([v, 0.5 * (v[pairs[:, 0]] + v[pairs[:, 1]])])
    return fine_v, new_tris, pairs


def fan_base(poly):
    """Centroid fan of a convex polygon, as the CLI meshes polygons."""
    n = poly.vertices.shape[0]
    v = np.vstack([poly.vertices, poly.vertices.mean(axis=0)])
    return make_base(v, [[i, (i + 1) % n, n] for i in range(n)])


_PENTAGON = ConvexPolygon(np.array([[0.0, 0.0], [1.0, 0.0], [1.2, 0.8],
                                    [0.5, 1.3], [-0.2, 0.8]]))


class TestRefinement:
    @pytest.mark.parametrize("name", ["ball", "box", "pentagon"])
    def test_matches_loop_reference(self, name):
        domain = {"ball": Ball((0.3, -0.2), 1.7), "box": box(0.0, 0.0, 2.0, 1.0),
                  "pentagon": _PENTAGON}[name]
        base = (square_ball_base(domain) if name == "ball"
                else fan_base(domain))
        hier = build_hierarchy(base, 7, domain=domain)
        for ell in range(2, 8):
            coarse, fine = hier.level(ell - 1), hier.level(ell)
            v, t, pairs = loop_refine(coarse)
            assert fine.triangles.dtype == t.dtype
            assert fine.parent_edges.dtype == pairs.dtype
            np.testing.assert_array_equal(fine.vertices, v)
            np.testing.assert_array_equal(fine.triangles, t)
            np.testing.assert_array_equal(fine.parent_edges, pairs)

    def test_vertex_count_after_one_refinement(self):
        hier = build_hierarchy(square_ball_base(), 2, domain=unit_ball())
        assert hier.level(2).num_vertices == 13

    def test_quadrisection_triangle_count(self, hier6):
        for ell in range(2, 7):
            assert hier6.level(ell).num_triangles \
                == 4 * hier6.level(ell - 1).num_triangles

    def test_mesh_width_halves_exactly(self, hier6):
        h1 = hier6.level(1).mesh_width
        for ell in range(1, 7):
            assert hier6.level(ell).mesh_width == h1 * 2.0 ** (1 - ell)

    def test_area_preserved_exactly(self, hier6):
        base_area = hier6.level(1).areas().sum()
        for ell in range(2, 7):
            assert hier6.level(ell).areas().sum() == pytest.approx(
                base_area, rel=1e-14)

    def test_shape_regularity_constant_preserved(self, hier6):
        def sr_const(level):
            tv = level.vertices[level.triangles]
            edges = np.roll(tv, -1, axis=1) - tv
            h_tau = np.hypot(edges[..., 0], edges[..., 1]).max(axis=1)
            return (level.areas() / h_tau ** 2).min()
        c_base = sr_const(hier6.level(1))
        for ell in range(2, 7):
            assert sr_const(hier6.level(ell)) >= c_base - 1e-14

    def test_nesting_bit_exact(self, hier6):
        for ell in range(2, 7):
            coarse = hier6.level(ell - 1)
            fine = hier6.level(ell)
            nc = coarse.num_vertices
            np.testing.assert_array_equal(fine.vertices[:nc], coarse.vertices)
            pa, pb = fine.parent_edges.T
            np.testing.assert_array_equal(
                fine.vertices[nc:],
                0.5 * (coarse.vertices[pa] + coarse.vertices[pb]))

    def test_rejects_duplicate_vertices(self):
        with pytest.raises(ValueError):
            make_base([[0, 0], [1, 0], [0, 1], [0, 0]], [[0, 1, 2]])

    def test_rejects_inverted_triangle(self):
        with pytest.raises(ValueError):
            make_base([[0, 0], [1, 0], [0, 1]], [[0, 2, 1]])

    def test_hierarchy_range_errors(self, hier6):
        with pytest.raises(ValueError):
            hier6.level(0)
        with pytest.raises(ValueError):
            hier6.level(7)
        assert hier6.level(1).parent_edges is None  # the base has no parents

    def test_finest_below_base_rejected(self):
        with pytest.raises(ValueError):
            build_hierarchy(square_ball_base(), 0, domain=unit_ball())

    @pytest.mark.parametrize("finest", [np.nan, 3.5, np.inf])
    def test_non_integer_finest_level_rejected_before_refining(
            self, monkeypatch, finest):
        # NaN used to build level 1 alone, 3.5 levels 1..4, and inf to
        # refine until memory ran out; the spy stops that after three calls
        calls, refine = [], fracwos.mesh.refine

        def bounded(level):
            calls.append(level.level)
            if len(calls) > 3:
                raise AssertionError("refined past three levels")
            return refine(level)

        monkeypatch.setattr(fracwos.mesh, "refine", bounded)
        with pytest.raises(ValueError, match="^finest_level must be an "
                                             f"integer, got {finest!r}$"):
            build_hierarchy(square_ball_base(), finest, domain=unit_ball())
        assert calls == []

    @pytest.mark.parametrize("vertices, triangles, msg", [
        ([0, 0, 1, 0, 0, 1], [[0, 1, 2]], "vertices must be a finite"),
        ([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]],
         "vertices must be a finite"),
        ([[0, 0], [1, np.nan], [0, 1]], [[0, 1, 2]],
         "vertices must be a finite"),
        ([[0, 0], [1, 0], [0, 1]], [0, 1, 2], "triangles must be an"),
        ([[0, 0], [1, 0], [0, 1]], [[0, 1, 3]], "triangle index out of range"),
        ([[0, 0], [1, 0], [0, 1]], [[-1, 1, 2]],
         "triangle index out of range"),
        # a float index used to be truncated, 1.7 to 1, and no triangle to
        # fail with numpy's zero-size reduction message
        ([[0, 0], [1, 0], [0, 1]], [[0, 1.7, 2]], "triangles must be an"),
        ([[0, 0], [1, 0], [0, 1]], np.zeros((0, 3), dtype=np.int64),
         "triangles must be an")])
    def test_rejects_malformed_base(self, vertices, triangles, msg):
        with pytest.raises(ValueError, match=f"^{msg}"):
            make_base(vertices, triangles)

    def test_domain_required(self):
        with pytest.raises(TypeError):
            build_hierarchy(square_ball_base(), 3)


class TestLocate:
    def test_vertex_point(self, hier6):
        lvl = hier6.level(4)
        (tri,), (w,) = locate(lvl, lvl.vertices[[37]])
        assert w.max() == pytest.approx(1.0, abs=1e-12)
        assert lvl.triangles[tri][w.argmax()] == 37

    def test_centroid(self, hier6):
        lvl = hier6.level(3)
        tv = lvl.vertices[lvl.triangles[10]]
        (tri,), (w,) = locate(lvl, tv.mean(axis=0)[None, :])
        assert tri == 10
        np.testing.assert_allclose(w, [1 / 3] * 3, atol=1e-12)

    def test_edge_midpoint(self, hier6):
        lvl = hier6.level(3)
        tv = lvl.vertices[lvl.triangles[5]]
        mid = 0.5 * (tv[0] + tv[1])
        _, (w,) = locate(lvl, mid[None, :])
        assert sorted(w.round(12)) == pytest.approx([0.0, 0.5, 0.5], abs=1e-12)

    def test_outside_raises_with_points(self, hier6):
        with pytest.raises(PointOutsideMeshError) as exc:
            locate(hier6.level(4), np.array([[3.0, 0.0]]))
        assert exc.value.points.shape == (1, 2)

    def test_batch_consistency(self, hier6, rng):
        lvl = hier6.level(6)
        pts = rng.uniform(-0.999, 0.999, (500, 2))
        tri, w = locate(lvl, pts)
        recon = np.einsum("pk,pkd->pd", w, lvl.vertices[lvl.triangles[tri]])
        np.testing.assert_allclose(recon, pts, atol=1e-12)


LEVELS = [("hier6", ell) for ell in range(1, 7)] + \
    [("hex5", ell) for ell in range(1, 6)]


@pytest.mark.parametrize("mesh_name, ell", LEVELS)
class TestLocateAgainstDescent:
    def test_off_edge_points_match_descent(self, request, mesh_name, ell, rng):
        lvl = request.getfixturevalue(mesh_name).level(ell)
        pts, _ = probe_points(lvl, rng)
        tri0, w0 = descent_locate(lvl, pts)
        off = w0.min(axis=1) > 1e-9
        assert off.mean() > 0.95
        tri, w = locate(lvl, pts)
        np.testing.assert_array_equal(tri[off], tri0[off])
        np.testing.assert_array_equal(w[off], w0[off])

    def test_interpolation_matches_descent(self, request, mesh_name, ell, rng):
        lvl = request.getfixturevalue(mesh_name).level(ell)
        _, pts = probe_points(lvl, rng)
        vals = rng.normal(size=lvl.num_vertices)
        tri0, w0 = descent_locate(lvl, pts)
        ref = np.einsum("pk,pk->p", w0, vals[lvl.triangles[tri0]])
        np.testing.assert_allclose(interpolate(lvl, vals, pts), ref,
                                   rtol=0.0, atol=1e-14)

    def test_centroids_locate_to_themselves(self, request, mesh_name, ell):
        lvl = request.getfixturevalue(mesh_name).level(ell)
        tri, _ = locate(lvl, lvl.vertices[lvl.triangles].mean(axis=1))
        np.testing.assert_array_equal(tri, np.arange(lvl.num_triangles))

    def test_outside_points_raise(self, request, mesh_name, ell):
        lvl = request.getfixturevalue(mesh_name).level(ell)
        base = request.getfixturevalue(mesh_name).level(1)
        outside = np.vstack([1.01 * base.vertices[:-1], [[3.0, 0.5]]])
        inside = 0.5 * base.vertices
        pts = np.vstack([inside, outside])
        with pytest.raises(PointOutsideMeshError) as exc:
            locate(lvl, pts)
        np.testing.assert_array_equal(exc.value.points, outside)
        for bad in ([np.nan, 0.0], [np.inf, 0.0]):
            with np.errstate(invalid="ignore"), \
                    pytest.raises(PointOutsideMeshError):
                locate(lvl, np.array([bad]))


class TestLocateAgainstOldTail:
    def test_triangles_and_weight_bits(self, hier6, rng):
        lvl = hier6.level(6)
        tv = lvl.vertices[lvl.triangles]
        mids = 0.5 * (tv + np.roll(tv, -1, axis=1)).reshape(-1, 2)
        ang = np.concatenate([rng.uniform(0.0, 2 * np.pi, 2000),
                              0.5 * np.pi * np.arange(4)])
        # just outside the square's sides, within the tolerance: clamped
        # weights, so the normalization is not a division by one
        t, e = rng.uniform(-1.0, 1.0, 500), rng.uniform(0.0, 2e-14, 500)
        near = np.vstack([np.column_stack([1.0 + e, t]),
                          np.column_stack([t, -1.0 - e])])
        pts = np.vstack([rng.uniform(-1.0, 1.0, (4000, 2)), lvl.vertices,
                         np.unique(mids, axis=0),
                         np.column_stack([np.cos(ang), np.sin(ang)]), near])
        tri0, w0 = grid_locate_reference(lvl, pts)
        tri, w = locate(lvl, pts)
        np.testing.assert_array_equal(tri, tri0)
        assert w.view(np.uint64).tolist() == w0.view(np.uint64).tolist()
        assert (w0[-near.shape[0]:] == 0.0).any(axis=1).all()

    def test_outside_and_nan_points_raise(self, hier6):
        lvl = hier6.level(6)
        inside = np.array([[0.1, 0.2], [-0.3, 0.9]])
        # 1e-12 past a side passes the base check but not the fine one
        past = [[[1.0 + 1e-12, 0.3]], [[-1.0 - 1e-12, 0.3]],
                [[0.3, 1.0 + 1e-12]], [[0.3, -1.0 - 1e-12]]]
        for bad in [[[1.5, 0.0], [0.0, -1.001]], [[np.nan, 0.0]],
                    [[0.2, np.nan]]] + past:
            pts = np.vstack([inside, bad])
            for loc in (locate, grid_locate_reference):
                with np.errstate(invalid="ignore"), \
                        pytest.raises(PointOutsideMeshError) as exc:
                    loc(lvl, pts)
                np.testing.assert_array_equal(exc.value.points, bad)


class TestLocateForms:
    def test_single_point_rejected(self, hier6):
        lvl = hier6.level(5)
        with pytest.raises(ValueError, match=r"\(P, 2\)"):
            locate(lvl, np.array([0.1, -0.2]))
        with pytest.raises(ValueError, match=r"\(P, 2\)"):
            interpolate(lvl, np.ones(lvl.num_vertices), (0.1, -0.2))

    def test_empty_query(self, hier6):
        tri, w = locate(hier6.level(4), np.empty((0, 2)))
        assert tri.shape == (0,) and w.shape == (0, 3)

    def test_table_is_lazy_and_survives_pickle(self, rng):
        hier = build_hierarchy(square_ball_base(), 4, domain=unit_ball())
        lvl = hier.level(4)
        assert lvl._table is None          # building a hierarchy builds no table
        pts = rng.uniform(-1.0, 1.0, (300, 2))
        tri, w = locate(lvl, pts)
        assert lvl._table is not None
        back = pickle.loads(pickle.dumps(lvl))
        for part, part_back in zip(lvl._table, back._table):
            np.testing.assert_array_equal(part_back, part)
        tri2, w2 = locate(back, pts)
        np.testing.assert_array_equal(tri2, tri)
        np.testing.assert_array_equal(w2, w)


class TestSquareBallBase:
    def test_unit_ball_vertices_unchanged(self):
        np.testing.assert_array_equal(
            square_ball_base(unit_ball()).vertices,
            [[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0], [0.0, 0.0]])
        np.testing.assert_array_equal(square_ball_base().vertices,
                                      square_ball_base(unit_ball()).vertices)

    def test_off_centre_ball_locates_everywhere(self, rng):
        ball = Ball((2.5, -1.0), 0.75)
        hier = build_hierarchy(square_ball_base(ball), 4, domain=ball)
        lvl = hier.level(4)
        r = 0.75 * np.sqrt(rng.random(2000))
        ang = 2.0 * np.pi * rng.random(2000)
        rim = 2.0 * np.pi * np.arange(64) / 64
        pts = np.vstack([np.column_stack([r * np.cos(ang), r * np.sin(ang)]),
                         0.75 * np.column_stack([np.cos(rim), np.sin(rim)])])
        pts += [2.5, -1.0]
        assert ball.contains_closed(pts).all()
        phi = lambda p: 2.0 * p[..., 0] - p[..., 1] + 0.5
        np.testing.assert_allclose(interpolate(lvl, phi(lvl.vertices), pts),
                                   phi(pts), atol=1e-12)
        assert ball.contains(lvl.vertices).sum() > 0

    def test_rejects_polygon(self):
        with pytest.raises(ValueError):
            square_ball_base(box(0.0, 0.0, 1.0, 1.0))


def boundary_probes(polygon, rng, count=500):
    """Points on a polygon's sides, and as many up to 2e-14 outside them."""
    verts = polygon.vertices                      # counter-clockwise
    edges = np.roll(verts, -1, axis=0) - verts
    normals = np.column_stack([edges[:, 1], -edges[:, 0]])   # outward
    normals /= np.hypot(normals[:, 0], normals[:, 1])[:, None]
    side = rng.integers(0, len(verts), count)
    on = verts[side] + rng.uniform(0.0, 1.0, (count, 1)) * edges[side]
    off = on + rng.uniform(0.0, 2e-14, (count, 1)) * normals[side]
    return np.vstack([on, off])


class TestInterpolateBits:
    """`interpolate` gives the bits of the reference location followed by
    the einsum-order sum (w1 f1 + w3 f3) + w2 f2, on the points as the walk
    hands them over: the (P, 2) view of an (x row, y row) array."""

    @pytest.fixture(scope="class")
    def pentagon5(self):
        return build_hierarchy(base_mesh_for(_PENTAGON), 5, domain=_PENTAGON)

    def reference(self, level, vals, pts):
        tri, w = grid_locate_reference(level, pts)
        f = vals[level.triangles[tri]]
        return (w[:, 0] * f[:, 0] + w[:, 2] * f[:, 2]) + w[:, 1] * f[:, 1]

    def probes(self, level, domain, rng):
        tv = level.vertices[level.triangles]
        mids = np.unique(0.5 * (tv + np.roll(tv, -1, axis=1)).reshape(-1, 2),
                         axis=0)
        inside = domain.sample_uniform(rng, 4000)
        return np.vstack([inside, level.vertices, mids,
                          boundary_probes(domain, rng)])

    def check(self, level, domain, rng, monkeypatch):
        pts = self.probes(level, domain, rng)
        rows = np.ascontiguousarray(pts.T)          # (2, P): x row, y row
        vals = rng.normal(size=level.num_vertices)
        ref = self.reference(level, vals, pts).view(np.uint64).tolist()
        assert interpolate(level, vals, rows.T).view(np.uint64).tolist() == ref
        # located in several calls, one a short tail
        monkeypatch.setattr(fracwos.mesh, "_BLOCK", 997)
        assert interpolate(level, vals, rows.T).view(np.uint64).tolist() == ref
        tri0, w0 = grid_locate_reference(level, pts)
        tri, w = locate(level, rows.T)
        np.testing.assert_array_equal(tri, tri0)
        assert w.view(np.uint64).tolist() == w0.view(np.uint64).tolist()

    @pytest.mark.parametrize("ell", range(2, 7))
    def test_unit_ball_levels(self, hier6, ell, rng, monkeypatch):
        # the mesh covers the square around the ball: probe its sides
        self.check(hier6.level(ell), box(-1.0, -1.0, 1.0, 1.0), rng,
                   monkeypatch)

    @pytest.mark.parametrize("ell", [1, 3, 5])
    def test_pentagon_fan(self, pentagon5, ell, rng, monkeypatch):
        base = pentagon5.level(1)
        assert base.num_triangles == 5
        # four distinct determinants; the square's four triangles share one
        assert len(set(base.areas().tolist())) == 4
        self.check(pentagon5.level(ell), _PENTAGON, rng, monkeypatch)

    def test_nan_point_raises(self, hier6):
        lvl = hier6.level(6)
        vals = np.zeros(lvl.num_vertices)
        for bad in ([np.nan, 0.1], [0.1, np.nan], [np.inf, 0.0]):
            pts = np.array([[0.1, 0.2], bad, [-0.3, 0.4]])
            with np.errstate(invalid="ignore"), \
                    pytest.raises(PointOutsideMeshError):
                interpolate(lvl, vals, pts)

    def test_goes_through_module_locate(self, hier6, rng, monkeypatch):
        """The per-layer trace wraps `mesh.locate`; interpolate must call it
        there, or the traced locate time and point count read 0."""
        located = []
        real = fracwos.mesh.locate

        def spy(level, p):
            located.append(np.shape(p)[0])
            return real(level, p)

        monkeypatch.setattr(fracwos.mesh, "locate", spy)
        lvl = hier6.level(5)
        pts = rng.uniform(-0.9, 0.9, (2 * fracwos.mesh._BLOCK + 5, 2))
        vals = rng.normal(size=lvl.num_vertices)
        out = interpolate(lvl, vals, pts)
        assert sum(located) == pts.shape[0] and len(located) == 3
        monkeypatch.undo()
        np.testing.assert_array_equal(out, interpolate(lvl, vals, pts))


class TestInterpolate:
    def test_edge_linear(self):
        base = make_base([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]])
        f = np.array([0.0, 1.0, 2.0])
        assert interpolate(base, f, [(0.5, 0.5)]) == pytest.approx([1.5])

    def test_constant_partition_of_unity(self, hier6, rng):
        lvl = hier6.level(5)
        f = np.full(lvl.num_vertices, 3.7)
        pts = rng.uniform(-0.99, 0.99, (200, 2))
        np.testing.assert_allclose(interpolate(lvl, f, pts), 3.7, atol=1e-12)

    def test_linear_reproduction(self, hier6, rng):
        lvl = hier6.level(6)
        phi = lambda p: 3.0 * p[..., 0] - 2.0 * p[..., 1] + 1.0
        f = phi(lvl.vertices)
        pts = rng.uniform(-0.99, 0.99, (500, 2))
        np.testing.assert_allclose(interpolate(lvl, f, pts), phi(pts), atol=1e-12)


class TestL2Norm:
    def test_unit_constant_on_unit_square(self, unit_square_hier):
        lvl = unit_square_hier.level(3)
        assert mass_l2(lvl, np.ones(lvl.num_vertices)) == pytest.approx(1.0, rel=1e-14)

    def test_linear_field_analytic(self, unit_square_hier):
        # integral of x^2 over the unit square is 1/3
        lvl = unit_square_hier.level(4)
        assert mass_l2(lvl, lvl.vertices[:, 0]) == pytest.approx(
            1 / np.sqrt(3), rel=1e-14)

    def test_zero_field(self, unit_square_hier):
        lvl = unit_square_hier.level(2)
        assert mass_l2(lvl, np.zeros(lvl.num_vertices)) == 0.0

    def test_against_degree5_oracle(self, hier6, rng):
        lvl = hier6.level(4)
        vals = rng.normal(size=lvl.num_vertices)
        mine = mass_l2(lvl, vals)
        oracle = l2_norm_quadrature_oracle(lvl, vals)
        assert mine == pytest.approx(oracle, rel=1e-10)

    def test_masked_against_oracle(self, hier6, rng):
        lvl = hier6.level(5)
        mask = hier6.norm_mask(5)
        vals = rng.normal(size=lvl.num_vertices)
        assert mass_l2(lvl, vals, mask) == pytest.approx(
            l2_norm_quadrature_oracle(lvl, vals, mask), rel=1e-10)

    def test_refinement_invariance(self, hier6, rng):
        vals = rng.normal(size=hier6.level(4).num_vertices)
        f5 = prolong(hier6, FieldVector(4, vals))
        assert mass_l2(hier6.level(4), vals) == pytest.approx(
            mass_l2(hier6.level(5), f5.values), rel=1e-12)

    def test_mass_matrix_route_agrees(self, hier6, rng):
        lvl = hier6.level(5)
        mask = hier6.norm_mask(5)
        vals = rng.normal(size=lvl.num_vertices)
        assert mass_l2(lvl, vals, mask) == pytest.approx(
            midpoint_norm_oracle(lvl, vals, mask), rel=1e-12)


class TestTransferOperators:
    """Coarse vertices keep their indices, so restriction is the prefix
    values[:n_coarse]; the defect is the fine field minus the prolonged
    prefix."""

    def test_restrict_copies_inherited(self, hier6, rng):
        # the prefix of a prolonged field gives the coarse field back exactly
        vals = rng.normal(size=hier6.level(4).num_vertices)
        fine = prolong(hier6, FieldVector(4, vals))
        np.testing.assert_array_equal(fine.values[:vals.size], vals)

    def test_restrict_constant(self, hier6):
        fine = prolong_to(hier6, FieldVector(3, np.full(
            hier6.level(3).num_vertices, 4.2)), 6)
        assert np.all(fine.values == 4.2)

    def test_restrict_linear_field(self, hier6):
        # the prefix is the fine interpolant evaluated at the coarse vertices
        phi = lambda p: 2.0 * p[..., 0] + p[..., 1] - 0.3
        fine = phi(hier6.level(5).vertices)
        coarse_v = hier6.level(4).vertices
        nc = coarse_v.shape[0]
        np.testing.assert_array_equal(fine[:nc], phi(coarse_v))
        np.testing.assert_allclose(interpolate(hier6.level(5), fine, coarse_v),
                                   fine[:nc], atol=1e-12)

    def test_defect_zero_for_linear(self, hier6):
        phi = lambda p: -1.5 * p[..., 0] + 0.7 * p[..., 1] + 2.0
        np.testing.assert_allclose(defect(hier6, 5, phi(hier6.level(5).vertices)),
                                   0.0, atol=1e-13)

    def test_defect_zero_for_constant(self, hier6):
        vals = np.full(hier6.level(5).num_vertices, 2.2)
        assert np.all(defect(hier6, 5, vals) == 0.0)

    def test_defect_hand_value(self, hier6):
        # midpoint value 3 with parent values 0 and 2 leaves a defect of 2
        nc = hier6.level(4).num_vertices
        vals = np.zeros(hier6.level(5).num_vertices)
        a, b = hier6.level(5).parent_edges[0]
        vals[a], vals[b], vals[nc] = 0.0, 2.0, 3.0
        assert defect(hier6, 5, vals)[nc] == pytest.approx(2.0)

    def test_defect_norm_identity(self, hier6, rng):
        # defect norm equals the norm of fine minus prolonged restriction
        vals = rng.normal(size=hier6.level(5).num_vertices)
        nc = hier6.level(4).num_vertices
        recon = prolong(hier6, FieldVector(4, vals[:nc]))
        assert mass_l2(hier6.level(5), defect(hier6, 5, vals)) == pytest.approx(
            mass_l2(hier6.level(5), vals - recon.values), rel=1e-12)

    def test_prolong_to_multiple_levels(self, hier6):
        phi = lambda p: p[..., 0] - 3.0 * p[..., 1]
        f3 = FieldVector(3, phi(hier6.level(3).vertices))
        f6 = prolong_to(hier6, f3, 6)
        np.testing.assert_allclose(f6.values, phi(hier6.level(6).vertices),
                                   atol=1e-12)

    def test_level_mismatch_rejected(self, hier6):
        with pytest.raises(ValueError, match="does not match"):
            prolong(hier6, FieldVector(5, np.zeros(7)))
        with pytest.raises(ValueError, match="does not match"):
            interpolate(hier6.level(5), np.zeros(7), [(0.0, 0.0)])

    @pytest.mark.parametrize("values, msg", [
        (np.zeros((2, 3)), "field values must be a flat vector"),
        ([0.0, np.nan], "non-finite field value"),
        ([np.inf, 0.0], "non-finite field value")])
    def test_field_vector_rejects_bad_values(self, values, msg):
        with pytest.raises(ValueError, match=f"^{msg}$"):
            FieldVector(3, values)


class TestFieldCsv:
    def test_round_trip(self, hier6, tmp_path, rng):
        lvl = hier6.level(3)
        vals = rng.normal(size=lvl.num_vertices)
        path = tmp_path / "field.csv"
        write_field_csv(path, lvl, vals, alpha=1.5, seed=99)
        assert path.read_text().splitlines()[:2] == [
            "# level=3 alpha=1.5 seed=99", "vertex_index,x,y,value"]
        rows = np.loadtxt(path, delimiter=",", skiprows=2)
        np.testing.assert_array_equal(rows[:, 0], np.arange(lvl.num_vertices))
        np.testing.assert_array_equal(rows[:, 1:3], lvl.vertices)
        np.testing.assert_array_equal(rows[:, 3], vals)
