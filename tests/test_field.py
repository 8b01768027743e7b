import tracemalloc

import numpy as np
import pytest

from fracwos import mlmc
from fracwos.cli import ExprField
from conftest import assembled_mass, tiled_walk
from pins import pin, sha256
from fracwos.field import (FieldMoments, InsufficientSamplesError,
                           batch_defects, field_values, mass_matrix, mass_norm,
                           squared_norms, walk_starts)
from fracwos.geometry import Ball, ConvexPolygon, box
from fracwos.mesh import (base_mesh_for, build_hierarchy, interpolate,
                          square_ball_base)
from fracwos.problems import Problem, by_name
from fracwos.sampling import (MaxStepsExceededError, point_estimate,
                              reg_inc_beta, walk)
from fracwos.streams import derive_key, step_tuples


def midpoint_defect(hier, fine_ell, vals):
    """Oracle defect of one fine field: each new vertex's value minus the
    mean of its parent edge's end values; zero at inherited vertices."""
    nc = hier.level(fine_ell - 1).num_vertices
    out = np.zeros_like(vals)
    for i, (a, b) in enumerate(hier.level(fine_ell).parent_edges, start=nc):
        out[i] = vals[i] - 0.5 * (vals[a] + vals[b])
    return out


def zero_f(pts):
    return np.zeros(np.asarray(pts).shape[:-1])


def replay(start, key, problem):
    """Scalar oracle: re-walk one (key, start) pair one step at a time.

    Step n jumps by Theta d / sqrt(beta) and adds the source term of the
    key's step-n tuple.  Values are kept as one-element arrays because
    numpy's scalar power differs from its array loop in the last bit, which
    1 - S^(2/alpha) amplifies near S = 1.  Returns (walk value, steps).
    """
    dom, alpha, prm = problem.domain, problem.alpha, problem.params
    x, acc, n = np.array([start], dtype=np.float64), 0.0, 0
    while True:
        n += 1
        d = dom.distance(x)
        if d[0] <= 0.0:
            break
        beta, theta, s, phi = step_tuples(alpha, key, np.uint32(n - 1))
        y = x + d * s ** (1.0 / alpha) * phi
        w = reg_inc_beta(1.0 - s ** (2.0 / alpha), alpha)
        fx, fy = problem.f(x), problem.f(y)
        acc += (prm.a1 * d ** alpha * ((fy - fx) * w + prm.a2 * fx))[0]
        x = x + theta * (d / np.sqrt(beta))
        if not dom.contains(x)[0]:
            break
    return float(problem.g(x)[0]) + acc, n


_PENTAGON = ConvexPolygon([[1.0, 0.0], [0.309017, 0.951057],
                           [-0.809017, 0.587785], [-0.809017, -0.587785],
                           [0.309017, -0.951057]])


def _pentagon_problem(alpha):
    return Problem(alpha=alpha, domain=_PENTAGON,
                   f=lambda pts: np.ones(np.asarray(pts).shape[:-1]),
                   g=lambda pts: np.asarray(pts)[..., 0])


class TestSampleField:
    def test_constant_exterior(self, hier6, ball):
        prob = Problem(alpha=1.0, domain=ball, f=zero_f,
                       g=lambda pts: np.ones(np.asarray(pts).shape[:-1]))
        keys = derive_key(3, np.arange(2))
        vals, cost = next(field_values([(hier6.level(4), keys)], prob))
        np.testing.assert_allclose(vals, 1.0, atol=1e-14)
        assert cost > 0

    def test_deterministic_given_sequence(self, hier6, ex1):
        keys = derive_key(42, np.arange(3))
        a, ca = next(field_values([(hier6.level(4), keys)], ex1))
        b, cb = next(field_values([(hier6.level(4), keys)], ex1))
        np.testing.assert_array_equal(a, b)
        assert ca == cb

    def test_exterior_vertices_carry_g(self, hier6, ex3):
        lvl = hier6.level(4)
        vals, _ = next(field_values([(lvl, derive_key(9, np.arange(2)))], ex3))
        outside = ~ex3.domain.contains(lvl.vertices)
        for row in vals:
            np.testing.assert_allclose(row[outside],
                                       ex3.g(lvl.vertices[outside]), atol=1e-14)

    def test_center_vertex_mean_matches_point_estimate(self, hier6, ex1):
        # field-sampler values at a vertex are the same estimator as the
        # point sampler (cross-validates the two walker implementations)
        lvl = hier6.level(3)
        vtx = 4  # the origin in the standard base ordering
        assert np.array_equal(lvl.vertices[vtx], [0.0, 0.0])
        M = 3000
        keys = derive_key(77, np.arange(M))
        vals, _ = next(field_values([(lvl, keys)], ex1))
        mean_field = vals[:, vtx].mean()
        se_f = vals[:, vtx].std(ddof=1) / np.sqrt(M)
        est = point_estimate((0.0, 0.0), ex1, 200000, seed=15)
        se_p = np.sqrt(est.variance / 200000)
        tol = 4 * np.sqrt(se_f ** 2 + se_p ** 2) + 1e-9
        assert abs(mean_field - est.mean) <= tol

    def test_exchangeable_vertex_order(self, hier6, ex1, rng):
        # permuting the start array permutes outputs, nothing else
        verts = hier6.level(4).vertices
        starts = verts[hier6.domain.contains(verts)]
        keys = derive_key(5, np.arange(3))
        vals, _ = tiled_walk(starts, ex1, keys)[:2]
        perm = rng.permutation(starts.shape[0])
        vals_p, _ = tiled_walk(starts[perm], ex1, keys)[:2]
        np.testing.assert_array_equal(vals_p, vals[:, perm])

    @pytest.mark.parametrize("mesh_domain", [Ball((0.0, 0.0), 0.5), None],
                             ids=["smaller_ball", "none"])
    def test_problem_domain_decides_walks(self, ball, ex1, mesh_domain):
        # the exterior-value problem walks from exactly the vertices inside
        # its own domain, whatever domain (if any) the mesh was built for
        def level4(domain):
            return build_hierarchy(square_ball_base(ball), 4, domain=domain).level(4)

        keys = derive_key(1, np.arange(64))
        vals, cost = next(field_values([(level4(mesh_domain), keys)], ex1))
        ref, ref_cost = next(field_values([(level4(ball), keys)], ex1))
        assert vals.tobytes() == ref.tobytes()
        assert cost == ref_cost


class TestLinearity:
    @pytest.mark.parametrize("alpha", [0.5, 1.5])
    def test_sum_of_data_sums_values(self, hier6, alpha):
        # walks do not depend on (f, g), so with shared keys the values are
        # linear in the data realization by realization, steps identical
        p1, p3 = by_name("example1", alpha), by_name("example3", alpha)
        both = Problem(alpha=alpha, domain=p1.domain,
                       f=lambda pts: p1.f(pts) + p3.f(pts),
                       g=lambda pts: p1.g(pts) + p3.g(pts))
        lvl, keys = hier6.level(4), derive_key(13, np.arange(6))
        v1, c1 = next(field_values([(lvl, keys)], p1))
        v3, c3 = next(field_values([(lvl, keys)], p3))
        vb, cb = next(field_values([(lvl, keys)], both))
        np.testing.assert_allclose(vb, v1 + v3, rtol=1e-12, atol=0.0)
        assert c1 == c3 == cb


class TestPowerOfTwoScaling:
    """With f = 0, scaling the domain and the starts by s = 2^k and reading
    the exterior data at x/s scales every distance and jump exactly, so the
    walks of each key agree bit for bit."""

    # name: (domain scaled by s, centre and radius of a disc inside it)
    DOMAINS = {
        "unit_ball": (lambda s: Ball((0.0, 0.0), s), (0.0, 0.0), 1.0),
        "off_centre_ball": (lambda s: Ball((0.25 * s, -0.5 * s), 0.75 * s),
                            (0.25, -0.5), 0.75),
        "unit_box": (lambda s: box(0.0, 0.0, s, s), (0.5, 0.5), 0.5),
    }

    @staticmethod
    def g(pts):
        pts = np.asarray(pts)
        return np.cos(3.0 * pts[..., 0]) + pts[..., 1] ** 2

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("k", [-3, 2, 5])
    @pytest.mark.parametrize("name", ["unit_ball", "off_centre_ball", "unit_box"])
    def test_scaled_walks_bit_identical(self, name, k, alpha):
        s = 2.0 ** k
        domain, centre, radius = self.DOMAINS[name]
        angles = np.linspace(0.0, 2.0 * np.pi, 7, endpoint=False)
        offsets = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        starts = np.asarray(centre) + 0.9 * radius * \
            np.linspace(0.0, 1.0, 7)[:, None] * offsets
        base = Problem(alpha=alpha, domain=domain(1.0), f=zero_f, g=self.g)
        scaled = Problem(alpha=alpha, domain=domain(s), f=zero_f,
                         g=lambda pts: self.g(np.asarray(pts) / s))
        keys = derive_key(17, np.arange(20))
        vals, steps = tiled_walk(starts, base, keys)[:2]
        vals_s, steps_s = tiled_walk(starts * s, scaled, keys)[:2]
        assert np.array_equal(vals_s, vals)
        assert steps_s == steps


class TestWalkStarts:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_matches_scalar_replay(self, alpha):
        # all starts of a key consume its step-n tuple at their n-th step,
        # so (0.1, 0) and (0.2, 0) are coupled walks of each key
        prob = by_name("example3", alpha)
        starts = np.array([[0.1, 0.0], [0.2, 0.0], [-0.5, 0.6], [0.05, -0.9]])
        keys = derive_key(11, np.arange(4))
        vals, cost, steps = tiled_walk(starts, prob, keys)
        for k, key in enumerate(keys):
            for v, start in enumerate(starts):
                value, n = replay(start, key, prob)
                assert vals[k, v] == pytest.approx(value, rel=1e-12)
                assert steps[k, v] == n
        assert cost == steps.sum() and type(cost) is int

    @pytest.mark.parametrize("block", [1, 3, 8])
    @pytest.mark.parametrize("alpha", [0.05, 1.0, 1.95])
    def test_block_draws_match_step_draws(self, hier6, alpha, block,
                                          monkeypatch):
        prob = by_name("example1", alpha)
        lvl = hier6.level(3)
        starts = lvl.vertices[prob.domain.contains(lvl.vertices)]
        keys = derive_key(23, np.arange(128))
        live = []

        def step_draw(n, rows):
            live.append(rows.size)
            return step_tuples(alpha, keys[rows], np.uint32(n))

        ref, ref_steps = walk(np.tile(starts, (keys.size, 1)), prob, step_draw,
                              np.repeat(np.arange(keys.size), len(starts)))
        monkeypatch.setattr("fracwos.field._TUPLE_BLOCK", block)
        vals, cost, steps = tiled_walk(starts, prob, keys)
        assert vals.view(np.uint64).ravel().tolist() \
            == ref.view(np.uint64).tolist()
        assert steps.ravel().tolist() == ref_steps.tolist()
        assert cost == ref_steps.sum()
        # realizations finish at different steps, some inside a block
        assert len(set(live)) > 2
        if block > 1:
            assert any(live[n] < live[n - 1] for n in range(1, len(live))
                       if n % block)

    def test_polygon_values_do_not_depend_on_batch(self):
        # a key's walk has the same bits whether it shares the call with 399
        # other keys or walks alone; on this pentagon, distances taken as a
        # matmul of points by edge normals were rounded by row count
        prob = _pentagon_problem(1.0)
        start, keys = np.array([[0.1, 0.2]]), derive_key(3, np.arange(400))
        vals, _ = tiled_walk(start, prob, keys)[:2]
        alone = [tiled_walk(start, prob, keys[k:k + 1])[0][0, 0]
                 for k in range(keys.size)]
        assert vals[:, 0].view(np.uint64).tolist() \
            == np.array(alone).view(np.uint64).tolist()

    def test_split_realization_keeps_its_bits(self, hier6, ex3):
        # cut inside realization 1, the two calls give its walks the same
        # tuples, so every value and exit step keeps its bits
        lvl = hier6.level(4)
        inner = lvl.vertices[ex3.domain.contains(lvl.vertices)]
        keys = derive_key(9, np.arange(3))
        vals, total, steps = walk_starts([inner] * 3, ex3, keys)
        assert vals.shape == steps.shape == (3 * len(inner),)
        assert total == steps.sum() > 0 and type(total) is int
        half = len(inner) // 2
        parts = [walk_starts([inner, inner[:half]], ex3, keys[:2]),
                 walk_starts([inner[half:], inner], ex3, keys[1:])]
        assert np.concatenate([p[0] for p in parts]).view(np.uint64).tolist() \
            == vals.view(np.uint64).tolist()
        assert np.concatenate([p[2] for p in parts]).tolist() == steps.tolist()

    @staticmethod
    def uneven_keys(hier6, prob):
        """Per-key starts of 40, 0, 9, 1 and 0 interior vertices of level 5:
        walks that exit at different steps, and keys without starts in the
        middle of the key list and at its end."""
        lvl = hier6.level(5)
        inner = lvl.vertices[prob.domain.contains(lvl.vertices)]
        starts = [inner[:40], inner[:0], inner[300:309], inner[7:8], inner[:0]]
        return starts, derive_key(17, np.arange(len(starts)))

    @staticmethod
    def spy_draws(monkeypatch):
        """Patch field.walk to record (n, rows) of every draw call."""
        draws, kernel = [], walk

        def spying_walk(starts, problem, draw, realization=None):
            def spy(n, rows):
                draws.append((n, rows.copy()))
                return draw(n, rows)
            return kernel(starts, problem, spy, realization)

        monkeypatch.setattr("fracwos.field.walk", spying_walk)
        return draws

    @pytest.mark.parametrize("alpha", [1.0, 1.95])
    def test_rows_are_the_live_realizations(self, hier6, alpha, monkeypatch):
        # step n draws for exactly the keys with a walk still inside after
        # n jumps, ascending; a key without starts is never drawn
        prob = by_name("example3", alpha)
        starts, keys = self.uneven_keys(hier6, prob)
        draws = self.spy_draws(monkeypatch)
        _, _, steps = walk_starts(starts, prob, keys)
        realization = np.repeat(np.arange(keys.size), [len(s) for s in starts])
        assert [n for n, _ in draws] == list(range(steps.max()))
        for n, rows in draws:
            assert rows.tolist() == np.unique(realization[steps > n]).tolist()
        assert not {1, 4} & {r for _, rows in draws for r in rows.tolist()}
        # keys leave the draws at different steps, between other keys
        assert len({rows.size for _, rows in draws}) > 2

    @pytest.mark.parametrize("alpha", [1.0, 1.95])
    def test_uneven_keys_match_each_key_walked_alone(self, hier6, alpha):
        prob = by_name("example3", alpha)
        starts, keys = self.uneven_keys(hier6, prob)
        vals, total, steps = walk_starts(starts, prob, keys)
        at = np.cumsum([0] + [len(s) for s in starts])
        for k, s in enumerate(starts):
            alone, alone_total, alone_steps = walk_starts([s], prob,
                                                          keys[k:k + 1])
            assert alone.view(np.uint64).tolist() \
                == vals[at[k]:at[k + 1]].view(np.uint64).tolist()
            assert alone_steps.tolist() == steps[at[k]:at[k + 1]].tolist()
            assert alone_total == alone_steps.sum()
        assert total == steps.sum() > 0

    def test_max_steps_error(self, monkeypatch):
        prob = by_name("example1", 1.9)
        starts = np.array([[0.9, 0.0], [0.0, 0.5]])
        keys = derive_key(2, np.arange(20))
        tiled_walk(starts, prob, keys)
        monkeypatch.setattr("fracwos.sampling.MAX_WALK_STEPS", 3)
        with pytest.raises(MaxStepsExceededError):
            tiled_walk(starts, prob, keys)


class TestWalkBudget:
    """`field_values` walks the keys of its (level, keys) spans in order, in
    walk_starts calls of at most _WALK_BUDGET walks, cut between keys; a
    walk's bits and steps depend only on its start and its key, so only
    memory moves."""

    @staticmethod
    def level5(hier6, prob):
        lvl = hier6.level(5)
        return lvl, int(prob.domain.contains(lvl.vertices).sum())

    @staticmethod
    def count_walks(monkeypatch):
        """Patch field.walk_starts to record the walks of each call."""
        walks, kernel = [], walk_starts

        def counting(starts, problem, keys):
            walks.append(sum(len(v) for v in starts))
            return kernel(starts, problem, keys)

        monkeypatch.setattr("fracwos.field.walk_starts", counting)
        return walks

    @pytest.mark.parametrize(
        "budget", [lambda n: n, lambda n: 3 * n + 1, lambda n: 1],
        ids=["n_interior", "3 n_interior + 1", "1"])
    def test_values_do_not_depend_on_budget(self, hier6, ex3, budget,
                                            monkeypatch):
        # one key per call, three keys per call (25 = 8 * 3 + 1), and a
        # budget below one key's walks, which still walks one key per call
        lvl, n_interior = self.level5(hier6, ex3)
        keys = derive_key(29, np.arange(25))
        ref, ref_cost = next(field_values([(lvl, keys)], ex3))
        monkeypatch.setattr("fracwos.field._WALK_BUDGET", budget(n_interior))
        vals, cost = next(field_values([(lvl, keys)], ex3))
        np.testing.assert_array_equal(vals, ref)
        assert cost == ref_cost

    @pytest.mark.parametrize("n_keys", [64, 256])
    def test_peak_memory_follows_budget(self, hier6, ex2, n_keys,
                                        monkeypatch):
        # at 16 keys per walk call, the traced peak beyond the output stays
        # under 256 bytes per walk of the budget however many keys there
        # are; walking all keys at once takes about 9 MB at 256 keys
        lvl, n_interior = self.level5(hier6, ex2)
        budget = 16 * n_interior
        monkeypatch.setattr("fracwos.field._WALK_BUDGET", budget)
        keys = derive_key(31, np.arange(n_keys))
        # lazy tables and caches first
        list(field_values([(lvl, keys[:1])], ex2))
        tracemalloc.start()
        try:
            vals, _ = next(field_values([(lvl, keys)], ex2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < vals.nbytes + 256 * budget

    SPANS = [(3, 4, 5), (5, 5, 3), (3, 6, 2)]  # level, key seed, key count

    def spans(self, hier6):
        return [(hier6.level(ell), derive_key(seed, np.arange(n)))
                for ell, seed, n in self.SPANS]

    def test_pack_matches_spans_walked_alone(self, hier6, ex3, monkeypatch):
        # 21 interior vertices at level 3 and 401 at level 5: all ten keys
        # share one walk call
        spans = self.spans(hier6)
        walks = self.count_walks(monkeypatch)
        packed = list(field_values(spans, ex3))
        assert walks == [(5 + 2) * 21 + 3 * 401]
        for (level, keys), (vals, steps) in zip(spans, packed):
            ref, ref_steps = next(field_values([(level, keys)], ex3))
            assert vals.view(np.uint64).tolist() == ref.view(np.uint64).tolist()
            assert steps == ref_steps and type(steps) is int

    @pytest.mark.parametrize("budget, walks", [
        (500, [5 * 21, 401, 401, 401 + 2 * 21]),
        (1, [21] * 5 + [401] * 3 + [21] * 2)], ids=["500", "1"])
    def test_budget_cuts_between_keys(self, hier6, ex3, budget, walks,
                                      monkeypatch):
        # a call takes the next keys, across spans, while their walks fit;
        # a key above the budget walks alone.  No value or step moves
        spans = self.spans(hier6)
        ref = list(field_values(spans, ex3))
        monkeypatch.setattr("fracwos.field._WALK_BUDGET", budget)
        calls = self.count_walks(monkeypatch)
        for (vals, steps), (ref_vals, ref_steps) in zip(
                field_values(spans, ex3), ref):
            assert vals.view(np.uint64).tolist() \
                == ref_vals.view(np.uint64).tolist()
            assert steps == ref_steps
        assert calls == walks


    def test_stream_reads_spans_as_calls_need_them(self, hier6, ex3,
                                                   monkeypatch):
        # at a budget of 500 walks the calls are 5 * 21, 401, 401 and
        # 401 + 2 * 21: the first span is yielded once the second span's
        # first key opens a call, and the last two once the last call walks
        read, log = [], []

        def reading():
            for span in self.spans(hier6):
                read.append(len(span[1]))
                yield span

        monkeypatch.setattr("fracwos.field._WALK_BUDGET", 500)
        calls = self.count_walks(monkeypatch)
        for vals, _ in field_values(reading(), ex3):
            log.append((len(vals), len(read), len(calls)))
        assert log == [(5, 2, 1), (3, 3, 4), (2, 3, 4)]


class TestGoldenBits:
    """Pinned field-walker bits: a change to the walk state's layout, the
    streams or the step arithmetic must leave these values bit-identical.
    Level-3 interior starts of the unit-ball mesh, 64 keys, so 21 walks
    share each realization's tuples and the tuple scatter runs.  Re-taken
    when the Johnk log-sum, the unit vectors and the ball radius moved to
    vector exp/log1p/sqrt forms (last bits), and when the unit vectors
    moved to the half-angle tan form (last bits; at alpha = 1.95 a few
    exits flip, so the step counts move too).  The values are in
    tests/pins.py."""

    @pytest.fixture(scope="class")
    def hier4(self, ball):
        return build_hierarchy(square_ball_base(ball), 4, domain=ball)

    @pytest.mark.parametrize("alpha", [0.05, 1.0, 1.95])
    def test_walk_starts_ball(self, hier4, alpha):
        lvl = hier4.level(3)
        vals, cost = tiled_walk(lvl.vertices[hier4.domain.contains(lvl.vertices)],
                                by_name("example3", alpha),
                                derive_key(29, np.arange(64)))[:2]
        pin(f"walk_starts_ball[{alpha}]", (sha256(vals), cost))

    @pytest.mark.parametrize("alpha", [0.05, 1.0, 1.95])
    def test_walk_starts_pentagon(self, hier4, alpha):
        verts = hier4.level(3).vertices
        vals, cost = tiled_walk(verts[_PENTAGON.contains(verts)],
                                _pentagon_problem(alpha),
                                derive_key(29, np.arange(64)))[:2]
        pin(f"walk_starts_pentagon[{alpha}]", (sha256(vals), cost))

    def test_mlmc_solution(self, hier4, ex2):
        res = mlmc.run(hier4, ex2, eps=0.05, l0=2, seed=5)
        pin("mlmc_solution", (sha256(res.solution.values), res.total_cost))


class TestLayoutContract:
    """The walk hands f, g and the domain its positions as the transposed
    view of a (2, n) array.  numpy picks its SIMD loops by stride, so every
    field the package builds must give the same bits on that view as on a
    C-contiguous (n, 2) copy."""

    @staticmethod
    def views(n=4099, seed=3):
        rows = np.random.default_rng(seed).uniform(-1.2, 1.2, (2, n))
        return rows.T, np.ascontiguousarray(rows.T)

    @staticmethod
    def assert_same_bits(a, b):
        a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
        np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))

    @pytest.mark.parametrize("expr", [
        "sin(3*x) + cos(y)", "exp(x) - log(r2)", "sqrt(r2) * tanh(y)",
        "abs(x - y) * pi", "maximum(x, y) + minimum(x, 2)",
        "where(x > y, x * x, y / 3)", "x ** 3 + r2"])
    def test_expr_fields(self, expr):
        strided, packed = self.views()
        field = ExprField(expr)
        with np.errstate(all="ignore"):
            self.assert_same_bits(field(strided), field(packed))

    @pytest.mark.parametrize("alpha", [0.3, 1.0, 1.7])
    def test_example_sources(self, alpha):
        strided, packed = self.views()
        for name in ("example1", "example2", "example3"):
            prob = by_name(name, alpha)
            for fn in (prob.f, prob.g, prob.exact):
                if fn is not None:
                    self.assert_same_bits(fn(strided), fn(packed))

    @pytest.mark.parametrize("domain", [Ball((0.1, -0.2), 0.9), _PENTAGON])
    def test_domain_distance(self, domain):
        strided, packed = self.views()
        self.assert_same_bits(domain._distance(strided), domain._distance(packed))

    def test_mesh_interpolate(self, hier6):
        lvl = hier6.level(5)
        strided, packed = self.views()
        strided, packed = strided / 1.3, packed / 1.3  # inside the mesh
        vals = np.random.default_rng(5).standard_normal(lvl.num_vertices)
        self.assert_same_bits(interpolate(lvl, vals, strided),
                              interpolate(lvl, vals, packed))

    @pytest.mark.parametrize("alpha", [0.5, 1.5])
    def test_walk_starts_with_packed_points(self, hier6, alpha):
        def packed(fn):
            return lambda pts: fn(np.ascontiguousarray(pts))

        lvl = hier6.level(3)
        starts = lvl.vertices[hier6.domain.contains(lvl.vertices)]
        keys = derive_key(8, np.arange(16))
        for prob in (by_name("example3", alpha), _pentagon_problem(alpha)):
            copy = Problem(alpha=alpha, domain=prob.domain,
                           f=packed(prob.f), g=packed(prob.g))
            vals, cost = tiled_walk(starts, prob, keys)[:2]
            vals_c, cost_c = tiled_walk(starts, copy, keys)[:2]
            self.assert_same_bits(vals, vals_c)
            assert cost == cost_c


class TestSamplePair:
    """A coupled pair is one field_values call on the fine level: the coarse
    field of each key is the prefix of its fine row."""

    def test_coarse_is_restriction_bit_exact(self, hier6, ex1):
        keys = derive_key(21, np.arange(4))
        fine, _ = next(field_values([(hier6.level(6), keys)], ex1))
        for ell in (3, 4, 5):
            coarse, _ = next(field_values([(hier6.level(ell), keys)], ex1))
            np.testing.assert_array_equal(
                coarse, fine[:, :hier6.level(ell).num_vertices])

    def test_cross_call_coupling(self, hier6, ex1):
        # a separate coarse call with a subset of the keys reproduces the
        # matching rows exactly: inherited vertices see identical paths
        keys = derive_key(8, np.arange(5))
        fine, _ = next(field_values([(hier6.level(5), keys)], ex1))
        coarse, _ = next(field_values([(hier6.level(4), keys[2:4])], ex1))
        np.testing.assert_array_equal(
            fine[2:4, :hier6.level(4).num_vertices], coarse)

    def test_defect_zero_at_inherited(self, hier6, ex1):
        keys = derive_key(2, np.arange(3))
        fine, _ = next(field_values([(hier6.level(5), keys)], ex1))
        d = batch_defects(hier6, fine, 4)
        nc = hier6.level(4).num_vertices
        np.testing.assert_array_equal(d[:, :nc], 0.0)
        assert d[:, nc:].any()

    def test_zero_problem_zero_defect(self, hier6, ball):
        prob = Problem(alpha=1.0, domain=ball, f=zero_f, g=zero_f)
        keys = derive_key(4, np.arange(3))
        fine, _ = next(field_values([(hier6.level(4), keys)], prob))
        np.testing.assert_array_equal(batch_defects(hier6, fine, 3), 0.0)


class TestDefectStatistics:
    """Defect statistics are FieldMoments(mass_matrix) over batch_defects,
    as the multilevel engine collects them."""

    @staticmethod
    def moments(hier, fine_ell):
        return FieldMoments(mass_matrix(hier.level(fine_ell),
                                        hier.norm_mask(fine_ell)))

    def test_identical_defects_zero_variance(self, hier6, ex1):
        fine, cost = next(field_values(
            [(hier6.level(4), derive_key(5, [0]))], ex1))
        mom = self.moments(hier6, 4)
        mom.add(batch_defects(hier6, np.repeat(fine, 3, axis=0), 3), 3 * cost)
        assert mom.variance == pytest.approx(0.0, abs=1e-18)
        assert mom.count == 3 and mom.mean_cost == cost

    def test_alternating_signs_hand_value(self, hier6):
        # defects +w and -w with ||w|| = 1 give unbiased variance 2
        lvl = hier6.level(4)
        nc = hier6.level(3).num_vertices
        w = np.zeros(lvl.num_vertices)
        w[nc:] = np.random.default_rng(0).normal(size=lvl.num_vertices - nc)
        mom = self.moments(hier6, 4)
        w[nc:] /= mass_norm(mom.mass, w)
        mom.add(np.stack([w, -w]), 20)
        assert mom.variance == pytest.approx(2.0, rel=1e-10)
        assert mom.mean_cost == 10 and mom.count == 2

    def test_insufficient_samples(self, hier6, ex1):
        fine, cost = next(field_values(
            [(hier6.level(4), derive_key(5, [0]))], ex1))
        mom = self.moments(hier6, 4)
        mom.add(batch_defects(hier6, fine, 3), cost)
        with pytest.raises(InsufficientSamplesError):
            mom.variance


class TestFieldMoments:
    def test_streaming_matches_direct(self, hier6, rng):
        lvl = hier6.level(4)
        mask = hier6.norm_mask(4)
        mass = mass_matrix(lvl, mask)
        vals = rng.normal(size=(40, lvl.num_vertices))
        mom = FieldMoments(mass)
        for chunk in np.split(vals, [7, 19, 33]):
            mom.add(chunk, cost=chunk.shape[0])
        norms_sq = np.array([mass_norm(mass, v) ** 2 for v in vals])
        mean = vals.mean(axis=0)
        direct_var = (norms_sq.sum() - 40 * mass_norm(mass, mean) ** 2) / 39
        assert mom.variance == pytest.approx(direct_var, rel=1e-10)
        np.testing.assert_allclose(mom.mean_field, mean, atol=1e-12)
        assert mom.mean_cost == 1.0

    def test_batch_defects_matches_single(self, hier6, rng):
        vals = rng.normal(size=(5, hier6.level(5).num_vertices))
        batched = batch_defects(hier6, vals, 4)
        for i in range(5):
            np.testing.assert_array_equal(batched[i],
                                          midpoint_defect(hier6, 5, vals[i]))

    def test_batch_defects_bits_of_the_plain_expression(self, hier6, rng):
        # formed in place as 0.5 * (a + b), not 0.5 a + 0.5 b: parents near
        # the float maximum overflow to inf both times, and -0.0 keeps its sign
        nv = hier6.level(5).num_vertices
        vals = rng.normal(size=(64, nv)) * 10.0 ** rng.integers(-300, 300,
                                                                (64, nv))
        vals[0] = 1.5e308
        vals[1] = -0.0
        nc = hier6.level(4).num_vertices
        pa, pb = hier6.level(5).parent_edges.T
        plain = np.zeros_like(vals)
        with np.errstate(over="ignore", invalid="ignore"):
            plain[:, nc:] = vals[:, nc:] - 0.5 * (vals[:, pa] + vals[:, pb])
            out = batch_defects(hier6, vals, 4)
        assert out.view(np.uint64).tolist() == plain.view(np.uint64).tolist()


class TestNormOracle:
    """The element-form norm against v' A v, A the assembled CSR matrix
    (conftest.assembled_mass), on levels 1-6 of the ball and pentagon
    hierarchies, over all triangles, the norm mask and none."""

    @pytest.fixture(scope="class", params=["ball", "pentagon"])
    def hier(self, request, hier6):
        if request.param == "ball":
            return hier6
        return build_hierarchy(base_mesh_for(_PENTAGON), 6, domain=_PENTAGON)

    @pytest.mark.parametrize("which", ["full", "norm", "empty"])
    @pytest.mark.parametrize("ell", range(1, 7))
    def test_matches_assembled(self, hier, ell, which, rng):
        lvl = hier.level(ell)
        mask = {"full": np.ones(lvl.num_triangles, dtype=bool),
                "norm": hier.norm_mask(ell),
                "empty": np.zeros(lvl.num_triangles, dtype=bool)}[which]
        mass, oracle = mass_matrix(lvl, mask), assembled_mass(lvl, mask)
        rows = rng.normal(size=(20, lvl.num_vertices)) + 0.5
        want = np.array([v @ (oracle @ v) for v in rows])
        assert (want == 0.0).all() == (not mask.any())
        np.testing.assert_allclose(squared_norms(mass, rows), want,
                                   rtol=1e-13, atol=0.0)
        np.testing.assert_allclose([mass_norm(mass, v) for v in rows],
                                   np.sqrt(want), rtol=1e-13, atol=0.0)
        mom = FieldMoments(mass)
        for chunk in np.split(rows, [7]):
            mom.add(chunk, cost=1)
        d = rows - rows.mean(axis=0)
        two_pass = sum(v @ (oracle @ v) for v in d) / (len(rows) - 1)
        assert mom.variance == pytest.approx(two_pass, rel=1e-13, abs=0.0)


class TestVarianceDecay:
    @pytest.mark.parametrize("name", ["example1", "example2", "example3"])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_nonincreasing_over_levels(self, hier6, name, alpha):
        from fracwos.mlmc import pilot
        prob = by_name(name, alpha)
        stats = pilot(hier6, prob, 96, seed=31, l0=3, l_max=6)
        v = [stats.trans[ell].variance for ell in (3, 4, 5)]
        assert v[0] > 0
        # allow small statistical wiggle on top of monotone decay
        assert v[1] <= v[0] * 1.15 and v[2] <= v[1] * 1.15


class TestUnbiasednessAtVertices:
    def test_fine_mean_matches_point_estimate(self, hier6, ex1):
        lvl = hier6.level(4)
        # an interior vertex at mid radius (nonzero variance on both routes)
        radii = np.hypot(lvl.vertices[:, 0], lvl.vertices[:, 1])
        vtx = int(np.argmin(np.abs(radii - 0.55)))
        x = lvl.vertices[vtx]
        assert ex1.domain.contains(x)
        M = 4000
        keys = derive_key(99, 7, np.arange(M))
        vals, _ = next(field_values([(lvl, keys)], ex1))
        mean_f = vals[:, vtx].mean()
        se_f = vals[:, vtx].std(ddof=1) / np.sqrt(M)
        est = point_estimate(x, ex1, 100000, seed=23)
        se_p = np.sqrt(est.variance / 100000)
        assert abs(mean_f - est.mean) <= 4 * np.sqrt(se_f ** 2 + se_p ** 2) + 1e-9
