import numpy as np
import pytest

from fracwos.field import (FieldMoments, InsufficientSamplesError,
                           batch_defects, defect_statistics, field_values,
                           mass_matrix, sample_field, sample_pair, walk_starts)
from fracwos.mesh import FieldVector, l2_norm, midpoint_defect, restrict
from fracwos.problems import Problem, by_name, example1
from fracwos.sampling import MaxStepsExceededError, point_estimate, reg_inc_beta
from fracwos.streams import RandomSequence, derive_key, step_tuples


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


class TestSampleField:
    def test_constant_exterior(self, hier6, ball):
        prob = Problem(alpha=1.0, domain=ball,
                       f=lambda pts: np.zeros(np.asarray(pts).shape[:-1]),
                       g=lambda pts: np.ones(np.asarray(pts).shape[:-1]))
        fv, cost = sample_field(hier6.level(4), prob, RandomSequence(3, 1.0))
        np.testing.assert_allclose(fv.values, 1.0, atol=1e-14)
        assert cost > 0

    def test_deterministic_given_sequence(self, hier6, ex1):
        a, ca = sample_field(hier6.level(4), ex1, RandomSequence(42, 1.0))
        b, cb = sample_field(hier6.level(4), ex1, RandomSequence(42, 1.0))
        np.testing.assert_array_equal(a.values, b.values)
        assert ca == cb

    def test_alpha_mismatch_rejected(self, hier6, ex1):
        with pytest.raises(ValueError):
            sample_field(hier6.level(4), ex1, RandomSequence(1, 0.5))

    def test_exterior_vertices_carry_g(self, hier6, ex3):
        lvl = hier6.level(4)
        fv, _ = sample_field(lvl, ex3, RandomSequence(9, 1.0))
        outside = ~lvl.interior_mask
        np.testing.assert_allclose(fv.values[outside],
                                   ex3.g(lvl.vertices[outside]), atol=1e-14)

    def test_center_vertex_mean_matches_point_estimate(self, hier6, ex1):
        # field-sampler values at a vertex are the same estimator as the
        # point sampler (cross-validates the two walker implementations)
        lvl = hier6.level(3)
        vtx = 4  # the origin in the standard base ordering
        assert np.array_equal(lvl.vertices[vtx], [0.0, 0.0])
        M = 3000
        keys = derive_key(77, np.arange(M))
        vals, _ = field_values(lvl, ex1, keys)
        mean_field = vals[:, vtx].mean()
        se_f = vals[:, vtx].std(ddof=1) / np.sqrt(M)
        est = point_estimate((0.0, 0.0), ex1, 200000, seed=15)
        se_p = np.sqrt(est.variance / 200000)
        tol = 4 * np.sqrt(se_f ** 2 + se_p ** 2) + 1e-9
        assert abs(mean_field - est.mean) <= tol

    def test_exchangeable_vertex_order(self, hier6, ex1, rng):
        # permuting the start array permutes outputs, nothing else
        starts = hier6.level(4).vertices[hier6.level(4).interior_mask]
        keys = derive_key(5, np.arange(3))
        vals, _ = walk_starts(starts, ex1, keys)
        perm = rng.permutation(starts.shape[0])
        vals_p, _ = walk_starts(starts[perm], ex1, keys)
        np.testing.assert_array_equal(vals_p, vals[:, perm])


class TestWalkStarts:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_matches_scalar_replay(self, alpha):
        # all starts of a key consume its step-n tuple at their n-th step,
        # so (0.1, 0) and (0.2, 0) are coupled walks of each key
        prob = by_name("example3", alpha)
        starts = np.array([[0.1, 0.0], [0.2, 0.0], [-0.5, 0.6], [0.05, -0.9]])
        keys = derive_key(11, np.arange(4))
        vals, cost = walk_starts(starts, prob, keys)
        total = 0
        for k, key in enumerate(keys):
            for v, start in enumerate(starts):
                value, steps = replay(start, key, prob)
                assert vals[k, v] == pytest.approx(value, rel=1e-12)
                total += steps
        assert cost == total

    def test_max_steps_error(self):
        prob = by_name("example1", 1.9)
        starts = np.array([[0.9, 0.0], [0.0, 0.5]])
        keys = derive_key(2, np.arange(20))
        walk_starts(starts, prob, keys)
        with pytest.raises(MaxStepsExceededError):
            walk_starts(starts, prob, keys, max_steps=3)


class TestSamplePair:
    def test_coarse_is_restriction_bit_exact(self, hier6, ex1):
        pair = sample_pair(hier6, 4, ex1, RandomSequence(21, 1.0))
        np.testing.assert_array_equal(pair.coarse.values,
                                      restrict(hier6, pair.fine).values)

    def test_cross_call_coupling(self, hier6, ex1):
        # sampling the coarse level with the same sequence reproduces the
        # restriction exactly: inherited vertices see identical paths
        fine, _ = sample_field(hier6.level(5), ex1, RandomSequence(8, 1.0))
        coarse, _ = sample_field(hier6.level(4), ex1, RandomSequence(8, 1.0))
        np.testing.assert_array_equal(
            fine.values[:hier6.level(4).num_vertices], coarse.values)

    def test_defect_zero_at_inherited(self, hier6, ex1):
        pair = sample_pair(hier6, 4, ex1, RandomSequence(2, 1.0))
        d = midpoint_defect(hier6, pair.fine)
        nc = hier6.level(4).num_vertices
        np.testing.assert_array_equal(d.values[:nc], 0.0)

    def test_zero_problem_zero_defect(self, hier6, ball):
        prob = Problem(alpha=1.0, domain=ball,
                       f=lambda pts: np.zeros(np.asarray(pts).shape[:-1]),
                       g=lambda pts: np.zeros(np.asarray(pts).shape[:-1]))
        pair = sample_pair(hier6, 3, prob, RandomSequence(4, 1.0))
        np.testing.assert_array_equal(midpoint_defect(hier6, pair.fine).values, 0.0)


class TestDefectStatistics:
    def test_identical_defects_zero_variance(self, hier6, ex1):
        pair = sample_pair(hier6, 3, ex1, RandomSequence(5, 1.0))
        stats = defect_statistics([pair, pair, pair], hier6)
        assert stats[0] == pytest.approx(0.0, abs=1e-18)
        assert stats[2] == 3

    def test_alternating_signs_hand_value(self, hier6):
        # defects +w and -w with ||w|| = 1 give unbiased variance 2
        lvl = hier6.level(4)
        nc = hier6.level(3).num_vertices
        w = np.zeros(lvl.num_vertices)
        w[nc:] = np.random.default_rng(0).normal(size=lvl.num_vertices - nc)
        mask = hier6.norm_mask(4)
        w[nc:] /= l2_norm(lvl, w, mask)
        plus = FieldVector(4, w)
        minus = FieldVector(4, -w)
        samples = [type("S", (), {"fine": f, "cost": 10})()
                   for f in (plus, minus)]
        v_hat, c_hat, m = defect_statistics(samples, hier6)
        assert v_hat == pytest.approx(2.0, rel=1e-10)
        assert c_hat == 10 and m == 2

    def test_insufficient_samples(self, hier6, ex1):
        pair = sample_pair(hier6, 3, ex1, RandomSequence(5, 1.0))
        with pytest.raises(InsufficientSamplesError):
            defect_statistics([pair], hier6)


class TestFieldMoments:
    def test_streaming_matches_direct(self, hier6, rng):
        lvl = hier6.level(4)
        mask = hier6.norm_mask(4)
        mass = mass_matrix(lvl, mask)
        vals = rng.normal(size=(40, lvl.num_vertices))
        mom = FieldMoments(mass)
        for chunk in np.split(vals, [7, 19, 33]):
            mom.add(chunk, cost=chunk.shape[0])
        norms_sq = np.array([l2_norm(lvl, v, mask) ** 2 for v in vals])
        mean = vals.mean(axis=0)
        direct_var = (norms_sq.sum() - 40 * l2_norm(lvl, mean, mask) ** 2) / 39
        assert mom.variance == pytest.approx(direct_var, rel=1e-10)
        np.testing.assert_allclose(mom.mean_field, mean, atol=1e-12)
        assert mom.mean_cost == 1.0

    def test_batch_defects_matches_single(self, hier6, rng):
        vals = rng.normal(size=(5, hier6.level(5).num_vertices))
        batched = batch_defects(hier6, vals, 4)
        for i in range(5):
            single = midpoint_defect(hier6, FieldVector(5, vals[i]))
            np.testing.assert_array_equal(batched[i], single.values)


class TestVarianceDecay:
    @pytest.mark.parametrize("name", ["example1", "example2", "example3"])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_nonincreasing_over_levels(self, hier6, name, alpha):
        from fracwos.mlmc import level_statistics
        prob = by_name(name, alpha)
        stats = level_statistics(hier6, prob, 3, 6, samples=96, seed=31)
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
        assert lvl.interior_mask[vtx]
        M = 4000
        keys = derive_key(99, 7, np.arange(M))
        vals, _ = field_values(lvl, ex1, keys)
        mean_f = vals[:, vtx].mean()
        se_f = vals[:, vtx].std(ddof=1) / np.sqrt(M)
        est = point_estimate(x, ex1, 100000, seed=23)
        se_p = np.sqrt(est.variance / 100000)
        assert abs(mean_f - est.mean) <= 4 * np.sqrt(se_f ** 2 + se_p ** 2) + 1e-9
