import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from fracwos import mlmc
from fracwos.field import FieldMoments, mass_matrix
from fracwos.geometry import unit_ball
from fracwos.mesh import build_hierarchy, square_ball_base
from fracwos.problems import Problem, example1, example2
from fracwos.sampling import (MaxStepsExceededError, NonFiniteStatisticError,
                              point_estimate)


# a non-finite value, and the rule its message gives
NONFINITE = [(np.nan, "NaN"), (np.inf, "finite")]
MUST = {"NaN": "must not be NaN", "finite": "must be finite"}


@pytest.fixture
def no_walks(monkeypatch):
    """Fail any field walk, for checks that must come before the pilot."""
    def walk(*args):
        raise AssertionError("walked before rejecting the input")

    monkeypatch.setattr(mlmc, "field_values", walk)


class TestAllocate:
    def test_single_level_unit_values(self):
        M = mlmc.allocate(1.0, [1.0], [1.0])
        assert M.tolist() == [2]

    def test_eps_quartic_scaling(self):
        V, C = [0.5, 0.1], [10.0, 40.0]
        m1 = mlmc.allocate(1e-2, V, C)
        m2 = mlmc.allocate(5e-3, V, C)
        # halving eps multiplies counts by 4 (up to ceil rounding)
        np.testing.assert_allclose(m2, 4 * m1, rtol=2e-3)

    def test_overflowing_allocation_rejected(self):
        with pytest.raises(OverflowError):
            mlmc.allocate(1e-2, [1e300, 1.0], [1.0, 4.0])

    def test_zero_variance_level_floored(self):
        with pytest.warns(UserWarning):
            M = mlmc.allocate(1e-1, [1.0, 0.0], [1.0, 4.0])
        assert M[1] >= 1

    def test_optimality_against_grid_search(self):
        # among allocations of equal total cost, the formula minimizes the
        # statistical error sum(V/M)
        cases = [([1.0, 0.25, 0.05], [1.0, 4.0, 16.0]),
                 ([2.0, 0.3, 0.02], [3.0, 10.0, 55.0]),
                 ([0.7, 0.7, 0.7], [1.0, 1.0, 1.0])]
        for V, C in cases:
            V, C = np.array(V), np.array(C)
            M = mlmc.allocate(0.05, V, C).astype(float)
            budget = float(M @ C)
            best = float((V / M).sum())
            rng = np.random.default_rng(7)
            for _ in range(4000):
                alt = M * rng.uniform(0.3, 3.0, size=3)
                alt = np.maximum(np.round(alt * budget / (alt @ C)), 1.0)
                if alt @ C <= budget + 1e-9:
                    assert (V / alt).sum() >= best * (1 - 1e-9)

    def test_statistical_error_within_budget(self):
        eps = 0.03
        V = np.array([0.9, 0.2, 0.04])
        C = np.array([2.0, 9.0, 33.0])
        M = mlmc.allocate(eps, V, C)
        assert float((V / M).sum()) <= eps ** 2 / 2 + 1e-12

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            mlmc.allocate(0.0, [1.0], [1.0])
        with pytest.raises(ValueError):
            mlmc.allocate(0.1, [1.0], [0.0])

    @pytest.mark.parametrize("eps, word", NONFINITE)
    def test_rejects_nonfinite_eps(self, eps, word):
        with pytest.raises(ValueError, match=f"^eps {MUST[word]}$"):
            mlmc.allocate(eps, [1.0], [1.0])


class TestChooseLevels:
    def test_solves_inequality(self):
        # c1 = 1 and eps = 2^(1-2*L0) makes L0 the smallest admissible level
        L0 = 5
        bias = {ell: 2.0 ** (-2 * ell) for ell in (3, 4, 5, 6)}
        eps = 2.0 ** (-2 * L0 + 1)
        assert mlmc.choose_levels(eps, bias, 3, 8) == L0

    def test_halving_eps_adds_at_most_one_level(self):
        bias = {ell: 0.8 * 2.0 ** (-2 * ell) for ell in (3, 4, 5)}
        for eps in (1e-2, 3e-3, 1e-3):
            L1 = mlmc.choose_levels(eps, bias, 3, 12)
            L2 = mlmc.choose_levels(eps / 2, bias, 3, 12)
            assert L1 <= L2 <= L1 + 1

    def test_zero_bias_returns_coarsest(self):
        assert mlmc.choose_levels(1e-3, {3: 0.0, 4: 0.0}, 3, 8) == 3

    def test_nondecaying_bias_warns_and_caps(self):
        with pytest.warns(UserWarning):
            L = mlmc.choose_levels(1e-6, {3: 1.0, 4: 2.0}, 3, 7)
        assert L == 7

    @pytest.mark.parametrize("eps, word", NONFINITE)
    def test_rejects_nonfinite_eps(self, eps, word):
        # NaN would fall through to the finest level, inf to the coarsest
        with pytest.raises(ValueError, match=f"^eps {MUST[word]}$"):
            mlmc.choose_levels(eps, {3: 0.1, 4: 0.02}, 3, 8)

    def test_fit_bias_coefficient(self):
        bias = {ell: 3.0 * 2.0 ** (-2 * ell) for ell in (2, 3, 4)}
        assert mlmc.fit_bias_coefficient(bias) == pytest.approx(3.0, rel=1e-12)


class TestPilot:
    def test_estimates_positive_and_deterministic(self, hier6, ex2):
        s1 = mlmc.pilot(hier6, ex2, 16, seed=5, l0=3, l_max=6)
        s2 = mlmc.pilot(hier6, ex2, 16, seed=5, l0=3, l_max=6)
        for ell in (3, 4, 5):
            assert s1.trans[ell].variance > 0
            assert s1.trans[ell].variance == s2.trans[ell].variance
        assert s1.plain.variance > 0

    def test_cost_grows_roughly_fourfold_per_level(self, hier6, ex2):
        # vertex count quadruples per level, so per-sample cost does too
        s = mlmc.pilot(hier6, ex2, 16, seed=5, l0=3, l_max=6)
        costs = [s.trans[ell].mean_cost for ell in (3, 4, 5)]
        for a, b in zip(costs, costs[1:]):
            assert 2.5 <= b / a <= 6.0

    def test_minimum_pilot_size(self, hier6, ex2):
        with pytest.raises(ValueError):
            mlmc.pilot(hier6, ex2, 4, seed=5, l0=3, l_max=6)

    @pytest.mark.parametrize("samples, rule", [
        (np.nan, "be an integer, got nan"), (10.0, "be an integer, got 10.0"),
        (7, "be at least 8")])
    def test_sample_count_rejected_by_name_before_walking(
            self, hier6, ex2, no_walks, samples, rule):
        # NaN and 10.0 used to end in a bare TypeError that named no input
        msg = f"^pilot samples per level must {rule}$"
        with pytest.raises(ValueError, match=msg):
            mlmc.pilot(hier6, ex2, samples, seed=5, l0=3, l_max=6)
        with pytest.raises(ValueError, match=msg):
            mlmc.run(hier6, ex2, eps=0.1, l0=3, seed=1, pilot_M=samples)

    def test_empty_coarsest_mask_still_pilots(self, hier6, ex2):
        # variance-study reads only the corrections, so it may start at a
        # level whose norm mask is empty
        assert not hier6.norm_mask(1).any()
        s = mlmc.pilot(hier6, ex2, 8, seed=5, l0=1, l_max=3)
        assert s.plain.variance == 0.0 and s.trans[1].variance > 0


class TestSampleTerm:
    @staticmethod
    def record_walks(monkeypatch):
        """Patch mlmc.field_values to record (key count, walk steps) per
        walk call."""
        calls, walk = [], mlmc.field_values

        def spy(spans, problem):
            walked = walk(spans, problem)
            calls.append((sum(keys.size for _, keys in spans),
                          sum(cost for _, cost in walked)))
            return walked

        monkeypatch.setattr(mlmc, "field_values", spy)
        return calls

    def test_walk_calls_are_lazy(self, hier6, ex2, monkeypatch):
        # 2^40 samples: keys for the whole range would take 8 TB, and a real
        # runaway term (1e11 samples) all memory; the sampler makes one
        # span of keys per walk call
        class Stop(Exception):
            pass

        sizes = []

        def fake(spans, problem):
            sizes.extend(keys.size for _, keys in spans)
            if len(sizes) == 2:
                raise Stop
            return [(np.empty((keys.size, 0)), 0) for _, keys in spans]

        monkeypatch.setattr(mlmc, "field_values", fake)
        # moments over zero vertices make the adds free: the peak is the
        # sampler's own
        moments = FieldMoments(sparse.csr_matrix((0, 0)))
        tracemalloc.start()
        try:
            with pytest.raises(Stop):
                mlmc._sample_phase(hier6, ex2, 3, [
                    (mlmc._KIND_PLAIN, 4, 0, 2 ** 40, moments)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one call walks as many 1024-row chunks as fit in the row budget
        span = 1024 * (mlmc._ROW_BUDGET // (1024 * hier6.level(4).num_vertices))
        assert span > 1024
        assert sizes == [span, span] and moments.count == span
        assert peak < 1 << 20

    def test_row_budget_keeps_the_bits(self, hier6, ex2, monkeypatch):
        # the default budget walks all 12000 samples in one call; two chunks
        # per call make six calls, the last of them 1024 + 736 rows, whose
        # chunks must add up to the same bits in the same order.  A walk
        # budget of 1000 keys' walks splits each call's walk into sub-blocks
        # that straddle the chunks, and must not move the bits either
        level = hier6.level(3)
        mass = mass_matrix(level, hier6.norm_mask(3))
        one, split, walked = (FieldMoments(mass), FieldMoments(mass),
                              FieldMoments(mass))
        calls = self.record_walks(monkeypatch)
        mlmc._sample_phase(hier6, ex2, 3, [(mlmc._KIND_PLAIN, 3, 0, 12000,
                                            one)])
        monkeypatch.setattr(mlmc, "_ROW_BUDGET", 2048 * level.num_vertices)
        mlmc._sample_phase(hier6, ex2, 3, [(mlmc._KIND_PLAIN, 3, 0, 12000,
                                            split)])
        assert [n for n, _ in calls] == [12000] + [2048] * 5 + [1760]
        n_interior = int(ex2.domain.contains(level.vertices).sum())
        monkeypatch.setattr("fracwos.field._WALK_BUDGET", 1000 * n_interior)
        mlmc._sample_phase(hier6, ex2, 3, [(mlmc._KIND_PLAIN, 3, 0, 12000,
                                            walked)])
        for moments in (split, walked):
            np.testing.assert_array_equal(moments.sum_vec, one.sum_vec)
            assert (moments.sum_sq, moments.count, moments.cost) == \
                (one.sum_sq, one.count, one.cost)

    def test_cost_is_added_once_per_walk_call(self, hier6, ex2, monkeypatch):
        # three calls of two chunks each: adding a call's steps to every
        # chunk would double the cost
        trans = FieldMoments(mass_matrix(hier6.level(3), hier6.norm_mask(3)))
        calls = self.record_walks(monkeypatch)
        monkeypatch.setattr(mlmc, "_ROW_BUDGET",
                            2048 * hier6.level(3).num_vertices)
        mlmc._sample_phase(hier6, ex2, 3, [(mlmc._KIND_PAIR, 2, 0, 6000,
                                            trans)])
        assert [n for n, _ in calls] == [2048, 2048, 1904]
        assert all(cost > 0 for _, cost in calls)
        total = sum(cost for _, cost in calls)
        assert (trans.count, trans.cost) == (6000, total)

    def test_packed_pilot_matches_terms_walked_alone(self, hier6, ex2,
                                                     monkeypatch):
        # an 8-sample pilot from level 2 to 6 holds 22856 values: by default
        # its five terms share one walk call; a cap of 1592 values packs the
        # first three and walks 4->5 and 5->6, each above it, alone; a cap
        # of 0 walks every term alone.  No moment moves a bit
        calls = self.record_walks(monkeypatch)
        stats = []
        for cap in (mlmc._PACK_BUDGET, 1592, 0):
            monkeypatch.setattr(mlmc, "_PACK_BUDGET", cap)
            stats.append(mlmc.pilot(hier6, ex2, 8, seed=4, l0=2, l_max=6))
        assert [n for n, _ in calls] == [40] + [24, 8, 8] + [8] * 5
        assert len({sum(c for _, c in calls[a:b])
                    for a, b in ((0, 1), (1, 4), (4, 9))}) == 1
        ref = stats[-1]
        for s in stats[:-1]:
            for (*term, a), (*ref_term, b) in zip(s.terms(6), ref.terms(6)):
                assert term == ref_term
                np.testing.assert_array_equal(a.sum_vec, b.sum_vec)
                assert (a.sum_sq, a.count, a.cost) == \
                    (b.sum_sq, b.count, b.cost)

    @pytest.mark.parametrize("alpha", [0.05, 1.95])
    def test_moments_bit_identical_across_spans(self, hier6, alpha,
                                                monkeypatch):
        # one walk call per term against many: the plain term at level 2
        # walks three calls of three 1024-row chunks, the correction 2->3
        # seven
        prob = example2(alpha)
        s1 = mlmc.pilot(hier6, prob, 7000, seed=3, l0=2, l_max=3)
        monkeypatch.setattr(mlmc, "_ROW_BUDGET",
                            1024 * hier6.level(3).num_vertices)
        s2 = mlmc.pilot(hier6, prob, 7000, seed=3, l0=2, l_max=3)
        for a, b in [(s1.plain, s2.plain), (s1.trans[2], s2.trans[2])]:
            np.testing.assert_array_equal(a.sum_vec, b.sum_vec)
            assert (a.sum_sq, a.count, a.cost) == (b.sum_sq, b.count, b.cost)


class TestRun:
    def test_zero_problem_exact_zero(self, hier6, ball):
        zero = lambda pts: np.zeros(np.asarray(pts).shape[:-1])
        prob = Problem(alpha=1.0, domain=ball, f=zero, g=zero)
        res = mlmc.run(hier6, prob, eps=1e-2, l0=3, seed=1, pilot_M=8)
        np.testing.assert_array_equal(res.solution.values, 0.0)
        assert res.plan.finest == 3  # zero bias keeps the telescope trivial

    def test_example2_field_accuracy(self, hier6, ex2):
        res = mlmc.run(hier6, ex2, eps=2e-2, l0=4, seed=7)
        abs_err, rel_err = mlmc.error_vs_exact(res, ex2.exact, hier6)
        assert rel_err <= 0.04
        assert res.plan.stat_error_sq <= (2e-2) ** 2 / 2 + 1e-9

    def test_example1_alpha_three_halves_accuracy(self, hier6):
        # smoother profile at larger order: tighter relative error
        prob = example1(1.5)
        res = mlmc.run(hier6, prob, eps=1e-2, l0=4, seed=7)
        _, rel_err = mlmc.error_vs_exact(res, prob.exact, hier6)
        assert rel_err <= 0.02

    def test_pilot_honours_max_steps(self, hier6, ex2, monkeypatch):
        # every pilot walk takes at least one step, and few exit in one
        monkeypatch.setattr("fracwos.sampling.MAX_WALK_STEPS", 1)
        with pytest.raises(MaxStepsExceededError):
            mlmc.run(hier6, ex2, eps=1.0, l0=2, seed=1, fixed_L=3)

    def test_budget_cap(self, hier6, ex2):
        with pytest.raises(mlmc.BudgetExceededError):
            mlmc.run(hier6, ex2, eps=1e-3, l0=3, seed=1, max_cost=1000)

    @pytest.mark.parametrize("eps, word", NONFINITE)
    def test_nonfinite_eps_rejected_before_the_pilot(self, hier6, ex2,
                                                     no_walks, eps, word):
        # NaN used to walk the pilot and then blame V, inf to return the
        # pilot mean as the solution
        with pytest.raises(ValueError, match=f"^eps {MUST[word]}$"):
            mlmc.run(hier6, ex2, eps=eps, l0=3, seed=1)

    @pytest.mark.parametrize("cap", [-1.0, np.nan])
    def test_negative_cap_rejected_before_the_pilot(self, hier6, ex2,
                                                    no_walks, cap):
        msg = "not be NaN" if np.isnan(cap) else "be non-negative"
        with pytest.raises(ValueError, match=f"^max_cost must {msg}$"):
            mlmc.run(hier6, ex2, eps=0.1, l0=3, seed=1, max_cost=cap)

    @pytest.mark.parametrize("l0, fixed_L, msg", [
        (7, None, "l0 = 7 lies outside levels 1..6"),
        (0, None, "l0 = 0 lies outside levels 1..6"),
        (3, 7, "l_max = 7 lies outside levels 3..6"),
        (2.0, None, "l0 must be an integer, got 2.0"),
        (3, 3.0, "l_max must be an integer, got 3.0")])
    def test_levels_outside_the_hierarchy_rejected_by_name(
            self, hier6, ex2, no_walks, l0, fixed_L, msg):
        with pytest.raises(ValueError, match=f"^{msg}$"):
            mlmc.run(hier6, ex2, eps=0.1, l0=l0, seed=1, fixed_L=fixed_L)
        with pytest.raises(ValueError, match=f"^{msg}$"):
            mlmc.pilot(hier6, ex2, 8, seed=1, l0=l0, l_max=fixed_L or 6)

    def test_empty_coarsest_mask_rejected_before_the_pilot(self, hier6, ex2,
                                                           no_walks):
        # level 1 of the square ball mesh has no triangle inside the ball:
        # its plain term's V was always 0, so the plan kept only the pilot's
        # samples of it and the solve missed eps with a warning
        assert not hier6.norm_mask(1).any()
        msg = "^l0 = 1 has no triangles inside the domain"
        with pytest.raises(ValueError, match=msg):
            mlmc.run(hier6, ex2, eps=0.1, l0=1, seed=1)
        with pytest.raises(ValueError, match=msg):
            mlmc.cost_comparison(hier6, ex2, [0.1], l0=1, seed=1)

    def test_pilot_reused_in_production(self, hier6, ex1):
        res = mlmc.run(hier6, ex1, eps=3e-2, l0=4, seed=9, pilot_M=16)
        assert np.all(res.samples_used >= res.plan.M)
        assert np.all(res.samples_used >= 16)

    def test_single_level_degenerate_telescope(self, hier6, ex2):
        # l0 = L reduces the estimator to plain single-level sampling
        res = mlmc.run(hier6, ex2, eps=5e-2, l0=4, seed=3, fixed_L=4,
                       pilot_M=8)
        assert res.plan.finest == 4 and len(res.plan.M) == 1
        _, rel = mlmc.error_vs_exact(res, ex2.exact, hier6)
        assert rel < 0.2

    def test_box_domain_end_to_end(self):
        # square domain meshed by itself: unit source, zero exterior data
        from fracwos.geometry import box
        from fracwos.mesh import base_mesh_for, build_hierarchy
        dom = box(0.0, 0.0, 1.0, 1.0)
        hier = build_hierarchy(base_mesh_for(dom), 4, domain=dom)
        prob = Problem(alpha=1.0, domain=dom,
                       f=lambda pts: np.ones(np.asarray(pts).shape[:-1]),
                       g=lambda pts: np.zeros(np.asarray(pts).shape[:-1]))
        res = mlmc.run(hier, prob, eps=3e-2, l0=3, seed=5)
        lvl = hier.level(res.solution.level)
        inside = dom.contains(lvl.vertices)
        assert np.all(res.solution.values[inside] > 0)
        assert np.all(res.solution.values[~inside] == 0)
        # symmetry of the square: value at (1/4, 1/2) matches (3/4, 1/2)
        i1 = np.argmin(np.abs(lvl.vertices - [0.25, 0.5]).sum(axis=1))
        i2 = np.argmin(np.abs(lvl.vertices - [0.75, 0.5]).sum(axis=1))
        v1, v2 = res.solution.values[[i1, i2]]
        assert abs(v1 - v2) < 0.15 * max(abs(v1), abs(v2))

    @pytest.mark.parametrize("alpha", [0.1, 1.9])
    def test_extreme_orders_solve(self, hier6, alpha):
        # exercises the extreme exit-radius shapes end to end
        prob = example1(alpha)
        res = mlmc.run(hier6, prob, eps=6e-2, l0=3, seed=2, pilot_M=8,
                       fixed_L=4)
        _, rel = mlmc.error_vs_exact(res, prob.exact, hier6)
        assert np.isfinite(res.solution.values).all()
        assert rel < 0.5

    def test_telescoping_unbiasedness(self, hier6, ex1):
        # multilevel mean at an inherited vertex agrees with the plain
        # single-level estimator within combined statistical error
        res = mlmc.run(hier6, ex1, eps=1.5e-2, l0=4, seed=3)
        lvl = hier6.level(res.solution.level)
        vtx = 12  # inherited from level 3
        x = lvl.vertices[vtx]
        est = point_estimate(x, ex1, 200000, seed=44)
        se_p = np.sqrt(est.variance / 200000)
        tol = 4 * se_p + 3 * res.plan.eps
        assert abs(res.solution.values[vtx] - est.mean) <= tol


class TestErrorVsExact:
    def test_exact_solution_zero_error(self, hier6, ex2):
        res = mlmc.run(hier6, ex2, eps=5e-2, l0=3, seed=2, pilot_M=8)
        lvl = hier6.level(res.solution.level)
        res.solution.values[:] = ex2.exact(lvl.vertices)
        abs_err, rel_err = mlmc.error_vs_exact(res, ex2.exact, hier6)
        assert abs_err == 0.0 and rel_err == 0.0

    def test_constant_offset(self, hier6, ex2):
        res = mlmc.run(hier6, ex2, eps=5e-2, l0=3, seed=2, pilot_M=8)
        lvl = hier6.level(res.solution.level)
        res.solution.values[:] = ex2.exact(lvl.vertices) + 0.25
        abs_err, _ = mlmc.error_vs_exact(res, ex2.exact, hier6)
        area = hier6.masked_area(res.solution.level)
        assert abs_err == pytest.approx(0.25 * np.sqrt(area), rel=1e-12)

    def test_mass_matrices_built_once_per_level(self, ball, ex2, monkeypatch):
        # two runs and their errors on one hierarchy build each level's
        # masked mass matrix once, and get the bits of fresh matrices
        hier = build_hierarchy(square_ball_base(ball), 5, domain=ball)
        built, build = [], mass_matrix
        monkeypatch.setattr("fracwos.field.mass_matrix",
                            lambda level, mask: built.append(level.level)
                            or build(level, mask))
        errs = [mlmc.error_vs_exact(
            mlmc.run(hier, ex2, eps=5e-2, l0=3, seed=2, pilot_M=8),
            ex2.exact, hier) for _ in range(2)]
        assert sorted(built) == [3, 4, 5]
        fresh = build_hierarchy(square_ball_base(ball), 5, domain=ball)
        monkeypatch.setattr("fracwos.field.mass_matrix", build)
        assert errs[0] == errs[1] == mlmc.error_vs_exact(
            mlmc.run(fresh, ex2, eps=5e-2, l0=3, seed=2, pilot_M=8),
            ex2.exact, fresh)

    def test_zero_exact_norm(self, hier6, ex2):
        res = mlmc.run(hier6, ex2, eps=5e-2, l0=3, seed=2, pilot_M=8)
        zero = lambda pts: np.zeros(np.asarray(pts).shape[:-1])
        abs_err, rel_err = mlmc.error_vs_exact(res, zero, hier6)
        assert rel_err is None and abs_err > 0


class TestCostComparison:
    def test_costs_equal_at_loosest_eps(self, hier6, ex2):
        rows = mlmc.cost_comparison(hier6, ex2, [0.3, 0.02], l0=4, seed=3,
                                    pilot_M=16)
        assert rows[0]["L"] == 4
        assert rows[0]["mlmc_cost"] == pytest.approx(rows[0]["vanilla_cost"],
                                                     rel=1e-12)

    def test_costs_increase_as_eps_decreases(self, hier6, ex2):
        rows = mlmc.cost_comparison(hier6, ex2, [0.1, 0.05, 0.02], l0=3,
                                    seed=3, pilot_M=16)
        ml = [r["mlmc_cost"] for r in rows]
        van = [r["vanilla_cost"] for r in rows]
        assert ml == sorted(ml) and van == sorted(van)

    def test_rejects_nonmonotone_schedule(self, hier6, ex2):
        with pytest.raises(ValueError):
            mlmc.cost_comparison(hier6, ex2, [0.01, 0.02], l0=3, seed=3)

    @pytest.mark.parametrize("eps_list", [[0.1, 0.0], [0.1, -0.5]])
    def test_rejects_nonpositive_eps(self, hier6, ex2, eps_list):
        with pytest.raises(ValueError, match="^eps must be positive$"):
            mlmc.cost_comparison(hier6, ex2, eps_list, l0=3, seed=3)

    @pytest.mark.parametrize("eps_list, word", [([np.inf, 0.1], "finite"),
                                                ([0.1, np.nan], "NaN")])
    def test_rejects_nonfinite_eps(self, hier6, ex2, no_walks, eps_list,
                                   word):
        # inf used to end in a bare OverflowError from the dyadic schedule
        with pytest.raises(ValueError, match=f"^eps {MUST[word]}$"):
            mlmc.cost_comparison(hier6, ex2, eps_list, l0=3, seed=3)

    @pytest.mark.parametrize("cap, msg", [(np.nan, "not be NaN"),
                                          (-1.0, "be non-negative")])
    def test_bad_max_cost_rejected_before_the_pilot(self, hier6, ex2,
                                                    no_walks, cap, msg):
        # such a cap used to execute no row, silently
        with pytest.raises(ValueError, match=f"^max_cost must {msg}$"):
            mlmc.cost_comparison(hier6, ex2, [0.3, 0.1], l0=3, seed=3,
                                 max_cost=cap)

    def test_infinite_max_cost_executes_every_row(self, hier6, ex2):
        rows = mlmc.cost_comparison(hier6, ex2, [0.3, 0.1], l0=3, seed=3,
                                    pilot_M=16, max_cost=np.inf)
        assert all(r["executed_cost"] is not None for r in rows)

    def test_execute_budget_runs_affordable_points(self, hier6, ex2):
        rows = mlmc.cost_comparison(hier6, ex2, [0.3, 0.1], l0=3, seed=3,
                                    pilot_M=16, max_cost=1e7)
        assert rows[0]["executed_cost"] is not None
        # executed cost includes pilot overhead but stays the same order
        assert rows[0]["executed_cost"] <= 10 * rows[0]["mlmc_cost"] + 1e6


    def test_executed_runs_end_at_the_row_level(self, hier6, ex2):
        # both rows have L = 3; each executed cost is what a separate run
        # pinned to the row's level reports, although the rows share the
        # pilot and the second extends the samples of the first
        rows = mlmc.cost_comparison(hier6, ex2, [0.3, 0.1], l0=3, seed=3,
                                    pilot_M=16, max_cost=1e7)
        executed = [r for r in rows if r["executed_cost"] is not None]
        assert [r["L"] for r in executed] == [3, 3]
        for r in executed:
            res = mlmc.run(hier6, ex2, r["eps"], 3, 3, pilot_M=16,
                           fixed_L=r["L"], max_cost=np.inf)
            assert r["executed_cost"] == res.total_cost

    def test_pilot_runs_once(self, hier6, ex2, monkeypatch):
        # three rows execute; none walks the pilot again or calls run
        pilots = []
        pilot = mlmc.pilot

        def spy(*args, **kwargs):
            stats = pilot(*args, **kwargs)
            pilots.append(stats.total_cost)
            return stats

        def no_run(*args, **kwargs):
            raise AssertionError("cost_comparison called run")

        monkeypatch.setattr(mlmc, "pilot", spy)
        monkeypatch.setattr(mlmc, "run", no_run)
        rows = mlmc.cost_comparison(hier6, ex2, [0.3, 0.1, 0.01], l0=3,
                                    seed=3, pilot_M=16, max_cost=1e6)
        assert all(r["executed_cost"] is not None for r in rows)
        assert pilots == [809]

    def test_executed_rows_at_l0_pinned(self, hier6, ex2):
        # at L = l0 the vanilla cost reads plain, which executing a row
        # extends: every row must be planned before any row executes
        rows = mlmc.cost_comparison(hier6, ex2, [0.1, 0.05], l0=3, seed=3,
                                    pilot_M=16, max_cost=1e7)
        assert [r["L"] for r in rows] == [3, 3]
        assert [r["mlmc_cost"] for r in rows] == [2780.9375, 10972.0625]
        assert [r["vanilla_cost"] for r in rows] == [2780.9375, 10972.0625]
        assert [r["M"] for r in rows] == [[55], [217]]
        assert [r["executed_cost"] for r in rows] == [2925, 11658]

    def test_pilot_stops_at_the_largest_row_level(self, hier6, ex2,
                                                  monkeypatch):
        # both rows have L = 3; piloting up to the finest level 6 would walk
        # about 100 times the steps the rows use
        levels = []
        pilot = mlmc.pilot

        def spy(hier, *args, l_max=None, **kwargs):
            levels.append(hier.finest if l_max is None else l_max)
            return pilot(hier, *args, l_max=l_max, **kwargs)

        monkeypatch.setattr(mlmc, "pilot", spy)
        rows = mlmc.cost_comparison(hier6, ex2, [0.3, 0.1], l0=3, seed=3,
                                    pilot_M=16)
        assert [r["L"] for r in rows] == [3, 3]
        assert levels == [3]

    def test_vanilla_cost_is_planned_from_a_plain_pilot_at_L(self, hier6,
                                                             ex2):
        # each row's vanilla cost is the single-level plan of the plain
        # term at its L: the plain samples of a pilot from l0 = L, bit for
        # bit, also above the comparison's l0
        eps_list = [0.1, 2.0 ** -8, 2.0 ** -10]
        rows = mlmc.cost_comparison(hier6, ex2, eps_list, l0=3, seed=3,
                                    pilot_M=16)
        assert [r["L"] for r in rows] == [3, 4, 5]
        for r in rows:
            plain = mlmc.pilot(hier6, ex2, 16, 3, l0=r["L"],
                               l_max=r["L"]).plain
            V = max(plain.variance, mlmc._VAR_FLOOR)
            M = max(int(np.ceil(2.0 * r["eps"] ** -2 * V)), 1)
            assert r["vanilla_cost"] == M * plain.mean_cost

    def test_rows_above_l0_pinned(self, hier6, ex2):
        # the vanilla cost at L > l0 reads pilot_M plain samples at L
        rows = mlmc.cost_comparison(hier6, ex2, [2.0 ** -8, 2.0 ** -10],
                                    l0=3, seed=3, pilot_M=16)
        assert [r["L"] for r in rows] == [4, 5]
        assert [r["mlmc_cost"] for r in rows] == [
            float.fromhex("0x1.f8ddbf8000000p+22"),
            float.fromhex("0x1.4b313b0800000p+28")]
        assert [r["vanilla_cost"] for r in rows] == [
            float.fromhex("0x1.a92ac6a000000p+23"),
            float.fromhex("0x1.37adc3db00000p+30")]


class TestConvergenceOrder:
    def test_error_scales_linearly_in_eps(self, hier6, ex2):
        # regression of log error on log eps has slope about one
        eps_values = [2.0 ** -k for k in range(4, 9)]
        errors = []
        for i, eps in enumerate(eps_values):
            res = mlmc.run(hier6, ex2, eps=eps, l0=3, seed=100 + i)
            _, rel = mlmc.error_vs_exact(res, ex2.exact, hier6)
            errors.append(rel)
        slope = np.polyfit(np.log(eps_values), np.log(errors), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.3)


class TestNonFiniteStatistics:
    """g = x^3 is not integrable against the heavy-tailed exit law."""

    @pytest.fixture(scope="class")
    def hier3(self):
        d = unit_ball()
        return build_hierarchy(square_ball_base(d), 3, domain=d)

    @staticmethod
    def cubic(alpha):
        return Problem(alpha=alpha, domain=unit_ball(),
                       f=lambda p: np.zeros(np.asarray(p).shape[:-1]),
                       g=lambda p: np.asarray(p)[..., 0] ** 3, name="cubic")

    def test_nan_variance_names_alpha_and_term(self, hier3):
        # max_cost keeps a missed check from planning an endless run
        with np.errstate(all="ignore"), \
                pytest.raises(NonFiniteStatisticError) as exc:
            mlmc.run(hier3, self.cubic(0.02), eps=0.05, l0=2, seed=0,
                     max_cost=1e9)
        e = exc.value
        assert isinstance(e, ValueError)
        assert e.alpha == 0.02 and e.name == "V" and np.isnan(e.value)
        assert e.term == "plain term at level 2"
        assert "alpha = 0.02" in str(e) and "plain term at level 2" in str(e)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_default_cost_cap(self, hier3, seed):
        # finite pilot V, but the plan costs 6e12 (seed 1) and 1.5e13
        # (seed 2) walk steps: weeks of sampling without the default cap
        with pytest.raises(mlmc.BudgetExceededError, match="exceeds cap"):
            mlmc.run(hier3, self.cubic(1.0), eps=0.05, l0=2, seed=seed)

    @pytest.mark.parametrize("seed, term", [(0, "plain term at level 2"),
                                            (4, "correction term 3->4")],
                             ids=["plain", "correction"])
    def test_nan_production_chunk_names_term(self, seed, term):
        # g is NaN only at exits beyond |x| = 1e9, which the pilot misses;
        # the production chunk that first meets one raises at once
        d = unit_ball()
        hier4 = build_hierarchy(square_ball_base(d), 4, domain=d)
        far_nan = lambda p: np.where((np.asarray(p) ** 2).sum(-1) > 1e18,
                                     np.nan, 1.0)
        prob = Problem(alpha=0.5, domain=d, g=far_nan,
                       f=lambda p: np.ones(np.asarray(p).shape[:-1]))
        with np.errstate(all="ignore"), \
                pytest.raises(NonFiniteStatisticError) as exc:
            mlmc.run(hier4, prob, eps=0.01, l0=2, seed=seed, fixed_L=4)
        e = exc.value
        assert e.alpha == 0.5 and e.term == term and e.name == "V"
        assert term in str(e)

    def test_overflowing_comparison_row_is_rejected(self, hier3):
        # the same plan check as run, so no bare OverflowError from allocate
        with np.errstate(all="ignore"), \
                pytest.raises(NonFiniteStatisticError) as exc:
            mlmc.cost_comparison(hier3, self.cubic(0.5), [0.05], l0=2,
                                 seed=0, pilot_M=32)
        e = exc.value
        assert e.alpha == 0.5 and e.term == "plain term at level 2"
        assert "alpha = 0.5" in str(e) and "plain term at level 2" in str(e)

    def test_overflowing_plan_is_rejected(self, hier3):
        # V is finite but its optimal allocation costs over 2^63 walk steps
        with np.errstate(all="ignore"), \
                pytest.raises(NonFiniteStatisticError) as exc:
            mlmc.run(hier3, self.cubic(0.5), eps=0.05, l0=2, seed=0,
                     max_cost=1e9)
        e = exc.value
        assert e.alpha == 0.5 and e.name == "V" and np.isfinite(e.value)
        assert "overflow" in str(e)
