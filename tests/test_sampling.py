import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats
from scipy.special import betainc, beta as beta_fn, gamma

import fracwos
from fracwos.geometry import Ball, unit_ball
from fracwos.problems import Problem, example1
from fracwos.field import walk_starts
from fracwos.sampling import (MaxStepsExceededError, NonFiniteStatisticError,
                              StableParams, make_params, point_estimate,
                              reg_inc_beta, walk)
from fracwos.streams import batch_generator, derive_key, johnk_beta_rng

# the directory holding the imported package, for child processes
PACKAGE_ROOT = str(Path(fracwos.__file__).resolve().parents[1])


def zero(pts):
    return np.zeros(np.asarray(pts).shape[:-1])


def one(pts):
    return np.ones(np.asarray(pts).shape[:-1])


def x_coord(pts):
    return np.asarray(pts)[..., 0]


def y_coord(pts):
    return np.asarray(pts)[..., 1]


def hand_walk(start, tuples, f=zero, g=x_coord, alpha=1.0):
    """Walk one start on the unit ball through the kernel, with step n
    driven by the hand-chosen tuples[n] = (beta, Theta, S, Phi).

    Returns (walk value, steps).
    """
    def draw(n, rows):
        beta, theta, s, phi = tuples[n]
        return (np.array([beta]), np.array([theta], dtype=np.float64),
                np.array([s]), np.array([phi], dtype=np.float64))

    prob = Problem(alpha=alpha, domain=unit_ball(), f=f, g=g)
    vals, steps = walk(np.array([start], dtype=np.float64), prob, 1, draw)
    return float(vals[0, 0]), steps


class TestRegIncBeta:
    def test_endpoints(self):
        assert reg_inc_beta(0.0, 1.3) == 0.0
        assert reg_inc_beta(1.0, 1.3) == 1.0

    def test_symmetric_half(self):
        # Beta(1/2, 1/2) is symmetric about 1/2
        assert reg_inc_beta(0.5, 1.0) == pytest.approx(0.5, abs=1e-13)

    def test_arcsine_closed_form(self):
        assert reg_inc_beta(0.75, 1.0) == pytest.approx(
            2.0 / np.pi * np.arcsin(np.sqrt(0.75)), abs=1e-13)

    @pytest.mark.parametrize("alpha", [0.1, 0.4, 1.0, 1.6, 1.95])
    def test_against_library_oracle(self, alpha):
        t = np.linspace(0.0, 1.0, 2001)
        ref = betainc(alpha / 2, 1 - alpha / 2, t)
        assert np.abs(reg_inc_beta(t, alpha) - ref).max() < 1e-12

    def test_arcsine_law_stable_forms(self):
        # alpha = 1 is the arcsine law; each branch takes arcsin at most
        # sqrt(1/2), and the upper one uses 1 - t, which is exact there
        t = np.concatenate([np.linspace(0.0, 1.0, 1001),
                            1.0 - np.array([1e-3, 2e-6, 1e-6, 5e-7, 1e-9,
                                            1e-12, 1e-15, 2.0 ** -53])])
        ref = np.where(t <= 0.5, 2.0 / np.pi * np.arcsin(np.sqrt(t)),
                       1.0 - 2.0 / np.pi * np.arcsin(np.sqrt(1.0 - t)))
        assert np.abs(reg_inc_beta(t, 1.0) - ref).max() < 1e-12

    @pytest.mark.parametrize("alpha", [0.02, 0.5, 1.0, 1.5, 1.98])
    def test_leading_tail_terms(self, alpha):
        # I_t(a, b) = t^a / (a B(a, b)) (1 + O(t)), and symmetrically at
        # t = 1; within 1e-10 of either end the O(t) term is below 2e-14
        a, b = alpha / 2, 1 - alpha / 2
        log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
        small = np.array([1e-10, 1e-12, 1e-15, 1e-30, 1e-100, 1e-300])
        lower = np.exp(a * np.log(small) - log_beta) / a
        assert np.abs(reg_inc_beta(small, alpha) - lower).max() < 1e-12
        t = 1.0 - np.array([1e-10, 1e-12, 1e-15, 2.0 ** -53])
        upper = 1.0 - np.exp(b * np.log(1.0 - t) - log_beta) / b
        assert np.abs(reg_inc_beta(t, alpha) - upper).max() < 1e-12

    def test_monotone(self):
        t = np.linspace(0, 1, 500)
        v = reg_inc_beta(t, 0.7)
        assert np.all(np.diff(v) >= 0)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            reg_inc_beta(1.5, 1.0)


class TestStableParams:
    def test_a1_alpha_one_is_unity(self):
        assert make_params(1.0).a1 == pytest.approx(1.0, abs=1e-12)

    def test_a1_closed_form_any_alpha(self):
        for alpha in (0.3, 0.9, 1.7):
            expect = (1 / alpha) * 2 ** (1 - alpha) * gamma(alpha / 2) ** -2 \
                * beta_fn((2 - alpha) / 2, alpha / 2)
            assert make_params(alpha).a1 == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.2, 0.7, 1.0, 1.5, 1.9])
    def test_a2_in_unit_interval(self, alpha):
        assert 0.0 < make_params(alpha).a2 < 1.0

    def test_a2_alpha_one_closed_form(self):
        # integral of the arcsine-law CDF gives exactly 2/pi
        assert make_params(1.0).a2 == pytest.approx(2.0 / np.pi, abs=1e-9)

    @pytest.mark.parametrize("alpha, expect", [
        # 25 of 40 digits of mpmath quadrature of the integral of
        # P(beta < 1 - z^(2/alpha)) over z in (0, 1), at the double alpha
        (0.02, "0.9998355147105486809736807"),
        (0.5, "0.9003163161571060695551992"),
        (1.0, "0.6366197723675813430755351"),
        (1.5, "0.3001054387190353565183997"),
        (1.8, "0.1092924047870517479891923"),
        (1.98, "0.01009934863343989472414858"),
    ])
    def test_a2_high_precision_reference(self, alpha, expect):
        assert abs(make_params(alpha).a2 - float(expect)) \
            <= 2 * math.ulp(float(expect))

    def test_no_quadrature_import(self):
        # A2 has a closed form; scipy.integrate alone costs ~0.25 s to import
        code = ("import sys, fracwos; fracwos.make_params(1.0); "
                "print('scipy.integrate' in sys.modules)")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_a2_monte_carlo_oracle(self):
        # independent oracle: mean of P(beta < 1 - U^(2/alpha)) over uniforms
        alpha = 0.7
        rng = np.random.default_rng(42)
        u = rng.random(10 ** 7)
        mc = reg_inc_beta(1.0 - u ** (2.0 / alpha), alpha).mean()
        assert make_params(alpha).a2 == pytest.approx(mc, abs=1e-3)

    def test_rejects_bad_alpha(self):
        for bad in (0.0, 2.0, -1.0):
            with pytest.raises(ValueError):
                make_params(bad)
        with pytest.raises(ValueError):
            StableParams(alpha=1.0, a1=1.0, a2=1.5)


class TestSampleBeta:
    """The Generator-fed Johnk sampler of the exit-radius law."""

    def test_deterministic_given_inputs(self):
        a = johnk_beta_rng(1.0, batch_generator(9, 1), 1000)
        b = johnk_beta_rng(1.0, batch_generator(9, 1), 1000)
        np.testing.assert_array_equal(a, b)

    def test_support(self):
        vals = johnk_beta_rng(0.6, np.random.default_rng(1), 2000)
        assert 0 < vals.min() and vals.max() < 1

    @pytest.mark.parametrize("alpha,mean", [(1.0, 0.5), (0.5, 0.25)])
    def test_empirical_mean(self, alpha, mean):
        vals = johnk_beta_rng(alpha, batch_generator(9, 1), 20000)
        # Beta(a, b) mean is a/(a+b) = alpha/2
        assert vals.mean() == pytest.approx(mean, abs=0.01)

    def test_ks_against_cdf(self):
        alpha = 1.3
        vals = johnk_beta_rng(alpha, batch_generator(77, 2), 5000)
        assert stats.kstest(vals, lambda t: reg_inc_beta(t, alpha)).pvalue > 0.01


class TestWosStep:
    """The kernel's jump x -> x + Theta d(x)/sqrt(beta), with hand tuples."""

    def test_center_jump(self):
        assert hand_walk((0.0, 0.0), [(0.25, (1.0, 0.0), 0.5, (1.0, 0.0))]) \
            == (2.0, 1)

    def test_unit_beta_is_boundary_of_inscribed_ball(self):
        # beta = 1 lands on the inscribed ball's boundary at (0.5, 0.5), still
        # inside the domain, so a second step starts from there
        tuples = [(1.0, (0.0, 1.0), 0.5, (1.0, 0.0)),
                  (0.25, (0.0, 1.0), 0.5, (1.0, 0.0))]
        value, steps = hand_walk((0.5, 0.0), tuples, g=y_coord)
        d = 1.0 - math.hypot(0.5, 0.5)
        assert steps == 2 and value == pytest.approx(0.5 + 2.0 * d, rel=1e-14)

    def test_half_radius(self):
        assert hand_walk((0.5, 0.0), [(0.25, (0.0, 1.0), 0.5, (1.0, 0.0))],
                         g=y_coord) == (1.0, 1)

    def test_degenerate_distance(self):
        # a point with no inscribed ball has already exited: it takes g there,
        # takes no step, as point_estimate reports, and draws no tuple (the
        # empty tuple list would raise)
        assert hand_walk((1.0, 0.0), []) == (1.0, 0)


class TestFTerm:
    """The source term F(x; S, Phi) the kernel adds at each step."""

    def test_zero_source(self):
        value, _ = hand_walk((0.3, 0.1), [(0.25, (1.0, 0.0), 0.5, (1.0, 0.0))],
                             g=one)
        assert value == 1.0

    def test_constant_source(self, ex1):
        # difference term vanishes, leaving a1 * d^alpha * a2 * f
        value, _ = hand_walk((0.5, 0.0), [(0.25, (1.0, 0.0), 0.37, (0.0, 1.0))],
                             f=one, g=zero)
        assert value == pytest.approx(ex1.params.a1 * 0.5 * ex1.params.a2,
                                      rel=1e-12)

    def test_constant_source_at_center_alpha_one(self, ex1):
        value, _ = hand_walk((0.0, 0.0), [(0.25, (1.0, 0.0), 0.8, (1.0, 0.0))],
                             f=one, g=zero)
        assert value == pytest.approx(ex1.params.a2, rel=1e-12)


class TestRunPath:
    """Whole walks through the kernel."""

    def test_start_outside_exits_immediately(self):
        # a start that has already exited takes no step, as point_estimate
        # reports, and draws no tuple
        assert hand_walk((3.0, 0.0), []) == (3.0, 0)

    def test_positions_interior_until_exit(self, ball):
        # f is evaluated only inside the domain, g only outside it
        seen = {"f": [], "g": []}

        def record(name):
            def field(pts):
                seen[name].append(np.array(pts))
                return zero(pts)
            return field

        prob = Problem(alpha=1.0, domain=ball, f=record("f"), g=record("g"))
        starts = np.array([[0.2, 0.1], [-0.6, 0.3], [0.0, 0.95]])
        _, cost = walk_starts(starts, prob, derive_key(5, np.arange(20)))
        inside = np.concatenate(seen["f"])
        exits = np.concatenate(seen["g"])
        assert ball.contains(inside).all() and not ball.contains(exits).any()
        assert exits.shape[0] == 60 and inside.shape[0] == 2 * cost

    def test_max_steps_error(self, monkeypatch):
        # at alpha = 1.9 jumps barely leave the inscribed ball, so walks
        # from near the boundary outlive a three-step cap
        prob = example1(1.9)
        assert np.isfinite(point_estimate((0.9, 0.0), prob, 1000, seed=1).mean)
        monkeypatch.setattr("fracwos.sampling.MAX_WALK_STEPS", 3)
        with pytest.raises(MaxStepsExceededError):
            point_estimate((0.9, 0.0), prob, 1000, seed=1)

    def test_cap_counts_jumps(self, monkeypatch):
        # a one-step cap lets a walk jump once: one that exits on its first
        # jump returns, one that needs a second jump raises
        monkeypatch.setattr("fracwos.sampling.MAX_WALK_STEPS", 1)
        assert hand_walk((0.0, 0.0), [(0.25, (1.0, 0.0), 0.5, (1.0, 0.0))]) \
            == (2.0, 1)
        with pytest.raises(MaxStepsExceededError):
            hand_walk((0.5, 0.0), [(1.0, (0.0, 1.0), 0.5, (1.0, 0.0)),
                                   (0.25, (0.0, 1.0), 0.5, (1.0, 0.0))])


class CountingBall(Ball):
    """The unit ball, counting the calls of its raw geometry methods."""

    calls = {"_distance": 0, "_contains": 0}

    def __init__(self):
        super().__init__((0.0, 0.0), 1.0)

    def _distance(self, pts):
        self.calls["_distance"] += 1
        return super()._distance(pts)

    def _contains(self, pts):
        self.calls["_contains"] += 1
        return super()._contains(pts)


class TestOneGeometryQuery:
    """Each loop iteration of the kernel asks the domain for d(x) once."""

    @pytest.fixture
    def counted(self, monkeypatch):
        """A counting-ball problem, and the steps `draw` was called for in
        each walk call."""
        CountingBall.calls.update(_distance=0, _contains=0)
        walk_draws = []
        kernel = walk

        def counting_walk(starts, problem, count, draw):
            calls = []
            walk_draws.append(calls)

            def counted_draw(n, rows):
                calls.append(n)
                return draw(n, rows)
            return kernel(starts, problem, count, counted_draw)

        monkeypatch.setattr("fracwos.sampling.walk", counting_walk)
        monkeypatch.setattr("fracwos.field.walk", counting_walk)
        prob = Problem(alpha=1.0, domain=CountingBall(), f=one, g=x_coord)
        return prob, walk_draws

    def test_walk_starts(self, counted):
        prob, walk_draws = counted
        starts = np.array([[0.2, 0.1], [-0.6, 0.3], [0.0, 0.95]])
        walk_starts(starts, prob, derive_key(5, np.arange(20)))
        (draws,) = walk_draws
        # every iteration but the last draws; the last retires the last walk
        assert draws == list(range(len(draws))) and len(draws) > 1
        assert CountingBall.calls == {"_distance": len(draws) + 1,
                                      "_contains": 0}

    def test_point_estimate(self, counted):
        prob, walk_draws = counted
        est = point_estimate((0.3, 0.4), prob, 3000, seed=4)
        assert est.total_steps > 0
        (draws,) = walk_draws
        assert draws == list(range(len(draws))) and len(draws) > 1
        # one more for point_estimate's own check of the start
        assert CountingBall.calls == {"_distance": len(draws) + 2,
                                      "_contains": 0}

    def test_point_estimate_outside_start(self, counted):
        prob, walk_draws = counted
        assert point_estimate((3.0, 0.0), prob, 10, seed=0).total_steps == 0
        assert walk_draws == [] and CountingBall.calls == {"_distance": 1,
                                                      "_contains": 0}


class TestPointEstimate:
    def test_constant_exterior_zero_source(self, ball):
        from fracwos.problems import Problem
        c = 2.5
        prob = Problem(alpha=1.0, domain=ball,
                       f=lambda pts: np.zeros(np.asarray(pts).shape[:-1]),
                       g=lambda pts: np.full(np.asarray(pts).shape[:-1], c))
        est = point_estimate((0.3, 0.2), prob, 5000, seed=8)
        assert est.mean == pytest.approx(c, abs=1e-12)
        assert est.variance == pytest.approx(0.0, abs=1e-12)

    def test_example1_center(self, ex1):
        est = point_estimate((0.0, 0.0), ex1, 10 ** 5, seed=3)
        se = np.sqrt(est.variance / 10 ** 5)
        assert abs(est.mean - 2 / np.pi) <= 3 * se + 1e-9

    def test_example2_center(self, ex2):
        est = point_estimate((0.0, 0.0), ex2, 2 * 10 ** 5, seed=5)
        se = np.sqrt(est.variance / (2 * 10 ** 5))
        assert abs(est.mean - 1.0) <= 3 * se + 1e-9

    def test_unbiased_at_random_interior_points(self, ex1, rng):
        # pooled z-scores at interior points stay within 4 standard errors
        pts = ex1.domain.sample_uniform(np.random.default_rng(17), 5)
        M = 50000
        for p in pts:
            est = point_estimate(p, ex1, M, seed=21)
            exact = float(ex1.exact(p[None, :])[0])
            se = np.sqrt(est.variance / M)
            assert abs(est.mean - exact) <= 4 * se + 1e-9

    def test_deterministic(self, ex2):
        a = point_estimate((0.4, -0.3), ex2, 30000, seed=12)
        b = point_estimate((0.4, -0.3), ex2, 30000, seed=12)
        assert a == b

    def test_golden_bits(self, ex2):
        # pinned before point estimates moved onto the shared walk kernel;
        # M = 40000 is one full batch and one partial batch; re-taken when A2
        # moved from quadrature to its closed form (last bits of A2)
        est = point_estimate((0.4, -0.3), ex2, 40000, seed=12)
        assert est.mean.hex() == "0x1.4cb9c49731502p-1"
        assert est.variance.hex() == "0x1.cfddee6391efcp-3"
        assert est.total_steps == 96250

    def test_outside_returns_exterior_data(self, ex3):
        est = point_estimate((2.0, 0.0), ex3, 10, seed=0)
        assert est.mean == pytest.approx(np.sin(4.0))
        assert est.variance == 0.0 and est.total_steps == 0

    def test_needs_two_samples(self, ex1):
        with pytest.raises(ValueError):
            point_estimate((0.0, 0.0), ex1, 1, seed=0)

    def test_non_finite_moments_raise(self, ball):
        # at alpha = 0.02 a few exits land ~1e140 away, where x^3 overflows
        prob = Problem(alpha=0.02, domain=ball,
                       f=lambda pts: np.zeros(np.asarray(pts).shape[:-1]),
                       g=lambda pts: np.asarray(pts)[..., 0] ** 3)
        with np.errstate(all="ignore"), \
                pytest.raises(NonFiniteStatisticError) as exc:
            point_estimate((0.3, 0.4), prob, 1000, seed=0)
        e = exc.value
        assert e.alpha == 0.02 and e.name == "mean"
        assert e.term == "point estimate at (0.3, 0.4)"


class TestCouplingContraction:
    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_one_step_contraction_on_ball(self, alpha):
        # pooled moment of (r1/r0)^alpha over surviving coupled pairs < 1
        from fracwos.streams import johnk_beta_rng
        D = unit_ball()
        rng = np.random.default_rng(42)
        tot, n_tot = 0.0, 0
        for _ in range(40):
            x0, y0 = D.sample_uniform(rng, 2)
            r0 = np.hypot(*(x0 - y0))
            d0x, d0y = float(D.distance(x0)), float(D.distance(y0))
            M = 10000
            beta = johnk_beta_rng(alpha, rng, M)
            ang = 2 * np.pi * rng.random(M)
            jump = np.column_stack([np.cos(ang), np.sin(ang)]) / np.sqrt(beta)[:, None]
            x1, y1 = x0 + d0x * jump, y0 + d0y * jump
            both = D._contains(x1) & D._contains(y1)
            r1 = np.hypot(x1[:, 0] - y1[:, 0], x1[:, 1] - y1[:, 1])
            tot += np.where(both, (r1 / r0) ** alpha, 0.0).sum()
            n_tot += M
        assert tot / n_tot < 1.0
