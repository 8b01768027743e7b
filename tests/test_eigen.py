import numpy as np
import pytest
from scipy import linalg

from conftest import fresh_output
from pins import pin
from fracwos import eigen, mlmc, sampling
from fracwos.mesh import build_hierarchy, square_ball_base
from fracwos.geometry import Ball, unit_ball


def _stub_op(matrix):
    return lambda v, tol, k: (matrix @ v, 1)


class TestLeadingRitz:
    def test_import_leaves_scipy_linalg_out(self):
        # numpy.linalg.eig wraps the same LAPACK geev; importing scipy.linalg
        # as well costs about 0.05 s of every run's start-up
        code = "import sys, fracwos; print('scipy.linalg' in sys.modules)"
        assert fresh_output(code) == "False"

    def test_diagonal(self):
        theta, w, _ = eigen.leading_ritz(np.diag([0.2, 0.9, 0.5]))
        assert theta == pytest.approx(0.9)
        np.testing.assert_allclose(np.abs(w), [0, 1, 0], atol=1e-12)

    def test_complex_leading_aborts(self):
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])   # eigenvalues +/- i
        with pytest.raises(eigen.ComplexLeadingRitzError):
            eigen.leading_ritz(rot)


class TestSpectralGap:
    """The gap that leading_ritz returns with the leading pair."""

    def test_three_eigenvalues(self):
        assert eigen.leading_ritz(np.diag([3.0, 1.0, 0.5]))[2] \
            == pytest.approx(2.0)

    def test_near_degenerate(self):
        assert eigen.leading_ritz(np.diag([5.0, 5.0 - 1e-9]))[2] \
            == pytest.approx(1e-9, rel=1e-3)

    def test_two_by_two(self):
        assert eigen.leading_ritz(np.diag([2.0, 1.0]))[2] == pytest.approx(1.0)

    def test_singleton_has_no_gap(self):
        assert eigen.leading_ritz(np.array([[2.0]]))[2] is None


class TestWosTolerance:
    def test_base_without_gap(self):
        assert eigen.wos_tolerance(0.01, 3, 5, None, None) \
            == pytest.approx(0.01 / 15)

    def test_relaxed_by_gap_ratio(self):
        assert eigen.wos_tolerance(0.01, 3, 5, 2.0, 0.5) \
            == pytest.approx((0.01 / 15) * 4)

    def test_floored_at_base(self):
        # a gap smaller than the residual never tightens below the base
        assert eigen.wos_tolerance(0.01, 3, 5, 0.2, 0.8) \
            == pytest.approx(0.01 / 15)

    def test_capped(self):
        assert eigen.wos_tolerance(0.01, 3, 5, 1000.0, 1e-9) \
            == pytest.approx((0.01 / 15) * 100)

    def test_monotone_in_residual(self):
        tols = [eigen.wos_tolerance(0.01, 3, 5, 0.5, r)
                for r in (0.4, 0.2, 0.1, 0.01)]
        assert tols == sorted(tols)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            eigen.wos_tolerance(-0.01, 3, 5, None, None)

    @pytest.mark.parametrize("B", [0.5, 1.0])
    def test_B_must_exceed_one(self, B):
        with pytest.raises(ValueError, match="^B must be greater than 1$"):
            eigen.wos_tolerance(0.01, B, 5, None, None)

    @pytest.mark.parametrize("tol, B, msg", [
        (np.nan, 3.0, "tol must not be NaN"),
        (np.inf, 3.0, "tol must be finite"),
        (0.01, np.nan, "B must not be NaN"),
        (0.01, np.inf, "B must be finite")])
    def test_rejects_nonfinite_inputs(self, tol, B, msg):
        with pytest.raises(ValueError, match=f"^{msg}$"):
            eigen.wos_tolerance(tol, B, 5, None, None)


class TestArnoldiStub:
    def test_full_krylov_recovers_leading_value(self):
        n = 8
        D = np.diag(1.0 / np.arange(1, n + 1))
        v0 = np.random.default_rng(5).random(n) + 0.5
        res = eigen.run_arnoldi(_stub_op(D), v0, m=n, tol=1e-3, B=3)
        assert abs(res.lam - 1.0) < 1e-10

    def test_matches_dense_eigensolve(self):
        rng = np.random.default_rng(11)
        A = rng.normal(size=(9, 9))
        M = A @ A.T + 9 * np.eye(9)   # symmetric positive definite
        res = eigen.run_arnoldi(_stub_op(M), np.ones(9), m=9, tol=1e-6, B=3)
        dense = np.max(linalg.eigvalsh(M))
        assert res.theta == pytest.approx(dense, abs=1e-8)

    def test_residual_identity(self):
        D = np.diag([1.0, 0.45, 0.3, 0.2, 0.1])
        res = eigen.run_arnoldi(_stub_op(D), np.ones(5) + 0.1 * np.arange(5),
                                m=3, tol=1e-3, B=3)
        s = res.state
        theta, w, _ = eigen.leading_ritz(s.H[:3, :3])
        assert res.residual == pytest.approx(s.H[3, 2] * abs(w[-1]), rel=1e-12)

    def test_basis_orthonormal(self):
        rng = np.random.default_rng(3)
        M = rng.normal(size=(20, 20))
        M = M @ M.T + 20 * np.eye(20)
        res = eigen.run_arnoldi(_stub_op(M), rng.random(20), m=8, tol=1e-6, B=3)
        V = np.column_stack(res.state.basis)
        gram = V.T @ V
        np.testing.assert_allclose(gram, np.eye(gram.shape[0]), atol=1e-10)

    def test_breakdown_on_invariant_subspace(self):
        D = np.diag([2.0, 1.0, 0.5])
        v0 = np.array([1.0, 0.0, 0.0])    # exact eigenvector
        res = eigen.run_arnoldi(_stub_op(D), v0, m=3, tol=1e-3, B=3)
        assert res.state.breakdown and res.iterations == 1
        assert res.residual == pytest.approx(0.0, abs=1e-13)
        assert res.lam == pytest.approx(0.5)  # inverse of leading theta = 2

    def test_fixed_accuracy_tolerances(self):
        D = np.diag(1.0 / np.arange(1, 7))
        res = eigen.run_arnoldi(_stub_op(D), np.ones(6), m=4, tol=0.02, B=3,
                                variable=False)
        assert [r["wos_tol"] for r in res.history] == [0.02 / (3 * 4)] * 4
        assert [r["gap"] for r in res.history] == [None] * 4

    def test_history_reads_each_steps_ritz_value(self):
        rng = np.random.default_rng(7)
        A = rng.normal(size=(12, 12))
        M = A @ A.T + 12 * np.eye(12)
        res = eigen.run_arnoldi(_stub_op(M), rng.random(12), m=6, tol=1e-4,
                                B=3)
        H = res.state.H
        assert [r["k"] for r in res.history] == list(range(1, 7))
        for i, row in enumerate(res.history):
            theta = eigen.leading_ritz(H[:i + 1, :i + 1])[0]
            assert row["theta"] == theta and row["lambda"] == 1.0 / theta
        assert res.history[-1]["theta"] == res.theta

    def test_zero_start_rejected(self):
        with pytest.raises(ValueError):
            eigen.run_arnoldi(_stub_op(np.eye(3)), np.zeros(3), m=2,
                              tol=1e-3, B=3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_start_rejected_before_applying(self, bad):
        def no_op(v, tol, k):
            raise AssertionError("applied the operator to a bad start")

        with pytest.raises(ValueError, match="^start vector must be finite$"):
            eigen.run_arnoldi(no_op, [1.0, bad, 1.0], m=2, tol=1e-3, B=3)

    def test_2d_start_rejected_before_applying(self):
        def no_op(v, tol, k):
            raise AssertionError("applied the operator to a bad start")

        with pytest.raises(ValueError,
                           match="^start vector must be a 1-D vector$"):
            eigen.run_arnoldi(no_op, np.ones((3, 2)), m=2, tol=1e-3, B=3)


@pytest.fixture(scope="module")
def hier5():
    d = unit_ball()
    return build_hierarchy(square_ball_base(d), 5, domain=d)


class TestApplyInverse:
    def test_zero_vector_exact_zero(self, hier5):
        u, cost = eigen.apply_inverse(np.zeros(hier5.level(5).num_vertices),
                                      1.0, hier5, 1e-2, seed=1, l0=3)
        assert np.all(u == 0.0) and cost == 0

    def test_constant_interior_matches_unit_source_solution(self, hier5):
        # the interpolant of all-ones inside the ball is the unit source, so
        # the solve reproduces the known mean-exit-time profile
        from fracwos.problems import example1
        lvl = hier5.level(5)
        mask = hier5.domain.contains(lvl.vertices)
        v = mask.astype(float)
        u, cost = eigen.apply_inverse(v, 1.0, hier5, 4e-3, seed=2, l0=3)
        exact = example1(1.0).exact(lvl.vertices)
        err = np.sqrt(np.mean((u[mask] - exact[mask]) ** 2))
        assert err <= 4 * 4e-3
        assert cost > 0

    @pytest.mark.parametrize("tol, word", [(np.nan, "NaN"),
                                           (np.inf, "finite")])
    def test_rejects_nonfinite_tolerance(self, hier5, tol, word):
        v = hier5.domain.contains(hier5.level(5).vertices).astype(float)
        msg = "must not be NaN" if word == "NaN" else "must be finite"
        with pytest.raises(ValueError, match=f"^rms_tol {msg}$"):
            eigen.apply_inverse(v, 1.0, hier5, tol, seed=1, l0=3)

    def test_rejects_a_vector_of_another_length(self, hier5):
        with pytest.raises(ValueError, match="^vector length does not match"):
            eigen.apply_inverse(np.ones(7), 1.0, hier5, 0.1, seed=1, l0=3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("vertex", [4, 3], ids=["interior", "exterior"])
    def test_rejects_a_nonfinite_vector_before_walking(self, hier5,
                                                       monkeypatch, bad,
                                                       vertex):
        # vertex 4, the center, used to end in RuntimeWarnings and an error
        # that blamed g; vertex 3, the corner (-1, 1), outside the ball,
        # to return a finite field
        def no_run(*args, **kwargs):
            raise AssertionError("walked before rejecting v")

        monkeypatch.setattr(mlmc, "run", no_run)
        v = hier5.domain.contains(hier5.level(5).vertices).astype(float)
        v[vertex] = bad
        with pytest.raises(ValueError, match="^v must be finite$"):
            eigen.apply_inverse(v, 1.0, hier5, 0.1, seed=1, l0=3)

    def test_rejects_a_2d_vector_before_walking(self, hier5, monkeypatch):
        # an (N, 2) v used to fail in numpy's broadcast inside the walk
        def no_run(*args, **kwargs):
            raise AssertionError("walked before rejecting v")

        monkeypatch.setattr(mlmc, "run", no_run)
        v = hier5.domain.contains(hier5.level(5).vertices).astype(float)
        with pytest.raises(ValueError, match="^v must be a 1-D vector$"):
            eigen.apply_inverse(np.column_stack([v, v]), 1.0, hier5, 0.1,
                                seed=1, l0=3)

    def test_walks_the_plan_or_the_pilot_floor(self, hier5, monkeypatch):
        # each term walks max(plan, floor) samples: a relaxed step's plan is
        # below any larger pilot, and a term that plans more is extended
        runs = []
        run = mlmc.run

        def spy(*args, **kwargs):
            runs.append(run(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(mlmc, "run", spy)
        v = hier5.domain.contains(hier5.level(5).vertices).astype(float)
        eigen.apply_inverse(v, 1.0, hier5, 0.1, seed=5, l0=3)
        (res,) = runs
        assert res.plan.M.min() < mlmc.PILOT_FLOOR < res.plan.M.max()
        np.testing.assert_array_equal(
            res.samples_used, np.maximum(res.plan.M, mlmc.PILOT_FLOOR))

    def test_linearity_within_noise(self, hier5):
        lvl = hier5.level(5)
        rng = np.random.default_rng(8)
        v = hier5.domain.contains(lvl.vertices) * rng.random(lvl.num_vertices)
        tol = 6e-3
        u1, _ = eigen.apply_inverse(v, 1.0, hier5, tol, seed=3, l0=3)
        u2, _ = eigen.apply_inverse(2.0 * v, 1.0, hier5, 2.0 * tol, seed=4,
                                    l0=3)
        rms = np.sqrt(np.mean((u2 - 2.0 * u1) ** 2))
        assert rms <= 4 * 3 * tol


class TestSmallestEigenvalue:
    def test_alpha_one_near_reference(self, hier5):
        res = eigen.smallest_eigenvalue(1.0, hier5, tol=0.02, B=3, m=4,
                                        seed=11, l0=3)
        # Dyda (2012) bounds for the unit disc: [1.96349, 2.00612]; a level-5
        # mesh carries some discretization bias on top
        assert 1.9 < res.lam < 2.12
        assert res.iterations == 4
        assert len(res.history) == 4

    def test_deterministic(self, hier5):
        a = eigen.smallest_eigenvalue(1.0, hier5, tol=0.05, B=3, m=3, seed=7,
                                      l0=3)
        b = eigen.smallest_eigenvalue(1.0, hier5, tol=0.05, B=3, m=3, seed=7,
                                      l0=3)
        assert a.lam == b.lam and a.total_cost == b.total_cost

    def test_golden_bits(self, hier5):
        # pinned on scipy's incomplete beta (with the upper-tail complement)
        # for the source weights; a change to point location, the streams or
        # the sampling engine must leave the eigenvalue bit-identical; re-taken
        # when A2 moved from quadrature to its closed form (last bits of A2),
        # when each step's pilot fell from 32 samples per term to 8, and when
        # the Johnk log-sum and the ball radius moved to vector forms, and
        # when the unit vectors moved to the half-angle tan form; at
        # l0 = 2, the coarsest level with triangles inside the ball
        res = eigen.smallest_eigenvalue(1.0, hier5, tol=0.05, B=3, m=3, seed=11,
                                        l0=2)
        pin("eig_golden", (res.lam, res.total_cost))

    def test_walk_loop_iterations_at_the_benchmark_size(self, hier6,
                                                        monkeypatch):
        # the benchmark's eig call (alpha 1, tol 0.01, B 3, m 5, l0 3, L 6)
        # at seed 1001: one walk call per term ran 632 walk-loop iterations
        # (draw calls), packs of at most 2^16 values per phase 261, and one
        # stream of walk calls per phase runs the pinned count; every
        # (k, lambda, cost) row is pinned
        draws, kernel = [0], sampling.walk

        def counting_walk(starts, problem, draw, realization=None):
            def counted(n, rows):
                draws[0] += 1
                return draw(n, rows)
            return kernel(starts, problem, counted, realization)

        monkeypatch.setattr("fracwos.field.walk", counting_walk)
        res = eigen.smallest_eigenvalue(1.0, hier6, 0.01, 3.0, 5, 1001, l0=3)
        rows = [(row["k"], row["lambda"], row["cost"]) for row in res.history]
        pin("eig_benchmark_size", (rows, draws[0]))

    def test_workers_must_be_one(self, hier5, ex2):
        # the keyword stays for old callers; any other value fails up front
        msg = "workers must be 1: sampling runs in this process"
        with pytest.raises(ValueError, match=msg):
            mlmc.run(hier5, ex2, eps=0.1, l0=3, seed=7, workers=2)
        with pytest.raises(ValueError, match=msg):
            eigen.smallest_eigenvalue(1.0, hier5, tol=0.05, B=3, m=3, seed=7,
                                      l0=3, workers=2)

    @pytest.mark.parametrize("domain", [Ball((0.3, 0.1), 0.05)],
                             ids=["between_vertices"])
    def test_no_interior_vertices(self, domain):
        # no start vector: none of the finest level's vertices lies inside
        # the domain
        hier = build_hierarchy(square_ball_base(), 3, domain=domain)
        with pytest.raises(ValueError, match="^hierarchy has no interior vertices$"):
            eigen.smallest_eigenvalue(1.0, hier, tol=0.05, B=3, m=3, seed=7,
                                      l0=2)

    def test_empty_coarsest_mask_rejected_before_walking(self, hier5,
                                                         monkeypatch):
        # level 1 of the square ball mesh has no triangle inside the ball:
        # its plain term used to get V = 0 and warn at every Arnoldi step
        def no_pilot(*args, **kwargs):
            raise AssertionError("walked before rejecting l0")

        monkeypatch.setattr(mlmc, "pilot", no_pilot)
        with pytest.raises(ValueError, match="^l0 = 1 has no triangles"):
            eigen.smallest_eigenvalue(1.0, hier5, tol=0.05, B=3, m=3, seed=7,
                                      l0=1)

    @pytest.mark.parametrize("tol, msg", [
        (np.nan, "tol must not be NaN"), (np.inf, "tol must be finite")])
    def test_nonfinite_tol_rejected_before_walking(self, hier5, monkeypatch,
                                                   tol, msg):
        # NaN used to walk the first step's pilot and then blame V
        def no_run(*args, **kwargs):
            raise AssertionError("walked before rejecting tol")

        monkeypatch.setattr(mlmc, "run", no_run)
        with pytest.raises(ValueError, match=f"^{msg}$"):
            eigen.smallest_eigenvalue(1.0, hier5, tol=tol, B=3, m=3, seed=7,
                                      l0=3)

    @pytest.mark.parametrize("B, m, msg", [
        (0.5, 3, "B must be greater than 1"),
        (1.0, 3, "B must be greater than 1"),
        (3.0, 1, "m must be at least 2"),
        (3.0, 2.5, "m must be an integer, got 2.5"),
        (3.0, np.nan, "m must be an integer, got nan")])
    def test_B_and_m_rejected_before_walking(self, hier5, monkeypatch, B, m,
                                             msg):
        # B = 0.5 used to run, with a base tolerance above tol/m
        def no_run(*args, **kwargs):
            raise AssertionError("walked before rejecting B or m")

        monkeypatch.setattr(mlmc, "run", no_run)
        with pytest.raises(ValueError, match=f"^{msg}$"):
            eigen.smallest_eigenvalue(1.0, hier5, tol=0.05, B=B, m=m, seed=7,
                                      l0=3)

    def test_variable_accuracy_relaxes_tolerances(self, hier5):
        res = eigen.smallest_eigenvalue(1.0, hier5, tol=0.02, B=3, m=4,
                                        seed=11, l0=3)
        tols = [r["wos_tol"] for r in res.history]
        base = 0.02 / (3 * 4)
        assert tols[0] == pytest.approx(base)
        assert tols[-1] > base  # the gap/residual rule kicked in

    def test_monotone_relaxation_with_shrinking_residual(self, hier5):
        # while the residual shrinks and the gap stays stable, the issued
        # tolerance never decreases
        res = eigen.smallest_eigenvalue(1.0, hier5, tol=0.02, B=3, m=5,
                                        seed=13, l0=3)
        h = res.history
        for i in range(1, len(h)):
            ga, gb = h[i - 1]["gap"], h[i]["gap"]
            if ga is None or gb is None:
                continue
            gap_stable = abs(gb - ga) <= 0.2 * ga
            resid_down = h[i - 1]["residual"] <= h[i - 2]["residual"]
            if gap_stable and resid_down:
                assert h[i]["wos_tol"] >= h[i - 1]["wos_tol"] * (1 - 1e-12)

    def test_seed_calibration(self, hier5):
        # eigenvalue spread across master seeds is consistent with 2 tol
        tol = 0.02
        lams = [eigen.smallest_eigenvalue(1.0, hier5, tol=tol, B=3, m=4,
                                          seed=s, l0=3).lam
                for s in range(5)]
        sd = np.std(lams, ddof=1)
        # 95% chi-square envelope for n=5 samples of a 2*tol deviate
        assert sd <= 2 * tol * 1.6
