import numpy as np
import pytest
from scipy.special import beta as beta_fn, gamma

from fracwos import mlmc
from fracwos.geometry import Ball, ConvexPolygon, box
from fracwos.mesh import base_mesh_for, build_hierarchy
from fracwos.problems import Problem, by_name, example1, example2, example3
from fracwos.sampling import point_estimate


class TestExample1:
    def test_center_value_alpha_one(self, ex1):
        assert float(ex1.exact(np.zeros((1, 2)))[0]) == pytest.approx(2 / np.pi,
                                                                      rel=1e-12)

    def test_coefficient_full_form(self):
        # same coefficient written with the beta-function normalization
        for alpha in (0.4, 1.0, 1.6):
            p = example1(alpha)
            full = gamma(1 - alpha / 2) / (
                2 ** alpha * gamma(1 + alpha / 2) * (alpha / 2)
                * beta_fn(alpha / 2, 1 - alpha / 2))
            assert float(p.exact(np.zeros((1, 2)))[0]) == pytest.approx(full,
                                                                        rel=1e-12)

    def test_zero_on_boundary(self, ex1):
        bd = np.array([[1.0, 0.0], [0.0, -1.0], [np.sqrt(0.5), np.sqrt(0.5)]])
        np.testing.assert_allclose(ex1.exact(bd), 0.0, atol=1e-15)

    def test_radial_symmetry(self, ex1, rng):
        r = rng.uniform(0, 1, 50)
        ang1, ang2 = rng.uniform(0, 2 * np.pi, (2, 50))
        p1 = np.column_stack([r * np.cos(ang1), r * np.sin(ang1)])
        p2 = np.column_stack([r * np.cos(ang2), r * np.sin(ang2)])
        np.testing.assert_allclose(ex1.exact(p1), ex1.exact(p2), rtol=1e-12)

    def test_source_and_exterior(self, ex1, rng):
        pts = rng.uniform(-2, 2, (100, 2))
        np.testing.assert_array_equal(ex1.f(pts), 1.0)
        np.testing.assert_array_equal(ex1.g(pts), 0.0)


class TestExample2:
    def test_center_value(self, ex2):
        assert float(ex2.exact(np.zeros((1, 2)))[0]) == 1.0

    def test_zero_on_boundary(self, ex2):
        assert float(ex2.exact(np.array([[0.6, 0.8]]))[0]) == pytest.approx(0.0,
                                                                            abs=1e-15)

    def test_source_center_alpha_one(self, ex2):
        # 2 Gamma(5/2) Gamma(3/2) = 3 pi / 4
        assert float(ex2.f(np.zeros((1, 2)))[0]) == pytest.approx(3 * np.pi / 4,
                                                                  rel=1e-12)

    def test_solution_profile(self, ex2, rng):
        pts = rng.uniform(-0.7, 0.7, (50, 2))
        r2 = (pts ** 2).sum(axis=1)
        np.testing.assert_allclose(ex2.exact(pts), (1 - r2) ** 1.5, rtol=1e-12)


class TestExample3:
    def test_exterior_oscillation(self, ex3):
        x = np.sqrt(np.pi)
        assert float(ex3.g(np.array([[x, 0.0]]))[0]) == pytest.approx(0.0, abs=1e-12)

    def test_source_center(self, ex3):
        assert float(ex3.f(np.zeros((1, 2)))[0]) == 2.0

    def test_exterior_bounded(self, ex3, rng):
        pts = rng.uniform(-100, 100, (1000, 2))
        assert np.abs(ex3.g(pts)).max() <= 1.0

    def test_no_exact(self, ex3):
        assert ex3.exact is None


class TestRegistry:
    def test_by_name(self):
        assert by_name("example2", 0.7).name == "example2"
        with pytest.raises(ValueError):
            by_name("example9", 1.0)

    def test_fields_finite(self, rng):
        pts = rng.uniform(-3, 3, (200, 2))
        for name in ("example1", "example2", "example3"):
            p = by_name(name, 1.3)
            assert np.isfinite(p.f(pts)).all()
            assert np.isfinite(p.g(pts)).all()


# Points inside, on and outside the unit ball, passed as the walk passes its
# positions: the strided transpose of a (2, N) array.
_PIN_XY = np.array([[0.0, 0.3, -0.7, 1.0, -1.5, 3.0],
                    [0.0, 0.4, 0.1, 0.0, 2.0, -4.0]])
_ONES, _ZEROS = ["0x1.0000000000000p+0"] * 6, ["0x0.0p+0"] * 6
# float.hex of every named field at _PIN_XY
_PINS = {
    ("example1", 0.5, "f"): _ONES,
    ("example1", 0.5, "g"): _ZEROS,
    ("example1", 0.5, "exact"): [
        "0x1.b8ab573f48c3bp-1", "0x1.9a16c82bd8a9dp-1", "0x1.728ea6ef256f0p-1",
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"],
    ("example1", 1.5, "f"): _ONES,
    ("example1", 1.5, "g"): _ZEROS,
    ("example1", 1.5, "exact"): [
        "0x1.ac9ccda0ac518p-2", "0x1.596e3b123c92ap-2", "0x1.fdb584463f014p-3",
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"],
    ("example2", 0.5, "f"): [
        "0x1.73cc4f0529bd4p+0", "0x1.ff38eca719644p-1", "0x1.16d93b43df4e0p-1",
        "-0x1.73cc4f0529bd4p-2", "-0x1.3c9bfb4a658b3p+3", "-0x1.5f7722b2e174ep+5"],
    ("example2", 0.5, "g"): _ZEROS,
    ("example2", 0.5, "exact"): [
        "0x1.0000000000000p+0", "0x1.655a2e1903683p-1", "0x1.ae89f995ad3adp-2",
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"],
    ("example2", 1.5, "f"): [
        "0x1.0b946610c3b3ep+2", "0x1.2d06f2d2dc2a6p+1", "0x1.0b946610c3b42p-1",
        "-0x1.915e9919258ddp+1", "-0x1.4c6256c8d3197p+5", "-0x1.6578405a65725p+7"],
    ("example2", 1.5, "g"): _ZEROS,
    ("example2", 1.5, "exact"): [
        "0x1.0000000000000p+0", "0x1.3579e455c0c10p-1", "0x1.306fe0a31b715p-2",
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"],
    ("example3", 0.5, "f"): [
        "0x1.0000000000000p+1", "0x1.2000000000000p+1", "0x1.4000000000000p+1",
        "0x1.8000000000000p+1", "0x1.0800000000000p+3", "0x1.b000000000000p+4"],
    ("example3", 0.5, "g"): [
        "0x0.0p+0", "0x1.faaeed4f31577p-3", "0x1.eaee8744b05efp-2",
        "0x1.aed548f090ceep-1", "-0x1.0fcddc3f512bcp-5", "-0x1.0f0e6f31e809dp-3"],
    ("example3", 1.5, "f"): [
        "0x1.0000000000000p+1", "0x1.2000000000000p+1", "0x1.4000000000000p+1",
        "0x1.8000000000000p+1", "0x1.0800000000000p+3", "0x1.b000000000000p+4"],
    ("example3", 1.5, "g"): [
        "0x0.0p+0", "0x1.faaeed4f31577p-3", "0x1.eaee8744b05efp-2",
        "0x1.aed548f090ceep-1", "-0x1.0fcddc3f512bcp-5", "-0x1.0f0e6f31e809dp-3"],
}


@pytest.mark.parametrize("name, alpha, field", sorted(_PINS))
def test_field_bits(name, alpha, field):
    fn = getattr(by_name(name, alpha), field)
    assert [float(v).hex() for v in fn(_PIN_XY.T)] == _PINS[name, alpha, field]


class TestSamplingTiesToAnalytics:
    @pytest.mark.parametrize("make", [example1, example2])
    def test_point_estimates_match_exact(self, make, rng):
        prob = make(1.0)
        pts = prob.domain.sample_uniform(np.random.default_rng(3), 5)
        M = 40000
        for p in pts:
            est = point_estimate(p, prob, M, seed=13)
            se = np.sqrt(est.variance / M)
            exact = float(prob.exact(p[None, :])[0])
            assert abs(est.mean - exact) <= 4 * se + 1e-9


_ANGLES = 2 * np.pi * np.arange(5) / 5
_SUBDOMAINS = {
    "box": box(-0.5, -0.4, 0.6, 0.5),
    "pentagon": ConvexPolygon(0.6 * np.column_stack([np.cos(_ANGLES),
                                                     np.sin(_ANGLES)])),
    "off-centre ball": Ball((0.2, -0.1), 0.6),
}


class TestExactOnSubdomains:
    """The closed forms of example1 and example2 are zero off the unit ball
    and solve the equation at every point of it.  So on any D inside the
    unit ball, the same source with g = u has the solution u on D; g is
    non-zero in the ring between D and the unit circle, where the
    heavy-tailed exits land."""

    @pytest.mark.parametrize("domain", list(_SUBDOMAINS))
    @pytest.mark.parametrize("make", [example1, example2])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_point_estimate_matches_exact(self, domain, make, alpha):
        ref = make(alpha)
        prob = Problem(alpha, _SUBDOMAINS[domain], f=ref.f, g=ref.exact,
                       exact=ref.exact)
        x, M = np.array([0.1, 0.05]), 200_000
        est = point_estimate(x, prob, M, seed=3)
        se = np.sqrt(est.variance / M)
        exact = float(ref.exact(x[None, :])[0])
        assert abs(est.mean - exact) <= 4 * se

    @pytest.mark.parametrize("domain", ["box", "pentagon"])
    def test_field_solve_within_eps(self, domain):
        # eps is an RMS promise: over seeds 1-36 the error's RMS was 0.0070
        # on both domains, and 1 of 36 pentagon solves exceeded eps
        D, ref, eps = _SUBDOMAINS[domain], example2(1.0), 0.01
        hier = build_hierarchy(base_mesh_for(D), 5, domain=D)
        prob = Problem(1.0, D, f=ref.f, g=ref.exact, exact=ref.exact)
        res = mlmc.run(hier, prob, eps, l0=2, seed=4)
        abs_err, _ = mlmc.error_vs_exact(res, ref.exact, hier)
        assert abs_err <= eps
