"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run `pytest tests/test_acceptance.py -s` to see the per-criterion lines as
they complete.  Every tolerance is fixed here; nothing is calibrated at run
time.  The random seeds are fixed, which pins single draws of genuinely
random statistics (noted where that matters).
"""

import numpy as np
import pytest
from scipy import linalg, stats

from fracwos import eigen, mlmc
from fracwos.assumptions import AssumptionConfig, check_I1, check_I2
from fracwos.field import field_values, mass_matrix, mass_norm
from fracwos.geometry import unit_ball
from fracwos.mesh import build_hierarchy, square_ball_base
from fracwos.mlmc import fit_slope
from fracwos.problems import by_name, example1, example2
from fracwos.sampling import make_params, point_estimate, reg_inc_beta
from fracwos.streams import derive_key, johnk_beta

DYDA_UPPER = {0.5: 1.34374, 1.0: 2.00612, 1.8: 4.56719}


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {name} ({detail})")
    assert ok, f"criterion {num} failed: {name}: {detail}"


@pytest.fixture(scope="module")
def hier6():
    d = unit_ball()
    return build_hierarchy(square_ball_base(d), 6, domain=d)


@pytest.fixture(scope="module")
def hier7():
    d = unit_ball()
    return build_hierarchy(square_ball_base(d), 7, domain=d)


def test_criterion_1_point_unbiasedness():
    # at the exact center the estimator is deterministic, so the standard
    # error degenerates; the quadrature tolerance of the constants is the
    # honest floor in that case
    prob = example1(1.0)
    M = 10 ** 6
    est = point_estimate((0.0, 0.0), prob, M, seed=7)
    se = np.sqrt(est.variance / M)
    err = abs(est.mean - 2.0 / np.pi)
    ok = err <= 3.0 * se + 1e-8
    report(1, "unit-source point estimate at the origin", ok,
           f"got {est.mean:.6f}, exact {2/np.pi:.6f}, err {err:.2e}, se {se:.2e}")


def test_criterion_2_field_accuracy_example2(hier6):
    prob = example2(1.0)
    res = mlmc.run(hier6, prob, eps=1e-2, l0=4, seed=7)
    _, rel = mlmc.error_vs_exact(res, prob.exact, hier6)
    ok = rel <= 0.02
    report(2, "polynomial-solution field accuracy", ok,
           f"relative L2 error {rel:.4f} <= 0.02, cost {res.total_cost}")


def test_criterion_3_field_accuracy_example1(hier6):
    prob = example1(1.0)
    res = mlmc.run(hier6, prob, eps=1e-2, l0=4, seed=7)
    _, rel = mlmc.error_vs_exact(res, prob.exact, hier6)
    ok = rel <= 0.03
    report(3, "mean-exit-time field accuracy", ok,
           f"relative L2 error {rel:.4f} <= 0.03, cost {res.total_cost}")


def test_criterion_4_variance_decay_slopes(hier7):
    targets = {("example1", 0.5): (1.05, 0.3), ("example1", 1.0): (0.94, 0.3),
               ("example1", 1.5): (1.15, 0.3), ("example3", 0.5): (0.25, 0.2),
               ("example3", 1.0): (0.47, 0.2), ("example3", 1.5): (0.67, 0.2)}
    details = []
    ok = True
    for (name, alpha), (target, band) in targets.items():
        prob = by_name(name, alpha)
        st = mlmc.pilot(hier7, prob, 192, seed=101, l0=3, l_max=7)
        pairs = [(hier7.level(ell).mesh_width, st.trans[ell].variance)
                 for ell in range(3, 7)]
        slope = fit_slope(pairs)
        good = abs(slope - target) <= band
        ok = ok and good
        details.append(f"{name}/a={alpha}: {slope:.2f} vs {target}±{band}")
    report(4, "coupling-variance decay slopes", ok, "; ".join(details))


def test_criterion_5_mlmc_beats_vanilla():
    d = unit_ball()
    hier9 = build_hierarchy(square_ball_base(d), 9, domain=d)
    prob = example2(1.0)
    schedule = [2.0 ** -12, 2.0 ** -14, 2.0 ** -16, 2.0 ** -18]
    rows = mlmc.cost_comparison(hier9, prob, schedule, l0=6, seed=3,
                                pilot_M=24)
    ratios = [r["mlmc_cost"] / r["vanilla_cost"] for r in rows[-2:]]
    ok = all(r <= 0.5 for r in ratios)
    report(5, "multilevel beats single-level cost", ok,
           f"cost ratios at two smallest tolerances: "
           f"{ratios[0]:.3f}, {ratios[1]:.3f} (<= 0.5)")


def test_criterion_6_eigenvalue_vs_dyda(hier6):
    details = []
    ok = True
    for alpha, upper in DYDA_UPPER.items():
        res = eigen.smallest_eigenvalue(alpha, hier6, tol=0.01, B=3, m=5,
                                        seed=11, l0=3)
        rel = abs(res.lam - upper) / upper
        good = rel <= 0.02
        ok = ok and good
        details.append(f"a={alpha}: {res.lam:.5f} vs {upper} (rel {rel:.4f})")
    report(6, "smallest eigenvalue within 2% of Dyda bounds", ok,
           "; ".join(details))


def test_criterion_7_variable_accuracy_speedup(hier6):
    tol = 0.01
    res_v = eigen.smallest_eigenvalue(1.0, hier6, tol=tol, B=3, m=5, seed=11,
                                      l0=3, variable_accuracy=True)
    res_f = eigen.smallest_eigenvalue(1.0, hier6, tol=tol, B=3, m=5, seed=11,
                                      l0=3, variable_accuracy=False)
    ratio = res_v.total_cost / res_f.total_cost
    dlam = abs(res_v.lam - res_f.lam)
    ok = ratio <= 0.75 and dlam <= 2 * tol
    report(7, "variable-accuracy speedup", ok,
           f"cost ratio {ratio:.3f} (<= 0.75), |dlambda| {dlam:.4f} (<= {2*tol})")


def test_criterion_8_assumption_checks():
    # max over 20 uniform start pairs is a wide-spread statistic; the fixed
    # seed pins one draw inside the reference windows
    c2 = AssumptionConfig(alpha=0.5, mu=1.0, samples_M=10 ** 6,
                          start_points_J=20, seed=9)
    r2 = check_I2(c2)
    c1 = AssumptionConfig(alpha=0.5, A=1e4, t=1.0, samples_M=10 ** 6,
                          start_points_J=20, seed=9)
    r1 = check_I1(c1)
    ok = 0.5 <= r2.max_over_starts <= 0.7 and 0.43 <= r1.max_over_starts <= 0.63
    report(8, "one-step contraction and boundary functionals", ok,
           f"I2 {r2.max_over_starts:.4f} in [0.5, 0.7]; "
           f"I1 {r1.max_over_starts:.4f} in [0.43, 0.63]")


def test_criterion_9_oracle_suite(hier6):
    checks = []

    # Arnoldi against a dense eigensolve of a deterministic operator
    rng = np.random.default_rng(11)
    A = rng.normal(size=(9, 9))
    M = A @ A.T + 9 * np.eye(9)
    res = eigen.run_arnoldi(lambda v, t, k: (M @ v, 0), np.ones(9), m=9,
                            tol=1e-6, B=3)
    checks.append(("arnoldi-stub",
                   abs(res.theta - np.max(linalg.eigvalsh(M))) < 1e-8))

    # cubature norm against a degree-5 quadrature oracle (7-point rule)
    q5_bary = np.array([
        [1 / 3, 1 / 3, 1 / 3],
        [0.059715871789770, 0.470142064105115, 0.470142064105115],
        [0.470142064105115, 0.059715871789770, 0.470142064105115],
        [0.470142064105115, 0.470142064105115, 0.059715871789770],
        [0.797426985353087, 0.101286507323456, 0.101286507323456],
        [0.101286507323456, 0.797426985353087, 0.101286507323456],
        [0.101286507323456, 0.101286507323456, 0.797426985353087]])
    q5_w = np.array([0.225, 0.132394152788506, 0.132394152788506,
                     0.132394152788506, 0.125939180544827, 0.125939180544827,
                     0.125939180544827])
    lvl = hier6.level(4)
    mask = hier6.norm_mask(4)
    vals = rng.normal(size=lvl.num_vertices)
    f3 = vals[lvl.triangles[mask]]
    node_vals = f3 @ q5_bary.T
    oracle = float(np.sqrt((lvl.areas()[mask][:, None] * q5_w
                            * node_vals ** 2).sum()))
    mine = mass_norm(mass_matrix(lvl, mask), vals)
    checks.append(("l2-norm-oracle", abs(mine - oracle) <= 1e-10 * oracle))

    # quadrature constant against a Monte Carlo oracle
    u = np.random.default_rng(42).random(10 ** 7)
    mc = reg_inc_beta(1.0 - u ** (2.0 / 0.7), 0.7).mean()
    checks.append(("source-constant-mc", abs(make_params(0.7).a2 - mc) <= 1e-3))

    # exit-radius sampler against its distribution function
    b = johnk_beta(1.0, derive_key(11, 1), np.arange(100000, dtype=np.uint32))
    pval = stats.kstest(b, lambda t: reg_inc_beta(t, 1.0)).pvalue
    checks.append(("beta-sampler-ks", pval > 0.01))

    # boundary distance is 1-Lipschitz
    d = unit_ball()
    p = rng.uniform(-2, 2, (4000, 2))
    q = rng.uniform(-2, 2, (4000, 2))
    lip = np.abs(np.asarray(d.distance(p)) - np.asarray(d.distance(q))) \
        <= np.hypot(*(p - q).T) + 1e-12
    checks.append(("distance-lipschitz", bool(lip.all())))

    # allocation formula optimality against a grid search
    V, C = np.array([1.0, 0.25, 0.05]), np.array([1.0, 4.0, 16.0])
    Mx = mlmc.allocate(0.05, V, C).astype(float)
    budget, best = float(Mx @ C), float((V / Mx).sum())
    opt = True
    for _ in range(3000):
        alt = Mx * rng.uniform(0.3, 3.0, 3)
        alt = np.maximum(np.round(alt * budget / (alt @ C)), 1.0)
        if alt @ C <= budget + 1e-9 and (V / alt).sum() < best * (1 - 1e-9):
            opt = False
    checks.append(("allocation-optimality", opt))

    # coupling identity: for the same keys, the level-4 values are the
    # first n_4 columns of the level-5 values
    keys = derive_key(21, np.arange(4))
    fine, _ = next(field_values([(hier6.level(5), keys)], example1(1.0)))
    coarse, _ = next(field_values([(hier6.level(4), keys)], example1(1.0)))
    checks.append(("coupling-identity",
                   np.array_equal(coarse,
                                  fine[:, :hier6.level(4).num_vertices])))

    ok = all(good for _, good in checks)
    report(9, "oracle and property suite", ok,
           "; ".join(f"{name}={'ok' if good else 'FAIL'}"
                     for name, good in checks))
