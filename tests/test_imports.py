"""Which scipy modules each entry point loads, each case in a fresh process.

`import fracwos` loads no scipy: scipy.special (gammaln, gamma, betainc), the
only scipy module fracwos uses, is imported by the functions that call it, on
first use. The assumption checks use numpy alone, and a point estimate, a
field solve and the eigensolver need scipy.special. The masked L2 norm is
numpy on the element form of the mass matrix, so no entry point loads
scipy.sparse.
"""

import ast

import pytest

from conftest import fresh_output

# the last line a case prints: the sorted scipy modules it loaded
SCIPY_LOADED = ("import sys; "
                "print(sorted(m for m in sys.modules if m.startswith('scipy')))")


def scipy_after(code):
    """The scipy modules loaded by `code`, run in a fresh interpreter."""
    return ast.literal_eval(fresh_output(code + "\n" + SCIPY_LOADED))


def test_package_import_loads_no_scipy():
    assert scipy_after("import fracwos, fracwos.cli") == []


@pytest.mark.parametrize("check", ["check_I1", "check_I2"])
def test_assumption_check_loads_no_scipy(check):
    code = ("from fracwos import assumptions as a\n"
            f"a.{check}(a.AssumptionConfig(alpha=0.5, samples_M=1000, "
            "start_points_J=2))")
    assert scipy_after(code) == []


def test_check_assumptions_command_loads_no_scipy(tmp_path):
    out = tmp_path / "ca"
    code = ("from fracwos import cli\n"
            "assert cli.main(['check-assumptions', '--alpha', '0.5', "
            f"'--M', '1000', '--J', '2', '--out', {str(out)!r}]) == 0")
    assert scipy_after(code) == []
    assert (out / "study.csv").exists()


def test_make_params_loads_special_only():
    loaded = scipy_after("import fracwos; fracwos.make_params(1.0)")
    assert "scipy.special" in loaded
    assert not any(m.startswith("scipy.sparse") for m in loaded)


@pytest.mark.parametrize("call", [
    "mlmc.run(hier, example2(1.0), eps=0.2, l0=2, seed=1, pilot_M=8, "
    "fixed_L=3)",
    "eigen.smallest_eigenvalue(1.0, hier, tol=0.2, B=3, m=2, seed=1, l0=2)"],
    ids=["solve", "eig"])
def test_field_solve_and_eig_load_special_only(call):
    # the lazy import still fires where it is needed, and the norm's
    # element form loads no sparse matrices
    code = ("from fracwos import eigen, example2, mlmc, unit_ball\n"
            "from fracwos.mesh import build_hierarchy, square_ball_base\n"
            "d = unit_ball()\n"
            "hier = build_hierarchy(square_ball_base(d), 3, domain=d)\n"
            + call)
    loaded = scipy_after(code)
    assert "scipy.special" in loaded
    assert not any(m.startswith("scipy.sparse") for m in loaded)
