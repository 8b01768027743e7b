import os

import numpy as np
import pytest

from conftest import fresh_python
from fracwos import eigen, mlmc
from fracwos.cli import (ExprField, RunConfig, _build_parser, build_config,
                         build_mesh, main, parse_domain, read_config)
from fracwos.geometry import Ball, ConvexPolygon, unit_ball
from fracwos.mesh import base_mesh_for, square_ball_base
from fracwos.mlmc import fit_slope
from pins import pin, sha256


def run_cli(args, cwd, env_extra=None):
    return fresh_python(["-m", "fracwos.cli", *args], cwd, env_extra)


def assert_ok(r):
    assert r.returncode == 0, r.stderr


class TestFitSlope:
    def test_linear(self):
        h = [0.5, 0.25, 0.125, 0.0625]
        assert fit_slope([(x, x) for x in h]) == pytest.approx(1.0)

    def test_sqrt(self):
        h = [0.5, 0.25, 0.125, 0.0625]
        assert fit_slope([(x, np.sqrt(x)) for x in h]) == pytest.approx(0.5)

    def test_reference_variance_data(self):
        # regression fixture: a coupling-variance series whose fitted decay
        # slope is known to be 0.94
        pairs = [(0.25, 0.023784470476535785), (0.125, 0.014045854391164417),
                 (0.0625, 0.006333880417721016), (0.03125, 0.0029100794910107627),
                 (0.015625, 0.002004305048256096)]
        assert fit_slope(pairs) == pytest.approx(0.94, abs=0.02)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fit_slope([(0.5, 1.0), (0.25, -1.0), (0.125, 0.5)])
        with pytest.raises(ValueError):
            fit_slope([(0.5, 1.0), (0.25, 0.5)])


class TestParseDomain:
    def test_ball(self):
        d = parse_domain("ball(0.5, -1.0, 2.0)")
        assert isinstance(d, Ball) and d.radius == 2.0

    def test_box(self):
        d = parse_domain("box(0, 0, 1, 2)")
        assert isinstance(d, ConvexPolygon)
        assert d.contains((0.5, 1.5))

    def test_polygon(self):
        d = parse_domain("polygon((0,0), (2,0), (1,2))")
        assert d.contains((1.0, 0.5))

    def test_rejects_garbage(self):
        for bad in ("circle(0,0,1)", "ball(1,2)", "polygon((0,0),(1,1))"):
            with pytest.raises(ValueError):
                parse_domain(bad)


class TestBaseMesh:
    def test_ball_uses_square_ball_base(self):
        for ball in (unit_ball(), parse_domain("ball(0.5, -1.0, 2.0)")):
            np.testing.assert_array_equal(base_mesh_for(ball).vertices,
                                          square_ball_base(ball).vertices)

    def test_build_mesh_covers_off_centre_ball(self):
        cfg = RunConfig(command="solve", domain="ball(0.5, -1.0, 2.0)", L=3)
        ball = parse_domain(cfg.domain)
        lvl = build_mesh(cfg, ball).level(3)
        assert lvl.vertices[:, 0].min() == -1.5
        assert lvl.vertices[:, 1].max() == 1.0
        assert ball.contains(lvl.vertices).any()


class TestExprField:
    def test_evaluates_vectorized(self):
        f = ExprField("2 + r2")
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        np.testing.assert_allclose(f(pts), [2.0, 4.0])

    def test_numpy_names(self):
        f = ExprField("sin(r2) + cos(x) * y")
        assert np.isfinite(f(np.array([[0.3, 0.4]]))).all()

    def test_rejects_unknown_names(self):
        with pytest.raises(ValueError):
            ExprField("__import__('os').system('true')")
        with pytest.raises(ValueError):
            ExprField("open('x')")


class TestConfigPlumbing:
    def test_read_config(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("alpha = 1.5\nseed = 9   # comment\n\n# full comment\n")
        assert read_config(p) == {"alpha": "1.5", "seed": "9"}

    def test_repeated_key_fails_by_name(self, tmp_path, capsys):
        # the later line must not win silently: this would run at alpha 1.5
        (tmp_path / "c.txt").write_text("alpha = 0.5\n# alpha\nseed = 3\n"
                                        "alpha = 1.5\n")
        args = ["solve", "--config", str(tmp_path / "c.txt"),
                "--out", str(tmp_path / "o")]
        assert main(args) == 1
        assert ("fracwos: error: config key 'alpha' repeated on lines 1 "
                "and 4") in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_validation(self, tmp_path, capsys):
        # validate keeps only the rules that exist in the CLI alone
        for cfg in (RunConfig(command="solve", problem="custom", f_expr="x"),
                    RunConfig(command="solve", domain="ball(0,0,1)"),
                    RunConfig(command="check-assumptions", which="I3")):
            with pytest.raises(ValueError):
                cfg.validate()
        # the library function that reads a value rejects it, by name
        (tmp_path / "nope.txt").write_text("problem = nope\n")
        for args, msg in [
                (["--alpha", "2.5"], "alpha must lie in (0, 2), got 2.5"),
                (["--l0", "5", "--L", "4"], "l0 = 5 lies outside levels 1..4"),
                (["--L", "0"], "finest_level must be at least 1"),
                (["--config", str(tmp_path / "nope.txt")],
                 "unknown problem 'nope'")]:
            assert main(["solve", *args, "--out", str(tmp_path / "o")]) == 1
            assert f"fracwos: error: {msg}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("name", ["eps", "tol", "B", "mu", "t", "A"])
    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_infinity_rejected_by_name(self, tmp_path, capsys, name, value):
        # through the command that reads the option: RunConfig leaves the
        # check to the library function that reads the value
        command = {"eps": "solve", "tol": "eig", "B": "eig"}.get(
            name, "check-assumptions")
        levels = ([] if command == "check-assumptions"
                  else ["--l0", "2", "--L", "3"])
        out = tmp_path / "o"
        assert main([command, f"--{name}={value}", *levels,
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == \
            f"fracwos: error: {name} must be finite\n"
        assert not out.exists()

    def test_infinite_max_cost_means_no_cap(self, tmp_path):
        # cost-study executes its row whatever the row's planned cost
        out = tmp_path / "o"
        assert main(["cost-study", "--max-cost", "inf", "--l0", "2", "--L",
                     "3", "--eps-list", "0.2", "--pilot", "8",
                     "--out", str(out)]) == 0
        row = (out / "study.csv").read_text().splitlines()[1]
        assert row.split(",")[-1] != ""

    def test_negative_max_cost_rejected_by_name(self, hier6, ex2):
        # run and cost_comparison share one check of max_cost
        with pytest.raises(ValueError, match="^max_cost must be non-negative$"):
            mlmc.run(hier6, ex2, eps=0.1, l0=3, seed=1, max_cost=-1.0)
        with pytest.raises(ValueError, match="^max_cost must be non-negative$"):
            mlmc.cost_comparison(hier6, ex2, [0.1], l0=3, seed=1,
                                 max_cost=-1.0)


def _lines(path):
    return path.read_text().splitlines()


def _k_lambda_cost(out):
    """The k, lambda and cost columns of iters.csv, header included."""
    return [",".join(line.split(",")[i] for i in (0, 2, 6))
            for line in _lines(out / "iters.csv")]


def _counts(out):
    return [line for line in _lines(out / "manifest.txt")
            if line.startswith(("# samples = ", "# total_cost = "))]


def _counts_and_solution(out):
    return _counts(out), sha256((out / "solution.csv").read_bytes())


def _study(out):
    return _lines(out / "study.csv")


# Pinned end-to-end runs of each command: arguments, and the output fields
# that are pinned, under the name cli_<key> in tests/pins.py.
_LEVELS = ["--alpha", "1.0", "--l0", "2", "--L", "4"]
_CHECK = ["check-assumptions", "--alpha", "0.5", "--M", "20000", "--J", "4",
          "--seed", "3"]
PINNED_RUNS = {
    "eig": (["eig", *_LEVELS, "--tol", "0.05", "--B", "3", "--m", "3",
             "--seed", "3"], _k_lambda_cost),
    "eig_box": (["eig", "--domain", "box(0,0,1,1)", *_LEVELS, "--tol",
                 "0.05", "--B", "3", "--m", "3", "--seed", "3"],
                _k_lambda_cost),
    "solve": (["solve", "--problem", "example2", *_LEVELS, "--eps", "0.02",
               "--seed", "3"], _counts_and_solution),
    "solve6": (["solve", "--problem", "example2", "--alpha", "1.0", "--l0",
                "4", "--L", "6", "--eps", "0.01", "--seed", "1001"],
               _counts_and_solution),
    "custom": (["solve", "--problem", "custom", "--domain", "box(0,0,1,1)",
                "--f-expr", "sin(3*x)+exp(y)", "--g-expr", "minimum(abs(x),2)",
                "--alpha", "0.8", "--l0", "2", "--L", "4", "--eps", "0.05",
                "--seed", "3"], _counts),
    "variance_study": (["variance-study", "--problem", "example2", "--alpha",
                        "1.0", "--l0", "2", "--L", "5", "--samples", "64",
                        "--seed", "3"], _study),
    "check_assumptions_I1": ([*_CHECK, "--which", "I1"], _study),
    "check_assumptions_I2": ([*_CHECK, "--which", "I2"], _study),
}

SOLVE_ARGS = ["solve", "--problem", "example2", "--alpha", "1.0", "--eps",
              "5e-2", "--l0", "3", "--L", "4", "--seed", "7"]


class TestCliRuns:
    def test_solve_outputs_and_determinism(self, tmp_path):
        r1 = run_cli([*SOLVE_ARGS, "--out", "a"], tmp_path)
        assert_ok(r1)
        r2 = run_cli([*SOLVE_ARGS, "--out", "b"], tmp_path)
        assert_ok(r2)
        for name in ("solution.csv", "manifest.txt"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, f"{name} differs between reruns"
        assert (tmp_path / "a" / "timing.txt").exists()

    def test_manifest_round_trip(self, tmp_path):
        r1 = run_cli([*SOLVE_ARGS, "--out", "a"], tmp_path)
        assert_ok(r1)
        r2 = run_cli(["solve", "--config", str(tmp_path / "a" / "manifest.txt"),
                      "--out", "c"], tmp_path)
        assert_ok(r2)
        assert (tmp_path / "a" / "solution.csv").read_bytes() \
            == (tmp_path / "c" / "solution.csv").read_bytes()

    def test_env_seed_fallback(self, tmp_path):
        args = ["solve", "--problem", "example1", "--eps", "8e-2", "--l0", "3",
                "--L", "3"]
        r1 = run_cli([*args, "--out", "e1"], tmp_path, {"FRACWOS_SEED": "123"})
        r2 = run_cli([*args, "--out", "e2"], tmp_path, {"FRACWOS_SEED": "123"})
        r3 = run_cli([*args, "--out", "e3"], tmp_path, {"FRACWOS_SEED": "77"})
        for r in (r1, r2, r3):
            assert_ok(r)
        s1 = (tmp_path / "e1" / "solution.csv").read_bytes()
        s2 = (tmp_path / "e2" / "solution.csv").read_bytes()
        s3 = (tmp_path / "e3" / "solution.csv").read_bytes()
        assert s1 == s2 and s1 != s3

    def test_custom_problem_expressions(self, tmp_path):
        r = run_cli(["solve", "--problem", "custom", "--f-expr", "1 + 0*x",
                     "--g-expr", "0*x", "--domain", "ball(0, 0, 1)",
                     "--alpha", "1.0", "--eps", "8e-2", "--l0", "3", "--L", "3",
                     "--seed", "2", "--out", "cx"], tmp_path)
        assert_ok(r)
        assert (tmp_path / "cx" / "solution.csv").exists()

    def test_solve_default_cost_cap(self, tmp_path):
        # g = x^3 breaks the growth condition at alpha = 1; without
        # --max-cost the plan is still held to the default walk-step cap
        r = run_cli(["solve", "--problem", "custom", "--f-expr", "0*x",
                     "--g-expr", "x**3", "--alpha", "1.0", "--eps", "0.05",
                     "--l0", "2", "--L", "3", "--seed", "1", "--out", "cap"],
                    tmp_path)
        assert r.returncode == 1
        assert "exceeds cap 1.1e+12" in r.stderr

    def test_eig_writes_iterations(self, tmp_path):
        args = ["eig", "--alpha", "1.0", "--tol", "0.05", "--B", "3",
                "--m", "3", "--l0", "3", "--L", "4", "--seed", "11"]
        r = run_cli([*args, "--out", "eg"], tmp_path)
        assert_ok(r)
        lines = (tmp_path / "eg" / "iters.csv").read_text().splitlines()
        assert lines[0] == "k,theta,lambda,residual,gap,wos_tol,cost"
        assert len(lines) == 4
        assert "lambda" in r.stdout
        r2 = run_cli([*args, "--out", "eg2"], tmp_path)
        assert_ok(r2)
        assert (tmp_path / "eg" / "iters.csv").read_bytes() \
            == (tmp_path / "eg2" / "iters.csv").read_bytes()

    def test_iters_csv_is_the_arnoldi_rows(self, tmp_path, monkeypatch):
        # iters.csv is the run's row list as stored: header = row keys, one
        # line per row; perfbench's tracer reads the cost column through
        # state.cost_history, so that view must match it too
        results = []
        solve = eigen.smallest_eigenvalue

        def spy(*args, **kwargs):
            results.append(solve(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(eigen, "smallest_eigenvalue", spy)
        assert main(["eig", "--alpha", "1.0", "--tol", "0.05", "--B", "3",
                     "--m", "3", "--l0", "3", "--L", "4", "--seed", "11",
                     "--out", str(tmp_path / "eg")]) == 0
        (res,) = results
        header, *lines = (tmp_path / "eg" / "iters.csv").read_text().splitlines()
        assert header.split(",") == list(res.history[0])
        assert len(lines) == len(res.history) == res.iterations == 3
        for line, row in zip(lines, res.history):
            assert list(row) == header.split(",")
            assert line == ",".join(
                "" if v is None else repr(float(v)) if isinstance(v, float)
                else str(v) for v in row.values())
        col = header.split(",").index("cost")
        costs = [int(line.split(",")[col]) for line in lines]
        assert res.state.cost_history == costs
        assert sum(costs) == res.total_cost

    def test_variance_study_csv(self, tmp_path):
        r = run_cli(["variance-study", "--problem", "example1", "--alpha",
                     "1.0", "--l0", "3", "--L", "6", "--samples", "48",
                     "--seed", "2", "--out", "vs"], tmp_path)
        assert_ok(r)
        text = (tmp_path / "vs" / "study.csv").read_text()
        assert text.startswith("level,h,V,C,M\n")
        assert "# slope = " in text

    def test_variance_study_needs_pilot_floor(self, tmp_path):
        # the variance study runs the pilot, which takes 8 samples per level
        r = run_cli(["variance-study", "--problem", "example1", "--l0", "2",
                     "--L", "3", "--samples", "4", "--out", "vs"], tmp_path)
        assert r.returncode == 1
        assert ("fracwos: error: pilot samples per level must be at least 8"
                in r.stderr)
        assert not (tmp_path / "vs" / "study.csv").exists()

    @pytest.mark.parametrize("which", ["I1", "I2"])
    def test_check_assumptions_csv(self, tmp_path, which):
        r = run_cli(["check-assumptions", "--which", which, "--alpha", "0.5",
                     "--A", "1e4", "--t", "1.0", "--M", "20000", "--J", "5",
                     "--seed", "9", "--out", "ca"], tmp_path)
        assert_ok(r)
        header, row = (tmp_path / "ca" / "study.csv").read_text().splitlines()
        assert header == "alpha,mu_or_t,A,max_I,stderr"
        pin(f"check_assumptions[{which}]", row)

    @pytest.mark.parametrize("name", PINNED_RUNS)
    def test_pinned_run(self, tmp_path, name):
        args, read = PINNED_RUNS[name]
        assert_ok(run_cli([*args, "--out", "o"], tmp_path))
        pin(f"cli_{name}", read(tmp_path / "o"))

    def test_cost_study_csv(self, tmp_path):
        r = run_cli(["cost-study", "--problem", "example2", "--alpha", "1.0",
                     "--l0", "3", "--L", "5", "--eps-list", "0.2,0.05",
                     "--pilot", "16", "--seed", "3", "--out", "cs"], tmp_path)
        assert_ok(r)
        lines = (tmp_path / "cs" / "study.csv").read_text().splitlines()
        assert lines[0] == "eps,L,mlmc_cost,vanilla_cost,executed_cost"
        assert len(lines) == 3

    def test_error_exit_code(self, tmp_path):
        r = run_cli(["solve", "--alpha", "3.0", "--out", "bad"], tmp_path)
        assert r.returncode == 1
        assert "fracwos: error: alpha must lie in (0, 2)" in r.stderr

    def test_solve_rejects_l0_without_triangles_inside(self, tmp_path):
        # level 1 of the unit ball's mesh has no triangle inside the ball,
        # so the solve used to miss eps after a zero-variance warning
        r = run_cli(["solve", "--problem", "example2", "--l0", "1", "--L", "3",
                     "--eps", "0.1", "--out", "l0"], tmp_path)
        assert r.returncode == 1
        assert "fracwos: error: l0 = 1 has no triangles" in r.stderr
        assert not (tmp_path / "l0" / "solution.csv").exists()

    def test_cost_study_rejects_zero_eps(self, tmp_path):
        r = run_cli(["cost-study", "--eps-list", "0.1,0", "--l0", "2",
                     "--L", "3", "--pilot", "8", "--out", "z"], tmp_path)
        assert r.returncode == 1
        assert "fracwos: error: eps must be positive" in r.stderr

    @pytest.mark.parametrize("args", [
        ["solve", "--l0", "1", "--L", "3", "--eps", "0.1"],
        ["eig", "--l0", "1", "--L", "3"],
        ["cost-study", "--l0", "1", "--L", "3"],
        ["variance-study", "--l0", "2", "--L", "3", "--samples", "4"],
        ["check-assumptions", "--mu", "2"],
    ], ids=lambda args: args[0])
    def test_rejected_run_creates_no_out(self, tmp_path, args):
        # the command itself rejects these, after --out has been made
        r = run_cli([*args, "--out", "out"], tmp_path)
        assert r.returncode == 1
        assert not (tmp_path / "out").exists()

    def test_rejected_run_keeps_existing_out(self, tmp_path):
        (tmp_path / "empty").mkdir()
        (tmp_path / "full").mkdir()
        (tmp_path / "full" / "keep.txt").write_text("kept")
        for out in ("empty", "full"):
            r = run_cli(["check-assumptions", "--mu", "2", "--out", out],
                        tmp_path)
            assert r.returncode == 1
        assert (tmp_path / "empty").is_dir()
        assert os.listdir(tmp_path / "full") == ["keep.txt"]
        assert (tmp_path / "full" / "keep.txt").read_text() == "kept"

    def test_rejected_run_removes_each_directory_it_made(self, tmp_path):
        # up to, not including, the first directory that already existed
        (tmp_path / "kept").mkdir()
        for out in ("a/b/c", "kept/b/c"):
            assert main(["check-assumptions", "--mu", "2",
                         "--out", str(tmp_path / out)]) == 1
        assert os.listdir(tmp_path) == ["kept"]
        assert os.listdir(tmp_path / "kept") == []

    def test_out_that_cannot_be_made_fails_before_walking(self, tmp_path,
                                                         monkeypatch, capsys):
        (tmp_path / "file").write_text("")
        runs = []
        monkeypatch.setattr(mlmc, "run", lambda *a, **k: runs.append(a))
        out = tmp_path / "file" / "out"
        assert main([*SOLVE_ARGS, "--out", str(out)]) == 1
        assert str(out) in capsys.readouterr().err
        assert runs == [] and (tmp_path / "file").is_file()

    @pytest.mark.parametrize("command", ["solve", "variance-study",
                                         "cost-study"])
    def test_domain_needs_custom_problem(self, tmp_path, command):
        # a named problem fixes its domain; the manifest must not name another
        r = run_cli([command, "--problem", "example1", "--domain",
                     "ball(0,0,0.5)", "--l0", "2", "--L", "3", "--out", "d"],
                    tmp_path)
        assert r.returncode == 1
        assert "--domain" in r.stderr and "--problem" in r.stderr
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("command, flag, name", [
        ("solve", "--eps", "eps"), ("eig", "--tol", "tol"),
        ("eig", "--B", "B"), ("solve", "--max-cost", "max_cost")])
    def test_nan_rejected_by_name(self, tmp_path, command, flag, name):
        r = run_cli([command, flag, "nan", "--l0", "2", "--L", "3",
                     "--out", "n"], tmp_path)
        assert r.returncode == 1
        assert f"fracwos: error: {name} must not be NaN" in r.stderr

    @pytest.mark.parametrize("command, flag, name", [
        ("solve", "--eps", "eps"), ("eig", "--tol", "tol"), ("eig", "--B", "B")])
    def test_infinity_rejected_by_name_cli(self, tmp_path, command, flag, name):
        r = run_cli([command, flag, "inf", "--l0", "2", "--L", "3",
                     "--out", "n"], tmp_path)
        assert r.returncode == 1
        assert f"fracwos: error: {name} must be finite" in r.stderr
        assert not (tmp_path / "n").exists()

    @pytest.mark.parametrize("command", ["solve", "cost-study"])
    def test_negative_max_cost_rejected_cli(self, tmp_path, command):
        # solve used to walk the pilot and then fail with "exceeds cap -1",
        # cost-study to exit 0 with no row executed
        r = run_cli([command, "--max-cost", "-1", "--l0", "2", "--L", "3",
                     "--out", "n"], tmp_path)
        assert r.returncode == 1
        assert "fracwos: error: max_cost must be non-negative" in r.stderr
        assert not (tmp_path / "n").exists()

    def test_config_command_mismatch(self, tmp_path):
        (tmp_path / "m.txt").write_text("command = eig\n")
        r = run_cli(["solve", "--config", "m.txt", "--out", "x"], tmp_path)
        assert r.returncode == 1
        assert ("fracwos: error: config is for command 'eig', not 'solve'"
                in r.stderr)

    def test_misspelt_boolean_rejected(self, tmp_path):
        # `ture` used to run as False with exit 0
        (tmp_path / "c.txt").write_text("fixed_accuracy = ture\n")
        r = run_cli(["eig", "--config", "c.txt", "--out", "x"], tmp_path)
        assert r.returncode == 1
        assert r.stderr == ("fracwos: error: fixed_accuracy must be true or "
                            "false, got 'ture'\n")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("text, value", [
        ("true", True), ("True", True), ("YES", True), ("1", True),
        ("false", False), ("False", False), ("no", False), ("0", False)])
    def test_boolean_spellings(self, tmp_path, text, value):
        # manifests write True and False; any case of these six is accepted
        (tmp_path / "c.txt").write_text(f"fixed_accuracy = {text}\n")
        args = _build_parser().parse_args(
            ["eig", "--config", str(tmp_path / "c.txt")])
        assert build_config(args).fixed_accuracy is value

    @pytest.mark.parametrize("command, line, seed, msg", [
        ("eig", "m = 2.5", None, "m must be an integer, got '2.5'"),
        ("solve", "eps = abc", None, "eps must be a number, got 'abc'"),
        ("solve", "pilot = 1e3", None, "pilot must be an integer, got '1e3'"),
        ("solve", "", "1.5", "FRACWOS_SEED must be an integer, got '1.5'")],
        ids=["m", "eps", "pilot", "FRACWOS_SEED"])
    def test_parse_errors_name_their_key(self, tmp_path, capsys, monkeypatch,
                                         command, line, seed, msg):
        (tmp_path / "c.txt").write_text(line + "\n")
        if seed is not None:
            monkeypatch.setenv("FRACWOS_SEED", seed)
        out = tmp_path / "o"
        assert main([command, "--config", str(tmp_path / "c.txt"),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"fracwos: error: {msg}\n"
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_eps_list_entry_named_before_meshing(self, tmp_path, capsys,
                                                 monkeypatch, source):
        # it used to fail as "could not convert string to float: 'abc'",
        # after the mesh was built
        built = []
        monkeypatch.setattr("fracwos.cli.build_mesh",
                            lambda *a: built.append(a))
        (tmp_path / "c.txt").write_text("eps_list = 0.1,abc\n")
        args = {"flag": ["--eps-list", "0.1,abc"],
                "config": ["--config", str(tmp_path / "c.txt")]}[source]
        out = tmp_path / "o"
        assert main(["cost-study", *args, "--out", str(out)]) == 1
        assert capsys.readouterr().err == ("fracwos: error: eps_list must be "
                                           "a number, got 'abc'\n")
        assert built == [] and not out.exists()


# The options each command reads, besides alpha, seed and out, which all
# five read. Written out here, not taken from fracwos.cli.
OWN_OPTIONS = {
    "solve": ["problem", "f_expr", "g_expr", "domain", "l0", "L", "eps",
              "pilot", "max_cost"],
    "eig": ["domain", "l0", "L", "tol", "B", "m", "fixed_accuracy"],
    "variance-study": ["problem", "f_expr", "g_expr", "domain", "l0", "L",
                      "samples"],
    "cost-study": ["problem", "f_expr", "g_expr", "domain", "l0", "L",
                   "eps_list", "pilot", "max_cost"],
    "check-assumptions": ["domain", "which", "mu", "t", "A", "M", "J"],
}
ALL_OPTIONS = ["alpha", "problem", "f_expr", "g_expr", "domain", "l0", "L",
               "eps", "tol", "B", "m", "seed", "out", "pilot", "samples",
               "eps_list", "which", "mu", "t", "A", "M", "J", "max_cost",
               "fixed_accuracy"]
CUSTOM = ["--problem", "custom", "--f-expr", "1 + 0*x", "--g-expr", "0*x",
          "--domain", "ball(0,0,1)"]
# every option of the command set, so the manifest writes each of them
FULL_ARGS = {
    "solve": [*CUSTOM, "--l0", "2", "--L", "3", "--eps", "0.1", "--pilot",
              "8", "--max-cost", "1e9"],
    "eig": ["--domain", "ball(0,0,1)", "--l0", "2", "--L", "3", "--tol", "0.1",
            "--B", "3", "--m", "2", "--fixed-accuracy"],
    "variance-study": [*CUSTOM, "--l0", "2", "--L", "3", "--samples", "8"],
    "cost-study": [*CUSTOM, "--l0", "2", "--L", "3", "--eps-list", "0.2",
                   "--pilot", "8", "--max-cost", "0"],
    "check-assumptions": ["--domain", "box(0,0,1,1)", "--which", "I1", "--mu",
                          "1", "--t", "1", "--A", "1e4", "--M", "100", "--J",
                          "2"],
}

# A solve manifest written before each command took only its own options:
# every RunConfig option, 24 keys with `command`.
OLD_SOLVE_MANIFEST = """\
command = solve
alpha = 1.0
problem = custom
f_expr = 1 + 0*x
g_expr = 0*x
domain = box(0,0,1,1)
l0 = 2
L = 3
eps = 0.1
tol = 0.01
B = 3.0
m = 5
seed = 4
pilot = 16
samples = 256
eps_list = 0.1
which = I2
mu = 1.0
t = 1.0
A = 10000.0
M = 1000000
J = 20
max_cost = 1000000000.0
fixed_accuracy = False
# fracwos 0.1.0, numpy 2.4.6
# levels = 2..3
# V_per_level = [0.006578150806632836, 0.0090602741514119]
# C_per_level = [10.3125, 76.6875]
# M_per_level = [6, 3]
# samples = [16, 16]
# total_cost = 1392
# stat_error_est = 0.000977401559877796
# c1_hat = 0.8213358705284025
"""
OLD_EIG_MANIFEST = """\
command = eig
alpha = 1.0
problem = example1
domain = ball(0,0,1)
l0 = 2
L = 3
eps = 0.01
tol = 0.1
B = 3.0
m = 2
seed = 6
pilot = 16
samples = 256
which = I2
mu = 1.0
t = 1.0
A = 10000.0
M = 1000000
J = 20
max_cost = 0.0
fixed_accuracy = True
# fracwos 0.1.0, numpy 2.4.6
# lambda = 1.9520743951143682
# theta = 0.5122755579924565
# residual = 0.031052078663130252
# iterations = 2
# total_cost = 3200
"""


def manifest_keys(path):
    return [line.split(" = ")[0] for line in path.read_text().splitlines()
            if not line.startswith("#")]


class TestOwnOptions:
    @pytest.mark.parametrize("command", OWN_OPTIONS)
    def test_foreign_flags_rejected(self, tmp_path, capsys, command):
        read = {"alpha", "seed", "out", *OWN_OPTIONS[command]}
        foreign = [name for name in ALL_OPTIONS if name not in read]
        assert len(foreign) == 24 - len(read)
        for name in foreign:
            flag = "--" + name.replace("_", "-")
            with pytest.raises(SystemExit) as exc:
                main([command, flag, "1", "--out", str(tmp_path / "o")])
            assert exc.value.code == 2, flag
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", OWN_OPTIONS)
    def test_manifest_records_own_options(self, tmp_path, command):
        r = run_cli([command, *FULL_ARGS[command], "--alpha", "1.0", "--seed",
                     "1", "--out", "o"], tmp_path)
        assert_ok(r)
        keys = manifest_keys(tmp_path / "o" / "manifest.txt")
        assert len(keys) == len(set(keys))
        assert set(keys) == {"command", "alpha", "seed", *OWN_OPTIONS[command]}

    @pytest.mark.parametrize("command, text, own_args, output", [
        ("solve", OLD_SOLVE_MANIFEST,
         ["--problem", "custom", "--f-expr", "1 + 0*x", "--g-expr", "0*x",
          "--domain", "box(0,0,1,1)", "--alpha", "1.0", "--l0", "2", "--L",
          "3", "--eps", "0.1", "--pilot", "16", "--max-cost", "1e9",
          "--seed", "4"], "solution.csv"),
        ("eig", OLD_EIG_MANIFEST,
         ["--domain", "ball(0,0,1)", "--alpha", "1.0", "--l0", "2", "--L",
          "3", "--tol", "0.1", "--B", "3", "--m", "2", "--fixed-accuracy",
          "--seed", "6"], "iters.csv"),
    ], ids=["solve", "eig"])
    def test_old_full_manifest_reruns(self, tmp_path, command, text,
                                      own_args, output):
        (tmp_path / "old.txt").write_text(text)
        r = run_cli([command, "--config", "old.txt", "--out", "c"], tmp_path)
        assert_ok(r)
        ignored = [key for key in manifest_keys(tmp_path / "old.txt")
                   if key not in {"command", "alpha", "seed",
                                  *OWN_OPTIONS[command]}]
        notes = [line for line in r.stderr.splitlines()
                 if "ignores config keys" in line]
        assert len(notes) == 1
        assert notes[0].rsplit(": ", 1)[1].split(", ") == ignored
        assert_ok(run_cli([command, *own_args, "--out", "f"], tmp_path))
        assert (tmp_path / "c" / output).read_bytes() \
            == (tmp_path / "f" / output).read_bytes()
        # the new manifest is the old one without the ignored lines
        kept = [line for line in text.splitlines() if not line.startswith("#")
                and line.split(" = ")[0] not in ignored]
        new = (tmp_path / "c" / "manifest.txt").read_text().splitlines()
        assert [line for line in new if not line.startswith("#")] == kept

    def test_workers_key_still_rejected(self, tmp_path):
        (tmp_path / "old.txt").write_text(OLD_SOLVE_MANIFEST + "workers = 2\n")
        r = run_cli(["solve", "--config", "old.txt", "--out", "w"], tmp_path)
        assert r.returncode == 1
        assert "fracwos: error: unknown config key 'workers'" in r.stderr
        assert not (tmp_path / "w").exists()
