import numpy as np
import pytest

from fracwos.assumptions import AssumptionConfig, check_I1, check_I2
from fracwos.cli import RunConfig, cmd_check_assumptions
from fracwos.geometry import box


def cfg(alpha=0.5, mu=1.0, t=1.0, A=1e4, M=50000, J=10, seed=9, domain=None):
    return AssumptionConfig(alpha=alpha, mu=mu, t=t, A=A, samples_M=M,
                            start_points_J=J,
                            domain=domain or box(0.0, 0.0, 1.0, 1.0),
                            seed=seed)


class TestCheckI2:
    def test_contraction_at_small_alpha(self):
        res = check_I2(cfg(alpha=0.5, mu=1.0, M=100000, J=20))
        assert res.max_over_starts < 1.0
        assert len(res.per_start) == 20
        assert all(se > 0 for _, se in res.per_start)

    def test_degenerate_pair_rejected(self):
        pairs = np.array([[[0.3, 0.3], [0.3, 0.3]]])
        with pytest.raises(ValueError, match="degenerate"):
            check_I2(cfg(), pairs=pairs)

    def test_deterministic(self):
        a = check_I2(cfg(M=20000, J=5))
        b = check_I2(cfg(M=20000, J=5))
        assert a.max_over_starts == b.max_over_starts

    def test_scale_invariance_bit_exact(self):
        # rescaling the domain and the start pairs rescales every step the
        # same way, so the estimates agree exactly with shared seeds
        c1 = cfg(M=20000)
        pairs = np.array([[[0.25, 0.125], [0.5, 0.75]],
                          [[0.0625, 0.5], [0.875, 0.25]]])
        r1 = check_I2(c1, pairs=pairs)
        c2 = cfg(M=20000, domain=box(0.0, 0.0, 2.0, 2.0))
        r2 = check_I2(c2, pairs=2.0 * pairs)
        for (v1, s1), (v2, s2) in zip(r1.per_start, r2.per_start):
            assert v1 == v2 and s1 == s2

    def test_mu_to_zero_bounded_by_survival(self):
        res = check_I2(cfg(mu=0.01, M=50000, J=10))
        assert res.max_over_starts <= 1.0 + 1e-9

    def test_stderr_shrinks_with_samples(self):
        pairs = np.array([[[0.2, 0.3], [0.6, 0.7]]])
        r1 = check_I2(cfg(M=20000), pairs=pairs)
        r4 = check_I2(cfg(M=80000), pairs=pairs)
        ratio = r1.per_start[0][1] / r4.per_start[0][1]
        assert ratio == pytest.approx(2.0, rel=0.25)

    def test_stress_mode_probes_worse_geometry(self):
        # a pair near the boundary on a shared inward normal exposes a
        # contraction failure that uniform draws almost never hit
        uniform = check_I2(cfg(alpha=1.0, M=50000, J=20))
        near_edge = np.array([[[0.5, 1e-3], [0.5, 1.5e-3]]])
        stressed = check_I2(cfg(alpha=1.0, M=50000, J=20), pairs=near_edge)
        assert stressed.max_over_starts > uniform.max_over_starts
        assert stressed.max_over_starts > 1.0

    @pytest.mark.parametrize("outside", [[0.5, -0.25], [0.5, 0.0]],
                             ids=["exterior", "boundary"])
    def test_noninterior_pair_rejected(self, outside, monkeypatch):
        # such a pair used to give (0, 0): a false "contraction holds"; it
        # now fails before pair 0 draws a sample
        def no_sampling(*args):
            raise AssertionError("sampled before checking every pair")

        monkeypatch.setattr("fracwos.assumptions._estimate", no_sampling)
        pairs = np.array([[[0.2, 0.3], [0.6, 0.7]], [[0.5, 0.5], outside]])
        with pytest.raises(ValueError, match="^start pair 1 is not interior$"):
            check_I2(cfg(), pairs=pairs)

    def test_unit_exponent_crossing(self):
        # with the acceptance seed, the mu = 1 series crosses 1 between
        # alpha = 0.5 and alpha = 1.0 (a single draw of a wide statistic;
        # the crossing location itself is seed-dependent)
        lo = check_I2(cfg(alpha=0.5, mu=1.0, M=200000, J=20))
        hi = check_I2(cfg(alpha=1.0, mu=1.0, M=200000, J=20))
        assert lo.max_over_starts < 1.0 < hi.max_over_starts


class TestCheckI1:
    def test_reference_window(self):
        res = check_I1(cfg(alpha=0.5, A=1e4, t=1.0, M=100000, J=20))
        assert 0.38 <= res.max_over_starts <= 0.68

    def test_noninterior_start_rejected(self):
        with pytest.raises(ValueError, match="interior"):
            check_I1(cfg(), starts=np.array([[0.0, 0.5]]))

    def test_noninterior_start_rejected_before_sampling(self, monkeypatch):
        # start 0 is fine; start 1 must fail before start 0 draws a sample
        def no_sampling(*args):
            raise AssertionError("sampled before checking every start")

        monkeypatch.setattr("fracwos.assumptions._estimate", no_sampling)
        with pytest.raises(ValueError, match="^start point 1 is not interior$"):
            check_I1(cfg(), starts=np.array([[0.5, 0.5], [1.5, 0.5]]))

    def test_deterministic(self):
        a = check_I1(cfg(M=20000, J=5))
        b = check_I1(cfg(M=20000, J=5))
        assert a.max_over_starts == b.max_over_starts


class TestSweep:
    """The check-assumptions command runs one checker at one parameter point
    and writes one study.csv row."""

    @staticmethod
    def run(tmp_path, which):
        cfg = RunConfig(command="check-assumptions", which=which, alpha=0.5,
                        mu=0.5, A=1e4, t=1.0, M=20000, J=5, seed=9,
                        out=str(tmp_path)).validate()
        info = cmd_check_assumptions(cfg)
        lines = (tmp_path / "study.csv").read_text().splitlines()
        assert lines[0] == "alpha,mu_or_t,A,max_I,stderr" and len(lines) == 2
        return info, lines[1].split(",")

    def test_i2_rows(self, tmp_path):
        info, row = self.run(tmp_path, "I2")
        res = check_I2(cfg(mu=0.5, M=20000, J=5))
        assert row[:3] == ["0.5", "0.5", ""]
        assert info["max_I"] == res.max_over_starts > 0
        assert info["stderr"] == max(se for _, se in res.per_start) > 0
        assert [float(v) for v in row[3:]] == [info["max_I"], info["stderr"]]

    def test_i1_rows(self, tmp_path):
        info, row = self.run(tmp_path, "I1")
        res = check_I1(cfg(M=20000, J=5))
        assert row[:3] == ["0.5", "1.0", "10000.0"]
        assert info["max_I"] == res.max_over_starts
        assert [float(v) for v in row[3:]] == [info["max_I"], info["stderr"]]

    def test_bad_kind(self):
        with pytest.raises(ValueError, match="which must be I1 or I2"):
            RunConfig(command="check-assumptions", which="I3").validate()


class TestConfigValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            AssumptionConfig(alpha=2.5)
        with pytest.raises(ValueError):
            AssumptionConfig(alpha=1.0, mu=0.0)
        with pytest.raises(ValueError):
            AssumptionConfig(alpha=1.0, t=1.5)
        with pytest.raises(ValueError):
            AssumptionConfig(alpha=1.0, samples_M=1)

    @pytest.mark.parametrize("A, msg", [
        (np.nan, "A must not be NaN"), (np.inf, "A must be finite"),
        (0.0, "A must be positive")])
    def test_A_must_be_positive_and_finite(self, A, msg):
        # NaN used to give max_I = nan, and inf to stop on a RuntimeWarning
        with pytest.raises(ValueError, match=f"^{msg}$"):
            AssumptionConfig(alpha=1.0, A=A)
