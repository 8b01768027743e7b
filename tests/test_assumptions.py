import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import unblocked_I1, unblocked_I2
from fracwos import assumptions
from fracwos.assumptions import AssumptionConfig, check_I1, check_I2
from fracwos.cli import RunConfig, cmd_check_assumptions
from fracwos.geometry import ConvexPolygon, box, unit_ball
from test_geometry import any_domain


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


class TestNearBoundaryStart:
    """A start so near the boundary that Phi(x0) = d(x0)^-t passes the
    largest float fails by name, as a start that is not interior does."""

    @pytest.mark.parametrize("d0", [1e-310, 5e-324])
    def test_overflowing_start_fails_by_name(self, d0):
        # it used to raise a bare OverflowError from the float power
        with pytest.raises(ValueError, match=r"^start point 0 is too near "
                                             r"the boundary: d = "):
            check_I1(cfg(), starts=np.array([[d0, 0.5]]))

    def test_overflowing_start_fails_before_sampling(self, monkeypatch):
        def no_sampling(*args):
            raise AssertionError("sampled before checking every start")

        monkeypatch.setattr("fracwos.assumptions._estimate", no_sampling)
        with pytest.raises(ValueError, match="^start point 1 is too near"):
            check_I1(cfg(), starts=np.array([[0.5, 0.5], [1e-310, 0.5]]))

    def test_start_at_1e_300_runs(self):
        res = check_I1(cfg(M=1000), starts=np.array([[1e-300, 0.5]]))
        assert np.isfinite(res.per_start).all()


def _bits(per_start):
    return [(v.hex(), se.hex()) for v, se in per_start]


_B = assumptions._BLOCK
_PENTAGON = ConvexPolygon(np.column_stack(
    [np.cos(np.pi / 2 + 0.4 * np.pi * np.arange(5)),
     np.sin(np.pi / 2 + 0.4 * np.pi * np.arange(5))]))
# (block, samples_M), each case at most 4096 blocks a batch
_BLOCK_CASES = [(block, M) for block in (1, 7, _B, 2 * assumptions._BATCH)
                for M in (2, _B - 1, _B + 1, assumptions._BATCH + 3 * _B + 5)
                if M <= 4096 * block]


class TestBlocks:
    """Each start's closure sees the jump in blocks of _BLOCK samples; the
    estimates are those of the unblocked closures on the whole batch, bit
    for bit, whatever the block and however M ends within a block."""

    @pytest.mark.parametrize("block, M", _BLOCK_CASES,
                             ids=[f"block{b}-M{m}" for b, m in _BLOCK_CASES])
    @pytest.mark.parametrize("domain", [box(0.0, 0.0, 1.0, 1.0), _PENTAGON,
                                        unit_ball()],
                             ids=["box", "pentagon", "ball"])
    def test_per_start_bits_of_the_unblocked_check(self, domain, block, M,
                                                   monkeypatch):
        c = cfg(M=M, J=2, domain=domain, seed=5)
        pts = domain.sample_uniform(np.random.default_rng(11), 4)
        pairs = pts.reshape(2, 2, 2)
        want = _bits(unblocked_I2(c, pairs)), _bits(unblocked_I1(c, pts[:2]))
        monkeypatch.setattr(assumptions, "_BLOCK", block)
        got = (_bits(check_I2(c, pairs).per_start),
               _bits(check_I1(c, pts[:2]).per_start))
        assert got == want

    def test_overflow_outside_the_domain_adds_zero(self, monkeypatch):
        # beta = 1e-280 sends x1 and y1 about 1e140 d away, and at
        # mu alpha = 2.85 (r1/r0)^(mu alpha) overflows to inf there: such a
        # sample must add +0.0, as np.where gave, not inf * 0 = NaN
        johnk = assumptions.johnk_beta_rng

        def tiny_betas(alpha, rng, size):
            beta = johnk(alpha, rng, size)
            beta[::97] = 1e-280
            return beta

        monkeypatch.setattr("fracwos.assumptions.johnk_beta_rng", tiny_betas)
        c = cfg(alpha=1.9, mu=1.5, M=_B + 5, J=2, seed=3)
        pairs = np.array([[[0.2, 0.3], [0.6, 0.65]], [[0.5, 0.1], [0.45, 0.4]]])
        for x0, y0 in pairs:  # overflows, whatever the direction
            d = abs(float(c.domain.distance(x0) - c.domain.distance(y0)))
            r0 = math.hypot(*(x0 - y0))
            assert 2.85 * math.log10(d * 1e140 / r0 - 1.0) > 309.0
        with np.errstate(over="ignore"):
            want = unblocked_I2(c, pairs)
            got = check_I2(c, pairs).per_start
        assert np.isfinite(want).all() and _bits(got) == _bits(want)


class TestFuzz:
    """On boxes of aspect ratio up to 1e6, off-centre balls, polygons on
    ellipses and rotated thin ones, at any alpha in [0.02, 1.98] and mu in
    (0, 1.5], each check gives a finite estimate and a standard error >= 0,
    or a ValueError."""

    @given(domain=any_domain, alpha=st.floats(0.02, 1.98),
           mu=st.floats(0.0, 1.5, exclude_min=True),
           t=st.floats(0.0, 1.0, exclude_min=True), seed=st.integers(0, 2 ** 16))
    @settings(max_examples=150, deadline=None)
    def test_finite_estimate_or_typed_error(self, domain, alpha, mu, t, seed):
        c = AssumptionConfig(alpha=alpha, mu=mu, t=t, samples_M=64,
                             start_points_J=2, domain=domain, seed=seed)
        for check in (check_I1, check_I2):
            try:
                res = check(c)
            except ValueError:
                continue
            per_start = np.array(res.per_start)
            assert np.isfinite(per_start).all()
            assert (per_start[:, 1] >= 0.0).all()
            assert res.max_over_starts == per_start[:, 0].max()


class TestSharedDraws:
    """Every start of a check consumes the check's one stream of draws."""

    PAIRS = np.array([[[0.2, 0.3], [0.6, 0.7]], [[0.5, 0.5], [0.55, 0.45]],
                      [[0.1, 0.9], [0.8, 0.2]]])
    STARTS = np.array([[0.2, 0.3], [0.5, 0.05], [0.9, 0.6]])

    @pytest.mark.parametrize("check, points", [(check_I2, PAIRS),
                                               (check_I1, STARTS)],
                             ids=["I2", "I1"])
    def test_start_alone_matches_start_among_others(self, check, points):
        res = check(cfg(M=20000), points)
        for j in range(len(points)):
            assert check(cfg(M=20000), points[j:j + 1]).per_start \
                == [res.per_start[j]]

    @pytest.mark.parametrize("check, points", [(check_I2, PAIRS),
                                               (check_I1, STARTS)],
                             ids=["I2", "I1"])
    def test_reversed_starts_reverse_per_start(self, check, points):
        fwd = check(cfg(M=20000), points)
        rev = check(cfg(M=20000), points[::-1])
        assert rev.per_start == fwd.per_start[::-1]

    def test_one_beta_draw_per_batch_whatever_J(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args[2])
            return johnk(*args)

        johnk = assumptions.johnk_beta_rng
        monkeypatch.setattr("fracwos.assumptions.johnk_beta_rng", counting)
        res = check_I2(cfg(M=3 * assumptions._BATCH, J=5))
        assert len(res.per_start) == 5
        assert calls == [assumptions._BATCH] * 3


class TestStartArrays:
    """A malformed start array fails by name before any sample is drawn."""

    @pytest.fixture(autouse=True)
    def no_sampling(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("sampled before checking the start array")

        monkeypatch.setattr("fracwos.assumptions._estimate", refuse)

    @pytest.mark.parametrize("pairs", [
        np.empty((0, 2, 2)), [], np.full((3, 2), 0.5),
        np.full((2, 3, 2), 0.5)], ids=["empty", "empty-list", "J-2", "J-3-2"])
    def test_pairs_must_be_J_2_2(self, pairs):
        with pytest.raises(ValueError, match=r"^pairs must be a non-empty "
                                             r"\(J, 2, 2\) array$"):
            check_I2(cfg(), pairs=pairs)

    @pytest.mark.parametrize("starts", [
        np.empty((0, 2)), [], np.array([0.5, 0.5]), np.full((2, 3), 0.5)],
        ids=["empty", "empty-list", "1-D", "J-3"])
    def test_starts_must_be_J_2(self, starts):
        with pytest.raises(ValueError, match=r"^starts must be a non-empty "
                                             r"\(J, 2\) array$"):
            check_I1(cfg(), starts=starts)


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

    @pytest.mark.parametrize("field, value, msg", [
        ("samples_M", 1, "samples_M must be at least 2"),
        ("start_points_J", 0, "start_points_J must be at least 1")],
        ids=["samples_M", "start_points_J"])
    def test_M_and_J_fail_by_name(self, field, value, msg):
        with pytest.raises(ValueError, match=f"^{msg}$"):
            AssumptionConfig(alpha=1.0, **{field: value})

    @pytest.mark.parametrize("field, value", [
        ("samples_M", np.nan), ("samples_M", 1000.5), ("samples_M", 1000.0),
        ("start_points_J", 2.5)])
    def test_M_and_J_must_be_integers(self, field, value):
        # they used to construct, then fail in check_I1 with a bare TypeError
        with pytest.raises(ValueError,
                           match=f"^{field} must be an integer, got "):
            AssumptionConfig(alpha=1.0, **{field: value})

    @pytest.mark.parametrize("A, msg", [
        (np.nan, "A must not be NaN"), (np.inf, "A must be finite"),
        (0.0, "A must be positive")])
    def test_A_must_be_positive_and_finite(self, A, msg):
        # NaN used to give max_I = nan, and inf to stop on a RuntimeWarning
        with pytest.raises(ValueError, match=f"^{msg}$"):
            AssumptionConfig(alpha=1.0, A=A)
