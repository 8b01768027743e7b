import numpy as np
import pytest
from scipy import stats

from fracwos.sampling import reg_inc_beta
from fracwos.streams import (TAG_DIRECTIONS, _logsum, batch_generator,
                             derive_key, johnk_beta, johnk_beta_rng,
                             step_tuples, uniform_pair, unit_vectors)


class TestCounterHash:
    def test_pure_function_of_indices(self):
        k = derive_key(123)
        a = uniform_pair(k, 5, 9, 1)
        b = uniform_pair(k, 5, 9, 1)
        assert a == b

    def test_distinct_counters_differ(self):
        k = derive_key(123)
        u0, _ = uniform_pair(k, np.arange(1000), 0, 1)
        u1, _ = uniform_pair(k, np.arange(1000), 1, 1)
        assert not np.any(u0 == u1)

    def test_distinct_keys_differ(self):
        u0, _ = uniform_pair(derive_key(1), np.arange(1000), 0, 1)
        u1, _ = uniform_pair(derive_key(2), np.arange(1000), 0, 1)
        assert not np.any(u0 == u1)

    def test_uniformity(self):
        k = derive_key(7)
        u1, u2 = uniform_pair(k, np.arange(200000), 3, 2)
        assert stats.kstest(u1, "uniform").pvalue > 0.01
        assert stats.kstest(u2, "uniform").pvalue > 0.01
        # the two halves of one counter output are uncorrelated
        assert abs(np.corrcoef(u1, u2)[0, 1]) < 0.01

    def test_open_interval(self):
        u1, u2 = uniform_pair(derive_key(0), np.arange(100000), 0, 0)
        assert u1.min() > 0.0 and u1.max() < 1.0

    def test_raw_outputs_pinned(self):
        # bits of the splitmix64 key hash and the Philox rounds; any change
        # to their integer arithmetic must leave these values as they are
        assert [hex(int(k)) for k in derive_key(7, np.arange(4))] == [
            "0x50858203873ed679", "0x34cac5489fdc078a",
            "0x1addf095629fe974", "0xab842222742ff283"]
        assert int(derive_key(0)) == 0xe220a8397b1dcdaf
        assert int(derive_key(2**64 - 1, 3, 0xA7)) == 0x2cb32de6fc4bca32
        assert int(derive_key(1001, -1)) == 0xb45c3c9389fc3088
        keys = derive_key(7, np.arange(3))[:, None]
        steps = np.array([0, 1, 2**32 - 1], dtype=np.uint32)[None, :]
        u1, u2 = uniform_pair(keys, np.uint32(0), steps, 3)
        assert [float(u).hex() for u in u1.ravel()] == [
            "0x1.cc67468d6f3b8p-1", "0x1.34d41fc8531f2p-3", "0x1.af9bcd7f779b9p-2",
            "0x1.7d73013aec474p-4", "0x1.be21a2fcecbc5p-2", "0x1.f4f4834245726p-1",
            "0x1.1a5d6bb9e8670p-6", "0x1.529e6dbb6b8a0p-1", "0x1.61fc14392b6bep-1"]
        assert [float(u).hex() for u in u2.ravel()] == [
            "0x1.f3d7c647d80a8p-1", "0x1.a7188d1bc24b0p-6", "0x1.726b06173c4c9p-2",
            "0x1.623695611e8bep-3", "0x1.d30014fc20d33p-2", "0x1.712eb96749998p-5",
            "0x1.ba6b847a75439p-2", "0x1.481f29e87b7c4p-1", "0x1.58153f4a921a2p-3"]
        top = 2**32 - 1
        u1, u2 = uniform_pair(np.uint64(2**64 - 1), top, top, top)
        assert (float(u1).hex(), float(u2).hex()) == (
            "0x1.dd807049c983cp-1", "0x1.e8b72e5500742p-3")

    def test_derive_key_field_sensitivity(self):
        assert derive_key(1, 2, 3) != derive_key(1, 3, 2)
        assert derive_key(1) != derive_key(2)
        arr = derive_key(1, 2, np.arange(10))
        assert len(set(arr.tolist())) == 10

    @pytest.mark.parametrize("seed", [1.5, 7.0, np.nan, "3"])
    def test_non_integer_seed_rejected_by_name(self, seed):
        # a float seed used to be truncated: 1.5 gave the keys of seed 1
        with pytest.raises(ValueError, match="^seed must be an integer, got "):
            derive_key(seed, 2)
        with pytest.raises(ValueError, match="^seed must be an integer, got "):
            batch_generator(seed, 0x90, 0)

    def test_negative_and_numpy_seeds_keep_their_keys(self):
        assert derive_key(-1, 5) == derive_key(2**64 - 1, 5)
        assert derive_key(np.int64(-3)) == derive_key(2**64 - 3)
        assert derive_key(np.uint32(9), 1) == derive_key(9, 1)

    @pytest.mark.parametrize("label", [2.5, 2.0, np.float64(2.0), np.nan,
                                       np.array([0.5, 1.5]), "2"])
    def test_non_integer_label_rejected_by_name(self, label):
        # a float label used to be truncated: 2.5 gave the key of label 2,
        # and a float array raised a bare TypeError
        with pytest.raises(ValueError, match="^label must be an integer, got "):
            derive_key(1, label)
        with pytest.raises(ValueError, match="^label must be an integer, got "):
            batch_generator(3, label)

    def test_integer_numpy_labels_keep_their_keys(self):
        want = derive_key(7, 2, np.arange(4))
        for labels in (np.arange(4, dtype=np.int32), np.arange(4, dtype=np.uint8),
                       [0, 1, 2, 3]):
            assert derive_key(7, np.int16(2), labels).tolist() == want.tolist()
        assert derive_key(7, np.uint64(3), -1) == derive_key(7, 3, -1)
        assert int(derive_key(2**64 - 1, 3, 0xA7)) == 0x2cb32de6fc4bca32


class TestJohnkBeta:
    # at alpha near 2 a double cannot resolve the mass piling onto 1, so the
    # raw KS test is only meaningful where float64 resolves the distribution
    @pytest.mark.parametrize("alpha", [0.2, 0.5, 1.0, 1.5])
    def test_marginal_ks(self, alpha):
        b = johnk_beta(alpha, derive_key(11, 1), np.arange(50000, dtype=np.uint32))
        assert stats.kstest(b, lambda t: reg_inc_beta(t, alpha)).pvalue > 0.01

    @pytest.mark.parametrize("alpha", [1.8, 1.9])
    def test_upper_tail_mass(self, alpha):
        # tail probabilities at thresholds far above one ulp match the CDF
        n = 200000
        b = johnk_beta(alpha, derive_key(4, 2), np.arange(n, dtype=np.uint32))
        for delta in (1e-2, 1e-4, 1e-6):
            expect = 1.0 - float(reg_inc_beta(1.0 - delta, alpha))
            got = float((b > 1.0 - delta).mean())
            se = np.sqrt(expect * (1 - expect) / n)
            assert abs(got - expect) < 5 * se + 1e-12

    def test_support_open(self):
        b = johnk_beta(1.0, derive_key(3), np.arange(100000, dtype=np.uint32))
        assert b.min() > 0.0 and b.max() < 1.0
        b = johnk_beta(1.9, derive_key(3), np.arange(100000, dtype=np.uint32))
        assert b.max() < 1.0

    def test_slot_independence_of_batching(self):
        # slot values depend only on (key, step), not on batch composition
        keys = derive_key(5, np.arange(64))
        whole = johnk_beta(0.7, keys, np.uint32(9))
        parts = np.concatenate([johnk_beta(0.7, keys[:13], np.uint32(9)),
                                johnk_beta(0.7, keys[13:], np.uint32(9))])
        np.testing.assert_array_equal(whole, parts)

    def test_generator_variant_matches_moments(self):
        rng = batch_generator(1, 2)
        b = johnk_beta_rng(1.2, rng, 200000)
        assert stats.kstest(b, lambda t: reg_inc_beta(t, 1.2)).pvalue > 0.01


class TestKernelReferences:
    """The vector kernels against the numpy forms they replaced."""

    def test_logsum_matches_logaddexp(self):
        # random pairs, equal pairs, gaps above 750 (exp underflows to 0)
        # and logs near -1e4, the size 2/alpha log U reaches at alpha = 0.02
        rng = np.random.default_rng(7)
        pairs = [rng.uniform(-3.0, 0.0, (2, 50000)),
                 rng.uniform(-800.0, 0.0, (2, 50000)),
                 rng.uniform(-1e4, -9.9e3, (2, 5000)),
                 np.array([[0.0, -1.0, -37.5, -1e4, -1.0, -760.0, -1e4],
                           [0.0, -1.0, -37.5, -1e4, -760.0, -2.0, -9e3]])]
        lx, ly = np.concatenate(pairs, axis=1)
        want = np.logaddexp(lx, ly)
        got = _logsum(lx, ly.copy())
        # in ulp of the largest of the result and its two terms
        terms = [np.abs(want), np.maximum(-lx, -ly),
                 np.log1p(np.exp(-np.abs(lx - ly)))]
        ulp = np.spacing(np.maximum.reduce(terms))
        assert np.all(np.abs(got - want) <= 2 * ulp)
        assert np.array_equal(got[-7:-3], lx[-7:-3] + np.log(2.0))

    @staticmethod
    def assert_near_cos_sin(u):
        # the half-angle form against (cos, sin): 4 ulp of 1, absolute
        got = unit_vectors(u)
        two_pi = 2.0 * np.pi
        want = np.stack([np.cos(two_pi * u), np.sin(two_pi * u)], axis=-1)
        assert got.shape == np.shape(u) + (2,)
        assert np.abs(got - want).max() <= 8.9e-16
        assert np.abs(np.hypot(got[..., 0], got[..., 1]) - 1.0).max() <= 4.5e-16

    @pytest.mark.parametrize("shape", [(), (1,), (1001,), (8, 1001),
                                       (2, 8, 1001)])
    def test_unit_vectors_near_cos_sin(self, shape):
        self.assert_near_cos_sin(np.random.default_rng(3).random(shape))

    def test_unit_vectors_near_cos_sin_at_the_axes(self):
        # 0 (Generator.random can return it) and 2^-54 (the smallest
        # counter uniform) give |t| near 1.6e16 and 5.7e15; at 1/4, 1/2,
        # 3/4 and 1 cos or sin is 0; each edge also with its neighbours
        edges = [0.0, 2.0 ** -54, 0.25, 0.5, 0.75, 1.0, 1.0 - 2.0 ** -53]
        u = np.array([np.nextafter(e, to) for e in edges for to in (0.0, 2.0)]
                     + edges)
        self.assert_near_cos_sin(u[(u >= 0.0) & (u <= 1.0)])
        assert unit_vectors(0.5).tolist() == [-1.0, 0.0]

    def test_unit_vectors_one_stacked_call_matches_separate_calls(self):
        u = np.random.default_rng(4).random((2, 8, 1001))
        separate = np.stack([unit_vectors(u[0]), unit_vectors(u[1])])
        assert unit_vectors(u).tobytes() == separate.tobytes()


class TestStepTuples:
    def test_shapes_and_ranges(self):
        keys = derive_key(9, np.arange(17))
        beta, theta, s, phi = step_tuples(1.0, keys, np.uint32(4))
        assert beta.shape == (17,) and theta.shape == (17, 2)
        np.testing.assert_allclose(np.hypot(theta[:, 0], theta[:, 1]), 1.0,
                                   atol=1e-12)
        np.testing.assert_allclose(np.hypot(phi[:, 0], phi[:, 1]), 1.0,
                                   atol=1e-12)
        assert np.all((s > 0) & (s < 1))

    @pytest.mark.parametrize("alpha", [0.05, 1.0, 1.95])
    def test_key_by_step_block_matches_one_step_calls(self, alpha):
        # (R, 1) keys x (1, B) steps, and the step-major (B, 1) x (1, R) form
        keys = derive_key(31, np.arange(40))
        steps = np.arange(5, 12, dtype=np.uint32)
        by_key = step_tuples(alpha, keys[:, None], steps[None, :])
        by_step = step_tuples(alpha, keys[None, :], steps[:, None])
        assert by_key[0].shape == (40, 7) and by_key[1].shape == (40, 7, 2)
        for b, n in enumerate(steps):
            one = step_tuples(alpha, keys, n)
            for got_k, got_s, want in zip(by_key, by_step, one):
                assert got_k[:, b].tobytes() == want.tobytes()
                assert got_s[b].tobytes() == want.tobytes()

    def test_directions_match_per_direction_calls(self):
        # Theta and Phi come from one unit_vectors call on both direction
        # uniforms; each equals its own call on the same counters
        keys = derive_key(23, np.arange(300))[None, :]
        steps = np.arange(3, 11, dtype=np.uint32)[:, None]
        _, theta, _, phi = step_tuples(1.0, keys, steps)
        u_th, u_ph = uniform_pair(keys, 0, steps, TAG_DIRECTIONS)
        assert theta.tobytes() == unit_vectors(u_th).tobytes()
        assert phi.tobytes() == unit_vectors(u_ph).tobytes()

    def test_components_mutually_independent(self):
        keys = derive_key(13, np.arange(100000))
        beta, theta, s, phi = step_tuples(1.0, keys, np.uint32(0))
        ang_t = np.arctan2(theta[:, 1], theta[:, 0])
        ang_p = np.arctan2(phi[:, 1], phi[:, 0])
        for a, b in [(beta, s), (beta, ang_t), (s, ang_p), (ang_t, ang_p)]:
            assert abs(np.corrcoef(a, b)[0, 1]) < 0.01

    def test_direction_uniform(self):
        keys = derive_key(17, np.arange(100000))
        _, theta, _, _ = step_tuples(1.0, keys, np.uint32(2))
        ang = np.arctan2(theta[:, 1], theta[:, 0])
        assert stats.kstest(ang, stats.uniform(loc=-np.pi, scale=2 * np.pi).cdf).pvalue > 0.01


class TestRandomSequence:
    """The tuple sequence of one realization: entry n of the seed-s
    realization is step_tuples(alpha, derive_key(s), n)."""

    @staticmethod
    def entries(seed, alpha, n0, n1):
        return step_tuples(alpha, derive_key(seed),
                           np.arange(n0, n1, dtype=np.uint32))

    def test_entry_pure(self):
        for n in (0, 5, 1000):
            for a, b in zip(self.entries(42, 1.0, n, n + 1),
                            self.entries(42, 1.0, n, n + 1)):
                np.testing.assert_array_equal(a, b)

    def test_random_access_matches_block(self):
        block = self.entries(7, 0.8, 0, 32)
        single = step_tuples(0.8, derive_key(7), np.uint32(5))
        for a, b in zip(block, single):
            np.testing.assert_array_equal(a[5:6], b)

    def test_entries_independent_across_n(self):
        beta, _, s, _ = self.entries(3, 1.0, 0, 50000)
        assert abs(np.corrcoef(beta[:-1], beta[1:])[0, 1]) < 0.01
        assert abs(np.corrcoef(s[:-1], s[1:])[0, 1]) < 0.01

    def test_different_seeds_differ(self):
        a = self.entries(1, 1.0, 0, 100)[0]
        b = self.entries(2, 1.0, 0, 100)[0]
        assert not np.any(a == b)
