import math
import tracemalloc
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from nomafbl.channel import (SystemConfig, _mirror_order_gain, db_to_linear,
                             gamma_for_role, ordered_cdf, ordered_pdf,
                             ordered_quantile, sample_gain, sample_gains,
                             sinr_weak, snr_strong)

POOL = dict(V=10, t=2, u=8, alpha_t=0.8, alpha_u=0.2, rho=100.0, n=300,
            eps=1e-5, theta_t=0.01, theta_u=0.01)


def make_cfg(**overrides):
    params = {**POOL, **overrides}
    return SystemConfig(**params)


class TestSystemConfig:
    def test_valid(self):
        cfg = make_cfg()
        assert cfg.order_index("weak") == 2
        assert cfg.order_index("strong") == 8

    def test_order_constraint(self):
        with pytest.raises(ValueError):
            make_cfg(t=8, u=2)
        with pytest.raises(ValueError):
            make_cfg(t=2, u=2)
        with pytest.raises(ValueError):
            make_cfg(V=1, t=1, u=1)  # single user cannot form a pair

    def test_power_coefficients(self):
        with pytest.raises(ValueError):
            make_cfg(alpha_t=0.2, alpha_u=0.8)
        with pytest.raises(ValueError):
            make_cfg(alpha_t=0.7, alpha_u=0.2)  # sum < 1
        with pytest.raises(ValueError):
            make_cfg(alpha_t=0.9, alpha_u=0.2)  # sum > 1

    def test_scalar_ranges(self):
        with pytest.raises(ValueError):
            make_cfg(rho=0.0)
        with pytest.raises(ValueError):
            make_cfg(n=0)
        with pytest.raises(ValueError):
            make_cfg(eps=0.0)
        with pytest.raises(ValueError):
            make_cfg(eps=1.2)
        with pytest.raises(ValueError):
            make_cfg(eps=1.0)  # every decoding fails: no kernel accepts it
        with pytest.raises(ValueError):
            make_cfg(theta_t=0.0)


class TestGainStatistics:
    # a pool of one user: the order statistic is the unordered exponential
    def test_unordered_examples(self):
        assert (ordered_pdf(0.0, 1, 1), ordered_cdf(0.0, 1, 1)) == (1.0, 0.0)
        assert ordered_pdf(math.log(2.0), 1, 1) == pytest.approx(0.5,
                                                                 rel=1e-14)
        assert ordered_cdf(math.log(2.0), 1, 1) == pytest.approx(0.5,
                                                                 rel=1e-14)

    def test_unordered_normalization(self):
        val, _ = integrate.quad(lambda x: ordered_pdf(x, 1, 1), 0, np.inf)
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_single_user_reduces_to_unordered(self):
        for x in np.linspace(0.0, 8.0, 30):
            assert ordered_pdf(x, 1, 1) == pytest.approx(math.exp(-x),
                                                         rel=1e-13)

    @pytest.mark.parametrize("k", [2, 8])
    def test_normalization(self, k):
        val, _ = integrate.quad(lambda x: ordered_pdf(x, k, 10), 0, np.inf,
                                limit=200)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_maximum_mean_is_harmonic_number(self):
        h10 = sum(1.0 / j for j in range(1, 11))
        val, _ = integrate.quad(lambda x: x * ordered_pdf(x, 10, 10), 0,
                                np.inf, limit=200)
        assert val == pytest.approx(h10, abs=1e-8)

    def test_order_statistic_identity(self):
        # sum_k f_(k)(x) = V f(x) at 50 grid points
        xs = np.linspace(0.01, 6.0, 50)
        total = sum(ordered_pdf(xs, k, 10) for k in range(1, 11))
        assert np.allclose(total, 10.0 * np.exp(-xs), rtol=1e-9)

    def test_cdf_matches_pdf_integral(self):
        for x in (0.2, 0.9, 2.5):
            by_quad, _ = integrate.quad(lambda y: ordered_pdf(y, 8, 10), 0, x)
            assert ordered_cdf(x, 8, 10) == pytest.approx(by_quad, abs=1e-10)

    def test_quantile_round_trip(self):
        for q in (0.01, 0.5, 0.999999):
            x = ordered_quantile(q, 8, 10)
            assert ordered_cdf(x, 8, 10) == pytest.approx(q, rel=1e-9)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(V=st.integers(1, 20), k_frac=st.floats(0.0, 1.0),
           q=st.floats(1e-12, 1.0 - 1e-9))
    def test_quantile_round_trip_property(self, V, k_frac, q):
        k = 1 + min(int(k_frac * V), V - 1)
        x = ordered_quantile(q, k, V)
        assert ordered_cdf(x, k, V) == pytest.approx(q, rel=1e-11)

    def test_domain(self):
        with pytest.raises(ValueError):
            ordered_pdf(1.0, 0, 10)
        with pytest.raises(ValueError):
            ordered_pdf(1.0, 11, 10)
        with pytest.raises(ValueError):
            ordered_pdf(-1.0, 2, 10)


def sorted_reference(cfg, size, rng):
    """The sampler before Renyi's representation: sort V exponentials."""
    draws = rng.standard_exponential((size, cfg.V))
    draws.sort(axis=1)
    return draws[:, cfg.t - 1].copy(), draws[:, cfg.u - 1].copy()


# (V, t, u): the fig3 pool, both extreme ranks, the smallest pool, a big one
SAMPLER_POOLS = [(10, 2, 8), (10, 1, 10), (2, 1, 2), (40, 13, 40)]


class TestSampling:
    @pytest.mark.parametrize("V,t,u", SAMPLER_POOLS)
    def test_law_matches_sorted_reference(self, V, t, u):
        cfg = make_cfg(V=V, t=t, u=u)
        x_t, x_u = sample_gains(cfg, 100_000, np.random.default_rng(21))
        r_t, r_u = sorted_reference(cfg, 100_000, np.random.default_rng(22))
        for ours, ref in ((x_t, r_t), (x_u, r_u), (x_u - x_t, r_u - r_t)):
            assert stats.ks_2samp(ours, ref).statistic < 0.01

    @pytest.mark.parametrize("V,t,u", SAMPLER_POOLS)
    def test_strong_marginal_ks(self, V, t, u):
        cfg = make_cfg(V=V, t=t, u=u)
        _, x_u = sample_gains(cfg, 100_000, np.random.default_rng(23))
        res = stats.kstest(x_u, lambda x: ordered_cdf(x, u, V))
        assert res.statistic < 0.01

    @pytest.mark.parametrize("V,t,u", SAMPLER_POOLS)
    def test_returns_fresh_contiguous_arrays(self, V, t, u):
        pair = sample_gains(make_cfg(V=V, t=t, u=u), 1000,
                            np.random.default_rng(24))
        for col in pair:
            assert col.dtype == np.float64 and col.shape == (1000,)
            assert col.flags.c_contiguous and col.flags.owndata
        assert np.all(pair[0] <= pair[1])

    def test_stream_is_pinned(self):
        # any change to these values changes every Monte-Carlo row and
        # every weak-user queue statistic, so it has to be deliberate
        x_t, x_u = sample_gains(make_cfg(), 4, np.random.default_rng(2026))
        np.testing.assert_allclose(
            x_t, [0.12352186570911598, 0.245271757584105,
                  0.18564433865330712, 0.07069869762363307], rtol=1e-14)
        np.testing.assert_allclose(
            x_u, [1.552964760762945, 1.8086868042029267,
                  1.1903287230213138, 1.469389177520929], rtol=1e-14)

    @pytest.mark.parametrize("seed", [0, 41, 2026])
    @pytest.mark.parametrize("size", [1, 7, 65_539])
    @pytest.mark.parametrize("V,t,u", [(10, 2, 8), (2, 1, 2), (5, 1, 5),
                                       (40, 3, 39)])
    def test_equals_spacing_matrix(self, V, t, u, size, seed):
        # the row-by-row draw is the (u, size) spacing matrix summed over
        # its rows, bit for bit: same generator order, same addition order.
        # numpy's axis-0 sum adds rows in order, except over one column,
        # where it sums pairwise from 8 rows on; that case is summed here
        # in order, as the sampler does
        def row_sum(rows):
            return (rows.sum(axis=0) if size > 1
                    else np.add.accumulate(rows)[-1])

        cfg = make_cfg(V=V, t=t, u=u)
        x_t, x_u = sample_gains(cfg, size, np.random.default_rng(seed))
        spacings = np.random.default_rng(seed).standard_exponential((u, size))
        spacings /= (V - np.arange(u, dtype=float))[:, None]
        ref_t = row_sum(spacings[:t])
        ref_u = ref_t + row_sum(spacings[t:])
        assert np.array_equal(x_t, ref_t)
        assert np.array_equal(x_u, ref_u)

    def test_memory_is_three_sample_arrays(self):
        # numpy reports its data buffers to tracemalloc: the two outputs
        # and one reused spacing row, not the u-row spacing matrix
        size = 65_536
        rng = np.random.default_rng(3)
        tracemalloc.start()
        try:
            sample_gains(make_cfg(), size, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * 8 * size

    def test_pair_ordering(self):
        cfg = make_cfg()
        x_t, x_u = sample_gains(cfg, 200, np.random.default_rng(5))
        assert np.all(x_t <= x_u)

    def test_strong_user_mean(self):
        # E[x_(8)] = sum_{j=3}^{10} 1/j = H_10 - H_2 for V = 10
        cfg = make_cfg()
        rng = np.random.default_rng(11)
        _, x_u = sample_gains(cfg, 1_000_000, rng)
        expected = sum(1.0 / j for j in range(3, 11))
        se = x_u.std(ddof=1) / math.sqrt(x_u.size)
        assert abs(x_u.mean() - expected) <= 3.0 * se

    def test_weak_marginal_ks(self):
        cfg = make_cfg()
        rng = np.random.default_rng(12)
        x_t, _ = sample_gains(cfg, 100_000, rng)
        res = stats.kstest(x_t, lambda x: ordered_cdf(x, 2, 10))
        assert res.statistic < 0.01


def one_user(V, k):
    """A config and role whose order index is k in a pool of V.

    A pool of one cannot form a pair, so V = 1 gets a stand-in with the
    two attributes sample_gain reads."""
    if V == 1:
        return SimpleNamespace(V=1, order_index=lambda role: 1), "weak"
    if k < V:
        return make_cfg(V=V, t=k, u=V), "weak"
    return make_cfg(V=V, t=1, u=V), "strong"


# every order index of five pool sizes
EVERY_ORDER = [(V, k) for V in (1, 2, 5, 10, 40) for k in range(1, V + 1)]


class TestMarginalSampling:
    @pytest.mark.parametrize("V,k", EVERY_ORDER)
    def test_law_matches_ordered_cdf(self, V, k):
        cfg, role = one_user(V, k)
        x = sample_gain(cfg, role, 100_000, np.random.default_rng(31))
        res = stats.kstest(x, lambda g: ordered_cdf(g, k, V))
        assert res.statistic < 0.01

    @pytest.mark.parametrize("V,k", [(V, k) for V, k in EVERY_ORDER
                                     if 1 < V and k <= V - k + 1])
    @pytest.mark.parametrize("size", [1, 7, 65_539])
    def test_bottom_end_equals_joint_sampler(self, V, k, size):
        cfg, role = one_user(V, k)
        x = sample_gain(cfg, role, size, np.random.default_rng(32))
        x_t, _ = sample_gains(cfg, size, np.random.default_rng(32))
        assert np.array_equal(x, x_t)

    @pytest.mark.parametrize("V,k", EVERY_ORDER)
    def test_draws_min_k_m_spacing_rows(self, V, k):
        cfg, role = one_user(V, k)
        rng, twin = np.random.default_rng(33), np.random.default_rng(33)
        x = sample_gain(cfg, role, 1000, rng)
        twin.standard_exponential((min(k, V - k + 1), 1000))
        assert rng.bit_generator.state == twin.bit_generator.state
        assert x.dtype == np.float64 and x.shape == (1000,)
        assert x.flags.c_contiguous and x.flags.owndata

    def test_stream_is_pinned(self):
        # the strong user of the fig3 pool, from the top end: any change to
        # these values changes every strong-user queue statistic
        x = sample_gain(make_cfg(), "strong", 4, np.random.default_rng(2026))
        np.testing.assert_allclose(
            x, [1.554049427525515, 1.2830916013219729,
                1.1162498321105543, 1.0732525934493833], rtol=1e-14)

    def test_mirror_map_is_accurate(self):
        # -ln(1 - e^-y) against 50 digits, across both branches and at ln 2
        ys = np.concatenate((np.logspace(-12, math.log10(700.0), 2001),
                             np.nextafter(math.log(2.0), [0.0, 1.0]),
                             [math.log(2.0)]))
        x = _mirror_order_gain(ys.copy())
        with mpmath.workdps(50):
            ref = np.array([float(-mpmath.log1p(-mpmath.exp(-mpmath.mpf(y))))
                            for y in ys])
        assert np.all(np.abs(x - ref) <= 1e-15 * ref)


class TestSinrMaps:
    def test_weak_examples(self):
        cfg = make_cfg(rho=10.0)
        assert sinr_weak(0.0, cfg) == 0.0
        assert sinr_weak(1.0, cfg) == pytest.approx(0.8 / 0.3, rel=1e-12)

    def test_weak_ceiling_and_monotonicity(self):
        cfg = make_cfg()
        ceiling = cfg.alpha_t / cfg.alpha_u
        xs = np.sort(np.random.default_rng(3).uniform(0, 50.0, 300))
        vals = sinr_weak(xs, cfg)
        assert np.all(np.diff(vals) >= 0.0)
        assert np.all(vals <= ceiling)
        assert sinr_weak(1e12, cfg) == pytest.approx(ceiling, rel=1e-9)

    def test_strong_examples(self):
        cfg = make_cfg()
        assert snr_strong(0.0, cfg) == 0.0
        assert snr_strong(1.0, make_cfg(rho=100.0)) == pytest.approx(20.0)

    def test_strong_linearity_in_rho(self):
        for x in (0.3, 1.7, 4.0):
            v1 = snr_strong(x, make_cfg(rho=50.0))
            v2 = snr_strong(x, make_cfg(rho=100.0))
            assert v2 == pytest.approx(2.0 * v1, rel=1e-14)

    def test_role_dispatch(self):
        cfg = make_cfg()
        assert gamma_for_role(1.0, cfg, "weak") == sinr_weak(1.0, cfg)
        assert gamma_for_role(1.0, cfg, "strong") == snr_strong(1.0, cfg)
        with pytest.raises(ValueError):
            gamma_for_role(1.0, cfg, "medium")

    def test_db_conversion(self):
        assert db_to_linear(20.0) == pytest.approx(100.0)
