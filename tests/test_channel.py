import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from nomafbl.channel import (SystemConfig, db_to_linear, gamma_for_role,
                             ordered_cdf, ordered_pdf, ordered_quantile,
                             sample_gains, sinr_weak, snr_strong)

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
        assert cfg.eps_for("weak") == cfg.eps_for("strong") == 1e-5

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
            make_cfg(alpha_t=0.7, alpha_u=0.2)  # sum != 1
        cfg = make_cfg(alpha_t=0.7, alpha_u=0.2, allow_power_backoff=True)
        assert cfg.alpha_t + cfg.alpha_u < 1.0
        with pytest.raises(ValueError):
            make_cfg(alpha_t=0.9, alpha_u=0.2, allow_power_backoff=True)

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
            make_cfg(theta_t=0.0)
        make_cfg(eps=1.0)  # degenerate error probability is allowed

    def test_per_user_eps(self):
        cfg = make_cfg(eps_t=1e-3)
        assert cfg.eps_for("weak") == 1e-3
        assert cfg.eps_for("strong") == 1e-5


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


class TestSampling:
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
