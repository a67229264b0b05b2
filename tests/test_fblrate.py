import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import special as sp

from nomafbl.fblrate import (PAPER_ORDER, KernelParams, dispersion_root,
                             ec_kernel, expansion_error_coeffs,
                             expansion_order, fbl_rate, make_kernel_params,
                             rate_minimum, scalar_kernel)

LN2 = math.log(2.0)


def expanded(gamma, kp, eps, order=PAPER_ORDER):
    """The production float expansion, scalar_kernel at order, over an
    array of gamma."""
    return np.vectorize(scalar_kernel(kp, eps, order), otypes=[float])(gamma)


class TestKernelParams:
    def test_reference_point(self):
        kp = make_kernel_params(0.01, 300, 1e-5)
        assert kp.zeta == -1.5                      # -theta * n / 2
        expected_beta = 0.01 * math.sqrt(300) * float(sp.ndtri(1 - 1e-5))
        assert kp.beta == pytest.approx(expected_beta, rel=1e-12)
        assert kp.beta == pytest.approx(0.73870075438071, rel=1e-10)

    def test_half_eps_kills_dispersion_terms(self):
        kp = make_kernel_params(0.02, 500, 0.5)
        assert kp.beta == 0.0

    def test_blocklength_scaling(self):
        kp1 = make_kernel_params(0.01, 250, 1e-4)
        kp4 = make_kernel_params(0.01, 1000, 1e-4)
        assert kp4.beta == pytest.approx(2.0 * kp1.beta, rel=1e-13)
        assert abs(kp4.zeta) == pytest.approx(4.0 * abs(kp1.zeta), rel=1e-13)

    def test_beta_sign_tracks_eps(self):
        assert make_kernel_params(0.01, 100, 0.1).beta > 0.0
        assert make_kernel_params(0.01, 100, 0.9).beta < 0.0

    @pytest.mark.parametrize("theta, n, eps", [
        (0.0, 100, 0.1), (0.01, 0, 0.1), (0.01, 100, 0.0), (0.01, 100, 1.0),
    ])
    def test_domain(self, theta, n, eps):
        with pytest.raises(ValueError):
            make_kernel_params(theta, n, eps)


class TestDispersionRoot:
    def test_examples(self):
        assert dispersion_root(0.0) == 0.0
        assert dispersion_root(1.0) == pytest.approx(math.sqrt(3.0) / 2.0,
                                                     rel=1e-14)
        assert dispersion_root(1e12) == pytest.approx(1.0, abs=1e-12)

    def test_algebraic_identity(self):
        g = np.random.default_rng(2).uniform(0.0, 200.0, 500)
        lhs = dispersion_root(g) ** 2 + (1.0 + g) ** -2.0
        assert np.all(np.abs(lhs - 1.0) < 1e-14)

    def test_monotone(self):
        g = np.linspace(0.0, 50.0, 400)
        assert np.all(np.diff(dispersion_root(g)) > 0.0)


class TestFblRate:
    def test_penalty_vanishes_at_half(self):
        assert fbl_rate(3.0, 200, 0.5) == pytest.approx(2.0, rel=1e-14)

    def test_zero_gamma(self):
        assert fbl_rate(0.0, 300, 1e-5) == 0.0

    def test_shannon_recovery(self):
        g = 7.0
        assert fbl_rate(g, 10 ** 12, 1e-5) == pytest.approx(math.log2(1 + g),
                                                            abs=1e-4)

    def test_negative_at_small_gamma(self):
        # dispersion penalty beats the log term near zero; no clamping here
        assert fbl_rate(1e-4, 300, 1e-5) < 0.0

    def test_bits_are_nats_over_ln2(self):
        g, n, eps = 2.5, 400, 1e-6
        nats = math.log(1 + g) - dispersion_root(g) * sp.ndtri(1 - eps) \
            / math.sqrt(n)
        assert fbl_rate(g, n, eps) == pytest.approx(nats / LN2, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            fbl_rate(-1.0, 300, 1e-5)
        with pytest.raises(ValueError):
            fbl_rate(1.0, 300, 0.0)


class TestRateMinimum:
    def test_values(self):
        # n = 400, eps = 1e-6: gamma* = 0.026457, where the rate is
        # -0.039675 bits/cu, below every point of a fine grid
        g = rate_minimum(400, 1e-6)
        assert g == pytest.approx(0.0264566374, abs=5e-11)
        assert fbl_rate(g, 400, 1e-6) == pytest.approx(-0.0396748566,
                                                       abs=5e-11)
        grid = np.linspace(0.0, 0.1, 200_001)
        assert fbl_rate(g, 400, 1e-6) <= fbl_rate(grid, 400, 1e-6).min()
        assert rate_minimum(300, 1e-5) == pytest.approx(0.0282717, abs=5e-8)

    @pytest.mark.parametrize("eps", [0.5, 0.7, 0.999])
    def test_infinite_where_the_rate_only_grows(self, eps):
        assert rate_minimum(300, eps) == math.inf

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(10, 100_000), log_eps=st.floats(-12.0, -0.5))
    def test_is_the_minimum(self, n, log_eps):
        eps = 10.0 ** log_eps
        g = rate_minimum(n, eps)
        assert fbl_rate(g, n, eps) < 0.0
        for h in (-1e-4, 1e-4):
            assert fbl_rate(g * (1.0 + h), n, eps) > fbl_rate(g, n, eps)


class TestEcKernel:
    def test_degenerate_eps(self):
        kp = make_kernel_params(0.01, 300, 1e-5)
        for g in (0.0, 1.0, 50.0):
            assert ec_kernel(g, kp, 1.0) == 1.0

    def test_zero_gamma(self):
        kp = make_kernel_params(0.01, 300, 1e-5)
        assert ec_kernel(0.0, kp, 1e-5) == pytest.approx(1.0, rel=1e-14)

    def test_reference_value(self):
        # frozen from the definition at the quoted parameter point
        kp = KernelParams(zeta=-2.16404, beta=0.73872)
        assert ec_kernel(3.0, kp, 1e-5) == pytest.approx(
            0.005078348094230605, rel=1e-12)

    def test_first_principles_recompute(self):
        # independent scalar-math recomputation at 100 random points
        rng = np.random.default_rng(7)
        for _ in range(100):
            theta = rng.uniform(1e-3, 0.05)
            n = int(rng.integers(50, 1000))
            eps = 10.0 ** rng.uniform(-8, -1)
            g = rng.uniform(0.0, 80.0)
            kp = make_kernel_params(theta, n, eps)
            delta = math.sqrt(1.0 - (1.0 + g) ** -2.0)
            direct = eps + (1 - eps) * (1 + g) ** (2 * kp.zeta) \
                * math.exp(kp.beta * delta)
            assert ec_kernel(g, kp, eps) == pytest.approx(direct, rel=1e-12)

    def test_limit_is_eps(self):
        kp = make_kernel_params(0.01, 300, 1e-5)
        assert ec_kernel(1e8, kp, 1e-5) == pytest.approx(1e-5, rel=1e-6)
        assert scalar_kernel(kp, 1e-5, PAPER_ORDER)(1e8) == pytest.approx(
            1e-5, rel=1e-6)

    def test_eventually_decreasing(self):
        # strictly decreasing above a small threshold until the value
        # saturates at the floating-point floor eps
        rng = np.random.default_rng(8)
        g = np.linspace(1.0, 150.0, 500)
        for _ in range(20):
            theta = rng.uniform(1e-3, 0.05)
            n = int(rng.integers(100, 800))
            eps = 10.0 ** rng.uniform(-7, -2)
            kp = make_kernel_params(theta, n, eps)
            if kp.beta > 2.0:
                continue
            for kern in (ec_kernel, expanded):
                vals = kern(g, kp, eps)
                diffs = np.diff(vals)
                assert np.all(diffs <= 0.0)
                live = vals[:-1] > eps * (1 + 1e-9)
                assert np.all(diffs[live] < 0.0)


    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(theta=st.floats(1e-6, 20.0), n=st.integers(1, 4000),
           eps=st.floats(1e-12, 0.5), gamma=st.floats(0.0, 1e8))
    def test_finite_and_above_eps(self, theta, n, eps, gamma):
        # the exponent peaks near theta Qinv(eps)^2 / 2 (about 494 here),
        # while its two parts apart reach beta ~ 8900 and theta n ~ 8e4
        kp = make_kernel_params(theta, n, eps)
        val = ec_kernel(gamma, kp, eps)
        assert math.isfinite(val)
        assert val >= eps

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(log_theta=st.floats(-4.0, 1.0), n=st.integers(50, 2000),
           log_eps=st.floats(-9.0, -0.5), log_gamma=st.floats(-9.0, 6.0))
    def test_scalar_twin(self, log_theta, n, log_eps, log_gamma):
        # scalar_kernel with no order is ec_kernel in float math, held to
        # 1e-14 of the kernel's condition: its value times the magnitudes
        # of the exponent's two terms
        eps, g = 10.0 ** log_eps, 10.0 ** log_gamma
        kp = make_kernel_params(10.0 ** log_theta, n, eps)
        log_term = 2.0 * kp.zeta * math.log1p(g)
        delta_term = kp.beta * dispersion_root(g)
        assume(log_term + delta_term <= 700.0)
        want = ec_kernel(g, kp, eps)
        cond = want * max(1.0, abs(log_term) + abs(delta_term))
        assert abs(scalar_kernel(kp, eps)(g) - want) <= 1e-14 * cond


class TestEcKernelApprox:
    def test_exact_when_beta_zero(self):
        kp = make_kernel_params(0.01, 300, 0.5)
        g = np.linspace(0.0, 60.0, 200)
        assert np.allclose(expanded(g, kp, 0.5),
                           ec_kernel(g, kp, 0.5), rtol=1e-14)

    def test_known_overshoot_at_zero(self):
        # the truncated expansion tends to eps + (1-eps)(1 + beta/2) at
        # gamma = 0 while the exact kernel tends to 1
        kp = make_kernel_params(0.01, 400, 1e-6)
        val = scalar_kernel(kp, 1e-6, PAPER_ORDER)(0.0)
        assert val == pytest.approx(1e-6 + (1 - 1e-6) * (1 + kp.beta / 2),
                                    rel=1e-12)

    def test_relative_deviation_envelope(self):
        # second-order truncation quality away from the gamma -> 0 overshoot:
        # under 5% for beta <= 0.75 over gamma in [0.25, 100]
        g = np.linspace(0.25, 100.0, 4000)
        for beta in (0.1, 0.4, 0.75):
            kp = KernelParams(zeta=-1.5, beta=beta)
            exact = ec_kernel(g, kp, 1e-5)
            approx = expanded(g, kp, 1e-5)
            assert np.max(np.abs(approx - exact) / exact) < 0.05

    def test_default_is_the_regrouped_second_order_form(self):
        # PAPER_ORDER (2, 1) is the expansion the closed forms were first
        # derived with: K+1 and K-beta/2 regrouped over (1+g)^-2
        rng = np.random.default_rng(11)
        g = np.concatenate([[0.0], rng.uniform(0.0, 80.0, 300)])
        for theta, n, eps in ((0.01, 300, 1e-5), (0.3, 400, 1e-6),
                              (0.02, 100, 0.8)):
            kp = make_kernel_params(theta, n, eps)
            kappa = kp.beta ** 2 / 2 + kp.beta
            base = (1.0 + g) ** (2.0 * kp.zeta)
            regrouped = eps + (1 - eps) * (
                base * (kappa + 1.0)
                - base * (1.0 + g) ** -2.0 * (kappa - kp.beta / 2.0))
            assert PAPER_ORDER == (2, 1)
            assert np.allclose(expanded(g, kp, eps, PAPER_ORDER), regrouped,
                               rtol=1e-12, atol=0.0)


class TestExpansionOrder:
    def test_order_from_beta(self):
        # M is the first Maclaurin order whose remainder bound meets the
        # tolerance; large beta keeps the second-order expansion
        tol = 1e-10
        for beta in (0.01, 0.7387, 2.0, 4.0, -1.0):
            m, j = expansion_order(beta, tol)
            assert j == 16 and 2 * j + 1 >= m
            assert expansion_error_coeffs(beta, (m, j))[0] <= tol
            assert expansion_error_coeffs(beta, (m - 1, j))[0] > tol
        assert expansion_order(0.7387, tol) == (12, 16)
        assert expansion_order(95.0, tol) == (2, 1)
        assert expansion_order(0.0, tol) == (2, 1)

    def test_error_bound_holds_pointwise(self):
        # |expanded - exact| <= (1-eps)(1+g)^(2 zeta)(r_M + t_J w^(J+1)),
        # the inequality behind every reported expansion_bound; it is tight
        # at gamma = 0
        g = np.concatenate([[0.0], np.logspace(-6, 3, 400)])
        w = (1.0 + g) ** -2.0
        for beta in (0.1, 0.75, 2.0, 4.0, -1.0, 9.0):
            kp = KernelParams(zeta=-1.5, beta=beta)
            for order in (expansion_order(beta, 1e-10), (2, 1), (6, 16)):
                r_m, t_j = expansion_error_coeffs(beta, order)
                bound = (1 - 1e-5) * (1.0 + g) ** (2 * kp.zeta) \
                    * (r_m + t_j * w ** (order[1] + 1))
                exact = ec_kernel(g, kp, 1e-5)
                gap = np.abs(expanded(g, kp, 1e-5, order) - exact)
                assert np.all(gap <= bound + 8 * np.finfo(float).eps * exact)

    def test_higher_order_tracks_exact_kernel(self):
        # where the second-order form is off by percents, the chosen order
        # is within a few parts per million over gamma in [0.25, 100]
        g = np.linspace(0.25, 100.0, 4000)
        for beta in (0.1, 0.75, 2.0, 4.0):
            kp = KernelParams(zeta=-1.5, beta=beta)
            exact = ec_kernel(g, kp, 1e-5)
            approx = expanded(g, kp, 1e-5, expansion_order(beta, 1e-10))
            assert np.max(np.abs(approx - exact) / exact) < 1e-5

    def test_order_domain(self):
        with pytest.raises(ValueError):
            expansion_error_coeffs(1.0, (8, 3))
