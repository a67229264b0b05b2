import math

import mpmath
import numpy as np
import pytest
from scipy import special as sp

from nomafbl.eccalc import _int_ladder
from nomafbl.specfun import (ConvergenceError, beta_fn, exp_integral_ei,
                             gauss_adaptive, gaussian_q, gaussian_q_inv,
                             tricomi_u)


class TestGaussianQInv:
    def test_median(self):
        assert gaussian_q_inv(0.5) == 0.0

    @pytest.mark.parametrize("p, expected", [
        (1e-5, 4.264890793922825),   # bisection + Newton on erfc
        (1e-6, 4.753424308822899),
    ])
    def test_tail_values(self, p, expected):
        assert gaussian_q_inv(p) == pytest.approx(expected, rel=1e-10)

    def test_round_trip(self):
        # |Q(Qinv(p)) - p| / p <= 1e-10 across the documented domain
        for p in np.logspace(-12, -0.301, 40):
            x = gaussian_q_inv(p)
            assert abs(gaussian_q(x) - p) <= 1e-10 * p
        for p in 1.0 - np.logspace(-12, -0.5, 20):
            x = gaussian_q_inv(p)
            assert abs(gaussian_q(x) - p) <= 1e-10 * p

    def test_matches_normal_ppf(self):
        for p in (1e-9, 1e-3, 0.2, 0.7, 1 - 1e-6):
            assert gaussian_q_inv(p) == pytest.approx(sp.ndtri(1 - p),
                                                      rel=1e-7, abs=1e-9)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5])
    def test_domain(self, p):
        with pytest.raises(ValueError):
            gaussian_q_inv(p)


class TestExpIntegral:
    @pytest.mark.parametrize("x, expected", [
        (-1.0, -0.2193839343955205),     # continued-fraction oracle
        (-10.0, -4.156968929685325e-06),
    ])
    def test_values(self, x, expected):
        assert exp_integral_ei(x) == pytest.approx(expected, rel=1e-10)

    def test_matches_scipy(self):
        for x in -np.logspace(-10, 2.8, 60):
            assert exp_integral_ei(x) == pytest.approx(sp.expi(x), rel=1e-10)

    def test_log_singularity(self):
        # Ei(x) -> -inf monotonically as x -> 0-
        vals = [exp_integral_ei(x) for x in (-1e-12, -1e-8, -1e-4, -1e-2)]
        assert all(v < 0 for v in vals)
        assert vals[0] < vals[1] < vals[2] < vals[3]

    def test_derivative_recurrence(self):
        # d/dx Ei(x) = e^x / x, checked by central differences
        for x in np.linspace(-20.0, -0.1, 20):
            h = 1e-6 * abs(x)
            num = (exp_integral_ei(x + h) - exp_integral_ei(x - h)) / (2 * h)
            assert num == pytest.approx(math.exp(x) / x, rel=1e-6)

    def test_underflow(self):
        assert exp_integral_ei(-800.0) == 0.0

    @pytest.mark.parametrize("x", [0.0, 1.0])
    def test_domain(self, x):
        with pytest.raises(ValueError):
            exp_integral_ei(x)

    def test_scaled_e1(self):
        # e^z E1(z) is the first rung of the I_s ladder: scipy's exp1 up to
        # z = 1.5, a Tricomi seed above
        for z in (0.1, 0.5, 1.0, 5.0, 50.0, 2000.0):
            assert _int_ladder(z, 1)[1] == pytest.approx(
                float(sp.exp1(z) / np.exp(-z)) if z < 600 else 1 / (z + 1),
                rel=1e-9 if z < 600 else 2e-3)


class TestTricomiU:
    def test_e1_identity(self):
        # U(1, 1, z) * e^{-z} = E1(z)
        assert tricomi_u(1, 1, 1) == pytest.approx(0.5963473623231941,
                                                   rel=1e-9)
        for z in (0.5, 1.0, 2.0, 5.0):
            lhs = tricomi_u(1, 1, z) * math.exp(-z)
            rhs = -exp_integral_ei(-z)
            assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_unit_weight(self):
        # b = a + 1 makes the integrand weight 1: integral is exactly 1/z
        assert tricomi_u(1, 2, 1) == pytest.approx(1.0, rel=1e-10)

    def test_large_z_asymptote(self):
        assert tricomi_u(1, 0, 1e4) == pytest.approx(1e-4, rel=1e-2)

    def test_matches_scipy(self):
        for a, b, z in [(1.0, -1.0, 0.45), (1.0, -3.0, 0.5), (1.0, 0.5, 1.3),
                        (1.0, 0.25, 2.0), (1.0, 1.0, 10.0)]:
            assert tricomi_u(a, b, z) == pytest.approx(
                float(sp.hyperu(a, b, z)), rel=1e-9)

    @pytest.mark.parametrize("a, b, z, expected", [
        # scipy.hyperu returns nan for large negative b; values frozen from
        # a 30-digit mpmath.hyperu evaluation
        (1.0, -20.0, 0.9, 0.0455728734727069),
        (1.0, -398.0, 0.25, 0.00250469236742236),
    ])
    def test_large_negative_b(self, a, b, z, expected):
        assert tricomi_u(a, b, z) == pytest.approx(expected, rel=1e-10)

    def test_mpmath_oracle_over_seed_box(self):
        # U(1, 2 - s, eta) = e^eta E_s(eta) over the (s, eta) box that the
        # I_s ladders seed at; 60 digits, since mpmath's expint loses
        # digits at 30 (0.9 % off at s = 187, eta = 50)
        worst = 0.0
        with mpmath.workdps(60):
            for s in np.geomspace(1.05, 400.0, 12):
                for eta in np.geomspace(1.5e-3, 50.0, 10):
                    ref = float(mpmath.exp(eta) * mpmath.expint(s, eta))
                    rel = abs(tricomi_u(1.0, 2.0 - s, eta) - ref) / ref
                    worst = max(worst, rel)
        assert worst <= 1e-10

    @pytest.mark.parametrize("s, eta", [(26.25, 1.5e-3), (31.33, 1.5e-3),
                                        (30.0, 3.1e-3)])
    def test_power_law_tail_at_small_eta(self, s, eta):
        # s >> eta squeezes the exponentially mapped tail into a spike at
        # its end that no Gauss node reaches; it was lost (2.4e-8 relative
        # at s = 26.25) before the tail followed its power law
        with mpmath.workdps(60):
            ref = float(mpmath.exp(eta) * mpmath.expint(s, eta))
        assert tricomi_u(1.0, 2.0 - s, eta) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("a, z", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0),
                                      (1.0, -2.0), (2.0, 1.0)])
    def test_domain(self, a, z):
        with pytest.raises(ValueError):
            tricomi_u(a, 1.0, z)


class TestBetaFn:
    @pytest.mark.parametrize("a, b, expected", [
        (1, 1, 1.0),
        (2, 9, 1.0 / 90.0),     # 1! 8! / 10!
        (8, 3, 1.0 / 360.0),    # 7! 2! / 10!
    ])
    def test_values(self, a, b, expected):
        assert beta_fn(a, b) == pytest.approx(expected, rel=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a, b = rng.uniform(0.05, 50.0, size=2)
            assert beta_fn(a, b) == beta_fn(b, a)

    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (1.0, 0.0), (-2.0, 3.0)])
    def test_domain(self, a, b):
        with pytest.raises(ValueError):
            beta_fn(a, b)


class TestAdaptiveQuadrature:
    def test_polynomial(self):
        assert gauss_adaptive(lambda x: x * x, 0.0, 1.0) == pytest.approx(
            1.0 / 3.0, rel=1e-13)

    def test_gaussian_mass(self):
        val = gauss_adaptive(
            lambda x: np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi),
            -8.0, 8.0)
        assert val == pytest.approx(1.0, rel=1e-12)

    def test_budget_exhaustion(self):
        # a pathological rapidly oscillating integrand with a tiny budget
        with pytest.raises(ConvergenceError):
            gauss_adaptive(lambda x: np.sin(1e6 * x * x), 0.0, 10.0,
                           max_panels=4)

    def test_empty_interval(self):
        with pytest.raises(ValueError):
            gauss_adaptive(lambda x: x, 1.0, 1.0)
