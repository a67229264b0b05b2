import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sp

from nomafbl import specfun
from nomafbl.channel import db_to_linear
from nomafbl.specfun import (beta_fn, exp_integral_ei, expint_ladders,
                             gaussian_q, gaussian_q_inv, power_moments,
                             scaled_expint, tricomi_u)


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
        # e^z E1(z) is the first rung of the I_s ladder, run down from its
        # scaled_expint seed
        for z in (0.1, 0.5, 1.0, 5.0, 50.0, 2000.0):
            assert expint_ladders([z], 1)[0][1] == pytest.approx(
                float(sp.exp1(z) / np.exp(-z)) if z < 600 else 1 / (z + 1),
                rel=1e-9 if z < 600 else 2e-3)


def _direct_sum_by_hyp1f1(s, eta):
    """e^eta eta^(s-1) Gamma(1-s) - 1F1(1; 2-s; eta) / (1-s) under the
    seed's guard rule (32 guard bits, redone once with the bits its terms
    lost added) and with its head, with mpmath's own 1F1 in place of the
    fixed-point sum."""
    mp = mpmath.mp
    guard = 32
    for _ in range(2):
        with mp.extraprec(guard):
            m = mp.mag(eta)
            with mp.extraprec(max(m, 0, mp.mag(s - 1)
                                  + (abs(m) + 2).bit_length())):
                x = eta + (s - 1) * mp.ln(eta)
            head = mp.exp(x) * mp.gamma(1 - s)
            tail = mp.hyp1f1(1, 2 - s, eta) / (1 - s)
            value = head - tail
        lost = max(mp.mag(head), mp.mag(tail)) - mp.mag(value)
        if lost <= guard:
            return +value
        guard = lost + 32
    raise AssertionError(f"the 1F1 sum cancels at s={s}, eta={eta}")


def _rel_to_laplace60(value, s, eta):
    """|value / (e^eta E_s(eta)) - 1| against a 60-digit quadrature of the
    Laplace integral."""
    with mpmath.workdps(60):
        s, eta = mpmath.mpf(s), mpmath.mpf(eta)
        ref = mpmath.quad(lambda v: mpmath.exp(-eta * v) * (1 + v) ** -s,
                          [0, 1 / (eta + s), 1, mpmath.inf])
        return abs(value / ref - 1)


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
        # I_s ladders seed at, against a 50-digit quadrature of its Laplace
        # integral.  The box reaches s ~ eta <= 500, past the switch to the
        # continued fraction at eta = 32, up to (501, 500), where mpmath's
        # expint at 34 digits is 100 % off
        def laplace(s, eta):
            with mpmath.workdps(50):
                s, eta = mpmath.mpf(s), mpmath.mpf(eta)
                return mpmath.quad(
                    lambda v: mpmath.exp(-eta * v) * (1 + v) ** -s,
                    [0, 1 / (eta + s), mpmath.inf])

        box = [(s, eta) for s in np.geomspace(1.05, 400.0, 7)
               for eta in np.geomspace(1.5e-3, 50.0, 6)]
        box += [(eta + ds, eta) for eta in np.geomspace(20.0, 500.0, 6)
                for ds in (-0.5, 1.0, 2.5)]
        # orders just off an integer, where the two terms of the direct sum
        # have poles and cancel by up to 25 digits
        box += [(m + ds, eta) for m in (1, 2, 4, 50, 400)
                for ds in (-1e-12, 1e-12, -1e-8, 1e-8)
                for eta in (1e-3, 0.15, 1.6, 20.0)]
        worst = worst_mp = 0.0
        for s, eta in box:
            ref = laplace(s, eta)
            worst = max(worst, abs(tricomi_u(1.0, 2.0 - s, eta) / ref - 1))
            with mpmath.workdps(34):
                worst_mp = max(worst_mp,
                               abs(scaled_expint(s, [eta])[0] / ref - 1))
        assert worst <= 1e-10
        assert worst_mp <= 1e-30

    def test_float_routes_within_ulps_over_seed_box(self, monkeypatch):
        # the float value of each route against scaled_expint at 50 digits,
        # at the order 2 - b asked for, in units of 2^-52 relative: the box
        # of the oracle test above, integer orders up to eta = 1e4 (e^eta
        # would overflow from 710), orders at eta 0.45..0.95, and the strong
        # split's tail band, s 1.5..14.5 at eta 0.5..0.76, where box rows
        # with u = V seed.  Each point's route follows from (s, eta) alone,
        # and only the mpmath route calls scaled_expint; near-integer orders
        # from eta = 0.5 up stay in float
        box = [(s, eta) for s in np.geomspace(1.05, 400.0, 7)
               for eta in np.geomspace(1.5e-3, 50.0, 6)]
        box += [(eta + ds, eta) for eta in np.geomspace(20.0, 500.0, 6)
                for ds in (-0.5, 1.0, 2.5)]
        near = [(m + ds, eta) for m in (1, 2, 4, 50, 400)
                for ds in (-1e-12, 1e-12, -1e-8, 1e-8)
                for eta in (1e-3, 0.15, 0.5, 0.76, 1.6, 20.0)]
        box += near
        box += [(float(s), eta) for s in (0, 1, 2, 7, 30, 50, 51, 200, 400)
                for eta in (1e-3, 0.5, 3.0, 31.9, 32.0, 100.0, 1e3, 1e4)]
        box += [(s, eta) for s in (1.5076, 2.04, 2.5076, 2.6973)
                for eta in (0.45, 0.63, 0.79, 0.95)]
        box += [(s, eta) for s in np.linspace(1.5, 14.5, 27)
                for eta in np.linspace(0.5, 0.76, 5)]
        exact, handed = specfun.scaled_expint, []
        monkeypatch.setattr(specfun, "scaled_expint", lambda s, etas: (
            handed.append(etas) or exact(s, etas)))
        worst = {}
        for s, eta in box:
            b = 2.0 - s
            before = len(handed)
            value = tricomi_u(1.0, b, eta)
            with mpmath.workdps(50):
                ulps = float(abs(value / exact(2 - mpmath.mpf(b), [eta])[0]
                                 - 1)) / 2.0 ** -52
            order = 2.0 - b
            route = ("expn" if order.is_integer() and 0.0 <= order <= 50.0
                     and eta < 32.0
                     else "fraction" if order >= 0.0 and (
                         eta >= 0.5 or order >= 20.0)
                     else "mpmath")
            assert (len(handed) > before) == (route == "mpmath")
            worst[route] = max(worst.get(route, 0.0), ulps)
            if (s, eta) in near and eta >= 0.5:
                assert route != "mpmath"
        assert set(worst) == {"expn", "fraction", "mpmath"}
        assert worst.pop("expn") <= 7.0
        assert max(worst.values()) <= 4.0

    @pytest.mark.parametrize("b, z, name", [
        (1.0, math.inf, "z"), (1.0, math.nan, "z"), (math.inf, 1.0, "b"),
        (-math.inf, 1.0, "b"), (math.nan, 1.0, "b")],
        ids=["z_inf", "z_nan", "b_inf", "b_minus_inf", "b_nan"])
    def test_non_finite_input_is_refused(self, b, z, name):
        # each case failed its own way: z = inf with ConvergenceError, b =
        # +-inf with OverflowError, b = nan converting NaN to an integer
        with pytest.raises(ValueError, match=f"finite {name}"):
            tricomi_u(1.0, b, z)

    @pytest.mark.parametrize("s, eta, name", [
        (math.inf, 1.0, "s"), (-math.inf, 1.0, "s"), (math.nan, 1.0, "s"),
        (2.5, math.inf, "eta"), (2.5, math.nan, "eta")],
        ids=["s_inf", "s_minus_inf", "s_nan", "eta_inf", "eta_nan"])
    def test_scaled_expint_refuses_non_finite_input(self, s, eta, name):
        with pytest.raises(ValueError, match=f"finite {name}"):
            scaled_expint(s, [eta])

    @pytest.mark.parametrize("s, etas", [
        # 1F1 terms that turn about as 2 - s + k nears 0, with eta large
        (10.5, [9.0]), (20.3, [19.0]), (30.7, [29.0]), (25.25, [31.9]),
        # terms that fall to 2^-204 and rise by 2^72 again: a rounding
        # error at the bottom grows with the rise, which the bits cover
        (150.25, [25.0]),
        # terms that fall to 2^-216, below the working precision, and rise
        # to 2^-159 again: the sum must not stop at the first small term
        (140.25, [20.0]),
        # orders just off an integer, where head and tail cancel
        *[(m + ds, [0.15, 1.6, 20.0]) for m in (1, 2, 4, 50, 400)
          for ds in (-1e-12, 1e-12)]])
    def test_direct_sum_at_50_digits(self, s, etas):
        # the fixed-point 1F1 pass against a 60-digit quadrature and
        # against the sum as mpmath's 1F1 makes it, under the same guard
        # rule; one call with every eta gives what one call per eta gives
        with mpmath.workdps(50):
            batch = scaled_expint(s, etas)
            singles = [scaled_expint(s, [eta])[0] for eta in etas]
            ulps_off = [abs(value - _direct_sum_by_hyp1f1(
                mpmath.mpf(s), mpmath.mpf(eta)))
                / 2 ** (mpmath.mag(value) - mpmath.mp.prec)
                for value, eta in zip(batch, etas)]
        assert batch == singles
        assert max(ulps_off) <= 1
        for value, eta in zip(batch, etas):
            assert _rel_to_laplace60(value, s, eta) <= 1e-45

    @pytest.mark.parametrize("s, eta, prec", [
        (10.5, 9.0, mpmath.libmp.dps_to_prec(50)),
        (95.885181, 30.7235, 300),
        *[(s, eta, 300) for s, eta in zip(
            np.random.default_rng(5).uniform(95.0, 105.0, 40),
            np.random.default_rng(6).uniform(25.0, 31.0, 40))]])
    def test_head_exponent_keeps_its_bits(self, s, eta, prec):
        # e^(eta + (s-1) ln eta) Gamma(1-s) turns the exponent's absolute
        # rounding error into relative error; with the exponent rounded at
        # the working precision these were up to 95 ulps off
        with mpmath.workprec(prec):
            value = scaled_expint(s, [eta])[0]
        with mpmath.workprec(1000):
            exact = mpmath.exp(eta) * mpmath.expint(s, eta)
            ulps_off = abs(value - exact) / 2 ** (mpmath.mag(exact) - prec)
        assert ulps_off <= 2

    @pytest.mark.parametrize("s, eta", [(-100.25, 33.0), (-300.5, 100.0),
                                        (-50.5, 40.0), (-3.0, 50.0)])
    def test_negative_order_from_eta_32(self, s, eta):
        # a negative order from eta = 32 up goes to mpmath's expint: the
        # continued fraction, whose convergents change sign there, was 100 %
        # off at s < -eta in scaled_expint and in tricomi_u, which hands
        # these points to it
        with mpmath.workdps(60):
            ref = mpmath.quad(lambda v: mpmath.exp(-eta * v) * (1 + v) ** -s,
                              [0, 1, 10, mpmath.inf])
        with mpmath.workdps(40):
            assert abs(scaled_expint(s, [eta])[0] / ref - 1) <= 1e-35
        assert tricomi_u(1.0, 2.0 - s, eta) == pytest.approx(float(ref),
                                                             rel=1e-14)

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


class TestPowerMoments:
    @pytest.mark.parametrize("cx0, m0", [
        (0.1, 0.04), (0.1, 3.0), (0.5, 4000.3), (3.16, 7.7), (9.0, 40.0),
        # Y = 1 + c x0 = 11, t0 = 0.909: an integer m, where hyp2f1(72, 1,
        # 79, 0.909) is 3.9e-10 off, takes the recurrence in k
        (10.0, 40.0), (10.0, 3.0), (31.6, 0.04), (31.6, 400.0),
        (199.0, 20.5), (199.0, 1.0), (1000.0, 3.0), (1000.0, 41.3),
        # u = 17 at 48.9 dB (c = 0.4 rho) with theta n = 501
        (15_500.0, 501.0),
    ])
    def test_within_its_bound_of_mpmath(self, cx0, m0):
        # t0 from 0.09 to 0.999, m from 0.04 to 4032, both signs of b and
        # the cells around b = 0, against B_t0(k+1, b) at 30 digits
        x0, rows = 0.5, 17
        c = cx0 / x0
        logs, errs = power_moments(m0, rows, 50, c, x0)
        with mpmath.workdps(30):
            t0 = mpmath.mpf(c) * x0 / (1 + mpmath.mpf(c) * x0)
            for j in (0, 3, 16):
                m = m0 + 2 * j
                near = range(max(0, math.ceil(m) - 3), min(51, math.ceil(m) + 2))
                for k in sorted({*range(0, 51, 7), 50, *near}):
                    exact = (mpmath.log(mpmath.betainc(k + 1, m - k - 1, 0, t0))
                             - (k + 1) * mpmath.log(c))
                    assert abs(logs[j, k] - exact) <= errs[j, k], (j, k)

    def test_bound_stays_small_on_the_presets(self):
        # the head cells of the presets' Taylor terms that carry weight
        # (k = u - 1 = 7 to 29) keep their bound below the split's 10-digit
        # rule at 0-40 dB and theta n from 0.04 to 400; it is loosest near
        # Y = _HYP2F1_Y, where the recurrence starts (3.6e-11 at 20 dB)
        for rho_db in range(0, 41, 5):
            c = 0.2 * 10.0 ** (rho_db / 10.0)
            for m0 in (0.04, 3.0, 12.5, 400.0):
                errs = power_moments(m0, 17, 50, c, 0.5)[1]
                assert np.max(errs[:, 7:30]) < 1e-10, (rho_db, m0)


class TestPowerMomentsBatch:
    # an array m0 gives one slice per m0, each equal to its float call
    # bit for bit, in either branch of the b <= 0 cells

    @staticmethod
    def assert_slices_are_float_calls(m0s, rows, c, x0=0.5):
        logs, errs = power_moments(np.array(m0s), rows, 50, c, x0)
        assert logs.shape == errs.shape == (len(m0s), rows, 51)
        for i, m0 in enumerate(m0s):
            one_logs, one_errs = power_moments(float(m0), rows, 50, c, x0)
            assert np.array_equal(logs[i], one_logs), m0
            assert np.array_equal(errs[i], one_errs), m0

    @pytest.mark.parametrize("rho_db", [15.0, 20.0, 25.0])
    def test_fig4_to_fig6_theta_grids(self, rho_db):
        # m0 = theta n at n = 400, c = rho alpha_u: Y = 4.2, 11 and 32.6
        m0s = [theta * 400 for theta in np.logspace(-4, 0, 30)]
        for rows in (2, 17):
            self.assert_slices_are_float_calls(
                m0s, rows, 0.2 * db_to_linear(rho_db))

    @pytest.mark.parametrize("cx0", [4.0, 31.6])
    def test_batch_mixing_rows_with_and_without_positive_b(self, cx0):
        # m0 > 51 gives b > 0 in every cell of its rows; the batch takes
        # the b <= 0 branch of its other rows, at Y < 10 and at Y >= 10
        self.assert_slices_are_float_calls([0.04, 400.0, 3.0, 60.5, 51.0],
                                           17, cx0 / 0.5)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(log_cx0=st.floats(-1.5, 3.5),
           m0s=st.lists(st.floats(0.005, 6000.0), min_size=1, max_size=6),
           rows=st.sampled_from([1, 2, 17]))
    def test_box(self, log_cx0, m0s, rows):
        # Y from 1.03 to 3200 and m0 = theta n over the closed forms' box
        self.assert_slices_are_float_calls(m0s, rows, 2.0 * 10.0 ** log_cx0)


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
