import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sp

from nomafbl import specfun
from nomafbl.channel import db_to_linear
from nomafbl.specfun import (ConvergenceError, beta_fn, exp_integral_ei,
                             expint_ladders, gaussian_q, gaussian_q_inv,
                             power_moments, tricomi_u)


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
        # tricomi_u seed
        for z in (0.1, 0.5, 1.0, 5.0, 50.0, 2000.0):
            assert expint_ladders([z], 1)[0][1] == pytest.approx(
                float(sp.exp1(z) / np.exp(-z)) if z < 600 else 1 / (z + 1),
                rel=1e-9 if z < 600 else 2e-3)


def _exact50(s, eta):
    """e^eta E_s(eta) at 50 digits for s >= 0: mpmath's expint below
    eta = 32, and from there up, where that expint can be wholly wrong (at
    s = 400, eta = 1000 by a factor 1e271), the continued fraction of E_s,
    1 / (b_0 + a_1 / (b_1 + ...)) with b_i = eta + s + 2i and
    a_i = -i (s - 1 + i), by Lentz's method."""
    with mpmath.workdps(50):
        s, eta = mpmath.mpf(s), mpmath.mpf(eta)
        if eta < 32:
            return mpmath.exp(eta) * mpmath.expint(s, eta)
        f = c = eta + s
        d, i = mpmath.mpf(0), 1
        while abs(c * d - 1) > mpmath.mpf(10) ** -50:
            a, b = -i * (s - 1 + i), eta + s + 2 * i
            d, c = 1 / (b + a * d), b + a / c
            f *= c * d
            i += 1
        return 1 / f


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
        # integral.  The box reaches s ~ eta <= 500, past the switch from
        # expn to the continued fraction at eta = 32, up to (501, 500),
        # where mpmath's expint at 34 digits is 100 % off.  Non-integer
        # orders below 20 under eta = 0.5 have no float route (refused)
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
        # orders just off an integer
        box += [(m + ds, eta) for m in (1, 2, 4, 50, 400)
                for ds in (-1e-12, 1e-12, -1e-8, 1e-8)
                for eta in (1e-3, 0.15, 1.6, 20.0)]
        worst = 0.0
        for s, eta in box:
            if eta < 0.5 and s < 20.0 and not float(s).is_integer():
                continue
            ref = laplace(s, eta)
            worst = max(worst, abs(tricomi_u(1.0, 2.0 - s, eta) / ref - 1))
        assert worst <= 1e-10

    def test_float_routes_within_ulps_over_seed_box(self):
        # the float value of each route against a 50-digit reference
        # (_exact50), at the order 2 - b asked for, in units of 2^-52
        # relative: the box of the oracle test above, integer orders up to
        # eta = 1e4 (e^eta would overflow from 710), orders at eta
        # 0.45..0.95, and the strong split's tail band, s 1.5..14.5 at eta
        # 0.5..0.76, where box rows with u = V seed.  Each point's route
        # follows from (s, eta) alone, and a point with no route is
        # refused; near-integer orders from eta = 0.5 up have a route
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
        worst = {}
        for s, eta in box:
            b = 2.0 - s
            order = 2.0 - b
            route = ("expn" if order.is_integer() and 0.0 <= order <= 50.0
                     and eta < 32.0
                     else "fraction" if order >= 0.0 and (
                         eta >= 0.5 or order >= 20.0)
                     else None)
            if route is None:
                assert (s, eta) not in near or eta < 0.5
                with pytest.raises(ValueError, match="requires s = 2 - b"):
                    tricomi_u(1.0, b, eta)
                continue
            value = tricomi_u(1.0, b, eta)
            with mpmath.workdps(50):
                ulps = float(abs(value / _exact50(2 - mpmath.mpf(b), eta)
                                 - 1)) / 2.0 ** -52
            worst[route] = max(worst.get(route, 0.0), ulps)
        assert set(worst) == {"expn", "fraction"}
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

    @pytest.mark.parametrize("s, eta", [(-100.25, 33.0), (-300.5, 100.0),
                                        (-50.5, 40.0), (-3.0, 50.0)])
    def test_negative_order_from_eta_32(self, s, eta):
        # a negative order has no float route and is refused, naming its s
        # and z: the continued fraction, whose convergents change sign
        # there, was 100 % off at s < -eta
        b = 2.0 - s
        with pytest.raises(ValueError, match=re.escape(f"s={2.0 - b}, "
                                                       f"z={eta}")):
            tricomi_u(1.0, b, eta)

    @pytest.mark.parametrize("s, eta", [
        (-0.5, 1e-4), (-2.7, 0.3), (-33.3, 100.0), (1e-12, 1e-4),
        (1.0 - 1e-8, 0.02), (4.0 + 1e-12, 0.45), (19.0 - 1e-8, 0.45),
        (0.3, 1e-4), (7.7, 0.49), (19.5, 0.49)])
    def test_order_without_a_float_route_is_refused(self, s, eta):
        # s < 0, and a non-integer s < 20 below eta = 0.5, where the
        # fraction needs from 232 steps up; no closed form seeds there
        b = 2.0 - s
        with pytest.raises(ValueError, match=re.escape(f"s={2.0 - b}, "
                                                       f"z={eta}")):
            tricomi_u(1.0, b, eta)

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


def _fraction_loop(s, eta, tol):
    """The scalar Steed loop that specfun._fraction replaced, one element
    in Python floats, kept as its reference: (value, depth)."""
    c, s1 = eta + s, s - 1.0
    b = c + 2.0
    d = 1.0 / b
    step = -s * d
    total = c + step
    depth = 1
    while not -tol * total <= step <= tol * total:
        depth += 1
        if depth > 10_000:
            raise ConvergenceError(
                f"E_s fraction unconverged at s={s}, eta={eta}")
        b += 2.0
        d = 1.0 / (b - depth * (s1 + depth) * d)
        step *= b * d - 1.0
        total += step
    h = c + 2 * depth
    for i in range(depth, 0, -1):
        h = c + 2 * (i - 1) - i * (s1 + i) / h
    return 1.0 / h, depth


class TestArrayFraction:
    def test_matches_scalar_loop_over_seed_box(self):
        # one call over the seed box, s 0..400 and eta 0.5..1000, whose
        # elements stop at depths from 1 to 176: each equals the scalar
        # loop, bit for bit
        s, eta = (x.ravel() for x in np.meshgrid(
            np.concatenate([[0.0, 1.0, 3.0, 3.3, 19.5, 20.0, 50.0],
                            np.geomspace(0.04, 400.0, 25)]),
            np.geomspace(0.5, 1000.0, 25)))
        tol = 2.0 ** -56
        values = specfun._fraction(s, eta, tol)
        refs, depths = zip(*(_fraction_loop(a, b, tol)
                             for a, b in zip(s.tolist(), eta.tolist())))
        assert np.array_equal(values, refs)
        assert min(depths) == 1 and max(depths) > 150

    def test_unconverged_element_names_itself(self):
        # at eta = 1e-7 the fraction needs far more than 10,000 steps; the
        # call raises, naming that element's s and eta, as the loop does
        s, eta = np.array([3.0, 0.5, 7.0]), np.array([2.0, 1e-7, 40.0])
        with pytest.raises(ConvergenceError, match=r"s=0\.5, eta=1e-07"):
            specfun._fraction(s, eta, 2.0 ** -56)
        with pytest.raises(ConvergenceError, match=r"s=0\.5, eta=1e-07"):
            _fraction_loop(0.5, 1e-7, 2.0 ** -56)


class TestSeedRoutes:
    # orders and etas that mix both routes: integer orders (3.0 is the
    # fig3 and validate strong seed) on both sides of eta = 32,
    # non-integer orders from eta = 0.5 up and orders >= 20 below it
    S = np.array([3.0, 3.0, 3.0, 7.3, 7.3, 25.5, 2.5, 1.0, 46.0, 0.0, 50.0])
    ETA = np.array([0.01, 2.0, 40.0, 2.0, 40.0, 0.05, 0.5, 0.2, 45.0, 5.0,
                    31.9])

    def test_each_element_equals_its_one_element_call(self):
        # where a call mixes routes, each element is its own call's value;
        # integer orders below eta = 32 stay on expn: sent to the fraction,
        # the seeds at s = 3 moved four fig3 strong values in their last
        # digits
        values = tricomi_u(1.0, 2.0 - self.S, self.ETA)
        for value, b, eta in zip(values, (2.0 - self.S).tolist(),
                                 self.ETA.tolist()):
            assert value == tricomi_u(1.0, b, eta)
            s = 2.0 - b
            if s.is_integer() and 0.0 <= s <= 50.0 and eta < 32.0:
                assert value == sp.expn(int(s), eta) * math.exp(eta)

    def test_first_refused_element_is_named(self):
        # a call with elements off both routes refuses the whole call,
        # naming the first of them
        s = np.append(self.S, [2.5, -1.5])
        eta = np.append(self.ETA, [0.2, 3.0])
        with pytest.raises(ValueError, match=r"s=2\.5, z=0\.2"):
            tricomi_u(1.0, 2.0 - s, eta)

    def test_order_broadcasts_against_eta(self):
        # from eta = 0.5 up every order has a route, expn or the fraction
        eta = self.ETA[self.ETA >= 0.5]
        values = tricomi_u(1.0, (2.0 - self.S)[:, None], eta)
        assert values.shape == (self.S.size, eta.size)
        for i, b in enumerate((2.0 - self.S).tolist()):
            assert np.array_equal(values[i], tricomi_u(1.0, b, eta))

    def test_ladders_of_mixed_orders_equal_their_own(self):
        # one expint_ladders call with one s0 per eta: each ladder equals
        # its one-eta call, bit for bit
        s0 = np.array([3.0, 3.3, 0.0, 3.0, 0.04, 3.3])
        etas = [0.6, 2.0, 40.0, 33.0, 6.58, 45.0]
        batch = expint_ladders(etas, 32, s0)
        for ladder, eta, s in zip(batch, etas, s0.tolist()):
            assert np.array_equal(ladder, expint_ladders([eta], 32, s)[0])


class TestLadderRecurrence:
    @pytest.mark.parametrize("etas, s0, s_max", [
        # the weak shape: 2 ladders of 501 rungs at eta = lambda_r d, 0 dB
        (np.array([45.0, 50.0]), np.zeros(2), 500),
        # the strong shape: 1,200 ladders of 33 rungs, s0 0.04..400 and
        # eta 1.55..6.58 as in a fig4-fig6 pass
        (np.geomspace(1.55, 6.58, 1200),
         np.geomspace(0.04, 400.0, 1200)[::-1], 32),
    ], ids=["weak", "strong"])
    def test_columns_equal_rows(self, etas, s0, s_max):
        # expint_ladders picks the recurrence from the call's shape; both
        # give the same ladders, bit for bit, so the shape moves no value
        k0 = np.clip(np.ceil(etas - s0) + 1.0, 0, s_max).astype(int)
        seeds = tricomi_u(1.0, 2.0 - (s0 + k0), etas)
        rows = specfun._ladder_rows(etas, s0, k0, seeds, s_max)
        columns = specfun._ladder_columns(etas, s0, k0, seeds, s_max)
        assert rows.shape == columns.shape == (etas.size, s_max + 1)
        assert np.array_equal(rows, columns)
        assert np.array_equal(rows, expint_ladders(etas, s_max, s0))


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
