import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import special

from nomafbl.channel import (SystemConfig, db_to_linear, gamma_for_role,
                             sinr_weak)
from nomafbl.eccalc import (EvalControls, _int_ladder, _mc_gain_chunks,
                            _weak_series, ec_closed_strong, ec_closed_weak,
                            ec_monte_carlo, ec_quadrature, evaluate)
from nomafbl.fblrate import LN2, ec_kernel, fbl_rate, make_kernel_params
from nomafbl.specfun import tricomi_u

POOL = dict(V=10, t=2, u=8, alpha_t=0.8, alpha_u=0.2, n=300, eps=1e-5,
            theta_t=0.01, theta_u=0.01)


def make_cfg(rho_db=20.0, **overrides):
    params = {**POOL, "rho": db_to_linear(rho_db), **overrides}
    return SystemConfig(**params)


class TestControls:
    def test_validation(self):
        with pytest.raises(ValueError):
            EvalControls(mc_samples=0)
        with pytest.raises(ValueError):
            EvalControls(series_max_terms=1)
        with pytest.raises(ValueError):
            EvalControls(quad_rel_tol=0.0)


class TestDegenerateEps:
    @pytest.mark.parametrize("method", ["closed_form", "monte_carlo",
                                        "quadrature"])
    @pytest.mark.parametrize("role", ["weak", "strong"])
    def test_eps_one_gives_zero(self, method, role):
        cfg = make_cfg(eps=1.0)
        res = evaluate(cfg, role, method, EvalControls(mc_samples=100))
        assert res.value == 0.0


class TestMonteCarlo:
    def test_deterministic(self):
        cfg = make_cfg()
        ctl = EvalControls(mc_samples=70_000, seed=99)
        a = ec_monte_carlo(cfg, "strong", ctl)
        b = ec_monte_carlo(cfg, "strong", ctl)
        assert a.value == b.value
        assert a.std_error == b.std_error

    def test_chunk_boundary(self):
        # crossing the fixed chunk size must not break reproducibility
        cfg = make_cfg()
        ctl = EvalControls(mc_samples=(1 << 16) + 777, seed=4)
        assert ec_monte_carlo(cfg, "weak", ctl).value == \
            ec_monte_carlo(cfg, "weak", ctl).value

    def test_note_states_samples_and_seed(self):
        res = ec_monte_carlo(make_cfg(), "weak",
                             EvalControls(mc_samples=5000, seed=8))
        assert res.note == "5000 samples, seed 8"

    def test_small_theta_ergodic_limit(self):
        # as theta -> 0 the capacity approaches (1 - eps) E[rate]; the rate
        # average is built from the same fading draws via seed reuse
        cfg = make_cfg(theta_t=1e-6, theta_u=1e-6)
        ctl = EvalControls(mc_samples=150_000, seed=21)
        for col, role in enumerate(("weak", "strong")):
            ec = ec_monte_carlo(cfg, role, ctl)
            rates = np.concatenate([
                fbl_rate(gamma_for_role(pair[col], cfg, role), cfg.n, 1e-5)
                for pair in _mc_gain_chunks(cfg, ctl)])
            assert rates.size == ctl.mc_samples
            se = rates.std() / math.sqrt(rates.size)
            target = (1.0 - 1e-5) * rates.mean()
            assert abs(ec.value - target) <= 2.0 * (se + ec.std_error)

    def test_agrees_with_quadrature(self):
        rng = np.random.default_rng(13)
        ctl = EvalControls(mc_samples=60_000, seed=3)
        for _ in range(6):
            cfg = make_cfg(
                rho_db=float(rng.uniform(0.0, 35.0)),
                n=int(rng.integers(100, 800)),
                eps=float(10.0 ** rng.uniform(-7, -2)),
                theta_t=float(rng.uniform(1e-3, 0.04)),
                theta_u=float(rng.uniform(1e-3, 0.04)),
            )
            role = "weak" if rng.random() < 0.5 else "strong"
            mc = ec_monte_carlo(cfg, role, ctl)
            quad = ec_quadrature(cfg, role, ctl, "exact")
            assert abs(mc.value - quad.value) <= 4.0 * mc.std_error


class TestQuadrature:
    def test_variant_validation(self):
        with pytest.raises(ValueError):
            ec_quadrature(make_cfg(), "weak", EvalControls(), "fancy")

    def test_exact_vs_approx_gap_is_small_at_reference(self):
        ctl = EvalControls()
        cfg = make_cfg()
        exact = ec_quadrature(cfg, "strong", ctl, "exact").value
        approx = ec_quadrature(cfg, "strong", ctl, "approx").value
        assert abs(approx - exact) / exact < 0.02

    def test_resolves_kernel_spike_at_large_theta(self):
        # at large theta the exact kernel has an interior maximum from the
        # dispersion term; the integrator must find it
        cfg = make_cfg(n=400, eps=1e-6, theta_t=1.0, theta_u=1.0)
        res = ec_quadrature(cfg, "weak", EvalControls(), "exact")
        kp = make_kernel_params(1.0, 400, 1e-6)
        grid = np.logspace(-6, 0.6, 4000)
        xs = np.logspace(-9, 1.2, 200_000)
        from nomafbl.channel import ordered_pdf
        brute = np.trapezoid(
            ec_kernel(sinr_weak(xs, cfg), kp, 1e-6) * ordered_pdf(xs, 2, 10),
            xs)
        assert math.exp(-res.value * 1.0 * 400 * LN2) == pytest.approx(
            brute, rel=1e-3)


    @pytest.mark.parametrize("role, expected", [("weak", -0.03514),
                                                ("strong", -0.02244)])
    def test_exact_kernel_at_very_large_theta(self, role, expected):
        # theta = 10, n = 400, eps = 1e-6: beta ~ 951, so (1+g)^(2 zeta)
        # underflows where e^(beta delta) overflows unless the kernel is
        # evaluated as one exponent; checked against a log-domain trapezoid
        # rule in ln(gain) that shares no code with ec_kernel
        theta, n, eps = 10.0, 400, 1e-6
        cfg = make_cfg(n=n, eps=eps, theta_t=theta, theta_u=theta)
        res = ec_quadrature(cfg, role, EvalControls(), "exact")
        k, V = cfg.order_index(role), cfg.V
        u = np.linspace(-40.0, 4.0, 200_001)
        x = np.exp(u)
        g = gamma_for_role(x, cfg, role)
        beta = theta * math.sqrt(n) * -special.ndtri(eps)
        log_k = np.logaddexp(
            math.log(eps), math.log1p(-eps) - theta * n * np.log1p(g)
            + beta * np.sqrt(g * (g + 2.0)) / (1.0 + g))
        log_pdf = (-special.betaln(k, V - k + 1)
                   + (k - 1) * np.log(-np.expm1(-x)) - (V - k + 1) * x)
        w = np.full(u.size, u[1] - u[0])
        w[[0, -1]] *= 0.5
        log_mean = special.logsumexp(log_k + log_pdf + u, b=w)
        assert res.value == pytest.approx(
            -log_mean / (theta * n * LN2), rel=1e-9)
        assert res.value == pytest.approx(expected, abs=1e-5)


def _weak_series_loop(c, q, d, ladder, log_prefactor, ctl):
    """Term-by-term reference for eccalc._weak_series (one c at a time)."""
    log_q = math.log(abs(q))
    sign_q = -1.0 if q < 0.0 else 1.0
    log_coef, sign, total, tail = log_prefactor, 1.0, 0.0, math.inf
    s_max = min(ctl.series_max_terms, ladder.size - 1)
    prev_log, log_ratio, s_used = None, math.inf, 0
    for s in range(s_max + 1):
        if s > 0:
            step = c - (s - 1)
            log_coef += math.log(abs(step)) - math.log(s) + log_q
            sign *= (1.0 if step > 0.0 else -1.0) * sign_q
        log_term = log_coef + math.log(d * ladder[s])
        if log_term > 700.0:
            return total, s, math.inf, "diverging"
        total += sign * math.exp(log_term)
        s_used = s
        if prev_log is not None:
            log_ratio = log_term - prev_log
            if s >= 2 and log_ratio < 0.0:
                ratio = math.exp(log_ratio)
                tail = math.exp(log_term) * ratio / (1.0 - ratio)
                if tail <= ctl.series_rel_tol * abs(total) \
                        or (total == 0.0 and log_term < -700.0):
                    return total, s, tail, "ok"
        prev_log = log_term
    if log_ratio >= 0.0:
        return total, s_used, math.inf, "diverging"
    return total, s_used, tail, "truncated"


class TestClosedFormSeries:
    def test_weak_series_matches_term_by_term_reference(self):
        # the series runs all moments at once; sums may differ from the
        # sequential loop only in the last bits of np.exp / np.log
        cfg = make_cfg(rho_db=0.0)
        q = -cfg.alpha_t / (cfg.alpha_t + cfg.alpha_u)
        d = 1.0 / (cfg.rho * cfg.alpha_u)
        cs = np.array([-3.0, -5.0, -35.0, -60.0, -400.0])
        log_pref = cs * math.log(1.0 / cfg.alpha_u)
        for budget in (2, 200, 500):
            ctl = EvalControls(series_max_terms=budget)
            ladder = _int_ladder(9 * d, budget)
            sums, terms, tails, status = _weak_series(cs, q, d, ladder,
                                                      log_pref, ctl)
            for i, c in enumerate(cs):
                ref = _weak_series_loop(c, q, d, ladder, log_pref[i], ctl)
                assert (terms[i], status[i]) == (ref[1], ref[3])
                assert sums[i] == pytest.approx(ref[0], rel=1e-12, abs=0.0)
                assert tails[i] == pytest.approx(ref[2], rel=1e-12, abs=0.0)
            assert status[-1] == "diverging"
        assert status == ["ok", "ok", "ok", "truncated", "diverging"]

    @pytest.mark.parametrize("eta, s0", [(0.05, 3.0), (1.2, 6.4),
                                         (8.0, 3.0), (40.0, 2.5)])
    def test_real_order_ladder(self, eta, s0):
        # one Tricomi seed per eta, run in the stable direction, gives
        # every rung I_{s0+k} = U(1, 2 - s0 - k, eta)
        ladder = _int_ladder(eta, 34, s0)
        for k in (0, 1, 2, 17, 34):
            assert ladder[k] == pytest.approx(
                tricomi_u(1.0, 2.0 - s0 - k, eta), rel=1e-10)


class TestClosedForms:
    def test_strong_matches_quadrature_oracle(self):
        ctl = EvalControls()
        for rho_db in (0.0, 10.0, 20.0, 30.0, 40.0):
            cfg = make_cfg(rho_db=rho_db)
            closed = ec_closed_strong(cfg, ctl)
            oracle = ec_quadrature(cfg, "strong", ctl, "approx")
            assert closed.value == pytest.approx(oracle.value, rel=1e-6)

    def test_strong_within_its_bound_at_small_eta(self):
        # 40 dB with theta n = 26 seeds every ladder at eta = 1.5e-3..5e-3,
        # where tricomi_u's tail follows the power law; with the tail lost
        # the closed form was 3.8e-3 bits/cu off, 1500 times its bound
        cfg = make_cfg(rho_db=40.0, n=400, eps=1e-6, theta_t=0.065,
                       theta_u=0.065)
        ctl = EvalControls()
        closed = ec_closed_strong(cfg, ctl)
        oracle = ec_quadrature(cfg, "strong", ctl, "approx",
                               closed.expansion_order)
        assert abs(closed.value - oracle.value) <= \
            closed.tail_bound + oracle.tail_bound

    def test_weak_matches_quadrature_oracle(self):
        ctl = EvalControls()
        for rho_db in (0.0, 10.0, 20.0, 30.0, 40.0):
            cfg = make_cfg(rho_db=rho_db)
            closed = ec_closed_weak(cfg, ctl)
            oracle = ec_quadrature(cfg, "weak", ctl, "approx")
            gate = max(1e-4, closed.tail_bound or 0.0)
            assert abs(closed.value - oracle.value) <= gate
            assert closed.converged

    def test_weak_power_backoff_generalization(self):
        # the binomial expansion also covers alpha_t + alpha_u < 1
        ctl = EvalControls()
        cfg = make_cfg(alpha_t=0.65, alpha_u=0.15, allow_power_backoff=True)
        closed = ec_closed_weak(cfg, ctl)
        oracle = ec_quadrature(cfg, "weak", ctl, "approx")
        assert closed.value == pytest.approx(oracle.value, abs=1e-7)

    def test_weak_series_diverges_to_fallback(self):
        cfg = make_cfg(n=400, eps=1e-6, theta_t=1.0, theta_u=1.0)
        ctl = EvalControls()
        res = ec_closed_weak(cfg, ctl)
        assert not res.converged
        assert "quadrature" in res.note
        oracle = ec_quadrature(cfg, "weak", ctl, "approx")
        assert res.value == pytest.approx(oracle.value, rel=1e-12)

    def test_forced_truncation_flag(self):
        res = ec_closed_weak(make_cfg(), EvalControls(series_max_terms=2))
        assert not res.converged

    def test_negative_capacity_flagged(self):
        res = ec_closed_weak(make_cfg(rho_db=-10.0), EvalControls())
        assert res.value < 0.0
        assert "infeasible" in res.note

    def test_paper_order_reproduces_first_derivation(self):
        # at order (2, 1) the closed forms are the ones first derived; these
        # fig3 values were computed by that implementation.  The weak user
        # matches to 1e-12.  The strong user's old values took two separate
        # Tricomi quadratures per eta into an alternating sum whose rounding
        # the reported tail_bound covers (up to about 1e-6 bits at 15-25 dB)
        first_derived = {
            0.0: (-0.00441327928439427, 0.117316668410792),
            10.0: (0.5939324221564581, 1.4134823727282848),
            20.0: (1.5367828107950892, 4.095527073691053),
            30.0: (1.9356651146491983, 5.5256352912345035),
            40.0: (1.9862343948538301, 5.5365355651304125),
        }
        ctl = EvalControls()
        for rho_db, (weak, strong) in first_derived.items():
            cfg = make_cfg(rho_db=rho_db)
            w = ec_closed_weak(cfg, ctl, order=(2, 1))
            s = ec_closed_strong(cfg, ctl, order=(2, 1))
            assert w.expansion_order == s.expansion_order == (2, 1)
            assert abs(w.value - weak) <= 1e-12
            assert abs(s.value - strong) <= s.tail_bound

    def test_default_order_tracks_exact_kernel_at_0db(self):
        # the 0 dB row of fig3, where the second-order kernel is off by
        # 113 % (weak) and 11 % (strong): the default order lands within
        # its own reported bounds of the exact-kernel oracle
        ctl = EvalControls()
        cfg = make_cfg(rho_db=0.0)
        for role, closed_form, rel_gate in (("weak", ec_closed_weak, 0.03),
                                            ("strong", ec_closed_strong,
                                             1e-3)):
            closed = closed_form(cfg, ctl)
            exact = ec_quadrature(cfg, role, ctl, "exact")
            gap = abs(closed.value - exact.value)
            assert closed.converged and closed.value > 0.0
            assert closed.expansion_order != (2, 1)
            assert gap <= closed.tail_bound + closed.expansion_bound \
                + exact.tail_bound
            assert gap <= rel_gate * exact.value
            assert f"order {closed.expansion_order}" in closed.note

    def test_fallback_states_its_kernel(self):
        # the large-theta fallback is the second-order kernel's quadrature,
        # which no expansion bound covers; the row says so
        cfg = make_cfg(n=400, eps=1e-6, theta_t=1.0, theta_u=1.0)
        res = ec_closed_weak(cfg, EvalControls())
        assert not res.converged
        assert res.expansion_order == (2, 1)
        assert res.expansion_bound == math.inf
        assert "order (2, 1)" in res.note and "quadrature" in res.note

    def test_weak_interference_ceiling(self):
        # at very high SNR the weak user saturates at the kernel value of
        # the interference-limited SINR ceiling; each method is bounded by
        # the cap computed from its own kernel
        from nomafbl.fblrate import ec_kernel_approx
        ctl = EvalControls(mc_samples=60_000)
        cfg = make_cfg(rho_db=60.0)
        kp = make_kernel_params(0.01, 300, 1e-5)
        ceiling = cfg.alpha_t / cfg.alpha_u
        cap_closed = -math.log(ec_kernel_approx(ceiling, kp, 1e-5)) \
            / (0.01 * 300 * LN2)
        cap_exact = -math.log(ec_kernel(ceiling, kp, 1e-5)) \
            / (0.01 * 300 * LN2)
        assert ec_closed_weak(cfg, ctl).value <= cap_closed + 1e-3
        assert ec_quadrature(cfg, "weak", ctl, "exact").value \
            <= cap_exact + 1e-3
        assert ec_monte_carlo(cfg, "weak", ctl).value <= cap_exact + 1e-3

    def test_strong_alternating_sum_stability(self):
        # recompute the strong-user bracket in both summation orders
        cfg = make_cfg()
        kp = make_kernel_params(0.01, 300, 1e-5)
        d = 1.0 / (cfg.rho * cfg.alpha_u)
        terms = []
        for i in range(cfg.u):
            eta = (cfg.V - cfg.u + 1 + i) * d
            combo = tricomi_u(1.0, 2.0 + 2 * kp.zeta, eta) * (kp.kappa + 1) \
                - tricomi_u(1.0, 2 * kp.zeta, eta) * (kp.kappa - kp.beta / 2)
            terms.append(math.comb(cfg.u - 1, i) * combo
                         * (-1.0 if i % 2 else 1.0))
        fwd = math.fsum(terms)
        rev = math.fsum(reversed(terms))
        assert fwd == pytest.approx(rev, rel=1e-9)

    def test_monotone_in_theta(self):
        ctl = EvalControls()
        thetas = np.logspace(-4, 0, 12)
        for role in ("weak", "strong"):
            vals = [evaluate(replace(make_cfg(n=400, eps=1e-6), theta_t=th,
                                     theta_u=th), role, "closed_form",
                             ctl).value
                    for th in thetas]
            assert all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))

    def test_monotone_in_rho(self):
        ctl = EvalControls()
        for role in ("weak", "strong"):
            vals = [evaluate(make_cfg(rho_db=db), role, "closed_form",
                             ctl).value
                    for db in range(0, 42, 6)]
            assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_method_dispatch(self):
        with pytest.raises(ValueError):
            evaluate(make_cfg(), "weak", "tea_leaves", EvalControls())
        with pytest.raises(ValueError):
            evaluate(make_cfg(), "both", "closed_form", EvalControls())
