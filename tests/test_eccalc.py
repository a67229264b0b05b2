import math
import os
import random
import subprocess
import sys
import threading
import warnings
from dataclasses import replace
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from nomafbl import eccalc, specfun
from nomafbl.channel import (ROLES, SystemConfig, db_to_linear,
                             gain_for_gamma, gamma_for_role, ordered_mixture,
                             ordered_pdf, ordered_quantile, scalar_integrand)
from nomafbl.eccalc import (_NEGATIVE, METHODS, SERIES_REL_TOL, EcResult,
                            EvalControls, _weak_series,
                            ec_closed_strong, ec_closed_weak, ec_monte_carlo,
                            ec_quadrature, evaluate, evaluate_batch,
                            mc_gain_draws)
from nomafbl.fblrate import (LN2, PAPER_ORDER, dispersion_root, ec_kernel,
                             expansion_coeffs, fbl_rate, make_kernel_params,
                             rate_minimum, scalar_kernel)
from nomafbl.specfun import ConvergenceError, expint_ladders, tricomi_u
from nomafbl.sweep import FIG3_POINT, figure_preset, pool_config, run_sweep

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
        with pytest.raises(ValueError, match="seed"):
            EvalControls(seed=-1)


class TestEpsNearOne:
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("role", ROLES)
    def test_capacity_vanishes(self, method, role):
        # below eps = 1 (which SystemConfig refuses) the kernel lies in
        # (eps, 1), so 0 < C_e < -log2(eps) / (theta n)
        cfg = make_cfg(eps=1.0 - 1e-6)
        res = evaluate(cfg, role, method, EvalControls(mc_samples=1000))
        assert 0.0 < res.value < -math.log2(cfg.eps) / (0.01 * cfg.n)


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
        for role in ("weak", "strong"):
            ec = ec_monte_carlo(cfg, role, ctl)
            draws = mc_gain_draws(cfg.order_index(role), cfg.V, ctl.seed,
                                  ctl.mc_samples)
            rates = np.concatenate([
                fbl_rate(gamma_for_role(x, cfg, role), cfg.n, 1e-5)
                for x in draws])
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

    def test_exact_kernel_refuses_an_order(self):
        with pytest.raises(ValueError, match="exact kernel"):
            ec_quadrature(make_cfg(), "weak", EvalControls(), "exact",
                          PAPER_ORDER)

    def test_exact_vs_approx_gap_is_small_at_reference(self):
        ctl = EvalControls()
        cfg = make_cfg()
        exact = ec_quadrature(cfg, "strong", ctl, "exact").value
        approx = ec_quadrature(cfg, "strong", ctl, "approx").value
        assert abs(approx - exact) / exact < 0.02

    @pytest.mark.parametrize("variant, expected", [
        ("approx", 0.029056535576364142), ("exact", 0.029056447183616406)])
    def test_breaks_where_gamma_is_one(self, variant, expected):
        # at 49 dB with theta n = 694 the kernel's mass sits near gamma = 1,
        # far below every quantile breakpoint; breaking only at those gave
        # 6.8e-8 (approx) and 1.1e-6 (exact) relative errors with error
        # estimates of 1e-16.  Values from a 40-digit mpmath quadrature
        alpha_t = 0.8060464884840143
        cfg = SystemConfig(V=2, t=1, u=2, alpha_t=alpha_t,
                           alpha_u=1.0 - alpha_t, rho=87866.59022508598,
                           n=1901, eps=8.474824899382552e-07,
                           theta_t=0.3651629118661908,
                           theta_u=0.3651629118661908)
        res = ec_quadrature(cfg, "strong", EvalControls(), variant)
        assert res.value == pytest.approx(expected, rel=1e-10)

    def test_resolves_kernel_spike_at_large_theta(self):
        # at large theta the exact kernel has an interior maximum from the
        # dispersion term; the integrator must find it
        cfg = make_cfg(n=400, eps=1e-6, theta_t=1.0, theta_u=1.0)
        res = ec_quadrature(cfg, "weak", EvalControls(), "exact")
        kp = make_kernel_params(1.0, 400, 1e-6)
        grid = np.logspace(-6, 0.6, 4000)
        xs = np.logspace(-9, 1.2, 200_000)
        brute = np.trapezoid(
            ec_kernel(gamma_for_role(xs, cfg, "weak"), kp, 1e-6)
            * ordered_pdf(xs, 2, 10), xs)
        assert math.exp(-res.value * 1.0 * 400 * LN2) == pytest.approx(
            brute, rel=1e-3)


    def test_integrate_loads_on_first_quadrature(self):
        # closed forms, Monte-Carlo and the queue simulator never import
        # scipy.integrate; the first quadrature binds it as eccalc.integrate
        script = """if True:
            import sys
            import nomafbl as nf
            cfg = nf.SystemConfig(V=10, t=2, u=8, alpha_t=0.8, alpha_u=0.2,
                                  rho=100.0, n=300, eps=1e-5, theta_t=0.01,
                                  theta_u=0.01)
            ctl = nf.EvalControls(mc_samples=1000)
            mu = 0.9 * nf.ec_closed_strong(cfg, ctl).value
            nf.ec_monte_carlo(cfg, "strong", ctl)
            nf.run_queue_sim(nf.SimSpec(cfg=cfg, role="strong",
                                        arrival_rate=mu, num_blocks=20_000))
            assert "scipy.integrate" not in sys.modules
            nf.ec_quadrature(cfg, "strong", ctl)
            import scipy.integrate
            assert nf.eccalc.integrate.quad is scipy.integrate.quad
        """
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=300,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("variant", ["exact", "approx"])
    @pytest.mark.parametrize("role", ROLES)
    def test_head_panel_breaks_at_rate_minimum(self, monkeypatch, role,
                                               variant):
        # the kernel peaks at gamma*, for every theta: its gain is among
        # the breakpoints of the head panel
        calls, quad = [], eccalc.integrate.quad
        monkeypatch.setattr(eccalc.integrate, "quad", lambda *a, **kw: (
            calls.append(kw.get("points")) or quad(*a, **kw)))
        cfg = make_cfg(n=400, eps=1e-6, theta_t=1.0, theta_u=1.0)
        ec_quadrature(cfg, role, EvalControls(), variant)
        peak = gain_for_gamma(rate_minimum(400, 1e-6), cfg, role)
        assert peak in calls[0]

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

    def test_kernel_overflow_is_a_convergence_error(self):
        # at eps = 1e-300 and theta = 3 the exact kernel's exponent passes
        # e^709; sweeps record a ConvergenceError as a failed row
        cfg = make_cfg(n=400, eps=1e-300, theta_t=3.0, theta_u=3.0)
        with np.errstate(over="ignore"), pytest.raises(ConvergenceError):
            ec_quadrature(cfg, "weak", EvalControls(), "exact")

    @pytest.mark.parametrize("theta", [1e-4, 1.0, 10.0])
    @pytest.mark.parametrize("order", [None, PAPER_ORDER, (13, 16)])
    @pytest.mark.parametrize("role", ROLES)
    def test_integrand_matches_vector_functions(self, role, order, theta):
        # order None is the exact kernel.  The two sides round exp, log1p
        # and pow differently (numpy's SIMD loops and BLAS's fused
        # multiply-add against libm), and the kernel's exponent and the
        # expansion's alternating sum amplify that, so the gap is held to
        # 1e-14 of the integrand's condition: its value times the
        # exponent's term magnitudes (exact), or the integrand with the
        # polynomial's terms taken in absolute value (approx).  Measured
        # at most 1.6e-15.  At theta = 10 the exact kernel overflows unless
        # it is one exponent.
        eps = 1e-6
        cfg = make_cfg(n=400, eps=eps, theta_t=theta, theta_u=theta)
        kp = make_kernel_params(theta, cfg.n, eps)
        k = cfg.order_index(role)
        x_hi = ordered_quantile(1.0 - 1e-6, k, cfg.V)
        xs = np.logspace(-9.0, math.log10(2.0 * x_hi), 300)
        g = gamma_for_role(xs, cfg, role)
        pdf = ordered_pdf(xs, k, cfg.V)
        if order is None:
            want = ec_kernel(g, kp, eps) * pdf
            scale = want * np.maximum(
                1.0, np.abs(2.0 * kp.zeta * np.log1p(g))
                + np.abs(kp.beta * dispersion_root(g)))
        else:
            # the expansion spelled in numpy: powers of w against a
            a = expansion_coeffs(kp.beta, order)
            powers = ((1.0 + g) ** -2.0)[:, None] ** np.arange(a.size)
            base = (1.0 - eps) * (1.0 + g) ** (2.0 * kp.zeta)
            want = (eps + base * (powers @ a)) * pdf
            scale = (eps + base * (powers @ np.abs(a))) * pdf
        integrand = scalar_integrand(cfg, role, scalar_kernel(kp, eps, order))
        got = np.array([integrand(float(x)) for x in xs])
        assert np.all(want > 0.0)
        assert np.all(np.abs(got - want) <= 1e-14 * scale)

    @pytest.mark.parametrize("n, eps, theta, role, variant, value, note", [
        (400, 1e-6, 1.0, "weak", "approx", 0.04176281295639041,
         "approx kernel at order (2, 1); 315 + 75 integrand evaluations, "
         "15 + 3 subintervals"),
        (300, 1e-5, 0.01, "weak", "exact", 1.5216427900278409,
         "exact kernel; 315 + 75 integrand evaluations, 15 + 3 subintervals"),
        (300, 1e-5, 0.01, "weak", "approx", 1.5216398545244625,
         "approx kernel at order (12, 16); 315 + 75 integrand evaluations, "
         "15 + 3 subintervals"),
        (300, 1e-5, 0.01, "strong", "exact", 4.07744539833393,
         "exact kernel; 315 + 105 integrand evaluations, "
         "15 + 4 subintervals"),
        (300, 1e-5, 0.01, "strong", "approx", 4.077445398334631,
         "approx kernel at order (12, 16); 315 + 105 integrand evaluations, "
         "15 + 4 subintervals"),
    ])
    def test_values_and_node_counts_frozen(self, n, eps, theta, role, variant,
                                           value, note):
        # at 20 dB: the fig4-fig6 point at theta = 1, where the weak
        # user's series diverges and falls back to this quadrature, and the
        # validate point.  The validate point's values and QUADPACK's counts
        # are those of the earlier integrand built from the vector
        # functions; the float integrand reproduces them bit for bit.  The
        # theta = 1 pin is that of the head panel split at the rate minimum
        # gamma* (fblrate.rate_minimum)
        cfg = make_cfg(n=n, eps=eps, theta_t=theta, theta_u=theta)
        res = ec_quadrature(cfg, role, EvalControls(), variant)
        assert res.value == value
        assert res.note == note


def tanhsinh_capacity(cfg, role, variant):
    """The effective capacity by scipy's tanh-sinh quadrature in log space,
    on ec_quadrature's panels, as an oracle independent of QUADPACK: the
    log kernel (exact, or expanded at ec_quadrature's order) plus the log
    of the ordered density written out with betaln.  Returns the value and
    a bound on its error from tanhsinh's relative error estimate or ten
    times its rtol, whichever is larger: the estimate is a heuristic.  At
    rtol 1e-10 its mean was up to 8.8e-10 off (weak user, approx kernel,
    29.3 dB, theta = 0.066), and at 1e-12, which costs no more, up to
    2.7e-12 (strong user, approx kernel, 0 dB, theta = 1); a 30-digit
    mpmath quadrature sides with QUADPACK at both."""
    theta, eps = cfg.theta_for(role), cfg.eps
    kp = make_kernel_params(theta, cfg.n, eps)
    k, V = cfg.order_index(role), cfg.V
    a = (None if variant == "exact"
         else expansion_coeffs(kp.beta, eccalc._order(kp, None)))
    log_b = special.betaln(k, V - k + 1)

    def log_integrand(x):
        g = gamma_for_role(x, cfg, role)
        log_g1 = np.log1p(g)
        if a is None:
            log_k = np.logaddexp(math.log(eps), math.log1p(-eps)
                                 + 2.0 * kp.zeta * log_g1
                                 + kp.beta * dispersion_root(g))
        else:
            poly = np.polynomial.polynomial.polyval(np.exp(-2.0 * log_g1), a)
            log_k = np.log(eps + (1.0 - eps) * np.exp(2.0 * kp.zeta * log_g1)
                           * poly)
        return (log_k - log_b - (V - k + 1) * x
                + (k - 1) * np.log(-np.expm1(-x)))

    x_hi = ordered_quantile(1.0 - 1e-6, k, V)
    unit = gain_for_gamma(1.0, cfg, role)
    peak = gain_for_gamma(rate_minimum(cfg.n, eps), cfg, role)
    pts = [*(ordered_quantile(q, k, V) for q in (1e-4, 1e-3, 1e-2, 0.1, 0.5,
                                                  0.9)),
           *(unit * 10.0 ** i for i in range(-2, 3)),
           0.5 * peak, peak, 2.0 * peak]
    edges = np.array([0.0, *sorted(p for p in pts if 0.0 < p < x_hi), x_hi,
                      np.inf])
    rtol = 1e-12
    res = integrate.tanhsinh(log_integrand, edges[:-1], edges[1:], log=True,
                             rtol=math.log(rtol))
    assert np.all(res.success)
    log_mean = special.logsumexp(res.integral)
    scale = theta * cfg.n * LN2
    return (-log_mean / scale, max(
        math.exp(special.logsumexp(res.error) - log_mean), 10 * rtol) / scale)


class TestTanhSinhOracle:
    @settings(max_examples=90, deadline=None, derandomize=True)
    @given(rho_db=st.floats(0.0, 40.0), log_theta=st.floats(-4.0, 1.0),
           role=st.sampled_from(ROLES),
           variant=st.sampled_from(["exact", "approx"]))
    def test_quadrature_matches_tanhsinh(self, rho_db, log_theta, role,
                                         variant):
        # the fig4-fig6 pool (n = 400, eps = 1e-6) from 0 to 40 dB and
        # theta from 1e-4 to 10: QUADPACK and tanh-sinh agree within their
        # two error estimates, for both kernels
        theta = 10.0 ** log_theta
        cfg = make_cfg(rho_db=rho_db, n=400, eps=1e-6, theta_t=theta,
                       theta_u=theta)
        quad = ec_quadrature(cfg, role, EvalControls(), variant)
        value, bound = tanhsinh_capacity(cfg, role, variant)
        assert abs(quad.value - value) <= quad.tail_bound + bound


def strong_split(cfg, zetas, coeffs):
    """eccalc._strong_split of rows that share cfg, on their tail ladders
    made for them alone."""
    ladders, = eccalc._tail_ladders([(cfg, zetas, coeffs)])
    return eccalc._strong_split(cfg, zetas, coeffs, ladders)


def _weak_series_loop(c, q, d, ladder, log_prefactor):
    """Term-by-term reference for eccalc._weak_series (one c at a time)."""
    log_q = math.log(abs(q))
    sign_q = -1.0 if q < 0.0 else 1.0
    log_coef, sign, total, tail = log_prefactor, 1.0, 0.0, math.inf
    s_max = ladder.size - 1
    for s in range(s_max + 1):
        if s > 0:
            step = c - (s - 1)
            log_coef += math.log(abs(step)) - math.log(s) + log_q
            sign *= (1.0 if step > 0.0 else -1.0) * sign_q
        log_term = log_coef + math.log(d * ladder[s])
        total += sign * math.exp(log_term)
        # every later term ratio is at most rho, the supremum over k >= s
        # of |q| (k - c) / (k + 1)
        rho = abs(q) * max(1.0, (s - c) / (s + 1))
        tail = (math.exp(log_term) * rho / (1.0 - rho) if rho < 1.0
                else math.inf)
        if tail <= SERIES_REL_TOL * abs(total) or (
                rho < 1.0 and total == 0.0 and log_term < -700.0):
            return total, s, tail
    return total, s_max, tail


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
            ladder = expint_ladders([9 * d], budget)[0]
            sums, terms, tails = (x[0] for x in _weak_series(
                cs, q, d, ladder[None, :], log_pref))
            for i, c in enumerate(cs):
                ref = _weak_series_loop(c, q, d, ladder, log_pref[i])
                assert terms[i] == ref[1]
                assert sums[i] == pytest.approx(ref[0], rel=1e-12, abs=0.0)
                assert tails[i] == pytest.approx(ref[2], rel=1e-12, abs=0.0)
            assert tails[-1] == math.inf
        # ok: tail within tolerance; truncated: a finite tail above it;
        # diverging: an infinite tail
        status = ["ok" if tail <= SERIES_REL_TOL * abs(total)
                  else "truncated" if math.isfinite(tail) else "diverging"
                  for total, tail in zip(sums, tails)]
        assert status == ["ok", "ok", "ok", "truncated", "diverging"]

    def test_weak_series_sums_each_ladder_alone(self):
        # the ladders of one matrix are summed in one broadcast call: each
        # row's results equal those of that ladder alone, bit for bit
        d = 0.05
        cs = np.array([-3.0, -35.0, -400.0])
        log_pref = cs * math.log(5.0)
        ladders = np.array(expint_ladders([9 * d, 10 * d, 11 * d], 300))
        together = _weak_series(cs, -0.8, d, ladders, log_pref)
        for r in range(3):
            alone = _weak_series(cs, -0.8, d, ladders[r:r + 1], log_pref)
            for both, one in zip(together, alone):
                assert both.shape == (3, cs.size)
                assert np.array_equal(both[r], one[0])

    @pytest.mark.parametrize("eta, s0", [(0.05, 3.0), (1.2, 6.4),
                                         (8.0, 3.0), (40.0, 2.5)])
    def test_real_order_ladder(self, eta, s0):
        # one Tricomi seed per eta, run in the stable direction, gives
        # every rung I_{s0+k} = U(1, 2 - s0 - k, eta)
        ladder = expint_ladders([eta], 34, s0)[0]
        for k in (0, 1, 2, 17, 34):
            assert ladder[k] == pytest.approx(
                tricomi_u(1.0, 2.0 - s0 - k, eta), rel=1e-10)

    @pytest.mark.parametrize("eta", [1e-3, 0.45, 7.0, 600.0])
    def test_integer_ladder_starts_at_one_over_eta(self, eta):
        # I_0 = 1/eta; the downward recurrence reaches it as (1 - 0 I_1)/eta
        ladder = expint_ladders([eta], 500)[0]
        assert ladder[0] == 1.0 / eta
        assert ladder[1] == pytest.approx(tricomi_u(1.0, 1.0, eta), rel=1e-10)

    def test_batched_ladders_match_single_eta_ladders(self, monkeypatch):
        # one seed call for the whole batch, though its seed orders differ:
        # 0.5 and 1.5 seed at k0 = 0, 2.5 and 8.0 at k0 = 1 and 6, and 40
        # at k0 = 34; each ladder of the batch equals that eta's ladder
        # alone, bit for bit
        etas, s0 = [0.5, 1.5, 2.5, 8.0, 40.0], 3.000000000001
        seed, calls = specfun.tricomi_u, []
        with monkeypatch.context() as patch:
            patch.setattr(specfun, "tricomi_u", lambda a, b, z: (
                calls.append(len(z)) or seed(a, b, z)))
            batch = expint_ladders(etas, 34, s0)
        assert calls == [5]
        assert batch.shape == (5, 35)
        for ladder, eta in zip(batch, etas):
            assert ladder.dtype == float
            assert np.array_equal(ladder, expint_ladders([eta], 34, s0)[0])


def _weak_moments_every_exponent(cfg, zetas, coeffs, ctl):
    """eccalc._weak_moments with the series at every moment's exponent,
    as it ran before the recurrence: the reference for the recurrence."""
    return [_every_exponent(cfg, zeta, a, ctl)
            for zeta, a in zip(zetas, coeffs)]


def _every_exponent(cfg, zeta, a, ctl):
    cs = 2.0 * zeta - 2.0 * np.arange(a.size)
    d = 1.0 / (cfg.rho * cfg.alpha_u)
    b_fn, _, weights = ordered_mixture(cfg.t, cfg.V)
    ladders = eccalc._weak_ladders(cfg.V, cfg.t, d, ctl.series_max_terms)
    series, terms, tails = _weak_series(cs, -cfg.alpha_t, d, ladders,
                                        cs * math.log(1.0 / cfg.alpha_u))
    w, xi = np.array(weights)[:, None], 1.0 / b_fn
    mu, tail_j, scale_j = (xi * np.array([math.fsum(col) for col in x.T])
                           for x in (w * series, abs(w) * tails,
                                     abs(w) * series))
    used = a != 0.0
    tail = math.fsum(np.abs(a[used]) * tail_j[used])
    scale = math.fsum(np.abs(a[used]) * scale_j[used])
    return (mu, tail + np.finfo(float).eps * scale, int(terms.max()) + 1,
            tail <= SERIES_REL_TOL * scale, "series at every exponent")


def preset_weak_cfgs(names=("fig3", "fig4", "fig6")):
    """The configurations of every weak row of fig3, fig4 and fig6, each
    preset's variants in the order its sweep hands them to one batch."""
    for name in names:
        spec = figure_preset(name)
        for rho_db in spec.rho_db_variants or (None,):
            for value in spec.grid:
                yield (replace(spec.base, rho=db_to_linear(value))
                       if spec.axis == "rho_db" else
                       replace(spec.base, rho=db_to_linear(rho_db),
                               theta_t=value, theta_u=value))


def assert_recurrence_tracks_every_exponent(cfg):
    """The weak closed form by the recurrence against the same closed form
    with the series at every exponent: where the latter converges, so does
    the former, and the two bounds cover the gap between two sums."""
    ctl = EvalControls()
    new = ec_closed_weak(cfg, ctl)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(eccalc, "_weak_moments", _weak_moments_every_exponent)
        old = ec_closed_weak(cfg, ctl)
    assert new.converged or not old.converged
    if new.converged and old.converged:
        assert abs(new.value - old.value) <= \
            new.tail_bound + old.tail_bound
    return new


class TestWeakRecurrence:
    @pytest.mark.parametrize("V, alpha_t, rho_db, n, theta", [
        (10, 0.8, 20.0, 400, 0.01),     # eta = lambda d = 0.5, c0 = -4
        (4, 0.7, 5.0, 300, 0.001),      # eta = 4.2, c0 = -0.3
        (16, 0.9, 35.0, 500, 0.004)])   # eta = 0.05, c0 = -2
    def test_recurrence_matches_mpmath(self, V, alpha_t, rho_db, n, theta):
        # t = 1: one ladder, at lambda = V, so moment j is
        # V int e^(-V x) (1 + gamma(x))^(c0 - 2j) dx.  Two series seed the
        # recurrence; the moments it reaches are within their bounds, and
        # within 5e-12, of a 30-digit quadrature
        cfg = SystemConfig(V=V, t=1, u=2, alpha_t=alpha_t,
                           alpha_u=1.0 - alpha_t, rho=db_to_linear(rho_db),
                           n=n, eps=1e-6, theta_t=theta, theta_u=theta)
        zeta = -theta * n / 2.0
        with mpmath.workdps(30):
            a_t, a_u = mpmath.mpf(alpha_t), mpmath.mpf(1.0 - alpha_t)
            rho = mpmath.mpf(cfg.rho)
            for j in (1, 8, 16):
                a = np.zeros(17)
                a[j] = 1.0
                (mu, err, _, converged, route), = eccalc._weak_moments(
                    cfg, [zeta], [a], EvalControls())
                assert route == "series at 2 exponents, recurrence for 31"
                assert converged
                c = 2 * mpmath.mpf(zeta) - 2 * j
                ref = mpmath.quad(lambda x: V * mpmath.exp(-V * x) * (
                    1 + a_t * x / (a_u * x + 1 / rho)) ** c,
                    [0, 1.0 / V, 10.0 / V, mpmath.inf])
                gap = abs(mpmath.mpf(mu[j]) - ref)
                assert gap <= err
                assert gap <= 5e-12 * ref

    def test_fig4_row_sums_two_series(self, monkeypatch):
        # a fig4 row at J = 16 sums the series at 2 exponents (2 zeta and
        # 2 zeta - 1) and reaches the other 31 by the recurrence: a cost
        # guard that counts series, not seconds
        cfg = replace(figure_preset("fig4").base, rho=db_to_linear(20.0))
        series, summed = eccalc._weak_series, []
        monkeypatch.setattr(eccalc, "_weak_series", lambda cs, *args: (
            summed.append(cs.tolist()) or series(cs, *args)))
        res = ec_closed_weak(cfg, EvalControls())
        zeta = -cfg.theta_u * cfg.n / 2.0
        assert res.expansion_order[1] == 16
        assert summed == [[2 * zeta, 2 * zeta - 1]]
        assert res.note.startswith(
            "series at 2 exponents, recurrence for 31;")
        assert res.converged

    def test_large_eta_d_sums_more_series(self, monkeypatch):
        # 0 dB with V = 20, t = 2: eta = lambda d = 95 and 100, and
        # kappa_c = lambda d alpha_t / |c| keeps the steps near c0 = -3
        # growing, so the series runs at more than two exponents before
        # the recurrence takes over; the value stays within the bounds
        cfg = make_cfg(rho_db=0.0, V=20)
        series, summed = eccalc._weak_series, []
        monkeypatch.setattr(eccalc, "_weak_series", lambda cs, *args: (
            summed.append(cs.size) or series(cs, *args)))
        res = assert_recurrence_tracks_every_exponent(cfg)
        assert summed[0] > 2
        assert res.note.startswith(f"series at {summed[0]} exponents, "
                                   f"recurrence for")
        assert res.converged

    def test_presets_track_every_exponent(self):
        # every weak row of fig3, fig4 and fig6: 121 rows at J = 16 take
        # the recurrence, and none loses its converged flag
        routes = [assert_recurrence_tracks_every_exponent(cfg).note
                  for cfg in preset_weak_cfgs()]
        assert len(routes) == 171
        assert sum("recurrence for" in note for note in routes) == 121


class TestWeakLadderMemo:
    @pytest.fixture(autouse=True)
    def cold_memo(self):
        eccalc._weak_ladders.cache_clear()

    def test_theta_sweep_seeds_weak_ladders_once(self, monkeypatch):
        # the weak ladders depend on the SNR, not on theta: of three fig4
        # rows at 20 dB only the first seeds them
        float_seed, seeds = specfun.tricomi_u, []
        monkeypatch.setattr(specfun, "tricomi_u", lambda a, b, z: (
            seeds.append((b, len(z))) or float_seed(a, b, z)))
        per_row = []
        for theta in (1e-3, 1e-2, 0.1):
            cfg = make_cfg(rho_db=20.0, n=400, eps=1e-6, theta_t=theta,
                           theta_u=theta)
            before = len(seeds)
            ec_closed_weak(cfg, EvalControls())
            per_row.append(len(seeds) - before)
        assert per_row[0] > 0
        assert per_row[1:] == [0, 0]

    def test_memo_is_read_only(self):
        cfg = make_cfg()
        ladders = eccalc._weak_ladders(cfg.V, cfg.t, 0.05, 40)
        assert ladders is eccalc._weak_ladders(cfg.V, cfg.t, 0.05, 40)
        for ladder in ladders:
            assert not ladder.flags.writeable
            with pytest.raises(ValueError):
                ladder[0] = 0.0

    def test_memo_gives_cold_results(self):
        # 15 dB twice (a hit), 20 dB, then 15 dB again (a miss): each
        # result is repr-equal to one made with the memo cleared
        ctl = EvalControls()
        points = [(15.0, 1e-3), (15.0, 0.1), (20.0, 1e-3), (15.0, 1e-3)]
        cfgs = [make_cfg(rho_db=rho_db, n=400, eps=1e-6, theta_t=theta,
                         theta_u=theta) for rho_db, theta in points]
        warm = [repr(ec_closed_weak(cfg, ctl)) for cfg in cfgs]
        cold = []
        for cfg in cfgs:
            eccalc._weak_ladders.cache_clear()
            cold.append(repr(ec_closed_weak(cfg, ctl)))
        assert warm == cold


class TestSeedPrecision:
    @staticmethod
    def closed(cfg, role):
        if role == "weak":
            eccalc._weak_ladders.cache_clear()
            return ec_closed_weak(cfg, EvalControls()).value
        return ec_closed_strong(cfg, EvalControls()).value

    def test_threads_get_serial_results(self):
        # four threads seeding both users' ladders at once get the serial
        # results
        points = [(make_cfg(rho_db=rho_db, n=400, eps=1e-6, theta_t=theta,
                            theta_u=theta), role)
                  for rho_db in (15.0, 25.0) for theta in (0.0031, 0.0117, 0.05)
                  for role in ROLES]
        want = [self.closed(*point) for point in points]
        got = [None] * 4

        def work(i):
            got[i] = [self.closed(*point) for point in points]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,))
                       for i in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert got == [want] * 4

    def test_closed_forms_run_without_mpmath(self):
        # with mpmath unimportable, both users' closed forms at the fig3
        # point (theta n = 3) and at a J = 16 row with theta n = 4.32 are
        # those made in this process, repr for repr
        points = [FIG3_POINT, dict(n=400, eps=1e-6, theta=0.0108,
                                   rho_db=20.0)]
        script = f"""if True:
            import sys
            sys.modules["mpmath"] = None        # import mpmath raises
            import nomafbl as nf
            for point in {points!r}:
                cfg = nf.sweep.pool_config(**point)
                for role in ("weak", "strong"):
                    print(repr(nf.evaluate(cfg, role, "closed_form",
                                           nf.EvalControls())))
        """
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=300,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        want = [evaluate(pool_config(**point), role, "closed_form",
                         EvalControls())
                for point in points for role in ("weak", "strong")]
        assert [res.expansion_order[1] for res in want[2:]] == [16, 16]
        assert proc.stdout.splitlines() == [repr(res) for res in want]


class TestGainDrawMemo:
    @pytest.fixture(autouse=True)
    def cold_memo(self):
        mc_gain_draws.cache_clear()

    def test_one_pool_shares_one_draw(self, count_draws):
        # the draws depend on neither the SNR nor theta: one per user
        calls = count_draws
        ctl = EvalControls(mc_samples=70_000, seed=4)
        other = make_cfg(rho_db=5.0, theta_t=0.1, theta_u=0.1)
        for cfg in (make_cfg(), other):
            for role in ROLES:
                ec_monte_carlo(cfg, role, ctl)
        chunks = [1 << 16, 70_000 - (1 << 16)]
        assert calls == [(2, m) for m in chunks] + [(8, m) for m in chunks]
        draws = mc_gain_draws(8, 10, 4, 70_000)
        assert mc_gain_draws(8, 10, 4, 70_000) is draws
        assert mc_gain_draws(8, 10, 5, 70_000) is not draws

    def test_threads_asking_for_two_pools_get_their_own(self):
        # under contention for the memo each call still returns the draws
        # of its own key and raises nothing
        keys = [(8, 10, 1234, m) for m in (100, 200)]
        want = [mc_gain_draws(*key)[0].copy() for key in keys]
        errors = []

        def work(i):
            try:
                for _ in range(200):
                    got = mc_gain_draws(*keys[i % 2])
                    assert np.array_equal(got[0], want[i % 2])
            except Exception as exc:    # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,))
                       for i in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert errors == []

    def test_memo_gives_cold_results(self):
        # each switch of (k, V, seed, mc_samples) gives what a cleared
        # memo gives: 5000 samples then 1000, (t, u) = (2, 8) then (1, 3),
        # seed 5 then 6, and another SNR and theta at the last key
        cfg = make_cfg()
        ctl = EvalControls(mc_samples=1000, seed=5)
        cases = [(cfg, "strong", replace(ctl, mc_samples=5000)),
                 (cfg, "strong", ctl),
                 (cfg, "strong", ctl),
                 (replace(cfg, t=1, u=3), "strong", ctl),
                 (cfg, "weak", ctl),
                 (cfg, "weak", replace(ctl, seed=6)),
                 (make_cfg(rho_db=5.0, theta_t=0.1, theta_u=0.1), "weak",
                  replace(ctl, seed=6))]
        warm = [repr(ec_monte_carlo(*case)) for case in cases]
        cold = []
        for case in cases:
            mc_gain_draws.cache_clear()
            cold.append(repr(ec_monte_carlo(*case)))
        assert warm == cold


class TestClosedForms:
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

    @pytest.mark.parametrize("V, alpha_t, rho_db, n, eps, theta", [
        (2, 0.54202, 29.23, 734, 1.59e-3, 3.873e-4),
        (5, 0.64733, 45.81, 503, 3.45e-7, 4.475e-4)])
    def test_weak_within_its_bound_where_ratios_grow(self, V, alpha_t,
                                                     rho_db, n, eps, theta):
        # theta n + 2j < 1 makes the term ratios grow toward alpha_t; bounded
        # by the last ratio, the tail was 1.012 and 1.014 times short of the
        # gap to a 1e-13 quadrature of the same expanded kernel
        cfg = SystemConfig(V=V, t=1, u=2, alpha_t=alpha_t,
                           alpha_u=1.0 - alpha_t, rho=db_to_linear(rho_db),
                           n=n, eps=eps, theta_t=theta, theta_u=theta)
        closed = ec_closed_weak(cfg, EvalControls())
        oracle = ec_quadrature(cfg, "weak", EvalControls(quad_rel_tol=1e-13),
                               "approx", closed.expansion_order)
        assert closed.converged
        assert abs(closed.value - oracle.value) <= closed.tail_bound

    @pytest.mark.parametrize("rho_db, theta, tail_orders", [
        (20.0, 0.1082636733874054, 1),  # the fig5 grid point: k0 = 0
        (20.0, 0.1, 1),         # order theta n = 40
        (20.0, 1e-4, 5),
        (15.0, 1e-4, 6),
    ])
    def test_strong_row_seeds_once_per_order(self, monkeypatch, rho_db,
                                             theta, tail_orders):
        # fig5 rows: the split's tail makes one tricomi_u call for all u
        # ladders of the row, at eta = lambda (d + x0), whatever the number
        # of distinct seed orders among them
        float_seed, seeds = specfun.tricomi_u, []
        monkeypatch.setattr(specfun, "tricomi_u", lambda a, b, z: (
            seeds.append((b, len(z))) or float_seed(a, b, z)))
        cfg = make_cfg(rho_db=rho_db, n=400, eps=1e-6, theta_t=theta,
                       theta_u=theta)
        kp = make_kernel_params(theta, cfg.n, cfg.eps)
        a = expansion_coeffs(kp.beta, eccalc._order(kp, None))
        assert strong_split(cfg, [kp.zeta], [a])[0][3]
        (orders, n), = seeds
        assert n == cfg.u and len(set(orders.tolist())) == tail_orders

    def test_strong_note_names_its_route(self):
        # every fig5 row is certified by its split, and its note names the
        # split and the digits the split lost
        spec = figure_preset("fig5")
        kept = 0
        for rho_db in spec.rho_db_variants:
            for theta in spec.grid:
                cfg = replace(spec.base, rho=db_to_linear(rho_db),
                              theta_t=theta, theta_u=theta)
                res = ec_closed_strong(cfg, EvalControls())
                kp = make_kernel_params(theta, cfg.n, cfg.eps)
                a = expansion_coeffs(kp.beta, res.expansion_order)
                split = strong_split(cfg, [kp.zeta], [a])[0]
                assert res.note.startswith(
                    f"split at x0, {split[2]:.2f} digits lost;")
                assert ("value from quadrature" in res.note) != split[3]
                assert res.converged == split[3]
                kept += split[3]
        assert kept == 90

    def test_every_preset_strong_row_is_certified_by_the_split(
            self, monkeypatch):
        # every strong row of fig3-fig6 and of validate at 0-30 dB keeps 10
        # digits in its float split: none falls back to the quadrature
        fallbacks = []
        quadrature = eccalc.ec_quadrature
        monkeypatch.setattr(eccalc, "ec_quadrature", lambda *args: (
            fallbacks.append(args) or quadrature(*args)))
        rows = 0
        for name in ("fig3", "fig4", "fig5", "fig6"):
            spec = figure_preset(name)
            if "strong" not in spec.roles:
                continue
            for rho_db in spec.rho_db_variants or (None,):
                for value in spec.grid:
                    cfg = (replace(spec.base, rho=db_to_linear(value))
                           if spec.axis == "rho_db" else
                           replace(spec.base, rho=db_to_linear(rho_db),
                                   theta_t=value, theta_u=value))
                    res = ec_closed_strong(cfg, EvalControls())
                    assert res.converged and res.note.startswith(
                        "split at x0, ")
                    rows += 1
        for rho_db in (0.0, 10.0, 20.0, 30.0):
            res = ec_closed_strong(make_cfg(rho_db=rho_db), EvalControls())
            assert res.converged and res.note.startswith("split at x0, ")
            rows += 1
        assert rows == 175
        assert fallbacks == []

    @pytest.mark.parametrize("cfg", [
        # u = 16 of 17 at 7.9 dB: the split keeps too few digits
        SystemConfig(V=17, t=10, u=16, alpha_t=0.978, alpha_u=0.022,
                     rho=db_to_linear(7.886), n=1423, eps=3.43e-9,
                     theta_t=0.3, theta_u=0.3),
        # u = 16 of 19 at -0.4 dB and theta n = 3300
        SystemConfig(V=19, t=13, u=16, alpha_t=0.9096, alpha_u=0.0904,
                     rho=db_to_linear(-0.445), n=1426, eps=3.8e-7,
                     theta_t=2.33, theta_u=2.33),
    ], ids=["sum-at-50", "redone"])  # the routes these rows once took
    def test_strong_sum_past_the_split(self, cfg):
        # a split that keeps fewer than 10 digits hands the row to the
        # quadrature of the same expanded kernel, flagged unconverged
        ctl = EvalControls(quad_rel_tol=1e-12)
        closed = ec_closed_strong(cfg, ctl)
        oracle = ec_quadrature(cfg, "strong", ctl, "approx",
                               closed.expansion_order)
        assert closed.note.startswith("split at x0, ")
        assert f"; value from quadrature ({oracle.note});" in closed.note
        assert not closed.converged
        assert closed.value == oracle.value
        assert closed.tail_bound == oracle.tail_bound

    @pytest.mark.parametrize("cfg, split", [
        # worst float64 sum of the benchmark's reference points (9e-6)
        (make_cfg(rho_db=25.0, n=400, eps=1e-6, theta_t=0.0117210229753,
                  theta_u=0.0117210229753), True),
        # fig3 at 34 dB, where the float64 sum's gap exceeded its bound
        (make_cfg(rho_db=34.0), True),
        # u = 13 of 19, where the ladders seed at different orders: the
        # split keeps too few digits and the quadrature takes the row
        (make_cfg(rho=551.22, V=19, t=3, u=13, alpha_t=0.99, alpha_u=0.01,
                  n=481, eps=0.0258, theta_t=0.002246, theta_u=0.002246),
         False),
        # theta = 1 at 25 dB, at expansion order (2, 1)
        (make_cfg(rho_db=25.0, n=400, eps=1e-6, theta_t=1.0, theta_u=1.0),
         True),
    ], ids=["25dB", "fig3-34dB", "u13", "25dB-redo"])
    def test_strong_sum_in_extended_precision(self, cfg, split):
        # rows that once needed a sum past float64: each now takes the
        # split or the quadrature, and is within 1e-10 and the two error
        # bounds of the quadrature of the same expanded kernel
        ctl = EvalControls(quad_rel_tol=1e-12)
        closed = ec_closed_strong(cfg, ctl)
        oracle = ec_quadrature(cfg, "strong", ctl, "approx",
                               closed.expansion_order)
        assert closed.note.startswith("split at x0, ")
        assert closed.converged == split
        assert ("value from quadrature" in closed.note) != split
        assert closed.value == pytest.approx(oracle.value, rel=1e-10)
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
        # the back-off pair (0.65, 0.15) at 20 dB, sum s = 0.8, gives the
        # SINRs of the normalized pair (0.65, 0.15) / s at s * rho
        ctl = EvalControls()
        cfg = make_cfg(rho_db=20.0 + 10.0 * math.log10(0.8), alpha_t=0.8125,
                       alpha_u=0.1875)
        closed = ec_closed_weak(cfg, ctl)
        oracle = ec_quadrature(cfg, "weak", ctl, "approx")
        assert closed.value == pytest.approx(oracle.value, abs=1e-7)

    def test_weak_series_diverges_to_fallback(self, monkeypatch):
        # fig4 at theta = 1: the ratio bound of the (2, 1) moments stays
        # >= 1 through the term budget, so no series runs (_weak_series is
        # not called); the value is the quadrature's and the term count the
        # whole budget
        cfg = make_cfg(n=400, eps=1e-6, theta_t=1.0, theta_u=1.0)
        ctl = EvalControls()
        with monkeypatch.context() as patch:
            patch.setattr(eccalc, "_weak_series", None)
            res = ec_closed_weak(cfg, ctl)
        assert not res.converged
        assert res.series_terms == 501
        assert res.note.startswith("no series: ")
        assert "quadrature" in res.note
        oracle = ec_quadrature(cfg, "weak", ctl, "approx")
        assert res.value == pytest.approx(oracle.value, rel=1e-12)

    @pytest.mark.parametrize("closed_form", [ec_closed_weak,
                                             ec_closed_strong])
    def test_non_positive_kernel_mean_is_an_error(self, closed_form):
        # eps = 0.9, theta = 1, -30 dB: neither the sum nor the quadrature
        # of the expanded kernel has a positive mean, for either user
        cfg = make_cfg(rho_db=-30.0, n=400, eps=0.9, theta_t=1.0,
                       theta_u=1.0)
        with pytest.raises(ConvergenceError,
                           match="kernel expectation is non-positive"):
            closed_form(cfg, EvalControls())

    def test_forced_truncation_flag(self):
        res = ec_closed_weak(make_cfg(), EvalControls(series_max_terms=2))
        assert not res.converged

    def test_negative_capacity_flagged(self):
        res = ec_closed_weak(make_cfg(rho_db=-10.0), EvalControls())
        assert res.value < 0.0
        assert "infeasible" in res.note

    def test_negative_fallback_flagged_once(self):
        # the closed form's note quotes the fallback quadrature's, which
        # carries the flag too
        cfg = make_cfg(rho_db=-10.0, n=400, eps=1e-6, theta_t=1.0,
                       theta_u=1.0)
        res = ec_closed_weak(cfg, EvalControls())
        assert res.value < 0.0 and not res.converged
        assert res.note.count("infeasible") == 1

    @pytest.mark.parametrize("note", ["", "some note", _NEGATIVE,
                                      f"quoted ({_NEGATIVE}); closed form"])
    def test_negative_result_flagged_once_on_construction(self, note):
        # every EcResult carries the flag, whoever builds it
        res = EcResult(value=-0.5, method="closed_form", note=note)
        assert res.note.count("infeasible") == 1
        assert res.note.startswith(note)
        assert replace(res).note == res.note
        for value in (0.0, 0.5, math.nan):
            assert EcResult(value=value, method="quadrature",
                            note=note).note == note

    def test_paper_order_reproduces_first_derivation(self):
        # at order (2, 1) the closed forms are the ones first derived; these
        # fig3 values were computed by that implementation.  The weak user's
        # old values carry the truncation of its series where the last term
        # ratio stopped it, up to 9.8e-11 bits off the series summed to
        # 1e-16 (40 dB), so each is checked against the weak closed form's
        # own tail bound.  The strong user's old values carry the float64
        # rounding of its alternating sum (7.2e-8 bits at 30 dB), so each is
        # checked against the bound the float64 sum reported at its point.
        # Both are checked against approx quadrature
        first_derived = {
            0.0: (-0.00441327928439427, 0.117316668410792, 1.09e-8),
            10.0: (0.5939324221564581, 1.4134823727282848, 9.09e-8),
            20.0: (1.5367828107950892, 4.095527073691053, 5.26e-6),
            30.0: (1.9356651146491983, 5.5256352912345035, 1.23e-5),
            40.0: (1.9862343948538301, 5.5365355651304125, 1.29e-6),
        }
        ctl = EvalControls()
        for rho_db, (weak, strong, float_bound) in first_derived.items():
            cfg = make_cfg(rho_db=rho_db)
            w = ec_closed_weak(cfg, ctl, order=(2, 1))
            s = ec_closed_strong(cfg, ctl, order=(2, 1))
            assert w.expansion_order == s.expansion_order == (2, 1)
            assert abs(w.value - weak) <= w.tail_bound
            assert abs(s.value - strong) <= float_bound
            oracle = ec_quadrature(cfg, "weak", ctl, "approx", (2, 1))
            assert abs(w.value - oracle.value) <= \
                w.tail_bound + oracle.tail_bound
            oracle = ec_quadrature(cfg, "strong", ctl, "approx", (2, 1))
            assert s.value == pytest.approx(oracle.value, rel=1e-10)

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
        quad = ec_quadrature(cfg, "weak", EvalControls(), "approx", (2, 1))
        assert f"({quad.note})" in res.note

    def test_weak_interference_ceiling(self):
        # at very high SNR the weak user saturates at the kernel value of
        # the interference-limited SINR ceiling; each method is bounded by
        # the cap computed from its own kernel
        ctl = EvalControls(mc_samples=60_000)
        cfg = make_cfg(rho_db=60.0)
        kp = make_kernel_params(0.01, 300, 1e-5)
        ceiling = cfg.alpha_t / cfg.alpha_u
        paper_kernel = scalar_kernel(kp, 1e-5, PAPER_ORDER)
        cap_closed = -math.log(paper_kernel(ceiling)) \
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
        kappa = kp.beta ** 2 / 2 + kp.beta
        d = 1.0 / (cfg.rho * cfg.alpha_u)
        terms = []
        for i in range(cfg.u):
            eta = (cfg.V - cfg.u + 1 + i) * d
            combo = tricomi_u(1.0, 2.0 + 2 * kp.zeta, eta) * (kappa + 1) \
                - tricomi_u(1.0, 2 * kp.zeta, eta) * (kappa - kp.beta / 2)
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
        for method in METHODS:
            with pytest.raises(ValueError, match="role must be one of"):
                evaluate(make_cfg(), "both", method, EvalControls())


# The whole SystemConfig box: any pool and pair, power split, SNR,
# blocklength, error target and QoS exponent up to 3
BOX = dict(V=st.integers(2, 20), t_frac=st.floats(0.0, 1.0),
           u_frac=st.floats(0.0, 1.0),
           alpha_t=st.floats(0.5, 0.99, exclude_min=True, exclude_max=True),
           rho_db=st.floats(-10.0, 50.0), n=st.integers(50, 2000),
           log_eps=st.floats(-9.0, -1.0),
           log_theta=st.floats(-4.0, math.log10(3.0)))


def box_cfg(V, t_frac, u_frac, alpha_t, rho_db, n, log_eps, log_theta):
    t = 1 + min(int(t_frac * (V - 1)), V - 2)
    u = t + 1 + min(int(u_frac * (V - t)), V - t - 1)
    theta = 10.0 ** log_theta
    return SystemConfig(V=V, t=t, u=u, alpha_t=alpha_t,
                        alpha_u=1.0 - alpha_t, rho=db_to_linear(rho_db),
                        n=n, eps=10.0 ** log_eps, theta_t=theta,
                        theta_u=theta)


def assert_batch_is_rows_alone(cfgs):
    """The strong closed forms of cfgs, and the float splits of each group
    of rows that share one, equal the same made one row at a time, bit for
    bit; returns the number of groups."""
    ctl = EvalControls()
    for cfg, res in zip(cfgs, eccalc.ec_closed_batch(cfgs, "strong", ctl)):
        alone, = eccalc.ec_closed_batch([cfg], "strong", ctl)
        assert type(res) is type(alone)
        assert res == alone if isinstance(res, EcResult) else \
            str(res) == str(alone)
    groups = {}
    for cfg in cfgs:
        kp, _, a = eccalc._expansion(cfg, "strong", None)
        groups.setdefault((cfg.rho, a.size), []).append((cfg, kp.zeta, a))
    for rows in groups.values():
        split = strong_split(rows[0][0], [zeta for _, zeta, _ in rows],
                             [a for _, _, a in rows])
        for (cfg, zeta, a), (mu, *rest) in zip(rows, split):
            one_mu, *one_rest = strong_split(cfg, [zeta], [a])[0]
            assert np.array_equal(mu, one_mu) and rest == one_rest
    return len(groups)


class TestStrongBatch:
    def test_preset_rows(self):
        # every theta grid of fig4 and fig5 splits in two batches, its
        # J = 1 and its J = 16 rows; fig3 and validate are batches of one
        for name in ("fig3", "fig4", "fig5"):
            spec = figure_preset(name)
            for rho_db in spec.rho_db_variants or (None,):
                base = (spec.base if rho_db is None else
                        replace(spec.base, rho=db_to_linear(rho_db)))
                cfgs = [replace(base, rho=db_to_linear(v))
                        if spec.axis == "rho_db" else
                        replace(base, theta_t=v, theta_u=v)
                        for v in spec.grid]
                groups = assert_batch_is_rows_alone(cfgs)
                assert groups == (len(cfgs) if spec.axis == "rho_db" else 2)
        assert assert_batch_is_rows_alone(
            [make_cfg(rho_db=rho_db) for rho_db in (0.0, 10.0, 20.0, 30.0)
             ]) == 4

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(**{key: BOX[key] for key in BOX if key != "log_theta"},
           log_thetas=st.lists(BOX["log_theta"], max_size=4))
    def test_box_rows_mixing_orders(self, V, t_frac, u_frac, alpha_t, rho_db,
                                    n, log_eps, log_thetas):
        # theta = 1e-4 expands to J = 16 and theta = 3 to (2, 1) over the
        # whole box, so each batch mixes the two coefficient counts
        assert assert_batch_is_rows_alone([
            box_cfg(V, t_frac, u_frac, alpha_t, rho_db, n, log_eps, x)
            for x in (-4.0, *log_thetas, math.log10(3.0))]) >= 2

    def test_failed_split_is_made_again_row_by_row(self, monkeypatch):
        # a shared split that raises is made again for each of its rows,
        # so only the row that fails alone fails
        split, ctl = eccalc._strong_split, EvalControls()
        cfgs = [make_cfg(theta_t=theta, theta_u=theta)
                for theta in (0.01, 0.02, 0.03)]
        alone = [ec_closed_strong(cfg, ctl) for cfg in cfgs]
        bad = make_kernel_params(0.02, 300, 1e-5).zeta

        def refuse(cfg, zetas, coeffs, ladders):
            if bad in zetas:
                raise ConvergenceError("split refused")
            return split(cfg, zetas, coeffs, ladders)

        monkeypatch.setattr(eccalc, "_strong_split", refuse)
        batch = eccalc.ec_closed_batch(cfgs, "strong", ctl)
        assert batch[0] == alone[0] and batch[2] == alone[2]
        assert isinstance(batch[1], ConvergenceError)
        with pytest.raises(ConvergenceError, match="split refused"):
            ec_closed_strong(cfgs[1], ctl)

    def test_failed_tail_ladders_are_made_again_row_by_row(self,
                                                           monkeypatch):
        # the tail ladders of the whole batch come from one call; where it
        # raises, every row is made again alone, so only the row whose own
        # ladders fail fails
        ladders, ctl = eccalc._tail_ladders, EvalControls()
        cfgs = [make_cfg(rho_db=rho_db, theta_t=theta, theta_u=theta)
                for rho_db in (10.0, 20.0) for theta in (0.01, 3.0)]
        alone = [ec_closed_strong(cfg, ctl) for cfg in cfgs]
        bad = make_kernel_params(3.0, 300, 1e-5).zeta

        def refuse(groups):
            if any(cfg.rho == 100.0 and bad in zetas
                   for cfg, zetas, _ in groups):
                raise ConvergenceError("ladders refused")
            return ladders(groups)

        monkeypatch.setattr(eccalc, "_tail_ladders", refuse)
        batch = eccalc.ec_closed_batch(cfgs, "strong", ctl)
        assert batch[:3] == alone[:3]
        assert isinstance(batch[3], ConvergenceError)

    @staticmethod
    def strong_tail_calls(spec, monkeypatch):
        """The sweep's rows and the (ladders, s0 values, ladder length) of
        each expint_ladders call its strong closed forms make."""
        ladders, calls = eccalc.expint_ladders, []

        def counted(etas, s_max, s0=0.0):
            calls.append((len(etas), set(np.ravel(s0).tolist()), s_max + 1))
            return ladders(etas, s_max, s0)

        monkeypatch.setattr(eccalc, "expint_ladders", counted)
        return run_sweep(replace(spec, roles=("strong",),
                                 methods=("closed_form",))), calls

    def test_fig3_sweep_makes_its_strong_tails_in_one_call(self, tmp_path,
                                                           monkeypatch):
        # fig3's 21 SNRs are 21 groups of one row, which share one
        # expint_ladders call of 21 u ladders, each seeded at theta n = 3
        spec = figure_preset("fig3", str(tmp_path / "fig3.csv"))
        rows, calls = self.strong_tail_calls(spec, monkeypatch)
        assert len(rows) == len(spec.grid) == 21
        assert [call[:2] for call in calls] == [(21 * spec.base.u, {3.0})]

    def test_fig5_sweep_makes_its_strong_tails_in_one_call_per_length(
            self, tmp_path, monkeypatch):
        # fig5's three SNR variants are one batch: its tail ladders take
        # one expint_ladders call per ladder length, not one per SNR
        spec = figure_preset("fig5", str(tmp_path / "fig5.csv"))
        rows, calls = self.strong_tail_calls(spec, monkeypatch)
        assert len(rows) == 3 * len(spec.grid)
        assert len(calls) == len({length for *_, length in calls}) == 2


def assert_weak_batch_is_rows_alone(cfgs):
    """The weak closed forms of cfgs as one batch equal each row's batch of
    one, repr for repr (a row's error by its message); returns the batch."""
    ctl = EvalControls()
    batch = eccalc.ec_closed_batch(cfgs, "weak", ctl)
    for cfg, res in zip(cfgs, batch):
        alone, = eccalc.ec_closed_batch([cfg], "weak", ctl)
        assert type(res) is type(alone)
        assert repr(res) == repr(alone) if isinstance(res, EcResult) else \
            str(res) == str(alone)
    return batch


def weak_box_rows():
    """A derandomized box sample: 16 box points, each at theta = 1e-4
    (J = 16), 3 ((2, 1)) and 4 values drawn between, as one list."""
    rng = random.Random(34)
    cfgs = []
    for _ in range(16):
        point = (rng.randint(2, 20), rng.random(), rng.random(),
                 rng.uniform(0.5, 0.99), rng.uniform(-10.0, 50.0),
                 rng.randint(50, 2000), rng.uniform(-9.0, -1.0))
        draws = sorted(rng.uniform(-4.0, math.log10(3.0)) for _ in range(4))
        cfgs += [box_cfg(*point, x)
                 for x in (-4.0, *draws, math.log10(3.0))]
    return cfgs


def fig4_weak_grid(rho_db):
    spec = figure_preset("fig4")
    base = replace(spec.base, rho=db_to_linear(rho_db))
    return [replace(base, theta_t=v, theta_u=v) for v in spec.grid]


class TestWeakBatch:
    def test_preset_rows(self):
        # the weak rows of fig3, fig4 and fig6, each preset one batch as its
        # sweep makes it: every row equals its batch of one
        sizes = [len(assert_weak_batch_is_rows_alone(
            list(preset_weak_cfgs((name,))))) for name in ("fig3", "fig4",
                                                           "fig6")]
        assert sizes == [21, 60, 90]

    def test_box_rows(self):
        # one batch of the box sample mixes J = 16 and (2, 1) rows, rows
        # with no series and rows that fall back, and t = 1, 2 and > 2
        cfgs = weak_box_rows()
        batch = assert_weak_batch_is_rows_alone(cfgs)
        notes = [res.note for res in batch]
        assert {res.expansion_order[1] for res in batch} == {1, 16}
        assert any(note.startswith("no series") for note in notes)
        assert any("value from quadrature" in note for note in notes)
        assert any("recurrence for" in note for note in notes)
        assert {min(cfg.t, 3) for cfg in cfgs} == {1, 2, 3}

    @pytest.mark.parametrize("cfgs", [fig4_weak_grid(20.0), weak_box_rows()],
                             ids=["fig4_20db", "box"])
    def test_recurrence_layouts_agree(self, cfgs, monkeypatch):
        # both layouts run on these rows (the fig4 grid's J = 16 group in
        # numpy columns, its rows alone in Python floats), and either
        # layout in place of the other gives the same bits
        rows, columns, ran = eccalc._recur_rows, eccalc._recur_columns, []

        def spy(layout):
            return lambda *args: ran.append(layout) or layout(*args)

        with monkeypatch.context() as patch:
            patch.setattr(eccalc, "_recur_rows", spy(rows))
            patch.setattr(eccalc, "_recur_columns", spy(columns))
            want = [repr(res) for res in
                    eccalc.ec_closed_batch(cfgs, "weak", EvalControls())]
            ec_closed_weak(cfgs[0], EvalControls())
        assert set(ran) == {rows, columns}
        for layout in (rows, columns):
            with monkeypatch.context() as patch:
                patch.setattr(eccalc, "_recur_rows", layout)
                patch.setattr(eccalc, "_recur_columns", layout)
                assert [repr(res) for res in eccalc.ec_closed_batch(
                    cfgs, "weak", EvalControls())] == want

    def test_theta_grid_sums_in_two_series_calls(self, monkeypatch):
        # the 30 weak rows of fig4's grid at 20 dB make their series in one
        # _weak_series call per tolerance (J = 16 rows seeding the
        # recurrence, (2, 1) rows summing every exponent), not one per row:
        # a cost guard that counts calls, not seconds
        series, calls = eccalc._weak_series, []
        monkeypatch.setattr(eccalc, "_weak_series", lambda *args: (
            calls.append(args) or series(*args)))
        cfgs = fig4_weak_grid(20.0)
        evaluate_batch(cfgs, "weak", "closed_form", EvalControls())
        assert len(cfgs) == 30 and len(calls) <= 2


class TestClosedFormDomain:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(**BOX)
    def test_closed_forms_finite_or_flagged(self, V, t_frac, u_frac, alpha_t,
                                            rho_db, n, log_eps, log_theta):
        # over the whole SystemConfig box the closed forms neither raise nor
        # warn, and a non-finite value is always flagged unconverged
        cfg = box_cfg(V, t_frac, u_frac, alpha_t, rho_db, n, log_eps,
                      log_theta)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = [ec_closed_weak(cfg, EvalControls()),
                       ec_closed_strong(cfg, EvalControls())]
        for res in results:
            assert math.isfinite(res.value) or not res.converged

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(**BOX)
    def test_strong_tracks_quadrature_over_box(self, V, t_frac, u_frac,
                                               alpha_t, rho_db, n, log_eps,
                                               log_theta):
        # the closed form, split or quadrature, is within 1e-10 of the
        # quadrature of the same expanded kernel, and the two error bounds
        # cover the gap
        cfg = box_cfg(V, t_frac, u_frac, alpha_t, rho_db, n, log_eps,
                      log_theta)
        closed = ec_closed_strong(cfg, EvalControls())
        oracle = ec_quadrature(cfg, "strong", EvalControls(), "approx",
                               closed.expansion_order)
        assert closed.value == pytest.approx(oracle.value, rel=1e-10)
        assert abs(closed.value - oracle.value) <= \
            closed.tail_bound + oracle.tail_bound

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(**BOX)
    def test_weak_tracks_quadrature_over_box(self, V, t_frac, u_frac,
                                             alpha_t, rho_db, n, log_eps,
                                             log_theta):
        # wherever the weak series converges, the two error bounds cover
        # its gap to a 1e-12 quadrature of the same expanded kernel
        cfg = box_cfg(V, t_frac, u_frac, alpha_t, rho_db, n, log_eps,
                      log_theta)
        closed = ec_closed_weak(cfg, EvalControls())
        if closed.converged:
            oracle = ec_quadrature(cfg, "weak",
                                   EvalControls(quad_rel_tol=1e-12),
                                   "approx", closed.expansion_order)
            assert abs(closed.value - oracle.value) <= \
                closed.tail_bound + oracle.tail_bound

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(**BOX)
    def test_weak_recurrence_tracks_every_exponent_over_box(
            self, V, t_frac, u_frac, alpha_t, rho_db, n, log_eps, log_theta):
        # wherever the series at every exponent converges, the recurrence
        # converges too, and the two bounds cover the gap between them
        assert_recurrence_tracks_every_exponent(box_cfg(
            V, t_frac, u_frac, alpha_t, rho_db, n, log_eps, log_theta))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(**BOX)
    @example(V=9, t_frac=0.0, u_frac=1.0, alpha_t=0.85, rho_db=17.0, n=1331,
             log_eps=math.log10(0.0125), log_theta=math.log10(3.8e-4))
    def test_float_ladders_seed_without_mpmath(self, V, t_frac, u_frac,
                                               alpha_t, rho_db, n, log_eps,
                                               log_theta):
        # the strong split and the weak ladders are made: every seed has a
        # float route, expn or the continued fraction, since tricomi_u
        # refuses any other.  The example (V = u = 9, t = 1, 17 dB) seeds
        # its strong tail at a non-integer order below eta = 1:
        # s = 2.50578, eta = 0.63302
        cfg = box_cfg(V, t_frac, u_frac, alpha_t, rho_db, n, log_eps,
                      log_theta)
        kp = make_kernel_params(cfg.theta_u, cfg.n, cfg.eps)
        a = expansion_coeffs(kp.beta, eccalc._order(kp, None))
        strong_split(cfg, [kp.zeta], [a])
        eccalc._weak_ladders.__wrapped__(
            cfg.V, cfg.t, 1.0 / (cfg.rho * cfg.alpha_u),
            EvalControls().series_max_terms)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(**BOX)
    def test_bounds_cover_gap_to_exact_over_box(self, V, t_frac, u_frac,
                                                alpha_t, rho_db, n, log_eps,
                                                log_theta):
        # wherever a closed form bounds its expansion, its two bounds and
        # the oracle's cover its gap to the exact-kernel quadrature
        cfg = box_cfg(V, t_frac, u_frac, alpha_t, rho_db, n, log_eps,
                      log_theta)
        for role in ROLES:
            closed = evaluate(cfg, role, "closed_form", EvalControls())
            if math.isfinite(closed.expansion_bound):
                exact = ec_quadrature(cfg, role, EvalControls(), "exact")
                assert abs(closed.value - exact.value) <= closed.tail_bound \
                    + closed.expansion_bound + exact.tail_bound
