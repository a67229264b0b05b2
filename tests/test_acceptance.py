"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured numbers (run with -s to see them live).

Criteria are exercised at desk scale; every tolerance is pinned here, not
deferred to calibration.
"""

import math
from dataclasses import replace

import numpy as np

from nomafbl.channel import (SystemConfig, db_to_linear, ordered_pdf,
                             sample_gain)
from nomafbl.delay import delay_violation_curve, delay_violation_prob
from nomafbl.eccalc import (EvalControls, ec_closed_strong, ec_closed_weak,
                            ec_monte_carlo, ec_quadrature, evaluate)
from nomafbl.queuesim import SimSpec, run_queue_sim
from nomafbl.specfun import (beta_fn, exp_integral_ei, gaussian_q,
                             gaussian_q_inv, tricomi_u)
from nomafbl.cli import main

LN2 = math.log(2.0)

FIG3 = dict(V=10, t=2, u=8, alpha_t=0.8, alpha_u=0.2, n=300, eps=1e-5,
            theta_t=0.01, theta_u=0.01)
FIG5 = dict(V=10, t=2, u=8, alpha_t=0.8, alpha_u=0.2, n=400, eps=1e-6,
            theta_t=0.01, theta_u=0.01)


def cfg_at(params, rho_db):
    return SystemConfig(rho=db_to_linear(rho_db), **params)


def report(num, name, ok, detail):
    print(f"CRITERION {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_special_function_accuracy():
    checks = []
    # Q-function round trip
    worst = max(abs(gaussian_q(gaussian_q_inv(p)) - p) / p
                for p in (1e-12, 1e-6, 1e-3, 0.5, 0.999))
    checks.append(("Qinv round trip", worst <= 1e-10, f"{worst:.2e}"))
    checks.append(("Qinv(1e-5)", abs(gaussian_q_inv(1e-5) - 4.2648907939)
                   < 1e-8, f"{gaussian_q_inv(1e-5):.10f}"))
    # exponential integral
    checks.append(("Ei(-1)", abs(exp_integral_ei(-1.0) + 0.2193839343955205)
                   < 1e-12, f"{exp_integral_ei(-1.0):.12f}"))
    # Tricomi identity U(1,1,z) e^{-z} = E1(z)
    worst_u = max(abs(tricomi_u(1, 1, z) * math.exp(-z)
                      - (-exp_integral_ei(-z)))
                  / (-exp_integral_ei(-z)) for z in (0.5, 1.0, 2.0, 5.0))
    checks.append(("U(1,1,z)=e^z E1(z)", worst_u <= 1e-8, f"{worst_u:.2e}"))
    checks.append(("U(1,2,1)=1", abs(tricomi_u(1, 2, 1) - 1.0) < 1e-9,
                   f"{tricomi_u(1, 2, 1):.12f}"))
    # Beta factorial identities
    checks.append(("B(2,9)=1/90", abs(beta_fn(2, 9) - 1 / 90) < 1e-14, ""))
    checks.append(("B(8,3)=1/360", abs(beta_fn(8, 3) - 1 / 360) < 1e-14, ""))
    ok = all(c[1] for c in checks)
    detail = "; ".join(f"{c[0]}{' ' + c[2] if c[2] else ''}"
                       f"[{'ok' if c[1] else 'BAD'}]" for c in checks)
    report(1, "special-function accuracy", ok, detail)


def test_criterion_2_order_statistics():
    from scipy import integrate
    norms = {}
    for k in (2, 8):
        val, _ = integrate.quad(lambda x: ordered_pdf(x, k, 10), 0, np.inf,
                                limit=200)
        norms[k] = val
    norm_ok = all(abs(v - 1.0) <= 1e-10 for v in norms.values())

    x_u = sample_gain(8, 10, 1_000_000, np.random.default_rng(2024))
    expected = sum(1.0 / j for j in range(3, 11))   # 1.428968...
    se = x_u.std(ddof=1) / math.sqrt(x_u.size)
    mean_ok = abs(x_u.mean() - expected) <= 3.0 * se
    ok = norm_ok and mean_ok
    report(2, "order statistics", ok,
           f"normalizations {norms[2]:.12f}/{norms[8]:.12f}; "
           f"mean(x_u)={x_u.mean():.6f} vs {expected:.6f} "
           f"(3 s.e. = {3 * se:.6f})")


def test_criterion_3_closed_vs_expanded_kernel_oracle():
    ctl = EvalControls()
    rows = []
    ok = True
    for rho_db in (0.0, 10.0, 20.0, 30.0, 40.0):
        cfg = cfg_at(FIG3, rho_db)
        strong = ec_closed_strong(cfg, ctl)
        strong_oracle = ec_quadrature(cfg, "strong", ctl, "approx")
        rel = abs(strong.value - strong_oracle.value) \
            / max(abs(strong_oracle.value), 1e-300)
        s_ok = rel <= 1e-6
        weak = ec_closed_weak(cfg, ctl)
        weak_oracle = ec_quadrature(cfg, "weak", ctl, "approx")
        gate = max(1e-4, weak.tail_bound or 0.0)
        gap = abs(weak.value - weak_oracle.value)
        w_ok = gap <= gate
        ok = ok and s_ok and w_ok
        rows.append(f"{rho_db:g}dB strong rel {rel:.1e}"
                    f"[{'ok' if s_ok else 'BAD'}] "
                    f"weak abs {gap:.1e}/{gate:.1e}"
                    f"[{'ok' if w_ok else 'BAD'}]")
    report(3, "closed form vs expanded-kernel quadrature", ok,
           "; ".join(rows))


def test_criterion_4_closed_vs_exact_monte_carlo():
    ctl = EvalControls(mc_samples=1_000_000, seed=11)
    rows = []
    ok = True
    for rho_db in (0.0, 10.0, 20.0, 30.0, 40.0):
        cfg = cfg_at(FIG3, rho_db)
        for role, gate in (("strong", 0.02), ("weak", 0.10)):
            closed = evaluate(cfg, role, "closed_form", ctl)
            mc = ec_monte_carlo(cfg, role, ctl)
            rel = abs(closed.value - mc.value) / max(abs(mc.value), 1e-300)
            point_ok = rel <= gate
            ok = ok and point_ok
            rows.append(f"{rho_db:g}dB {role} {rel * 100:.2f}%"
                        f"[{'ok' if point_ok else 'BAD'}]")
    report(4, "closed form vs exact-kernel Monte-Carlo (2%/10%)", ok,
           "; ".join(rows))


def test_criterion_5_monotonicity():
    ctl = EvalControls(mc_samples=100_000, seed=5)
    problems = []

    thetas = np.logspace(-4, 0, 30)
    for role in ("weak", "strong"):
        for method in ("closed_form", "quadrature", "monte_carlo"):
            vals = []
            for th in thetas:
                cfg = replace(cfg_at(FIG5, 20.0), theta_t=float(th),
                              theta_u=float(th))
                vals.append(evaluate(cfg, role, method, ctl).value)
            bad = [i for i in range(len(vals) - 1)
                   if vals[i + 1] > vals[i] + 1e-8]
            if bad:
                problems.append(f"theta/{role}/{method}@{bad}")

    for role in ("weak", "strong"):
        for method in ("closed_form", "quadrature", "monte_carlo"):
            vals = [evaluate(cfg_at(FIG3, float(db)), role, method, ctl).value
                    for db in range(0, 41, 2)]
            bad = [i for i in range(len(vals) - 1)
                   if vals[i + 1] < vals[i] - 1e-8]
            if bad:
                problems.append(f"rho/{role}/{method}@{bad}")

    report(5, "monotonicity in theta and rho, all methods", not problems,
           "all curves monotone" if not problems else "; ".join(problems))


def test_criterion_6_delay_violation_floor():
    ctl = EvalControls()
    floor = 1e-6 ** (400.0 / 400.0)
    rows = []
    ok = True
    for role in ("weak", "strong"):
        pts = delay_violation_curve(cfg_at(FIG5, 20.0), role, [1.0], 400.0,
                                    ctl)
        p = pts[0].prob
        in_band = abs(p - floor) <= 0.10 * floor
        ok = ok and in_band
        rows.append(f"{role} P(theta=1)={p:.4e}"
                    f"[{'ok' if in_band else 'BAD'}]")
    report(6, "delay-violation floor eps^(D/n) within 10%", ok,
           f"target {floor:.1e}; " + "; ".join(rows))


def test_criterion_7_user_ordering():
    ctl = EvalControls()
    thetas = list(np.logspace(-4, 0, 30))
    weak = delay_violation_curve(cfg_at(FIG5, 20.0), "weak", thetas, 400.0,
                                 ctl)
    strong = delay_violation_curve(cfg_at(FIG5, 20.0), "strong", thetas,
                                   400.0, ctl)
    bad = [i for i, (w, s) in enumerate(zip(weak, strong))
           if s.prob > w.prob * (1 + 1e-9)]
    report(7, "strong-user delay curve below weak-user curve", not bad,
           "pointwise ordered over 30 thetas at 20 dB" if not bad
           else f"violated at grid indices {bad}")


def test_criterion_8_queue_simulator_consistency():
    theta0 = 0.01
    cfg = cfg_at(FIG5, 20.0)
    ctl = EvalControls(seed=7)
    ec0 = ec_closed_strong(cfg, ctl).value
    mu = 0.95 * ec0
    spec = SimSpec(cfg=cfg, role="strong", arrival_rate=mu,
                   num_blocks=40_000_000, warmup_blocks=100_000,
                   d_max=400.0, seed=42)
    stats = run_queue_sim(spec)

    target = theta0 * LN2
    fit_ok = stats.fitted_theta is not None \
        and stats.fitted_theta >= 0.75 * target

    # Consistent application of the tail law to the simulated queue: the
    # exponent paired with this arrival rate solves C_e(theta_op) = mu, and
    # the non-empty probability is the queue's own, not the bound 1.
    lo, hi = theta0, 10.0 * theta0
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        v = ec_closed_strong(replace(cfg, theta_t=mid, theta_u=mid),
                             ctl).value
        if v > mu:
            lo = mid
        else:
            hi = mid
    theta_op = 0.5 * (lo + hi)
    nonempty = float(stats.tail_prob[0])
    analytic = delay_violation_prob(theta_op, mu, 400.0, nonempty)
    ratio = stats.delay_violation_freq / analytic if analytic > 0 else np.inf
    freq_ok = 0.1 <= ratio <= 10.0

    small = replace(spec, num_blocks=400_000, warmup_blocks=4000)
    a, b = run_queue_sim(small), run_queue_sim(small)
    identical = (np.array_equal(a.tail_hits, b.tail_hits)
                 and a.delay_violation_freq == b.delay_violation_freq
                 and a.mean_queue == b.mean_queue)

    ok = fit_ok and freq_ok and identical
    report(8, "queue simulator vs analytics", ok,
           f"fitted theta {stats.fitted_theta:.6f} vs theta0*ln2 "
           f"{target:.6f} [{'ok' if fit_ok else 'BAD'}]; "
           f"freq {stats.delay_violation_freq:.2e} vs Eq-7 at matched "
           f"operating point {analytic:.2e}, ratio {ratio:.2f} "
           f"[{'ok' if freq_ok else 'BAD'}]; "
           f"bit-identical rerun [{'ok' if identical else 'BAD'}]")


def test_criterion_9_determinism_and_plumbing(tmp_path):
    out_a = tmp_path / "fig3_a.csv"
    out_b = tmp_path / "fig3_b.csv"
    args = ["figure", "fig3", "--mc-samples", "50000", "--seed", "3"]
    rc_a = main(args + ["--out", str(out_a)])
    rc_b = main(args + ["--out", str(out_b)])
    identical = out_a.read_bytes() == out_b.read_bytes()

    rc_ok = main(["validate", "--mc-samples", "50000"])
    rc_fail = main(["validate", "--mc-samples", "5000",
                    "--series-max-terms", "2"])
    rc_io = main(["sweep", str(tmp_path / "nonexistent.cfg")])

    ok = rc_a == 0 and rc_b == 0 and identical and rc_ok == 0 \
        and rc_fail == 1 and rc_io == 2
    report(9, "determinism and exit codes", ok,
           f"figure rc=({rc_a},{rc_b}) byte-identical={identical}; "
           f"validate ok rc={rc_ok}, forced-truncation rc={rc_fail}, "
           f"io-error rc={rc_io}")
