"""Effective-capacity evaluators: Monte-Carlo, quadrature oracle, closed forms.

All three compute the same object,

    C_e = -ln( E[k(gamma)] ) / (theta * n * ln 2)    [bits per channel use],

where the expectation is over the ordered-gain law of the selected user and
k is either the exact kernel or its expansion in powers of beta and
w = (1+gamma)^-2 (fblrate module).  The closed forms need the expansion, and
its order (M, J) is chosen per point from beta under series_rel_tol
(fblrate.expansion_order); the "approx" quadrature uses the same order.
Cross-checking the routes localizes failures: closed form vs quadrature of
the expanded kernel isolates the series algebra, quadrature of the exact
kernel vs Monte-Carlo isolates sampling, and exact vs expanded quadrature
isolates the expansion error itself, which the closed forms also bound and
report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Context, Decimal, getcontext, localcontext

import mpmath
import numpy as np
from scipy import integrate

from .channel import (ROLES, SystemConfig, gamma_for_role, ordered_quantile,
                      sample_gains)
from .fblrate import (LN2, ec_kernel, ec_kernel_approx, expansion_coeffs,
                      expansion_error_coeffs, expansion_order,
                      make_kernel_params)
from .specfun import ConvergenceError, beta_fn, scaled_expint

_MC_CHUNK = 1 << 16
_MACHEPS = np.finfo(float).eps
# Significant digits of the strong user's sum (see ec_closed_strong)
_SUM_DIGITS, _SUM_DIGITS_KEPT, _SUM_DIGITS_SPARE = 50, 20, 30

METHODS = ("closed_form", "monte_carlo", "quadrature")


@dataclass(frozen=True)
class EvalControls:
    """Numerical policy shared by the evaluators.

    Monte-Carlo sampling is chunked into fixed-size blocks, each driven by
    an independent substream derived from (seed, chunk index), so results
    are reproducible regardless of how the chunks are scheduled.
    """

    mc_samples: int = 200_000
    seed: int = 1234
    quad_rel_tol: float = 1e-9
    series_max_terms: int = 500
    series_rel_tol: float = 1e-10

    def __post_init__(self):
        if self.mc_samples < 1:
            raise ValueError("mc_samples must be >= 1")
        if not 0.0 < self.quad_rel_tol < 1.0:
            raise ValueError("quad_rel_tol must lie in (0, 1)")
        if not 0.0 < self.series_rel_tol < 1.0:
            raise ValueError("series_rel_tol must lie in (0, 1)")
        if self.series_max_terms < 2:
            raise ValueError("series_max_terms must be >= 2")


@dataclass
class EcResult:
    """An effective-capacity value with method tag and diagnostics.

    tail_bound       numerical error bound in bits/cu against the kernel the
                     method integrates: series truncation and rounding, or
                     the quadrature's error estimate
    expansion_order  (M, J) of the kernel expansion behind a closed form or
                     an approx-kernel quadrature; None for the exact kernel
    expansion_bound  closed forms: bound in bits/cu on the gap between the
                     expanded and the exact kernel's capacity (inf where no
                     bound holds); tail_bound + expansion_bound bounds the
                     gap to the exact-kernel value
    note             how the value was made, for closed forms including the
                     expansion order and both bounds, for quadrature the
                     kernel and QUADPACK's integrand evaluations and
                     subintervals
    """

    value: float
    method: str
    std_error: float = 0.0
    series_terms: int | None = None
    converged: bool = True
    tail_bound: float | None = None
    note: str = ""
    expansion_order: tuple[int, int] | None = None
    expansion_bound: float | None = None


def _ec_from_mean(mean: float, theta: float, n: int) -> float:
    return -math.log(mean) / (theta * n * LN2)


_NEGATIVE = "negative capacity: delay exponent infeasible at this SNR"


def _finalize(value, method, **kw) -> EcResult:
    res = EcResult(value=value, method=method, **kw)
    if res.value < 0.0 and _NEGATIVE not in res.note:
        res.note = "; ".join(filter(None, [res.note, _NEGATIVE]))
    return res


def _order(kp, ctl: EvalControls, order):
    """The kernel expansion order of one point: given, or chosen from beta."""
    return tuple(order) if order else expansion_order(kp.beta,
                                                     ctl.series_rel_tol)


# ---------------------------------------------------------------------------
# Monte-Carlo estimator
# ---------------------------------------------------------------------------

class GainDraws(list):
    """Chunk list of mc_gain_draws; key is its (V, t, u, seed, mc_samples)."""
    key: tuple = ()


def _draw_key(cfg: SystemConfig, ctl: EvalControls) -> tuple:
    return cfg.V, cfg.t, cfg.u, ctl.seed, ctl.mc_samples


def mc_gain_draws(cfg: SystemConfig, ctl: EvalControls) -> GainDraws:
    """The Monte-Carlo ordered-gain draws (x_t, x_u), one pair per chunk.

    Chunk idx is drawn from the generator seeded by (seed, idx), and the
    draws depend on cfg only through (V, t, u), so one list serves every
    SNR, QoS exponent and user of a pool.  Keeps contiguous read-only
    copies of the two picked columns only (16 bytes per sample), so each
    chunk's sorted draws are freed as soon as the next one is made.
    """
    draws = GainDraws()
    draws.key = _draw_key(cfg, ctl)
    for idx, start in enumerate(range(0, ctl.mc_samples, _MC_CHUNK)):
        m = min(_MC_CHUNK, ctl.mc_samples - start)
        pair = sample_gains(cfg, m, np.random.default_rng([ctl.seed, idx]))
        cols = tuple(col.copy() for col in pair)
        for col in cols:
            col.flags.writeable = False
        draws.append(cols)
    return draws


def ec_monte_carlo(cfg: SystemConfig, role: str, ctl: EvalControls,
                   gains: GainDraws | None = None) -> EcResult:
    """Sample-average estimate of the effective capacity (exact kernel).

    The standard error of the kernel mean is pushed through the log
    transform by the delta method.  `gains` is mc_gain_draws(cfg, ctl),
    drawn here when not given; a list drawn for another (V, t, u, seed,
    mc_samples) is a ValueError.
    """
    key = _draw_key(cfg, ctl)
    if gains is not None and getattr(gains, "key", None) != key:
        raise ValueError(f"gains were drawn for (V, t, u, seed, mc_samples) "
                         f"= {getattr(gains, 'key', None)}, not {key}")
    theta = cfg.theta_for(role)
    eps = cfg.eps_for(role)
    if eps == 1.0:
        return _finalize(0.0, "monte_carlo", note="degenerate eps = 1")
    col = 0 if role == "weak" else 1
    kp = make_kernel_params(theta, cfg.n, eps)
    sums, sums_sq = [], []
    for pair in mc_gain_draws(cfg, ctl) if gains is None else gains:
        k = ec_kernel(gamma_for_role(pair[col], cfg, role), kp, eps)
        sums.append(float(np.sum(k)))
        sums_sq.append(float(np.sum(k * k)))
    n_samp = ctl.mc_samples
    how = f"{n_samp} samples, seed {ctl.seed}"
    mean = math.fsum(sums) / n_samp
    if not math.isfinite(mean) or mean <= 0.0:
        return _finalize(math.nan, "monte_carlo", converged=False,
                         note=f"non-finite kernel mean; {how}")
    mean_sq = math.fsum(sums_sq) / n_samp
    var = max(mean_sq - mean * mean, 0.0)
    if n_samp > 1:
        var *= n_samp / (n_samp - 1)
    se_mean = math.sqrt(var / n_samp)
    value = _ec_from_mean(mean, theta, cfg.n)
    se = se_mean / (mean * theta * cfg.n * LN2)
    return _finalize(value, "monte_carlo", std_error=se, note=how)


# ---------------------------------------------------------------------------
# Quadrature oracle
# ---------------------------------------------------------------------------

def _gamma_to_gain(gamma, cfg, role):
    if role == "strong":
        return gamma / (cfg.alpha_u * cfg.rho)
    denom = cfg.alpha_t - gamma * cfg.alpha_u
    if denom <= 0.0:
        return math.inf
    return gamma / (cfg.rho * denom)


def _kernel_peak_gain(cfg, role, kern, x_hi):
    """Locate an interior kernel maximum (present at large theta) in gain space."""
    g_hi = gamma_for_role(x_hi, cfg, role)
    grid = np.logspace(-8, math.log10(max(g_hi, 1e-6)), 300)
    vals = kern(grid)
    i = int(np.argmax(vals))
    if vals[i] <= 1.0:
        return None
    x_star = _gamma_to_gain(float(grid[i]), cfg, role)
    if not 0.0 < x_star < x_hi:
        return None
    return x_star


def _integrand(cfg: SystemConfig, role: str, kp, eps: float, order):
    """kernel(gamma_for_role(x)) * ordered_pdf(x) as a function of one float.

    QUADPACK calls the integrand one node at a time, so it is plain float
    arithmetic in math over constants made once here; numpy's per-call
    overhead would outweigh the arithmetic.  The kernel is ec_kernel, or
    ec_kernel_approx at ``order`` with its polynomial in w by Horner's rule.
    """
    k = cfg.order_index(role)
    xi = 1.0 / beta_fn(k, cfg.V - k + 1)
    k_1, v_k = k - 1, cfg.V - k
    one_eps, two_zeta, beta = 1.0 - eps, 2.0 * kp.zeta, kp.beta
    a_t, a_u, rho_inv = cfg.alpha_t, cfg.alpha_u, 1.0 / cfg.rho
    snr = cfg.alpha_u * cfg.rho
    weak = role == "weak"
    coeffs = ([] if order is None
              else expansion_coeffs(kp.beta, order)[::-1].tolist())

    def integrand(x):
        g = a_t * x / (a_u * x + rho_inv) if weak else snr * x
        pdf = (xi * math.exp(-x) * (-math.expm1(-x)) ** k_1
               * math.exp(-v_k * x))
        if not coeffs:
            return (eps + one_eps * math.exp(
                two_zeta * math.log1p(g)
                + beta * (math.sqrt(g * (g + 2.0)) / (1.0 + g)))) * pdf
        w, poly = (1.0 + g) ** -2.0, 0.0
        for c in coeffs:
            poly = poly * w + c
        return (eps + one_eps * (1.0 + g) ** two_zeta * poly) * pdf

    return integrand


def ec_quadrature(cfg: SystemConfig, role: str, ctl: EvalControls,
                  kernel_variant: str = "exact",
                  order: tuple[int, int] | None = None) -> EcResult:
    """Adaptive-quadrature evaluation of E[kernel] over the ordered-gain law.

    The "approx" variant integrates the kernel expansion of the closed
    forms, at the expansion order they use for the same (cfg, ctl) unless
    ``order`` pins it.  The domain splits at the 99.9999th percentile of the
    order statistic; beyond it the integrand carries negligible mass and is
    handled by a dedicated semi-infinite panel.  The note names the kernel
    and counts QUADPACK's integrand evaluations and subintervals, head +
    tail.
    """
    if kernel_variant not in ("exact", "approx"):
        raise ValueError(f"unknown kernel_variant {kernel_variant!r}")
    theta = cfg.theta_for(role)
    eps = cfg.eps_for(role)
    if eps == 1.0:
        return _finalize(0.0, "quadrature", note="degenerate eps = 1")
    kp = make_kernel_params(theta, cfg.n, eps)
    order = None if kernel_variant == "exact" else _order(kp, ctl, order)
    kern = ((lambda g: ec_kernel(g, kp, eps)) if order is None
            else (lambda g: ec_kernel_approx(g, kp, eps, order)))
    integrand = _integrand(cfg, role, kp, eps, order)
    k_idx = cfg.order_index(role)

    x_hi = ordered_quantile(1.0 - 1e-6, k_idx, cfg.V)
    pts = [ordered_quantile(q, k_idx, cfg.V)
           for q in (1e-4, 1e-3, 1e-2, 0.1, 0.5, 0.9)]
    # mass near gamma = 1 (high SNR, large theta n) lies below the quantiles
    unit = _gamma_to_gain(1.0, cfg, role)
    pts.extend(unit * 10.0 ** k for k in range(-2, 3))
    peak = _kernel_peak_gain(cfg, role, kern, x_hi)
    if peak is not None:
        pts.extend([0.5 * peak, peak, 2.0 * peak])
    pts = sorted(p for p in pts if 0.0 < p < x_hi)

    try:
        head = integrate.quad(integrand, 0.0, x_hi, points=pts, limit=400,
                              epsabs=1e-300, epsrel=ctl.quad_rel_tol,
                              full_output=1)
        if len(head) > 3:
            raise ConvergenceError(f"head quadrature failed: {head[3]}")
        tail = integrate.quad(integrand, x_hi, np.inf, limit=200,
                              epsabs=1e-300, epsrel=ctl.quad_rel_tol,
                              full_output=1)
        if len(tail) > 3:
            raise ConvergenceError(f"tail quadrature failed: {tail[3]}")
    except OverflowError as exc:        # the kernel's exponent beyond e^709
        raise ConvergenceError("kernel exceeds the float range") from exc
    total = head[0] + tail[0]
    err = head[1] + tail[1]
    if not math.isfinite(total) or total <= 0.0:
        raise ConvergenceError("kernel expectation is non-positive")
    value = _ec_from_mean(total, theta, cfg.n)
    bound = err / (total * theta * cfg.n * LN2)
    kernel = ("exact kernel" if order is None
              else f"approx kernel at order {order}")
    note = (f"{kernel}; {head[2]['neval']} + {tail[2]['neval']} integrand "
            f"evaluations, {head[2]['last']} + {tail[2]['last']} subintervals")
    return _finalize(value, "quadrature", tail_bound=bound,
                     expansion_order=order, note=note)


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def _int_ladder(eta, s_max: int, s0=0.0) -> np.ndarray:
    """I_{s0+k} = int_0^inf e^{-eta v} (1+v)^{-(s0+k)} dv for k = 0 .. s_max.

    The three-term recurrence I_{s+1} = (1 - eta I_s)/s holds for real s and
    is stable upward for s > eta and downward below, so the ladder is seeded
    at s ~ ceil(eta)+1 by one scaled_expint call and run in the stable
    direction on each side.  The rungs are floats for a float eta, else
    Decimals at the precision of the current decimal context, orders
    s0 + k included.  mpmath then makes the seed at that many digits; it
    takes no Decimal, so the seed's arguments and value pass as strings,
    and the value's string rounds it within 10^(1 - digits) relative.
    """
    extended = isinstance(eta, Decimal)
    out = np.empty(s_max + 1, dtype=object if extended else float)
    k_lo = 0
    if s0 == 0.0:
        out[0] = 1 / eta
        k_lo = 1
    k0 = min(s_max, max(k_lo, math.ceil(eta - s0) + 1))
    if extended:
        with mpmath.workdps(getcontext().prec):
            out[k0] = Decimal(str(scaled_expint(str(s0 + k0), str(eta))))
    else:
        out[k0] = float(scaled_expint(s0 + k0, eta))
    for k in range(k0 - 1, k_lo - 1, -1):
        out[k] = (1 - (s0 + k) * out[k + 1]) / eta
    for k in range(k0, s_max):
        out[k + 1] = (1 - eta * out[k]) / (s0 + k)
    return out


def _weak_series(cs: np.ndarray, q: float, d: float, ladder: np.ndarray,
                 log_prefactors: np.ndarray, ctl: EvalControls):
    """Inner series sum_s C(c, s) q^s d I_s, scaled by exp(log_prefactor),
    for every c in cs at once (one row per c).

    Here c < 0 always.  With q < 0 every term is then positive, so the sum
    is monotone and the running term ratio gives an honest geometric tail
    bound.  Term magnitudes are tracked in the log domain: for large |c| the early terms
    underflow while the series peak (near |c q| / (1 - |q|)) may still lie
    far ahead, and only the log trend can tell a genuinely negligible tail
    from a not-yet-reached bulk.  Each row stops at its first term whose
    tail is negligible against the running sum, before a term beyond e^700
    (the first term, d I_0 <= 1 times a prefactor <= 1, never is), or at
    the term budget.  Returns per-row arrays (sum, terms_used, tail_bound);
    the tail bound is inf where the series diverges, that is where it meets
    a term beyond e^700 or its terms still grow at the budget.
    """
    s_max = min(ctl.series_max_terms, ladder.size - 1)
    s = np.arange(1, s_max + 1)
    steps = cs[:, None] - (s - 1.0)     # C(c,s)/C(c,s-1) = step/s
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        incr = np.log(np.abs(steps)) - np.log(s) + math.log(abs(q))
        log_term = np.concatenate(
            [log_prefactors[:, None],
             log_prefactors[:, None] + np.cumsum(incr, axis=1)], axis=1) \
            + np.log(d * ladder[:s_max + 1])
        signs = np.cumprod(np.concatenate(
            [np.ones((cs.size, 1)), np.sign(steps) * np.sign(q)], axis=1),
            axis=1)
        totals = np.cumsum(signs * np.exp(log_term), axis=1)
        log_ratio = np.full_like(log_term, np.inf)
        log_ratio[:, 1:] = np.diff(log_term, axis=1)
        ratio = np.exp(np.minimum(log_ratio, 0.0))
        tails = np.where(log_ratio < 0.0,
                         np.exp(log_term) * ratio / (1.0 - ratio), np.inf)
    done = (log_ratio < 0.0) & (
        (tails <= ctl.series_rel_tol * np.abs(totals))
        | ((totals == 0.0) & (log_term < -700.0)))
    done[:, :2] = False
    blown = log_term > 700.0
    rows = np.arange(cs.size)
    stop = np.where(done.any(axis=1), done.argmax(axis=1), s_max)
    blow = np.where(blown.any(axis=1), blown.argmax(axis=1), s_max + 1)
    diverged = blow <= stop
    last = np.where(diverged, blow - 1, stop)
    return (totals[rows, last], np.where(diverged, blow, stop),
            np.where(diverged, math.inf, tails[rows, last]))


def _weak_expectations(cfg: SystemConfig, cs, ctl: EvalControls):
    """E[(1 + sinr_weak)^c] for each c in cs, via binomial expansion of the
    ordered density.

    The SINR ratio is rewritten as a scaled (x + a)/(x + b) form whose
    binomial expansion in d/(x + b) converges geometrically at rate
    alpha_t / (alpha_t + alpha_u); each integral moment reduces to the
    I_s ladder above, which depends on c only through the binomial weights,
    so each ladder is built once and serves every c.  Returns arrays
    (value, terms_used, tail_bound, scale), one entry per c: scale is the
    sum of the inner series' magnitudes, against which rounding and
    truncation are judged, and tail_bound is inf where an inner series
    diverges.
    """
    cs = np.asarray(cs, dtype=float)
    csum = cfg.alpha_t + cfg.alpha_u
    q = (cfg.alpha_u - csum) / csum
    d = 1.0 / (cfg.rho * cfg.alpha_u)
    xi = 1.0 / beta_fn(cfg.t, cfg.V - cfg.t + 1)
    log_pref = cs * math.log(csum / cfg.alpha_u)
    parts, abs_parts, tails = [], [], []
    terms_used = np.zeros(cs.size, dtype=int)
    for r in range(cfg.t):
        ladder = _int_ladder((cfg.V - cfg.t + 1 + r) * d,
                             ctl.series_max_terms)
        series, s_used, tail = _weak_series(cs, q, d, ladder, log_pref, ctl)
        weight = math.comb(cfg.t - 1, r)
        parts.append(weight * series * (-1.0 if r % 2 else 1.0))
        abs_parts.append(weight * np.abs(series))
        tails.append(weight * tail)
        terms_used = np.maximum(terms_used, s_used + 1)
    value = xi * np.array([math.fsum(col) for col in zip(*parts)])
    scale = xi * np.array([math.fsum(col) for col in zip(*abs_parts)])
    tail_total = xi * np.array([math.fsum(col) for col in zip(*tails)])
    return value, terms_used, tail_total, scale


def _expansion_bound(kp, eps, theta, n, order, inner, mu_0=1.0, mu_j=1.0):
    """Bound in bits/cu on the capacity error of the expanded kernel.

    By expansion_error_coeffs the kernel means differ by at most
    (1-eps) (r_M mu_0 + t_J mu_J), with mu_j = E[(1+g)^(2 zeta - 2j)] <= 1;
    the bound holds on either side of inner, the expanded kernel's mean.
    """
    r_m, t_j = expansion_error_coeffs(kp.beta, order)
    err = (1.0 - eps) * (r_m * mu_0 + t_j * mu_j)
    if not err < inner:
        return math.inf
    return -math.log1p(-err / inner) / (theta * n * LN2)


def _provenance(order, tail_bound, expansion_bound) -> str:
    return (f"kernel expansion order {order}; truncation bound "
            f"{tail_bound:.1e}, expansion bound {expansion_bound:.1e} bits/cu")


def _closed_result(kp, eps, theta, n, order, a, moments, trunc_err,
                   **kw) -> EcResult:
    """Assemble a closed-form result from the moments E[(1+g)^(2 zeta-2j)].

    ``tail_bound`` is the truncation error of the moments, against the
    expanded kernel; ``expansion_bound`` is the error of the expanded kernel
    against the exact one.  Their sum bounds the gap to the exact-kernel
    capacity.  Returns (None, inner) when the kernel mean is not positive.
    """
    inner = eps + (1.0 - eps) * math.fsum(a * moments)
    if not math.isfinite(inner) or inner <= 0.0:
        return None, inner
    tail_bound = (1.0 - eps) * trunc_err / (inner * theta * n * LN2)
    expansion_bound = _expansion_bound(kp, eps, theta, n, order, inner,
                                       abs(moments[0]), abs(moments[-1]))
    res = _finalize(_ec_from_mean(inner, theta, n), "closed_form",
                    tail_bound=tail_bound, expansion_order=order,
                    expansion_bound=expansion_bound,
                    note=_provenance(order, tail_bound, expansion_bound), **kw)
    return res, inner


def ec_closed_weak(cfg: SystemConfig, ctl: EvalControls,
                   order: tuple[int, int] | None = None) -> EcResult:
    """Closed-form effective capacity of the weak user.

    Expands the kernel to ``order`` (chosen from beta by default, see
    fblrate.expansion_order) and assembles its expectation from
    exponential-integral moments of the ordered-gain density.  The series
    counts as converged when the |a_j|-weighted sum of the moments' tail
    bounds is within series_rel_tol of the same weighted sum of the inner
    series' magnitudes, so a high moment left truncated by the term budget
    counts only as much as its coefficient lets it.  If a series diverges
    (an infinite tail bound) or an intermediate overflows (large theta*n
    pushes the binomial weights out of double range), the value falls back to
    adaptive quadrature of the same expanded kernel and the result is
    flagged unconverged so reports can surface it.
    """
    role = "weak"
    theta = cfg.theta_for(role)
    eps = cfg.eps_for(role)
    if eps == 1.0:
        return _finalize(0.0, "closed_form", note="degenerate eps = 1")
    kp = make_kernel_params(theta, cfg.n, eps)
    order = _order(kp, ctl, order)
    a = expansion_coeffs(kp.beta, order)
    two_zeta = 2.0 * kp.zeta
    moments, n_terms, tails_j, scale_j = _weak_expectations(
        cfg, two_zeta - 2.0 * np.arange(a.size), ctl)
    terms = int(n_terms.max())
    used = a != 0.0
    tails = math.fsum(np.abs(a[used]) * tails_j[used])
    scale = math.fsum(np.abs(a[used]) * scale_j[used])
    err = tails + _MACHEPS * (scale + math.fsum(np.abs(a * moments)))
    res, inner = (None, math.nan) if math.isinf(tails) else _closed_result(
        kp, eps, theta, cfg.n, order, a, moments, err, series_terms=terms,
        converged=tails <= ctl.series_rel_tol * scale)
    if res is None or not err < 0.5 * inner:
        fallback = ec_quadrature(cfg, role, ctl, "approx", order)
        expansion_bound = _expansion_bound(
            kp, eps, theta, cfg.n, order,
            math.exp(-fallback.value * theta * cfg.n * LN2))
        return _finalize(
            fallback.value, "closed_form", converged=False,
            series_terms=terms, tail_bound=fallback.tail_bound,
            expansion_order=order, expansion_bound=expansion_bound,
            note=f"series unconverged; value from quadrature "
                 f"({fallback.note}); "
                 + _provenance(order, fallback.tail_bound, expansion_bound))
    if not res.converged:
        res.note = f"series truncated at term budget; {res.note}"
    return res


def _strong_moments(cfg: SystemConfig, zeta, a, digits: int):
    """Strong-user moments E[(1+g)^(2 zeta - 2j)] summed at `digits` digits,
    as floats; the magnitude xi d sum_j |a_j| sum_i |w_i I_i| of the terms
    of their a-weighted sum; and the digits that sum loses to cancellation.

    The ladders, the sums and both measures run in Decimal under a local
    decimal context of `digits` digits; the float inputs enter exactly.
    """
    with localcontext(Context(prec=digits)):
        d = 1 / Decimal(cfg.rho * cfg.alpha_u)
        s0 = -2 * Decimal(zeta)
        xi_d = d / Decimal(beta_fn(cfg.u, cfg.V - cfg.u + 1))
        terms = [(-1) ** i * math.comb(cfg.u - 1, i) * _int_ladder(
                     (cfg.V - cfg.u + 1 + i) * d, 2 * (a.size - 1), s0)[::2]
                 for i in range(cfg.u)]
        moments = xi_d * sum(terms)
        a = [Decimal(x) for x in a]     # exact, as is every float here
        scale = xi_d * sum(abs(x) * y for x, y in zip(a, sum(np.abs(terms))))
        lost = (scale / abs(sum(x * y for x, y in zip(a, moments)))).log10()
        return moments.astype(float), float(scale), float(lost)


def ec_closed_strong(cfg: SystemConfig, ctl: EvalControls,
                     order: tuple[int, int] | None = None) -> EcResult:
    """Closed-form effective capacity of the strong user.

    The interference-free SNR is linear in the gain, so each moment
    E[(1+g)^(2 zeta - 2j)] of the expanded kernel is an alternating sum of
    I_s(eta) = U(1, 2 - s, eta) at s = -2 zeta + 2j; per eta all of them sit
    on one ladder of the real-order recurrence, seeded by one scaled_expint
    call.  The sum cancels up to about 30 digits, so it runs in Decimal at
    _SUM_DIGITS digits, redone at _SUM_DIGITS_SPARE more than it loses where
    fewer than _SUM_DIGITS_KEPT remain; mpmath makes only the seeds.  The
    only error is rounding: 10^(4 - digits) times the sum's magnitude, plus
    eps times the float moments'.
    """
    role = "strong"
    theta = cfg.theta_for(role)
    eps = cfg.eps_for(role)
    if eps == 1.0:
        return _finalize(0.0, "closed_form", note="degenerate eps = 1")
    kp = make_kernel_params(theta, cfg.n, eps)
    order = _order(kp, ctl, order)
    a = expansion_coeffs(kp.beta, order)
    digits = _SUM_DIGITS
    moments, scale, lost = _strong_moments(cfg, kp.zeta, a, digits)
    if digits - lost < _SUM_DIGITS_KEPT:
        digits = math.ceil(lost) + _SUM_DIGITS_SPARE
        moments, scale, _ = _strong_moments(cfg, kp.zeta, a, digits)
    noise = 10.0 ** (4 - digits) * scale \
        + _MACHEPS * math.fsum(np.abs(a * moments))
    res, _ = _closed_result(kp, eps, theta, cfg.n, order, a, moments, noise)
    if res is None:
        return _finalize(math.nan, "closed_form", converged=False,
                         expansion_order=order,
                         note="non-positive kernel expectation")
    return res


def evaluate(cfg: SystemConfig, role: str, method: str,
             ctl: EvalControls, gains: GainDraws | None = None) -> EcResult:
    """Single entry point used by sweeps and reports.

    `gains` (from mc_gain_draws) is used by the Monte-Carlo method only.
    """
    if role not in ROLES:
        raise ValueError(f"role must be one of {ROLES}, got {role!r}")
    if method == "closed_form":
        closed = ec_closed_weak if role == "weak" else ec_closed_strong
        return closed(cfg, ctl)
    if method == "monte_carlo":
        return ec_monte_carlo(cfg, role, ctl, gains)
    if method == "quadrature":
        return ec_quadrature(cfg, role, ctl, kernel_variant="exact")
    raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
