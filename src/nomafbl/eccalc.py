"""Effective-capacity evaluators: Monte-Carlo, quadrature oracle, closed forms.

All three compute the same object,

    C_e = -ln( E[k(gamma)] ) / (theta * n * ln 2)    [bits per channel use],

where the expectation is over the ordered-gain law of the selected user and
k is either the exact kernel or its expansion in powers of beta and
w = (1+gamma)^-2 (fblrate module).  The closed forms need the expansion, and
its order (M, J) is chosen per point from beta under SERIES_REL_TOL
(fblrate.expansion_order); the "approx" quadrature uses the same order.
Cross-checking the routes localizes failures: closed form vs quadrature of
the expanded kernel isolates the series algebra, quadrature of the exact
kernel vs Monte-Carlo isolates sampling, and exact vs expanded quadrature
isolates the expansion error itself, which the closed forms also bound and
report.

scipy.integrate, which only the quadrature oracle uses, is imported on the
first ec_quadrature call (or the first read of ``eccalc.integrate``), not
with the package: it adds about 26 MB resident and 0.24 s cold, which
closed-form, Monte-Carlo and queue runs never need.
"""

from __future__ import annotations

import functools
import math
import sys
import threading
from dataclasses import dataclass
from decimal import Context, Decimal, getcontext, localcontext

import mpmath
import numpy as np

from .channel import (SystemConfig, gamma_for_role, ordered_quantile,
                      sample_gains)
from .fblrate import (LN2, ec_kernel, expansion_coeffs, expansion_error_coeffs,
                      expansion_order, make_kernel_params, rate_minimum)
from .specfun import ConvergenceError, beta_fn, scaled_expint

_MC_CHUNK = 1 << 16
_MACHEPS = np.finfo(float).eps
# Significant digits of the strong user's sum (see _strong_moments)
_SUM_DIGITS, _SUM_DIGITS_KEPT, _SUM_DIGITS_SPARE = 50, 20, 30
# Relative tolerance of the kernel expansion order and the weak-user series
SERIES_REL_TOL = 1e-10
_SEED_LOCK = threading.Lock()

METHODS = ("closed_form", "monte_carlo", "quadrature")


def __getattr__(name):
    # PEP 562: bind scipy.integrate as the module global `integrate` on its
    # first lookup; a caller may then replace that binding or its `quad`
    if name == "integrate":
        from scipy import integrate
        globals()["integrate"] = integrate
        return integrate
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class EvalControls:
    """Numerical policy shared by the evaluators.

    Monte-Carlo sampling is chunked into fixed-size blocks, each driven by
    an independent substream derived from (seed, chunk index), so results
    are reproducible.
    """

    mc_samples: int = 200_000
    seed: int = 1234
    quad_rel_tol: float = 1e-9
    series_max_terms: int = 500

    def __post_init__(self):
        if self.mc_samples < 1:
            raise ValueError("mc_samples must be >= 1")
        if not 0.0 < self.quad_rel_tol < 1.0:
            raise ValueError("quad_rel_tol must lie in (0, 1)")
        if self.series_max_terms < 2:
            raise ValueError("series_max_terms must be >= 2")


_NEGATIVE = "negative capacity: delay exponent infeasible at this SNR"


@dataclass
class EcResult:
    """An effective-capacity value with method tag and diagnostics.

    converged        closed forms: False where the moment series was cut at
                     the term budget, or where its kernel mean was not finite
                     or its error bound not below half that mean, so that the
                     value is the approx-kernel quadrature's; a non-positive
                     quadrature mean raises ConvergenceError instead
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
                     subintervals; a negative value adds, once, that its
                     delay exponent is infeasible
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

    def __post_init__(self):
        if self.value < 0.0 and _NEGATIVE not in self.note:
            self.note = "; ".join(filter(None, [self.note, _NEGATIVE]))


def _ec_from_mean(mean: float, theta: float, n: int) -> float:
    return -math.log(mean) / (theta * n * LN2)


def _order(kp, order):
    """The kernel expansion order of one point: given, or chosen from beta."""
    return tuple(order) if order else expansion_order(kp.beta, SERIES_REL_TOL)


# ---------------------------------------------------------------------------
# Monte-Carlo estimator
# ---------------------------------------------------------------------------

# The draws of the last (V, t, u, seed, mc_samples), see mc_gain_draws
_gain_draws: dict[tuple, tuple] = {}


def mc_gain_draws(cfg: SystemConfig, ctl: EvalControls) -> tuple:
    """The Monte-Carlo ordered-gain draws (x_t, x_u), one pair per chunk.

    Chunk idx is drawn from the generator seeded by (seed, idx), and the
    draws depend on cfg only through (V, t, u), so one tuple serves every
    SNR, QoS exponent and user of a pool: the draws of the last (V, t, u,
    seed, mc_samples) are kept, as the two contiguous arrays that
    sample_gains returns (16 bytes per sample), marked read-only.
    """
    key = cfg.V, cfg.t, cfg.u, ctl.seed, ctl.mc_samples
    draws = _gain_draws.get(key)
    if draws is None:
        pairs = []
        for idx, start in enumerate(range(0, ctl.mc_samples, _MC_CHUNK)):
            m = min(_MC_CHUNK, ctl.mc_samples - start)
            pair = sample_gains(cfg, m, np.random.default_rng([ctl.seed, idx]))
            for col in pair:
                col.flags.writeable = False
            pairs.append(pair)
        draws = tuple(pairs)
        _gain_draws.clear()
        _gain_draws[key] = draws
    return draws


def ec_monte_carlo(cfg: SystemConfig, role: str,
                   ctl: EvalControls) -> EcResult:
    """Sample-average estimate of the effective capacity (exact kernel),
    over mc_gain_draws(cfg, ctl).

    The standard error of the kernel mean is pushed through the log
    transform by the delta method.
    """
    theta = cfg.theta_for(role)
    eps = cfg.eps
    col = 0 if role == "weak" else 1
    kp = make_kernel_params(theta, cfg.n, eps)
    sums, sums_sq = [], []
    for pair in mc_gain_draws(cfg, ctl):
        k = ec_kernel(gamma_for_role(pair[col], cfg, role), kp, eps)
        sums.append(float(np.sum(k)))
        k *= k
        sums_sq.append(float(np.sum(k)))
        # release this chunk's arrays before the next chunk's are made;
        # freed a chunk late, glibc's malloc returned them to the system
        # and the next chunk faulted them back in
        del k
    n_samp = ctl.mc_samples
    how = f"{n_samp} samples, seed {ctl.seed}"
    mean = math.fsum(sums) / n_samp
    if not math.isfinite(mean) or mean <= 0.0:
        return EcResult(math.nan, "monte_carlo", converged=False,
                        note=f"non-finite kernel mean; {how}")
    mean_sq = math.fsum(sums_sq) / n_samp
    var = max(mean_sq - mean * mean, 0.0)
    if n_samp > 1:
        var *= n_samp / (n_samp - 1)
    se_mean = math.sqrt(var / n_samp)
    value = _ec_from_mean(mean, theta, cfg.n)
    se = se_mean / (mean * theta * cfg.n * LN2)
    return EcResult(value, "monte_carlo", std_error=se, note=how)


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


def _integrand(cfg: SystemConfig, role: str, kp, eps: float, order):
    """kernel(gamma_for_role(x)) * ordered_pdf(x) as a function of one float.

    QUADPACK calls the integrand one node at a time, so it is plain float
    arithmetic in math over constants made once here; numpy's per-call
    overhead would outweigh the arithmetic.  The kernel is ec_kernel, or
    its expansion at ``order`` with the polynomial in w by Horner's rule.
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
    eps = cfg.eps
    kp = make_kernel_params(theta, cfg.n, eps)
    order = None if kernel_variant == "exact" else _order(kp, order)
    integrand = _integrand(cfg, role, kp, eps, order)
    k_idx = cfg.order_index(role)

    x_hi = ordered_quantile(1.0 - 1e-6, k_idx, cfg.V)
    pts = [ordered_quantile(q, k_idx, cfg.V)
           for q in (1e-4, 1e-3, 1e-2, 0.1, 0.5, 0.9)]
    # mass near gamma = 1 (high SNR, large theta n) lies below the quantiles
    unit = _gamma_to_gain(1.0, cfg, role)
    pts.extend(unit * 10.0 ** k for k in range(-2, 3))
    # the exact kernel peaks at the rate minimum, for every theta
    peak = _gamma_to_gain(rate_minimum(cfg.n, eps), cfg, role)
    pts.extend([0.5 * peak, peak, 2.0 * peak])
    pts = sorted(p for p in pts if 0.0 < p < x_hi)

    quad = sys.modules[__name__].integrate.quad
    try:
        head = quad(integrand, 0.0, x_hi, points=pts, limit=400,
                    epsabs=1e-300, epsrel=ctl.quad_rel_tol, full_output=1)
        if len(head) > 3:
            raise ConvergenceError(f"head quadrature failed: {head[3]}")
        tail = quad(integrand, x_hi, np.inf, limit=200,
                    epsabs=1e-300, epsrel=ctl.quad_rel_tol, full_output=1)
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
    return EcResult(value, "quadrature", tail_bound=bound,
                    expansion_order=order, note=note)


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def _int_ladder(etas, s_max: int, s0=0.0) -> list[np.ndarray]:
    """I_{s0+k} = int_0^inf e^{-eta v} (1+v)^{-(s0+k)} dv for k = 0 .. s_max,
    one ladder per eta of a sequence.

    The three-term recurrence I_{s+1} = (1 - eta I_s)/s holds for real s and
    is stable upward for s > eta and downward below, so each ladder is
    seeded at s0 + k0 with k0 ~ ceil(eta - s0) + 1 and run in the stable
    direction on each side.  The etas that share a k0 get their seeds from
    one scaled_expint call.  The rungs are floats for float etas, else
    Decimals at the precision of the current decimal context, orders
    s0 + k included.  mpmath then makes the seeds at that many digits; it
    takes no Decimal, so the seeds' arguments and values pass as strings,
    and a value's string rounds it within 10^(1 - digits) relative.  Float
    seeds are made at mpmath's default 53 bits, whatever the caller's
    precision; mpmath's precision is process-wide, so seeding holds a lock.
    """
    extended = isinstance(etas[0], Decimal)
    k0s = [min(s_max, max(0, math.ceil(eta - s0) + 1)) for eta in etas]
    seeds = {}
    precision = (mpmath.workdps(getcontext().prec) if extended
                 else mpmath.workprec(53))
    with _SEED_LOCK, precision:
        for k0 in sorted(set(k0s)):
            group = [i for i, k in enumerate(k0s) if k == k0]
            if extended:
                values = [Decimal(str(v)) for v in scaled_expint(
                    str(s0 + k0), [str(etas[i]) for i in group])]
            else:
                values = [float(v) for v in scaled_expint(
                    s0 + k0, [etas[i] for i in group])]
            seeds.update(zip(group, values))
    ladders = []
    for i, (eta, k0) in enumerate(zip(etas, k0s)):
        rungs = [seeds[i]]
        for k in range(k0 - 1, -1, -1):
            rungs.append((1 - (s0 + k) * rungs[-1]) / eta)
        rungs.reverse()
        for k in range(k0, s_max):
            rungs.append((1 - eta * rungs[-1]) / (s0 + k))
        ladders.append(np.array(rungs, dtype=object if extended else float))
    return ladders


def _weak_series(cs: np.ndarray, q: float, d: float, ladder: np.ndarray,
                 log_prefactors: np.ndarray, ctl: EvalControls):
    """Inner series sum_s C(c, s) q^s d I_s, scaled by exp(log_prefactor),
    for every c in cs at once (one row per c).

    SystemConfig makes c < 0 and q < 0, so every term C(c, s) q^s d I_s =
    C(s - c - 1, s) |q|^s d I_s is positive: no signs are tracked, the sum
    is monotone and the running term ratio gives an honest geometric tail
    bound.  Terms are tracked in the log domain: for large |c| the early
    terms underflow while the series peak (near |c q| / (1 - |q|)) may
    still lie far ahead, and only the log trend can tell a negligible tail
    from a not-yet-reached bulk.  Each row stops at its first term whose
    tail is negligible against the running sum, before a term beyond e^700
    (the first term, d I_0 <= 1 times a prefactor <= 1, never is), or at
    the term budget.  Returns per-row arrays (sum, terms_used, tail_bound);
    the tail bound is inf where the series diverges, that is where it meets
    a term beyond e^700 or its terms still grow at the budget.
    """
    s_max = min(ctl.series_max_terms, ladder.size - 1)
    s = np.arange(1, s_max + 1)
    steps = (s - 1.0) - cs[:, None]     # term ratio = step |q| / s
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        incr = np.log(steps) - np.log(s) + math.log(-q)
        log_term = np.concatenate(
            [log_prefactors[:, None],
             log_prefactors[:, None] + np.cumsum(incr, axis=1)], axis=1) \
            + np.log(d * ladder[:s_max + 1])
        terms = np.exp(log_term)
        totals = np.cumsum(terms, axis=1)
        log_ratio = np.full_like(log_term, np.inf)
        log_ratio[:, 1:] = np.diff(log_term, axis=1)
        ratio = np.exp(np.minimum(log_ratio, 0.0))
        tails = np.where(log_ratio < 0.0,
                         terms * ratio / (1.0 - ratio), np.inf)
    done = (log_ratio < 0.0) & (
        (tails <= SERIES_REL_TOL * totals)
        | ((totals == 0.0) & (log_term < -700.0)))
    done[:, :2] = False
    blown = log_term > 700.0
    rows, cols = np.arange(cs.size), np.arange(s_max + 1)
    stop = np.where(done, cols, s_max).min(axis=1)
    blow = np.where(blown, cols, s_max + 1).min(axis=1)
    diverged = blow <= stop
    last = np.where(diverged, blow - 1, stop)
    return (totals[rows, last], np.where(diverged, blow, stop),
            np.where(diverged, math.inf, tails[rows, last]))


@functools.lru_cache(maxsize=1)
def _weak_ladders(V: int, t: int, d: float, s_max: int) -> tuple:
    """The weak user's I_s ladders at eta = (V - t + 1 + r) d, r < t, made
    read-only.  They depend on neither theta nor the expansion order, so a
    theta sweep at one SNR builds them once: the cache keeps the last key
    only, and an SNR sweep, which changes d on every row, misses on each."""
    ladders = _int_ladder([(V - t + 1 + r) * d for r in range(t)], s_max)
    for ladder in ladders:
        ladder.flags.writeable = False
    return tuple(ladders)


def _weak_moments(cfg: SystemConfig, zeta, a, ctl: EvalControls):
    """Weak-user moments E[(1 + sinr_weak)^(2 zeta - 2j)], via binomial
    expansion of the ordered density.

    The SINR ratio is rewritten as a scaled (x + a)/(x + b) form whose
    binomial expansion in d/(x + b) converges geometrically at rate alpha_t
    (= -q, as alpha_t + alpha_u = 1); each integral moment reduces to the
    I_s ladder above, which depends on the exponent only through the
    binomial weights, so each ladder is built once and serves every moment,
    and the last SNR's ladders serve every theta after it (_weak_ladders).
    Returns (moments, err, terms, converged) for _ec_closed: err is the
    sum over the expansion coefficients a_j of |a_j| times the inner
    series' tail bounds (inf where one diverges), plus rounding; converged
    is that tail sum within SERIES_REL_TOL of the same weighted sum of the
    inner series' magnitudes, so a high moment left truncated by the term
    budget counts only as much as its coefficient lets it.
    """
    cs = 2.0 * zeta - 2.0 * np.arange(a.size)
    q = -cfg.alpha_t
    d = 1.0 / (cfg.rho * cfg.alpha_u)
    xi = 1.0 / beta_fn(cfg.t, cfg.V - cfg.t + 1)
    log_pref = cs * math.log(1.0 / cfg.alpha_u)
    parts, tails = [], []
    terms_used = np.zeros(cs.size, dtype=int)
    ladders = _weak_ladders(cfg.V, cfg.t, d, ctl.series_max_terms)
    for r, ladder in enumerate(ladders):
        series, s_used, tail = _weak_series(cs, q, d, ladder, log_pref, ctl)
        weight = math.comb(cfg.t - 1, r)
        parts.append(weight * series)
        tails.append(weight * tail)
        terms_used = np.maximum(terms_used, s_used + 1)
    mu = xi * np.array([math.fsum((-1) ** r * x for r, x in enumerate(col))
                        for col in zip(*parts)])
    tail_j = xi * np.array([math.fsum(col) for col in zip(*tails)])
    scale_j = xi * np.array([math.fsum(col) for col in zip(*parts)])
    used = a != 0.0
    tail = math.fsum(np.abs(a[used]) * tail_j[used])
    scale = math.fsum(np.abs(a[used]) * scale_j[used])
    err = tail + _MACHEPS * (scale + math.fsum(np.abs(a * mu)))
    return mu, err, int(terms_used.max()), tail <= SERIES_REL_TOL * scale


def _strong_sums(cfg: SystemConfig, zeta, a, digits: int):
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
        ladders = _int_ladder([(cfg.V - cfg.u + 1 + i) * d
                               for i in range(cfg.u)], 2 * (a.size - 1), s0)
        terms = [(-1) ** i * math.comb(cfg.u - 1, i) * ladder[::2]
                 for i, ladder in enumerate(ladders)]
        moments = xi_d * sum(terms)
        a = [Decimal(x) for x in a]     # exact, as is every float here
        scale = xi_d * sum(abs(x) * y for x, y in zip(a, sum(np.abs(terms))))
        lost = (scale / abs(sum(x * y for x, y in zip(a, moments)))).log10()
        return moments.astype(float), float(scale), float(lost)


def _strong_moments(cfg: SystemConfig, zeta, a, ctl: EvalControls):
    """Strong-user moments E[(1+g)^(2 zeta - 2j)] and their rounding error.

    The interference-free SNR is linear in the gain, so each moment is an
    alternating sum of I_s(eta) = U(1, 2 - s, eta) at s = -2 zeta + 2j; per
    eta all of them sit on one ladder of the real-order recurrence, and the
    u ladders take their seeds from one scaled_expint call per seed order.
    The sum cancels up to about 30 digits, so it runs in Decimal at
    _SUM_DIGITS digits, redone at _SUM_DIGITS_SPARE more than it loses where
    fewer than _SUM_DIGITS_KEPT remain; mpmath makes only the seeds.  The
    only error is rounding: 10^(4 - digits) times the sum's magnitude, plus
    eps times the float moments'.  The sum has no term budget, so it
    reports no term count and always counts as converged.
    """
    digits = _SUM_DIGITS
    moments, scale, lost = _strong_sums(cfg, zeta, a, digits)
    if digits - lost < _SUM_DIGITS_KEPT:
        digits = math.ceil(lost) + _SUM_DIGITS_SPARE
        moments, scale, _ = _strong_sums(cfg, zeta, a, digits)
    noise = 10.0 ** (4 - digits) * scale \
        + _MACHEPS * math.fsum(np.abs(a * moments))
    return moments, noise, None, True


def _ec_closed(cfg: SystemConfig, role: str, ctl: EvalControls,
               order: tuple[int, int] | None) -> EcResult:
    """Closed-form effective capacity of either user.

    Expands the kernel to ``order`` (chosen from beta by default, see
    fblrate.expansion_order) and assembles its mean eps + (1 - eps)
    sum_j a_j mu_j from the role's moments mu_j = E[(1+g)^(2 zeta - 2j)]
    (_weak_moments, _strong_moments), which also bound the error err of
    sum_j a_j mu_j.  One rule for both users: the sum stands where the
    mean is finite and err < mean / 2 (a diverged series has err = inf);
    otherwise the value is the adaptive quadrature of the same expanded
    kernel, flagged unconverged, and where that quadrature's mean is not
    positive its ConvergenceError reaches the caller.  ``tail_bound`` is
    the error against the expanded kernel, ``expansion_bound`` that of the
    expanded kernel against the exact one; their sum bounds the gap to the
    exact-kernel capacity.
    """
    theta = cfg.theta_for(role)
    eps = cfg.eps
    kp = make_kernel_params(theta, cfg.n, eps)
    order = _order(kp, order)
    a = expansion_coeffs(kp.beta, order)
    moments_of = _weak_moments if role == "weak" else _strong_moments
    moments, err, terms, converged = moments_of(cfg, kp.zeta, a, ctl)
    inner = eps + (1.0 - eps) * math.fsum(a * moments)
    if math.isfinite(inner) and err < 0.5 * inner:
        value = _ec_from_mean(inner, theta, cfg.n)
        tail_bound = (1.0 - eps) * err / (inner * theta * cfg.n * LN2)
        mu = abs(moments[0]), abs(moments[-1])
        how = "" if converged else "series truncated at term budget; "
    else:
        fallback = ec_quadrature(cfg, role, ctl, "approx", order)
        value, tail_bound = fallback.value, fallback.tail_bound
        inner = math.exp(-fallback.value * theta * cfg.n * LN2)
        mu, converged = (1.0, 1.0), False
        how = f"series unconverged; value from quadrature ({fallback.note}); "
    # by expansion_error_coeffs the kernel means differ by at most
    # (1-eps) (r_M mu_0 + t_J mu_J), with mu_j <= 1, on either side of inner
    r_m, t_j = expansion_error_coeffs(kp.beta, order)
    gap = (1.0 - eps) * (r_m * mu[0] + t_j * mu[1])
    expansion_bound = (-math.log1p(-gap / inner) / (theta * cfg.n * LN2)
                       if gap < inner else math.inf)
    return EcResult(
        value, "closed_form", series_terms=terms, converged=converged,
        tail_bound=tail_bound, expansion_order=order,
        expansion_bound=expansion_bound,
        note=f"{how}kernel expansion order {order}; truncation bound "
             f"{tail_bound:.1e}, expansion bound {expansion_bound:.1e} bits/cu")


def ec_closed_weak(cfg: SystemConfig, ctl: EvalControls,
                   order: tuple[int, int] | None = None) -> EcResult:
    """Closed-form effective capacity of the weak user (_ec_closed)."""
    return _ec_closed(cfg, "weak", ctl, order)


def ec_closed_strong(cfg: SystemConfig, ctl: EvalControls,
                     order: tuple[int, int] | None = None) -> EcResult:
    """Closed-form effective capacity of the strong user (_ec_closed)."""
    return _ec_closed(cfg, "strong", ctl, order)


def evaluate(cfg: SystemConfig, role: str, method: str,
             ctl: EvalControls) -> EcResult:
    """Single entry point used by sweeps and reports."""
    if method == "closed_form":
        cfg.theta_for(role)     # refuses an unknown role, as the others do
        closed = ec_closed_weak if role == "weak" else ec_closed_strong
        return closed(cfg, ctl)
    if method == "monte_carlo":
        return ec_monte_carlo(cfg, role, ctl)
    if method == "quadrature":
        return ec_quadrature(cfg, role, ctl, kernel_variant="exact")
    raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
