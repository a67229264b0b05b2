"""Effective-capacity evaluators: Monte-Carlo, quadrature oracle, closed forms.

All three compute the same object,

    C_e = -ln( E[k(gamma)] ) / (theta * n * ln 2)    [bits per channel use],

where the expectation is over the ordered-gain law of the selected user
alone (Monte-Carlo draws that user's gain by itself, channel.sample_gain) and
k is either the exact kernel or its expansion in powers of beta and
w = (1+gamma)^-2 (fblrate module).  The closed forms need the expansion, and
its order (M, J) is chosen per point from beta under SERIES_REL_TOL
(fblrate.expansion_order); the "approx" quadrature uses the same order.
Cross-checking the routes localizes failures: closed form vs quadrature of
the expanded kernel isolates the series algebra, quadrature of the exact
kernel vs Monte-Carlo isolates sampling, and exact vs expanded quadrature
isolates the expansion error itself, which the closed forms also bound and
report.

Both closed forms sum I_s ladders that specfun.expint_ladders builds and
seeds, in float or at the decimal context's digits; the weak user's series
seed a three-term recurrence in the exponent (_weak_moments), and the
strong user's float route splits each moment at x0 (_strong_split).

scipy.integrate, which only the quadrature oracle uses, is imported on the
first ec_quadrature call (or the first read of ``eccalc.integrate``), not
with the package: it adds about 26 MB resident and 0.24 s cold, which
closed-form, Monte-Carlo and queue runs never need.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from decimal import Context, Decimal, localcontext

import numpy as np

from .channel import (SystemConfig, gain_for_gamma, gamma_for_role,
                      ordered_mixture, ordered_quantile, ordered_taylor,
                      sample_gain, scalar_integrand)
from .fblrate import (LN2, ec_kernel, expansion_coeffs, expansion_error_coeffs,
                      expansion_order, make_kernel_params, rate_minimum,
                      scalar_kernel)
from .specfun import ConvergenceError, expint_ladders, power_moments

_MC_CHUNK = 1 << 16
_MACHEPS = np.finfo(float).eps
# The strong user's sum (_strong_moments): the float split's point, Taylor
# terms, ladder error and least digits kept; the Decimal pass's digits, the
# least it keeps and the redo's spare
_SPLIT_X0, _SPLIT_TERMS, _LADDER_REL, _FLOAT_DIGITS_KEPT = (
    0.5, 50, 64 * _MACHEPS, 10)
_SUM_DIGITS, _SUM_DIGITS_KEPT, _SUM_DIGITS_SPARE = 50, 20, 30
# Relative tolerance of the kernel expansion order and the weak-user series
SERIES_REL_TOL = 1e-10
# The weak recurrence (_weak_moments): the tolerance of the series that seed
# it, and the ulps of one step's magnitude that bound the step's rounding
_SEED_REL_TOL, _STEP_ULPS = SERIES_REL_TOL / 16, 8

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
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not 0.0 < self.quad_rel_tol < 1.0:
            raise ValueError("quad_rel_tol must lie in (0, 1)")
        if self.series_max_terms < 2:
            raise ValueError("series_max_terms must be >= 2")


_NEGATIVE = "negative capacity: delay exponent infeasible at this SNR"


@dataclass
class EcResult:
    """An effective-capacity value with method tag and diagnostics.

    converged        closed forms: False where a weak series was cut at the
                     term budget with a finite tail, which keeps the series
                     value, and where the sum's kernel mean was not finite or
                     its error bound not below half that mean, which gives
                     the approx-kernel quadrature's value; a non-positive
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
    series_terms     weak closed form: the term count of its longest inner
                     series, or the whole budget plus one where no series
                     can converge (_weak_moments); None elsewhere
    note             how the value was made, for closed forms including the
                     expansion order and both bounds, the route of the weak
                     sum ("series at N exponents, recurrence for K", "series
                     at every exponent", "no series: ..."; _weak_moments),
                     and for the strong user the route of its sum ("split
                     at x0", "sum at 50 digits", "redone at D digits";
                     _strong_moments) and the digits it lost; for
                     quadrature the kernel and QUADPACK's integrand
                     evaluations and subintervals; a negative value adds,
                     once, that its delay exponent is infeasible
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

@functools.lru_cache(maxsize=2)
def mc_gain_draws(k: int, V: int, seed: int, mc_samples: int) -> tuple:
    """The Monte-Carlo draws of X_(k) of a pool of V (sample_gain), one
    read-only array per chunk.

    Chunk idx is drawn from the generator seeded by (seed, idx).  The
    draws depend on neither the SNR nor the QoS exponent, so the cache
    keeps one entry per user of a pool, 8 bytes per sample each: a sweep
    or a validate run draws once per user.
    """
    chunks = []
    for idx, start in enumerate(range(0, mc_samples, _MC_CHUNK)):
        x = sample_gain(k, V, min(_MC_CHUNK, mc_samples - start),
                        np.random.default_rng([seed, idx]))
        x.flags.writeable = False
        chunks.append(x)
    return tuple(chunks)


def ec_monte_carlo(cfg: SystemConfig, role: str,
                   ctl: EvalControls) -> EcResult:
    """Sample-average estimate of the effective capacity (exact kernel),
    over the role's gain draws (mc_gain_draws).

    The standard error of the kernel mean is pushed through the log
    transform by the delta method.
    """
    theta = cfg.theta_for(role)
    eps = cfg.eps
    kp = make_kernel_params(theta, cfg.n, eps)
    sums, sums_sq = [], []
    draws = mc_gain_draws(cfg.order_index(role), cfg.V, ctl.seed,
                          ctl.mc_samples)
    # one pair of chunk arrays for the whole call: made afresh per chunk,
    # glibc's malloc returned them to the system and faulted them back in
    gammas, kernel = np.empty((2, draws[0].size))
    for x in draws:
        k = ec_kernel(gamma_for_role(x, cfg, role, out=gammas[:x.size]), kp,
                      eps, out=kernel[:x.size])
        sums.append(float(np.sum(k)))
        k *= k
        sums_sq.append(float(np.sum(k)))
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

def ec_quadrature(cfg: SystemConfig, role: str, ctl: EvalControls,
                  kernel_variant: str = "exact",
                  order: tuple[int, int] | None = None) -> EcResult:
    """Adaptive-quadrature evaluation of E[kernel] over the ordered-gain law.

    The "approx" variant integrates the kernel expansion of the closed
    forms, at the expansion order they use for the same (cfg, ctl) unless
    ``order`` pins it; the exact variant refuses an order.  The domain
    splits at the 99.9999th percentile of the order statistic; beyond it
    the integrand carries negligible mass and is handled by a dedicated
    semi-infinite panel.  The note names the kernel and counts QUADPACK's
    integrand evaluations and subintervals, head + tail.
    """
    if kernel_variant not in ("exact", "approx"):
        raise ValueError(f"unknown kernel_variant {kernel_variant!r}")
    if kernel_variant == "exact" and order is not None:
        raise ValueError(f"the exact kernel takes no expansion order, got "
                         f"{order}")
    theta = cfg.theta_for(role)
    eps = cfg.eps
    kp = make_kernel_params(theta, cfg.n, eps)
    order = None if kernel_variant == "exact" else _order(kp, order)
    integrand = scalar_integrand(cfg, role, scalar_kernel(kp, eps, order))
    k_idx = cfg.order_index(role)

    x_hi = ordered_quantile(1.0 - 1e-6, k_idx, cfg.V)
    pts = [ordered_quantile(q, k_idx, cfg.V)
           for q in (1e-4, 1e-3, 1e-2, 0.1, 0.5, 0.9)]
    # mass near gamma = 1 (high SNR, large theta n) lies below the quantiles
    unit = gain_for_gamma(1.0, cfg, role)
    pts.extend(unit * 10.0 ** k for k in range(-2, 3))
    # the exact kernel peaks at the rate minimum, for every theta
    peak = gain_for_gamma(rate_minimum(cfg.n, eps), cfg, role)
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

def _weak_series(cs: np.ndarray, q: float, d: float, ladders: np.ndarray,
                 log_prefactors: np.ndarray, tol: float = SERIES_REL_TOL):
    """Inner series sum_s C(c, s) q^s d I_s, scaled by exp(log_prefactor),
    for every ladder (a row of ``ladders``) and every c in cs at once.

    SystemConfig makes c < 0 and q < 0, so every term C(c, s) q^s d I_s =
    C(s - c - 1, s) |q|^s d I_s is positive: no signs are tracked and the
    sum is monotone.  As I_s falls with s, the term ratios after column j
    are at most rho = |q| max(1, (j - c) / (j + 1)), so the tail after it
    is at most its term times rho / (1 - rho); the last ratio understates
    the later ones where they still grow toward |q|.  Terms are tracked in
    the log domain: for large |c| the early terms underflow while the
    series peak (near |c q| / (1 - |q|)) may still lie far ahead, and only
    the log trend can tell a negligible tail from a not-yet-reached bulk.
    Each series stops at its first term whose tail is at most tol times
    the running sum, before a term beyond e^700 (the first term, d I_0 <= 1
    times a prefactor <= 1, never is), or at the ladder's last rung.
    Returns arrays (sum, terms_used, tail_bound) indexed [ladder, c]; the
    tail bound is inf where the series diverges, that is where it meets a
    term beyond e^700 or ends with rho >= 1.
    """
    s_max = ladders.shape[1] - 1
    s = np.arange(1, s_max + 1)
    steps = (s - 1.0) - cs[:, None]     # term ratio = step |q| / s
    cols = np.arange(s_max + 1)
    rho = -q * np.maximum(1.0, (cols - cs[:, None]) / (cols + 1.0))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        incr = np.log(steps) - np.log(s) + math.log(-q)
        log_term = np.concatenate(
            [log_prefactors[:, None],
             log_prefactors[:, None] + np.cumsum(incr, axis=1)], axis=1) \
            + np.log(d * ladders)[:, None, :]
        terms = np.exp(log_term)
        totals = np.cumsum(terms, axis=-1)
        tails = np.where(rho < 1.0, terms * rho / (1.0 - rho), np.inf)
    done = (tails <= tol * totals) | (
        (rho < 1.0) & (totals == 0.0) & (log_term < -700.0))
    stop = np.where(done, cols, s_max).min(axis=-1)
    blow = np.where(log_term > 700.0, cols, s_max + 1).min(axis=-1)
    diverged = blow <= stop
    last = np.where(diverged, blow - 1, stop)
    i, j = np.indices(last.shape)
    return (totals[i, j, last], np.where(diverged, blow, stop),
            np.where(diverged, math.inf, tails[i, j, last]))


@functools.lru_cache(maxsize=1)
def _weak_ladders(V: int, t: int, d: float, s_max: int) -> np.ndarray:
    """The weak user's I_s ladders at eta = lambda_r d, one row per rate
    lambda_r of ordered_mixture, as one read-only matrix.  They depend on
    neither theta nor the expansion order, so a theta sweep at one SNR
    builds them once: the cache keeps the last key only, and an SNR sweep,
    which changes d on every row, misses on each."""
    ladders = np.array(expint_ladders(
        [rate * d for rate in ordered_mixture(t, V)[1]], s_max))
    ladders.flags.writeable = False
    return ladders


def _weak_moments(cfg: SystemConfig, zeta, a, ctl: EvalControls):
    """Weak-user moments E[(1 + SINR)^c], c = 2 zeta - 2j, j = 0..J,
    integrated term by term over the ordered density's exponentials
    (ordered_mixture).

    With q = -alpha_t and d = 1/(rho alpha_u), each exponential
    e^(-lambda x) contributes M(c) = alpha_u^-c int e^(-lambda x)
    (1 + q d/(x + d))^c dx.  Its binomial expansion in d/(x + d) is a
    series over the I_s ladder at eta = lambda d (_weak_series) that
    converges geometrically at rate alpha_t.  The ladders serve every
    exponent, and the last SNR's ladders every theta after it
    (_weak_ladders).

    Integrating M by parts links unit-spaced exponents (kappa_c =
    lambda d q / c):

        M(c-1) = -alpha_u^2 M(c+1) + alpha_u (2 - kappa_c) M(c)
                 + alpha_u kappa_c / lambda,

    and an error E carried down it obeys E(c-1) <= alpha_u^2 E(c+1) +
    alpha_u |2 - kappa_c| E(c) plus the step's rounding.  A step with
    alpha_u^2 + alpha_u |2 - kappa_c| <= 1 for every ladder does not grow
    the error; kappa_c falls as |c| grows.  So the series runs, to
    _SEED_REL_TOL, at the moments' exponents above the first c from which
    every step down to 2 zeta - 2J is non-growing and at c + 1 and c (on
    the presets 2 zeta and 2 zeta - 1), and the recurrence reaches the
    rest.  Where that needs as many series as there are moments, the
    series runs at every moment's exponent (Gautschi, "Computational
    aspects of three-term recurrence relations", SIAM Review 9, 1967).
    Where the ratio bound of a needed series is >= 1 at the budget's last
    column, that series cannot converge: none runs, err is inf (so
    _ec_closed falls back to its quadrature) and the term count is the
    whole budget plus one, as a series cut there would report.  Every
    needed series that runs has a finite tail bound: its positive terms
    sum to M(c) <= 1/lambda, so none reaches e^700.

    Returns (moments, err, terms, converged, route) for _ec_closed: err is
    the sum over the expansion coefficients a_j of |a_j| times the
    moments' error bounds (series tails, carried through the recurrence
    with its rounding), plus their rounding;
    converged is that tail sum within SERIES_REL_TOL of the same weighted
    sum of the moments' magnitudes, so a high moment left truncated by the
    term budget counts only as much as its coefficient lets it; terms is
    the longest series' count; route names where the series ran ("series
    at N exponents, recurrence for K", "series at every exponent", or
    "no series: ...").
    """
    q, alpha_u = -cfg.alpha_t, cfg.alpha_u
    d = 1.0 / (cfg.rho * alpha_u)
    s_max, top = ctl.series_max_terms, 2 * (a.size - 1)
    cs = 2.0 * zeta - np.arange(top + 1.0)      # every unit-spaced exponent
    b_fn, rates, weights = ordered_mixture(cfg.t, cfg.V)
    # the step at cs[k], k = 1..top-1, makes cs[k+1] from cs[k-1] and cs[k]
    kappa = np.array(rates, dtype=float)[:, None] * (d * q / cs[1:top])
    gain = alpha_u * (2.0 - kappa)
    grows = np.flatnonzero(np.any(alpha_u ** 2 + np.abs(gain) > 1.0, axis=0))
    first = int(grows[-1]) + 2 if grows.size else 1
    direct = sorted({*range(0, first - 1, 2), first - 1, first})
    recur, used = len(direct) < a.size, a != 0.0
    if not recur:
        direct = list(range(0, top + 1, 2))
    needed = cs[direct] if recur else cs[::2][used]
    if np.any(-q * np.maximum(1.0, (s_max - needed) / (s_max + 1.0)) >= 1.0):
        return (np.zeros(a.size), math.inf, s_max + 1, False,
                "no series: its ratio bound stays >= 1 through the term "
                "budget")
    series, terms, tails = _weak_series(
        cs[direct], q, d, _weak_ladders(cfg.V, cfg.t, d, s_max),
        cs[direct] * math.log(1.0 / alpha_u),
        _SEED_REL_TOL if recur else SERIES_REL_TOL)
    moments, errs = np.zeros((2, len(rates), top + 1))
    moments[:, direct], errs[:, direct] = series, tails
    if recur:
        force = (alpha_u * d * q / cs[first:top]).tolist()
        square, ulp = alpha_u ** 2, _STEP_ULPS * _MACHEPS
        # alpha_u (2 + kappa) bounds |gain| and the rounding of kappa in it
        for row, (gains, spans) in enumerate(zip(
                gain[:, first - 1:].tolist(),
                (alpha_u * (2.0 + kappa[:, first - 1:])).tolist())):
            m2, m1 = moments[row, first - 1:first + 1].tolist()
            e2, e1 = (errs[row, first - 1:first + 1] + _MACHEPS
                      * moments[row, first - 1:first + 1]).tolist()
            out_m, out_e = [], []
            for g, h, f in zip(gains, spans, force):
                m2, m1, e2, e1 = m1, f + g * m1 - square * m2, e1, (
                    square * e2 + abs(g) * e1
                    + ulp * (square * abs(m2) + h * abs(m1) + f))
                out_m.append(m1)
                out_e.append(e1)
            moments[row, first + 1:], errs[row, first + 1:] = out_m, out_e
    w, xi = np.array(weights)[:, None], 1.0 / b_fn
    moments, errs = moments[:, ::2], errs[:, ::2]
    mu, tail_j, scale_j = (xi * np.array([math.fsum(col) for col in x.T])
                           for x in (w * moments, abs(w) * errs,
                                     abs(w) * moments))
    tail = math.fsum(np.abs(a[used]) * tail_j[used])
    scale = math.fsum(np.abs(a[used]) * scale_j[used])
    route = (f"series at {len(direct)} exponents, recurrence for "
             f"{top - first}" if recur else "series at every exponent")
    return (mu, tail + _MACHEPS * scale, int(terms.max()) + 1,
            tail <= SERIES_REL_TOL * scale, route)


@np.errstate(all="ignore")
def _strong_split(cfg: SystemConfig, zetas, coeffs):
    """The strong moments mu(m) = int (1 + c x)^-m f(x) dx, m = -2 zeta + 2j,
    c = rho alpha_u, split at x0 = _SPLIT_X0, in float, for rows that share
    cfg but their zeta and coefficients a (rows of coeffs, all of one
    length): per row the moments, a bound on the error of sum_j a_j mu_j,
    the digits that sum loses and whether it keeps _FLOAT_DIGITS_KEPT.  The
    head sums the Taylor terms (ordered_taylor) over power_moments, the tail
    sum_r (w_r / B) e^(-lambda_r x0) Y^-m (d + x0) I_m(lambda_r (d + x0)),
    Y = 1 + c x0, d = 1 / c, float ladders, as arrays with a row axis; a
    row's values do not depend on the other rows."""
    c, x0, k_max = cfg.rho * cfg.alpha_u, _SPLIT_X0, _SPLIT_TERMS
    b_fn, rates, weights = ordered_mixture(cfg.u, cfg.V)
    taylor, remainder = ordered_taylor(cfg.u, cfg.V, k_max)
    a = np.array(coeffs)
    ms = -2.0 * np.array(zetas)[:, None] + 2.0 * np.arange(a.shape[1])
    logs, errs = power_moments(ms[:, 0], a.shape[1], k_max, c, x0)
    d_x0, rates = 1.0 / c + x0, np.array(rates)[:, None]
    expo = -x0 * rates - ms[:, None] * math.log1p(c * x0)
    ladders = np.array([expint_ladders((rates[:, 0] * d_x0).tolist(),
                                       2 * (a.shape[1] - 1), m0)
                        for m0 in ms[:, 0]])[..., ::2]
    head = np.array(taylor) / b_fn * np.exp(logs[..., :-1])
    tail = np.array(weights)[:, None] / b_fn * d_x0 * np.exp(expo) * ladders
    moments = np.sum(head, axis=-1) + np.sum(tail, axis=-2)
    mags = np.sum(np.abs(head), axis=-1) + np.sum(np.abs(tail), axis=-2)
    bounds = np.abs(a) * (
        np.sum(np.abs(head) * errs[..., :-1], axis=-1)
        + remainder / b_fn * np.exp(logs[..., -1]) * (1.0 + errs[..., -1])
        + np.sum(np.abs(tail) * (_LADDER_REL + _MACHEPS * np.abs(expo)), -2)
        + (k_max + cfg.u + 16) * _MACHEPS * mags)
    splits = []
    for row, mu, bound, mag in zip(a, moments, bounds, np.abs(a) * mags):
        err, total = math.fsum(bound), abs(math.fsum(row * mu))
        lost = float(np.log10(np.float64(math.fsum(mag)) / total))
        splits.append((mu, err, lost,
                       err <= 10.0 ** -_FLOAT_DIGITS_KEPT * total))
    return splits


def _strong_pass(cfg: SystemConfig, zeta, a):
    """One Decimal pass of the strong sum over the whole line at the
    context's precision, which the float inputs enter exactly: the moments,
    their magnitude xi d sum_j |a_j| sum_i |w_i I_i| and the digits lost."""
    b_fn, rates, weights = ordered_mixture(cfg.u, cfg.V)
    d = 1 / Decimal(cfg.rho * cfg.alpha_u)
    xi_d = d / Decimal(b_fn)
    ladders = expint_ladders([rate * d for rate in rates], 2 * (a.size - 1),
                             -2 * Decimal(zeta))
    terms = [w * ladder[::2] for w, ladder in zip(weights, ladders)]
    moments = xi_d * sum(terms)
    a_num = [Decimal(x) for x in a]
    scale = xi_d * sum(abs(x) * y for x, y in zip(a_num, sum(np.abs(terms))))
    total = abs(sum(x * y for x, y in zip(a_num, moments)))
    return moments, scale, math.log10(scale / total) if total else math.inf


def _strong_moments(cfg: SystemConfig, zeta, a, split):
    """Strong-user moments E[(1+g)^(2 zeta - 2j)] and the error of their
    a-weighted sum.  The SNR is linear in the gain, so over the whole line
    each moment is an alternating sum of I_s(eta) at s = -2 zeta + 2j over
    the density's exponentials, which cancels by up to about 30 digits.
    The row's split at x0 (``split``, from _strong_split) cancels far less
    and stands where its bound keeps _FLOAT_DIGITS_KEPT digits; else the
    whole line runs in
    Decimal (_strong_pass) at _SUM_DIGITS digits, and where fewer than
    _SUM_DIGITS_KEPT survive, once more at _SUM_DIGITS_SPARE more than were
    lost, with error 10^(4 - digits) times the magnitude.  No term budget,
    so no term count and always converged.  The route, "split at x0",
    "sum at 50 digits" or "redone at D digits", and the digits its last
    pass lost make the note.
    """
    moments, err, lost, kept = split
    if kept:
        return moments, err, None, True, f"split at x0, {lost:.2f} digits lost"
    digits, route = _SUM_DIGITS, f"sum at {_SUM_DIGITS} digits"
    for redo in (False, True):
        with localcontext(Context(prec=digits)):
            moments, scale, lost = _strong_pass(cfg, zeta, a)
        if redo or digits - lost >= _SUM_DIGITS_KEPT:
            break
        digits = math.ceil(lost) + _SUM_DIGITS_SPARE
        route = f"redone at {digits} digits"
    return (moments.astype(float), 10.0 ** (4 - digits) * float(scale),
            None, True, f"{route}, {lost:.2f} digits lost")


def _expansion(cfg: SystemConfig, role: str,
               order: tuple[int, int] | None):
    """The kernel parameters of a closed-form row, its expansion order
    (given, or chosen from beta, see fblrate.expansion_order) and that
    expansion's coefficients a_j."""
    kp = make_kernel_params(cfg.theta_for(role), cfg.n, cfg.eps)
    order = _order(kp, order)
    return kp, order, expansion_coeffs(kp.beta, order)


def _ec_closed(cfg: SystemConfig, role: str, ctl: EvalControls, expansion,
               split=None) -> EcResult:
    """Closed-form effective capacity of either user.

    Assembles the mean eps + (1 - eps) sum_j a_j mu_j of the kernel
    expansion (_expansion) from the role's moments mu_j =
    E[(1+g)^(2 zeta - 2j)] (_weak_moments, _strong_moments from the row's
    float split), which bound the moments' error and name the route of the
    sum; err adds to that the rounding of sum_j a_j mu_j itself.  One rule
    for both users: the sum stands where the mean is finite and err <
    mean / 2 (a diverged series has err = inf); otherwise the value is the
    adaptive quadrature of the same expanded kernel, flagged unconverged,
    and where that quadrature's mean is not positive its ConvergenceError
    reaches the caller.  ``tail_bound`` is
    the error against the expanded kernel, ``expansion_bound`` that of the
    expanded kernel against the exact one; their sum bounds the gap to the
    exact-kernel capacity.
    """
    theta, eps = cfg.theta_for(role), cfg.eps
    kp, order, a = expansion
    moments, err, terms, converged, route = (
        _weak_moments(cfg, kp.zeta, a, ctl) if role == "weak"
        else _strong_moments(cfg, kp.zeta, a, split))
    err += _MACHEPS * math.fsum(np.abs(a * moments))
    inner = eps + (1.0 - eps) * math.fsum(a * moments)
    if math.isfinite(inner) and err < 0.5 * inner:
        value = _ec_from_mean(inner, theta, cfg.n)
        tail_bound = (1.0 - eps) * err / (inner * theta * cfg.n * LN2)
        mu = abs(moments[0]), abs(moments[-1])
        how = "" if converged else "series truncated at term budget"
    else:
        fallback = ec_quadrature(cfg, role, ctl, "approx", order)
        value, tail_bound = fallback.value, fallback.tail_bound
        inner = math.exp(-fallback.value * theta * cfg.n * LN2)
        mu, converged = (1.0, 1.0), False
        how = f"series unconverged; value from quadrature ({fallback.note})"
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
        note="; ".join(filter(None, [
            route, how, f"kernel expansion order {order}; truncation bound "
            f"{tail_bound:.1e}, expansion bound {expansion_bound:.1e} bits/cu"])))


def ec_closed_weak(cfg: SystemConfig, ctl: EvalControls,
                   order: tuple[int, int] | None = None) -> EcResult:
    """Closed-form effective capacity of the weak user (_ec_closed)."""
    return _ec_closed(cfg, "weak", ctl, _expansion(cfg, "weak", order))


def ec_closed_strong(cfg: SystemConfig, ctl: EvalControls,
                     order: tuple[int, int] | None = None) -> EcResult:
    """Closed-form effective capacity of the strong user: a batch of one
    (ec_closed_strong_batch) that raises its row's failure."""
    res, = ec_closed_strong_batch([cfg], ctl, [order])
    if isinstance(res, Exception):
        raise res
    return res


def ec_closed_strong_batch(cfgs, ctl: EvalControls, orders=None) -> list:
    """Closed-form effective capacity of the strong user (_ec_closed) at
    each of cfgs, or the ValueError or RuntimeError a row raised in its
    place.  Rows that share rho, alpha_u, u, V and J + 1 (a theta grid's
    J = 16 rows at one SNR) make their float split (_strong_split) in one
    pass, and a split that fails is made again row by row; the rest of each
    row runs alone.  Each row's value equals that of its batch of one."""
    orders = orders or [None] * len(cfgs)
    expansions = [_expansion(cfg, "strong", order)
                  for cfg, order in zip(cfgs, orders)]
    groups = {}
    for i, (cfg, (_, _, a)) in enumerate(zip(cfgs, expansions)):
        groups.setdefault((cfg.rho, cfg.alpha_u, cfg.u, cfg.V, a.size),
                          []).append(i)
    out = [None] * len(cfgs)
    for rows in groups.values():
        splits = _caught(_strong_split, cfgs[rows[0]],
                         [expansions[i][0].zeta for i in rows],
                         [expansions[i][2] for i in rows])
        for n, i in enumerate(rows):
            if not isinstance(splits, Exception):
                out[i] = _caught(_ec_closed, cfgs[i], "strong", ctl,
                                 expansions[i], splits[n])
            else:
                out[i] = splits if len(rows) == 1 else ec_closed_strong_batch(
                    [cfgs[i]], ctl, [orders[i]])[0]
    return out


def _caught(fn, *args):
    """fn(*args), or the ValueError or RuntimeError it raised."""
    try:
        return fn(*args)
    except (ValueError, RuntimeError) as exc:
        return exc


def evaluate(cfg: SystemConfig, role: str, method: str,
             ctl: EvalControls) -> EcResult:
    """Single entry point used by reports and one-point callers."""
    if method == "closed_form":
        cfg.theta_for(role)     # refuses an unknown role, as the others do
        closed = ec_closed_weak if role == "weak" else ec_closed_strong
        return closed(cfg, ctl)
    if method == "monte_carlo":
        return ec_monte_carlo(cfg, role, ctl)
    if method == "quadrature":
        return ec_quadrature(cfg, role, ctl, kernel_variant="exact")
    raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")


def evaluate_batch(cfgs, role: str, method: str, ctl: EvalControls) -> list:
    """evaluate at each of cfgs, the entry point of sweeps, with a row's
    ValueError or RuntimeError in its place; the strong closed form's rows
    share their float splits (ec_closed_strong_batch), the rest run one by
    one."""
    if method == "closed_form" and role == "strong":
        return ec_closed_strong_batch(cfgs, ctl)
    return [_caught(evaluate, cfg, role, method, ctl) for cfg in cfgs]
