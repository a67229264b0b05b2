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

Both closed forms sum float I_s ladders that specfun.expint_ladders builds
and seeds; the weak user's series seed a three-term recurrence in the
exponent (_weak_moments), and the strong user splits each moment at x0
(_strong_split), on tail ladders that a whole strong batch makes in one
expint_ladders call per ladder length (_tail_ladders).  Either user's
closed forms run as a batch (ec_closed_batch): rows that share all but
theta make their moments as one group, the weak user's series in one
_weak_series call per tolerance and its recurrence in numpy columns.
Where a sum's bound does not hold it, either user's value is the
quadrature of the same expanded kernel (_ec_closed).

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
# The strong user's sum (_strong_split): the split's point, Taylor terms,
# ladder error and least digits kept
_SPLIT_X0, _SPLIT_TERMS, _LADDER_REL, _FLOAT_DIGITS_KEPT = (
    0.5, 50, 64 * _MACHEPS, 10)
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
                     its error bound not below half that mean (a strong
                     split that keeps fewer than 10 digits, a weak series
                     that cannot converge), which gives the approx-kernel
                     quadrature's value; a non-positive quadrature mean
                     raises ConvergenceError instead
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
                     for the strong user "split at x0" and the digits the
                     split lost (_strong_moments), and where the sum was not
                     kept "value from quadrature" and that quadrature's
                     note; for quadrature the kernel and QUADPACK's integrand
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
    the running sum, or at the ladder's last rung; no term overflows, as
    the positive terms sum to M(c) <= 1/lambda (_weak_moments).  Returns
    arrays (sum, terms_used, tail_bound) indexed [ladder, c]; the tail
    bound is inf where the series ends with rho >= 1.
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
    i, j = np.arange(stop.shape[0])[:, None], np.arange(stop.shape[1])
    return totals[i, j, stop], stop, tails[i, j, stop]


@functools.lru_cache(maxsize=1)
def _weak_ladders(V: int, t: int, d: float, s_max: int) -> np.ndarray:
    """The weak user's I_s ladders at eta = lambda_r d, one row per rate
    lambda_r of ordered_mixture, as one read-only matrix.  They depend on
    neither theta nor the expansion order, so a theta sweep at one SNR
    builds them once: the cache keeps the last key only, and an SNR sweep,
    which changes d on every row, misses on each."""
    ladders = expint_ladders(np.array(ordered_mixture(t, V)[1]) * d, s_max)
    ladders.flags.writeable = False
    return ladders


def _weak_moments(cfg: SystemConfig, zetas, coeffs, ctl: EvalControls):
    """Weak-user moments E[(1 + SINR)^c], c = 2 zeta - 2j, j = 0..J,
    integrated term by term over the ordered density's exponentials
    (ordered_mixture), for rows that share cfg but their zeta and
    coefficients a (rows of coeffs, all of one length).

    With q = -alpha_t and d = 1/(rho alpha_u), each exponential
    e^(-lambda x) contributes M(c) = alpha_u^-c int e^(-lambda x)
    (1 + q d/(x + d))^c dx.  Its binomial expansion in d/(x + d) is a
    series over the I_s ladder at eta = lambda d (_weak_series) that
    converges geometrically at rate alpha_t.  The ladders serve every
    exponent of every row, and the last SNR's ladders every theta after
    it (_weak_ladders).

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

    The setup is arrays with a row axis, the series of all rows at one
    tolerance one _weak_series call and the recurrence one column per
    (row, ladder) (_recur_columns, or _recur_rows for fewer columns than
    steps); a row's values do not depend on the other rows.  Returns per
    row (moments, err, terms, converged, route) for _ec_closed: err is
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
    a = np.array(coeffs)
    s_max, top = ctl.series_max_terms, 2 * (a.shape[1] - 1)
    k = np.arange(top + 1)
    cs = 2.0 * np.array(zetas)[:, None] - k     # every unit-spaced exponent
    b_fn, rates, weights = ordered_mixture(cfg.t, cfg.V)
    # the step at cs[:, k], k = 1..top-1, makes cs[:, k+1] from cs[:, k-1]
    # and cs[:, k]; arrays [row, ladder, k - 1]
    kappa = np.array(rates, dtype=float)[:, None] * (
        d * q / cs[:, None, 1:top])
    gain = alpha_u * (2.0 - kappa)
    grows = (alpha_u ** 2 + np.abs(gain) > 1.0).any(axis=1)
    first = np.where(grows, k[:-2], -1).max(axis=1, initial=-1) + 2
    direct, recur = (x[first] for x in _direct_exponents(top))
    used = a != 0.0
    # the series that must converge: the direct ones, or where the series
    # runs at every exponent, those of the moments that are used
    bad = -q * np.maximum(1.0, (s_max - cs) / (s_max + 1.0)) >= 1.0
    stuck = np.where(recur, (direct & bad).any(axis=1),
                     (bad[:, ::2] & used).any(axis=1))
    moments, errs = np.zeros((2, len(zetas), len(rates), top + 1))
    terms = np.zeros(moments.shape, dtype=int)
    live, every = recur & ~stuck, ~(recur | stuck)
    for tol, rows in ((_SEED_REL_TOL, live), (SERIES_REL_TOL, every)):
        i, j = np.nonzero(direct & rows[:, None])
        if i.size:
            moments[i, :, j], terms[i, :, j], errs[i, :, j] = (
                x.T for x in _weak_series(
                    cs[i, j], q, d, _weak_ladders(cfg.V, cfg.t, d, s_max),
                    cs[i, j] * math.log(1.0 / alpha_u), tol))
    if live.any():
        # one column per (row, ladder), on views of moments; a column
        # starting at top takes no step
        starts = np.repeat(np.where(live, first, top), len(rates))
        m, e = moments.reshape(-1, top + 1), errs.reshape(-1, top + 1)
        work = e + _MACHEPS * m
        recurrence = (_recur_columns if np.count_nonzero(live) * len(rates)
                      >= top - starts.min() else _recur_rows)
        # alpha_u (2 + kappa) bounds |gain| and the rounding of kappa in it
        recurrence(m, work, starts, gain.reshape(-1, top - 1),
                   (alpha_u * (2.0 + kappa)).reshape(-1, top - 1),
                   np.repeat(alpha_u * d * q / cs[:, 1:top], len(rates),
                             axis=0), alpha_u ** 2)
        errs = np.where(k > starts[:, None], work, e).reshape(moments.shape)
    w, xi = np.array(weights)[:, None], 1.0 / b_fn
    moments, errs = moments[..., ::2], errs[..., ::2]
    mu, tail_j, scale_j = (
        xi * np.array([[math.fsum(col) for col in row]
                       for row in x.transpose(0, 2, 1).tolist()])
        for x in (w * moments, abs(w) * errs, abs(w) * moments))
    counts, longest = direct.sum(axis=1), terms.reshape(len(zetas), -1).max(1)
    out = []
    for r, (a_r, tail_r, scale_r, used_r) in enumerate(zip(*(
            x.tolist() for x in (np.abs(a), tail_j, scale_j, used)))):
        if stuck[r]:
            out.append((np.zeros(a.shape[1]), math.inf, s_max + 1, False,
                        "no series: its ratio bound stays >= 1 through the "
                        "term budget"))
            continue
        tail, scale = (math.fsum([x * y for x, y, u in zip(a_r, ys, used_r)
                                  if u]) for ys in (tail_r, scale_r))
        route = (f"series at {counts[r]} exponents, recurrence for "
                 f"{top - first[r]}" if recur[r]
                 else "series at every exponent")
        out.append((mu[r], tail + _MACHEPS * scale, int(longest[r]) + 1,
                    tail <= SERIES_REL_TOL * scale, route))
    return out


@functools.lru_cache
def _direct_exponents(top: int):
    """Where _weak_moments runs its series, per first non-growing step k0
    (a row index, 1..top): a mask [k0, k] of the exponents cs[k], every
    even k below k0 - 1 and k0 - 1 and k0, and whether the recurrence
    reaches the rest [k0].  Where those exponents are no fewer than the
    moments, it does not, and the mask is every even k."""
    k = np.arange(top + 1)
    at, even = k - np.arange(top + 2)[:, None], k % 2 == 0
    direct = (at == 0) | (at == -1) | (even & (at < -1))
    recur = direct.sum(axis=1) < top // 2 + 1
    direct[~recur] = even
    direct.flags.writeable = recur.flags.writeable = False
    return direct, recur


def _recur_rows(m, work, starts, gain, span, force, square):
    """_weak_moments' recurrence in place, column by column in Python
    floats: from start k0 of a column (a row of m and work) it makes
    m[k+1] and work[k+1], k = k0..top-1, from those at k-1 and k; gain,
    span and force hold the step at k in their column k - 1."""
    ulp = _STEP_ULPS * float(_MACHEPS)
    ms, ws = m.tolist(), work.tolist()
    for mc, wc, k0, gs, hs, fs in zip(ms, ws, starts.tolist(), gain.tolist(),
                                      span.tolist(), force.tolist()):
        m2, m1 = mc[k0 - 1:k0 + 1]
        e2, e1 = wc[k0 - 1:k0 + 1]
        for k, g, h, f in zip(range(k0 + 1, len(mc)), gs[k0 - 1:],
                              hs[k0 - 1:], fs[k0 - 1:]):
            m2, m1, e2, e1 = m1, f + g * m1 - square * m2, e1, (
                square * e2 + abs(g) * e1
                + ulp * (square * abs(m2) + h * abs(m1) + f))
            mc[k], wc[k] = m1, e1
    m[:], work[:] = ms, ws


@np.errstate(over="ignore", invalid="ignore")
def _recur_columns(m, work, starts, gain, span, force, square):
    """_recur_rows' recurrence, one step of every column per numpy step, by
    the same float operations; a column takes no step before its start."""
    ulp = _STEP_ULPS * float(_MACHEPS)
    for k in range(starts.min(), m.shape[1] - 1):
        on, g, f = k >= starts, gain[:, k - 1], force[:, k - 1]
        m2, m1, e2, e1 = m[:, k - 1], m[:, k], work[:, k - 1], work[:, k]
        work[:, k + 1] = np.where(on, square * e2 + np.abs(g) * e1 + ulp * (
            square * np.abs(m2) + span[:, k - 1] * np.abs(m1) + f),
            work[:, k + 1])
        m[:, k + 1] = np.where(on, f + g * m1 - square * m2, m[:, k + 1])


def _tail_ladders(groups):
    """The float ladders I_m(lambda_r (d + x0)), m = -2 zeta + 2j, d = 1 /
    (rho alpha_u), of the strong split's tail for groups of rows (cfg,
    zetas, coeffs) as _strong_split takes them: one array [row, r, j] per
    group.  All groups of one length share one expint_ladders call."""
    grids = []      # per group, each ladder's eta and s0, as [row, r]
    for cfg, zetas, _ in groups:
        etas = np.array(ordered_mixture(cfg.u, cfg.V)[1]) * (
            1.0 / (cfg.rho * cfg.alpha_u) + _SPLIT_X0)
        grids.append(np.broadcast_arrays(etas,
                                         -2.0 * np.array(zetas)[:, None]))
    out = [None] * len(groups)
    for size in {len(coeffs[0]) for _, _, coeffs in groups}:
        ids = [g for g, (_, _, coeffs) in enumerate(groups)
               if len(coeffs[0]) == size]
        etas, s0 = (np.concatenate([grids[g][x].ravel() for g in ids])
                    for x in (0, 1))
        ladders = expint_ladders(etas, 2 * (size - 1), s0)[:, ::2]
        ends = np.cumsum([grids[g][0].size for g in ids])[:-1]
        for g, part in zip(ids, np.split(ladders, ends)):
            out[g] = part.reshape(*grids[g][0].shape, size)
    return out


@np.errstate(all="ignore")
def _strong_split(cfg: SystemConfig, zetas, coeffs, ladders):
    """The strong moments mu(m) = int (1 + c x)^-m f(x) dx, m = -2 zeta + 2j,
    c = rho alpha_u, split at x0 = _SPLIT_X0, in float, for rows that share
    cfg but their zeta and coefficients a (rows of coeffs, all of one
    length): per row the moments, a bound on the error of sum_j a_j mu_j,
    the digits that sum loses and whether it keeps _FLOAT_DIGITS_KEPT.  The
    head sums the Taylor terms (ordered_taylor) over power_moments, the tail
    sum_r (w_r / B) e^(-lambda_r x0) Y^-m (d + x0) I_m(lambda_r (d + x0)),
    Y = 1 + c x0, d = 1 / c, on the rows' float ladders (_tail_ladders), as
    arrays with a row axis; a row's values do not depend on the other
    rows."""
    c, x0, k_max = cfg.rho * cfg.alpha_u, _SPLIT_X0, _SPLIT_TERMS
    b_fn, rates, weights = ordered_mixture(cfg.u, cfg.V)
    taylor, remainder = ordered_taylor(cfg.u, cfg.V, k_max)
    a = np.array(coeffs)
    ms = -2.0 * np.array(zetas)[:, None] + 2.0 * np.arange(a.shape[1])
    logs, errs = power_moments(ms[:, 0], a.shape[1], k_max, c, x0)
    d_x0, rates = 1.0 / c + x0, np.array(rates)[:, None]
    expo = -x0 * rates - ms[:, None] * math.log1p(c * x0)
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


def _strong_moments(split):
    """Strong-user moments E[(1+g)^(2 zeta - 2j)] and the error of their
    a-weighted sum from the row's float split at x0 (``split``, from
    _strong_split), in _weak_moments' form.  A split whose bound keeps fewer
    than _FLOAT_DIGITS_KEPT digits gives an infinite error, so _ec_closed
    takes the row to its quadrature.  No term budget, so no term count; the
    route, "split at x0", and the digits the split lost make the note.
    """
    moments, err, lost, kept = split
    return (moments, err if kept else math.inf, None, True,
            f"split at x0, {lost:.2f} digits lost")


def _expansion(cfg: SystemConfig, role: str,
               order: tuple[int, int] | None):
    """The kernel parameters of a closed-form row, its expansion order
    (given, or chosen from beta, see fblrate.expansion_order) and that
    expansion's coefficients a_j."""
    kp = make_kernel_params(cfg.theta_for(role), cfg.n, cfg.eps)
    order = _order(kp, order)
    return kp, order, expansion_coeffs(kp.beta, order)


def _ec_closed(cfg: SystemConfig, role: str, ctl: EvalControls, expansion,
               sums) -> EcResult:
    """Closed-form effective capacity of either user.

    Assembles the mean eps + (1 - eps) sum_j a_j mu_j of the kernel
    expansion (_expansion) from the role's moments mu_j =
    E[(1+g)^(2 zeta - 2j)] and the rest of the row's ``sums`` (from
    _weak_moments, or _strong_moments of the row's float split), which
    bound the moments' error and name the route of the sum; err adds to
    that the rounding of sum_j a_j mu_j itself.  One rule for both users:
    the sum stands where the mean is finite and err <
    mean / 2 (a weak series that cannot converge and a strong split that
    keeps too few digits have err = inf); otherwise the value is the
    adaptive quadrature of the same expanded kernel, flagged unconverged,
    and where that quadrature's mean is not positive its ConvergenceError
    reaches the caller.  ``tail_bound`` is the error against the expanded
    kernel, ``expansion_bound`` that of the expanded kernel against the
    exact one; their sum bounds the gap to the exact-kernel capacity.
    """
    theta, eps = cfg.theta_for(role), cfg.eps
    kp, order, a = expansion
    moments, err, terms, converged, route = sums
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
        how = f"sum not kept; value from quadrature ({fallback.note})"
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
    """Closed-form effective capacity of the weak user: a batch of one
    (ec_closed_batch) that raises its row's failure."""
    return _closed_alone(cfg, "weak", ctl, order)


def ec_closed_strong(cfg: SystemConfig, ctl: EvalControls,
                     order: tuple[int, int] | None = None) -> EcResult:
    """Closed-form effective capacity of the strong user: a batch of one
    (ec_closed_batch) that raises its row's failure."""
    return _closed_alone(cfg, "strong", ctl, order)


def _closed_alone(cfg, role, ctl, order):
    res, = ec_closed_batch([cfg], role, ctl, [order])
    if isinstance(res, Exception):
        raise res
    return res


def ec_closed_batch(cfgs, role: str, ctl: EvalControls, orders=None) -> list:
    """Closed-form effective capacity of the role's user (_ec_closed) at
    each of cfgs, or the ValueError or RuntimeError a row raised in its
    place.  Rows that share rho, alpha_u, the role's order index, V and
    J + 1 (a theta grid's J = 16 rows at one SNR) make their moments as
    one group: the weak user's in one _weak_moments pass on the group's
    ladders, the strong user's in one float split (_strong_split) on tail
    ladders made for all groups at once (_tail_ladders).  Where a group
    fails, each of its rows is made again alone.  The rest of each row
    runs alone.  Each row's value equals that of its batch of one."""
    orders = orders or [None] * len(cfgs)
    out = [_caught(_expansion, cfg, role, order)
           for cfg, order in zip(cfgs, orders)]
    groups = {}
    for i, (cfg, expansion) in enumerate(zip(cfgs, out)):
        if not isinstance(expansion, Exception):
            groups.setdefault((cfg.rho, cfg.alpha_u, cfg.order_index(role),
                               cfg.V, expansion[2].size), []).append(i)
    args = [(cfgs[rows[0]], [out[i][0].zeta for i in rows],
             [out[i][2] for i in rows]) for rows in groups.values()]
    moments = ([_caught(_weak_moments, *group, ctl) for group in args]
               if role == "weak" else _strong_groups(args))
    for rows, sums in zip(groups.values(), moments):
        for n, i in enumerate(rows):
            if not isinstance(sums, Exception):
                out[i] = _caught(_ec_closed, cfgs[i], role, ctl, out[i],
                                 sums[n])
            else:
                out[i] = sums if len(cfgs) == 1 else ec_closed_batch(
                    [cfgs[i]], role, ctl, [orders[i]])[0]
    return out


def _strong_groups(groups) -> list:
    """Per group (cfg, zetas, coeffs) its rows' strong moments
    (_strong_moments of the group's _strong_split), or the error the group
    raised; where the batch's tail ladders fail, every group fails."""
    tails = _caught(_tail_ladders, groups)
    if isinstance(tails, Exception):
        return [tails] * len(groups)
    splits = [_caught(_strong_split, *group, ladders)
              for group, ladders in zip(groups, tails)]
    return [split if isinstance(split, Exception)
            else [_strong_moments(row) for row in split] for split in splits]


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
    ValueError or RuntimeError in its place; the closed forms' rows share
    their moments by group (ec_closed_batch), the rest run one by one."""
    if method == "closed_form":
        return ec_closed_batch(cfgs, role, ctl)
    return [_caught(evaluate, cfg, role, method, ctl) for cfg in cfgs]
