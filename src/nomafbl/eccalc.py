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
from decimal import Context, Decimal, getcontext, localcontext

import mpmath
import numpy as np

from .channel import (SystemConfig, gain_for_gamma, gamma_for_role,
                      ordered_mixture, ordered_quantile, sample_gain,
                      scalar_integrand)
from .fblrate import (LN2, ec_kernel, expansion_coeffs, expansion_error_coeffs,
                      expansion_order, make_kernel_params, rate_minimum,
                      scalar_kernel)
from .specfun import (_SEED_LOCK, ConvergenceError, scaled_expint,
                      tricomi_u)

_MC_CHUNK = 1 << 16
_MACHEPS = np.finfo(float).eps
# Significant digits of the strong user's sum (see _strong_moments): its
# float pass and its Decimal pass, the least each keeps, the redo's spare
_FLOAT_DIGITS, _FLOAT_DIGITS_KEPT = 16, 10
_SUM_DIGITS, _SUM_DIGITS_KEPT, _SUM_DIGITS_SPARE = 50, 20, 30
# Relative tolerance of the kernel expansion order and the weak-user series
SERIES_REL_TOL = 1e-10

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
    note             how the value was made, for closed forms including the
                     expansion order and both bounds, and for the strong
                     user the route of its sum and the digits it lost
                     (_strong_moments), for quadrature the
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
    for x in draws:
        k = ec_kernel(gamma_for_role(x, cfg, role), kp, eps)
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

def _int_ladder(etas, s_max: int, s0=0.0) -> list[np.ndarray]:
    """I_{s0+k} = int_0^inf e^{-eta v} (1+v)^{-(s0+k)} dv for k = 0 .. s_max,
    one ladder per eta of a sequence.

    The three-term recurrence I_{s+1} = (1 - eta I_s)/s holds for real s and
    is stable upward for s > eta and downward below, so each ladder is
    seeded at s0 + k0 with k0 ~ ceil(eta - s0) + 1 and run in the stable
    direction on each side.  The etas that share a k0 get their seeds from
    one call.  The rungs are floats for float etas, seeded by tricomi_u,
    else Decimals at the precision of the current decimal context, orders
    s0 + k included, seeded by scaled_expint at that many digits; mpmath
    takes no Decimal, so the seeds' arguments and values pass as strings,
    and a value's string rounds it within 10^(1 - digits) relative.
    """
    extended = isinstance(etas[0], Decimal)
    k0s = [min(s_max, max(0, math.ceil(eta - s0) + 1)) for eta in etas]
    seeds = {}
    for k0 in sorted(set(k0s)):
        group = [i for i, k in enumerate(k0s) if k == k0]
        if extended:
            with _SEED_LOCK, mpmath.workdps(getcontext().prec):
                values = [Decimal(str(v)) for v in scaled_expint(
                    str(s0 + k0), [str(etas[i]) for i in group])]
        else:
            values = tricomi_u(1.0, 2.0 - (s0 + k0),
                               [etas[i] for i in group]).tolist()
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


def _weak_series(cs: np.ndarray, q: float, d: float, ladders: np.ndarray,
                 log_prefactors: np.ndarray):
    """Inner series sum_s C(c, s) q^s d I_s, scaled by exp(log_prefactor),
    for every ladder (a row of ``ladders``) and every c in cs at once.

    SystemConfig makes c < 0 and q < 0, so every term C(c, s) q^s d I_s =
    C(s - c - 1, s) |q|^s d I_s is positive: no signs are tracked, the sum
    is monotone and the running term ratio gives an honest geometric tail
    bound.  Terms are tracked in the log domain: for large |c| the early
    terms underflow while the series peak (near |c q| / (1 - |q|)) may
    still lie far ahead, and only the log trend can tell a negligible tail
    from a not-yet-reached bulk.  Each series stops at its first term whose
    tail is negligible against the running sum, before a term beyond e^700
    (the first term, d I_0 <= 1 times a prefactor <= 1, never is), or at
    the ladder's last rung.  Returns arrays (sum, terms_used, tail_bound)
    indexed [ladder, c]; the tail bound is inf where the series diverges,
    that is where it meets a term beyond e^700 or its terms still grow.
    """
    s_max = ladders.shape[1] - 1
    s = np.arange(1, s_max + 1)
    steps = (s - 1.0) - cs[:, None]     # term ratio = step |q| / s
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        incr = np.log(steps) - np.log(s) + math.log(-q)
        log_term = np.concatenate(
            [log_prefactors[:, None],
             log_prefactors[:, None] + np.cumsum(incr, axis=1)], axis=1) \
            + np.log(d * ladders)[:, None, :]
        terms = np.exp(log_term)
        totals = np.cumsum(terms, axis=-1)
        log_ratio = np.full_like(log_term, np.inf)
        log_ratio[..., 1:] = np.diff(log_term, axis=-1)
        ratio = np.exp(np.minimum(log_ratio, 0.0))
        tails = np.where(log_ratio < 0.0,
                         terms * ratio / (1.0 - ratio), np.inf)
    done = (log_ratio < 0.0) & (
        (tails <= SERIES_REL_TOL * totals)
        | ((totals == 0.0) & (log_term < -700.0)))
    done[..., :2] = False
    cols = np.arange(s_max + 1)
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
    ladders = np.array(_int_ladder(
        [rate * d for rate in ordered_mixture(t, V)[1]], s_max))
    ladders.flags.writeable = False
    return ladders


def _weak_moments(cfg: SystemConfig, zeta, a, ctl: EvalControls):
    """Weak-user moments E[(1 + SINR)^(2 zeta - 2j)], integrated term by
    term over the ordered density's exponentials (ordered_mixture).

    The SINR ratio is rewritten as a scaled (x + a)/(x + b) form whose
    binomial expansion in d/(x + b) converges geometrically at rate alpha_t
    (= -q, as alpha_t + alpha_u = 1); each integral moment reduces to the
    I_s ladder above, which depends on the exponent only through the
    binomial weights, so each ladder is built once and serves every moment,
    and the last SNR's ladders serve every theta after it (_weak_ladders).
    Returns (moments, err, terms, converged, "") for _ec_closed: err is the
    sum over the expansion coefficients a_j of |a_j| times the inner
    series' tail bounds (inf where one diverges), plus their rounding;
    converged is that tail sum within SERIES_REL_TOL of the same weighted
    sum of the inner series' magnitudes, so a high moment left truncated by
    the term budget counts only as much as its coefficient lets it.
    """
    cs = 2.0 * zeta - 2.0 * np.arange(a.size)
    d = 1.0 / (cfg.rho * cfg.alpha_u)
    b_fn, _, weights = ordered_mixture(cfg.t, cfg.V)
    ladders = _weak_ladders(cfg.V, cfg.t, d, ctl.series_max_terms)
    series, terms, tails = _weak_series(cs, -cfg.alpha_t, d, ladders,
                                        cs * math.log(1.0 / cfg.alpha_u))
    w, xi = np.array(weights)[:, None], 1.0 / b_fn
    mu, tail_j, scale_j = (xi * np.array([math.fsum(col) for col in x.T])
                           for x in (w * series, abs(w) * tails,
                                     abs(w) * series))
    used = a != 0.0
    tail = math.fsum(np.abs(a[used]) * tail_j[used])
    scale = math.fsum(np.abs(a[used]) * scale_j[used])
    return (mu, tail + _MACHEPS * scale, int(terms.max()) + 1,
            tail <= SERIES_REL_TOL * scale, "")


def _strong_pass(cfg: SystemConfig, zeta, a, num):
    """One pass of the strong user's sum in the number type num, float or
    Decimal (at the context's precision), which the float inputs enter
    exactly: the moments, their magnitude xi d sum_j |a_j| sum_i |w_i I_i|
    and the digits the a-weighted sum of the moments loses against it."""
    b_fn, rates, weights = ordered_mixture(cfg.u, cfg.V)
    d = 1 / num(cfg.rho * cfg.alpha_u)
    xi_d = d / num(b_fn)
    ladders = _int_ladder([rate * d for rate in rates], 2 * (a.size - 1),
                          -2 * num(zeta))
    terms = [w * ladder[::2] for w, ladder in zip(weights, ladders)]
    moments = xi_d * sum(terms)
    a_num = [num(x) for x in a]
    scale = xi_d * sum(abs(x) * y for x, y in zip(a_num, sum(np.abs(terms))))
    total = abs(sum(x * y for x, y in zip(a_num, moments)))
    return moments, scale, math.log10(scale / total) if total else math.inf


def _strong_moments(cfg: SystemConfig, zeta, a):
    """Strong-user moments E[(1+g)^(2 zeta - 2j)] and their rounding error,
    integrated term by term over the ordered density's exponentials.

    The interference-free SNR is linear in the gain, so each moment is an
    alternating sum of I_s(eta) = U(1, 2 - s, eta) at s = -2 zeta + 2j; per
    eta all of them sit on one ladder of the real-order recurrence, and the
    u ladders take their seeds from one call per seed order.  The sum
    cancels up to about 30 digits.  A float pass (_strong_pass) stands
    where at least _FLOAT_DIGITS_KEPT of its _FLOAT_DIGITS digits survive;
    otherwise the ladders and the sum run in Decimal at _SUM_DIGITS digits,
    and where fewer than _SUM_DIGITS_KEPT digits survive, once more at
    _SUM_DIGITS_SPARE more digits than were lost.  The error is
    10^(4 - digits) times the magnitude; the sum has no term budget, so it
    reports no term count and always counts as converged.  The route is
    "float sum", "sum at 50 digits" or "redone at D digits", with the
    digits its last pass lost.
    """
    moments, scale, lost = _strong_pass(cfg, zeta, a, float)
    digits, route = _FLOAT_DIGITS, "float sum"
    if digits - lost < _FLOAT_DIGITS_KEPT:
        digits, route = _SUM_DIGITS, f"sum at {_SUM_DIGITS} digits"
        for redo in (False, True):
            with localcontext(Context(prec=digits)):
                moments, scale, lost = _strong_pass(cfg, zeta, a, Decimal)
            if redo or digits - lost >= _SUM_DIGITS_KEPT:
                break
            digits = math.ceil(lost) + _SUM_DIGITS_SPARE
            route = f"redone at {digits} digits"
    return (moments.astype(float), 10.0 ** (4 - digits) * float(scale),
            None, True, f"{route}, {lost:.2f} digits lost")


def _ec_closed(cfg: SystemConfig, role: str, ctl: EvalControls,
               order: tuple[int, int] | None) -> EcResult:
    """Closed-form effective capacity of either user.

    Expands the kernel to ``order`` (chosen from beta by default, see
    fblrate.expansion_order) and assembles its mean eps + (1 - eps)
    sum_j a_j mu_j from the role's moments mu_j = E[(1+g)^(2 zeta - 2j)]
    (_weak_moments, _strong_moments), which bound the moments' error and
    name the route of the strong sum; err adds to that the rounding of
    sum_j a_j mu_j itself.  One rule for both
    users: the sum stands where the mean is finite and err < mean / 2 (a
    diverged series has err = inf); otherwise the value is the adaptive
    quadrature of the same expanded kernel, flagged unconverged, and where
    that quadrature's mean is not positive its ConvergenceError reaches the
    caller.  ``tail_bound`` is
    the error against the expanded kernel, ``expansion_bound`` that of the
    expanded kernel against the exact one; their sum bounds the gap to the
    exact-kernel capacity.
    """
    theta = cfg.theta_for(role)
    eps = cfg.eps
    kp = make_kernel_params(theta, cfg.n, eps)
    order = _order(kp, order)
    a = expansion_coeffs(kp.beta, order)
    moments, err, terms, converged, route = (
        _weak_moments(cfg, kp.zeta, a, ctl) if role == "weak"
        else _strong_moments(cfg, kp.zeta, a))
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
