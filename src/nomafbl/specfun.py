"""Special functions used by the closed-form capacity expressions.

Where scipy.special computes the exact quantity, this module calls it and
adds only the domain check the callers rely on:

  * the Gaussian Q-function and its inverse, Qinv(p) = -ndtri(p)
  * the exponential integral Ei on the negative axis (scipy's expi)
  * the Beta function (scipy's beta: within 2.3 eps of the exact value at
    every integer pair of a pool of up to 40 users)

expint_ladders builds and seeds the I_s(eta) = e^eta E_s(eta) ladders of
both users' closed forms: float ladders by tricomi_u, Decimal ones by
scaled_expint at the decimal context's digits, one call per seed order.

tricomi_u gives U(1, b, z) = e^z E_s(z), s = 2 - b, in float64 for one b
and a float or an array of z.  It picks one of three routes from (s, z)
alone: scipy's expn at integer 0 <= s <= 50 below z = 32; from z = 0.5 up
and at s >= 20 the continued fraction of E_s, which scaled_expint takes
from z = 32 up; and scaled_expint at 53 bits for the rest.  Over the tests'
seed box expn is within 4.6 units of 2^-52 relative, the fraction within
1.3 and scaled_expint within 0.7.  Both closed forms seed their float
ladders by expn or the fraction alone: the weak ladders at integer orders,
the strong split's tail from z = d + x0 > 0.5 up.

scaled_expint gives e^eta E_s(eta) for one real s and a sequence of eta at
mpmath's working precision.  It seeds the strong user's Decimal ladders,
whose sum over the whole line can cancel up to about 30 digits, for the
rows that the float split at x0 cannot hold to 10 digits; power_moments
gives that split's head, the power moments of (1 + c x)^-m on [0, x0].

The float routes are pure and thread-safe.  scaled_expint reads mpmath's
working precision, which is process-wide (mp.workdps sets it for every
thread), unlike a decimal context, which is per thread; tricomi_u and
expint_ladders set it under _SEED_LOCK.
"""

from __future__ import annotations

import math
import threading
from decimal import Decimal, getcontext

import mpmath
import numpy as np
from mpmath.libmp import from_man_exp, to_fixed
from scipy import special

_SQRT2 = math.sqrt(2.0)
# scaled_expint switches to the continued fraction at eta >= _CF_ETA: it
# needs 64 terms at eta = 10 and 17 at eta = 100, but about 400 near 1
_CF_ETA = 32.0
# bits carried beyond the working precision by the sum in _expint_sums
_SEED_GUARD_BITS = 32
# least fraction bits of the fixed-point 1F1 sum beyond its planned need
_SUM_MARGIN_BITS = 8
_LN2 = math.log(2.0)
_EPS = 2.0 ** -52
# tricomi_u's routes: scipy's expn at integer orders up to _EXPN_ORDER
# (its asymptotic branch above is up to 17 ulps off), and the continued
# fraction from eta = _CF_FLOAT_ETA up and at s >= _CF_ORDER; below s = 20
# Steed's method needs at most 190 steps from eta = 0.5 up, but 232 at
# eta = 0.4 and 822 at 0.1
_EXPN_ORDER, _CF_ORDER, _CF_FLOAT_ETA = 50.0, 20.0, 0.5
_SEED_LOCK = threading.Lock()
# power_moments' hyp2f1 limit in Y; scipy's error allowed, 4x its worst
_HYP2F1_Y, _BETAINC_REL, _HYP2F1_REL = 10.0, 1e-13, 1e-13


class ConvergenceError(RuntimeError):
    """An adaptive scheme failed to reach its tolerance."""


class InsufficientDataError(ValueError):
    """Not enough qualifying data points for a statistical fit."""


# ---------------------------------------------------------------------------
# Gaussian Q-function
# ---------------------------------------------------------------------------

def gaussian_q(x: float) -> float:
    """Upper-tail probability Q(x) of the standard normal distribution."""
    return 0.5 * math.erfc(x / _SQRT2)


def gaussian_q_inv(p: float) -> float:
    """Inverse Gaussian Q-function: the x with Q(x) = p, for p in (0, 1)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"gaussian_q_inv requires 0 < p < 1, got {p}")
    return -float(special.ndtri(p))


# ---------------------------------------------------------------------------
# Exponential integral
# ---------------------------------------------------------------------------

def exp_integral_ei(x: float) -> float:
    """Exponential integral Ei(x) for strictly negative arguments.

    Below x ~ -700 the value underflows to zero; that is returned silently
    since |Ei| < 1e-306 there.
    """
    if x >= 0.0:
        raise ValueError(f"exp_integral_ei requires x < 0, got {x}")
    return float(special.expi(x))


# ---------------------------------------------------------------------------
# Scaled exponential integral of real order
# ---------------------------------------------------------------------------

def scaled_expint(s, etas):
    """e^eta E_s(eta) = int_0^inf e^{-eta v} (1+v)^{-s} dv at one real s, for
    each eta > 0 of a sequence.

    Takes numbers or decimal strings, converts s once and returns a list of
    mpmath numbers at the working precision, one per eta.  Below _CF_ETA it
    is mpmath's expint at integer s, else the convergent sum e^eta eta^(s-1)
    Gamma(1-s) - 1F1(1; 2-s; eta) / (1-s) (DLMF 8.19.1, with Gamma(1-s, eta)
    split by 8.5.1), which expint tries only after a divergent asymptotic
    series; it runs with guard bits and is redone with more where its terms
    cancel, and the 1F1 series of every eta below _CF_ETA is summed in one
    fixed-point pass per guard (_expint_sums).  From _CF_ETA up, where
    expint loses every digit if s is large too, it is the continued fraction
    of E_s (_fraction) to 1/16 of the working precision's epsilon, and
    expint again at s < 0, where the fraction's convergents can change sign
    and, from about s < -eta, it fails.
    """
    mp = mpmath.mp
    s, etas = mp.mpf(s), [mp.mpf(eta) for eta in etas]
    if not mp.isfinite(s):
        raise ValueError(f"scaled_expint requires a finite s, got {s}")
    bad = [eta for eta in etas if not 0 < eta < mp.inf]
    if bad:
        raise ValueError(f"scaled_expint requires finite eta > 0, got "
                         f"{bad[0]}")
    direct = [] if mp.isint(s) else [eta for eta in etas if eta < _CF_ETA]
    sums = iter(_expint_sums(s, direct) if direct else [])
    return [_fraction(s, eta, mp.eps / 16) if eta >= _CF_ETA and s >= 0
            else mp.exp(eta) * mp.expint(s, eta)
            if mp.isint(s) or eta >= _CF_ETA else next(sums) for eta in etas]


def _expint_sums(s, etas):
    """e^eta eta^(s-1) Gamma(1-s) - 1F1(1; 2-s; eta) / (1-s) for non-integer
    s, one value per eta of a list.

    Both terms have poles at the integers, so near one they cancel: by
    about log2(1/|s - m|) bits, plus more where e^eta eta^(s-1) / Gamma(s)
    is large.  The sums run _SEED_GUARD_BITS above the working precision,
    and an eta whose sum loses more bits than that is redone once with the
    bits it lost added to the guard; a redo that still loses more than its
    guard, or a zero sum, is a ConvergenceError.  Each guard makes
    Gamma(1-s) once and the 1F1 series of its etas in one _hyp1f1_sums pass.
    """
    mp = mpmath.mp
    values = [None] * len(etas)
    todo = {_SEED_GUARD_BITS: range(len(etas))}
    s_mag = mp.mag(s - 1)
    for attempt in range(2):
        redo = {}
        for guard, group in todo.items():
            with mp.extraprec(guard):
                gamma = mp.gamma(1 - s)
                tails = _hyp1f1_sums(2 - s, [etas[i] for i in group])
                for i, tail in zip(group, tails):
                    eta = etas[i]
                    # e^x turns x's absolute error into a relative one, so
                    # x gets bits for the size of its terms eta and
                    # (s - 1) ln eta, as |ln eta| < |mag(eta)| + 2
                    m = mp.mag(eta)
                    with mp.extraprec(max(m, 0,
                                          s_mag + (abs(m) + 2).bit_length())):
                        x = eta + (s - 1) * mp.ln(eta)
                    head = mp.exp(x) * gamma
                    tail /= 1 - s
                    value = head - tail
                    if not value:
                        raise ConvergenceError(
                            f"E_s sum cancels at s={s}, eta={eta}")
                    lost = max(mp.mag(head), mp.mag(tail)) - mp.mag(value)
                    if lost <= guard:
                        values[i] = value
                    elif attempt:
                        raise ConvergenceError(
                            f"E_s sum cancels at s={s}, eta={eta}")
                    else:
                        redo.setdefault(lost + _SEED_GUARD_BITS, []).append(i)
        todo = redo
    return [+value for value in values]


def _hyp1f1_sums(b, etas):
    """1F1(1; b; eta) = sum_k eta^k / (b)_k (DLMF 13.2.2) at the working
    precision, for one non-integer b and each eta of a list.

    With y = eta / eta_max the sum is sum_k u_k y^k, where the terms
    u_k = eta_max^k / (b)_k at the list's largest eta serve every eta: the
    denominators b + k and the u_k are made once, as Python integers in
    fixed point, and each eta costs one Horner pass of a multiply and a
    shift per term it keeps (_sum_plan).
    """
    mp = mpmath.mp
    eta_max = max(etas)
    counts, bits = _sum_plan(b, etas, mp.prec)
    one = 1 << bits
    b_fix, x_max = to_fixed(b._mpf_, bits), to_fixed(eta_max._mpf_, bits)
    coeffs = [one]
    for k in range(max(counts) - 1):
        coeffs.append(coeffs[-1] * x_max // (b_fix + k * one))
    sums = []
    for eta, count in zip(etas, counts):
        y = (to_fixed(eta._mpf_, bits) << bits) // x_max
        total = 0
        for c in reversed(coeffs[:count]):
            total = (total * y >> bits) + c
        sums.append(mp.make_mpf(from_man_exp(total, -bits, mp.prec, "n")))
    return sums


def _sum_plan(b, etas, prec):
    """(terms per eta, fraction bits) of the fixed-point sums of
    1F1(1; b; eta) at prec bits, planned in float from the logs of the
    terms at the largest eta, log|u_k| = k ln eta - sum_{j<k} ln|b + j|.

    Where eta is large the terms can fall and rise again as b + k nears 0,
    so the logs run to where the terms fall for good (b + k > eta), and on
    until the tail is below 2^-bits.  Where b < -eta the terms first fall
    from u_0 = 1, and the logs stop there once not even the most the terms
    can rise again (comeback) brings them back above 2^-bits.  The term
    u_k y^k of an eta = y eta_max is at most u_k, so each eta keeps its
    terms up to the last one above 2^-bits.  A rounding error made at one
    term grows with the rise after it, so bits is prec plus the largest
    rise from a term to a later one (at least the peak term's log2, as
    u_0 = 1) plus _SUM_MARGIN_BITS.  The fraction bits add a margin for the
    rounding of each term and for the 1/(eta + |b|) scale of the value the
    sum feeds.
    """
    mp = mpmath.mp
    eta = max(etas)
    bf, x, ln_eta = float(b), float(eta), float(mp.ln(eta))
    pole = round(-bf)   # the b + k nearest 0, which float cannot resolve
    ln_pole = float(mp.ln(abs(b + pole)))

    def ln_den(k):
        return ln_pole if k == pole else math.log(abs(bf + k))

    # the terms rise by eta / |b + k| at each b + k within eta of 0; the
    # log bounds the count of the terms dropped before and the tail after
    comeback = math.inf if bf >= -x else math.log(-bf + 8 * x + 64) + sum(
        ln_eta - ln_den(k)
        for k in range(math.ceil(-bf - x), math.floor(x - bf) + 1))
    logs = [0.0]
    log_t = low = rise = 0.0
    k = 0
    fallen = -(prec + _SUM_MARGIN_BITS) * _LN2
    while bf + k <= x:
        if bf + k < -x and log_t + comeback < fallen:
            break
        log_t += ln_eta - ln_den(k)
        logs.append(log_t)
        low = min(low, log_t)
        rise = max(rise, log_t - low)
        k += 1
    bits = prec + math.ceil(rise / _LN2) + _SUM_MARGIN_BITS
    floor = -bits * _LN2
    # past b + k > eta the ratio eta / (b + k) < 1 falls, so the tail from
    # u_k is at most u_k / (1 - eta / (b + k))
    while bf + k > x and log_t - math.log1p(-x / (bf + k)) >= floor:
        log_t += ln_eta - math.log(bf + k)
        logs.append(log_t)
        k += 1
    counts = []
    for y in map(float, etas):
        ln_y = math.log(y) - ln_eta if y else -math.inf
        k = len(logs) - 1
        while k and logs[k] + k * ln_y < floor:
            k -= 1
        counts.append(k + 1)
    margin = (2 * max(counts).bit_length()
              + math.ceil(abs(bf) + x + 2).bit_length())
    return counts, bits + margin


def tricomi_u(a: float, b: float, z):
    """Tricomi's U(1, b, z) = e^z E_s(z), s = 2 - b, for z > 0 and real b,
    in float64: a float for a float z, else an array of z's shape.

    Only a = 1 is implemented, the case every capacity moment reduces to.
    The route follows from (s, z) alone (module docstring).  In units of
    2^-52 relative over the tests' seed box, expn is within 4.6, the
    fraction within 1.3, and scaled_expint at 53 bits, which takes s < 0
    and non-integer s < _CF_ORDER below z = _CF_FLOAT_ETA, within 0.7.
    """
    if a != 1.0:
        raise ValueError(f"tricomi_u requires a = 1, got a={a}")
    if not math.isfinite(b):
        raise ValueError(f"tricomi_u requires a finite b, got b={b}")
    etas = np.asarray(z, dtype=float)
    if not np.all((etas > 0.0) & (etas < math.inf)):
        raise ValueError(f"tricomi_u requires finite z > 0, got z={z}")
    s, flat = 2.0 - b, etas.ravel().tolist()
    values, rest = [], []
    for i, eta in enumerate(flat):
        if s.is_integer() and 0.0 <= s <= _EXPN_ORDER and eta < _CF_ETA:
            values.append(special.expn(int(s), eta) * math.exp(eta))
        elif s >= 0.0 and (eta >= _CF_FLOAT_ETA or s >= _CF_ORDER):
            values.append(_fraction(s, eta, _EPS / 16))
        else:
            values.append(math.nan)
            rest.append(i)
    if rest:
        with _SEED_LOCK, mpmath.workprec(53):
            for i, value in zip(rest, scaled_expint(
                    s, [flat[i] for i in rest])):
                values[i] = float(value)
    values = np.array(values).reshape(etas.shape)
    return float(values) if values.ndim == 0 else values


def _fraction(s, eta, tol):
    """The continued fraction of e^eta E_s(eta), as
    1 / (b_0 + a_1 / (b_1 + a_2 / ...)) with b_i = eta + s + 2i and
    a_i = -i (s - 1 + i), for s >= 0, in the number type of s and eta:
    float for tricomi_u, mpmath numbers at the working precision for
    scaled_expint.

    Steed's method sums the convergents' steps until one is below tol
    relative to the sum, which sets the depth; the value is the fraction at
    that depth evaluated from the bottom up, within about an ulp in float,
    where the running sum drifts by up to 7.
    """
    c, s1 = eta + s, s - 1.0
    b = c + 2.0
    d = 1.0 / b
    step = -s * d
    total = c + step        # the convergents of 1 / I stay positive
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
    return 1.0 / h


def expint_ladders(etas, s_max: int, s0=0.0) -> list[np.ndarray]:
    """I_{s0+k} = int_0^inf e^{-eta v} (1+v)^{-(s0+k)} dv for k = 0 .. s_max,
    one ladder per eta of a sequence.

    The three-term recurrence I_{s+1} = (1 - eta I_s)/s holds for real s and
    is stable upward for s > eta and downward below, so each ladder is
    seeded at s0 + k0 with k0 ~ ceil(eta - s0) + 1 and run in the stable
    direction on each side.  The etas that share a k0 get their seeds from
    one call.  The rungs are floats for float etas, seeded by tricomi_u,
    else Decimals at the precision of the current decimal context, orders
    s0 + k included, seeded by scaled_expint at that many digits under
    _SEED_LOCK; mpmath takes no Decimal, so the seeds' arguments and values
    pass as strings, and a value's string rounds it within 10^(1 - digits)
    relative.
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


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def power_moments(m0: float, rows: int, k_max: int, c: float, x0: float):
    """ln P and a bound on P's relative error, P[j, k] = int_0^x0 x^k
    (1 + c x)^-m dx = c^-(k+1) B_t0(k+1, b), m = m0 + 2j > 0, b = m - k - 1,
    t0 = c x0 / Y, Y = 1 + c x0, j < rows, k <= k_max <= 50.  Where b > 0,
    c^-(k+1) B(k+1, b) betainc(k+1, b, t0), ln B by the ratios k / b from
    B(1, m - 1); else x0^(k+1) Y^-m 2F1(m, 1; k+2; t0) / (k+1) (DLMF 8.17.8)
    by hyp2f1 below Y = _HYP2F1_Y, and above, where it is up to 1.2e-11 off
    at an integer m, by S(k) = (Y - k S(k-1)) / (-b (Y - 1)) (by parts) from
    betainc's last cell, the closed form at k = 0 or at b = 0 t0^-m (ln Y -
    sum_{i<m} t0^i / i).  The bound adds all rounding and scipy's error."""
    y, ln_y = 1.0 + c * x0, math.log1p(c * x0)
    t0, ln_c = c * x0 / y, math.log(c)
    m, k = m0 + 2.0 * np.arange(rows)[:, None], np.arange(k_max + 1.0)
    pos = (b := m - k - 1.0) > 0.0
    steps = np.log(np.where(pos, np.concatenate(
        [1.0 / (m - 1.0), k[1:] / b[:, 1:]], axis=1), 1.0))
    ln_i = np.log(special.betainc(k + 1.0, np.where(pos, b, 1.0), t0))
    logs = np.cumsum(steps, axis=1) + ln_i - (k + 1.0) * ln_c
    sens = np.exp(np.minimum((k + 1.0) * (math.log(t0) - ln_c) - logs
                             - (b - 1.0) * ln_y, 700.0))    # t0 f(t0) / I
    errs = _BETAINC_REL + _EPS * (4.0 * (sens + np.abs(ln_i) + (k + 1.0) * abs(
        ln_c) + 4.0) + np.cumsum(np.abs(steps) + 2.0, axis=1))
    shift = m * ln_y - (k + 1.0) * math.log(x0)     # ln(Y^m / x0^(k+1))
    if y < _HYP2F1_Y or pos.all():
        mm, kk = (x[~pos] for x in np.broadcast_arrays(m, k))
        s, e_s = np.ones(b.shape), _HYP2F1_REL + 4.0 * _EPS * y
        s[~pos] = special.hyp2f1(mm, 1.0, kk + 2.0, t0) / (kk + 1.0)
    else:
        part = np.concatenate(([0.0], np.cumsum(t0 ** k[1:] / k[1:])))
        part = part[np.clip(m - 1.0, 0, k_max).astype(int)]
        given = pos | (b == 0.0) | (k == 0.0)
        alpha = np.where(pos, np.exp(logs + shift), np.where(
            b == 0.0, t0 ** -m * (ln_y - part),
            y * np.expm1((m - 1.0) * ln_y) / ((y - 1.0) * (m - 1.0))))
        e_a = np.where(pos, errs + 2.0 * _EPS * (np.abs(logs) + np.abs(
            shift)), 4.0 * _EPS * np.where(b == 0.0, (m + 2.0) * (
                ln_y + part) / (ln_y - part), 1.0 + np.abs((m - 1.0) * ln_y)))
        # S(k) = alpha_k + beta_k S(k-1) from each row's last given cell
        alpha = np.where(given, alpha, y / (-b * (y - 1.0))) * ~(
            given & np.roll(given, -1, axis=1) & (k < k_max))
        scale = np.cumprod(np.where(given, 1.0, k / (b * (y - 1.0))), axis=1)
        s = scale * np.cumsum(alpha / scale, axis=1)
        e_s = np.abs(scale / s) * np.cumsum(np.abs(alpha / scale) * (
            np.where(given, e_a, 0.0) + (6 * k_max + 8) * _EPS), axis=1)
    logs = np.where(pos, logs, np.log(s) - shift)
    return logs, np.where(pos, errs, e_s + 2.0 * _EPS * (
        np.abs(logs) + np.abs(shift)))


# ---------------------------------------------------------------------------
# Beta function
# ---------------------------------------------------------------------------

def beta_fn(a: float, b: float) -> float:
    """Beta function B(a, b) = Gamma(a)Gamma(b)/Gamma(a+b) for a, b > 0."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"beta_fn requires positive arguments, got ({a}, {b})")
    return float(special.beta(a, b))
