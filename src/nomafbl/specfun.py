"""Special functions used by the closed-form capacity expressions.

Where scipy.special computes the exact quantity, this module calls it and
adds only the domain check the callers rely on:

  * the Gaussian Q-function and its inverse, Qinv(p) = -ndtri(p)
  * the exponential integral Ei on the negative axis (scipy's expi)
  * the Beta function (scipy's beta: within 2.3 eps of the exact value at
    every integer pair of a pool of up to 40 users)

scaled_expint gives e^eta E_s(eta) = U(1, 2 - s, eta) for one real s and
a sequence of eta at mpmath's working precision, and seeds the I_s ladders
of both users, one call per seed order for all of a row's ladders: scipy
has no real-order E_s (its hyperu is nan at the large negative b needed),
and the strong user's alternating sum cancels up to about 30 digits, so its
ladders run in extended precision.  Below eta = 32 a non-integer order is
the direct sum e^eta eta^(s-1) Gamma(1-s) - 1F1(1; 2-s; eta) / (1-s),
redone with more guard bits where its two terms cancel.  A call makes
Gamma(1-s) once, and again per redo guard, and sums the 1F1 series of all
its eta in one fixed-point pass: the denominators 2 - s + k and the terms
at the largest eta are made once, and each eta adds one Horner pass of a
multiply and a shift per term.  tricomi_u is its float64 form.

The float functions are pure and thread-safe.  scaled_expint reads
mpmath's working precision, which is process-wide (mp.workdps sets it for
every thread), unlike a decimal context, which is per thread.
"""

from __future__ import annotations

import math

import mpmath
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
    of E_s by the modified Lentz method (Numerical Recipes, 3rd ed., 6.3).
    """
    mp = mpmath.mp
    s, etas = mp.mpf(s), [mp.mpf(eta) for eta in etas]
    bad = [eta for eta in etas if not eta > 0]
    if bad:
        raise ValueError(f"scaled_expint requires eta > 0, got {bad[0]}")
    direct = [] if mp.isint(s) else [eta for eta in etas if eta < _CF_ETA]
    sums = iter(_expint_sums(s, direct) if direct else [])
    return [_expint_fraction(s, eta) if eta >= _CF_ETA
            else mp.exp(eta) * mp.expint(s, eta) if mp.isint(s)
            else next(sums) for eta in etas]


def _expint_fraction(s, eta):
    """The continued fraction of e^eta E_s(eta), for eta >= _CF_ETA."""
    mp = mpmath.mp
    b = eta + s
    c, d = mp.inf, 1 / b
    h = d
    for i in range(1, 10_000):
        an = -i * (s - 1 + i)
        b += 2
        d = 1 / (an * d + b)
        c = b + an / c
        h *= c * d
        if abs(c * d - 1) <= mp.eps:
            return h
    raise ConvergenceError(f"E_s fraction unconverged at s={s}, eta={eta}")


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


def tricomi_u(a: float, b: float, z: float) -> float:
    """Tricomi's U(1, b, z) = e^z E_{2-b}(z) for z > 0 and real b, as a float.

    Only a = 1 is implemented, the case every capacity moment reduces to.
    """
    if a != 1.0 or z <= 0.0:
        raise ValueError(f"tricomi_u requires a = 1 and z > 0, got a={a}, z={z}")
    return float(scaled_expint(2.0 - b, [z])[0])


# ---------------------------------------------------------------------------
# Beta function
# ---------------------------------------------------------------------------

def beta_fn(a: float, b: float) -> float:
    """Beta function B(a, b) = Gamma(a)Gamma(b)/Gamma(a+b) for a, b > 0."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"beta_fn requires positive arguments, got ({a}, {b})")
    return float(special.beta(a, b))
