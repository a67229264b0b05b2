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
redone with more guard bits where its two terms cancel; a call makes
Gamma(1-s) once, and again per redo.  tricomi_u is its float64 form.

The float functions are pure and thread-safe.  scaled_expint reads
mpmath's working precision, which is process-wide (mp.workdps sets it for
every thread), unlike a decimal context, which is per thread.
"""

from __future__ import annotations

import math

import mpmath
from scipy import special

_SQRT2 = math.sqrt(2.0)
# scaled_expint switches to the continued fraction at eta >= _CF_ETA: it
# needs 64 terms at eta = 10 and 17 at eta = 100, but about 400 near 1
_CF_ETA = 32.0
# bits carried beyond the working precision by the sum in _expint_sum
_SEED_GUARD_BITS = 32


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
    cancel (_expint_sum), and Gamma(1-s) is made once per guard.  From
    _CF_ETA up, where expint loses every digit if s is large too, it is the
    continued fraction of E_s by the modified Lentz method (Numerical
    Recipes, 3rd ed., 6.3).
    """
    mp = mpmath.mp
    s, etas, gammas = mp.mpf(s), [mp.mpf(eta) for eta in etas], {}
    bad = [eta for eta in etas if not eta > 0]
    if bad:
        raise ValueError(f"scaled_expint requires eta > 0, got {bad[0]}")
    return [_expint_fraction(s, eta) if eta >= _CF_ETA
            else mp.exp(eta) * mp.expint(s, eta) if mp.isint(s)
            else _expint_sum(s, eta, gammas) for eta in etas]


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


def _expint_sum(s, eta, gammas):
    """e^eta eta^(s-1) Gamma(1-s) - 1F1(1; 2-s; eta) / (1-s) for non-integer s.

    Both terms have poles at the integers, so near one they cancel: by
    about log2(1/|s - m|) bits, plus more where e^eta eta^(s-1) / Gamma(s)
    is large.  The sum runs _SEED_GUARD_BITS above the working precision
    and is redone once with the bits it lost added to the guard; a redo
    that still loses more than its guard, or a zero sum, is a
    ConvergenceError.  gammas maps guard bits to Gamma(1-s) at them, shared
    by the etas of one scaled_expint call.
    """
    mp = mpmath.mp
    guard = _SEED_GUARD_BITS
    for _ in range(2):
        with mp.extraprec(guard):
            if guard not in gammas:
                gammas[guard] = mp.gamma(1 - s)
            head = mp.exp(eta + (s - 1) * mp.ln(eta)) * gammas[guard]
            tail = mp.hyp1f1(1, 2 - s, eta) / (1 - s)
            value = head - tail
        if not value:
            break
        lost = max(mp.mag(head), mp.mag(tail)) - mp.mag(value)
        if lost <= guard:
            return +value
        guard = lost + _SEED_GUARD_BITS
    raise ConvergenceError(f"E_s sum cancels at s={s}, eta={eta}")


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
