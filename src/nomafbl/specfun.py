"""Special functions used by the closed-form capacity expressions.

Where scipy.special computes the exact quantity, this module calls it and
adds only the domain check the callers rely on:

  * the Gaussian Q-function and its inverse, Qinv(p) = -ndtri(p)
  * the exponential integral Ei on the negative axis (scipy's expi)
  * the Beta function (scipy's beta: within 2.3 eps of the exact value at
    every integer pair of a pool of up to 40 users)

scaled_expint gives e^eta E_s(eta) = U(1, 2 - s, eta) for real s at
mpmath's working precision and seeds the I_s ladders of both users: scipy
has no real-order E_s (its hyperu is nan at the large negative b needed),
and the strong user's alternating sum cancels up to about 30 digits, so its
ladders run in extended precision.  tricomi_u is its float64 form.

The float functions are pure and thread-safe; scaled_expint reads mpmath's
process-wide working precision.
"""

from __future__ import annotations

import math

import mpmath
from scipy import special

_SQRT2 = math.sqrt(2.0)
# scaled_expint switches to the continued fraction at eta >= _CF_ETA: it
# needs 64 terms at eta = 10 and 17 at eta = 100, but about 400 near 1
_CF_ETA = 32.0


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

def scaled_expint(s, eta):
    """e^eta E_s(eta) = int_0^inf e^{-eta v} (1+v)^{-s} dv for real s, eta > 0.

    Returns an mpmath number at the working precision.  Below _CF_ETA it is
    mpmath's expint at integer s, else the sum expint falls back to after a
    divergent asymptotic series, e^eta eta^(s-1) Gamma(1-s) - 1F1(1; 2-s;
    eta) / (1-s), at a third of the cost.  From _CF_ETA up, where expint
    loses every digit if s is large too, it is the continued fraction of
    E_s by the modified Lentz method (Numerical Recipes, 3rd ed., 6.3).
    """
    mp = mpmath.mp
    s, eta = mp.mpf(s), mp.mpf(eta)
    if not eta > 0:
        raise ValueError(f"scaled_expint requires eta > 0, got {eta}")
    if eta < _CF_ETA and mp.isint(s):
        return mp.exp(eta) * mp.expint(s, eta)
    if eta < _CF_ETA:
        return mp.hypercomb(lambda s: [
            ([mp.exp(eta), eta], [1, s - 1], [1 - s], [], [], [], 0),
            ([-1], [1], [1 - s], [2 - s], [1], [2 - s], eta)], [s])
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


def tricomi_u(a: float, b: float, z: float) -> float:
    """Tricomi's U(1, b, z) = e^z E_{2-b}(z) for z > 0 and real b, as a float.

    Only a = 1 is implemented, the case every capacity moment reduces to.
    """
    if a != 1.0 or z <= 0.0:
        raise ValueError(f"tricomi_u requires a = 1 and z > 0, got a={a}, z={z}")
    return float(scaled_expint(2.0 - b, z))


# ---------------------------------------------------------------------------
# Beta function
# ---------------------------------------------------------------------------

def beta_fn(a: float, b: float) -> float:
    """Beta function B(a, b) = Gamma(a)Gamma(b)/Gamma(a+b) for a, b > 0."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"beta_fn requires positive arguments, got ({a}, {b})")
    return float(special.beta(a, b))
