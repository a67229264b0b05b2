"""Special functions used by the closed-form capacity expressions.

Where scipy.special computes the exact quantity, this module calls it and
adds only the domain check the callers rely on:

  * the Gaussian Q-function and its inverse, Qinv(p) = -ndtri(p)
  * the exponential integral Ei on the negative axis (scipy's expi)
  * the Beta function (scipy's beta: within 2.3 eps of the exact value at
    every integer pair of a pool of up to 40 users)

Two evaluators stay hand-written.  tricomi_u gives U(1, b, z) from its
Laplace integral by adaptive Gauss-Legendre quadrature (gauss_adaptive);
it seeds the I_s ladders of both users, which need U at large negative b,
where scipy.special.hyperu returns nan.  A scipy quad seed would be faster
and more accurate, but any change to the seeds moves the strong user's
closed form by its float rounding noise (see ROADMAP, Open item 2), so the
swap waits for a strong-user sum that does not cancel.

All functions are pure and thread-safe.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

_SQRT2 = math.sqrt(2.0)
# tricomi_u maps a tail with s > _POWER_TAIL_RATIO * z by its power law: the
# exponential map would put the tail's e-fold within 2z/s < 8.3e-4 of u = 1,
# inside the 8.4e-4 gap between the end of [0, 1] and the nearest 41-point
# Gauss-Legendre node, where neither rule of gauss_adaptive sees it.
_POWER_TAIL_RATIO = 2400.0


class ConvergenceError(RuntimeError):
    """An adaptive scheme failed to reach its tolerance."""


class InsufficientDataError(ValueError):
    """Not enough qualifying data points for a statistical fit."""


# ---------------------------------------------------------------------------
# Adaptive Gauss-Legendre quadrature
# ---------------------------------------------------------------------------

_GL_LO = np.polynomial.legendre.leggauss(20)
_GL_HI = np.polynomial.legendre.leggauss(41)


def _panel(f, a, b):
    """Low/high order Gauss-Legendre estimates of the integral over [a, b]."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    xl, wl = _GL_LO
    xh, wh = _GL_HI
    lo = half * float(np.dot(wl, f(mid + half * xl)))
    hi = half * float(np.dot(wh, f(mid + half * xh)))
    return lo, hi


def gauss_adaptive(f, a: float, b: float, abs_tol: float = 1e-12,
                   rel_tol: float = 1e-12, max_panels: int = 4096) -> float:
    """Adaptive Gauss-Legendre integration of a vectorized callable on [a, b].

    Panels are bisected until the difference between the order-20 and
    order-41 rules is below ``max(abs_tol * width_fraction, rel_tol * |I|)``.
    Raises ConvergenceError if the panel budget is exhausted.
    """
    if not b > a:
        raise ValueError(f"empty integration interval [{a}, {b}]")
    total_width = b - a
    stack = [(a, b)]
    pieces = []
    panels = 0
    while stack:
        lo_a, lo_b = stack.pop()
        panels += 1
        if panels > max_panels:
            raise ConvergenceError(
                f"adaptive quadrature exceeded {max_panels} panels on [{a}, {b}]")
        coarse, fine = _panel(f, lo_a, lo_b)
        err = abs(fine - coarse)
        budget = max(abs_tol * (lo_b - lo_a) / total_width,
                     rel_tol * abs(fine))
        if err <= budget or (lo_b - lo_a) < 1e-15 * total_width:
            pieces.append(fine)
        else:
            mid = 0.5 * (lo_a + lo_b)
            stack.append((lo_a, mid))
            stack.append((mid, lo_b))
    return math.fsum(pieces)


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
# Tricomi confluent hypergeometric function of the second kind
# ---------------------------------------------------------------------------

def tricomi_u(a: float, b: float, z: float, abs_tol: float = 1e-12,
              rel_tol: float = 1e-12) -> float:
    """Confluent hypergeometric function of the second kind at a = 1.

    Evaluates the Laplace integral

        U(1, b, z) = int_0^inf e^{-z y} (1+y)^{b-2} dy = e^z E_{2-b}(z)

    for z > 0 and any real b.  The integral is split at y = 1 and both
    pieces are integrated by adaptive Gauss-Legendre.  The tail is mapped
    onto (0, 1] by y = 1 - ln(u)/z, which follows its exponential decay;
    where s = 2 - b exceeds _POWER_TAIL_RATIO * z the power law decays so
    much faster that this map squeezes the tail into a spike at u = 1 that
    no rule node reaches, so the map that follows (1+y)^-s is used there.
    Only a = 1 is implemented, the case every capacity moment reduces to.
    """
    if a != 1.0 or z <= 0.0:
        raise ValueError(f"tricomi_u requires a = 1 and z > 0, got a={a}, z={z}")
    power = b - a - 1.0
    s = -power

    def head(y):
        return np.exp(-z * y) * (1.0 + y) ** power

    head_val = gauss_adaptive(head, 0.0, 1.0, abs_tol, rel_tol)

    if s > 1.0 and s > _POWER_TAIL_RATIO * z:
        # power-law tail: 1 + y = 2 u^(-1/(s-1)) makes (1+y)^-s dy flat in u;
        # it is integrated before scaling, so its absolute tolerance is its
        # share of U's error budget over the scale
        scale = 2.0 ** (1.0 - s) / (s - 1.0)
        tail_tol = min(abs_tol, rel_tol * head_val) / max(scale, 1.0)
        inv = 1.0 / (s - 1.0)

        def tail(u):
            with np.errstate(over="ignore"):
                return np.exp(-z * (2.0 * u ** -inv - 1.0))
    else:
        scale = math.exp(-z) / z
        tail_tol = abs_tol

        def tail(u):
            y = 1.0 - np.log(u) / z
            return (1.0 + y) ** power

    if scale > 0.0:
        tail_val = scale * gauss_adaptive(tail, 0.0, 1.0, tail_tol, rel_tol)
    else:
        tail_val = 0.0
    return head_val + tail_val


# ---------------------------------------------------------------------------
# Beta function
# ---------------------------------------------------------------------------

def beta_fn(a: float, b: float) -> float:
    """Beta function B(a, b) = Gamma(a)Gamma(b)/Gamma(a+b) for a, b > 0."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"beta_fn requires positive arguments, got ({a}, {b})")
    return float(special.beta(a, b))
