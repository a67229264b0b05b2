"""Finite-blocklength rate and the per-sample effective-capacity kernel.

The normal-approximation rate over n channel uses at error probability eps is

    r = log2(1 + gamma) - delta(gamma) * Qinv(eps) / (sqrt(n) * ln 2)   [bits/use]

with channel dispersion root delta = sqrt(1 - (1+gamma)^-2).  Multiplying by
ln 2 gives the same rate in nats per use.

The effective-capacity machinery works with the Laplace-style kernel

    k(gamma) = eps + (1 - eps) * (1 + gamma)^(2 zeta) * exp(beta * delta)

where 2*zeta = -theta*n and beta = theta*sqrt(n)*Qinv(eps), i.e. exactly
exp(-theta * n * r_nats) mixed with the decoding-failure mass eps.  The
effective capacity in bits per channel use is then
-ln E[k] / (theta * n * ln 2).  A widely reproduced typo folds the ln 2 of
the unit conversion into zeta as well; doing both double-counts it and makes
the "capacity" exceed the mean service rate, so the nat-domain zeta is used
here and the single ln 2 stays in the outer transform.

The closed forms integrate an expansion of the kernel instead: e^(beta delta)
to order M in beta and each delta^m = (1 - w)^(m/2), w = (1+gamma)^-2, to
order J in w, so that the bracket becomes sum_j a_j (1+gamma)^(2 zeta - 2j),
a sum of moments with closed forms.  (M, J) = (2, 1) is the expansion as
first derived; expansion_order picks a higher order where beta allows it,
and expansion_error_coeffs bounds what either truncation leaves out.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .specfun import gaussian_q_inv

LN2 = math.log(2.0)

# The second-order kernel expansion of the closed forms as first derived:
# e^(beta delta) to order beta^2, delta ~ 1 - (1+gamma)^-2 / 2.
PAPER_ORDER = (2, 1)
# Highest Maclaurin order tried, reached near beta = 5 at the default
# tolerance, and the binomial order used with it.  J = 16 brings the 0 dB
# weak user of the presets within 2.5 % of the exact kernel; its shifted
# moments need up to about 450 series terms at beta = 4, inside the default
# term budget (EvalControls.series_max_terms).
ORDER_M_MAX = 30
ORDER_J_MAX = 16


@dataclass(frozen=True)
class KernelParams:
    """Derived per-user constants of the capacity kernel.

    zeta    log-term half exponent, -theta*n/2 (negative for theta > 0)
    beta    dispersion-term coefficient theta*sqrt(n)*Qinv(eps)
    """

    zeta: float
    beta: float


def make_kernel_params(theta: float, n: int, eps: float) -> KernelParams:
    if theta <= 0.0:
        raise ValueError(f"theta must be positive, got {theta}")
    if n < 1:
        raise ValueError(f"blocklength n must be >= 1, got {n}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    return KernelParams(zeta=-theta * n / 2.0,
                        beta=theta * math.sqrt(n) * gaussian_q_inv(eps))


def dispersion_root(gamma, out=None):
    """sqrt(1 - (1+gamma)^-2), the square root of the channel dispersion.

    Evaluated as sqrt(gamma*(gamma+2))/(1+gamma) to avoid cancellation at
    small gamma.  Lies in [0, 1) and increases monotonically.  An array
    ``out`` of gamma's shape, not gamma itself, receives the result.
    """
    g = np.asarray(gamma, dtype=float)
    # in place on the result and one scratch array; the result is an array
    # even for 0-d input, since out= takes no numpy scalar
    out = np.add(g, 2.0, out=np.empty_like(g) if out is None else out)
    out *= g
    np.sqrt(out, out=out)
    out /= 1.0 + g
    return float(out) if out.ndim == 0 else out


def fbl_rate(gamma, n: int, eps: float):
    """Normal-approximation achievable rate in bits per channel use.

    May be negative for small gamma; callers clamp if their semantics
    require it (the queue simulator does, the capacity kernel must not).
    """
    if n < 1:
        raise ValueError(f"blocklength n must be >= 1, got {n}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    g = np.asarray(gamma, dtype=float)
    if np.any(g < 0.0):
        raise ValueError("gamma must be non-negative")
    penalty = dispersion_root(g)
    penalty *= gaussian_q_inv(eps)
    penalty /= math.sqrt(n) * LN2
    out = np.add(g, 1.0, out=np.empty_like(g))
    np.log2(out, out=out)
    out -= penalty
    return float(out) if out.ndim == 0 else out


def rate_minimum(n: int, eps: float) -> float:
    """SNR gamma* at which fbl_rate(gamma, n, eps), and so exp(-theta n r) at
    every theta, is least: the root of delta / (1 - delta^2) = c, with
    c = Qinv(eps) / sqrt(n), is gamma* = sqrt((1 + sqrt(1 + 4c^2)) / 2) - 1.
    Where eps >= 1/2 (c <= 0) the rate only grows and gamma* is inf."""
    c = gaussian_q_inv(eps) / math.sqrt(n)
    u = 2.0 * c * c / (1.0 + math.sqrt(1.0 + 4.0 * c * c))  # (1 + gamma*)^2 - 1
    return math.expm1(0.5 * math.log1p(u)) if c > 0.0 else math.inf


def ec_kernel(gamma, kp: KernelParams, eps: float, out=None):
    """Inside-expectation integrand eps + (1-eps)(1+gamma)^(2 zeta) e^(beta delta),
    into ``out`` if given (an array of gamma's shape, not gamma itself)."""
    g = np.asarray(gamma, dtype=float)
    # one exponent: apart, (1+g)^(2 zeta) underflows where e^(beta delta)
    # overflows (theta*n large), and their product would be 0 * inf; made
    # in place on the result, with one scratch array alive at a time
    val = np.empty_like(g) if out is None else out
    dispersion_root(g, out=val)
    val *= kp.beta
    log_term = np.log1p(g)
    log_term *= 2.0 * kp.zeta
    val += log_term
    np.exp(val, out=val)
    val *= 1.0 - eps
    val += eps
    return float(val) if val.ndim == 0 else val


def scalar_kernel(kp: KernelParams, eps: float,
                  order: tuple[int, int] | None = None):
    """ec_kernel (order None) or its expansion at order, as a function of
    one float gamma: QUADPACK calls its integrand node by node, where
    numpy's per-call overhead would outweigh the arithmetic.

    With a = expansion_coeffs(beta, order) the expanded bracket is
    eps + (1-eps) (1+g)^(2z) sum_j a_j w^j, w = (1+g)^-2, by Horner's rule.
    PAPER_ORDER (2, 1) regroups, with K = beta^2/2 + beta, into

        eps + (1-eps) [ (1+g)^(2z) (K+1) - (1+g)^(2z-2) (K - beta/2) ];

    it is exact when beta = 0 and overshoots near gamma = 0 by roughly
    beta/2.  Higher orders close that gap (see expansion_error_coeffs).
    """
    one_eps, two_zeta, beta = 1.0 - eps, 2.0 * kp.zeta, kp.beta
    if order is None:
        def kernel(g):
            return eps + one_eps * math.exp(
                two_zeta * math.log1p(g)
                + beta * (math.sqrt(g * (g + 2.0)) / (1.0 + g)))
        return kernel
    coeffs = expansion_coeffs(beta, order)[::-1].tolist()

    def kernel(g):
        w, poly = (1.0 + g) ** -2.0, 0.0
        for c in coeffs:
            poly = poly * w + c
        return eps + one_eps * (1.0 + g) ** two_zeta * poly
    return kernel


def expansion_order(beta: float, rel_tol: float) -> tuple[int, int]:
    """Expansion order (M, J) of the kernel for dispersion coefficient beta.

    M is the smallest Maclaurin order of e^(beta delta) whose remainder
    bound |beta|^(M+1) e^max(beta,0) / (M+1)! is at most rel_tol, and J is
    then ORDER_J_MAX.  Where no M up to ORDER_M_MAX reaches rel_tol (large
    beta: the high-order coefficients grow like e^|beta| and cancel), the
    second-order expansion PAPER_ORDER is kept.
    """
    if beta == 0.0:
        return PAPER_ORDER              # the expansion is exact
    log_tol = math.log(rel_tol)
    log_rem = max(beta, 0.0)
    for m in range(1, ORDER_M_MAX + 2):
        log_rem += math.log(abs(beta)) - math.log(m)
        if m > 2 and log_rem <= log_tol:
            return m - 1, ORDER_J_MAX
    return PAPER_ORDER


@functools.lru_cache(maxsize=256)
def expansion_coeffs(beta: float, order: tuple[int, int]) -> np.ndarray:
    """Coefficients a_0..a_J of e^(beta delta) ~ sum_j a_j w^j, w = (1+gamma)^-2.

    e^(beta delta) is cut to M + 1 Maclaurin terms and each
    delta^m = (1 - w)^(m/2) to its binomial series through w^J.  Cached,
    since beta depends only on (theta, n, eps): a theta grid repeats across
    the SNR variants and users of a sweep (one fig4-fig6 pass makes 30 and
    reuses 330); the returned array is read-only.
    """
    m_max, j_max = order
    a = np.zeros(j_max + 1)
    weight = 1.0                        # beta^m / m!
    for m in range(m_max + 1):
        if m > 0:
            weight *= beta / m
        c = 1.0                         # C(m/2, j) (-1)^j
        for j in range(j_max + 1):
            a[j] += weight * c
            c *= (j - m / 2.0) / (j + 1)
    a.setflags(write=False)
    return a


@functools.lru_cache(maxsize=256)
def expansion_error_coeffs(beta: float, order: tuple[int, int]):
    """Bounds (r_M, t_J) on the two truncations of expansion_coeffs.

    For every gamma the expanded bracket differs from (1+gamma)^(2 zeta)
    e^(beta delta) by at most (1+gamma)^(2 zeta) (r_M + t_J w^(J+1)):
    r_M bounds the Maclaurin remainder (delta <= 1), and t_J bounds the
    binomial tails, whose terms beyond j > m/2 share one sign and so sum to
    at most |C(m/2 - 1, J)| w^(J+1).  Needs J >= M/2 - 1/2.  Cached, as
    expansion_coeffs is: its double loop runs once per (beta, order), not
    once per closed-form row.
    """
    m_max, j_max = order
    if 2 * j_max + 1 < m_max:
        raise ValueError(f"order {order}: J must be at least (M - 1)/2")
    log_b = math.log(abs(beta)) if beta else -math.inf
    log_r = (m_max + 1) * log_b + max(beta, 0.0) - math.lgamma(m_max + 2.0)
    r_m = math.exp(log_r) if log_r < 700.0 else math.inf
    t_j = 0.0
    weight = 1.0
    for m in range(1, m_max + 1):
        weight *= abs(beta) / m
        c = 1.0                         # C(m/2 - 1, J) by its product form
        for k in range(j_max):
            c *= (m / 2.0 - 1.0 - k) / (k + 1)
        t_j += weight * abs(c)
    return r_m, t_j
