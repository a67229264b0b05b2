"""Rayleigh block-fading channel model with ordered gains for a user pool.

A base station serves V single-antenna users whose channel power gains are
independent unit-mean exponentials (Rayleigh fading, unit variance), ranked
ascending each fading block.  Two of them are paired for power-domain NOMA:
the weak user (order index t, larger power share) decodes against the strong
user's interference, while the strong user (order index u > t) applies
successive interference cancellation and sees interference-free SNR.
Sampling draws one user's ranked gain directly, without sorting the pool
(sample_gain): each evaluator and the queue simulator needs only the law of
its own user's gain, never the joint law of the pair.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .fblrate import LN2
from .specfun import beta_fn

ROLES = ("weak", "strong")


def db_to_linear(x_db: float) -> float:
    return 10.0 ** (x_db / 10.0)


@dataclass(frozen=True)
class SystemConfig:
    """Scenario parameters; the single source of truth for every evaluator.

    V          total number of users in the pool
    t, u       order indices of the paired weak / strong user, 1 <= t < u <= V
    alpha_t    power-allocation coefficient of the weak user
    alpha_u    power-allocation coefficient of the strong user; the pair
               splits the full power, alpha_t + alpha_u = 1
    rho        transmit SNR, linear scale
    n          blocklength in channel uses
    eps        transmission error probability of both users, 0 < eps < 1
    theta_t/u  delay QoS exponents of the two users
    """

    V: int
    t: int
    u: int
    alpha_t: float
    alpha_u: float
    rho: float
    n: int
    eps: float
    theta_t: float
    theta_u: float

    def __post_init__(self):
        if self.V < 1:
            raise ValueError(f"V must be positive, got {self.V}")
        if not 1 <= self.t < self.u <= self.V:
            raise ValueError(
                f"order indices must satisfy 1 <= t < u <= V, got t={self.t}, "
                f"u={self.u}, V={self.V}")
        if not (self.alpha_t > self.alpha_u > 0.0):
            raise ValueError(
                f"power coefficients must satisfy alpha_t > alpha_u > 0, got "
                f"({self.alpha_t}, {self.alpha_u})")
        alpha_sum = self.alpha_t + self.alpha_u
        if abs(alpha_sum - 1.0) > 1e-12:
            raise ValueError(
                f"alpha_t + alpha_u must equal 1, got {alpha_sum}")
        for name in ("rho", "theta_t", "theta_u"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(
                    f"{name} must be positive and finite, got {value}")
        if self.n < 1:
            raise ValueError(f"blocklength n must be >= 1, got {self.n}")
        if not 0.0 < self.eps < 1.0:
            raise ValueError(f"eps must lie in (0, 1), got {self.eps}")

    def order_index(self, role: str) -> int:
        _check_role(role)
        return self.t if role == "weak" else self.u

    def theta_for(self, role: str) -> float:
        _check_role(role)
        return self.theta_t if role == "weak" else self.theta_u


def _check_role(role: str):
    if role not in ROLES:
        raise ValueError(f"role must be one of {ROLES}, got {role!r}")


# ---------------------------------------------------------------------------
# Gain statistics
# ---------------------------------------------------------------------------

def _check_order(k: int, V: int):
    if not 1 <= k <= V:
        raise ValueError(f"order index k must lie in [1, {V}], got {k}")


def ordered_pdf(x, k: int, V: int):
    """Density of the k-th smallest of V iid unit-mean exponential gains."""
    xi = 1.0 / ordered_mixture(k, V)[0]
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise ValueError("power gain must be non-negative")
    F = -np.expm1(-x)
    out = xi * np.exp(-x) * F ** (k - 1) * np.exp(-(V - k) * x)
    return float(out) if out.ndim == 0 else out


def ordered_mixture(k: int, V: int):
    """ordered_pdf as a signed sum of exponentials, the form the closed
    forms integrate term by term: by the binomial expansion of
    (1 - e^-x)^(k-1), f(x) = sum_{r<k} w_r e^(-lambda_r x) / B with
    B = B(k, V - k + 1), lambda_r = V - k + 1 + r and w_r = (-1)^r C(k-1, r).
    Returns (B, rates, weights), the last two as tuples of ints."""
    _check_order(k, V)
    return (beta_fn(k, V - k + 1), tuple(range(V - k + 1, V + 1)),
            tuple((-1) ** r * math.comb(k - 1, r) for r in range(k)))


@functools.lru_cache(maxsize=4)
def ordered_taylor(k: int, V: int, terms: int):
    """B times ordered_pdf's Taylor coefficients at 0 below x^terms, each an
    integer ratio rounded once, and sum_r |w_r| lambda_r^terms / terms!,
    which bounds B |f^(terms)| / terms! on x >= 0 (ordered_mixture)."""
    _, rates, weights = ordered_mixture(k, V)
    return (tuple(sum(w * (-rate) ** i for w, rate in zip(weights, rates))
                  / math.factorial(i) for i in range(terms)),
            sum(abs(w) * rate ** terms for w, rate in zip(weights, rates))
            / math.factorial(terms))


def ordered_cdf(x, k: int, V: int):
    """CDF of the k-th order statistic: F(X_(k)) ~ Beta(k, V - k + 1)."""
    _check_order(k, V)
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise ValueError("power gain must be non-negative")
    out = special.betainc(k, V - k + 1, -np.expm1(-x))
    return float(out) if out.ndim == 0 else out


def ordered_quantile(q: float, k: int, V: int) -> float:
    """Quantile of the k-th order statistic, by inverting its Beta law."""
    _check_order(k, V)
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile level must lie in (0, 1), got {q}")
    return -math.log1p(-float(special.betaincinv(k, V - k + 1, q)))


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def _mirror_order_gain(y):
    """Map y in place to x = -ln(1 - e^-y) and return it.

    The map is decreasing and carries a unit exponential to a unit
    exponential, so it takes the m-th smallest of V gains to the
    (V - m + 1)-th smallest.  Two branches keep it within 1e-15 relative
    from y = 1e-12 to 700 (Maechler 2012, "Accurately computing
    log(1 - exp(-|a|))"): -log(-expm1(-y)) up to ln 2 and -log1p(-exp(-y))
    above, where the first would lose the digits of e^-y to the rounding
    of 1 - e^-y (4 % off at y = 36).
    """
    large = y > LN2
    tail = y[large]
    np.negative(y, out=y)
    np.expm1(y, out=y)
    np.negative(y, out=y)
    np.log(y, out=y)
    np.negative(y, out=y)
    y[large] = -np.log1p(-np.exp(-tail))
    return y


def sample_gain(k: int, V: int, size: int, rng: np.random.Generator):
    """Draw `size` realizations of X_(k), the k-th smallest of V iid
    unit-mean exponential gains; returns one fresh contiguous float64 array.

    Uses Renyi's representation of exponential order statistics,
    X_(j) = sum_{i<j} E_i / (V - i) with E_i iid unit exponentials (Renyi
    1953; David & Nagaraja, Order Statistics, sec. 2.5): it sorts nothing
    and draws min(k, m) exponentials per realization, m = V - k + 1.  From
    the bottom (k <= m) it sums the first k spacings; from the top it sums
    the first m into the m-th smallest gain Y and mirrors it,
    X_(k) = -ln(1 - e^-Y) (_mirror_order_gain).  The spacings are drawn one
    row of `size` at a time, in the generator's order, into one reused
    buffer and added in index order, so the peak is about two arrays of
    `size`: the output and the row.
    """
    _check_order(k, V)
    m = V - k + 1
    x, row = np.zeros(size), np.empty(size)
    for i in range(min(k, m)):
        rng.standard_exponential(out=row)
        row /= V - i
        x += row
    return x if k <= m else _mirror_order_gain(x)


# ---------------------------------------------------------------------------
# SINR map
# ---------------------------------------------------------------------------

def gamma_for_role(x, cfg: SystemConfig, role: str, out=None):
    """SINR of the role's user at gain x: the weak user's, which treats the
    strong user as interference and stays below alpha_t / alpha_u, or the
    strong user's interference-free SNR after SIC.  An array ``out`` of x's
    shape, not x itself, receives the result."""
    _check_role(role)
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x) if out is None else out
    if role == "weak":
        np.multiply(cfg.alpha_u, x, out=out)
        out += 1.0 / cfg.rho
        np.divide(cfg.alpha_t * x, out, out=out)
    else:
        np.multiply(cfg.alpha_u * cfg.rho, x, out=out)
    return float(out) if out.ndim == 0 else out


def gain_for_gamma(gamma: float, cfg: SystemConfig, role: str) -> float:
    """Inverse of gamma_for_role; inf for a weak-user gamma at or above
    alpha_t / alpha_u, which that SINR never reaches."""
    _check_role(role)
    if role == "strong":
        return gamma / (cfg.alpha_u * cfg.rho)
    denom = cfg.alpha_t - gamma * cfg.alpha_u
    if denom <= 0.0:
        return math.inf
    return gamma / (cfg.rho * denom)


def scalar_integrand(cfg: SystemConfig, role: str, kernel):
    """kernel(gamma_for_role(x)) * ordered_pdf(x) as a function of one float
    for a float kernel (fblrate.scalar_kernel): plain float arithmetic over
    constants made once here, as QUADPACK calls it node by node."""
    k = cfg.order_index(role)
    xi, k_1, v_k = 1.0 / ordered_mixture(k, cfg.V)[0], k - 1, cfg.V - k
    a_t, a_u, rho_inv = cfg.alpha_t, cfg.alpha_u, 1.0 / cfg.rho
    snr = cfg.alpha_u * cfg.rho
    weak = role == "weak"

    def integrand(x):
        g = a_t * x / (a_u * x + rho_inv) if weak else snr * x
        pdf = (xi * math.exp(-x) * (-math.expm1(-x)) ** k_1
               * math.exp(-v_k * x))
        return kernel(g) * pdf

    return integrand
